#include "src/net/cache_client.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <thread>
#include <utility>

namespace flashps::net {

namespace {

constexpr size_t kReadChunk = 4096;

}  // namespace

CacheClient::CacheClient(std::string host, uint16_t port,
                         CacheClientOptions options)
    : host_(std::move(host)), port_(port), options_(options) {}

CacheClient::~CacheClient() { Close(); }

bool CacheClient::Connect() {
  if (connected()) {
    return true;
  }
  fd_ = ConnectTcpWithRetry(host_, port_, options_.connect_attempts,
                            options_.connect_backoff);
  last_error_ = fd_.valid() ? WireError::kOk : WireError::kConnectionClosed;
  if (fd_.valid() && !options_.auth_token.empty() && !Authenticate()) {
    Close();  // last_error_ already names the reason (e.g. kUnauthorized).
    return false;
  }
  return fd_.valid();
}

bool CacheClient::Authenticate() {
  const uint64_t seq = next_seq_++;
  if (!SendFrame(EncodeAuth(seq, options_.auth_token))) {
    return false;
  }
  const auto deadline = std::chrono::steady_clock::now() + options_.call_timeout;
  while (auth_acks_.find(seq) == auth_acks_.end()) {
    if (!PumpUntil(deadline)) {
      return false;
    }
  }
  auth_acks_.erase(seq);
  return true;
}

void CacheClient::Close() {
  fd_.Reset();
  inbuf_.clear();
  replies_.clear();
  metrics_.clear();
  auth_acks_.clear();
}

bool CacheClient::SendFrame(const std::vector<uint8_t>& frame) {
  if (!connected()) {
    last_error_ = WireError::kConnectionClosed;
    return false;
  }
  if (!SendAll(fd_.get(), frame.data(), frame.size())) {
    last_error_ = WireError::kConnectionClosed;
    Close();
    return false;
  }
  return true;
}

bool CacheClient::PumpOnce(std::chrono::milliseconds budget) {
  if (!connected()) {
    last_error_ = WireError::kConnectionClosed;
    return false;
  }
  pollfd pfd{fd_.get(), POLLIN, 0};
  const int ready = ::poll(&pfd, 1, static_cast<int>(budget.count()));
  if (ready <= 0) {
    return true;  // Nothing arrived within the budget; not an error.
  }
  uint8_t chunk[kReadChunk];
  const ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
  if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR)) {
    last_error_ = WireError::kConnectionClosed;
    Close();
    return false;
  }
  if (n > 0) {
    inbuf_.insert(inbuf_.end(), chunk, chunk + n);
  }
  size_t offset = 0;
  for (;;) {
    ParsedFrame frame;
    size_t consumed = 0;
    const WireError err = TryParseFrame(inbuf_.data() + offset,
                                        inbuf_.size() - offset, &frame,
                                        &consumed);
    if (err == WireError::kNeedMore) {
      break;
    }
    if (err != WireError::kOk) {
      last_error_ = err;
      Close();
      return false;
    }
    offset += consumed;
    switch (frame.type()) {
      case FrameType::kCacheHit: {
        CacheReply reply;
        reply.hit = true;
        std::string error;
        // The decoder verifies the payload against its checksum; a
        // corrupted matrix never reaches the reply bank.
        if (!DecodeCacheHit(frame, &reply.body, &error)) {
          last_error_ = WireError::kMalformedPayload;
          Close();
          return false;
        }
        replies_[frame.header.seq] = std::move(reply);
        break;
      }
      case FrameType::kCacheMiss: {
        CacheReply reply;
        CacheMissBody body;
        if (!DecodeCacheMiss(frame, &body)) {
          last_error_ = WireError::kMalformedPayload;
          Close();
          return false;
        }
        reply.hit = false;
        reply.body.key = body.key;
        replies_[frame.header.seq] = std::move(reply);
        break;
      }
      case FrameType::kMetricsReport:
        metrics_[frame.header.seq] =
            std::string(frame.payload.begin(), frame.payload.end());
        break;
      case FrameType::kAuthOk:
        auth_acks_.insert(frame.header.seq);
        break;
      case FrameType::kError: {
        WireErrorBody body;
        last_error_ = DecodeError(frame, &body)
                          ? static_cast<WireError>(body.code)
                          : WireError::kMalformedPayload;
        Close();
        return false;
      }
      default:
        last_error_ = WireError::kBadType;
        Close();
        return false;
    }
  }
  if (offset > 0) {
    inbuf_.erase(inbuf_.begin(),
                 inbuf_.begin() + static_cast<ptrdiff_t>(offset));
  }
  return true;
}

bool CacheClient::PumpUntil(std::chrono::steady_clock::time_point deadline) {
  const auto now = std::chrono::steady_clock::now();
  if (now >= deadline) {
    last_error_ = WireError::kTimeout;
    Close();
    return false;
  }
  const auto budget = std::min(
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now),
      std::chrono::milliseconds(50));
  return PumpOnce(std::max(budget, std::chrono::milliseconds(1)));
}

FetchRecordResult CacheClient::FetchRecord(int template_id, int steps,
                                           int blocks, bool want_kv) {
  FetchRecordResult result;
  if (!Connect()) {
    return result;
  }
  auto record = std::make_shared<model::ActivationRecord>();
  record->steps.resize(static_cast<size_t>(steps));
  for (auto& step : record->steps) {
    step.y.resize(static_cast<size_t>(blocks));
    if (want_kv) {
      step.k.resize(static_cast<size_t>(blocks));
      step.v.resize(static_cast<size_t>(blocks));
    }
  }
  // Fire every fetch before awaiting any reply.
  std::map<uint64_t, CacheKey> outstanding;
  const int kinds = want_kv ? 3 : 1;
  for (int step = 0; step < steps; ++step) {
    for (int block = 0; block < blocks; ++block) {
      for (int kind = 0; kind < kinds; ++kind) {
        CacheKey key;
        key.template_id = template_id;
        key.step = step;
        key.block = block;
        key.kind = static_cast<uint8_t>(kind);
        const uint64_t seq = next_seq_++;
        if (!SendFrame(EncodeCacheFetch(seq, key))) {
          return result;
        }
        outstanding.emplace(seq, key);
      }
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + options_.call_timeout;
  while (!outstanding.empty()) {
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      auto rit = replies_.find(it->first);
      if (rit == replies_.end()) {
        ++it;
        continue;
      }
      if (rit->second.hit) {
        const CacheKey& key = it->second;
        auto& step = record->steps[static_cast<size_t>(key.step)];
        Matrix& slot = key.kind == kCacheKindY
                           ? step.y[static_cast<size_t>(key.block)]
                           : key.kind == kCacheKindK
                                 ? step.k[static_cast<size_t>(key.block)]
                                 : step.v[static_cast<size_t>(key.block)];
        // Decode-on-fetch: the wire decoder already validated the
        // structure and checksum, so a failure here means a broken
        // encoder — treat it like any other malformed payload.
        Matrix decoded;
        if (!quant::Decode(rit->second.body.data, &decoded, nullptr)) {
          last_error_ = WireError::kMalformedPayload;
          Close();
          return result;
        }
        result.wire_bytes += rit->second.body.data.StoredBytes();
        result.bytes += decoded.bytes();
        slot = std::move(decoded);
        ++result.hits;
      } else {
        ++result.misses;
      }
      replies_.erase(rit);
      it = outstanding.erase(it);
    }
    if (outstanding.empty()) {
      break;
    }
    if (!PumpUntil(deadline)) {
      return result;
    }
  }
  result.transport_ok = true;
  result.complete = result.misses == 0;
  if (result.complete) {
    result.record = std::move(record);
  }
  return result;
}

PutRecordResult CacheClient::PutRecord(int template_id,
                                       const model::ActivationRecord& record,
                                       quant::PrecisionMode precision) {
  PutRecordResult result;
  if (!Connect()) {
    return result;
  }
  const bool has_kv = record.has_kv();
  const int num_steps = static_cast<int>(record.steps.size());
  // seq -> checksum the ack must echo back.
  std::map<uint64_t, uint64_t> outstanding;
  auto fire = [&](int step, int block, uint8_t kind,
                  const Matrix& m) -> bool {
    CacheKey key;
    key.template_id = template_id;
    key.step = step;
    key.block = block;
    key.kind = kind;
    const quant::EncodedMatrix encoded =
        quant::Encode(m, quant::DtypeForStep(precision, step, num_steps));
    // Refuse client-side before any bytes hit the socket: a frame the
    // node would reject as oversized can only desync the stream.
    if (CachePutPayloadBytes(encoded) > kMaxPayloadBytes) {
      last_error_ = WireError::kOversizedFrame;
      if (!outstanding.empty()) {
        Close();  // Earlier frames' acks are owed; drop them with the socket.
      }
      return false;
    }
    const uint64_t seq = next_seq_++;
    const uint64_t checksum = EncodedChecksum(encoded);
    if (!SendFrame(EncodeCachePut(seq, key, checksum, encoded))) {
      return false;
    }
    outstanding.emplace(seq, checksum);
    result.bytes += m.bytes();
    result.wire_bytes += encoded.StoredBytes();
    return true;
  };
  for (size_t step = 0; step < record.steps.size(); ++step) {
    const auto& acts = record.steps[step];
    for (size_t block = 0; block < acts.y.size(); ++block) {
      if (!fire(static_cast<int>(step), static_cast<int>(block), kCacheKindY,
                acts.y[block])) {
        return result;
      }
      if (has_kv) {
        if (!fire(static_cast<int>(step), static_cast<int>(block),
                  kCacheKindK, acts.k[block]) ||
            !fire(static_cast<int>(step), static_cast<int>(block),
                  kCacheKindV, acts.v[block])) {
          return result;
        }
      }
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + options_.call_timeout;
  while (!outstanding.empty()) {
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      auto rit = replies_.find(it->first);
      if (rit == replies_.end()) {
        ++it;
        continue;
      }
      // The ack must be a payload-less hit echoing the checksum of the
      // bytes we shipped; anything else means the entry did not land.
      if (!rit->second.hit || rit->second.body.has_payload() ||
          rit->second.body.checksum != it->second) {
        last_error_ = WireError::kMalformedPayload;
        Close();  // The other acks are still owed; drop them with the socket.
        return result;
      }
      ++result.puts;
      replies_.erase(rit);
      it = outstanding.erase(it);
    }
    if (outstanding.empty()) {
      break;
    }
    if (!PumpUntil(deadline)) {
      return result;
    }
  }
  result.transport_ok = true;
  return result;
}

CacheClientPool::CacheClientPool(std::string host, uint16_t port,
                                 CacheClientOptions options, int size) {
  const int n = std::max(1, size);
  clients_.reserve(static_cast<size_t>(n));
  idle_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    clients_.push_back(std::make_unique<CacheClient>(host, port, options));
    idle_.push_back(clients_.back().get());
  }
}

CacheClientPool::Lease CacheClientPool::Checkout() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !idle_.empty(); });
  CacheClient* client = idle_.back();
  idle_.pop_back();
  return Lease(this, client);
}

void CacheClientPool::Return(CacheClient* client) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    idle_.push_back(client);
  }
  cv_.notify_one();
}

std::optional<std::string> CacheClient::QueryMetrics(
    std::optional<std::chrono::milliseconds> timeout) {
  if (!Connect()) {
    return std::nullopt;
  }
  const uint64_t seq = next_seq_++;
  if (!SendFrame(EncodeMetricsQuery(seq))) {
    return std::nullopt;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        timeout.value_or(options_.call_timeout);
  for (;;) {
    auto it = metrics_.find(seq);
    if (it != metrics_.end()) {
      std::string json = std::move(it->second);
      metrics_.erase(it);
      return json;
    }
    if (!PumpUntil(deadline)) {
      return std::nullopt;
    }
  }
}

bool CacheClient::Probe(std::chrono::milliseconds timeout) {
  return QueryMetrics(timeout).has_value();
}

}  // namespace flashps::net
