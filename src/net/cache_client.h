// Client for the cache tier: fetches and stores whole activation records
// against a flashps_cached node, one matrix per wire frame.
//
// Like net::Client, this is single-threaded by design — one blocking
// socket, pipelined frames matched to replies by correlation id. A record
// of S steps x B blocks is S*B fetches (3x that with K/V), all fired
// before the first reply is awaited, so a whole-record fetch costs one
// round trip plus the transfer, not S*B round trips.
//
// Every payload that arrives is checksum-verified by the wire decoder
// before it is placed into the record, and every put acknowledgement is
// checked against the checksum of the bytes that were sent — a corrupted
// matrix can neither enter a record nor be believed stored.
#ifndef FLASHPS_SRC_NET_CACHE_CLIENT_H_
#define FLASHPS_SRC_NET_CACHE_CLIENT_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/model/diffusion_model.h"
#include "src/net/socket_util.h"
#include "src/net/wire.h"

namespace flashps::net {

struct CacheClientOptions {
  int connect_attempts = 1;
  // First retry delay; doubles per attempt.
  std::chrono::milliseconds connect_backoff{50};
  // Deadline for one whole-record fetch or put (all frames + all replies).
  std::chrono::milliseconds call_timeout{5000};
  // When non-empty, Connect() opens every session with a kAuth handshake
  // carrying this token and fails unless the node acknowledges it.
  std::string auth_token;
};

// Outcome of one whole-record fetch. `transport_ok` distinguishes "the
// node answered" from "the socket/protocol died mid-call": misses with a
// healthy transport mean the record simply is not resident yet, while a
// dead transport means the caller should count a fallback and consider
// the node unreachable.
struct FetchRecordResult {
  bool transport_ok = false;
  bool complete = false;  // Every key hit; `record` holds the whole record.
  std::shared_ptr<model::ActivationRecord> record;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t bytes = 0;       // Decoded fp32 bytes placed into the record.
  uint64_t wire_bytes = 0;  // Encoded bytes received in hits (post-codec).
};

struct PutRecordResult {
  bool transport_ok = false;  // Every matrix acked with a matching checksum.
  uint64_t puts = 0;
  uint64_t bytes = 0;       // Decoded fp32 bytes the record holds.
  uint64_t wire_bytes = 0;  // Encoded bytes shipped (post-codec).
};

class CacheClient {
 public:
  CacheClient(std::string host, uint16_t port, CacheClientOptions options = {});
  ~CacheClient();

  CacheClient(const CacheClient&) = delete;
  CacheClient& operator=(const CacheClient&) = delete;

  bool Connect();
  void Close();
  bool connected() const { return fd_.valid(); }

  // Fetches every matrix of one template's record: `steps` x `blocks` Y
  // matrices, plus K and V when `want_kv`. Pipelined; blocks until every
  // reply lands or the call deadline lapses. Payloads arrive encoded
  // (self-describing dtype) and are decoded into the record here.
  FetchRecordResult FetchRecord(int template_id, int steps, int blocks,
                                bool want_kv);

  // Stores every matrix of `record` under its content address, each step
  // encoded at the dtype `precision` assigns it (default: lossless f32).
  // Pipelined; blocks until every ack lands. A matrix whose encoded put
  // frame would exceed kMaxPayloadBytes fails the call with
  // kOversizedFrame *before* any of its bytes hit the socket.
  PutRecordResult PutRecord(
      int template_id, const model::ActivationRecord& record,
      quant::PrecisionMode precision = quant::PrecisionMode::kLossless);

  // Fetches the cache node's MetricsJson().
  std::optional<std::string> QueryMetrics(
      std::optional<std::chrono::milliseconds> timeout = {});

  // Liveness probe: rides the metrics frame (no dedicated wire type) with
  // a short deadline. True iff the node answered in time. Used by the
  // cache ring to report member health; the per-member circuit breakers
  // remain the live signal on the fetch path.
  bool Probe(std::chrono::milliseconds timeout = std::chrono::milliseconds(250));

  WireError last_error() const { return last_error_; }

 private:
  struct CacheReply {
    bool hit = false;
    CacheHitBody body;  // Valid when hit.
  };

  bool SendFrame(const std::vector<uint8_t>& frame);
  // One bounded read + parse pass banking cache replies by seq. False when
  // the connection died or the stream is unframeable.
  bool PumpOnce(std::chrono::milliseconds budget);
  // PumpOnce for at most 50 ms, bounded by `deadline`. False once the
  // deadline has lapsed (kTimeout) or the connection died. A call that
  // gives up this way still has replies owed, so the connection is closed:
  // late replies would otherwise be banked under sequence numbers nobody
  // will ask for, for as long as the pooled connection lives.
  bool PumpUntil(std::chrono::steady_clock::time_point deadline);
  // Runs the kAuth handshake (options_.auth_token) to completion.
  bool Authenticate();

  std::string host_;
  uint16_t port_;
  CacheClientOptions options_;
  UniqueFd fd_;
  uint64_t next_seq_ = 1;
  std::vector<uint8_t> inbuf_;
  std::map<uint64_t, CacheReply> replies_;
  std::map<uint64_t, std::string> metrics_;
  std::set<uint64_t> auth_acks_;
  WireError last_error_ = WireError::kOk;
};

// A small pool of CacheClient connections to one node, so concurrent
// whole-record transfers (foreground fetches, background prefetches)
// ride separate sockets instead of serializing behind one call. Each
// client is still single-threaded; the pool hands out exclusive leases.
// Checkout() blocks until a connection is free — the pool size is the
// concurrency cap, and pressure beyond it queues at the checkout.
class CacheClientPool {
 public:
  CacheClientPool(std::string host, uint16_t port, CacheClientOptions options,
                  int size);

  CacheClientPool(const CacheClientPool&) = delete;
  CacheClientPool& operator=(const CacheClientPool&) = delete;

  // Exclusive lease on one pooled connection; returns it on destruction.
  class Lease {
   public:
    Lease(CacheClientPool* pool, CacheClient* client)
        : pool_(pool), client_(client) {}
    ~Lease() {
      if (pool_ != nullptr) {
        pool_->Return(client_);
      }
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease(Lease&& o) noexcept
        : pool_(std::exchange(o.pool_, nullptr)),
          client_(std::exchange(o.client_, nullptr)) {}

    CacheClient* operator->() const { return client_; }
    CacheClient& operator*() const { return *client_; }

   private:
    CacheClientPool* pool_;
    CacheClient* client_;
  };

  Lease Checkout();
  int size() const { return static_cast<int>(clients_.size()); }

 private:
  friend class Lease;
  void Return(CacheClient* client);

  std::vector<std::unique_ptr<CacheClient>> clients_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<CacheClient*> idle_;
};

}  // namespace flashps::net

#endif  // FLASHPS_SRC_NET_CACHE_CLIENT_H_
