// perfbench: the FlashPS serving benchmark.
//
// Runs one workload against the real serving stack, in process, over
// loopback TCP. The stack is set up three times (the median is setup_s);
// after each set-up, that stack serves a third of an open-loop Poisson phase
// (latency and SLO attainment, timed from each request's due time) and a
// closed-loop window (capacity: the median of the three windows' completion
// rates). Replies are then checked against
// reference checksums computed directly through the model. With
// --trace=1 the open loop also records spans around every layer's public
// entry points, and the model and tensor layers are timed at the workload's
// own shapes; the last line then carries the per-layer metrics instead of
// the end-to-end ones.
//
// run.py builds this binary and passes the workload's flags from
// workloads.json; see `perfbench --help` for the flags themselves.
#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "perfbench/src/bench.h"
#include "perfbench/src/inputs.h"
#include "perfbench/src/ledger.h"
#include "perfbench/src/loadgen.h"
#include "perfbench/src/offline.h"
#include "perfbench/src/stack.h"
#include "src/common/flag_parser.h"
#include "src/common/rng.h"
#include "src/net/wire.h"

namespace fp = flashps;
using namespace perfbench;

namespace {

// Share of the run's --seconds spent in the open loop; the closed loop
// measures the rest.
constexpr double kOpenShare = 0.7;
// Open loop: a send later than this behind its due time (p95) marks the
// generator as behind schedule and the run as invalid.
constexpr double kMaxSendLagP95Ms = 10.0;
// Open loop: fewer latency samples than this beyond p95 make the run invalid
// (its p95 would rest on too few requests).
constexpr size_t kMinTailSamples = 10;
// Set-ups per run, each measured in turn; setup_s is their median.
constexpr int kSetups = 3;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

// ---- host stamp ----------------------------------------------------------

std::string CpuModel() {
#if defined(__x86_64__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.substr(0, brand.find('\0'));
    const size_t first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

std::string CpuFlags() {
  std::string flags;
#if defined(__x86_64__)
  __builtin_cpu_init();
  auto add = [&](bool has, const char* name) {
    if (has) {
      flags += (flags.empty() ? "" : ",") + std::string(name);
    }
  };
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("x86-64-v3"), "x86-64-v3");
  add(__builtin_cpu_supports("x86-64-v4"), "x86-64-v4");
#endif
  return flags.empty() ? "none" : flags;
}

std::vector<std::pair<std::string, std::string>> HostStamp(const Config& config) {
  const char* isa = std::getenv("FLASHPS_ISA");
  return {{"hardware_threads", std::to_string(std::thread::hardware_concurrency())},
          {"cpu_model", CpuModel()},
          {"cpu_flags", CpuFlags()},
          {"flashps_isa", isa == nullptr ? "unset" : isa},
          {"build_type", PERFBENCH_BUILD_TYPE},
          {"source", config.source_id}};
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

// ---- flags -----------------------------------------------------------------

bool ParseConfig(int argc, char** argv, Config* config) {
  fp::flags::FlagParser flags(argc, argv);
  config->workload = flags.String("workload", "", "workload name (for reports)");
  config->seed = static_cast<uint64_t>(
      flags.LongInRange("seed", 1, 0, 1l << 40, "input seed"));
  const long seconds =
      flags.LongInRange("seconds", 10, 1, 600, "measured seconds per run");
  config->seconds = static_cast<double>(seconds);
  config->trace = flags.LongInRange("trace", 0, 0, 1, "1 = traced run") == 1;
  config->source_id = flags.String("source-id", "unknown", "source revision");
  config->hidden = static_cast<int>(flags.LongInRange("hidden", 64, 8, 1024, "hidden size"));
  config->steps = static_cast<int>(flags.LongInRange("steps", 4, 1, 64, "denoise steps"));
  const std::string grid = flags.String("grid", "32x32", "served latent grid, HxW");
  config->templates = static_cast<int>(
      flags.LongInRange("templates", 2, 1, 100000, "template catalog size"));
  const std::string zipf = flags.String("zipf", "0", "Zipf exponent (0 = uniform)");
  const std::string mask_ratio = flags.String(
      "mask-ratio", "0", "every mask of this ratio (0 = production-trace ratios)");
  config->warm = static_cast<int>(
      flags.LongInRange("warm", 2, 0, 100000, "templates warmed in set-up"));
  config->fleet_nodes = static_cast<int>(flags.LongInRange(
      "fleet", 0, 0, 16,
      "served nodes behind a fed front on a cache ring (0 = one gateway)"));
  config->workers = static_cast<int>(
      flags.LongInRange("workers", 2, 1, 64, "workers per served node"));
  const std::string rate = flags.String("rate", "1", "open-loop Poisson rate (1/s)");
  const std::string limit = flags.String("limit-ms", "1000", "latency limit (ms)");
  config->check_sample = static_cast<int>(flags.LongInRange(
      "check-sample", 0, 0, 100000, "replies checked (0 = every reply)"));
  const bool want_help = flags.Has("help", "print this help");
  const std::string usage = flags.HelpText(argv[0]);
  if (want_help) {
    std::fputs(usage.c_str(), stdout);
    std::exit(0);
  }
  bool ok = flags.ok();
  std::string error = flags.ErrorText();
  if (!fp::trace::ParseResolution(grid, &config->grid_h, &config->grid_w)) {
    error += "bad --grid=" + grid + "\n";
    ok = false;
  }
  if (!ParseDouble(zipf, &config->zipf) || config->zipf < 0.0 ||
      !ParseDouble(mask_ratio, &config->mask_ratio) || config->mask_ratio < 0.0 ||
      config->mask_ratio > 1.0 ||
      !ParseDouble(rate, &config->rate_rps) || config->rate_rps <= 0.0 ||
      !ParseDouble(limit, &config->limit_ms) || config->limit_ms <= 0.0) {
    error += "bad --zipf, --mask-ratio, --rate or --limit-ms\n";
    ok = false;
  }
  if (!ok) {
    std::fprintf(stderr, "%s%s", error.c_str(), usage.c_str());
  }
  return ok;
}

// ---- the run ---------------------------------------------------------------

// Cache-layer counters, summed over a stack's nodes.
struct CacheCounters {
  double acquires = 0.0;
  double registrations = 0.0;
  double prefetch_issued = 0.0;
  double prefetch_coalesced = 0.0;
  double wire_bytes_fetched = 0.0;
  double wire_bytes_put = 0.0;

  CacheCounters operator-(const CacheCounters& o) const {
    return {acquires - o.acquires,
            registrations - o.registrations,
            prefetch_issued - o.prefetch_issued,
            prefetch_coalesced - o.prefetch_coalesced,
            wire_bytes_fetched - o.wire_bytes_fetched,
            wire_bytes_put - o.wire_bytes_put};
  }
  CacheCounters& operator+=(const CacheCounters& o) {
    acquires += o.acquires;
    registrations += o.registrations;
    prefetch_issued += o.prefetch_issued;
    prefetch_coalesced += o.prefetch_coalesced;
    wire_bytes_fetched += o.wire_bytes_fetched;
    wire_bytes_put += o.wire_bytes_put;
    return *this;
  }
};

uint64_t JsonCounter(const std::string& json, const std::string& key) {
  const size_t at = json.find("\"" + key + "\":");
  return at == std::string::npos
             ? 0
             : std::strtoull(json.c_str() + at + key.size() + 3, nullptr, 10);
}

CacheCounters ReadCacheCounters(Stack& stack) {
  CacheCounters c;
  for (ServedNode& node : stack.nodes()) {
    c.acquires += static_cast<double>(node.source->acquires());
    if (node.local != nullptr) {
      c.registrations +=
          static_cast<double>(JsonCounter(node.local->MetricsJson(), "registrations"));
    }
  }
  const fp::cache::ShardedStoreStats ring = stack.RingStats();
  c.registrations += static_cast<double>(ring.local_registrations);
  c.prefetch_issued = static_cast<double>(ring.prefetch_issued);
  c.prefetch_coalesced = static_cast<double>(ring.prefetch_coalesced);
  c.wire_bytes_fetched =
      static_cast<double>(ring.remote_wire_bytes_fetched + ring.prefetch_wire_bytes_fetched);
  c.wire_bytes_put = static_cast<double>(ring.remote_wire_bytes_put);
  return c;
}

struct Check {
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  std::set<uint64_t> bad_keys;
};

// Compares replies with reference checksums: every accepted reply, or a
// seeded sample of the open loop's requests when check_sample > 0.
Check CheckOutputs(const Config& config, const std::vector<Input>& open_inputs,
                   const std::vector<const Outcome*>& outcomes) {
  std::map<uint64_t, const Outcome*> by_key;
  for (const Outcome* o : outcomes) {
    if (o->accepted()) {
      by_key.emplace(o->input->key, o);
    }
  }
  std::vector<const Input*> targets;
  if (config.check_sample == 0) {
    for (const auto& [key, o] : by_key) {
      targets.push_back(o->input);
    }
  } else {
    fp::Rng rng(config.seed ^ 0xC4EC);
    std::set<size_t> picked;
    const size_t want = std::min<size_t>(static_cast<size_t>(config.check_sample),
                                         open_inputs.size());
    while (picked.size() < want) {
      picked.insert(static_cast<size_t>(rng.NextBelow(open_inputs.size())));
    }
    for (size_t i : picked) {
      if (by_key.contains(open_inputs[i].key)) {
        targets.push_back(&open_inputs[i]);
      }
    }
  }
  const int threads =
      static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  const std::map<uint64_t, uint64_t> expected =
      ReferenceChecksums(config, targets, threads);
  Check check;
  for (const Outcome* o : outcomes) {
    auto it = expected.find(o->input->key);
    if (!o->accepted() || it == expected.end()) {
      continue;
    }
    ++check.checked;
    if (o->response.latent_checksum != it->second) {
      ++check.mismatches;
      check.bad_keys.insert(o->input->key);
      std::fprintf(stderr,
                   "perfbench: checksum mismatch for request %llu: got %016llx, "
                   "reference %016llx\n",
                   static_cast<unsigned long long>(o->input->key),
                   static_cast<unsigned long long>(o->response.latent_checksum),
                   static_cast<unsigned long long>(it->second));
    }
  }
  return check;
}

// Per-request layer attribution along the blocking path of a traced
// request: client RTT = net + fed + gateway + queue + denoise + post + rest.
// net, fed and gateway are differences of nested spans, so with the stage
// times they sum to RTT - e2e_us + stages: the residual checks only the
// server's own stage accounting (its e2e_us against queue + denoise + post),
// not whether a span missed a layer.
struct Attribution {
  std::vector<double> net_ms, fed_ms, gateway_ms;
  double rtt_total_ms = 0.0;
  double unattributed_ms = 0.0;
};

Attribution Attribute(const std::vector<Span>& spans,
                      const std::vector<Outcome>& open, bool fleet) {
  std::map<uint64_t, double> fed_span;
  std::map<uint64_t, double> node_span;
  for (const Span& s : spans) {
    if (s.layer == "fed") {
      fed_span[s.key] = s.ms();
    } else if (s.layer == "node") {
      node_span[s.key] = s.ms();
    }
  }
  Attribution a;
  for (const Outcome& o : open) {
    const uint64_t key = o.input->key;
    if (!o.accepted() || !node_span.contains(key) ||
        (fleet && !fed_span.contains(key))) {
      continue;
    }
    const double node = node_span[key];
    const double outer = fleet ? fed_span[key] : node;
    const double stages =
        static_cast<double>(o.response.queueing_us + o.response.denoise_us +
                            o.response.post_us) / 1e3;
    const double net = std::max(0.0, o.rtt_ms() - outer);
    const double fed = fleet ? std::max(0.0, outer - node) : 0.0;
    const double gw = std::max(0.0, node - static_cast<double>(o.response.e2e_us) / 1e3);
    a.net_ms.push_back(net);
    a.fed_ms.push_back(fed);
    a.gateway_ms.push_back(gw);
    a.rtt_total_ms += o.rtt_ms();
    a.unattributed_ms += std::abs(o.rtt_ms() - (net + fed + gw + stages));
  }
  return a;
}

// What the stacks reported around the measured phases, over every segment.
struct Observed {
  CacheCounters cache;               // Deltas over the measured phases.
  std::vector<double> fetch_p50_us;  // Per segment (fleet).
  std::vector<double> busy_imbalance;  // Per segment: max / mean worker_busy_ms.
  std::vector<double> fit_r2;        // Per node and segment.
  std::string metrics_json;          // Node 0's MetricsJson() at the run's end...
  std::vector<double> metrics_json_ms;  // ...and that call's time per segment.
  std::vector<double> node_completed;   // Fleet: completions per node.
  double redispatched = 0.0;
  std::vector<double> cache_resident_mb;  // Per segment.
  std::vector<double> capacity_rps;       // Per segment: closed-loop rate.
  // Running-batch sizes of busy workers, out of `worker_samples` samples.
  std::vector<double> batch_samples;
  uint64_t worker_samples = 0;
};

// One measured segment on `stack`: its share of the open loop (traced when
// config.trace), then a closed loop of `closed_seconds` replaying the same
// requests, whose templates this stack has then seen. Appends the outcomes
// to `open` and `closed` and the layers' counters to `ob`.
void RunSegment(const Config& config, Stack& stack, Ledger& ledger,
                std::span<const Input> segment, double base_s, double closed_seconds,
                uint64_t seed, PhaseResult* open, PhaseResult* closed, Observed* ob) {
  fp::net::Client client("127.0.0.1", stack.port());
  if (!client.Connect()) {
    std::fprintf(stderr, "perfbench: cannot connect to the front\n");
    std::exit(3);
  }
  // Every worker's running batch, sampled from its gateway between sends.
  Clock::time_point last_sample = Clock::now();
  auto tick = [&] {
    if (Clock::now() - last_sample < std::chrono::milliseconds(20)) {
      return;
    }
    last_sample = Clock::now();
    for (ServedNode& node : stack.nodes()) {
      for (const auto& status : node.gateway->WorkerStatuses()) {
        ++ob->worker_samples;
        if (!status.running_ratios.empty()) {
          ob->batch_samples.push_back(static_cast<double>(status.running_ratios.size()));
        }
      }
    }
  };
  auto busy = [&] {
    std::vector<double> ms;
    for (ServedNode& node : stack.nodes()) {
      for (double v : node.gateway->Metrics().worker_busy_ms) {
        ms.push_back(v);
      }
    }
    return ms;
  };
  auto node_completed = [&] {
    std::vector<double> done;
    for (size_t i = 0; stack.fed() != nullptr && i < stack.nodes().size(); ++i) {
      done.push_back(static_cast<double>(
          stack.fed()->registry().Info(static_cast<int>(i)).completed));
    }
    return done;
  };
  auto redispatched = [&] {
    return stack.fed() == nullptr ? 0.0
                                  : static_cast<double>(stack.fed()->stats().redispatched);
  };

  const std::vector<double> busy_before = busy();
  const std::vector<double> done_before = node_completed();
  const double redispatched_before = redispatched();
  const CacheCounters cache_before = ReadCacheCounters(stack);

  const int outstanding = config.total_workers() * config.max_batch;
  ledger.set_recording(config.trace);
  PhaseResult o = RunOpenLoop(client, segment, base_s, config.steps, /*grace_s=*/30.0, tick);
  ledger.set_recording(false);
  PhaseResult c = RunClosedLoop(client, segment, config.steps, outstanding,
                                closed_seconds, seed, tick);
  open->outcomes.insert(open->outcomes.end(), o.outcomes.begin(), o.outcomes.end());
  closed->outcomes.insert(closed->outcomes.end(), c.outcomes.begin(), c.outcomes.end());
  ob->capacity_rps.push_back(static_cast<double>(c.completed_in_window) /
                             std::max(c.busy_s, 1e-9));
  closed->window_s += c.window_s;

  ob->cache += ReadCacheCounters(stack) - cache_before;
  const Clock::time_point t0 = Clock::now();
  ob->metrics_json = stack.nodes().front().gateway->MetricsJson();
  ob->metrics_json_ms.push_back(MsBetween(t0, Clock::now()));
  std::vector<double> busy_ms = busy();
  for (size_t i = 0; i < busy_ms.size(); ++i) {
    busy_ms[i] -= busy_before[i];
  }
  if (Mean(busy_ms) > 0.0) {
    ob->busy_imbalance.push_back(*std::max_element(busy_ms.begin(), busy_ms.end()) /
                                 Mean(busy_ms));
  }
  for (ServedNode& node : stack.nodes()) {
    ob->fit_r2.push_back(node.gateway->latency_model().compute_fit().r2);
  }
  const std::vector<double> done_after = node_completed();
  ob->node_completed.resize(done_after.size(), 0.0);
  for (size_t i = 0; i < done_after.size(); ++i) {
    ob->node_completed[i] += done_after[i] - done_before[i];
  }
  ob->redispatched += redispatched() - redispatched_before;
  if (config.fleet()) {
    ob->fetch_p50_us.push_back(stack.RingStats().fetch_p50_us);
  }
  ob->cache_resident_mb.push_back(stack.CacheResidentMb());
}

// The traced run's per-layer metrics (see BENCHMARK.json for the list).
std::vector<Metric> LayerMetrics(const Config& config, const std::vector<Input>& inputs,
                                 const PhaseResult& open, const Observed& ob,
                                 const std::vector<Span>& spans, double gateway_construct_s,
                                 uint64_t completed) {
  const Attribution a = Attribute(spans, open.outcomes, config.fleet());
  std::vector<double> queue_ms, denoise_ms, post_ms, traced_ms, untraced_ms;
  double frame_bytes = 0.0;
  for (const Outcome& o : open.outcomes) {
    if (!o.accepted()) {
      continue;
    }
    queue_ms.push_back(static_cast<double>(o.response.queueing_us) / 1e3);
    denoise_ms.push_back(static_cast<double>(o.response.denoise_us) / 1e3);
    post_ms.push_back(static_cast<double>(o.response.post_us) / 1e3);
    ((o.input->key & 1u) != 0 ? traced_ms : untraced_ms).push_back(o.latency_ms());
    frame_bytes += static_cast<double>(
        fp::net::EncodeSubmit(1, ToWire(*o.input, config.steps)).size() +
        fp::net::EncodeSubmitResult(1, o.response).size());
  }
  // A fleet request crosses two wire hops: client -> fed -> node.
  const double hops = config.fleet() ? 2.0 : 1.0;
  std::vector<double> acquire_ms;
  for (const Span& s : spans) {
    if (s.layer == "cache.acquire") {
      acquire_ms.push_back(s.ms());
    }
  }
  const CacheCounters& cache = ob.cache;
  const double per_request = 1.0 / static_cast<double>(std::max<uint64_t>(1, completed));
  double completed_total = 0.0;
  for (double done : ob.node_completed) {
    completed_total += done;
  }
  const double max_node_share =
      completed_total > 0.0
          ? *std::max_element(ob.node_completed.begin(), ob.node_completed.end()) /
                completed_total
          : 1.0;
  std::vector<double> ratios;
  for (const Input& in : inputs) {
    ratios.push_back(in.mask.ratio());
  }
  std::vector<const Input*> sample;
  for (size_t i = 0; i < inputs.size() && sample.size() < 8; ++i) {
    sample.push_back(&inputs[i]);
  }
  const OfflineLayers off = MeasureOffline(config, sample, Median(ratios));
  const double untraced_p50 = Median(untraced_ms);
  return {
      {"net.self_p50_ms", Percentile(a.net_ms, 0.50), "ms"},
      {"net.self_p95_ms", Percentile(a.net_ms, 0.95), "ms"},
      {"net.frame_bytes_per_request", hops * frame_bytes / std::max(1.0, static_cast<double>(queue_ms.size())), "B"},
      {"fed.self_p50_ms", Percentile(a.fed_ms, 0.50), "ms"},
      {"fed.max_node_share", max_node_share, "share"},
      {"fed.redispatched", ob.redispatched, "count"},
      {"gateway.self_p50_ms", Percentile(a.gateway_ms, 0.50), "ms"},
      {"gateway.metrics_json_ms", Median(ob.metrics_json_ms), "ms"},
      {"gateway.construct_s", gateway_construct_s, "s"},
      {"gateway.worker_busy_imbalance", Median(ob.busy_imbalance), "ratio"},
      {"sched.fit_r2", Mean(ob.fit_r2), "r2"},
      {"runtime.queue_p50_ms", Percentile(queue_ms, 0.50), "ms"},
      {"runtime.queue_p95_ms", Percentile(queue_ms, 0.95), "ms"},
      {"runtime.denoise_p50_ms", Percentile(denoise_ms, 0.50), "ms"},
      {"runtime.post_p50_ms", Percentile(post_ms, 0.50), "ms"},
      {"runtime.batch_mean", Mean(ob.batch_samples), "requests"},
      {"runtime.worker_busy_share", static_cast<double>(ob.batch_samples.size()) / static_cast<double>(std::max<uint64_t>(1, ob.worker_samples)), "share"},
      {"cache.acquire_p50_ms", Percentile(acquire_ms, 0.50), "ms"},
      {"cache.acquire_p95_ms", Percentile(acquire_ms, 0.95), "ms"},
      {"cache.hit_ratio", cache.acquires > 0.0 ? 1.0 - cache.registrations / cache.acquires : 0.0, "share"},
      {"cache.registrations", cache.registrations, "count"},
      {"cache.remote_fetch_p50_us", Median(ob.fetch_p50_us), "us"},
      {"cache.wire_bytes_fetched", cache.wire_bytes_fetched * per_request, "B/request"},
      {"cache.wire_bytes_put", cache.wire_bytes_put * per_request, "B/request"},
      {"cache.prefetch_useful_ratio", cache.prefetch_issued > 0.0 ? cache.prefetch_coalesced / cache.prefetch_issued : 0.0, "share"},
      {"cache.resident_mb", Median(ob.cache_resident_mb), "MB"},
      {"model.construct_ms", off.model_construct_ms, "ms"},
      {"model.attention_bias_mb", off.attention_bias_mb, "MB"},
      {"model.register_ms", off.register_ms, "ms"},
      {"model.step_ms", off.step_ms, "ms"},
      {"model.batch_step_ms", off.batch_step_ms, "ms"},
      {"tensor.scores_ms", off.scores_ms, "ms"},
      {"tensor.bias_softmax_ms", off.bias_softmax_ms, "ms"},
      {"tensor.sv_ms", off.sv_ms, "ms"},
      {"tensor.gemm_ms", off.gemm_ms, "ms"},
      {"tensor.norm_gelu_ms", off.norm_gelu_ms, "ms"},
      {"tensor.gather_scatter_ms", off.gather_scatter_ms, "ms"},
      {"tensor.attention_gflop", off.attention_gflop, "GFLOP-computed"},
      {"tensor.attention_mb_moved", off.attention_mb_moved, "MB-computed"},
      {"trace.unattributed_share", a.rtt_total_ms > 0.0 ? a.unattributed_ms / a.rtt_total_ms : 0.0, "share"},
      {"trace.overhead_pct", untraced_p50 > 0.0 ? 100.0 * (Median(traced_ms) - untraced_p50) / untraced_p50 : 0.0, "%"},
  };
}

// Measured shares of the run's traffic, so later claims about repeated or
// light inputs can cite them.
struct Traffic {
  double mean_mask_ratio = 0.0;
  size_t distinct_templates = 0;
  // Requests whose template was warmed in set-up or requested earlier in
  // the run (a record of it was resident unless evicted since).
  double resident_share = 0.0;
};

Traffic MeasureTraffic(const Config& config, const std::vector<Input>& inputs) {
  Traffic t;
  std::set<int> seen;
  const double n = static_cast<double>(std::max<size_t>(1, inputs.size()));
  for (const Input& in : inputs) {
    t.mean_mask_ratio += in.mask.ratio() / n;
    if (in.template_id < config.warm || seen.contains(in.template_id)) {
      t.resident_share += 1.0 / n;
    }
    seen.insert(in.template_id);
  }
  t.distinct_templates = seen.size();
  return t;
}

// Writes the run record: host stamp, traffic, generator health, every
// metric and (traced run) the span ledger.
void WriteRecord(const std::string& path, const Config& config,
                 const std::vector<std::pair<std::string, std::string>>& stamp,
                 const Traffic& traffic, double lag_p95, bool generator_ok,
                 size_t tail_samples, const std::vector<Metric>& metrics, const std::vector<Span>& spans,
                 const std::string& gateway_metrics) {
  std::ofstream file(path);
  file << "{\"workload\":" << JsonString(config.workload) << ",\"seed\":" << config.seed
       << ",\"host\":{";
  for (size_t i = 0; i < stamp.size(); ++i) {
    file << (i ? "," : "") << JsonString(stamp[i].first) << ":" << JsonString(stamp[i].second);
  }
  file << "},\"generator_ok\":" << (generator_ok ? "true" : "false")
       << ",\"send_lag_p95_ms\":" << Num(lag_p95)
       << ",\"p95_tail_samples\":" << tail_samples
       << ",\"mean_mask_ratio\":" << Num(traffic.mean_mask_ratio)
       << ",\"distinct_templates\":" << traffic.distinct_templates
       << ",\"resident_share\":" << Num(traffic.resident_share) << ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    file << (i ? "," : "") << JsonString(metrics[i].name) << ":" << Num(metrics[i].value);
  }
  file << "},\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    file << (i ? "," : "") << "[" << JsonString(spans[i].layer) << "," << spans[i].key
         << "," << spans[i].start_ns << "," << spans[i].end_ns << "]";
  }
  file << "],\"gateway_metrics\":" << gateway_metrics << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Config config;
  if (!ParseConfig(argc, argv, &config)) {
    return 2;
  }
  const std::vector<std::pair<std::string, std::string>> stamp = HostStamp(config);
  Ledger ledger;

  // ---- kSetups set-ups, each followed by a measured segment on its stack:
  // the next slice of the open loop's requests (in arrival order), then a
  // closed-loop window. Spreading the measurement over several stacks
  // averages out per-stack state (thread placement, the profiled latency
  // model the router uses) that would otherwise set a whole run's figures.
  const std::vector<Input> inputs = MakeInputs(config, config.seconds * kOpenShare);
  std::vector<double> setup_s;
  std::vector<double> gateway_construct_s;
  PhaseResult open;
  PhaseResult closed;
  Observed ob;
  for (int i = 0; i < kSetups; ++i) {
    Stack stack(config, ledger);
    setup_s.push_back(stack.times().total_s);
    gateway_construct_s.push_back(stack.times().gateway_construct_s);
    const size_t begin = inputs.size() * static_cast<size_t>(i) / kSetups;
    const size_t end = inputs.size() * static_cast<size_t>(i + 1) / kSetups;
    RunSegment(config, stack, ledger,
               std::span<const Input>(inputs).subspan(begin, end - begin),
               begin == 0 ? 0.0 : inputs[begin - 1].due_s,
               config.seconds * (1.0 - kOpenShare) / kSetups,
               config.seed * kSetups + static_cast<uint64_t>(i), &open, &closed, &ob);
  }
  const double peak_rss_mb = PeakRssMb();

  // ---- output check (outside the timed phases).
  std::vector<const Outcome*> all;
  for (const Outcome& o : open.outcomes) all.push_back(&o);
  for (const Outcome& o : closed.outcomes) all.push_back(&o);
  const Check check = CheckOutputs(config, inputs, all);
  auto failed_one = [&](const Outcome& o) {
    return !o.accepted() || check.bad_keys.contains(o.input->key);
  };
  uint64_t open_failed = 0;
  uint64_t closed_failed = 0;
  for (const Outcome& o : open.outcomes) open_failed += failed_one(o) ? 1 : 0;
  for (const Outcome& o : closed.outcomes) closed_failed += failed_one(o) ? 1 : 0;
  const uint64_t attempted = all.size();
  const uint64_t failed = open_failed + closed_failed;

  // ---- end-to-end metrics, over the open loop timed from due times.
  std::vector<double> latency;
  std::vector<double> lag;
  uint64_t within_limit = 0;
  for (const Outcome& o : open.outcomes) {
    lag.push_back(o.send_ns > 0 ? o.send_lag_ms() : 0.0);
    if (failed_one(o)) {
      continue;
    }
    latency.push_back(o.latency_ms());
    within_limit += o.latency_ms() <= config.limit_ms ? 1 : 0;
  }
  const size_t beyond_p95 =
      latency.size() - static_cast<size_t>(std::ceil(0.95 * static_cast<double>(latency.size())));
  const double lag_p95 = Percentile(lag, 0.95);
  const bool generator_ok = lag_p95 <= kMaxSendLagP95Ms;
  const bool tail_ok = beyond_p95 >= kMinTailSamples;
  const std::vector<Metric> e2e = {
      {"setup_s", Median(setup_s), "s"},
      {"e2e_p50_ms", Percentile(latency, 0.50), "ms"},
      {"e2e_p95_ms", Percentile(latency, 0.95), "ms"},
      {"slo_attainment", static_cast<double>(within_limit) / static_cast<double>(std::max<size_t>(1, open.outcomes.size())), "share"},
      {"capacity_rps", Median(ob.capacity_rps), "1/s"},
      {"error_rate", static_cast<double>(failed) / static_cast<double>(std::max<uint64_t>(1, attempted)), "share"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
  const Traffic traffic = MeasureTraffic(config, inputs);
  std::vector<Span> spans;
  std::vector<Metric> layers;
  if (config.trace) {
    spans = ledger.Snapshot();
    layers = LayerMetrics(config, inputs, open, ob, spans, Median(gateway_construct_s),
                          attempted - failed);
  }

  // ---- human-readable report.
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (const auto& [key, value] : stamp) {
    std::printf("  host %-18s %s\n", key.c_str(), value.c_str());
  }
  std::printf("  traffic mean_mask_ratio=%.4f distinct_templates=%zu resident_share=%.4f "
              "grid=%dx%d:1.000\n",
              traffic.mean_mask_ratio, traffic.distinct_templates, traffic.resident_share,
              config.grid_h, config.grid_w);
  std::printf("  phase open   rate=%g/s sent=%zu succeeded=%llu failed=%llu send_lag_p95_ms=%.3f generator=%s\n",
              config.rate_rps, open.outcomes.size(),
              static_cast<unsigned long long>(open.outcomes.size() - open_failed),
              static_cast<unsigned long long>(open_failed), lag_p95,
              generator_ok ? "on-schedule" : "BEHIND (run invalid)");
  std::printf("  phase closed outstanding=%d sent=%zu succeeded=%llu failed=%llu window_s=%g\n",
              config.total_workers() * config.max_batch, closed.outcomes.size(),
              static_cast<unsigned long long>(closed.outcomes.size() - closed_failed),
              static_cast<unsigned long long>(closed_failed), closed.window_s);
  std::printf("  check  replies_checked=%llu mismatches=%llu p95_tail_samples=%zu limit_ms=%g setups=%d\n",
              static_cast<unsigned long long>(check.checked),
              static_cast<unsigned long long>(check.mismatches), beyond_p95,
              config.limit_ms, kSetups);
  for (const Metric& m : e2e) {
    std::printf("  e2e   %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : layers) {
    std::printf("  layer %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!generator_ok) {
    std::fprintf(stderr, "perfbench: run invalid: the generator fell behind schedule "
                 "(send lag p95 %.3f ms > %.0f ms)\n", lag_p95, kMaxSendLagP95Ms);
  }
  if (!tail_ok) {
    std::fprintf(stderr, "perfbench: run invalid: %zu latency samples beyond p95 "
                 "(need %zu; raise --seconds or --rate)\n", beyond_p95, kMinTailSamples);
  }
  const char* out_dir = std::getenv("PERFBENCH_OUT");
  if (out_dir != nullptr && *out_dir != '\0') {
    std::filesystem::create_directories(out_dir);
    std::vector<Metric> every = e2e;
    every.insert(every.end(), layers.begin(), layers.end());
    WriteRecord(std::string(out_dir) + "/" + config.workload + "-seed" +
                    std::to_string(config.seed) + "-trace" + (config.trace ? "1" : "0") +
                    ".json",
                config, stamp, traffic, lag_p95, generator_ok, beyond_p95, every, spans,
                ob.metrics_json);
  }

  // ---- the result line. A checksum mismatch, or a run whose open loop was
  // not measured as specified, is not correct.
  const bool correct = check.mismatches == 0 && generator_ok && tail_ok;
  std::ostringstream line;
  line << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
       << ",\"failed\":" << failed << ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : config.trace ? layers : e2e) {
    if (m.name == "error_rate") {
      continue;  // Always 0 on a passing run; carried by `failed` / `attempted`.
    }
    line << (first ? "" : ",") << JsonString(m.name) << ":{\"value\":" << Num(m.value)
         << ",\"unit\":" << JsonString(m.unit) << "}";
    first = false;
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}
