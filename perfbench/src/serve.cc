// The serving workloads.
//
//   serve_hot  — closed loop: 4 client threads call ServingFrontend::
//                ScoreBatch with engine-width batches drawn Zipf(1.0) from
//                512 hot accounts; 4 workers, f32, cache 4,096, warmed.
//   serve_cold — open loop: one generator thread sends SubmitOne on a
//                Poisson schedule, targets uniform over all nodes; cache
//                1,024; 3 workers; a SwapGraph every 2 s flips between two
//                models restored from one in-memory checkpoint. A second
//                pass from the same thread keeps the workers saturated to
//                measure the cold path's capacity.
//
// Both serve a model trained briefly (2 epochs, Table III configuration)
// on the 12,000-user TwiBot-22 simulant. The served model is part of the
// workload's fixed set-up, like the dataset: its training seed is pinned,
// because the F1 of a 2-epoch model swings by a quarter between training
// seeds. The run's --seed drives what is served: the hot set, the Zipf and
// Poisson draws, the targets and the checked samples.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "bench.h"
#include "io/checkpoint.h"
#include "obs/trace.h"
#include "serve/frontend.h"
#include "util/resource_governor.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace bsg::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// serve_cold's fixed offered rate, req/s: under 40% of the cold path's
// saturation throughput on the 4-core host, so host noise that slows the
// workers by a third does not push the queue towards saturation.
constexpr double kColdRate = 2000.0;
constexpr double kSwapPeriodS = 2.0;  // serve_cold SwapGraph period
constexpr uint64_t kServedModelSeed = 1;
// Where traced runs write their spans, relative to the checkout root.
constexpr char kTraceDir[] = ".bench_build/perfbench-traces";

double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// The p90 of each consecutive `window_s` slice of a pass (by request start
// or due time), then the median over slices: one disturbed second moves it
// far less than it moves the tail of the whole pass. The tail is p90, not
// p99: on the 4-core host the p99 of ~1 ms requests spread by 0.3-0.4 of
// its median over 10 runs, which no bound on a regression could absorb.
// Slices with fewer than 100 requests are skipped.
double MedianWindowP90(const std::vector<double>& at_s,
                       const std::vector<double>& latency_ms,
                       double window_s) {
  std::map<int64_t, std::vector<double>> slices;
  for (size_t i = 0; i < at_s.size() && i < latency_ms.size(); ++i) {
    slices[static_cast<int64_t>(at_s[i] / window_s)].push_back(latency_ms[i]);
  }
  std::vector<double> p90s;
  std::string shown;
  for (const auto& [slice, lat] : slices) {
    if (lat.size() < 100) continue;
    p90s.push_back(Percentile(lat, 0.9));
    shown += StrFormat(" %.2f", p90s.back());
  }
  std::fprintf(stderr, "p90 per %.3g s slice (ms):%s\n", window_s,
               shown.c_str());
  return p90s.empty() ? Percentile(latency_ms, 0.9) : Median(p90s);
}

bool SameLogits(const Score& a, const Score& b) {
  return a.target == b.target &&
         std::memcmp(&a.logit_human, &b.logit_human, sizeof(double)) == 0 &&
         std::memcmp(&a.logit_bot, &b.logit_bot, sizeof(double)) == 0;
}

// f32 vs f64 parity contract (README "Mixed-precision serving"): every logit
// within 5e-3 relative, no argmax flip.
bool WithinF32Tolerance(const Score& f32, const Score& f64) {
  constexpr double kTol = 5e-3;
  return f32.target == f64.target && f32.label == f64.label &&
         std::abs(f32.logit_human - f64.logit_human) <=
             kTol * (1.0 + std::abs(f64.logit_human)) &&
         std::abs(f32.logit_bot - f64.logit_bot) <=
             kTol * (1.0 + std::abs(f64.logit_bot));
}

// ----------------------------------------------------------- served model

struct ServedModel {
  HeteroGraph graph;
  std::unique_ptr<Bsg4Bot> model;
};

// Graph generation + features + pretrain/subgraphs + a brief fit of the
// served model. The caller adds engine set-up and warm-up to setup_s.
ServedModel TrainServedModel(int users, int epochs, RunContext* ctx) {
  ServedModel sm;
  double generate_s = 0.0, build_graph_s = 0.0;
  sm.graph = BuildWorkloadGraph(users, &generate_s, &build_graph_s);
  ctx->layer.Set("datagen.generate_s", generate_s, "s");
  ctx->layer.Set("features.build_graph_s", build_graph_s, "s");
  sm.model = std::make_unique<Bsg4Bot>(
      sm.graph, TableIIIConfig(epochs, kServedModelSeed));
  TrainAndRecord(sm.model.get(), ctx);
  sm.model->EnsureF32Shadow();
  return sm;
}

EngineConfig ServingEngineConfig(size_t cache_capacity) {
  EngineConfig ecfg;
  ecfg.precision = EngineConfig::Precision::kF32;
  ecfg.cache_capacity = cache_capacity;
  return ecfg;
}

// ----------------------------------------------------------- trace report

// Total length of the union of [lo, hi) intervals.
uint64_t UnionNs(std::vector<std::pair<uint64_t, uint64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
  for (const auto& [lo, hi] : intervals) {
    if (lo > cur_hi) {
      covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  return covered + (cur_hi - cur_lo);
}

// Self time of each span: its duration minus the part of its interval that
// other spans of the same request, nested inside it, cover.
std::vector<uint64_t> SelfTimes(const std::vector<obs::TraceSpan>& spans) {
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t lo = spans[i].start_ns, hi = lo + spans[i].dur_ns;
    std::vector<std::pair<uint64_t, uint64_t>> kids;
    for (size_t j = 0; j < spans.size(); ++j) {
      const uint64_t clo = spans[j].start_ns, chi = clo + spans[j].dur_ns;
      const bool nested = clo >= lo && chi <= hi &&
                          (clo > lo || chi < hi || j > i);
      if (j != i && nested) kids.emplace_back(clo, chi);
    }
    const uint64_t covered = UnionNs(std::move(kids));
    self[i] = spans[i].dur_ns - std::min(covered, spans[i].dur_ns);
  }
  return self;
}

// Per-stage metrics from the traced window's completed traces, and the
// spans themselves written to the run's trace file.
void RecordTraceMetrics(const std::vector<obs::CompletedTrace>& traces,
                        double wall_s, RunContext* ctx) {
  using obs::TraceStage;
  std::vector<double> queue_ms;
  double build_ns = 0, probe_ns = 0, stack_ns = 0, forward_ns = 0;
  double elapsed_ns = 0;
  std::vector<std::pair<uint64_t, uint64_t>> forwards;
  for (const obs::CompletedTrace& t : traces) {
    const std::vector<uint64_t> self = SelfTimes(t.spans);
    double queue_ns = 0;
    for (size_t i = 0; i < t.spans.size(); ++i) {
      const double s = static_cast<double>(self[i]);
      switch (t.spans[i].stage) {
        case TraceStage::kQueueWait: queue_ns += s; break;
        case TraceStage::kCacheProbe: probe_ns += s; break;
        case TraceStage::kBuild: build_ns += s; break;
        case TraceStage::kStack: stack_ns += s; break;
        case TraceStage::kForward:
          forward_ns += s;
          forwards.emplace_back(t.spans[i].start_ns,
                                t.spans[i].start_ns + t.spans[i].dur_ns);
          break;
        default: break;
      }
    }
    queue_ms.push_back(queue_ns * 1e-6);
    elapsed_ns += static_cast<double>(t.ElapsedNs());
  }
  const double n = std::max<double>(1.0, static_cast<double>(traces.size()));
  ctx->checks.Expect(!traces.empty(), "the traced window recorded no traces");
  ctx->layer.Set("serve.queue_wait_p50_ms", Percentile(queue_ms, 0.5), "ms");
  ctx->layer.Set("serve.queue_wait_p99_ms", Percentile(queue_ms, 0.99), "ms");
  ctx->layer.Set("serve.build_ms", build_ns / n * 1e-6, "ms");
  ctx->layer.Set("serve.build_share",
                 elapsed_ns > 0 ? build_ns / elapsed_ns : 0.0, "ratio");
  ctx->layer.Set("serve.cache_probe_us", probe_ns / n * 1e-3, "us");
  ctx->layer.Set("serve.stack_ms", stack_ns / n * 1e-6, "ms");
  ctx->layer.Set("serve.forward_ms", forward_ns / n * 1e-6, "ms");
  // Forward spans include the wait on the engine's forward lock, so the
  // union of every request's forward interval is the time the serialised
  // forward was busy.
  ctx->layer.Set("serve.forward_busy_frac",
                 static_cast<double>(UnionNs(std::move(forwards))) * 1e-9 /
                     std::max(wall_s, 1e-9),
                 "ratio");

  std::error_code ec;
  std::filesystem::create_directories(kTraceDir, ec);
  const std::string path =
      StrFormat("%s/%s-seed%llu.jsonl", kTraceDir,
                ctx->opt.workload.c_str(),
                static_cast<unsigned long long>(ctx->opt.seed));
  std::ofstream out(path);
  for (const obs::CompletedTrace& t : traces) {
    out << "{\"seq\": " << t.seq << ", \"status\": \"" << t.status
        << "\", \"targets\": " << t.num_targets << ", \"start_ns\": "
        << t.start_ns << ", \"end_ns\": " << t.end_ns << ", \"spans\": [";
    for (size_t i = 0; i < t.spans.size(); ++i) {
      out << (i ? ", " : "") << "[\""
          << obs::TraceStageName(t.spans[i].stage) << "\", "
          << t.spans[i].chunk << ", " << t.spans[i].start_ns << ", "
          << t.spans[i].dur_ns << "]";
    }
    out << "]}\n";
  }
  std::fprintf(stderr, "wrote %zu traces to %s\n", traces.size(),
               path.c_str());
}

void ArmTracer() { obs::Tracer::Global().Enable(1, 1u << 17, 4096); }

std::vector<obs::CompletedTrace> DisarmTracer(RunContext* ctx) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Disable();
  const obs::TracerStats ts = tracer.Stats();
  ctx->checks.Expect(ts.dropped_no_slot == 0 && ts.truncated_spans == 0,
                     "the tracer dropped traces or spans");
  return tracer.Completed();
}

// Cache, engine, front-end and governor counters at the end of a pass.
void RecordServeCounters(const FrontendStats& fs, RunContext* ctx) {
  const SubgraphCacheStats& cs = fs.engine.cache;
  ctx->layer.Set("serve.cache.hit_rate", cs.HitRate(), "ratio");
  ctx->layer.Set("serve.cache.coalesced_misses",
                 static_cast<double>(cs.coalesced_misses), "count");
  ctx->layer.Set("serve.cache.evictions", static_cast<double>(cs.evictions),
                 "count");
  ctx->layer.Set("serve.cache.version_evictions",
                 static_cast<double>(cs.version_evictions), "count");
  ctx->layer.Set("serve.engine.pool_hit_rate", fs.engine.PoolHitRate(),
                 "ratio");
  ctx->layer.Set("serve.frontend.queue_depth_peak",
                 static_cast<double>(fs.queue_depth_peak), "count");
  ctx->layer.Set("serve.frontend.shed",
                 static_cast<double>(fs.shed_requests), "count");
  const double bad = static_cast<double>(
      fs.shed_requests + fs.timed_out_requests + fs.failed_requests +
      fs.degraded_requests);
  ctx->layer.Set("serve.fail_rate",
                 fs.submitted_requests == 0
                     ? 0.0
                     : bad / static_cast<double>(fs.submitted_requests),
                 "ratio");
  ctx->layer.Set(
      "governor.peak_mb",
      static_cast<double>(ResourceGovernor::Global().Stats().peak_total_bytes) /
          (1024.0 * 1024.0),
      "MiB");
}

// Exact request/target conservation once the front-end is closed.
void CheckConservation(const FrontendStats& fs, uint64_t sent_requests,
                       uint64_t sent_targets, RunContext* ctx) {
  ctx->checks.Expect(fs.submitted_requests == sent_requests &&
                         fs.targets_submitted == sent_targets,
                     "front-end submitted counts differ from what was sent");
  ctx->checks.Expect(fs.AccountedRequests() == fs.submitted_requests &&
                         fs.AccountedTargets() == fs.targets_submitted,
                     "request/target conservation broken after Close");
}

void RecordSwaps(const std::vector<double>& swap_ms, RunContext* ctx) {
  ctx->layer.Set("serve.swap_p50_ms", Percentile(swap_ms, 0.5), "ms");
  ctx->layer.Set("serve.swap_max_ms",
                 swap_ms.empty()
                     ? 0.0
                     : *std::max_element(swap_ms.begin(), swap_ms.end()),
                 "ms");
}

// ------------------------------------------------------------ closed loop

// The serve_hot request stream: batch k of client c in pass r is a pure
// function of (seed, r, c, k), so a seed gives the same batches whatever
// the timing; only how many each client sends depends on speed.
struct HotStream {
  std::vector<int> hot;     ///< the hot accounts, by Zipf rank
  std::vector<double> cdf;  ///< Zipf(s) cumulative mass over ranks
  uint64_t seed = 0;
  int width = 128;

  std::vector<int> Batch(int round, int client, uint64_t k) const {
    Rng rng(seed ^ (static_cast<uint64_t>(round) << 56) ^
            (static_cast<uint64_t>(client) << 48) ^
            (k * 0x9E3779B97F4A7C15ULL));
    std::vector<int> out(static_cast<size_t>(width));
    for (int& t : out) {
      const double u = rng.Uniform();
      const size_t rank = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      t = hot[std::min(rank, hot.size() - 1)];
    }
    return out;
  }
};

HotStream MakeHotStream(int num_nodes, int hot_count, double zipf_s,
                        int width, uint64_t seed) {
  HotStream hs;
  hs.seed = seed ^ 0x40775EEDULL;
  hs.width = width;
  Rng rng(hs.seed);
  std::vector<int> perm(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) perm[static_cast<size_t>(i)] = i;
  for (int i = 0; i < hot_count && i < num_nodes; ++i) {
    const int j = i + static_cast<int>(rng.UniformInt(num_nodes - i));
    std::swap(perm[static_cast<size_t>(i)], perm[static_cast<size_t>(j)]);
  }
  hs.hot.assign(perm.begin(), perm.begin() + std::min(hot_count, num_nodes));
  double total = 0.0;
  for (size_t r = 0; r < hs.hot.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
    hs.cdf.push_back(total);
  }
  for (double& c : hs.cdf) c /= total;
  return hs;
}

struct SampledRequest {
  std::vector<int> targets;
  std::vector<Score> scores;
  double due_s = 0.0;  ///< open loop: due time from the pass start
};

struct ClosedLoopResult {
  double wall_s = 0.0;
  uint64_t requests = 0, targets = 0, failed = 0;
  std::vector<double> latency_ms;
  std::vector<double> start_s;          ///< request start from the pass start
  std::vector<double> resubmit_gap_ms;  ///< reply -> next submit, per client
  std::vector<SampledRequest> samples;
};

ClosedLoopResult RunClosedLoop(ServingFrontend* fe, const HotStream& stream,
                               int round, int clients, double seconds,
                               uint64_t sample_every) {
  std::vector<ClosedLoopResult> per(static_cast<size_t>(clients));
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClosedLoopResult& r = per[static_cast<size_t>(c)];
      Clock::time_point last_reply = Clock::now();
      for (uint64_t k = 0; Clock::now() < end; ++k) {
        std::vector<int> batch = stream.Batch(round, c, k);
        const Clock::time_point t0 = Clock::now();
        if (k > 0) r.resubmit_gap_ms.push_back(MsSince(last_reply, t0));
        FrontendResult res = fe->ScoreBatch(batch);
        last_reply = Clock::now();
        r.latency_ms.push_back(MsSince(t0, last_reply));
        r.start_s.push_back(MsSince(start, t0) * 1e-3);
        ++r.requests;
        r.targets += batch.size();
        if (res.status != RequestStatus::kOk) {
          ++r.failed;
        } else if (k % sample_every == 0) {
          r.samples.push_back({std::move(batch), std::move(res.scores), 0.0});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ClosedLoopResult all;
  all.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (ClosedLoopResult& r : per) {
    all.requests += r.requests;
    all.targets += r.targets;
    all.failed += r.failed;
    all.latency_ms.insert(all.latency_ms.end(), r.latency_ms.begin(),
                          r.latency_ms.end());
    all.start_s.insert(all.start_s.end(), r.start_s.begin(), r.start_s.end());
    all.resubmit_gap_ms.insert(all.resubmit_gap_ms.end(),
                               r.resubmit_gap_ms.begin(),
                               r.resubmit_gap_ms.end());
    for (SampledRequest& s : r.samples) all.samples.push_back(std::move(s));
  }
  return all;
}

// -------------------------------------------------------------- open loop

// Calls `swap` at each of `at_s` (seconds after `start`) until `stop` is
// set, recording each call's wall time. The caller joins the thread.
std::thread StartSwapper(Clock::time_point start, std::vector<double> at_s,
                         const std::function<void()>& swap,
                         const std::atomic<bool>* stop,
                         std::vector<double>* swap_ms) {
  return std::thread([=, &swap] {
    for (double s : at_s) {
      const Clock::time_point when =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s));
      while (Clock::now() < when && !stop->load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (stop->load(std::memory_order_acquire)) return;
      swap_ms->push_back(TimeIt(swap) * 1e3);
    }
  });
}

struct OpenLoopSpec {
  double rate = kColdRate;  ///< offered requests per second
  double seconds = 1.0;
  uint64_t stream_key = 0;  ///< seeds arrival gaps and targets
  std::vector<double> swap_at_s;  ///< SwapGraph times from the start
  uint64_t sample_every = 0;  ///< keep every n-th served score (0 = none)
};

struct OpenLoopResult {
  uint64_t sent = 0, failed = 0;
  double wall_s = 0.0;
  std::vector<double> due_s;       ///< due time from the pass start
  std::vector<double> latency_ms;  ///< from due time, send order
  std::vector<double> late_ms;     ///< submit - due
  std::vector<double> swap_ms;
  std::vector<SampledRequest> samples;
};

OpenLoopResult RunOpenLoop(ServingFrontend* fe, int num_nodes,
                           const OpenLoopSpec& spec,
                           const std::function<void()>& swap) {
  const size_t n = static_cast<size_t>(std::max(1.0, spec.rate * spec.seconds));
  std::vector<double> due_s(n);
  std::vector<int> target(n);
  {
    Rng rng(spec.stream_key);
    double t = 0.0;
    for (size_t i = 0; i < n; ++i) {
      t += -std::log(1.0 - rng.Uniform()) / spec.rate;  // Poisson arrivals
      due_s[i] = t;
      target[i] = static_cast<int>(rng.UniformInt(num_nodes));
    }
  }
  OpenLoopResult res;
  res.latency_ms.resize(n);
  res.late_ms.resize(n);
  std::vector<std::future<FrontendResult>> futures(n);
  std::atomic<size_t> sent{0};
  std::atomic<bool> gen_done{false};
  const Clock::time_point start = Clock::now();
  auto at = [start](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };

  std::thread generator([&] {
    for (size_t i = 0; i < n; ++i) {
      const Clock::time_point due = at(due_s[i]);
      std::this_thread::sleep_until(due);
      const Clock::time_point now = Clock::now();
      res.late_ms[i] = MsSince(due, now);
      futures[i] = fe->SubmitOne(target[i]);
      sent.store(i + 1, std::memory_order_release);
    }
    gen_done.store(true, std::memory_order_release);
  });
  std::thread swapper = StartSwapper(start, spec.swap_at_s, swap, &gen_done,
                                     &res.swap_ms);
  // Completions are stamped in send order: a request that finishes before
  // an earlier one is stamped when that one is (at most one service time
  // late with 3 workers).
  for (size_t i = 0; i < n; ++i) {
    while (sent.load(std::memory_order_acquire) <= i) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    FrontendResult r = futures[i].get();
    res.latency_ms[i] = MsSince(at(due_s[i]), Clock::now());
    if (r.status != RequestStatus::kOk) {
      ++res.failed;
    } else if (spec.sample_every > 0 && i % spec.sample_every == 0) {
      res.samples.push_back({{target[i]}, std::move(r.scores), due_s[i]});
    }
  }
  generator.join();
  swapper.join();
  res.sent = n;
  res.due_s = std::move(due_s);
  res.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return res;
}

// Cold-path capacity: one thread keeps `window` single-target requests
// outstanding, submitting the next as the oldest resolves, so the workers
// never idle. Returns requests sent (all resolved), failures and wall time.
struct SaturationResult {
  uint64_t sent = 0, failed = 0;
  double wall_s = 0.0;
};

SaturationResult RunSaturation(ServingFrontend* fe, int num_nodes,
                               double seconds, size_t window,
                               uint64_t stream_key,
                               const std::vector<double>& swap_at_s,
                               const std::function<void()>& swap) {
  SaturationResult res;
  Rng rng(stream_key);
  std::deque<std::future<FrontendResult>> inflight;
  std::atomic<bool> stop{false};
  std::vector<double> swap_ms;
  const Clock::time_point start = Clock::now();
  std::thread swapper = StartSwapper(start, swap_at_s, swap, &stop, &swap_ms);
  auto resolve_oldest = [&] {
    if (inflight.front().get().status != RequestStatus::kOk) ++res.failed;
    inflight.pop_front();
  };
  while (MsSince(start, Clock::now()) < seconds * 1e3) {
    while (inflight.size() < window) {
      inflight.push_back(
          fe->SubmitOne(static_cast<int>(rng.UniformInt(num_nodes))));
      ++res.sent;
    }
    resolve_oldest();
  }
  while (!inflight.empty()) resolve_oldest();
  res.wall_s = MsSince(start, Clock::now()) * 1e-3;
  stop.store(true, std::memory_order_release);
  swapper.join();
  return res;
}

std::vector<double> SwapTimes(double seconds, double first) {
  std::vector<double> out;
  for (double s = first; s < seconds; s += kSwapPeriodS) out.push_back(s);
  return out;
}

// Serial re-scoring of sampled served requests (single targets and
// batches alike) through a fresh single-threaded engine: logits must be
// bit-identical.
void CheckAgainstSerialEngine(Bsg4Bot* model, const EngineConfig& ecfg,
                              const std::vector<SampledRequest>& samples,
                              const char* what, RunContext* ctx) {
  DetectionEngine serial(model, ecfg);
  size_t mismatches = 0;
  for (const SampledRequest& s : samples) {
    const std::vector<Score> oracle = serial.ScoreBatch(s.targets);
    bool same = oracle.size() == s.scores.size();
    for (size_t i = 0; same && i < oracle.size(); ++i) {
      same = SameLogits(oracle[i], s.scores[i]);
    }
    mismatches += same ? 0 : 1;
  }
  ctx->checks.Expect(!samples.empty(), StrFormat("%s: no sampled requests",
                                                 what));
  ctx->checks.Expect(mismatches == 0,
                     StrFormat("%s: %zu of %zu sampled requests differ from "
                               "the serial engine",
                               what, mismatches, samples.size()));
}

// f32 serving vs the f64 oracle on sampled requests.
void CheckF32Parity(Bsg4Bot* model, const std::vector<SampledRequest>& samples,
                    size_t max_requests, RunContext* ctx) {
  EngineConfig ecfg;
  ecfg.precision = EngineConfig::Precision::kF64;
  DetectionEngine f64(model, ecfg);
  size_t bad = 0, checked = 0;
  for (size_t i = 0; i < samples.size() && i < max_requests; ++i) {
    const std::vector<Score> oracle = f64.ScoreBatch(samples[i].targets);
    for (size_t j = 0; j < oracle.size(); ++j, ++checked) {
      bad += WithinF32Tolerance(samples[i].scores[j], oracle[j]) ? 0 : 1;
    }
  }
  ctx->checks.Expect(checked > 0 && bad == 0,
                     StrFormat("f32 vs f64: %zu of %zu scores outside 5e-3 "
                               "relative or flipped",
                               bad, checked));
}

// Traced open-loop pass: an untraced then a traced window at the same rate
// (trace.overhead_frac compares their p50), spans, counters and swaps.
// Returns the requests sent.
uint64_t TracedOpenLoop(ServingFrontend* fe, int num_nodes, double rate,
                        double window_s, const std::function<void()>& swap,
                        RunContext* ctx) {
  OpenLoopSpec spec;
  spec.rate = rate;
  spec.seconds = window_s;
  spec.swap_at_s = SwapTimes(window_s, 0.5 * std::min(kSwapPeriodS, window_s));
  spec.stream_key = ctx->opt.seed ^ 0x0DDBA11ULL;
  const OpenLoopResult plain = RunOpenLoop(fe, num_nodes, spec, swap);
  spec.stream_key = ctx->opt.seed ^ 0x7AACEDULL;
  ArmTracer();
  const OpenLoopResult traced = RunOpenLoop(fe, num_nodes, spec, swap);
  const std::vector<obs::CompletedTrace> traces = DisarmTracer(ctx);
  RecordTraceMetrics(traces, traced.wall_s, ctx);
  const double p50_plain = Percentile(plain.latency_ms, 0.5);
  const double p50_traced = Percentile(traced.latency_ms, 0.5);
  ctx->layer.Set("trace.overhead_frac",
                 p50_plain > 0 ? (p50_traced - p50_plain) / p50_plain : 0.0,
                 "ratio");
  ctx->layer.Set("gen.late_p99_ms", Percentile(traced.late_ms, 0.99), "ms");
  std::vector<double> swaps = plain.swap_ms;
  swaps.insert(swaps.end(), traced.swap_ms.begin(), traced.swap_ms.end());
  RecordSwaps(swaps, ctx);
  ctx->tally.attempted += plain.sent + traced.sent;
  ctx->tally.failed += plain.failed + traced.failed;
  return plain.sent + traced.sent;
}

}  // namespace

void ProbeServing(Bsg4Bot* model, RunContext* ctx) {
  model->EnsureF32Shadow();
  DetectionEngine engine(model, ServingEngineConfig(1024));
  FrontendConfig fcfg;
  fcfg.workers = std::max(1, ctx->threads - 1);
  fcfg.queue_capacity = 1u << 16;
  ServingFrontend fe(&engine, fcfg);
  uint64_t version = engine.graph_version();
  const uint64_t sent = TracedOpenLoop(
      &fe, model->graph().num_nodes, ctx->opt.smoke ? 300 : 1000,
      ctx->opt.smoke ? 0.5 : 1.5, [&] { fe.SwapGraph(model, ++version); },
      ctx);
  fe.Close();
  const FrontendStats fs = fe.Stats();
  RecordServeCounters(fs, ctx);
  CheckConservation(fs, sent, sent, ctx);
}

void RunServeHot(RunContext* ctx) {
  const bool smoke = ctx->opt.smoke;
  const double S = ctx->opt.seconds;
  const int clients = std::min(4, ctx->threads);
  WallTimer setup;
  ServedModel sm = TrainServedModel(smoke ? 600 : 12000, 2, ctx);
  Bsg4Bot* model = sm.model.get();
  const EngineConfig ecfg = ServingEngineConfig(4096);
  DetectionEngine engine(model, ecfg);
  FrontendConfig fcfg;
  fcfg.workers = std::min(4, ctx->threads);
  fcfg.queue_capacity = 1024;
  ServingFrontend fe(&engine, fcfg);
  const HotStream stream =
      MakeHotStream(sm.graph.num_nodes, smoke ? 128 : 512, 1.0,
                    engine.batch_size(), ctx->opt.seed);
  uint64_t sent_requests = 0, sent_targets = 0;
  auto count = [&](const ClosedLoopResult& r) {
    sent_requests += r.requests;
    sent_targets += r.targets;
  };
  // Warm-up: every hot account once, then a short closed-loop pass.
  for (size_t lo = 0; lo < stream.hot.size(); lo += stream.width) {
    const size_t hi = std::min(stream.hot.size(), lo + stream.width);
    const FrontendResult r = fe.ScoreBatch(
        std::vector<int>(stream.hot.begin() + lo, stream.hot.begin() + hi));
    ctx->checks.Expect(r.status == RequestStatus::kOk,
                       "warm-up request failed");
    sent_requests += 1;
    sent_targets += hi - lo;
  }
  count(RunClosedLoop(&fe, stream, /*round=*/0, clients, smoke ? 0.2 : 1.0,
                      1u << 30));
  ctx->e2e.Set("setup_s", setup.Seconds(), "s");

  std::vector<SampledRequest> samples;
  if (!ctx->opt.trace) {
    ClosedLoopResult r =
        RunClosedLoop(&fe, stream, /*round=*/1, clients, S, 16);
    ctx->e2e.Set("targets_per_s", static_cast<double>(r.targets) / r.wall_s,
                 "targets/s");
    ctx->e2e.Set("req_p50_ms", Percentile(r.latency_ms, 0.5), "ms");
    ctx->e2e.Set("req_p90_ms", MedianWindowP90(r.start_s, r.latency_ms, S / 4),
                 "ms");
    ctx->tally.attempted += r.requests;
    ctx->tally.failed += r.failed;
    count(r);
    samples = std::move(r.samples);
  } else {
    const double w = std::max(0.2, S / 4);
    const ClosedLoopResult plain =
        RunClosedLoop(&fe, stream, 1, clients, w, 16);
    ArmTracer();
    ClosedLoopResult traced = RunClosedLoop(&fe, stream, 2, clients, w, 16);
    const std::vector<obs::CompletedTrace> traces = DisarmTracer(ctx);
    RecordTraceMetrics(traces, traced.wall_s, ctx);
    const double tps_plain = plain.targets / plain.wall_s;
    const double tps_traced = traced.targets / traced.wall_s;
    ctx->layer.Set("trace.overhead_frac", (tps_plain - tps_traced) / tps_plain,
                   "ratio");
    ctx->layer.Set("gen.late_p99_ms", Percentile(traced.resubmit_gap_ms, 0.99),
                   "ms");
    ctx->tally.attempted += plain.requests + traced.requests;
    ctx->tally.failed += plain.failed + traced.failed;
    count(plain);
    count(traced);
    samples = std::move(traced.samples);
    // One hot swap (same model, next version) so the swap path is timed
    // on this workload too; it purges every cached entry.
    const uint64_t next = engine.graph_version() + 1;
    RecordSwaps({TimeIt([&] { fe.SwapGraph(model, next); }) * 1e3}, ctx);
  }
  fe.Close();
  const FrontendStats fs = fe.Stats();
  CheckConservation(fs, sent_requests, sent_targets, ctx);
  CheckAgainstSerialEngine(model, ecfg, samples, "serve_hot", ctx);
  CheckF32Parity(model, samples, smoke ? 2 : 8, ctx);
  if (ctx->opt.trace) {
    RecordServeCounters(fs, ctx);
    ProbeCheckpoint(model, ctx);
    ProbeAssembly(model, ctx->opt.seed, ctx);
    ProbeTensorKernels(model, ctx->opt.seed, ctx);
    ProbeCeilings(ctx);
  }
}

void RunServeCold(RunContext* ctx) {
  const bool smoke = ctx->opt.smoke;
  const double S = ctx->opt.seconds;
  WallTimer setup;
  ServedModel sm = TrainServedModel(smoke ? 600 : 12000, 2, ctx);
  Bsg4Bot* trained = sm.model.get();
  // Two serving replicas restored from one in-memory checkpoint; SwapGraph
  // flips between them. Both score exactly like the trained model.
  Checkpoint ckpt;
  ctx->layer.Set("io.export_s",
                 TimeIt([&] { trained->ExportCheckpoint(&ckpt); }), "s");
  std::unique_ptr<Bsg4Bot> replicas[2];
  double restore_s = 0.0;
  for (auto& r : replicas) {
    r = std::make_unique<Bsg4Bot>(sm.graph, trained->config());
    Status st;
    restore_s += TimeIt([&] { st = r->RestoreFromCheckpoint(ckpt); });
    ctx->checks.Expect(st.ok(), "replica restore failed: " + st.ToString());
    r->EnsureF32Shadow();
  }
  ctx->layer.Set("io.restore_s", restore_s / 2, "s");
  const EngineConfig ecfg = ServingEngineConfig(1024);
  EngineConfig replica_cfg = ecfg;
  replica_cfg.graph_version = 1;
  DetectionEngine engine(replicas[0].get(), replica_cfg);
  FrontendConfig fcfg;
  fcfg.workers = std::max(1, std::min(3, ctx->threads - 1));
  fcfg.queue_capacity = 1u << 16;
  ServingFrontend fe(&engine, fcfg);
  uint64_t version = 1;
  auto swap = [&] {
    ++version;
    fe.SwapGraph(replicas[version % 2].get(), version);
  };
  const int num_nodes = sm.graph.num_nodes;
  uint64_t sent = 0;  // every request is a single target
  // Warm-up: a short pass at the fixed rate (lazy scratch, thread-local
  // workspaces, pool).
  {
    OpenLoopSpec warm;
    warm.seconds = smoke ? 0.2 : 0.5;
    warm.stream_key = ctx->opt.seed ^ 0x3A3Bu;
    const OpenLoopResult r = RunOpenLoop(&fe, num_nodes, warm, swap);
    ctx->checks.Expect(r.failed == 0, "serve_cold warm-up failed requests");
    sent += r.sent;
  }
  ctx->e2e.Set("setup_s", setup.Seconds(), "s");

  std::vector<SampledRequest> samples;
  if (!ctx->opt.trace) {
    // Fixed offered rate, swaps every 2 s, latency from due time.
    OpenLoopSpec fixed;
    fixed.rate = kColdRate;
    fixed.seconds = 0.4 * S;
    fixed.stream_key = ctx->opt.seed ^ 0xF1EDu;
    fixed.swap_at_s =
        SwapTimes(fixed.seconds, std::min(1.0, fixed.seconds / 2));
    fixed.sample_every = smoke ? 8 : 32;
    OpenLoopResult r = RunOpenLoop(&fe, num_nodes, fixed, swap);
    sent += r.sent;
    ctx->e2e.Set("req_p50_ms", Percentile(r.latency_ms, 0.5), "ms");
    ctx->e2e.Set("req_p90_ms", MedianWindowP90(r.due_s, r.latency_ms, 0.5),
                 "ms");
    ctx->tally.attempted += r.sent;
    ctx->tally.failed += r.failed;
    samples = std::move(r.samples);
    const bool after_swap = std::any_of(
        samples.begin(), samples.end(), [&](const SampledRequest& s) {
          return !fixed.swap_at_s.empty() && s.due_s > fixed.swap_at_s[0];
        });
    ctx->checks.Expect(after_swap,
                       "no sampled request was served after a swap");

    // Capacity: saturation throughput with 4 requests outstanding per
    // worker, swaps continuing every 2 s.
    const SaturationResult sat = RunSaturation(
        &fe, num_nodes, 0.4 * S, 4 * static_cast<size_t>(fcfg.workers),
        ctx->opt.seed ^ 0x5A7u,
        SwapTimes(0.4 * S, std::min(1.0, 0.2 * S)), swap);
    sent += sat.sent;
    ctx->tally.attempted += sat.sent;
    ctx->tally.failed += sat.failed;
    ctx->e2e.Set("targets_per_s", static_cast<double>(sat.sent) / sat.wall_s,
                 "targets/s");
  } else {
    sent += TracedOpenLoop(&fe, num_nodes, kColdRate, std::max(0.5, S / 4),
                           swap, ctx);
  }
  fe.Close();
  const FrontendStats fs = fe.Stats();
  CheckConservation(fs, sent, sent, ctx);
  if (!samples.empty() || !ctx->opt.trace) {
    CheckAgainstSerialEngine(trained, ecfg, samples, "serve_cold", ctx);
  }
  if (ctx->opt.trace) {
    RecordServeCounters(fs, ctx);
    ProbeAssembly(trained, ctx->opt.seed, ctx);
    ProbeTensorKernels(trained, ctx->opt.seed, ctx);
    ProbeCeilings(ctx);
  }
}

}  // namespace bsg::perfbench
