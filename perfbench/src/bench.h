// Shared plumbing of the BSG4Bot benchmark (perfbench/): run options, the
// metric sink, output checks, percentiles, and the entry points of the three
// workloads and of the per-layer probes.
//
// The benchmark is one process per run:
//
//   bsg_perfbench --workload train|serve_hot|serve_cold --seed N
//                 --seconds S --trace 0|1 [--smoke] [--commit SHA]
//
// perfbench/run.py builds it and is the command BENCHMARK.json names; see
// perfbench/README.md for every metric's definition.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/bsg4bot.h"
#include "graph/hetero_graph.h"
#include "util/timer.h"

namespace bsg::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 20.0;
  bool trace = false;
  /// Tiny sizes: every metric is still produced and every check still
  /// runs, in a few seconds (perfbench/smoke.py).
  bool smoke = false;
  std::string commit = "unknown";
};

/// Insertion-ordered (name, value, unit) list; the last stdout line prints
/// it as the result's "metrics" object.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::string>& names() const { return names_; }
  std::string ToJson() const;

 private:
  std::vector<std::string> names_;
  std::vector<double> values_;
  std::vector<std::string> units_;
};

/// Output checks: a failed check is recorded (and printed to stderr) and
/// makes the run exit non-zero with "correct": false.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  bool all_ok() const { return failures_ == 0; }

 private:
  int failures_ = 0;
};

/// Requests (or training/scoring units) attempted and failed in the run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct RunContext {
  Options opt;
  Metrics e2e;    ///< printed by untraced runs (BENCHMARK.json end_to_end)
  Metrics layer;  ///< printed by traced runs (BENCHMARK.json per_layer)
  Checks checks;
  Tally tally;
  int threads = 1;  ///< hardware threads; load generators never exceed it
};

/// Nearest-rank percentile (p in [0, 1]) of a copy of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

/// Seconds of `fn()`.
template <typename Fn>
double TimeIt(Fn&& fn) {
  WallTimer t;
  fn();
  return t.Seconds();
}

/// Process peak resident set (getrusage), MiB.
double PeakRssMb();

/// One-line JSON hardware/build fingerprint (cores, CPU model, ISA flags,
/// compiler, flags, -march, commit, seed).
std::string FingerprintJson(const Options& opt, int threads);

// --- shared set-up -------------------------------------------------------

/// The TwiBot-22 simulant with `users` users and 16 tweets each, featurised.
/// Like the paper's datasets it is fixed: the preset pins its dataset seed,
/// and the run's --seed varies the model initialisation, the training
/// order and the request streams instead. Times both phases.
HeteroGraph BuildWorkloadGraph(int users, double* generate_s,
                               double* build_graph_s);

/// The Table III BSG4Bot configuration (bench/bench_common.h's
/// BenchBsgConfig) with a fixed epoch count.
Bsg4BotConfig TableIIIConfig(int epochs, uint64_t seed);

/// Prepare + Fit of `model`, recording train_s, epoch_s and test_auc (end
/// to end) and core.*/train.* (traced), and checking the loss history.
TrainResult TrainAndRecord(Bsg4Bot* model, RunContext* ctx);

// --- per-layer probes (traced runs only) ---------------------------------

/// Machine ceilings: FMA loop and STREAM triad, one core and all cores.
void ProbeCeilings(RunContext* ctx);
/// f64 kernels at training shapes and f32 kernels at serving shapes, from
/// a stacked batch of `model`'s subgraphs.
void ProbeTensorKernels(Bsg4Bot* model, uint64_t seed, RunContext* ctx);
/// PPR push, subgraph assembly, batch stacking and the f32 batch forward.
void ProbeAssembly(Bsg4Bot* model, uint64_t seed, RunContext* ctx);
/// ExportCheckpoint + RestoreFromCheckpoint of `model` into a fresh model
/// on the same graph. Records io.export_s / io.restore_s.
void ProbeCheckpoint(Bsg4Bot* model, RunContext* ctx);

// --- workloads -----------------------------------------------------------

void RunTrain(RunContext* ctx);
void RunServeHot(RunContext* ctx);
void RunServeCold(RunContext* ctx);

/// A short traced open-loop pass over `model` (used by the train
/// workload's traced run so every serving layer metric is measured there
/// too). Records serve.* / gen.* / trace.overhead_frac.
void ProbeServing(Bsg4Bot* model, RunContext* ctx);

}  // namespace bsg::perfbench
