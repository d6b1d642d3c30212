// bsg_perfbench: one benchmark run (see bench.h for the command line and
// perfbench/README.md for the metrics).
//
// stdout: a fingerprint line, then, as the last line, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Progress and check failures go to stderr. Exit code 0 only
// when every output check passed.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "util/parallel.h"

namespace bsg::perfbench {
namespace {

int UsableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<int>(n) : 1;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (key != "--smoke" && i + 1 < argc) {
      value = argv[++i];
    }
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = !value.empty();
    } else if (key == "--seconds") {
      opt->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opt->trace = value == "1";
    } else if (key == "--smoke") {
      opt->smoke = true;
    } else if (key == "--commit") {
      opt->commit = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (!have_seed) std::fprintf(stderr, "--seed is required\n");
  return have_seed && opt->seconds > 0 &&
         (opt->workload == "train" || opt->workload == "serve_hot" ||
          opt->workload == "serve_cold");
}

}  // namespace
}  // namespace bsg::perfbench

int main(int argc, char** argv) {
  using namespace bsg::perfbench;
  RunContext ctx;
  if (!ParseArgs(argc, argv, &ctx.opt)) {
    std::fprintf(stderr,
                 "usage: bsg_perfbench --workload train|serve_hot|serve_cold "
                 "--seed N [--seconds S] [--trace 0|1] [--smoke]\n");
    return 2;
  }
  ctx.threads = UsableCores();
  bsg::SetNumThreads(ctx.threads);
  std::printf("%s\n", FingerprintJson(ctx.opt, ctx.threads).c_str());
  std::fflush(stdout);
  try {
    if (ctx.opt.workload == "train") {
      RunTrain(&ctx);
    } else if (ctx.opt.workload == "serve_hot") {
      RunServeHot(&ctx);
    } else {
      RunServeCold(&ctx);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run aborted: %s\n", e.what());
    return 3;
  }
  Metrics& out = ctx.opt.trace ? ctx.layer : ctx.e2e;
  if (!ctx.opt.trace) out.Set("peak_rss_mb", PeakRssMb(), "MiB");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              ctx.checks.all_ok() ? "true" : "false",
              static_cast<unsigned long long>(ctx.tally.attempted),
              static_cast<unsigned long long>(ctx.tally.failed),
              out.ToJson().c_str());
  return ctx.checks.all_ok() ? 0 : 1;
}
