// Metric sink, checks, statistics, fingerprint and the set-up shared by
// every workload.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cpuid.h>
#include <cstring>
#include <thread>

#include "bench.h"
#include "datagen/config.h"
#include "datagen/generator.h"
#include "features/feature_pipeline.h"
#include "train/metrics.h"
#include "util/string_util.h"

#ifndef BSG_PERFBENCH_COMPILER
#define BSG_PERFBENCH_COMPILER "unknown"
#endif
#ifndef BSG_PERFBENCH_FLAGS
#define BSG_PERFBENCH_FLAGS ""
#endif
#ifndef BSG_PERFBENCH_MARCH_NATIVE
#define BSG_PERFBENCH_MARCH_NATIVE 0
#endif

namespace bsg::perfbench {
namespace {

std::string JsonEscaped(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string CpuBrand() {
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

std::string IsaFlags() {
  std::string out;
  auto add = [&out](bool has, const char* name) {
    if (!has) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  __builtin_cpu_init();
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx512bw"), "avx512bw");
  add(__builtin_cpu_supports("avx512vl"), "avx512vl");
  return out;
}

}  // namespace

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) {
    const size_t i = static_cast<size_t>(it - names_.begin());
    values_[i] = value;
    units_[i] = unit;
    return;
  }
  names_.push_back(name);
  values_.push_back(value);
  units_.push_back(unit);
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < names_.size(); ++i) {
    // %.17g keeps every digit; JSON has no NaN/Inf, so those print null and
    // the runner rejects the result.
    const std::string v = std::isfinite(values_[i])
                              ? StrFormat("%.17g", values_[i])
                              : std::string("null");
    out += StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", names_[i].c_str(), v.c_str(),
                     units_[i].c_str());
  }
  return out + "}";
}

void Checks::Expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures_;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * (v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string FingerprintJson(const Options& opt, int threads) {
  return StrFormat(
      "{\"fingerprint\": {\"cores\": %d, \"cpu\": \"%s\", \"isa\": \"%s\", "
      "\"compiler\": \"%s\", \"flags\": \"%s\", \"march_native\": %s, "
      "\"commit\": \"%s\"}, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"smoke\": %d}",
      threads, JsonEscaped(CpuBrand()).c_str(), IsaFlags().c_str(),
      JsonEscaped(BSG_PERFBENCH_COMPILER).c_str(),
      JsonEscaped(BSG_PERFBENCH_FLAGS).c_str(),
      BSG_PERFBENCH_MARCH_NATIVE ? "true" : "false",
      JsonEscaped(opt.commit).c_str(), JsonEscaped(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, opt.smoke ? 1 : 0);
}

HeteroGraph BuildWorkloadGraph(int users, double* generate_s,
                               double* build_graph_s) {
  DatasetConfig dc = Twibot22Sim();  // dataset seed 22, as the preset pins
  dc.num_users = users;
  dc.tweets_per_user = 16;
  RawDataset raw;
  *generate_s = TimeIt([&] { raw = SocialNetworkGenerator(dc).Generate(); });
  HeteroGraph g;
  const FeaturePipelineConfig fc;
  *build_graph_s = TimeIt([&] { g = BuildGraph(raw, fc); });
  return g;
}

Bsg4BotConfig TableIIIConfig(int epochs, uint64_t seed) {
  Bsg4BotConfig cfg;
  cfg.pretrain.epochs = 60;
  cfg.pretrain.hidden = 32;
  cfg.subgraph.k = 32;
  cfg.hidden = 32;
  cfg.dropout = 0.25;
  cfg.max_epochs = epochs;
  cfg.min_epochs = epochs;
  cfg.patience = 12;
  cfg.seed = seed;
  return cfg;
}

TrainResult TrainAndRecord(Bsg4Bot* model, RunContext* ctx) {
  const double prepare_s = TimeIt([&] { model->Prepare(); });
  TrainResult res;
  const double fit_s = TimeIt([&] { res = model->Fit(); });

  bool finite = !res.loss_history.empty();
  for (double l : res.loss_history) finite = finite && std::isfinite(l);
  ctx->checks.Expect(finite, "training loss history is empty or not finite");
  ctx->checks.Expect(res.epochs_run == model->config().max_epochs,
                     "Fit did not run the fixed epoch count");
  // Smoke sizes train too little for a meaningful F1.
  ctx->checks.Expect(std::isfinite(res.test.f1) &&
                         (ctx->opt.smoke || res.test.f1 > 0.0),
                     "test F1 is not a positive number");

  // ROC-AUC of the test logits Fit already computed. F1 depends on the
  // argmax threshold, so a few borderline accounts move it by a fifth
  // between training seeds; the ranking quality moves by a few percent.
  const std::vector<int>& test = model->graph().test_idx;
  std::vector<int> labels(test.size()), all(test.size());
  for (size_t i = 0; i < test.size(); ++i) {
    labels[i] = model->graph().labels[static_cast<size_t>(test[i])];
    all[i] = static_cast<int>(i);
  }
  const double test_auc = RocAuc(BotScores(res.best_logits), labels, all);
  ctx->checks.Expect(std::isfinite(test_auc) && test_auc > 0.0,
                     "test ROC-AUC is not a positive number");

  ctx->e2e.Set("train_s", prepare_s + fit_s, "s");
  ctx->e2e.Set("epoch_s", res.seconds_per_epoch, "s");
  ctx->e2e.Set("test_auc", test_auc, "ratio");

  const double pretrain_s = model->pretrain_result().seconds;
  ctx->layer.Set("core.pretrain_s", pretrain_s, "s");
  ctx->layer.Set("core.build_all_subgraphs_s",
                 std::max(0.0, prepare_s - pretrain_s), "s");
  ctx->layer.Set("train.pool_hit_rate", res.pool_hit_rate, "ratio");
  ctx->layer.Set("train.pool_acquires_per_step", res.pool_acquires_per_step,
                 "count");
  ctx->layer.Set("train.test_f1", res.test.f1, "ratio");
  return res;
}

}  // namespace bsg::perfbench
