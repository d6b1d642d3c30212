// Per-layer probes of the traced run: machine ceilings, the dense/sparse
// kernels at the shapes training and serving actually use, the subgraph
// assembly stages, and checkpoint export/restore. Each probe times the
// benchmark's own calls into a module's public functions; operation and
// byte counts are computed from the shapes.
#include <immintrin.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/subgraph_batch.h"
#include "io/checkpoint.h"
#include "ppr/ppr_workspace.h"
#include "tensor/matrix_f.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace bsg::perfbench {
namespace {

// ---------------------------------------------------------------- ceilings

// Independent FMA chains on registers. Each variant returns a value that
// depends on every chain so the loop cannot be folded away; `flops` is the
// operation count per iteration.
__attribute__((target("avx512f"))) double FmaAvx512(int64_t iters,
                                                    double seed) {
  constexpr int kChains = 12;
  __m512d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm512_set1_pd(seed + c);
  const __m512d a = _mm512_set1_pd(0.999999), b = _mm512_set1_pd(1e-7);
  for (int64_t i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = _mm512_fmadd_pd(acc[c], a, b);
  }
  __m512d s = acc[0];
  for (int c = 1; c < kChains; ++c) s = _mm512_add_pd(s, acc[c]);
  double lanes[8];
  _mm512_storeu_pd(lanes, s);
  double sum = 0.0;
  for (double v : lanes) sum += v;
  return sum;
}

__attribute__((target("avx2,fma"))) double FmaAvx2(int64_t iters,
                                                   double seed) {
  constexpr int kChains = 12;
  __m256d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_pd(seed + c);
  const __m256d a = _mm256_set1_pd(0.999999), b = _mm256_set1_pd(1e-7);
  for (int64_t i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = _mm256_fmadd_pd(acc[c], a, b);
  }
  double lanes[4];
  __m256d s = acc[0];
  for (int c = 1; c < kChains; ++c) s = _mm256_add_pd(s, acc[c]);
  _mm256_storeu_pd(lanes, s);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

double FmaScalar(int64_t iters, double seed) {
  constexpr int kChains = 12;
  double acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = seed + c;
  for (int64_t i = 0; i < iters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * 0.999999 + 1e-7;
  }
  double s = 0.0;
  for (double v : acc) s += v;
  return s;
}

struct FmaKernel {
  double (*fn)(int64_t, double);
  double flops_per_iter;
};

FmaKernel BestFmaKernel() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return {FmaAvx512, 12 * 8 * 2};
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return {FmaAvx2, 12 * 4 * 2};
  }
  return {FmaScalar, 12 * 2};
}

// Runs `body(thread_index)` on `threads` threads at once; returns the wall
// time from a common start to the last thread's end.
template <typename Body>
double RunConcurrently(int threads, Body body) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(t);
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  WallTimer timer;
  go.store(true, std::memory_order_release);
  for (std::thread& th : pool) th.join();
  return timer.Seconds();
}

double FmaGflops(int threads, int64_t iters) {
  const FmaKernel k = BestFmaKernel();
  std::vector<double> sink(static_cast<size_t>(threads));
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const double s = RunConcurrently(threads, [&](int t) {
      sink[static_cast<size_t>(t)] = k.fn(iters, 1.0 + t);
    });
    best = std::max(best, k.flops_per_iter * iters * threads / s * 1e-9);
  }
  // The sink is consumed so the chains stay live.
  volatile double keep = sink[0];
  (void)keep;
  return best;
}

// STREAM triad a = b + s*c over arrays far larger than the last-level
// cache; 24 bytes moved per element (two reads, one write).
double TriadGbs(int threads, size_t n) {
  std::vector<double> a(n), b(n, 1.0), c(n, 2.0);
  const size_t chunk = (n + threads - 1) / threads;
  auto body = [&](int t) {
    const size_t lo = std::min(n, chunk * t), hi = std::min(n, lo + chunk);
    for (size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
  };
  RunConcurrently(threads, body);  // first touch, page faults
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const double s = RunConcurrently(threads, body);
    best = std::max(best, 24.0 * static_cast<double>(n) / s * 1e-9);
  }
  volatile double keep = a[n / 2];
  (void)keep;
  return best;
}

// Median seconds per call of `fn` over enough calls to fill `budget_s`.
template <typename Fn>
double SecondsPerCall(double budget_s, Fn&& fn) {
  fn();  // warm caches and the buffer pool
  std::vector<double> times;
  WallTimer total;
  do {
    times.push_back(TimeIt(fn));
  } while (total.Seconds() < budget_s || times.size() < 5);
  return Median(std::move(times));
}

/// The first `count` training centres' stored subgraphs, stacked the way a
/// training batch is.
SubgraphBatch TrainingShapedBatch(const Bsg4Bot& model, int count) {
  const HeteroGraph& g = model.graph();
  std::vector<const BiasedSubgraph*> subs;
  std::vector<int> centers;
  for (int i = 0; i < count && i < static_cast<int>(g.train_idx.size());
       ++i) {
    const int c = g.train_idx[static_cast<size_t>(i)];
    subs.push_back(&model.subgraphs()[static_cast<size_t>(c)]);
    centers.push_back(c);
  }
  return MakeSubgraphBatch(subs, centers, g.num_relations());
}

std::vector<int> SampleTargets(int num_nodes, int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> out(static_cast<size_t>(count));
  for (int& t : out) t = static_cast<int>(rng.UniformInt(num_nodes));
  return out;
}

}  // namespace

void ProbeCeilings(RunContext* ctx) {
  const int64_t iters = ctx->opt.smoke ? 200000 : 4000000;
  const size_t n = ctx->opt.smoke ? (1u << 20) : (1u << 22);
  ctx->layer.Set("ceiling.fma_gflops_1core", FmaGflops(1, iters), "GFLOP/s");
  ctx->layer.Set("ceiling.fma_gflops_all", FmaGflops(ctx->threads, iters),
                 "GFLOP/s");
  ctx->layer.Set("ceiling.triad_gbs_1core", TriadGbs(1, n), "GB/s");
  ctx->layer.Set("ceiling.triad_gbs_all", TriadGbs(ctx->threads, n), "GB/s");
}

void ProbeTensorKernels(Bsg4Bot* model, uint64_t seed, RunContext* ctx) {
  const double budget = ctx->opt.smoke ? 0.02 : 0.15;
  const SubgraphBatch batch =
      TrainingShapedBatch(*model, model->config().batch_size);
  const HeteroGraph& g = model->graph();
  const std::vector<int>& rows = batch.rel_node_ids[0];
  const Csr& adj = *batch.rel_adjs[0].fwd;
  const double n = static_cast<double>(rows.size());
  const double f = g.feature_dim();
  const int h = model->config().hidden;
  Rng rng(seed ^ 0x7E45011ULL);

  // Eq. 9 input projection (n x f . f x h) and a GCN layer (n x h . h x h).
  const Matrix x = g.features.GatherRows(rows);
  const Matrix hid = Matrix::RandomNormal(static_cast<int>(n), h, 1.0, &rng);
  const Matrix w_in = Matrix::Xavier(static_cast<int>(f), h, &rng);
  const Matrix w_h = Matrix::Xavier(h, h, &rng);
  const Matrix bias = Matrix::RandomNormal(1, h, 0.1, &rng);
  const double flops_in = 2.0 * n * f * h, flops_h = 2.0 * n * h * h;

  const double s_mab = SecondsPerCall(budget, [&] {
                         Matrix y = x.MatMulAddBias(w_in, bias);
                       }) +
                       SecondsPerCall(budget, [&] {
                         Matrix y = hid.MatMulAddBias(w_h, bias);
                       });
  ctx->layer.Set("tensor.matmul_add_bias.gflops",
                 (flops_in + flops_h) / s_mab * 1e-9, "GFLOP/s");
  // Weight gradients (x^T . dY) and input gradients (dY . W^T).
  const double s_tn =
      SecondsPerCall(budget, [&] { Matrix y = x.MatMulTN(hid); }) +
      SecondsPerCall(budget, [&] { Matrix y = hid.MatMulTN(hid); });
  ctx->layer.Set("tensor.matmul_tn.gflops", (flops_in + flops_h) / s_tn * 1e-9,
                 "GFLOP/s");
  const double s_nt =
      SecondsPerCall(budget, [&] { Matrix y = hid.MatMulNT(w_in); }) +
      SecondsPerCall(budget, [&] { Matrix y = hid.MatMulNT(w_h); });
  ctx->layer.Set("tensor.matmul_nt.gflops", (flops_in + flops_h) / s_nt * 1e-9,
                 "GFLOP/s");

  // SpMM over the stacked relation-0 adjacency: values + column indices +
  // row pointers, one gathered h-wide row per edge, one written row per
  // node.
  const double nnz = static_cast<double>(adj.num_edges());
  const Tensor hid_t = MakeTensor(hid);
  const double s_spmm = SecondsPerCall(
      budget, [&] { Tensor y = ops::SpMM(batch.rel_adjs[0], hid_t); });
  const double spmm_bytes =
      nnz * (8 + 4) + (n + 1) * 8 + nnz * h * 8 + n * h * 8;
  ctx->layer.Set("tensor.spmm.gbs", spmm_bytes / s_spmm * 1e-9, "GB/s");
  const double s_lrelu =
      SecondsPerCall(budget, [&] { Tensor y = ops::LeakyRelu(hid_t, 0.01); });
  ctx->layer.Set("tensor.leaky_relu.gbs", 2.0 * n * h * 8 / s_lrelu * 1e-9,
                 "GB/s");

  // f32 serving kernels at the same (engine-width batch) shapes.
  const MatrixF xf = MatrixF::FromDouble(x);
  const MatrixF hf = MatrixF::FromDouble(hid);
  const MatrixF w_in_f = MatrixF::FromDouble(w_in);
  const MatrixF w_h_f = MatrixF::FromDouble(w_h);
  const MatrixF bias_f = MatrixF::FromDouble(bias);
  const double s_mab_f = SecondsPerCall(budget, [&] {
                           MatrixF y = xf.MatMulAddBias(w_in_f, bias_f);
                         }) +
                         SecondsPerCall(budget, [&] {
                           MatrixF y = hf.MatMulAddBias(w_h_f, bias_f);
                         });
  ctx->layer.Set("tensor.f32.matmul_add_bias.gflops",
                 (flops_in + flops_h) / s_mab_f * 1e-9, "GFLOP/s");
  std::vector<float> w32(adj.weights().begin(), adj.weights().end());
  const std::vector<float>* w32_or_null = w32.empty() ? nullptr : &w32;
  const double s_spmm_f = SecondsPerCall(
      budget, [&] { MatrixF y = SpmmF(adj, w32_or_null, hf); });
  const double spmm_f_bytes =
      nnz * (4 + 4) + (n + 1) * 8 + nnz * h * 4 + n * h * 4;
  ctx->layer.Set("tensor.f32.spmm.gbs", spmm_f_bytes / s_spmm_f * 1e-9,
                 "GB/s");
}

void ProbeAssembly(Bsg4Bot* model, uint64_t seed, RunContext* ctx) {
  const HeteroGraph& g = model->graph();
  const int width = model->config().batch_size;
  const int count = ctx->opt.smoke ? width : 4 * width;
  const std::vector<int> targets =
      SampleTargets(g.num_nodes, count, seed ^ 0xA55E4B1EULL);

  PprWorkspace ws;
  const PprConfig& ppr = model->config().subgraph.ppr;
  int64_t calls = 0;
  const double ppr_s = TimeIt([&] {
    for (int t : targets) {
      for (const Csr& rel : g.relations) {
        ws.ApproximatePpr(rel, t, ppr);
        ++calls;
      }
    }
  });
  ctx->layer.Set("ppr.push_us", ppr_s / calls * 1e6, "us");

  std::vector<BiasedSubgraph> subs(targets.size());
  const double assemble_s = TimeIt([&] {
    for (size_t i = 0; i < targets.size(); ++i) {
      subs[i] = model->AssembleSubgraph(targets[i]);
    }
  });
  ctx->layer.Set("core.assemble_us", assemble_s / targets.size() * 1e6, "us");

  BatchStacker stacker(g.num_relations(), /*with_f32_weights=*/true);
  model->EnsureF32Shadow();
  std::vector<double> stack_s, score_s;
  for (int rep = 0; rep < (ctx->opt.smoke ? 2 : 6); ++rep) {
    for (size_t lo = 0; lo + width <= subs.size(); lo += width) {
      std::vector<const BiasedSubgraph*> ptrs;
      std::vector<int> centers;
      for (size_t i = lo; i < lo + width; ++i) {
        ptrs.push_back(&subs[i]);
        centers.push_back(targets[i]);
      }
      SubgraphBatch batch;
      stack_s.push_back(TimeIt([&] { batch = stacker.Stack(ptrs, centers); }));
      Matrix logits;
      score_s.push_back(
          TimeIt([&] { logits = model->ScoreBatchF32(batch); }));
      ctx->checks.Expect(logits.rows() == width,
                         "ScoreBatchF32 returned the wrong row count");
      stacker.Recycle(std::move(batch));
    }
  }
  ctx->layer.Set("core.stack_us", Median(stack_s) * 1e6, "us");
  ctx->layer.Set("core.score_f32_ms", Median(score_s) * 1e3, "ms");
}

void ProbeCheckpoint(Bsg4Bot* model, RunContext* ctx) {
  Checkpoint ckpt;
  ctx->layer.Set("io.export_s",
                 TimeIt([&] { model->ExportCheckpoint(&ckpt); }), "s");
  Bsg4Bot restored(model->graph(), model->config());
  Status st;
  ctx->layer.Set("io.restore_s",
                 TimeIt([&] { st = restored.RestoreFromCheckpoint(ckpt); }),
                 "s");
  ctx->checks.Expect(st.ok(), "checkpoint restore failed: " + st.ToString());
}

}  // namespace bsg::perfbench
