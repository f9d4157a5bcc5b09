// Dense-kernel throughput bench: scalar vs SIMD vs SIMD+threads, in GFLOP/s,
// at the adaptation loop's real shapes (batch×in trunk, 128×128 hidden,
// 128×|z| head). Emits BENCH_kernels.json (path overridable as argv[1]) and
// mirrors it on stdout, so the repo accumulates a perf trajectory across
// PRs. See README "Benchmarks & the perf trajectory" for the field glossary.
//
// `--check` turns the bench into a CI smoke gate: on AVX2 hardware it exits
// non-zero when the SIMD GEMM fails to beat the scalar GEMM at 128×128 — a
// regression in either the kernels or the dispatcher.
#include "bench_common.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace warper;

namespace {

nn::Matrix RandomMatrix(size_t rows, size_t cols, util::Rng* rng) {
  nn::Matrix m(rows, cols);
  for (double& v : m.data()) v = rng->Uniform() * 2.0 - 1.0;
  return m;
}

// Keeps results observable so the GEMM can't be optimized away.
double g_sink = 0.0;

struct GemmShape {
  size_t m, k, n;
  const char* why;
};

// The MLP's real shapes (§3.5: FC-128 trunks, |z| = 16, batch 64).
const GemmShape kGemmShapes[] = {
    {64, 130, 128, "batch x input trunk layer"},
    {128, 128, 128, "hidden FC-128 layer"},
    {128, 128, 16, "embedding head (|z| = 16)"},
};

void ApplyMode(util::SimdMode simd, int threads) {
  util::ParallelConfig config;
  config.threads = threads;
  config.simd = simd;
  core::ApplyParallelConfig(config);
}

// Median seconds per single GEMM, with enough inner iterations per sample
// that each sample runs a few tens of milliseconds.
double TimeGemmSeconds(const nn::Matrix& a, const nn::Matrix& b, int repeats) {
  double flop = 2.0 * static_cast<double>(a.rows()) *
                static_cast<double>(a.cols()) *
                static_cast<double>(b.cols());
  size_t iters = std::max<size_t>(1, static_cast<size_t>(1e8 / flop));
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    util::WallTimer timer;
    for (size_t i = 0; i < iters; ++i) {
      nn::Matrix out = a.MatMul(b);
      g_sink += out.data()[0];
    }
    samples.push_back(timer.Seconds() / static_cast<double>(iters));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

double Gflops(const GemmShape& s, double seconds) {
  double flop = 2.0 * static_cast<double>(s.m) * static_cast<double>(s.k) *
                static_cast<double>(s.n);
  return seconds > 0.0 ? flop / seconds / 1e9 : 0.0;
}

struct GemmResult {
  GemmShape shape;
  double scalar_gflops = 0.0;
  double simd_gflops = 0.0;
  double simd_threads_gflops = 0.0;
};

// Fused vs unfused bias+activation epilogue at the trunk shape.
struct EpilogueResult {
  double unfused_ms = 0.0;
  double fused_ms = 0.0;
};

EpilogueResult BenchEpilogue(int repeats, util::SimdMode simd) {
  ApplyMode(simd, 1);
  util::Rng rng(41);
  nn::Matrix x = RandomMatrix(64, 130, &rng);
  nn::Matrix w = RandomMatrix(130, 128, &rng);
  std::vector<double> bias(128);
  for (double& v : bias) v = rng.Uniform() - 0.5;

  auto time_ms = [&](auto&& fn) {
    std::vector<double> samples;
    for (int r = 0; r < repeats; ++r) {
      util::WallTimer timer;
      for (int i = 0; i < 50; ++i) fn();
      samples.push_back(timer.Seconds() * 1000.0 / 50.0);
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
  };

  EpilogueResult result;
  result.unfused_ms = time_ms([&] {
    nn::Matrix y = x.MatMul(w);
    y.AddRowBroadcast(bias);
    for (double& v : y.data()) v = v > 0.0 ? v : nn::kLeakyReluSlope * v;
    g_sink += y.data()[0];
  });
  result.fused_ms = time_ms([&] {
    nn::Matrix y = x.MatMulBiasAct(w, bias, nn::Activation::kLeakyRelu);
    g_sink += y.data()[0];
  });
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchInit();
  bool check = false;
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      out_path = argv[i];
    }
  }
  int repeats = bench::FastMode() ? 3 : 7;

  bool avx2 = util::BestSupportedSimdLevel() == util::SimdLevel::kAvx2 &&
              nn::internal::Avx2KernelsCompiled();
  util::SimdMode simd_mode =
      avx2 ? util::SimdMode::kAvx2 : util::SimdMode::kScalar;

  std::vector<GemmResult> results;
  for (const GemmShape& s : kGemmShapes) {
    util::Rng rng(17);
    nn::Matrix a = RandomMatrix(s.m, s.k, &rng);
    nn::Matrix b = RandomMatrix(s.k, s.n, &rng);
    GemmResult r;
    r.shape = s;
    ApplyMode(util::SimdMode::kScalar, 1);
    r.scalar_gflops = Gflops(s, TimeGemmSeconds(a, b, repeats));
    ApplyMode(simd_mode, 1);
    r.simd_gflops = Gflops(s, TimeGemmSeconds(a, b, repeats));
    ApplyMode(simd_mode, 0);
    r.simd_threads_gflops = Gflops(s, TimeGemmSeconds(a, b, repeats));
    results.push_back(r);
  }

  EpilogueResult epilogue = BenchEpilogue(repeats, simd_mode);

  const util::CpuFeatures& cpu = util::GetCpuFeatures();
  util::ParallelConfig hw;
  bench::JsonWriter json;
  json.BeginObject();
  json.Key("hardware_threads").Value(hw.ResolvedThreads());
  json.Key("cpu").BeginObject();
  json.Key("avx").Value(cpu.avx);
  json.Key("fma").Value(cpu.fma);
  json.Key("avx2").Value(cpu.avx2);
  json.Key("avx512f").Value(cpu.avx512f);
  json.EndObject();
  json.Key("simd_kernels").Value(util::SimdModeName(simd_mode));
  json.Key("gemm_gflops").BeginArray();
  for (const GemmResult& r : results) {
    double speedup =
        r.scalar_gflops > 0.0 ? r.simd_gflops / r.scalar_gflops : 0.0;
    std::ostringstream shape;
    shape << r.shape.m << "x" << r.shape.k << "*" << r.shape.k << "x"
          << r.shape.n;
    json.BeginObject();
    json.Key("shape").Value(shape.str());
    json.Key("role").Value(r.shape.why);
    json.Key("scalar").Value(r.scalar_gflops, 2);
    json.Key("simd").Value(r.simd_gflops, 2);
    json.Key("simd_threads").Value(r.simd_threads_gflops, 2);
    json.Key("simd_speedup").Value(speedup, 2);
    json.EndObject();
  }
  json.EndArray();
  json.Key("fused_epilogue").BeginObject();
  json.Key("shape").Value("64x130*130x128 leaky_relu");
  json.Key("unfused_ms").Value(epilogue.unfused_ms, 4);
  json.Key("fused_ms").Value(epilogue.fused_ms, 4);
  json.Key("speedup")
      .Value(epilogue.fused_ms > 0.0 ? epilogue.unfused_ms / epilogue.fused_ms
                                     : 0.0,
             2);
  json.EndObject();
  bench::AttachMetricsSnapshot(&json);
  json.EndObject();
  bench::EmitJson(json, out_path);

  if (check && avx2) {
    // CI gate: SIMD must beat scalar on the hidden-layer GEMM.
    const GemmResult& hidden = results[1];
    if (hidden.simd_gflops <= hidden.scalar_gflops) {
      std::cerr << "CHECK FAILED: simd ("
                << util::FormatDouble(hidden.simd_gflops, 2)
                << " GFLOP/s) not faster than scalar ("
                << util::FormatDouble(hidden.scalar_gflops, 2)
                << " GFLOP/s) at 128x128\n";
      return 1;
    }
  }
  return 0;
}
