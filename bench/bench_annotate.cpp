// Annotation-engine throughput bench: the seed row-at-a-time scalar scan vs
// the fused per-block engine (scalar kernels, SIMD kernels, SIMD + threads)
// on a Higgs-scale table, plus a sorted/clustered scenario where zone-map
// pruning does the heavy lifting. Emits BENCH_annotate.json (path
// overridable as argv[1]) and mirrors it on stdout, extending the repo's
// perf trajectory. Table 6 of the paper says ground-truth annotation (c_A)
// dominates invocation cost — this is the bench that tracks killing it.
//
// `--check` turns the bench into a CI smoke gate: every engine path must
// produce counts EXACTLY equal to the seed scalar scan (integer equality,
// no tolerance), and on AVX2 hardware the fused SIMD path must beat the
// seed scan outright.
#include "bench_common.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "storage/annotate_engine.h"
#include "storage/annotate_kernels.h"
#include "storage/annotator.h"
#include "storage/datasets.h"
#include "storage/predicate.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/generator.h"

using namespace warper;

namespace {

// The seed implementation, verbatim (pre-engine Annotator::BatchCount):
// per-row all-predicates over the constrained columns with early exit. This
// is the baseline every speedup in the JSON is measured against.
std::vector<int64_t> SeedBatchCount(
    const storage::Table& table,
    const std::vector<storage::RangePredicate>& preds) {
  struct Compiled {
    std::vector<size_t> cols;
    std::vector<double> low, high;
  };
  std::vector<Compiled> compiled;
  for (const auto& pred : preds) {
    Compiled cp;
    for (size_t c = 0; c < pred.NumColumns(); ++c) {
      if (pred.Constrains(table, c)) {
        cp.cols.push_back(c);
        cp.low.push_back(pred.low[c]);
        cp.high.push_back(pred.high[c]);
      }
    }
    compiled.push_back(std::move(cp));
  }
  std::vector<int64_t> counts(preds.size(), 0);
  for (size_t r = 0; r < table.NumRows(); ++r) {
    for (size_t p = 0; p < compiled.size(); ++p) {
      const Compiled& cp = compiled[p];
      bool match = true;
      for (size_t i = 0; i < cp.cols.size(); ++i) {
        double v = table.column(cp.cols[i]).Value(r);
        if (v < cp.low[i] || v > cp.high[i]) {
          match = false;
          break;
        }
      }
      counts[p] += match ? 1 : 0;
    }
  }
  return counts;
}

std::vector<int64_t> FusedCount(
    const storage::Table& table,
    const std::vector<storage::RangePredicate>& preds,
    const storage::internal::AnnotateKernelTable& kernels,
    storage::internal::AnnotateStats* stats = nullptr) {
  storage::internal::CompiledBatch batch(table, preds);
  std::vector<int64_t> counts(preds.size(), 0);
  storage::internal::FusedCount(batch, kernels, 0, table.NumRows(),
                                counts.data(), stats);
  return counts;
}

// Median seconds of `fn` over `repeats` samples.
template <typename Fn>
double TimeSeconds(int repeats, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    util::WallTimer timer;
    fn();
    samples.push_back(timer.Seconds());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Predicate-rows per second: the annotator's unit of work.
double Throughput(size_t rows, size_t preds, double seconds) {
  return seconds > 0.0
             ? static_cast<double>(rows) * static_cast<double>(preds) / seconds
             : 0.0;
}

struct ScenarioResult {
  size_t rows = 0;
  size_t preds = 0;
  double seed_s = 0.0;
  double fused_scalar_s = 0.0;
  double fused_simd_s = 0.0;
  double fused_simd_threads_s = 0.0;
  storage::internal::AnnotateStats simd_stats;  // one fused pass
  bool exact = true;
};

ScenarioResult RunScenario(const storage::Table& table,
                           const std::vector<storage::RangePredicate>& preds,
                           int repeats, bool avx2) {
  const auto& scalar = storage::internal::ScalarAnnotateKernels();
  const auto& simd = avx2 ? storage::internal::Avx2AnnotateKernels() : scalar;

  ScenarioResult result;
  result.rows = table.NumRows();
  result.preds = preds.size();

  // Materialize lazy caches (domain stats, zone maps) outside the timers:
  // steady-state annotation passes reuse them.
  std::vector<int64_t> want = SeedBatchCount(table, preds);
  result.exact = FusedCount(table, preds, scalar) == want &&
                 FusedCount(table, preds, simd, &result.simd_stats) == want;

  result.seed_s = TimeSeconds(repeats, [&] { SeedBatchCount(table, preds); });
  result.fused_scalar_s =
      TimeSeconds(repeats, [&] { FusedCount(table, preds, scalar); });
  result.fused_simd_s =
      TimeSeconds(repeats, [&] { FusedCount(table, preds, simd); });

  storage::Annotator parallel(&table, /*threads=*/0);  // whole pool
  result.exact = result.exact && parallel.BatchCount(preds) == want;
  result.fused_simd_threads_s =
      TimeSeconds(repeats, [&] { parallel.BatchCount(preds); });
  return result;
}

void EmitScenario(bench::JsonWriter* json, const char* name,
                  const ScenarioResult& r) {
  double base = Throughput(r.rows, r.preds, r.seed_s);
  json->Key(name).BeginObject();
  json->Key("rows").Value(static_cast<uint64_t>(r.rows));
  json->Key("predicates").Value(static_cast<uint64_t>(r.preds));
  json->Key("exact_vs_seed").Value(r.exact);
  json->Key("seed_scalar_s").Value(r.seed_s, 4);
  json->Key("fused_scalar_s").Value(r.fused_scalar_s, 4);
  json->Key("fused_simd_s").Value(r.fused_simd_s, 4);
  json->Key("fused_simd_threads_s").Value(r.fused_simd_threads_s, 4);
  json->Key("seed_mpredrows_per_s").Value(base / 1e6, 1);
  json->Key("fused_simd_mpredrows_per_s")
      .Value(Throughput(r.rows, r.preds, r.fused_simd_s) / 1e6, 1);
  json->Key("fused_scalar_speedup")
      .Value(r.fused_scalar_s > 0.0 ? r.seed_s / r.fused_scalar_s : 0.0, 2);
  json->Key("fused_simd_speedup")
      .Value(r.fused_simd_s > 0.0 ? r.seed_s / r.fused_simd_s : 0.0, 2);
  json->Key("fused_simd_threads_speedup")
      .Value(r.fused_simd_threads_s > 0.0 ? r.seed_s / r.fused_simd_threads_s
                                          : 0.0,
             2);
  double blocks_total =
      static_cast<double>((r.rows + storage::Column::kZoneBlockRows - 1) /
                          storage::Column::kZoneBlockRows) *
      static_cast<double>(r.preds);
  json->Key("blocks_pruned_frac")
      .Value(blocks_total > 0.0
                 ? static_cast<double>(r.simd_stats.blocks_pruned) /
                       blocks_total
                 : 0.0,
             3);
  json->Key("blocks_shortcircuited_frac")
      .Value(blocks_total > 0.0
                 ? static_cast<double>(r.simd_stats.blocks_shortcircuited) /
                       blocks_total
                 : 0.0,
             3);
  json->Key("rows_scanned_frac")
      .Value(static_cast<double>(r.simd_stats.rows_scanned) /
                 (static_cast<double>(r.rows) * static_cast<double>(r.preds)),
             3);
  json->EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchInit();
  bool check = false;
  std::string out_path = "BENCH_annotate.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      out_path = argv[i];
    }
  }
  bool fast = bench::FastMode();
  int repeats = fast ? 3 : 5;
  size_t rows = fast ? 150000 : 1000000;  // Higgs-scale in the full run
  size_t n_p = 64;

  bool avx2 = util::BestSupportedSimdLevel() == util::SimdLevel::kAvx2 &&
              storage::internal::Avx2AnnotateKernelsCompiled();

  // Scenario 1: an adaptation pass — n_p picked predicates (the paper's
  // workload mixture) over an unsorted Higgs-shaped table.
  storage::Table higgs = storage::MakeHiggs(rows, /*seed=*/17);
  util::Rng rng(17);
  std::vector<storage::RangePredicate> preds = workload::GenerateWorkload(
      higgs,
      {workload::GenMethod::kW1, workload::GenMethod::kW2,
       workload::GenMethod::kW3, workload::GenMethod::kW4,
       workload::GenMethod::kW5},
      n_p, &rng);
  ScenarioResult batch = RunScenario(higgs, preds, repeats, avx2);

  // Scenario 2: the same table clustered on column 0 with narrow range
  // predicates on it — the zone map rejects or wholesale-credits almost
  // every block, so the win must exceed the unsorted scenario's.
  higgs.SortByColumn(0);
  double lo = higgs.column(0).Min();
  double hi = higgs.column(0).Max();
  std::vector<storage::RangePredicate> clustered;
  util::Rng crng(19);
  for (size_t i = 0; i < n_p; ++i) {
    storage::RangePredicate p = storage::RangePredicate::FullRange(higgs);
    double center = lo + crng.Uniform(0.05, 0.95) * (hi - lo);
    double width = 0.02 * (hi - lo);
    p.low[0] = center - width / 2;
    p.high[0] = center + width / 2;
    clustered.push_back(p);
  }
  ScenarioResult sorted = RunScenario(higgs, clustered, repeats, avx2);

  const util::CpuFeatures& cpu = util::GetCpuFeatures();
  util::ParallelConfig hw;
  bench::JsonWriter json;
  json.BeginObject();
  json.Key("hardware_threads").Value(hw.ResolvedThreads());
  json.Key("cpu").BeginObject();
  json.Key("avx2").Value(cpu.avx2);
  json.Key("fma").Value(cpu.fma);
  json.EndObject();
  json.Key("annotate_kernels")
      .Value(avx2 ? "avx2" : "scalar");
  json.Key("zone_block_rows")
      .Value(static_cast<uint64_t>(storage::Column::kZoneBlockRows));
  EmitScenario(&json, "higgs_batch", batch);
  EmitScenario(&json, "higgs_clustered", sorted);
  bench::AttachMetricsSnapshot(&json);
  json.EndObject();
  bench::EmitJson(json, out_path);

  if (check) {
    if (!batch.exact || !sorted.exact) {
      std::cerr << "CHECK FAILED: engine counts differ from the seed scalar "
                   "scan\n";
      return 1;
    }
    if (avx2 && batch.fused_simd_s >= batch.seed_s) {
      std::cerr << "CHECK FAILED: fused SIMD pass ("
                << util::FormatDouble(batch.fused_simd_s, 4)
                << " s) not faster than the seed scalar scan ("
                << util::FormatDouble(batch.seed_s, 4) << " s)\n";
      return 1;
    }
  }
  return 0;
}
