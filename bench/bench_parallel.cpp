// Microbenchmark for the parallel kernels: nn::Matrix MatMul and
// storage::Annotator batch annotation, serial vs. the shared thread pool.
// Emits one JSON document on stdout so CI can track speedups, and verifies
// that every parallel result is bit-identical to its serial counterpart
// (the replay-exact contract of every kernel table).
//
// Expected shape: ≥2× MatMul / annotation speedup on 4+ cores; ~1× (and a
// small dispatch overhead) on a single-core host, where ParallelFor stays
// inline.
#include "bench_common.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.h"
#include "nn/matrix.h"
#include "storage/annotator.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload/generator.h"

using namespace warper;

namespace {

nn::Matrix RandomMatrix(size_t rows, size_t cols, util::Rng* rng) {
  nn::Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m.At(r, c) = rng->Uniform() * 2.0 - 1.0;
    }
  }
  return m;
}

double MedianMs(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct KernelRow {
  std::string kernel;
  std::string shape;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool bit_identical = false;

  double Speedup() const {
    return parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
  }
};

template <typename Fn>
double TimeMedianMs(int repeats, const Fn& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    util::WallTimer timer;
    fn();
    samples.push_back(timer.Seconds() * 1000.0);
  }
  return MedianMs(samples);
}

KernelRow BenchMatMul(size_t m, size_t k, size_t n, int repeats) {
  util::Rng rng(17);
  nn::Matrix a = RandomMatrix(m, k, &rng);
  nn::Matrix b = RandomMatrix(k, n, &rng);

  util::ParallelConfig serial;
  serial.threads = 1;
  core::ApplyParallelConfig(serial);
  nn::Matrix serial_result = a.MatMul(b);
  KernelRow row;
  row.kernel = "matmul";
  {
    std::ostringstream shape;
    shape << m << "x" << k << "*" << k << "x" << n;
    row.shape = shape.str();
  }
  row.serial_ms = TimeMedianMs(repeats, [&] { a.MatMul(b); });

  util::ParallelConfig parallel;  // threads = 0: every core
  core::ApplyParallelConfig(parallel);
  nn::Matrix parallel_result = a.MatMul(b);
  row.parallel_ms = TimeMedianMs(repeats, [&] { a.MatMul(b); });
  row.bit_identical = parallel_result.data() == serial_result.data();
  return row;
}

KernelRow BenchAnnotation(size_t rows, size_t num_preds, int repeats) {
  storage::Table table = storage::MakePrsa(rows, /*seed=*/17);
  util::Rng rng(18);
  std::vector<storage::RangePredicate> preds = workload::GenerateWorkload(
      table, {workload::GenMethod::kW1}, num_preds, &rng);

  storage::Annotator annotator(&table);
  std::vector<int64_t> serial_counts = annotator.BatchCount(preds);
  KernelRow row;
  row.kernel = "annotate";
  {
    std::ostringstream shape;
    shape << rows << "rows x " << num_preds << "preds";
    row.shape = shape.str();
  }
  row.serial_ms = TimeMedianMs(repeats, [&] { annotator.BatchCount(preds); });

  util::ParallelConfig parallel;
  core::ApplyParallelConfig(parallel);
  storage::Annotator parallel_annotator(&table, /*threads=*/0);
  std::vector<int64_t> parallel_counts = parallel_annotator.BatchCount(preds);
  row.parallel_ms =
      TimeMedianMs(repeats, [&] { parallel_annotator.BatchCount(preds); });
  row.bit_identical = parallel_counts == serial_counts;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchInit();
  bool fast = bench::FastMode();
  int repeats = fast ? 3 : 7;
  std::string out_path = argc > 1 ? argv[1] : "BENCH_parallel.json";

  std::vector<KernelRow> rows;
  rows.push_back(BenchMatMul(256, 256, 256, repeats));
  rows.push_back(BenchMatMul(512, 384, 256, repeats));
  rows.push_back(BenchAnnotation(fast ? 20000 : 120000, 64, repeats));

  util::ParallelConfig hw;  // report what the pool resolved to
  bench::JsonWriter json;
  json.BeginObject();
  json.Key("hardware_threads").Value(hw.ResolvedThreads());
  json.Key("results").BeginArray();
  for (const KernelRow& r : rows) {
    json.BeginObject();
    json.Key("kernel").Value(r.kernel);
    json.Key("shape").Value(r.shape);
    json.Key("serial_ms").Value(r.serial_ms, 3);
    json.Key("parallel_ms").Value(r.parallel_ms, 3);
    json.Key("speedup").Value(r.Speedup(), 2);
    json.Key("bit_identical").Value(r.bit_identical);
    json.EndObject();
  }
  json.EndArray();
  // Pool counters make the speedup legible: queue depth and tasks executed
  // say how much work actually reached the workers.
  bench::AttachMetricsSnapshot(&json);
  json.EndObject();
  bench::EmitJson(json, out_path);

  // Non-zero exit when determinism is violated, so CI catches it even
  // without parsing the JSON.
  for (const KernelRow& r : rows) {
    if (!r.bit_identical) return 1;
  }
  return 0;
}
