// Shared plumbing of the native benchmark program: arguments, the metric report,
// order statistics, process resource readings, registry deltas and the
// span analysis of a traced run.
#ifndef PERFBENCH_NATIVE_COMMON_H_
#define PERFBENCH_NATIVE_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/metrics.h"

namespace perfbench {

// Shared-pool size for every workload. The library default (0) follows the
// core count, which would make results depend on the machine; 3 leaves one
// core of a 4-core box to the OS and the load generator, which keeps the
// run-to-run spread low under CPU steal.
constexpr int kPoolThreads = 3;

// The pre-drift state — dataset, training workload I_train, and the seeds of
// M and of Warper — is fixed, the way the paper's real datasets are: the
// workload seed draws only what happens after it (per workload, the
// mutations, canaries and arrivals, the held-out yardstick, or the plan
// queries and due times), so a run's work varies with the drift it
// replays, not with a different starting model.
constexpr uint64_t kDatasetSeed = 20220612;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// What one workload run hands back to main(): the metrics it measured, in
// print order, plus everything the checks and the detail line need.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Detail(const std::string& key, double value);
  void Detail(const std::string& key, const std::string& value);
  // A failed output check: the run is reported as not correct.
  void Fail(const std::string& what);
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool correct() const { return failures_.empty(); }
  std::string MetricsJson() const;
  std::string DetailJson() const;
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> detail_;  // raw JSON
  std::vector<std::string> failures_;
};

// The benchmark's metric catalogue, mirrored by BENCHMARK.json: every run
// prints every end-to-end metric (untraced) or every per-layer metric
// (traced). Emit() looks each name up in `values`; a per-layer metric the
// workload leaves idle reads 0, a missing end-to-end metric fails the run.
using MetricValues = std::map<std::string, double>;
void EmitEndToEnd(const MetricValues& values, Report* report);
void EmitPerLayer(const MetricValues& values, Report* report);

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

// Linear-interpolated quantile (p ∈ [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

double WallSeconds();          // steady clock
double ProcessCpuSeconds();    // CLOCK_PROCESS_CPUTIME_ID
double ThreadCpuSeconds();     // CLOCK_THREAD_CPUTIME_ID of the caller
double PeakRssMb();            // getrusage ru_maxrss

// Difference of two registry snapshots, for the counters and histograms the
// benchmark reads.
class RegistryDelta {
 public:
  RegistryDelta(const warper::util::MetricsSnapshot& before,
                const warper::util::MetricsSnapshot& after)
      : before_(before), after_(after) {}
  double Counter(const std::string& name) const;
  // Mean and interpolated quantile of the observations made between the
  // two snapshots (the registry's own bucket interpolation rule).
  double HistogramMean(const std::string& name) const;
  double HistogramQuantile(const std::string& name, double p) const;

 private:
  warper::util::MetricsSnapshot before_;
  warper::util::MetricsSnapshot after_;
};

// Per-span-name totals and per-layer self time of a util trace
// (util::TraceToJson output). A span's layer is its name prefix: warper →
// core, trainer → nn, annotator/storage → storage, ce, serve, bench.
struct TraceSummary {
  std::map<std::string, double> inclusive_s;  // by span name
  std::map<std::string, double> self_s;       // by layer
  uint64_t events = 0;

  double Inclusive(const std::string& name) const;
  double Self(const std::string& layer) const;
};
TraceSummary SummarizeTrace(const std::string& trace_json);

// Registry counters (annotator.*, trainer.*, pool.*, serve.*) the per-layer
// metrics read, as deltas over a workload's timed sections.
using CounterDeltas = std::map<std::string, double>;
void AccumulateCounters(const RegistryDelta& delta, CounterDeltas* sums);

// The per-layer metrics read from a trace (span totals and self times) and
// from counter deltas.
void AddTraceMetrics(const TraceSummary& trace, MetricValues* m);
void AddCounterMetrics(const CounterDeltas& counters, MetricValues* m);

}  // namespace perfbench

#endif  // PERFBENCH_NATIVE_COMMON_H_
