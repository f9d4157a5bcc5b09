#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <sstream>

namespace perfbench {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
  if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
}

void Report::Detail(const std::string& key, double value) {
  detail_.emplace_back(key, JsonNumber(value));
}

void Report::Detail(const std::string& key, const std::string& value) {
  detail_.emplace_back(key, JsonString(value));
}

void Report::Fail(const std::string& what) { failures_.push_back(what); }

std::string Report::MetricsJson() const {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    os << (i ? ", " : "") << JsonString(metrics_[i].name)
       << ": {\"value\": " << JsonNumber(metrics_[i].value)
       << ", \"unit\": " << JsonString(metrics_[i].unit) << "}";
  }
  os << "}";
  return os.str();
}

std::string Report::DetailJson() const {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < detail_.size(); ++i) {
    os << (i ? ", " : "") << JsonString(detail_[i].first) << ": "
       << detail_[i].second;
  }
  os << (detail_.empty() ? "" : ", ") << "\"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    os << (i ? ", " : "") << JsonString(failures_[i]);
  }
  os << "]}";
  return os.str();
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"wall_s", "s"},
    {"cpu_s", "s"},             {"invoke_s_p50", "s"},
    {"gmq_mean", "ratio"},      {"gmq_final", "ratio"},
    {"annotations", "count"},   {"ok_share", "share"},
    {"peak_rss_mb", "MB"},      {"adapt_pass_s_p50", "s"},
    {"served_gmq", "ratio"},
};

constexpr MetricSpec kPerLayer[] = {
    // core: the controller and its QueryPool.
    {"core.invoke_s", "s"}, {"core.invocations", "count"},
    {"core.phase_share", "share"},
    {"core.update_modules_s", "s"}, {"core.update_modules_cpu_s", "s"},
    {"core.update_multitask_s", "s"}, {"core.update_autoencoder_s", "s"},
    {"core.generate_s", "s"}, {"core.embed_s", "s"},
    {"core.pool_records", "count"},
    {"core.update_model_s", "s"}, {"core.update_model_cpu_s", "s"},
    {"core.annotate_s", "s"}, {"core.pick_s", "s"}, {"core.det_drft_s", "s"},
    {"core.ingest_s", "s"}, {"core.eval_s", "s"},
    {"core.mode.c1", "count"}, {"core.mode.c2", "count"},
    {"core.mode.c3", "count"}, {"core.mode.c4", "count"},
    {"core.mode.none", "count"}, {"core.generated", "count"},
    {"core.picked", "count"}, {"core.annotated", "count"},
    {"core.gan_iterations", "count"},
    // ce: the estimator M (nn inside it).
    {"ce.update_s", "s"}, {"ce.update_rows", "count"},
    {"ce.estimate_s", "s"}, {"ce.estimate_rows", "count"},
    {"ce.clone_s", "s"},
    // storage: annotate engine and table mutations.
    {"storage.annotate_s", "s"}, {"storage.annotate_preds", "count"},
    {"storage.rows_scanned", "count"}, {"storage.blocks_pruned", "count"},
    {"storage.blocks_shortcircuited", "count"},
    {"storage.mutate_s", "s"}, {"storage.rows_mutated", "count"},
    {"storage.canary_s", "s"}, {"storage.label_arrivals_s", "s"},
    // nn and util.
    {"nn.trainer_calls", "count"}, {"nn.trainer_epochs", "count"},
    {"util.pool_busy_s", "s"}, {"util.pool_tasks", "count"},
    {"util.parallel_for_calls", "count"},
    {"util.parallel_for_serial", "count"},
    // serve.
    {"serve.requests", "count"}, {"serve.batches", "count"},
    {"serve.batch_size_mean", "count"},
    {"serve.light.batch_size_mean", "count"},
    {"serve.heavy.batch_size_mean", "count"},
    {"serve.server_latency_us_p50", "us"},
    {"serve.server_latency_us_p99", "us"},
    {"serve.shed", "count"}, {"serve.expired", "count"},
    {"serve.adapt_wait_s_p50", "s"}, {"serve.pass_overhead_s_p50", "s"},
    {"serve.publishes", "count"}, {"serve.rollbacks", "count"},
    // Plan latencies: on a shared VM even their medians swing ±30% between
    // runs with the host, so they are observed here rather than gated end
    // to end.
    {"light.plan_us_p50", "us"}, {"light.plan_us_p90", "us"},
    {"light.plan_us_p99", "us"}, {"heavy.plan_us_p50", "us"},
    {"heavy.plan_us_p90", "us"}, {"heavy.plan_us_p99", "us"},
    {"serve.steady_plan_us_p99", "us"}, {"serve.drifting_plan_us_p99", "us"},
    {"serve.sender_lag_us_p99", "us"}, {"serve.sender_lag_us_max", "us"},
    {"serve.light.plans_sent", "count"}, {"serve.light.plans_ok", "count"},
    {"serve.light.plans_failed", "count"},
    {"serve.heavy.plans_sent", "count"}, {"serve.heavy.plans_ok", "count"},
    {"serve.heavy.plans_failed", "count"},
    // setup, per-layer self time, and the cost of tracing itself.
    {"setup.data_s", "s"}, {"setup.train_s", "s"},
    {"setup.initialize_s", "s"},
    {"self.core_s", "s"}, {"self.ce_s", "s"}, {"self.nn_s", "s"},
    {"self.storage_s", "s"}, {"self.serve_s", "s"},
    {"trace.untraced_wall_s", "s"}, {"trace.traced_wall_s", "s"},
    {"trace.overhead_s", "s"}, {"trace.events", "count"},
};

template <size_t N>
void Emit(const MetricSpec (&specs)[N], const MetricValues& values,
          bool required, Report* report) {
  for (const MetricSpec& spec : specs) {
    auto it = values.find(spec.name);
    if (it == values.end() && required) {
      report->Fail(std::string("metric ") + spec.name + " was not measured");
    }
    report->Metric(spec.name, it == values.end() ? 0.0 : it->second, spec.unit);
  }
}

}  // namespace

void EmitEndToEnd(const MetricValues& values, Report* report) {
  Emit(kEndToEnd, values, /*required=*/true, report);
}

void EmitPerLayer(const MetricValues& values, Report* report) {
  Emit(kPerLayer, values, /*required=*/false, report);
}

double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = std::clamp(p, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double RegistryDelta::Counter(const std::string& name) const {
  auto value = [&](const warper::util::MetricsSnapshot& s) {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  return value(after_) - value(before_);
}

namespace {

// Bucket counts observed between two snapshots of one histogram.
struct HistogramDelta {
  std::vector<double> bounds;
  std::vector<double> counts;
  double count = 0.0;
  double sum = 0.0;
};

HistogramDelta DeltaOf(const warper::util::MetricsSnapshot& before,
                       const warper::util::MetricsSnapshot& after,
                       const std::string& name) {
  HistogramDelta d;
  auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return d;
  d.bounds = a->second.bounds;
  d.counts.assign(a->second.bucket_counts.begin(),
                  a->second.bucket_counts.end());
  d.count = static_cast<double>(a->second.count);
  d.sum = a->second.sum;
  auto b = before.histograms.find(name);
  if (b != before.histograms.end()) {
    for (size_t i = 0; i < d.counts.size() && i < b->second.bucket_counts.size();
         ++i) {
      d.counts[i] -= static_cast<double>(b->second.bucket_counts[i]);
    }
    d.count -= static_cast<double>(b->second.count);
    d.sum -= b->second.sum;
  }
  return d;
}

}  // namespace

double RegistryDelta::HistogramMean(const std::string& name) const {
  HistogramDelta d = DeltaOf(before_, after_, name);
  return d.count > 0 ? d.sum / d.count : 0.0;
}

double RegistryDelta::HistogramQuantile(const std::string& name,
                                        double p) const {
  HistogramDelta d = DeltaOf(before_, after_, name);
  double total = 0.0;
  for (double c : d.counts) total += c;
  if (total <= 0.0 || d.bounds.empty()) return 0.0;
  double target = std::clamp(p, 0.0, 1.0) * total;
  double cumulative = 0.0;
  for (size_t i = 0; i < d.counts.size(); ++i) {
    if (d.counts[i] <= 0.0) continue;
    double before = cumulative;
    cumulative += d.counts[i];
    if (cumulative < target) continue;
    if (i == d.bounds.size()) return d.bounds.back();
    double lo = i == 0 ? std::min(0.0, d.bounds[0]) : d.bounds[i - 1];
    double hi = d.bounds[i];
    double frac = (target - before) / d.counts[i];
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return d.bounds.back();
}

double TraceSummary::Inclusive(const std::string& name) const {
  auto it = inclusive_s.find(name);
  return it == inclusive_s.end() ? 0.0 : it->second;
}

double TraceSummary::Self(const std::string& layer) const {
  auto it = self_s.find(layer);
  return it == self_s.end() ? 0.0 : it->second;
}

namespace {

struct Span {
  std::string name;
  uint64_t tid = 0;
  int64_t start = 0;  // µs
  int64_t end = 0;
  int64_t covered = 0;  // µs of [start, end) covered by direct children
};

std::string LayerOf(const std::string& name) {
  std::string prefix = name.substr(0, name.find('.'));
  if (prefix == "warper") return "core";
  if (prefix == "trainer") return "nn";
  if (prefix == "annotator") return "storage";
  return prefix;  // ce, storage, serve, bench
}

// Reads the integer after `key` in `line`; false when absent.
bool ReadField(const std::string& line, const char* key, int64_t* out) {
  size_t at = line.find(key);
  if (at == std::string::npos) return false;
  *out = std::strtoll(line.c_str() + at + std::char_traits<char>::length(key),
                      nullptr, 10);
  return true;
}

}  // namespace

TraceSummary SummarizeTrace(const std::string& trace_json) {
  // util::TraceToJson writes one event object per line.
  std::map<uint64_t, std::vector<Span>> by_thread;
  std::istringstream in(trace_json);
  std::string line;
  const std::string kName = "{\"name\": \"";
  while (std::getline(in, line)) {
    if (line.compare(0, kName.size(), kName) != 0) continue;
    size_t name_end = line.find('"', kName.size());
    if (name_end == std::string::npos) continue;
    Span span;
    span.name = line.substr(kName.size(), name_end - kName.size());
    int64_t tid = 0, ts = 0, dur = 0;
    if (!ReadField(line, "\"tid\": ", &tid) || !ReadField(line, "\"ts\": ", &ts) ||
        !ReadField(line, "\"dur\": ", &dur)) {
      continue;
    }
    span.tid = static_cast<uint64_t>(tid);
    span.start = ts;
    span.end = ts + dur;
    by_thread[span.tid].push_back(std::move(span));
  }

  TraceSummary summary;
  for (auto& [tid, spans] : by_thread) {
    // Parents first: earlier start, then longer span.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    std::vector<size_t> stack;
    for (size_t i = 0; i < spans.size(); ++i) {
      while (!stack.empty() && spans[stack.back()].end <= spans[i].start) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        Span& parent = spans[stack.back()];
        parent.covered += std::min(spans[i].end, parent.end) - spans[i].start;
      }
      stack.push_back(i);
    }
    for (const Span& s : spans) {
      double dur_s = 1e-6 * static_cast<double>(s.end - s.start);
      summary.inclusive_s[s.name] += dur_s;
      summary.self_s[LayerOf(s.name)] +=
          1e-6 * static_cast<double>(std::max<int64_t>(0, s.end - s.start - s.covered));
      ++summary.events;
    }
  }
  return summary;
}

void AddTraceMetrics(const TraceSummary& t, MetricValues* m) {
  double invoke_s = t.Inclusive("warper.invoke");
  double phases = 0.0;
  for (const char* phase :
       {"warper.ingest", "warper.det_drft", "warper.decide", "warper.mark_stale",
        "warper.update_modules", "warper.pick", "warper.annotate",
        "warper.update_model", "warper.eval"}) {
    phases += t.Inclusive(phase);
  }
  MetricValues& v = *m;
  v["core.invoke_s"] = invoke_s;
  v["core.phase_share"] = invoke_s > 0.0 ? phases / invoke_s : 0.0;
  v["core.update_modules_s"] = t.Inclusive("warper.update_modules");
  v["core.update_multitask_s"] = t.Inclusive("warper.update_MultiTask");
  v["core.update_autoencoder_s"] = t.Inclusive("warper.update_AutoEncoder");
  v["core.generate_s"] = t.Inclusive("warper.generate");
  v["core.embed_s"] = t.Inclusive("warper.embed");
  v["core.update_model_s"] = t.Inclusive("warper.update_model");
  v["core.annotate_s"] = t.Inclusive("warper.annotate");
  v["core.pick_s"] = t.Inclusive("warper.pick");
  v["core.det_drft_s"] = t.Inclusive("warper.det_drft");
  v["core.ingest_s"] = t.Inclusive("warper.ingest");
  v["core.eval_s"] = t.Inclusive("warper.eval");
  v["ce.update_s"] = t.Inclusive("ce.update");
  v["ce.estimate_s"] = t.Inclusive("ce.estimate");
  v["ce.clone_s"] = t.Inclusive("ce.clone");
  v["storage.annotate_s"] = t.Inclusive("storage.annotate_serial") +
                            t.Inclusive("storage.annotate_parallel") +
                            t.Inclusive("storage.annotate_one");
  v["storage.mutate_s"] = t.Inclusive("storage.mutate");
  v["storage.canary_s"] = t.Inclusive("storage.canary");
  v["storage.label_arrivals_s"] = t.Inclusive("storage.label_arrivals");
  for (const char* layer : {"core", "ce", "nn", "storage", "serve"}) {
    v[std::string("self.") + layer + "_s"] = t.Self(layer);
  }
  v["trace.events"] = static_cast<double>(t.events);
}

namespace {

constexpr const char* kLayerCounters[] = {
    "annotator.rows_scanned", "annotator.blocks_pruned",
    "annotator.blocks_shortcircuited", "trainer.calls", "trainer.epochs",
    "pool.busy_us", "pool.tasks_executed", "pool.parallel_for.calls",
    "pool.parallel_for.serial", "serve.requests", "serve.batches",
    "serve.shed", "serve.expired", "serve.publishes", "serve.rollbacks"};

}  // namespace

void AccumulateCounters(const RegistryDelta& delta, CounterDeltas* sums) {
  for (const char* name : kLayerCounters) (*sums)[name] += delta.Counter(name);
}

void AddCounterMetrics(const CounterDeltas& c, MetricValues* m) {
  auto get = [&](const char* name) {
    auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  MetricValues& v = *m;
  v["storage.rows_scanned"] = get("annotator.rows_scanned");
  v["storage.blocks_pruned"] = get("annotator.blocks_pruned");
  v["storage.blocks_shortcircuited"] = get("annotator.blocks_shortcircuited");
  v["nn.trainer_calls"] = get("trainer.calls");
  v["nn.trainer_epochs"] = get("trainer.epochs");
  v["util.pool_busy_s"] = get("pool.busy_us") * 1e-6;
  v["util.pool_tasks"] = get("pool.tasks_executed");
  v["util.parallel_for_calls"] = get("pool.parallel_for.calls");
  v["util.parallel_for_serial"] = get("pool.parallel_for.serial");
  v["serve.requests"] = get("serve.requests");
  v["serve.batches"] = get("serve.batches");
  v["serve.shed"] = get("serve.shed");
  v["serve.expired"] = get("serve.expired");
  v["serve.publishes"] = get("serve.publishes");
  v["serve.rollbacks"] = get("serve.rollbacks");
}

}  // namespace perfbench
