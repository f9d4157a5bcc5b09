#include "eval/experiment.h"

#include <algorithm>
#include <cmath>

#include "baselines/aug.h"
#include "baselines/ft.h"
#include "baselines/hem.h"
#include "baselines/mix.h"
#include "baselines/warper_adapter.h"
#include "ce/lm.h"
#include "ce/metrics.h"
#include "ce/mscn.h"
#include "core/drift.h"
#include "drift/schedule.h"
#include "storage/annotator.h"
#include "storage/data_drift.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/timer.h"
#include "workload/generator.h"
#include "workload/join_workload.h"

namespace warper::eval {

const char* MethodName(Method method) {
  switch (method) {
    case Method::kFt:
      return "FT";
    case Method::kMix:
      return "MIX";
    case Method::kAug:
      return "AUG";
    case Method::kHem:
      return "HEM";
    case Method::kWarper:
      return "Warper";
    case Method::kWarperPickRandom:
      return "Warper(P->rnd)";
    case Method::kWarperPickEntropy:
      return "Warper(P->entropy)";
    case Method::kWarperGenAug:
      return "Warper(G->AUG)";
  }
  return "?";
}

ModelFactory LmMlpFactory() {
  return [](size_t feature_dim, uint64_t seed) {
    return std::make_unique<ce::LmMlp>(feature_dim, ce::LmMlpConfig{}, seed);
  };
}

ModelFactory LmGbtFactory() {
  return [](size_t feature_dim, uint64_t seed) {
    return std::make_unique<ce::LmGbt>(feature_dim, ce::LmGbtConfig{}, seed);
  };
}

ModelFactory LmPlyFactory() {
  return [](size_t feature_dim, uint64_t seed) {
    return ce::MakeLmPly(feature_dim, seed);
  };
}

ModelFactory LmRbfFactory() {
  return [](size_t feature_dim, uint64_t seed) {
    return ce::MakeLmRbf(feature_dim, seed);
  };
}

ModelFactory MscnSingleTableFactory() {
  return [](size_t feature_dim, uint64_t seed) {
    WARPER_CHECK(feature_dim % 2 == 0);
    return std::make_unique<ce::Mscn>(
        ce::MscnConfig::SingleTable(feature_dim / 2), seed);
  };
}

std::unique_ptr<baselines::Adapter> MakeAdapter(
    Method method, const baselines::AdapterContext& context,
    const core::WarperConfig& warper_config) {
  switch (method) {
    case Method::kFt:
      return std::make_unique<baselines::FtAdapter>(context);
    case Method::kMix:
      return std::make_unique<baselines::MixAdapter>(context);
    case Method::kAug:
      return std::make_unique<baselines::AugAdapter>(context);
    case Method::kHem:
      return std::make_unique<baselines::HemAdapter>(context);
    case Method::kWarper:
      return std::make_unique<baselines::WarperAdapter>(context, warper_config);
    case Method::kWarperPickRandom: {
      core::WarperConfig c = warper_config;
      c.picker_variant = core::PickerVariant::kRandom;
      return std::make_unique<baselines::WarperAdapter>(context, c);
    }
    case Method::kWarperPickEntropy: {
      core::WarperConfig c = warper_config;
      c.picker_variant = core::PickerVariant::kEntropy;
      return std::make_unique<baselines::WarperAdapter>(context, c);
    }
    case Method::kWarperGenAug: {
      core::WarperConfig c = warper_config;
      c.generator_variant = core::GeneratorVariant::kNoiseAug;
      return std::make_unique<baselines::WarperAdapter>(context, c);
    }
  }
  WARPER_CHECK_MSG(false, "unknown method");
  return nullptr;
}

namespace {

// Everything one repeat of an experiment needs, independent of the query
// class (single-table vs join).
struct PreparedRepeat {
  const ce::QueryDomain* domain = nullptr;
  std::vector<ce::LabeledExample> train_corpus;  // labels as of training time
  std::vector<std::vector<ce::LabeledExample>> arrival_batches;
  std::vector<ce::LabeledExample> test_set;        // fresh post-drift labels
  std::vector<ce::LabeledExample> reference_corpus;  // for the β model
  // Per-step adapter inputs (annotation budget + data-drift telemetry of any
  // mutation event landing at that step), aligned with arrival_batches.
  std::vector<baselines::StepInfo> step_infos;
  // When mid-run data events re-mutate the table, step_test_sets[s] carries
  // the test set re-annotated against the table state after step s (same
  // predicates and features; only the ground-truth counts refresh). Empty
  // for single-onset schedules — evaluation then sticks to test_set.
  std::vector<std::vector<ce::LabeledExample>> step_test_sets;
};

struct RepeatOutcome {
  double alpha = 0.0;
  double beta = 0.0;
  double delta_js = 0.0;
  // Per method, aligned with the spec's method list.
  std::vector<AdaptationCurve> curves;
  std::vector<double> annotations;
  std::vector<double> synthesized;
  std::vector<double> adapt_seconds;
};

RepeatOutcome RunRepeat(const PreparedRepeat& prepared,
                        const ModelFactory& model_factory,
                        const std::vector<Method>& methods,
                        const ExperimentConfig& config,
                        const drift::DriftSchedule& schedule, uint64_t seed) {
  WARPER_CHECK(!prepared.train_corpus.empty());
  WARPER_CHECK(!prepared.test_set.empty());
  WARPER_CHECK(prepared.step_infos.size() == prepared.arrival_batches.size());
  size_t feature_dim = prepared.train_corpus[0].features.size();

  RepeatOutcome outcome;

  // δ_js between the arriving and the training workloads.
  {
    std::vector<std::vector<double>> new_features, train_features;
    for (const auto& batch : prepared.arrival_batches) {
      for (const auto& q : batch) new_features.push_back(q.features);
    }
    for (const auto& q : prepared.train_corpus) {
      train_features.push_back(q.features);
    }
    outcome.delta_js = core::WorkloadJsDivergence(
        new_features, train_features, config.warper.js_pca_dims,
        config.warper.js_bins);
  }

  // β: a model trained exclusively on the new workload and data.
  if (config.compute_beta) {
    std::unique_ptr<ce::CardinalityEstimator> reference =
        model_factory(feature_dim, seed ^ 0xBEEFULL);
    nn::Matrix x;
    std::vector<double> y;
    ce::ExamplesToMatrix(prepared.reference_corpus, &x, &y);
    reference->Train(x, y);
    outcome.beta = ce::ModelGmq(*reference, prepared.test_set);
  }

  for (size_t m = 0; m < methods.size(); ++m) {
    // Fresh, identically-seeded model per method.
    std::unique_ptr<ce::CardinalityEstimator> model =
        model_factory(feature_dim, seed);
    {
      nn::Matrix x;
      std::vector<double> y;
      ce::ExamplesToMatrix(prepared.train_corpus, &x, &y);
      model->Train(x, y);
    }

    baselines::AdapterContext context;
    context.domain = prepared.domain;
    context.model = model.get();
    context.train_corpus = &prepared.train_corpus;
    context.seed = seed ^ (0x1000ULL * (m + 1));
    std::unique_ptr<baselines::Adapter> adapter =
        MakeAdapter(methods[m], context, config.warper);

    AdaptationCurve curve;
    curve.queries.push_back(0.0);
    curve.gmq.push_back(ce::ModelGmq(*model, prepared.test_set));

    double annotations = 0.0, synthesized = 0.0, adapt_seconds = 0.0;
    for (size_t step = 0; step < prepared.arrival_batches.size(); ++step) {
      schedule.PublishStepTelemetry(step);
      util::WallTimer timer;
      baselines::StepStats stats =
          adapter->Step(prepared.arrival_batches[step], prepared.step_infos[step]);
      adapt_seconds += timer.Seconds();
      annotations += static_cast<double>(stats.annotated);
      synthesized += static_cast<double>(stats.synthesized);

      const std::vector<ce::LabeledExample>& eval_set =
          prepared.step_test_sets.empty() ? prepared.test_set
                                          : prepared.step_test_sets[step];
      curve.queries.push_back(static_cast<double>((step + 1) *
                                                  config.queries_per_step));
      curve.gmq.push_back(ce::ModelGmq(*model, eval_set));
    }

    if (m == 0) outcome.alpha = curve.gmq[0];
    outcome.curves.push_back(std::move(curve));
    outcome.annotations.push_back(annotations);
    outcome.synthesized.push_back(synthesized);
    outcome.adapt_seconds.push_back(adapt_seconds);
  }
  return outcome;
}

DriftExperimentResult Aggregate(const std::vector<RepeatOutcome>& repeats,
                                const std::vector<Method>& methods,
                                const ExperimentConfig& config) {
  WARPER_CHECK(!repeats.empty());
  DriftExperimentResult result;
  {
    std::vector<double> alphas, betas, js;
    for (const auto& r : repeats) {
      alphas.push_back(r.alpha);
      betas.push_back(r.beta);
      js.push_back(r.delta_js);
    }
    result.alpha = util::Mean(alphas);
    result.beta = util::Mean(betas);
    result.delta_m = result.alpha - result.beta;
    result.delta_js = util::Mean(js);
  }

  double cap = static_cast<double>(config.steps * config.queries_per_step);
  size_t ft_index = 0;
  for (size_t m = 0; m < methods.size(); ++m) {
    if (methods[m] == Method::kFt) ft_index = m;
  }

  for (size_t m = 0; m < methods.size(); ++m) {
    MethodResult mr;
    mr.name = MethodName(methods[m]);
    size_t points = repeats[0].curves[m].queries.size();
    mr.median.queries = repeats[0].curves[m].queries;
    mr.q1.queries = mr.median.queries;
    mr.q3.queries = mr.median.queries;
    for (size_t p = 0; p < points; ++p) {
      std::vector<double> values;
      for (const auto& r : repeats) values.push_back(r.curves[m].gmq[p]);
      mr.median.gmq.push_back(util::Median(values));
      mr.q1.gmq.push_back(util::Percentile(values, 25.0));
      mr.q3.gmq.push_back(util::Percentile(values, 75.0));
    }
    std::vector<double> ann, synth, secs;
    for (const auto& r : repeats) {
      ann.push_back(r.annotations[m]);
      synth.push_back(r.synthesized[m]);
      secs.push_back(r.adapt_seconds[m]);
    }
    mr.annotations = util::Mean(ann);
    mr.synthesized = util::Mean(synth);
    mr.adapt_seconds = util::Mean(secs);
    result.methods.push_back(std::move(mr));
  }

  // Speedups vs FT on per-repeat curves, averaged (medians of ratios are
  // more robust than ratios of medians).
  for (size_t m = 0; m < methods.size(); ++m) {
    std::vector<double> d50, d80, d100;
    for (const auto& r : repeats) {
      Deltas d = RelativeSpeedups(r.curves[ft_index], r.curves[m], r.alpha,
                                  r.beta, cap);
      d50.push_back(d.d50);
      d80.push_back(d.d80);
      d100.push_back(d.d100);
    }
    result.methods[m].deltas.d50 = util::Median(d50);
    result.methods[m].deltas.d80 = util::Median(d80);
    result.methods[m].deltas.d100 = util::Median(d100);
  }
  return result;
}

std::vector<ce::LabeledExample> ToExamples(
    const std::vector<std::vector<double>>& features,
    const std::vector<int64_t>& counts, bool with_labels) {
  WARPER_CHECK(features.size() == counts.size());
  std::vector<ce::LabeledExample> out(features.size());
  for (size_t i = 0; i < features.size(); ++i) {
    out[i].features = features[i];
    out[i].cardinality = with_labels ? counts[i] : -1;
  }
  return out;
}

}  // namespace

DriftExperimentResult RunSingleTableDrift(const SingleTableDriftSpec& spec) {
  const ExperimentConfig& config = spec.config;
  std::vector<RepeatOutcome> outcomes;

  for (int repeat = 0; repeat < config.repeats; ++repeat) {
    uint64_t seed = config.seed + 7919ULL * static_cast<uint64_t>(repeat);
    util::Rng rng(seed);

    storage::Table table = spec.table_factory(seed);
    storage::Annotator annotator(&table);
    ce::SingleTableDomain domain(&annotator);

    // Each repeat replays its own mutation stream (repeat 0 keeps the spec's
    // seed verbatim, so a single-repeat run is the spec's canonical replay).
    drift::DriftSpec drift_spec = config.drift;
    drift_spec.seed ^= 0x5851F42D4C957F2DULL * static_cast<uint64_t>(repeat);
    drift::DriftSchedule schedule(drift_spec, spec.workload, config.steps);

    PreparedRepeat prepared;
    prepared.domain = &domain;
    prepared.step_infos.assign(config.steps, baselines::StepInfo{});
    for (auto& info : prepared.step_infos) {
      info.annotation_budget = config.annotation_budget_per_step;
    }

    auto featurize = [&](const std::vector<storage::RangePredicate>& preds) {
      std::vector<std::vector<double>> features;
      features.reserve(preds.size());
      for (const auto& p : preds) {
        features.push_back(domain.FeaturizePredicate(p));
      }
      return features;
    };

    // Training corpus, annotated pre-drift.
    {
      std::vector<storage::RangePredicate> preds = workload::GenerateWorkload(
          table, spec.workload.train, config.train_size, &rng, config.gen_opts);
      std::vector<int64_t> counts = annotator.BatchCount(preds);
      prepared.train_corpus = ToExamples(featurize(preds), counts, true);
    }

    // Data-drift machinery: canaries are drawn once, before any mutation;
    // every event then brackets itself with a canary re-count and a change-
    // counter snapshot so the adapter's StepInfo telemetry sees each shock.
    std::vector<storage::RangePredicate> canaries;
    auto apply_event = [&](size_t s, baselines::StepInfo* info) {
      std::vector<int64_t> baseline = annotator.BatchCount(canaries);
      uint64_t snapshot = table.ChangeCounter();
      schedule.ApplyDataEventAt(&table, s);
      info->data_changed_fraction = table.ChangedFractionSince(snapshot);
      // Canary re-counting is pure telemetry; run it on the shared pool
      // (bit-identical to the serial pass).
      info->canary_shift = storage::CanaryShift(
          storage::Annotator(&table, /*threads=*/0), canaries, baseline);
    };

    // The onset event lands "overnight", before the post-drift test set is
    // drawn (the c1 preset: one sort+truncate-half, same RNG stream as the
    // retired DriftKind path).
    if (schedule.HasDataEventAt(0)) {
      canaries = storage::MakeCanaryPredicates(table, 16, &rng);
      apply_event(0, &prepared.step_infos[0]);
    }

    // Post-drift test set and reference corpus (fresh labels).
    workload::WeightedMix eval_mix = schedule.EvalMix();
    std::vector<storage::RangePredicate> test_preds = workload::GenerateWorkload(
        table, eval_mix, config.test_size, &rng, config.gen_opts);
    prepared.test_set = ToExamples(featurize(test_preds),
                                   annotator.BatchCount(test_preds), true);
    {
      std::vector<storage::RangePredicate> preds = workload::GenerateWorkload(
          table, eval_mix, config.train_size, &rng, config.gen_opts);
      std::vector<int64_t> counts(preds.size(), -1);
      if (config.compute_beta) counts = annotator.BatchCount(preds);
      prepared.reference_corpus =
          ToExamples(featurize(preds), counts, config.compute_beta);
    }

    // Arrival batches, mixed per step by the schedule. Unlabeled arrivals
    // (c1/c3 and every `+labels`-less spec) make the adapters spend their
    // own annotation budget. Mid-run data events mutate the table right
    // before the step's arrivals and refresh the test set's ground truth
    // (features stay fixed — only the counts go stale).
    bool track_test = schedule.HasMidRunDataEvents();
    std::vector<ce::LabeledExample> current_test = prepared.test_set;
    for (size_t step = 0; step < config.steps; ++step) {
      if (step > 0 && schedule.HasDataEventAt(step)) {
        apply_event(step, &prepared.step_infos[step]);
        std::vector<int64_t> counts = annotator.BatchCount(test_preds);
        for (size_t i = 0; i < current_test.size(); ++i) {
          current_test[i].cardinality = counts[i];
        }
      }
      std::vector<storage::RangePredicate> preds = workload::GenerateWorkload(
          table, schedule.ArrivalMixAt(step), config.queries_per_step, &rng,
          config.gen_opts);
      std::vector<int64_t> counts(preds.size(), -1);
      if (schedule.arrivals_labeled()) counts = annotator.BatchCount(preds);
      prepared.arrival_batches.push_back(
          ToExamples(featurize(preds), counts, schedule.arrivals_labeled()));
      if (track_test) prepared.step_test_sets.push_back(current_test);
    }

    outcomes.push_back(RunRepeat(prepared, spec.model_factory, spec.methods,
                                 config, schedule, seed));
  }
  return Aggregate(outcomes, spec.methods, config);
}

DriftExperimentResult RunStarJoinDrift(const StarJoinDriftSpec& spec) {
  const ExperimentConfig& config = spec.config;
  WARPER_CHECK_MSG(!config.drift.DriftsData(),
                   "star-join harness supports workload drift only");
  std::vector<RepeatOutcome> outcomes;

  for (int repeat = 0; repeat < config.repeats; ++repeat) {
    uint64_t seed = config.seed + 104729ULL * static_cast<uint64_t>(repeat);
    util::Rng rng(seed);

    storage::ImdbTables tables = spec.tables_factory(seed);
    storage::StarSchema schema = tables.Schema();
    storage::JoinAnnotator annotator(&schema);
    ce::StarJoinDomain domain(&annotator);

    workload::WorkloadSpec wspec;
    wspec.train = {spec.train_method};
    wspec.drifted = {spec.drifted_method};
    drift::DriftSchedule schedule(config.drift, wspec, config.steps);

    PreparedRepeat prepared;
    prepared.domain = &domain;
    prepared.step_infos.assign(config.steps, baselines::StepInfo{});
    for (auto& info : prepared.step_infos) {
      info.annotation_budget = config.annotation_budget_per_step;
    }

    // A degenerate (single-method) mixture replays the legacy RNG stream;
    // partial weights draw each query's method from the mixture.
    auto gen_queries = [&](const workload::WeightedMix& mix, size_t n) {
      std::vector<workload::GenMethod> methods;
      std::vector<double> weights;
      for (size_t i = 0; i < mix.methods.size(); ++i) {
        if (mix.weights[i] > 0.0) {
          methods.push_back(mix.methods[i]);
          weights.push_back(mix.weights[i]);
        }
      }
      WARPER_CHECK_MSG(!methods.empty(), "empty join-workload mixture");
      if (methods.size() == 1) {
        return workload::GenerateJoinWorkload(schema, methods[0], n, &rng,
                                              config.gen_opts);
      }
      std::vector<storage::JoinQuery> queries;
      queries.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        workload::GenMethod m = methods[rng.Categorical(weights)];
        std::vector<storage::JoinQuery> one =
            workload::GenerateJoinWorkload(schema, m, 1, &rng, config.gen_opts);
        queries.push_back(std::move(one[0]));
      }
      return queries;
    };

    auto make_examples = [&](const workload::WeightedMix& mix, size_t n,
                             bool with_labels) {
      std::vector<storage::JoinQuery> queries = gen_queries(mix, n);
      std::vector<ce::LabeledExample> out(queries.size());
      std::vector<int64_t> counts;
      if (with_labels) counts = annotator.BatchCount(queries);
      for (size_t i = 0; i < queries.size(); ++i) {
        out[i].features = domain.FeaturizeQuery(queries[i]);
        out[i].cardinality = with_labels ? counts[i] : -1;
      }
      return out;
    };

    prepared.train_corpus =
        make_examples(wspec.MixtureAt(0.0), config.train_size, true);
    workload::WeightedMix eval_mix = schedule.EvalMix();
    prepared.test_set = make_examples(eval_mix, config.test_size, true);
    prepared.reference_corpus =
        make_examples(eval_mix, config.train_size, config.compute_beta);
    for (size_t step = 0; step < config.steps; ++step) {
      prepared.arrival_batches.push_back(
          make_examples(schedule.ArrivalMixAt(step), config.queries_per_step,
                        schedule.arrivals_labeled()));
    }

    // MSCN configured for the star layout.
    ModelFactory factory = [&](size_t feature_dim, uint64_t model_seed) {
      std::vector<size_t> fact_cols;
      for (const auto& fact : schema.facts) {
        fact_cols.push_back(fact.table->NumColumns());
      }
      ce::MscnConfig mscn_config =
          ce::MscnConfig::StarJoin(schema.center->NumColumns(), fact_cols);
      WARPER_CHECK(mscn_config.feature_dim == feature_dim);
      return std::make_unique<ce::Mscn>(mscn_config, model_seed);
    };

    outcomes.push_back(
        RunRepeat(prepared, factory, spec.methods, config, schedule, seed));
  }
  return Aggregate(outcomes, spec.methods, config);
}

}  // namespace warper::eval
