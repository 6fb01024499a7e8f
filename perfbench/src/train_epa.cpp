// train_epa: Phase I and an evaluation on EPA-NET, timed from scenario
// generation through the fused evaluation of the test set.
//
//   generate 8000 train + 1000 test scenarios → SnapshotBatch (replay) →
//   k-medoids placement at 30% IoT → train_profile (HybridRSL) →
//   save_file → load_file (mmap) → infer_batch over the test set with
//   weather and tweet cliques.
//
// The ml fit dominates; hydraulics and io are a few percent each.
// Gate (outside the timed region): the mmap-loaded profile's results on the
// test set are bit-identical to the in-memory profile's.
#include <cstdio>
#include <filesystem>
#include <optional>

#include "common/thread_pool.hpp"
#include "networks/builtin.hpp"
#include "phase.hpp"

namespace perfbench {

using namespace aqua;

namespace {

constexpr std::size_t kTrain = 8000;
constexpr std::size_t kTest = 1000;
constexpr std::size_t kWarmupTrain = 200;
constexpr std::size_t kWarmupTest = 50;
constexpr double kIotPercent = 30.0;

/// Everything one pass produces that the gates and metrics read.
struct PassResult {
  bool ok = false;
  double simulate_s = 0.0;
  core::SnapshotBatchStats stats;  // train + test batches
  std::size_t sensors = 0;
  std::size_t labels = 0;
  std::size_t artifact_bytes = 0;
  std::optional<core::ProfileModel> trained;
  std::optional<core::ProfileModel> loaded;
  std::vector<core::InferenceInputs> requests;
  std::vector<core::InferenceResult> results;
  std::vector<core::LeakScenario> test_scenarios;
  telemetry::StageTimes telemetry;
  double hamming = 0.0;
};

void accumulate(core::SnapshotBatchStats& total, const core::SnapshotBatchStats& batch) {
  total.scenarios += batch.scenarios;
  total.baseline_steps += batch.baseline_steps;
  total.baseline_linear_solves += batch.baseline_linear_solves;
  total.scenario_steps += batch.scenario_steps;
  total.scenario_linear_solves += batch.scenario_linear_solves;
  total.engines_built += batch.engines_built;
  total.replayed += batch.replayed;
  total.full_run += batch.full_run;
}

/// The timed pipeline. Returns with ok = false when a SolverError aborted
/// a batch; the caller counts the pass's operations as failed.
PassResult run_pipeline(const hydraulics::Network& network, std::size_t train_count,
                        std::size_t test_count, std::uint64_t seed, const std::string& artifact) {
  PassResult out;
  core::ScenarioGenerator generator(network, cold_scenario_config(seed));
  Corpus train_set, test_set;
  train_set.scenarios = generate(generator, train_count);
  test_set.scenarios = generate(generator, test_count);

  const double sim_start = now_seconds();
  train_set.batch = simulate(network, train_set.scenarios);
  if (train_set.batch) test_set.batch = simulate(network, test_set.scenarios);
  out.simulate_s = now_seconds() - sim_start;
  if (!train_set.batch || !test_set.batch) return out;
  accumulate(out.stats, train_set.batch->stats());
  accumulate(out.stats, test_set.batch->stats());

  const auto sensors = place_sensors(network, kIotPercent, seed ^ 0x5e5eULL);
  out.sensors = sensors.size();
  out.trained = train(train_set, sensors, seed ^ 0x1111ULL);
  out.labels = out.trained->model.num_labels();
  out.artifact_bytes = save(*out.trained, artifact);
  out.loaded = load(artifact);

  out.requests = build_requests(network, test_set, *out.loaded, seed ^ 0x9999ULL);
  const core::InferenceEngine engine(*out.loaded);
  out.results = infer(engine, out.requests);
  out.telemetry = engine.telemetry_snapshot();
  out.hamming = hamming(out.results, test_set.scenarios);
  out.test_scenarios = std::move(test_set.scenarios);
  out.ok = true;
  return out;
}

}  // namespace

Outcome run_train_epa(const Options& options) {
  Outcome outcome;
  const std::string artifact = options.scratch_dir + "/train_epa.aquamodl";

  // Setup: the network, then a small warm-up pipeline so the thread pool,
  // allocator and page cache are live before the first timed pass.
  std::optional<hydraulics::Network> network;
  const SetupTimes setups = time_setups([&] {
    network.emplace(networks::make_epa_net());
    const PassResult warmup =
        run_pipeline(*network, kWarmupTrain, kWarmupTest, options.seed ^ 0xabcdULL, artifact);
    if (!warmup.ok) throw std::runtime_error("warm-up pipeline failed to simulate");
  });

  PassResult last;
  std::uint64_t passes_failed = 0;
  const PassTimes passes = run_passes(options, [&](std::size_t) {
    last = run_pipeline(*network, kTrain, kTest, options.seed, artifact);
    // Attempted operations: every scenario simulated plus every localization.
    outcome.attempted += kTrain + kTest + kTest;
    if (!last.ok) {
      outcome.failed += kTrain + kTest + kTest;
      ++passes_failed;
    }
  });
  std::filesystem::remove(artifact);

  if (last.ok) {
    // Gate: the in-memory profile localizes the same requests bit-identically.
    const core::InferenceEngine reference(*last.trained);
    const auto expected = reference.infer_batch(last.requests);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (!identical(expected[i], last.results[i])) ++mismatches;
    }
    outcome.failed += mismatches;
    outcome.gate("mmap-profile-bit-identical", mismatches == 0,
                 std::to_string(mismatches) + " of " + std::to_string(expected.size()) +
                     " test results differ");
  } else {
    outcome.gate("passes-simulated", false,
                 std::to_string(passes_failed) + " passes aborted by SolverError");
  }

  const double pass_s = median(passes.untraced);
  const double ops = static_cast<double>(kTrain + kTest);
  char line[240];
  std::snprintf(line, sizeof line,
                "train_epa: %zu passes, profile_build_s=%.4f s (median), %.1f scenarios/s, "
                "%.1f scenarios per CPU s, hamming=%.6f, %zu sensors, %zu labels",
                passes.all.size(), pass_s, ops / pass_s, ops / median(passes.untraced_cpu),
                last.hamming, last.sensors, last.labels);
  outcome.note(line);
  outcome.note(describe(setups, passes));

  if (!options.trace) {
    const double reference_s = run_reference_s(setups, passes);
    outcome.add("setup_s", at_nominal_speed(median(setups.cpu), reference_s), "s");
    outcome.add("ops_per_cpu_s",
                ops / at_nominal_speed(median(passes.untraced_cpu), reference_s), "1/s");
    return outcome;
  }

  add_trace_metrics(outcome, passes,
                    {{"core.scenario.generate", "core.scenario.generate_s"},
                     {"core.snapshots.simulate", "core.snapshots.simulate_s"},
                     {"core.snapshots.featurize", "core.snapshots.featurize_s"},
                     {"sensing.baseline_run", "sensing.baseline_run_s"},
                     {"graph.kmedoids", "graph.kmedoids_s"},
                     {"io.save", "io.save_s"},
                     {"io.load", "io.load_s"},
                     {"fusion.cliques", "fusion.cliques_s"}});
  add_hydraulics_metrics(outcome, last.stats, last.simulate_s);
  add_inference_metrics(outcome, last.telemetry);
  const auto count = [](std::size_t n) { return static_cast<double>(n); };
  outcome.add("sensing.sensors", count(last.sensors), "count");
  outcome.add("core.snapshots.rows", count(kTrain + kTest), "count");
  outcome.add("core.snapshots.cols", count(last.sensors + 1), "count");
  outcome.add("ml.fit_s", last.trained ? last.trained->train_seconds : 0.0, "s");
  outcome.add("ml.labels", count(last.labels), "count");
  outcome.add("ml.train_rows", count(kTrain), "count");
  outcome.add("io.artifact_bytes", count(last.artifact_bytes), "bytes");
  const auto report = last.loaded ? last.loaded->model.forest_compile_report()
                                  : ml::ForestCompileReport{};
  outcome.add("ml.forest_compile_s", report.seconds, "s");
  outcome.add("ml.compiled_trees", count(report.trees), "count");
  outcome.add("core.inference.hamming", last.hamming, "score");
  return outcome;
}

}  // namespace perfbench
