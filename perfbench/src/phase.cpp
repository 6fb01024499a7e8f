#include "phase.hpp"

#include <algorithm>
#include <filesystem>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/pipeline.hpp"
#include "fusion/human.hpp"
#include "fusion/weather.hpp"
#include "ml/metrics.hpp"
#include "sensing/placement.hpp"

namespace perfbench {

using namespace aqua;

core::ScenarioConfig cold_scenario_config(std::uint64_t seed) {
  core::ScenarioConfig config;
  config.max_events = 3;
  config.cold_weather = true;
  config.seed = seed;
  return config;
}

std::vector<core::LeakScenario> generate(core::ScenarioGenerator& generator, std::size_t count) {
  const ScopedSpan span("core.scenario.generate");
  return generator.generate(count);
}

std::unique_ptr<core::SnapshotBatch> simulate(const hydraulics::Network& network,
                                              const std::vector<core::LeakScenario>& scenarios) {
  const ScopedSpan span("core.snapshots.simulate");
  try {
    return std::make_unique<core::SnapshotBatch>(network, scenarios,
                                                 std::vector<std::size_t>{1});
  } catch (const SolverError&) {
    return nullptr;
  }
}

sensing::SensorSet place_sensors(const hydraulics::Network& network, double iot_percent,
                                 std::uint64_t seed) {
  const hydraulics::SimulationResults day = [&] {
    const ScopedSpan span("sensing.baseline_run");
    hydraulics::Simulation baseline(network, {});
    return baseline.run();
  }();
  const ScopedSpan span("graph.kmedoids");
  return sensing::place_sensors_kmedoids(
      network, day, sensing::sensors_for_percentage(network, iot_percent), seed);
}

core::ProfileModel train(const Corpus& corpus, const sensing::SensorSet& sensors,
                         std::uint64_t seed) {
  core::ProfileTrainingConfig config;
  config.kind = core::ModelKind::kHybridRsl;
  config.noise_seed = seed;
  core::ProfileModel profile;
  std::int32_t id = -1;
  double featurize_s = 0.0;
  {
    const ScopedSpan span("core.profile.train");
    id = span.id();
    const double start = now_seconds();
    profile = core::train_profile(*corpus.batch, corpus.scenarios, sensors, 0, config);
    featurize_s = now_seconds() - start - profile.train_seconds;
  }
  tracer().add_child(id, "ml.fit", profile.train_seconds, true);
  tracer().add_child(id, "core.snapshots.featurize", featurize_s, false);
  return profile;
}

std::size_t save(const core::ProfileModel& profile, const std::string& path) {
  {
    const ScopedSpan span("io.save");
    profile.save_file(path);
  }
  return static_cast<std::size_t>(std::filesystem::file_size(path));
}

core::ProfileModel load(const std::string& path) {
  core::ProfileModel profile;
  std::int32_t id = -1;
  {
    const ScopedSpan span("io.load");
    id = span.id();
    profile = core::ProfileModel::load_file(path);
  }
  tracer().add_child(id, "ml.forest_compile", profile.model.forest_compile_report().seconds);
  return profile;
}

std::vector<core::InferenceInputs> build_requests(const hydraulics::Network& network,
                                                  const Corpus& corpus,
                                                  const core::ProfileModel& profile,
                                                  std::uint64_t seed) {
  const auto& scenarios = corpus.scenarios;
  const core::LabelSpace labels(network);
  const fusion::TweetGenerator tweets{fusion::TweetModelConfig{}};
  // Calibrated weather expert, as in ExperimentContext::evaluate_profile.
  const double ratio = 1.0 / std::max(fusion::FreezeModel{}.p_freeze, 1e-6);
  const double weather_expert = ratio / (1.0 + ratio);

  // One stream per request, drawn first for the features and then for the
  // tweets, as in the per-scenario loop of evaluate_profile.
  Rng root(seed);
  std::vector<Rng> streams;
  streams.reserve(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) streams.push_back(root.split());

  std::vector<core::InferenceInputs> requests(scenarios.size());
  {
    const ScopedSpan span("core.snapshots.featurize");
    const std::size_t width = profile.sensors.size() + (profile.include_time_feature ? 1 : 0);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      core::InferenceInputs& request = requests[i];
      const auto faults =
          sensing::resolve_sensor_faults(scenarios[i].sensor_faults, profile.sensors.size());
      request.features.resize(width);
      corpus.batch->features_into(i, profile.sensors, profile.elapsed_index, profile.noise,
                                  streams[i], profile.include_time_feature, faults,
                                  request.features);
      request.p_leak_given_freeze = weather_expert;
      if (scenarios[i].temperature_f < fusion::kFreezeThresholdF) {
        request.frozen = scenarios[i].frozen;
      }
    }
  }
  const ScopedSpan span("fusion.cliques");
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    std::vector<hydraulics::NodeId> leak_nodes;
    for (const auto& event : scenarios[i].events) leak_nodes.push_back(event.node);
    const auto observed = tweets.generate(network, leak_nodes, 1, streams[i]);
    requests[i].cliques =
        core::to_label_cliques(tweets.build_cliques(network, observed), labels);
  }
  return requests;
}

std::vector<core::InferenceResult> infer(const core::InferenceEngine& engine,
                                         const std::vector<core::InferenceInputs>& batch) {
  const ScopedSpan span("core.inference");
  return engine.infer_batch(batch);
}

bool identical(const core::InferenceResult& a, const core::InferenceResult& b) {
  return a.beliefs.p_leak == b.beliefs.p_leak && a.predicted == b.predicted &&
         a.predicted_iot_only == b.predicted_iot_only &&
         a.weather_updates == b.weather_updates &&
         a.tuning.added_labels == b.tuning.added_labels &&
         a.energy_before == b.energy_before && a.energy_after == b.energy_after;
}

double hamming(const std::vector<core::InferenceResult>& results,
               const std::vector<core::LeakScenario>& scenarios) {
  std::vector<ml::Labels> predicted, truth;
  for (std::size_t i = 0; i < results.size(); ++i) {
    predicted.push_back(results[i].predicted);
    truth.push_back(scenarios[i].truth);
  }
  return ml::mean_hamming_score(predicted, truth);
}

void add_hydraulics_metrics(Outcome& outcome, const core::SnapshotBatchStats& stats,
                            double simulate_s) {
  const auto count = [](std::size_t n) { return static_cast<double>(n); };
  outcome.add("hydraulics.newton_iters", count(stats.scenario_linear_solves), "count");
  outcome.add("hydraulics.baseline_newton_iters", count(stats.baseline_linear_solves), "count");
  outcome.add("hydraulics.steps", count(stats.total_steps()), "count");
  outcome.add("hydraulics.replayed", count(stats.replayed), "count");
  outcome.add("hydraulics.full_run", count(stats.full_run), "count");
  outcome.add("hydraulics.engines_built", count(stats.engines_built), "count");
  const double iterations = count(stats.total_linear_solves());
  const double threads = count(ThreadPool::global().size());
  outcome.add("linalg.us_per_newton_iter",
              iterations > 0.0 ? 1e6 * simulate_s * threads / iterations : 0.0, "us");
}

void add_inference_metrics(Outcome& outcome, const telemetry::StageTimes& telemetry) {
  using Engine = core::InferenceEngine;
  outcome.add("core.inference.profile_eval_s", telemetry.seconds(Engine::kStageProfileEval), "s");
  outcome.add("core.inference.weather_s", telemetry.seconds(Engine::kStageWeather), "s");
  outcome.add("core.inference.human_tuning_s", telemetry.seconds(Engine::kStageHumanTuning), "s");
  outcome.add("core.inference.energy_s", telemetry.seconds(Engine::kStageEnergy), "s");
  outcome.add("core.inference.labels_added",
              static_cast<double>(telemetry.count(Engine::kCounterLabelsAdded)), "count");
}

}  // namespace perfbench
