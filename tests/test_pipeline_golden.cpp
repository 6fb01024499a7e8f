// Golden-file regression over the full Phase I -> Phase II pipeline: fixed-
// seed scenario corpora on both builtin networks, trained profiles, and the
// complete InferenceResult (beliefs, predicted sets, tuning, energies) for
// every test snapshot, serialized exactly (hexfloat) and compared against
// checked-in goldens in tests/golden/.
//
// Regeneration workflow (after an intentional behavior change):
//   AQUA_REGEN_GOLDEN=1 ./build/tests/test_pipeline_golden
// rewrites the files in the source tree (AQUA_GOLDEN_DIR points there);
// re-run without the flag to confirm, then commit the new goldens with the
// change that caused them. Any diff without an intentional cause is a
// regression: these pin the end-to-end numeric behavior of simulation,
// featurization, training, and fusion at once.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/aquascale.hpp"
#include "core/inference_engine.hpp"
#include "graph/kmedoids.hpp"

namespace aqua::core {
namespace {

std::string hex(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

/// Exact, line-oriented rendering of a batch of inference results.
std::string render_results(const std::vector<InferenceInputs>& batch,
                           const std::vector<InferenceResult>& results) {
  std::ostringstream out;
  out << "snapshots " << results.size() << "\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const InferenceResult& r = results[i];
    out << "snapshot " << i << " frozen " << (batch[i].frozen.empty() ? 0 : 1) << " cliques "
        << batch[i].cliques.size() << "\n";
    out << "beliefs";
    for (const double p : r.beliefs.p_leak) out << ' ' << hex(p);
    out << "\npredicted";
    for (std::size_t v = 0; v < r.predicted.size(); ++v) {
      if (r.predicted[v] != 0) out << ' ' << v;
    }
    out << "\niot_only";
    for (std::size_t v = 0; v < r.predicted_iot_only.size(); ++v) {
      if (r.predicted_iot_only[v] != 0) out << ' ' << v;
    }
    out << "\nweather_updates " << r.weather_updates;
    out << "\nadded";
    for (const std::size_t v : r.tuning.added_labels) out << ' ' << v;
    out << "\nenergy " << hex(r.energy_before) << ' ' << hex(r.energy_after) << "\n";
  }
  return out.str();
}

/// Compares against (or regenerates) tests/golden/<name>.txt.
void check_against_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(AQUA_GOLDEN_DIR) + "/" + name + ".txt";
  if (std::getenv("AQUA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with AQUA_REGEN_GOLDEN=1 to create it)";
  std::ostringstream expected;
  expected << in.rdbuf();
  // Line-by-line first so a mismatch reports the offending record, not a
  // multi-kilobyte blob diff.
  std::istringstream actual_lines(actual), expected_lines(expected.str());
  std::string a, e;
  std::size_t line = 0;
  while (std::getline(expected_lines, e)) {
    ++line;
    ASSERT_TRUE(static_cast<bool>(std::getline(actual_lines, a)))
        << name << ": output truncated at line " << line;
    ASSERT_EQ(a, e) << name << ": first divergence at line " << line;
  }
  ASSERT_FALSE(static_cast<bool>(std::getline(actual_lines, a)))
      << name << ": output has extra lines after line " << line;
}

/// Builds the deterministic fixed-seed test batch evaluate_profile runs
/// (features + weather freeze masks + tweet cliques) for a context.
std::vector<InferenceInputs> build_batch(ExperimentContext& context, const ProfileModel& profile,
                                         const EvalOptions& options) {
  fusion::TweetGenerator tweet_generator(options.tweets);
  const auto& scenarios = context.test_scenarios();
  const std::size_t elapsed = context.config().elapsed_slots[options.elapsed_index];
  Rng root(context.config().seed ^ 0x9999ULL);
  std::vector<InferenceInputs> batch(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    Rng rng = root.split();
    InferenceInputs& inputs = batch[i];
    inputs.features = context.test_batch().features(i, profile.sensors, options.elapsed_index,
                                                    profile.noise, rng,
                                                    profile.include_time_feature);
    inputs.entropy_threshold = options.entropy_threshold;
    if (scenarios[i].temperature_f < fusion::kFreezeThresholdF) {
      inputs.frozen = scenarios[i].frozen;
    }
    std::vector<hydraulics::NodeId> leak_nodes;
    for (const auto& event : scenarios[i].events) leak_nodes.push_back(event.node);
    const auto tweets = tweet_generator.generate(context.network(), leak_nodes, elapsed, rng);
    const auto cliques = tweet_generator.build_cliques(context.network(), tweets);
    inputs.cliques = to_label_cliques(cliques, context.labels());
  }
  return batch;
}

void run_golden_case(const hydraulics::Network& net, ModelKind kind, const std::string& name) {
  ExperimentConfig config;
  config.train_samples = 120;
  config.test_samples = 8;
  config.scenarios.max_events = 2;
  config.seed = 31337;
  ExperimentContext context(net, config);

  EvalOptions options;
  options.kind = kind;
  const ProfileModel profile = context.train(options);
  const auto batch = build_batch(context, profile, options);

  const InferenceEngine engine(profile);
  const auto results = engine.infer_batch(batch);
  check_against_golden(name, render_results(batch, results));
}

TEST(PipelineGolden, EpaNetHybridRsl) {
  run_golden_case(networks::make_epa_net(), ModelKind::kHybridRsl, "epa_net_hybrid_rsl");
}

TEST(PipelineGolden, WsscSubnetLogisticR) {
  run_golden_case(networks::make_wssc_subnet(), ModelKind::kLogisticR, "wssc_subnet_logistic_r");
}

/// Exact rendering of a variant corpus: the generated scenario structure
/// (leaks with ramps, operational/demand windows, tank scale, sensor-fault
/// draws) plus the Δ-feature row each scenario produces through the
/// default replay-with-fallback batch. Pins the scenario-diversity
/// engine's generator streams, the variant hydraulics, and the sensor-
/// fault feature transform in one file per family.
std::string render_corpus(const hydraulics::Network& net, const ScenarioConfig& config,
                          std::size_t count) {
  ScenarioGenerator generator(net, config);
  const auto scenarios = generator.generate(count);
  const SnapshotBatch batch(net, scenarios, {1}, {});
  const auto sensors = sensing::full_observation(net);
  const sensing::NoiseModel noise;

  std::ostringstream out;
  out << "scenarios " << scenarios.size() << " replayed " << batch.stats().replayed
      << " full_run " << batch.stats().full_run << "\n";
  Rng root(config.seed ^ 0xfeed);
  std::vector<double> row(sensors.size() + 1);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const LeakScenario& s = scenarios[i];
    out << "scenario " << i << " slot " << s.leak_slot << " mask " << s.variant_mask
        << " tank " << hex(s.tank_init_scale) << "\n";
    out << "events";
    for (const auto& e : s.events) {
      out << ' ' << e.node << ':' << hex(e.coefficient) << ':' << hex(e.ramp_s);
    }
    out << "\nops";
    for (const auto& op : s.operations) {
      out << ' ' << op.link << ':' << hex(op.start_time_s) << ':' << hex(op.end_time_s);
    }
    out << "\ndemands";
    for (const auto& d : s.demand_events) {
      out << ' ' << d.node << ':' << hex(d.multiplier) << ':' << hex(d.start_time_s) << ':'
          << hex(d.end_time_s);
    }
    out << "\nsensor_faults";
    for (const auto& f : s.sensor_faults) {
      out << ' ' << static_cast<int>(f.kind) << ':' << hex(f.position) << ':' << hex(f.value)
          << ':' << f.start_slot;
    }
    Rng rng = root.split();
    const auto faults = sensing::resolve_sensor_faults(s.sensor_faults, sensors.size());
    batch.features_into(i, sensors, 0, noise, rng, true, faults, row);
    out << "\nfeatures";
    for (const double v : row) out << ' ' << hex(v);
    out << "\n";
  }
  return out.str();
}

ScenarioConfig corpus_config(std::uint64_t seed) {
  ScenarioConfig config;
  config.max_events = 2;
  config.seed = seed;
  return config;
}

TEST(CorpusGolden, OperationalVariants) {
  ScenarioConfig config = corpus_config(1101);
  config.faults = {make_fault_spec(FaultKind::kPumpOutage, 0.6),
                   make_fault_spec(FaultKind::kValveClosure, 0.6)};
  check_against_golden("corpus_operational",
                       render_corpus(networks::make_epa_net(), config, 6));
}

TEST(CorpusGolden, LeakRampVariants) {
  ScenarioConfig config = corpus_config(1102);
  config.faults = {make_fault_spec(FaultKind::kLeakRamp, 1.0)};
  check_against_golden("corpus_leak_ramp",
                       render_corpus(networks::make_epa_net(), config, 6));
}

TEST(CorpusGolden, DemandAndTankVariants) {
  ScenarioConfig config = corpus_config(1103);
  config.faults = {make_fault_spec(FaultKind::kDemandSurge, 0.7),
                   make_fault_spec(FaultKind::kTankDrawdown, 0.5)};
  check_against_golden("corpus_demand_tank",
                       render_corpus(networks::make_epa_net(), config, 6));
}

TEST(CorpusGolden, SensorFaultVariants) {
  ScenarioConfig config = corpus_config(1104);
  config.faults = {make_fault_spec(FaultKind::kSensorDropout, 0.5),
                   make_fault_spec(FaultKind::kSensorStuckAt, 0.5),
                   make_fault_spec(FaultKind::kSensorDrift, 0.5),
                   make_fault_spec(FaultKind::kSensorBias, 0.5)};
  check_against_golden("corpus_sensor_fault",
                       render_corpus(networks::make_epa_net(), config, 6));
}

/// Exact rendering of k-medoids sensor placement (Sec. IV-A) on one
/// network: the placed sensor names plus the clustering behind them
/// (medoid indices, iteration count, hexfloat total cost).
std::string render_placement(const std::string& name, const hydraulics::Network& net,
                             double percent) {
  hydraulics::Simulation simulation(net, {});
  const auto baseline = simulation.run();
  const std::size_t count = sensing::sensors_for_percentage(net, percent);
  const auto sensors = sensing::place_sensors_kmedoids(net, baseline, count);
  graph::KMedoidsOptions options;
  options.seed = 42;  // place_sensors_kmedoids' default seed
  const auto clustering =
      graph::kmedoids(sensing::placement_signatures(net, baseline), count, options);

  std::ostringstream out;
  out << "placement " << name << " percent " << percent << " count " << count << "\n";
  out << "sensors";
  for (const auto& sensor : sensors.sensors) out << ' ' << sensor.name;
  out << "\nmedoids";
  for (const std::size_t m : clustering.medoids) out << ' ' << m;
  out << "\niterations " << clustering.iterations << "\ntotal_cost "
      << hex(clustering.total_cost) << "\n";
  return out.str();
}

TEST(PlacementGolden, KMedoidsSensorsOnBuiltinAndCityNetworks) {
  const auto epa = networks::make_epa_net();
  const auto wssc = networks::make_wssc_subnet();
  hydraulics::Network city;
  networks::make_city(city, networks::city_spec_for_nodes(1000));
  check_against_golden("placement_kmedoids",
                       render_placement("epa_net", epa, 10.0) +
                           render_placement("epa_net", epa, 30.0) +
                           render_placement("wssc_subnet", wssc, 2.0) +
                           render_placement("wssc_subnet", wssc, 30.0) +
                           render_placement("city_1k", city, 2.0));
}

TEST(PipelineGolden, FusionStagesGoldenOnSyntheticBeliefs) {
  // A pure-fusion golden (no simulation/training): pins the weather Bayes
  // arithmetic and the tuning order of operations on handcrafted beliefs.
  Rng rng(0xbeefcafe);
  std::vector<InferenceResult> results;
  std::vector<InferenceInputs> batch;
  for (int i = 0; i < 5; ++i) {
    InferenceResult r;
    InferenceInputs inputs;
    for (int v = 0; v < 12; ++v) r.beliefs.p_leak.push_back(rng.uniform());
    inputs.frozen.resize(12);
    for (auto& f : inputs.frozen) f = rng.uniform() < 0.4 ? 1 : 0;
    for (int c = 0; c < 2; ++c) {
      fusion::LabelClique clique;
      clique.labels = {static_cast<std::size_t>(rng.uniform_int(0, 11)),
                       static_cast<std::size_t>(rng.uniform_int(0, 11))};
      inputs.cliques.push_back(clique);
    }
    inputs.entropy_threshold = 0.1;

    r.predicted_iot_only = r.beliefs.predicted_set();
    r.weather_updates = fusion::apply_weather_update(r.beliefs, inputs.frozen, 0.9);
    r.energy_before = fusion::total_energy(r.beliefs, inputs.cliques, inputs.entropy_threshold);
    r.tuning = fusion::apply_human_tuning(r.beliefs, inputs.cliques, inputs.entropy_threshold);
    r.energy_after = fusion::total_energy(r.beliefs, inputs.cliques, inputs.entropy_threshold);
    r.predicted = r.beliefs.predicted_set();
    results.push_back(std::move(r));
    batch.push_back(std::move(inputs));
  }
  check_against_golden("fusion_stages_synthetic", render_results(batch, results));
}

}  // namespace
}  // namespace aqua::core
