// corpus_city: Phase I corpus generation on a ~5k-node make_city network.
//
// Setup builds the city and places sensors by k-medoids at 2% IoT (sensors
// are hardware placed once, so placement is set-up cost). Each timed pass
// generates 1024 scenarios, from a seed of its own, with a fault mix — pump outage, valve closure,
// leak ramp and demand surge at 0.25 each, tank drawdown at 0.15 — builds
// the SnapshotBatch and featurizes it with build_dataset. Tank drawdown
// sends about 15% of scenarios down the full-run path next to replay.
//
// Gate (outside the timed region): a fixed sample of replayed and full-run
// scenarios is re-simulated with use_replay = false and must match the
// batch's snapshots bit for bit.
#include <cstdio>
#include <memory>
#include <optional>

#include "networks/generator.hpp"
#include "phase.hpp"

namespace perfbench {

using namespace aqua;

namespace {

constexpr std::size_t kCityNodes = 5000;
constexpr std::size_t kScenarios = 1024;
constexpr double kIotPercent = 2.0;
// The city and its sensor layout are fixed infrastructure; --seed drives
// only the scenarios and the measurement noise.
constexpr std::uint64_t kPlacementSeed = 2026;
// Pass k simulates the corpus of seed ^ (k * kPassSeedStride): the share
// of full-run scenarios, which cost several times a replay, differs from
// corpus to corpus (141-171 of 1024 over ten seeds), and a median over
// passes on different corpora depends less on one seed's draw.
constexpr std::uint64_t kPassSeedStride = 0x9e3779b97f4a7c15ULL;
constexpr std::size_t kGateReplayed = 8;
constexpr std::size_t kGateFullRun = 8;

core::ScenarioConfig fault_mix_config(std::uint64_t seed) {
  core::ScenarioConfig config;
  config.max_events = 3;
  config.seed = seed;
  config.faults = {
      core::make_fault_spec(core::FaultKind::kPumpOutage, 0.25),
      core::make_fault_spec(core::FaultKind::kValveClosure, 0.25),
      core::make_fault_spec(core::FaultKind::kLeakRamp, 0.25),
      core::make_fault_spec(core::FaultKind::kDemandSurge, 0.25),
      core::make_fault_spec(core::FaultKind::kTankDrawdown, 0.15),
  };
  return config;
}

bool same_snapshots(const core::ScenarioSnapshots& a, const core::ScenarioSnapshots& b) {
  return a.before_pressure == b.before_pressure && a.before_flow == b.before_flow &&
         a.after_pressure == b.after_pressure && a.after_flow == b.after_flow &&
         a.day_fraction == b.day_fraction && a.leak_slot == b.leak_slot;
}

}  // namespace

Outcome run_corpus_city(const Options& options) {
  Outcome outcome;

  std::optional<hydraulics::Network> network;
  sensing::SensorSet sensors;
  const SetupTimes setups = time_setups([&] {
    network.emplace();
    networks::make_city(*network, networks::city_spec_for_nodes(kCityNodes));
    sensors = place_sensors(*network, kIotPercent, kPlacementSeed);
  });

  Corpus corpus;
  // The first pass's batch counts and simulate time: the same on every run
  // of a seed, however many passes fit in the run.
  core::SnapshotBatchStats first_stats;
  double first_simulate_s = 0.0;
  std::size_t rows = 0, cols = 0;
  std::uint64_t batches_failed = 0;
  const PassTimes passes = run_passes(options, [&](std::size_t index) {
    const std::uint64_t seed = options.seed ^ (index * kPassSeedStride);
    corpus.batch.reset();
    core::ScenarioGenerator generator(*network, fault_mix_config(seed));
    corpus.scenarios = generate(generator, kScenarios);
    const double start = now_seconds();
    corpus.batch = simulate(*network, corpus.scenarios);
    const double simulate_s = now_seconds() - start;
    outcome.attempted += kScenarios;
    if (!corpus.batch) {
      outcome.failed += kScenarios;
      ++batches_failed;
      return;
    }
    if (index == 0) {
      first_stats = corpus.batch->stats();
      first_simulate_s = simulate_s;
    }
    const ScopedSpan span("core.snapshots.featurize");
    const auto dataset =
        corpus.batch->build_dataset(corpus.scenarios, sensors, 0, {}, seed ^ 0x1111ULL);
    rows = dataset.num_samples();
    cols = dataset.num_features();
  });

  if (corpus.batch) {
    // Gate: the first replayed and the first full-run scenarios, re-run
    // from t = 0 without replay.
    std::vector<std::size_t> picked;
    std::size_t replayed = 0, full = 0;
    for (std::size_t i = 0; i < corpus.scenarios.size(); ++i) {
      const bool replays = corpus.scenarios[i].replay_compatible(900.0);
      if (replays && replayed < kGateReplayed) {
        picked.push_back(i);
        ++replayed;
      } else if (!replays && full < kGateFullRun) {
        picked.push_back(i);
        ++full;
      }
    }
    std::vector<core::LeakScenario> sample;
    for (const std::size_t i : picked) sample.push_back(corpus.scenarios[i]);
    const core::SnapshotBatch reference(*network, sample, {1}, {}, true, false);
    std::size_t mismatches = 0;
    for (std::size_t k = 0; k < picked.size(); ++k) {
      if (!same_snapshots(reference.snapshots(k), corpus.batch->snapshots(picked[k]))) {
        ++mismatches;
      }
    }
    outcome.failed += mismatches;
    outcome.gate("full-run-resimulation-bit-identical",
                 mismatches == 0 && replayed == kGateReplayed && full == kGateFullRun,
                 std::to_string(replayed) + " replayed + " + std::to_string(full) +
                     " full-run scenarios re-run, " + std::to_string(mismatches) + " differ");
  } else {
    outcome.gate("batches-simulated", false,
                 std::to_string(batches_failed) + " batches aborted by SolverError");
  }

  const double pass_s = median(passes.untraced);
  const double ops = static_cast<double>(kScenarios);
  char line[240];
  std::snprintf(line, sizeof line,
                "corpus_city: %zu nodes, %zu sensors, %zu passes, scenarios_per_s=%.3f, "
                "%.3f scenarios per CPU s; first pass %zu replayed + %zu full-run, "
                "%zu Newton iterations",
                network->num_nodes(), sensors.size(), passes.all.size(), ops / pass_s,
                ops / median(passes.untraced_cpu), first_stats.replayed, first_stats.full_run,
                first_stats.total_linear_solves());
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
                     {"graph.kmedoids", "graph.kmedoids_s"}});
  add_hydraulics_metrics(outcome, first_stats, first_simulate_s);
  outcome.add("sensing.sensors", static_cast<double>(sensors.size()), "count");
  outcome.add("core.snapshots.rows", static_cast<double>(rows), "count");
  outcome.add("core.snapshots.cols", static_cast<double>(cols), "count");
  return outcome;
}

}  // namespace perfbench
