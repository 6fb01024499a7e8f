// The paper's pipeline steps as the workloads call them: each is one public
// library call (or a short loop of them) wrapped in a span named after the
// layer it enters. Shared by train_epa and serve_districts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/inference_engine.hpp"
#include "core/snapshots.hpp"
#include "workload.hpp"

namespace perfbench {

/// The scenario corpus of one network: leak scenarios plus their snapshot
/// batch. `batch` is null when a SolverError aborted the simulation.
struct Corpus {
  std::vector<aqua::core::LeakScenario> scenarios;
  std::unique_ptr<aqua::core::SnapshotBatch> batch;
};

/// Cold-weather scenarios (freeze-driven leaks, up to 3 events each), so
/// that Phase II requests carry frozen masks for the weather expert.
aqua::core::ScenarioConfig cold_scenario_config(std::uint64_t seed);

/// ScenarioGenerator::generate under "core.scenario.generate".
std::vector<aqua::core::LeakScenario> generate(aqua::core::ScenarioGenerator& generator,
                                               std::size_t count);

/// SnapshotBatch construction under "core.snapshots.simulate". A
/// SolverError leaves the batch null instead of propagating.
std::unique_ptr<aqua::core::SnapshotBatch> simulate(
    const aqua::hydraulics::Network& network,
    const std::vector<aqua::core::LeakScenario>& scenarios);

/// Healthy 24 h run ("sensing.baseline_run") then k-medoids placement at
/// `iot_percent` of |V|+|E| ("graph.kmedoids").
aqua::sensing::SensorSet place_sensors(const aqua::hydraulics::Network& network,
                                       double iot_percent, std::uint64_t seed);

/// core::train_profile with HybridRSL under "core.profile.train". The
/// call's featurization and its fit (ProfileModel::train_seconds) are
/// recorded as "core.snapshots.featurize" and "ml.fit" children.
aqua::core::ProfileModel train(const Corpus& corpus, const aqua::sensing::SensorSet& sensors,
                               std::uint64_t seed);

/// ProfileModel::save_file under "io.save"; returns the artifact size.
std::size_t save(const aqua::core::ProfileModel& profile, const std::string& path);

/// ProfileModel::load_file (mmap) under "io.load", with the forest compile
/// it performs recorded as an "ml.forest_compile" child.
aqua::core::ProfileModel load(const std::string& path);

/// Phase II requests for every scenario of `corpus`: noisy Δ-features
/// ("core.snapshots.featurize"), the frozen mask, and tweet cliques
/// ("fusion.cliques"). Follows ExperimentContext::evaluate_profile with
/// weather and human input on.
std::vector<aqua::core::InferenceInputs> build_requests(const aqua::hydraulics::Network& network,
                                                        const Corpus& corpus,
                                                        const aqua::core::ProfileModel& profile,
                                                        std::uint64_t seed);

/// InferenceEngine::infer_batch under "core.inference".
std::vector<aqua::core::InferenceResult> infer(
    const aqua::core::InferenceEngine& engine,
    const std::vector<aqua::core::InferenceInputs>& batch);

/// Bit-identity of everything Algorithm 2 returns (timing excluded).
bool identical(const aqua::core::InferenceResult& a, const aqua::core::InferenceResult& b);

/// Fused mean Hamming score of `results` against the scenarios' truth.
double hamming(const std::vector<aqua::core::InferenceResult>& results,
               const std::vector<aqua::core::LeakScenario>& scenarios);

/// hydraulics.* counts of a batch, and linalg.us_per_newton_iter from the
/// batch's simulate time.
void add_hydraulics_metrics(Outcome& outcome, const aqua::core::SnapshotBatchStats& stats,
                            double simulate_s);

/// core.inference.* stage seconds and labels_added from engine telemetry.
void add_inference_metrics(Outcome& outcome, const aqua::telemetry::StageTimes& telemetry);

}  // namespace perfbench
