// Sensor placement (Sec. IV-A): "given the number of available devices, we
// use k-medoids algorithm to select a group of locations as the sensor
// set. k-medoids partitions |V| + |E| potential sensor locations into
// [k] clusters and assigns cluster centers as the sensor locations, based
// on the pressure head and flow rate read from nodes and pipes."
//
// Candidates are the hydraulic signatures (normalized baseline time
// series) of every node and every link; medoids become sensors of the
// matching kind. Random placement is provided for the ablation bench.
#pragma once

#include <cstdint>
#include <vector>

#include "hydraulics/simulation.hpp"
#include "sensing/sensors.hpp"

namespace aqua::sensing {

/// The k-medoids candidate points: one normalized (zero-mean, unit-variance)
/// baseline time series per node (pressure head), then one per link (flow),
/// in network index order.
std::vector<std::vector<double>> placement_signatures(
    const hydraulics::Network& network, const hydraulics::SimulationResults& baseline);

/// k-medoids placement over all |V|+|E| candidates using the signatures in
/// `baseline` (a healthy EPS run of the same network). `count` is clamped
/// to [1, |V|+|E|].
SensorSet place_sensors_kmedoids(const hydraulics::Network& network,
                                 const hydraulics::SimulationResults& baseline, std::size_t count,
                                 std::uint64_t seed = 42);

/// Uniform-random placement (ablation baseline for k-medoids).
SensorSet place_sensors_random(const hydraulics::Network& network, std::size_t count,
                               std::uint64_t seed = 42);

/// Sensor count corresponding to an observation percentage of |V|+|E|
/// ("Percentage of IoT Observations", Sec. V-B). Result is at least 1.
std::size_t sensors_for_percentage(const hydraulics::Network& network, double percent);

}  // namespace aqua::sensing
