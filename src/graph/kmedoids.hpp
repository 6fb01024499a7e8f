// k-medoids clustering (PAM-style alternation) over points in an arbitrary
// feature space. The paper (Sec. IV-A) uses k-medoids to choose IoT sensor
// locations: it "partitions |V| + |E| potential sensor locations into
// [k] clusters and assigns cluster centers as the sensor locations, based
// on the pressure head and flow rate read from nodes and pipes".
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace aqua::graph {

struct KMedoidsOptions {
  std::size_t max_iterations = 100;
  std::uint64_t seed = 42;
};

struct KMedoidsResult {
  std::vector<std::size_t> medoids;     // indices into the point set, size k
  std::vector<std::size_t> assignment;  // cluster index per point
  double total_cost = 0.0;              // sum of point->medoid distances
  std::size_t iterations = 0;
  // Point-to-point squared distances computed, each one pass over the
  // dimension: an exact, deterministic count of the work done.
  std::size_t distance_evaluations = 0;
};

/// Clusters `points` (each a feature vector of equal dimension) into k
/// groups using Euclidean distance; medoids are actual data points.
/// Initialization is k-means++-style seeding on medoid candidates; the
/// alternation assigns points to nearest medoids and swaps each medoid with
/// the in-cluster point minimizing cluster cost until convergence.
/// Point-to-medoid distances are cached per medoid and clusters whose
/// members did not change are not re-evaluated (DESIGN.md §16); the cache
/// holds k * points.size() doubles for the duration of the call.
KMedoidsResult kmedoids(const std::vector<std::vector<double>>& points, std::size_t k,
                        const KMedoidsOptions& options = {});

}  // namespace aqua::graph
