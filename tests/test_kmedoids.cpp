#include "graph/kmedoids.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "common/error.hpp"
#include "hydraulics/simulation.hpp"
#include "networks/generator.hpp"
#include "sensing/placement.hpp"

namespace aqua::graph {
namespace {

using Points = std::vector<std::vector<double>>;

// ---------------------------------------------------------------------------
// Oracle: the original k-medoids, kept verbatim except that its distance
// helper counts calls. It recomputes every point-to-medoid and every
// within-cluster distance on every iteration; kmedoids() caches and skips
// that work and must return bit-identical results.

std::size_t reference_evaluations = 0;

double reference_squared_distance(const std::vector<double>& a, const std::vector<double>& b) {
  ++reference_evaluations;
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

KMedoidsResult reference_kmedoids(const Points& points, std::size_t k,
                                  const KMedoidsOptions& options = {}) {
  const auto squared_distance = reference_squared_distance;
  const std::size_t n = points.size();
  AQUA_REQUIRE(k >= 1, "k must be positive");
  AQUA_REQUIRE(k <= n, "k cannot exceed the number of points");
  for (const auto& p : points) {
    AQUA_REQUIRE(p.size() == points.front().size(), "points must share a dimension");
  }

  Rng rng(options.seed);
  KMedoidsResult result;

  // k-means++-style seeding: first medoid uniform, the rest proportional to
  // squared distance from the nearest chosen medoid.
  result.medoids.push_back(static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
  std::vector<double> nearest_sq(n, std::numeric_limits<double>::infinity());
  while (result.medoids.size() < k) {
    const auto& latest = points[result.medoids.back()];
    for (std::size_t i = 0; i < n; ++i) {
      nearest_sq[i] = std::min(nearest_sq[i], squared_distance(points[i], latest));
    }
    double total = 0.0;
    for (double d : nearest_sq) total += d;
    if (total <= 0.0) {
      // All remaining points coincide with medoids; pick any non-medoid.
      for (std::size_t i = 0; i < n && result.medoids.size() < k; ++i) {
        bool taken = false;
        for (std::size_t m : result.medoids) taken = taken || (m == i);
        if (!taken) result.medoids.push_back(i);
      }
      break;
    }
    double target = rng.uniform() * total;
    std::size_t chosen = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      target -= nearest_sq[i];
      if (target < 0.0) {
        chosen = i;
        break;
      }
    }
    result.medoids.push_back(chosen);
  }

  result.assignment.assign(n, 0);
  auto assign_all = [&]() {
    double cost = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_cluster = 0;
      for (std::size_t c = 0; c < result.medoids.size(); ++c) {
        const double d = squared_distance(points[i], points[result.medoids[c]]);
        if (d < best) {
          best = d;
          best_cluster = c;
        }
      }
      result.assignment[i] = best_cluster;
      cost += std::sqrt(best);
    }
    return cost;
  };

  result.total_cost = assign_all();
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    bool changed = false;
    // For each cluster, move the medoid to the member minimizing the sum of
    // distances to the other members (the PAM update restricted to within-
    // cluster swaps, which converges and is O(n^2/k) per cluster).
    for (std::size_t c = 0; c < result.medoids.size(); ++c) {
      std::vector<std::size_t> members;
      for (std::size_t i = 0; i < n; ++i) {
        if (result.assignment[i] == c) members.push_back(i);
      }
      if (members.empty()) continue;
      double best_cost = std::numeric_limits<double>::infinity();
      std::size_t best_medoid = result.medoids[c];
      for (std::size_t candidate : members) {
        double cost = 0.0;
        for (std::size_t member : members) {
          cost += std::sqrt(squared_distance(points[candidate], points[member]));
        }
        if (cost < best_cost) {
          best_cost = cost;
          best_medoid = candidate;
        }
      }
      if (best_medoid != result.medoids[c]) {
        result.medoids[c] = best_medoid;
        changed = true;
      }
    }
    const double new_cost = assign_all();
    result.total_cost = new_cost;
    if (!changed) break;
  }
  return result;
}

std::vector<std::vector<double>> three_blobs() {
  std::vector<std::vector<double>> points;
  const double centers[3][2] = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  aqua::Rng rng(77);
  for (const auto& center : centers) {
    for (int i = 0; i < 20; ++i) {
      points.push_back({center[0] + rng.normal(0.0, 0.4), center[1] + rng.normal(0.0, 0.4)});
    }
  }
  return points;
}

TEST(KMedoids, SeparatesWellSeparatedBlobs) {
  const auto points = three_blobs();
  const auto result = kmedoids(points, 3);
  ASSERT_EQ(result.medoids.size(), 3u);
  // Each blob of 20 points should map to one cluster.
  for (int blob = 0; blob < 3; ++blob) {
    std::set<std::size_t> clusters;
    for (int i = 0; i < 20; ++i) clusters.insert(result.assignment[blob * 20 + i]);
    EXPECT_EQ(clusters.size(), 1u) << "blob " << blob << " split across clusters";
  }
}

TEST(KMedoids, MedoidsAreDataPoints) {
  const auto points = three_blobs();
  const auto result = kmedoids(points, 3);
  for (std::size_t m : result.medoids) EXPECT_LT(m, points.size());
}

TEST(KMedoids, MedoidsAreDistinct) {
  const auto points = three_blobs();
  const auto result = kmedoids(points, 3);
  std::set<std::size_t> unique(result.medoids.begin(), result.medoids.end());
  EXPECT_EQ(unique.size(), 3u);
}

TEST(KMedoids, DeterministicGivenSeed) {
  const auto points = three_blobs();
  KMedoidsOptions options;
  options.seed = 5;
  const auto a = kmedoids(points, 3, options);
  const auto b = kmedoids(points, 3, options);
  EXPECT_EQ(a.medoids, b.medoids);
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(KMedoids, KEqualsNIsZeroCost) {
  std::vector<std::vector<double>> points{{0.0}, {1.0}, {2.0}};
  const auto result = kmedoids(points, 3);
  EXPECT_NEAR(result.total_cost, 0.0, 1e-12);
}

TEST(KMedoids, KOneUsesCentralMedoid) {
  std::vector<std::vector<double>> points{{0.0}, {1.0}, {2.0}, {100.0}};
  const auto result = kmedoids(points, 1);
  ASSERT_EQ(result.medoids.size(), 1u);
  // The 1-medoid minimizes total distance: point {2} (cost 3+2+98=103)
  // beats {1} (1+1+99=101)? compute: medoid {1}: 1+0+1+99=101; {2}: 2+1+0+98=101;
  // {0}: 0+1+2+100=103; {100}: 100+99+98=297. Either {1} or {2} is optimal.
  const double m = points[result.medoids[0]][0];
  EXPECT_TRUE(m == 1.0 || m == 2.0);
}

TEST(KMedoids, RejectsBadK) {
  std::vector<std::vector<double>> points{{0.0}, {1.0}};
  EXPECT_THROW(kmedoids(points, 0), InvalidArgument);
  EXPECT_THROW(kmedoids(points, 3), InvalidArgument);
}

TEST(KMedoids, RejectsRaggedPoints) {
  std::vector<std::vector<double>> points{{0.0, 1.0}, {1.0}};
  EXPECT_THROW(kmedoids(points, 1), InvalidArgument);
}

TEST(KMedoids, HandlesDuplicatePoints) {
  std::vector<std::vector<double>> points(10, std::vector<double>{1.0, 1.0});
  const auto result = kmedoids(points, 3);
  EXPECT_EQ(result.medoids.size(), 3u);
  EXPECT_NEAR(result.total_cost, 0.0, 1e-12);
}

TEST(KMedoids, CostDecreasesWithMoreClusters) {
  const auto points = three_blobs();
  const double c1 = kmedoids(points, 1).total_cost;
  const double c3 = kmedoids(points, 3).total_cost;
  EXPECT_LT(c3, c1);
}

// ---------------------------------------------------------------------------
// Oracle property sweep.

/// Asserts kmedoids() reproduces the oracle exactly, including the bit
/// pattern of total_cost.
void expect_matches_oracle(const Points& points, std::size_t k, const KMedoidsOptions& options,
                           const std::string& what) {
  const KMedoidsResult expected = reference_kmedoids(points, k, options);
  const KMedoidsResult actual = kmedoids(points, k, options);
  EXPECT_EQ(actual.medoids, expected.medoids) << what;
  EXPECT_EQ(actual.assignment, expected.assignment) << what;
  EXPECT_EQ(actual.iterations, expected.iterations) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.total_cost),
            std::bit_cast<std::uint64_t>(expected.total_cost))
      << what << ": " << actual.total_cost << " vs " << expected.total_cost;
}

std::size_t distinct_points(const Points& points) {
  return std::set<std::vector<double>>(points.begin(), points.end()).size();
}

/// Gaussian blobs around a few random centers.
Points random_blobs(Rng& rng, std::size_t n, std::size_t dim) {
  const auto centers = static_cast<std::size_t>(rng.uniform_int(1, 5));
  Points means(centers, std::vector<double>(dim));
  for (auto& mean : means) {
    for (double& v : mean) v = rng.uniform(-20.0, 20.0);
  }
  Points points(n, std::vector<double>(dim));
  for (auto& p : points) {
    const auto& mean = means[static_cast<std::size_t>(rng.uniform_int(0, centers - 1))];
    for (std::size_t j = 0; j < dim; ++j) p[j] = mean[j] + rng.normal(0.0, 1.5);
  }
  return points;
}

/// Copies of a handful of prototypes, one of them all-zero (the signature
/// a constant baseline series normalizes to), so medoids can coincide and
/// a medoid's own cluster can be empty.
Points random_duplicates(Rng& rng, std::size_t n, std::size_t dim) {
  const auto prototypes = static_cast<std::size_t>(rng.uniform_int(1, 4));
  Points protos(prototypes, std::vector<double>(dim, 0.0));
  for (std::size_t p = 1; p < prototypes; ++p) {
    for (double& v : protos[p]) v = static_cast<double>(rng.uniform_int(-3, 3));
  }
  Points points(n);
  for (auto& p : points) {
    p = protos[rng.bernoulli(0.5) ? 0
                                  : static_cast<std::size_t>(rng.uniform_int(0, prototypes - 1))];
  }
  return points;
}

TEST(KMedoidsOracle, MatchesReferenceOnRandomInputs) {
  Rng rng(20261017);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 90));
    const auto dim = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const int family = trial % 3;
    Points points;
    if (family == 0) points = random_blobs(rng, n, dim);
    if (family == 1) points = random_duplicates(rng, n, dim);
    if (family == 2) {
      // Everything at one location: seeding takes the total <= 0 fallback.
      points.assign(n, std::vector<double>(dim, rng.uniform(-5.0, 5.0)));
    }
    KMedoidsOptions options;
    options.seed = static_cast<std::uint64_t>(trial);
    // A few runs stop at the iteration cap rather than by convergence.
    options.max_iterations = trial % 7 == 0 ? 1 : 100;
    for (const std::size_t k :
         {std::size_t{1}, n, static_cast<std::size_t>(rng.uniform_int(1, n))}) {
      const std::string what = "trial " + std::to_string(trial) + " family " +
                               std::to_string(family) + " n " + std::to_string(n) + " k " +
                               std::to_string(k);
      expect_matches_oracle(points, k, options, what);
      // With at least k distinct locations, seeding and every medoid move
      // keep the medoids at distinct locations. With fewer, the update step
      // (in both implementations) can move two medoids onto one point.
      if (distinct_points(points) >= k) {
        const auto medoids = kmedoids(points, k, options).medoids;
        EXPECT_EQ(std::set<std::size_t>(medoids.begin(), medoids.end()).size(), k) << what;
      }
    }
  }
}

TEST(KMedoidsOracle, SeedingFallbackPicksAPositiveWeightPoint) {
  // The squared distances overflow to +inf, so the weighted draw's running
  // target turns NaN and the scan ends without a pick. The last point
  // (index 2) is co-located with the first medoid whenever that is 1 or 2;
  // the fallback must take the remaining location, index 0.
  const Points points{{1e300}, {0.0}, {0.0}};
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    KMedoidsOptions options;
    options.seed = seed;
    const auto result = kmedoids(points, 2, options);
    const std::set<double> locations{points[result.medoids[0]][0],
                                     points[result.medoids[1]][0]};
    EXPECT_EQ(locations.size(), 2u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Work counter.

TEST(KMedoidsWork, DistanceEvaluationsRepeatExactly) {
  const auto points = three_blobs();
  const auto a = kmedoids(points, 3);
  const auto b = kmedoids(points, 3);
  EXPECT_GT(a.distance_evaluations, 0u);
  EXPECT_EQ(a.distance_evaluations, b.distance_evaluations);
}

TEST(KMedoidsWork, CityPlacementDoesUnderAQuarterOfTheOracleWork) {
  // Sensor placement on the 1k-node city at 2% IoT, as the benchmark runs
  // it at 5k: the cache and the clean-cluster skip must cut the distance
  // evaluations the oracle's loop structure performs by more than 4x.
  hydraulics::Network city;
  networks::make_city(city, networks::city_spec_for_nodes(1000));
  hydraulics::Simulation simulation(city, {});
  const auto points = sensing::placement_signatures(city, simulation.run());
  const std::size_t k = sensing::sensors_for_percentage(city, 2.0);

  reference_evaluations = 0;
  const auto expected = reference_kmedoids(points, k);
  const std::size_t oracle_work = reference_evaluations;
  const auto actual = kmedoids(points, k);
  EXPECT_EQ(actual.medoids, expected.medoids);
  EXPECT_EQ(actual.iterations, expected.iterations);
  EXPECT_EQ(kmedoids(points, k).distance_evaluations, actual.distance_evaluations);
  // Seeding alone computes one distance column per medoid.
  EXPECT_GE(actual.distance_evaluations, k * points.size());
  EXPECT_LT(actual.distance_evaluations * 4, oracle_work)
      << actual.distance_evaluations << " vs oracle " << oracle_work;
}

}  // namespace
}  // namespace aqua::graph
