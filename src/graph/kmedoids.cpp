#include "graph/kmedoids.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <new>

#include <sys/mman.h>

#include "common/error.hpp"

namespace aqua::graph {
namespace {

/// Maps each allocation straight from the OS and unmaps it on release. The
/// distance cache and the row copy are tens of MB at city scale and live
/// only for one call. Through malloc, freeing them would raise glibc's
/// dynamic mmap threshold to their size (up to 32 MB); later allocations
/// below that size would then come from heap arenas that keep their pages.
/// Placing sensors on a 5k-node city before simulating a corpus on it
/// raised the corpus run's peak RSS from 269 to 310 MB that way.
template <typename T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}

  T* allocate(std::size_t count) {
    if (count == 0) return nullptr;
    void* p = mmap(nullptr, count * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t count) noexcept {
    if (p != nullptr) munmap(p, count * sizeof(T));
  }

  template <typename U>
  bool operator==(const PageAllocator<U>&) const noexcept {
    return true;
  }
};

using PageVector = std::vector<double, PageAllocator<double>>;

/// Squared Euclidean distances from row `a` to rows `b[0..3]`: four
/// independent sums, each accumulated in dimension order, so each equals the
/// one-pair sum bit for bit while the four add chains overlap. Symmetric bit
/// for bit: a - b is the exact negation of b - a.
void squared_distances4(const double* a, const double* const* b, std::size_t dim,
                        double* out) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (std::size_t j = 0; j < dim; ++j) {
    const double d0 = a[j] - b[0][j];
    const double d1 = a[j] - b[1][j];
    const double d2 = a[j] - b[2][j];
    const double d3 = a[j] - b[3][j];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

double squared_distance(const double* a, const double* b, std::size_t dim) {
  double sum = 0.0;
  for (std::size_t j = 0; j < dim; ++j) {
    const double d = a[j] - b[j];
    sum += d * d;
  }
  return sum;
}

/// The points copied once into one row-major buffer, plus the distance
/// evaluation count reported as KMedoidsResult::distance_evaluations.
class Rows {
 public:
  explicit Rows(const std::vector<std::vector<double>>& points)
      : dim_(points.front().size()), data_(points.size() * dim_) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (std::size_t j = 0; j < dim_; ++j) data_[i * dim_ + j] = points[i][j];
    }
  }

  /// out[t] = squared distance from point `a` to point `others[t]`.
  void distances_sq(std::size_t a, const std::size_t* others, std::size_t count,
                    double* out) {
    evaluations_ += count;
    const double* from = row(a);
    std::size_t t = 0;
    for (; t + 4 <= count; t += 4) {
      const double* to[4] = {row(others[t]), row(others[t + 1]), row(others[t + 2]),
                             row(others[t + 3])};
      squared_distances4(from, to, dim_, out + t);
    }
    for (; t < count; ++t) out[t] = squared_distance(from, row(others[t]), dim_);
  }

  std::size_t evaluations() const noexcept { return evaluations_; }

 private:
  const double* row(std::size_t i) const noexcept { return data_.data() + i * dim_; }

  std::size_t dim_;
  PageVector data_;
  std::size_t evaluations_ = 0;
};

}  // namespace

KMedoidsResult kmedoids(const std::vector<std::vector<double>>& points, std::size_t k,
                        const KMedoidsOptions& options) {
  const std::size_t n = points.size();
  AQUA_REQUIRE(k >= 1, "k must be positive");
  AQUA_REQUIRE(k <= n, "k cannot exceed the number of points");
  for (const auto& p : points) {
    AQUA_REQUIRE(p.size() == points.front().size(), "points must share a dimension");
  }

  Rng rng(options.seed);
  KMedoidsResult result;
  Rows rows(points);

  // columns[c * n + i] is the squared distance from point i to medoid c. A
  // column is computed when its medoid is chosen and again only when the
  // medoid moves; assignment reads the cache.
  PageVector columns(k * n);
  std::vector<std::size_t> all_points(n);
  for (std::size_t i = 0; i < n; ++i) all_points[i] = i;
  auto fill_column = [&](std::size_t c) {
    rows.distances_sq(result.medoids[c], all_points.data(), n, columns.data() + c * n);
  };
  // Columns of several moved medoids, four per pass over the points, so
  // the point rows stream through the cache once per four columns.
  auto fill_columns = [&](const std::vector<std::size_t>& clusters) {
    for (std::size_t first = 0; first < clusters.size(); first += 4) {
      const std::size_t count = std::min<std::size_t>(4, clusters.size() - first);
      if (count == 1) {
        fill_column(clusters[first]);
        continue;
      }
      std::size_t medoids[4];
      double* column[4];
      for (std::size_t q = 0; q < count; ++q) {
        medoids[q] = result.medoids[clusters[first + q]];
        column[q] = columns.data() + clusters[first + q] * n;
      }
      double sq[4];
      for (std::size_t i = 0; i < n; ++i) {
        rows.distances_sq(i, medoids, count, sq);
        for (std::size_t q = 0; q < count; ++q) column[q][i] = sq[q];
      }
    }
  };

  // k-means++-style seeding: first medoid uniform, the rest proportional to
  // squared distance from the nearest chosen medoid.
  result.medoids.push_back(static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
  std::vector<double> nearest_sq(n, std::numeric_limits<double>::infinity());
  std::size_t filled = 0;  // columns computed so far
  while (result.medoids.size() < k) {
    fill_column(filled);
    const double* column = columns.data() + filled++ * n;
    for (std::size_t i = 0; i < n; ++i) nearest_sq[i] = std::min(nearest_sq[i], column[i]);
    double total = 0.0;
    for (double d : nearest_sq) total += d;
    if (total <= 0.0) {
      // All remaining points coincide with medoids; pick any non-medoid.
      std::vector<char> taken(n, 0);
      for (std::size_t m : result.medoids) taken[m] = 1;
      for (std::size_t i = 0; i < n && result.medoids.size() < k; ++i) {
        if (!taken[i]) result.medoids.push_back(i);
      }
      break;
    }
    double target = rng.uniform() * total;
    std::size_t chosen = n;
    std::size_t last_positive = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      if (nearest_sq[i] > 0.0) last_positive = i;
      target -= nearest_sq[i];
      if (target < 0.0) {
        chosen = i;
        break;
      }
    }
    // Rounding can leave target >= 0 after the whole scan. Fall back to a
    // point with positive weight: it is neither a medoid nor co-located
    // with one.
    result.medoids.push_back(chosen < n ? chosen : last_positive);
  }
  // Seeding never needed the columns of the medoids it added last.
  for (std::size_t c = filled; c < k; ++c) fill_column(c);

  // Nearest medoid per point from the cache. Clusters are scanned in order
  // and only a strictly smaller distance wins, so ties go to the lowest
  // cluster index, as a per-point scan over clusters would.
  std::vector<double> best(n);
  result.assignment.assign(n, 0);
  auto assign_all = [&]() {
    std::fill(best.begin(), best.end(), std::numeric_limits<double>::infinity());
    std::fill(result.assignment.begin(), result.assignment.end(), 0);
    for (std::size_t c = 0; c < k; ++c) {
      const double* column = columns.data() + c * n;
      for (std::size_t i = 0; i < n; ++i) {
        if (column[i] < best[i]) {
          best[i] = column[i];
          result.assignment[i] = c;
        }
      }
    }
    double cost = 0.0;
    for (std::size_t i = 0; i < n; ++i) cost += std::sqrt(best[i]);
    return cost;
  };

  // A cluster is dirty when its member list changed since it was last
  // evaluated. The medoid update is a deterministic function of the member
  // list and the current medoid, and it left that medoid in place, so a
  // clean cluster would keep it again.
  std::vector<char> dirty(k, 1);
  std::vector<std::size_t> previous(n);
  std::vector<std::size_t> offsets(k + 1);
  std::vector<std::size_t> members(n);
  std::vector<double> cost;
  std::vector<double> row_sq;
  std::vector<std::size_t> moved;

  result.total_cost = assign_all();
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Bucket members by cluster, in point order.
    std::fill(offsets.begin(), offsets.end(), 0);
    for (std::size_t c : result.assignment) ++offsets[c + 1];
    for (std::size_t c = 0; c < k; ++c) offsets[c + 1] += offsets[c];
    {
      std::vector<std::size_t> next(offsets.begin(), offsets.end() - 1);
      for (std::size_t i = 0; i < n; ++i) members[next[result.assignment[i]]++] = i;
    }
    // For each cluster, move the medoid to the member minimizing the sum of
    // distances to the other members (the PAM update restricted to within-
    // cluster swaps, which converges and is O(n^2/k) per cluster).
    for (std::size_t c = 0; c < k; ++c) {
      const std::size_t* cluster = members.data() + offsets[c];
      const std::size_t m = offsets[c + 1] - offsets[c];
      if (!dirty[c] || m == 0) continue;
      // Each unordered pair is evaluated once and added to both ends, row
      // by row: cost[b] still sums its terms in member order (rows a < b
      // first, then row b itself), and the skipped self term is +0.0.
      cost.assign(m, 0.0);
      row_sq.resize(m);
      for (std::size_t a = 0; a + 1 < m; ++a) {
        rows.distances_sq(cluster[a], cluster + a + 1, m - a - 1, row_sq.data());
        for (std::size_t b = a + 1; b < m; ++b) {
          const double d = std::sqrt(row_sq[b - a - 1]);
          cost[a] += d;
          cost[b] += d;
        }
      }
      double best_cost = std::numeric_limits<double>::infinity();
      std::size_t best_medoid = result.medoids[c];
      for (std::size_t a = 0; a < m; ++a) {
        if (cost[a] < best_cost) {
          best_cost = cost[a];
          best_medoid = cluster[a];
        }
      }
      if (best_medoid != result.medoids[c]) {
        result.medoids[c] = best_medoid;
        moved.push_back(c);
      }
    }
    fill_columns(moved);
    previous.swap(result.assignment);
    result.total_cost = assign_all();
    std::fill(dirty.begin(), dirty.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (previous[i] != result.assignment[i]) {
        dirty[previous[i]] = 1;
        dirty[result.assignment[i]] = 1;
      }
    }
    if (moved.empty()) break;
    moved.clear();
  }
  result.distance_evaluations = rows.evaluations();
  return result;
}

}  // namespace aqua::graph
