#include "workload.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "common/thread_pool.hpp"

namespace perfbench {

void Outcome::gate(const std::string& name, bool ok, const std::string& detail) {
  if (!ok) correct = false;
  note("gate " + name + ": " + (ok ? "ok" : "FAILED") + " (" + detail + ")");
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

SetupTimes time_setups(const std::function<void()>& setup) {
  const std::size_t threads = aqua::ThreadPool::global().size();
  SetupTimes times;
  times.reference.push_back(reference_seconds(threads));
  for (std::size_t i = 0; i < kSetups; ++i) {
    const double cpu_start = cpu_seconds();
    const double start = now_seconds();
    {
      const ScopedSpan root("setup");
      setup();
    }
    times.wall.push_back(now_seconds() - start);
    times.cpu.push_back(cpu_seconds() - cpu_start);
    times.reference.push_back(reference_seconds(threads));
  }
  return times;
}

double run_reference_s(const SetupTimes& setups, const PassTimes& passes) {
  std::vector<double> readings = setups.reference;
  readings.insert(readings.end(), passes.reference.begin(), passes.reference.end());
  return median(readings);
}

double at_nominal_speed(double cpu_s, double reference_s) {
  return cpu_s * kNominalReferenceS / reference_s;
}

std::string describe(const SetupTimes& setups, const PassTimes& passes) {
  std::string text;
  char value[32];
  const auto append = [&](const char* label, const std::vector<double>& seconds) {
    text += label;
    for (const double s : seconds) {
      std::snprintf(value, sizeof value, " %.4f", s);
      text += value;
    }
  };
  append("setups: wall", setups.wall);
  append(" s; cpu", setups.cpu);
  append(" s; reference", setups.reference);
  append(" s. passes: wall", passes.all);
  append(" s; untraced cpu", passes.untraced_cpu);
  append(" s; reference", passes.reference);
  return text + " s";
}

bool pass_traced(const Options& options, std::size_t pass) {
  return options.trace && pass % 2 == 1;
}

PassTimes run_passes(const Options& options, const std::function<void(std::size_t)>& pass) {
  PassTimes times;
  const std::size_t threads = aqua::ThreadPool::global().size();
  times.reference.push_back(reference_seconds(threads));
  const double begin = now_seconds();
  for (std::size_t index = 0;
       index < kMinPasses || now_seconds() - begin < options.seconds; ++index) {
    const bool traced = pass_traced(options, index);
    tracer().set_enabled(traced);
    const double cpu_start = cpu_seconds();
    const double start = now_seconds();
    {
      const ScopedSpan root("pass");
      pass(index);
    }
    const double wall = now_seconds() - start;
    const double cpu = cpu_seconds() - cpu_start;
    tracer().set_enabled(false);
    times.reference.push_back(reference_seconds(threads));
    times.all.push_back(wall);
    (traced ? times.traced : times.untraced).push_back(wall);
    if (!traced) times.untraced_cpu.push_back(cpu);
  }
  return times;
}

double cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

namespace {

/// A random single cycle through 8 MiB, built once.
const std::vector<std::uint32_t>& chase_cycle() {
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> cycle(std::size_t{1} << 21);
    for (std::uint32_t i = 0; i < cycle.size(); ++i) cycle[i] = i;
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = cycle.size() - 1; i > 0; --i) {  // Sattolo's shuffle
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(cycle[i], cycle[(state >> 33) % i]);
    }
    return cycle;
  }();
  return next;
}

/// The reference computation of one thread: memory latency (a walk along
/// the 8 MiB cycle), branchy lookups (binary searches in 256 KiB), dense
/// arithmetic (48x48 matrix-vector products) and sorting (16 Ki doubles),
/// fixed in size. In runs on a shared host whose speed drifted by 10-30%,
/// its CPU time tracked the passes' (correlation 0.9 on corpus_city and
/// train_epa); a pure integer-arithmetic loop barely moved.
std::uint64_t reference_work(std::uint64_t seed) {
  const auto& next = chase_cycle();
  std::uint32_t at = static_cast<std::uint32_t>(seed % next.size());
  for (std::size_t step = 0; step < (std::size_t{1} << 20); ++step) at = next[at];

  std::vector<std::uint32_t> sorted(std::size_t{1} << 16);
  for (std::uint32_t i = 0; i < sorted.size(); ++i) sorted[i] = 3 * i;
  std::uint64_t found = 0;
  for (std::size_t query = 0; query < 600000; ++query) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto key = static_cast<std::uint32_t>((seed >> 40) % (3 * sorted.size()));
    found += static_cast<std::uint64_t>(std::lower_bound(sorted.begin(), sorted.end(), key) -
                                        sorted.begin());
  }

  constexpr std::size_t kDim = 48;
  std::vector<double> matrix(kDim * kDim), x(kDim, 1.0), y(kDim);
  // Row sums at most 1 and one entry of x reset to 1 each round keep every
  // value in [1/(7 kDim), 1]: no overflow, no denormals.
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    matrix[i] = 1.0 / static_cast<double>(kDim * (1 + i % 7));
  }
  for (std::size_t round = 0; round < 12000; ++round) {
    for (std::size_t r = 0; r < kDim; ++r) {
      double sum = 0.0;
      for (std::size_t c = 0; c < kDim; ++c) sum += matrix[r * kDim + c] * x[c];
      y[r] = sum;
    }
    std::swap(x, y);
    x[round % kDim] = 1.0;
  }

  std::vector<double> values(std::size_t{1} << 14);
  double middle = 0.0;
  for (int round = 0; round < 30; ++round) {
    for (double& value : values) {
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      value = static_cast<double>(seed >> 11);
    }
    std::sort(values.begin(), values.end());
    middle += values[values.size() / 2];
  }
  return at + found + static_cast<std::uint64_t>(x[0] > 0.0) + static_cast<std::uint64_t>(middle);
}

}  // namespace

double reference_seconds(std::size_t threads) {
  chase_cycle();  // built outside the measurement
  std::atomic<std::uint64_t> sink{0};
  const double start = cpu_seconds();
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&sink, t] {
      sink.fetch_add(reference_work(0x2545f4914f6cdd1dULL * (t + 1)), std::memory_order_relaxed);
    });
  }
  for (std::thread& worker : workers) worker.join();
  return (cpu_seconds() - start) / static_cast<double>(threads);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

namespace {

/// Layers named after the library's modules.
const std::vector<std::string> kLayers = {"core",    "hydraulics", "linalg", "ml",     "io",
                                          "sensing", "graph",      "fusion", "serving"};

double value_or_zero(const std::map<std::string, double>& values, const std::string& key) {
  const auto it = values.find(key);
  return it == values.end() ? 0.0 : it->second;
}

}  // namespace

void add_trace_metrics(Outcome& outcome, const PassTimes& passes,
                       const std::vector<std::pair<const char*, const char*>>& span_metrics) {
  const auto spans = tracer().spans();
  const Breakdown per_root[] = {breakdown(spans, "setup"), breakdown(spans, "pass")};

  // Each quantity is reported per setup plus per traced pass, so a number
  // reads as "what one setup and one pass spend on it".
  auto per_unit = [&](auto&& value_of) {
    double total = 0.0;
    for (const Breakdown& b : per_root) {
      if (b.roots > 0) total += value_of(b) / static_cast<double>(b.roots);
    }
    return total;
  };

  bool sums_ok = true;
  bool layers_known = true;
  for (const Breakdown& b : per_root) {
    double attributed = b.unattributed_s;
    for (const auto& [layer, seconds] : b.layer_self_s) {
      attributed += seconds;
      layers_known &= std::find(kLayers.begin(), kLayers.end(), layer) != kLayers.end();
    }
    // Rounding over ~1e5 spans stays far below a microsecond; a span
    // attributed twice or lost would be off by its whole duration.
    sums_ok &= std::abs(attributed - b.wall_s) <= 1e-6;
  }
  char detail[160];
  std::snprintf(detail, sizeof detail, "setup wall %.6f s, pass wall %.6f s, unattributed %.6f s",
                per_root[0].wall_s, per_root[1].wall_s,
                per_root[0].unattributed_s + per_root[1].unattributed_s);
  outcome.gate("trace-breakdown-sums", sums_ok && layers_known, detail);

  for (const auto& [span, metric] : span_metrics) {
    outcome.add(metric,
                per_unit([&](const Breakdown& b) { return value_or_zero(b.span_total_s, span); }),
                "s");
  }
  // Layers the benchmark has no spans for (hydraulics and linalg run
  // inside core calls) get no breakdown entry.
  for (const std::string& layer : kLayers) {
    if (!per_root[0].layer_self_s.count(layer) && !per_root[1].layer_self_s.count(layer)) continue;
    outcome.add("breakdown." + layer + "_s",
                per_unit([&](const Breakdown& b) { return value_or_zero(b.layer_self_s, layer); }),
                "s");
  }
  outcome.add("trace.wall_s", per_unit([](const Breakdown& b) { return b.wall_s; }), "s");
  outcome.add("trace.unattributed_s",
              per_unit([](const Breakdown& b) { return b.unattributed_s; }), "s");
  const double untraced = median(passes.untraced);
  outcome.add("trace.overhead", untraced > 0.0 ? median(passes.traced) / untraced : 0.0,
              "ratio");
}

}  // namespace perfbench
