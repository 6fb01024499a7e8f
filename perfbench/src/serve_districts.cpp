// serve_districts: Phase II online. A ServingDaemon hosts 4 districts,
// alternating EPA-NET and WSSC models, under skewed traffic (district d gets
// weight 1/(d+1)). One generator thread (the caller) drives it; each
// request carries features, a frozen mask and tweet cliques. A publisher
// thread hot-swaps district models from the mmapped artifacts at a fixed
// rate throughout.
//
// A run is two sweeps against fresh daemons. Each sweep has two phases:
//   * ladder — open-loop Poisson arrivals at each rate of a fixed ladder,
//     latency timed from each request's scheduled arrival. A rate's p50/p99
//     are the medians of the percentiles of its 0.2 s sub-windows (one
//     swap each), so one stall does not decide a run. The sustainable rate
//     is where p99 crosses the 10 ms limit, interpolated in log(p99)
//     between the last ladder rate that meets it (with no failures and no
//     backlog at the end of its window) and the next one;
//   * drain — the generator keeps kDrainInFlight / kDistricts requests
//     outstanding in every district, so each district always has a backlog
//     and serves full batches whatever its share of the ladder's traffic;
//     each 0.2 s sub-window gives requests served per second and per
//     process CPU second. (With one backlog shared by all districts, the
//     slowest district held most of it and the others served small batches
//     whose size, and so the CPU per request, changed from run to run.)
// On a shared 4-vCPU VM the ladder's latency percentiles and the drain's
// wall-clock throughput move by a quarter or more between runs with the
// neighbours' load, so they are note lines and per-layer figures. The
// end-to-end figure is the median over sub-windows of requests served per
// CPU second at nominal host speed (see kNominalReferenceS).
//
// Setup trains both profiles, saves their artifacts and runs every request
// through a sequential InferenceEngine: the reference each daemon result
// must match bit for bit.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stop_token>
#include <thread>

#include "common/stats.hpp"
#include "ml/metrics.hpp"
#include "networks/builtin.hpp"
#include "phase.hpp"
#include "serving/daemon.hpp"

namespace perfbench {

using namespace aqua;

namespace {

constexpr std::size_t kDistricts = 4;
constexpr std::size_t kMaxBatch = 32;
constexpr std::size_t kQueueCapacity = std::size_t{1} << 16;  // overload queues, never sheds
constexpr double kIotPercent = 30.0;
constexpr double kLatencyLimitMs = 10.0;
constexpr double kLowRate = 10000.0;
constexpr double kHighRate = 15000.0;
constexpr std::array<double, 5> kLadder = {5000.0, 10000.0, 15000.0, 20000.0, 25000.0};
constexpr double kSubWindowS = 0.2;
constexpr double kSwapPeriodS = 0.2;
constexpr std::size_t kSweepsPerRun = 2;
constexpr double kLadderShare = 0.35;  // of each sweep; the drain phase gets the rest
constexpr std::uint64_t kDrainInFlight = 4096;
constexpr double kDrainMaxRate = 60000.0;  // sizes the drain phase's pre-drawn requests
// The deployed models are fixed; --seed drives the traffic and requests.
constexpr std::uint64_t kModelSeed = 2017;

/// One network kind's serving assets.
struct Kind {
  std::string name;
  hydraulics::Network network;
  std::shared_ptr<const core::ProfileModel> profile;
  std::vector<core::LeakScenario> scenarios;  // truth of each request
  std::vector<core::InferenceInputs> requests;
  std::vector<core::InferenceResult> reference;
  std::string artifact;
  std::size_t artifact_bytes = 0;
};

/// Trains the kind's profile on a corpus drawn from `model_seed` and
/// builds its request pool from `request_seed`.
Kind make_kind(const std::string& name, hydraulics::Network network, std::size_t train_count,
               std::size_t request_count, std::uint64_t model_seed, std::uint64_t request_seed,
               const std::string& scratch) {
  Kind kind{name, std::move(network), nullptr, {}, {}, {}, scratch + "/serve_" + name + ".aquamodl",
            0};
  core::ScenarioGenerator train_generator(kind.network, cold_scenario_config(model_seed));
  core::ScenarioGenerator request_generator(kind.network, cold_scenario_config(request_seed));
  Corpus train_set, request_set;
  train_set.scenarios = generate(train_generator, train_count);
  request_set.scenarios = generate(request_generator, request_count);
  train_set.batch = simulate(kind.network, train_set.scenarios);
  request_set.batch = simulate(kind.network, request_set.scenarios);
  if (!train_set.batch || !request_set.batch) {
    throw std::runtime_error(name + ": setup corpus failed to simulate");
  }
  const auto sensors = place_sensors(kind.network, kIotPercent, model_seed ^ 0x5e5eULL);
  kind.profile =
      std::make_shared<const core::ProfileModel>(train(train_set, sensors, model_seed));
  kind.artifact_bytes = save(*kind.profile, kind.artifact);
  kind.requests =
      build_requests(kind.network, request_set, *kind.profile, request_seed ^ 0x9999ULL);
  kind.scenarios = std::move(request_set.scenarios);

  const core::InferenceEngine engine(*kind.profile, {.parallel = false});
  const ScopedSpan span("core.inference");
  for (const auto& request : kind.requests) kind.reference.push_back(engine.infer(request));
  return kind;
}

/// Pre-drawn arrivals of one phase: offsets from the phase's epoch (empty
/// for the drain phase), target district and request index.
struct Schedule {
  std::vector<double> offset_s;
  std::vector<std::uint8_t> district;
  std::vector<std::uint32_t> request;
};

/// Poisson arrivals at `rate` over `window_s`. With `timed` false (the
/// drain phase) only the request of each arrival is kept, and arrival i
/// goes to district i % kDistricts: the generator picks districts by their
/// backlog, and its k-th request to district d is arrival d + kDistricts k.
Schedule make_schedule(double rate, double window_s, bool timed, const std::vector<Kind>& kinds,
                       std::uint64_t seed) {
  std::vector<double> weights(kDistricts);
  for (std::size_t d = 0; d < kDistricts; ++d) weights[d] = 1.0 / static_cast<double>(d + 1);
  Rng rng(seed);
  Schedule schedule;
  for (double t = rng.exponential(rate); t < window_s; t += rng.exponential(rate)) {
    const std::size_t d =
        timed ? rng.weighted_index(weights) : schedule.district.size() % kDistricts;
    const auto pool = static_cast<std::int64_t>(kinds[d % kinds.size()].requests.size());
    if (timed) schedule.offset_s.push_back(t);
    schedule.district.push_back(static_cast<std::uint8_t>(d));
    schedule.request.push_back(static_cast<std::uint32_t>(rng.uniform_int(0, pool - 1)));
  }
  return schedule;
}

/// Per-request record of one sweep, indexed by arrival order over every
/// phase. Each slot is written by exactly one thread: the generator before
/// submitting, then the worker that served it.
struct Records {
  std::vector<double> due, lag, complete, queue, infer;
  std::vector<std::uint8_t> submitted, served, mismatch;
  std::vector<std::size_t> phase_begin;  // first arrival of each phase, plus end

  explicit Records(const std::vector<Schedule>& phases) {
    std::size_t total = 0;
    for (const Schedule& s : phases) {
      phase_begin.push_back(total);
      total += s.district.size();
    }
    phase_begin.push_back(total);
    for (auto* column : {&due, &lag, &complete, &queue, &infer}) column->assign(total, 0.0);
    for (auto* column : {&submitted, &served, &mismatch}) column->assign(total, 0);
  }
};

struct SweepResult {
  explicit SweepResult(const std::vector<Schedule>& phases) : records(phases) {}

  Records records;
  std::uint64_t shed = 0;
  std::uint64_t batches = 0;
  std::uint64_t swaps = 0;
  std::vector<double> drain_per_s;      // served per second, per sub-window
  std::vector<double> drain_per_cpu_s;  // served per process CPU second, per sub-window
  std::vector<double> swap_load_s;
  std::vector<double> forest_compile_s;
  std::size_t compiled_trees = 0;
  telemetry::StageTimes inference = core::InferenceEngine::make_telemetry_schema();
};

/// Runs the ladder rates and then the drain phase (the last schedule of
/// `phases`) against a fresh daemon while a publisher hot-swaps models.
SweepResult run_sweep(const std::vector<Kind>& kinds, const std::vector<Schedule>& phases,
                      double drain_window_s) {
  SweepResult result(phases);
  Records& records = result.records;

  // Sequence k of district d is the k-th arrival the phases send to d.
  std::array<std::vector<std::uint32_t>, kDistricts> arrival_of;
  std::vector<std::uint32_t> request_of;
  for (const Schedule& phase : phases) {
    for (std::size_t i = 0; i < phase.district.size(); ++i) {
      arrival_of[phase.district[i]].push_back(static_cast<std::uint32_t>(request_of.size()));
      request_of.push_back(phase.request[i]);
    }
  }

  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> served{0};
  std::array<std::atomic<std::uint64_t>, kDistricts> served_by{};
  serving::ResultSink sink = [&](const serving::ResultEvent& event,
                                 const core::InferenceResult& got) {
    const std::size_t g = arrival_of[event.district][event.sequence];
    const Kind& kind = kinds[event.district % kinds.size()];
    records.complete[g] = event.complete_seconds;
    records.queue[g] = event.queue_seconds;
    records.infer[g] = event.infer_seconds;
    records.mismatch[g] = identical(got, kind.reference[request_of[g]]) ? 0 : 1;
    records.served[g] = 1;
    served_by[event.district].fetch_add(1, std::memory_order_release);
    served.fetch_add(1, std::memory_order_release);
  };

  std::vector<serving::DistrictConfig> configs(kDistricts);
  for (std::size_t d = 0; d < kDistricts; ++d) {
    const Kind& kind = kinds[d % kinds.size()];
    configs[d].name = kind.name + std::to_string(d);
    configs[d].model = std::make_shared<serving::ModelBundle>(kind.profile, 1);
    configs[d].queue_capacity = kQueueCapacity;
    configs[d].max_batch = kMaxBatch;
  }
  serving::ServingDaemonOptions daemon_options;
  daemon_options.num_workers =
      std::min<std::size_t>(kDistricts, std::max(1U, std::thread::hardware_concurrency()));
  std::unique_ptr<serving::ServingDaemon> daemon;
  {
    const ScopedSpan span("serving.start");
    daemon = std::make_unique<serving::ServingDaemon>(
        configs, daemon_options, sink,
        [&](std::size_t, std::uint64_t) { shed.fetch_add(1, std::memory_order_relaxed); });
  }

  std::array<std::uint64_t, kDistricts> next_sequence{};
  const auto submit = [&](std::size_t g, std::size_t d, std::uint32_t request, double due_s) {
    records.due[g] = due_s;
    records.lag[g] = now_seconds() - due_s;
    records.submitted[g] = 1;
    const ScopedSpan span("serving.submit");
    const std::uint64_t sequence =
        daemon->submit(d, kinds[d % kinds.size()].requests[request], due_s);
    if (sequence != next_sequence[d]++) {
      throw std::logic_error("daemon sequence numbers out of submission order");
    }
  };

  {
    // Publisher: at a fixed rate (one swap per kSwapPeriodS, start to
    // start), load the next district's artifact (mmap) and publish it, so
    // every latency sub-window sees the same swap load. Joined before the
    // daemon is destroyed. A replaced bundle is kept until its district's
    // next swap, by when its batches have finished, and its engine
    // telemetry is collected then.
    std::array<std::shared_ptr<const serving::ModelBundle>, kDistricts> retired{};
    std::mutex wake_mutex;
    std::condition_variable_any wake;
    std::jthread publisher([&](std::stop_token stop) {
      const ScopedSpan root("publisher");
      const auto period = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(kSwapPeriodS));
      auto next = std::chrono::steady_clock::now();
      std::uint64_t version = 2;
      for (std::size_t target = 0;; target = (target + 1) % kDistricts, ++version) {
        next = std::max(next + period, std::chrono::steady_clock::now());
        {
          std::unique_lock<std::mutex> lock(wake_mutex);
          if (wake.wait_until(lock, stop, next, [] { return false; }) || stop.stop_requested()) {
            return;
          }
        }
        const double start = now_seconds();
        std::shared_ptr<const serving::ModelBundle> bundle;
        {
          const ScopedSpan span("io.load");
          bundle = serving::load_bundle(kinds[target % kinds.size()].artifact, version);
        }
        result.swap_load_s.push_back(now_seconds() - start);
        result.forest_compile_s.push_back(bundle->forest_report().seconds);
        result.compiled_trees = bundle->forest_report().trees;
        auto previous = daemon->model(target);
        {
          const ScopedSpan span("serving.swap");
          daemon->swap_model(target, std::move(bundle));
        }
        if (retired[target]) result.inference.merge(retired[target]->engine().telemetry_snapshot());
        retired[target] = std::move(previous);
        ++result.swaps;
      }
    });

    // Ladder: open-loop arrivals at their due times.
    for (std::size_t r = 0; r + 1 < phases.size(); ++r) {
      const Schedule& schedule = phases[r];
      const auto epoch = std::chrono::steady_clock::now() + std::chrono::milliseconds(1);
      const double epoch_s = std::chrono::duration<double>(epoch.time_since_epoch()).count();
      for (std::size_t i = 0; i < schedule.district.size(); ++i) {
        const auto due = epoch + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                     std::chrono::duration<double>(schedule.offset_s[i]));
        if (std::chrono::steady_clock::now() < due) std::this_thread::sleep_until(due);
        submit(records.phase_begin[r] + i, schedule.district[i], schedule.request[i],
               epoch_s + schedule.offset_s[i]);
      }
      const ScopedSpan span("serving.drain");
      daemon->drain();
    }

    // Drain phase: keep kDrainInFlight / kDistricts requests outstanding in
    // every district until the window closes, and count what is served in
    // each sub-window.
    const Schedule& drain = phases.back();
    const std::size_t first = records.phase_begin[phases.size() - 1];
    const double start = now_seconds();
    double mark = start;
    double cpu_at_mark = cpu_seconds();
    std::uint64_t served_at_mark = served.load(std::memory_order_acquire);
    std::array<std::size_t, kDistricts> drained{};  // drain requests sent to each district
    for (double now = start; now - start < drain_window_s; now = now_seconds()) {
      if (now - mark >= kSubWindowS) {
        const std::uint64_t served_now = served.load(std::memory_order_acquire);
        const double cpu_now = cpu_seconds();
        const auto served_in_window = static_cast<double>(served_now - served_at_mark);
        result.drain_per_s.push_back(served_in_window / (now - mark));
        result.drain_per_cpu_s.push_back(served_in_window / (cpu_now - cpu_at_mark));
        mark = now;
        cpu_at_mark = cpu_now;
        served_at_mark = served_now;
      }
      std::size_t d = 0;
      std::uint64_t least = kDrainInFlight;
      for (std::size_t k = 0; k < kDistricts; ++k) {
        const std::uint64_t outstanding =
            next_sequence[k] - served_by[k].load(std::memory_order_acquire);
        if (outstanding < least) {
          least = outstanding;
          d = k;
        }
      }
      if (least >= kDrainInFlight / kDistricts) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      const std::size_t slot = d + kDistricts * drained[d]++;
      if (slot >= drain.district.size()) break;  // pre-drawn requests used up
      submit(first + slot, d, drain.request[slot], now);
    }
    {
      const ScopedSpan span("serving.drain");
      daemon->drain();
    }

    publisher.request_stop();
    publisher.join();
    for (std::size_t d = 0; d < kDistricts; ++d) {
      result.batches +=
          daemon->district_telemetry(d).count(serving::ServingDaemon::kCounterBatches);
      result.inference.merge(daemon->model(d)->engine().telemetry_snapshot());
      if (retired[d]) result.inference.merge(retired[d]->engine().telemetry_snapshot());
    }
  }
  {
    const ScopedSpan span("serving.stop");
    daemon.reset();
  }
  result.shed = shed.load();
  return result;
}

/// Latency percentiles of one ladder rate over the given sweeps: medians
/// of the per-sub-window percentiles, plus the final sub-windows' p50.
struct RungStats {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double final_p50_ms = 0.0;  // a growing backlog lifts the whole last window
  std::uint64_t failed = 0;   // unserved or mismatched requests
};

RungStats rung_stats(const std::vector<const SweepResult*>& sweeps, std::size_t rung) {
  RungStats stats;
  std::vector<double> p50s, p99s, finals;
  for (const SweepResult* sweep : sweeps) {
    const Records& rec = sweep->records;
    const std::size_t begin = rec.phase_begin[rung], end = rec.phase_begin[rung + 1];
    if (begin == end) continue;
    const double epoch = rec.due[begin];
    std::vector<std::vector<double>> windows;
    for (std::size_t g = begin; g < end; ++g) {
      if (!rec.served[g] || rec.mismatch[g]) {
        ++stats.failed;
        continue;
      }
      const auto w = static_cast<std::size_t>((rec.due[g] - epoch) / kSubWindowS);
      if (windows.size() <= w) windows.resize(w + 1);
      windows[w].push_back(1e3 * (rec.complete[g] - rec.due[g]));
    }
    for (const auto& window : windows) {
      if (window.empty()) continue;
      p50s.push_back(percentile(window, 50.0));
      p99s.push_back(percentile(window, 99.0));
    }
    if (!windows.empty() && !windows.back().empty()) {
      finals.push_back(percentile(windows.back(), 50.0));
    }
  }
  stats.p50_ms = median(p50s);
  stats.p99_ms = median(p99s);
  stats.final_p50_ms = median(finals);
  return stats;
}

/// Highest sustainable rate: interpolated in log(p99) between the last
/// rate of the passing prefix of the ladder and the first failing one.
double max_rate(const std::vector<RungStats>& rungs) {
  const auto passes = [](const RungStats& s) {
    return s.failed == 0 && s.p99_ms <= kLatencyLimitMs && s.final_p50_ms <= kLatencyLimitMs;
  };
  std::size_t first_fail = 0;
  while (first_fail < rungs.size() && passes(rungs[first_fail])) ++first_fail;
  if (first_fail == rungs.size()) return kLadder.back();
  const double hi_p99 = std::max({rungs[first_fail].p99_ms, rungs[first_fail].final_p50_ms,
                                  kLatencyLimitMs});
  if (first_fail == 0) return kLadder[0] * kLatencyLimitMs / hi_p99;
  const double lo_rate = kLadder[first_fail - 1];
  const double lo_log = std::log(std::max(rungs[first_fail - 1].p99_ms, 1e-3));
  const double span = std::log(hi_p99) - lo_log;
  const double fraction = span > 0.0 ? (std::log(kLatencyLimitMs) - lo_log) / span : 0.0;
  return lo_rate + std::clamp(fraction, 0.0, 1.0) * (kLadder[first_fail] - lo_rate);
}

std::size_t rung_index(double rate) {
  return static_cast<std::size_t>(std::find(kLadder.begin(), kLadder.end(), rate) -
                                  kLadder.begin());
}

double percentile_ms(std::vector<double> seconds, double q) {
  for (double& s : seconds) s *= 1e3;
  return seconds.empty() ? 0.0 : percentile(seconds, q);
}

}  // namespace

Outcome run_serve_districts(const Options& options) {
  Outcome outcome;

  std::vector<Kind> kinds;
  const SetupTimes setups = time_setups([&] {
    kinds.clear();
    kinds.push_back(make_kind("epa", networks::make_epa_net(), 256, 1024, kModelSeed,
                              options.seed, options.scratch_dir));
    kinds.push_back(make_kind("wssc", networks::make_wssc_subnet(), 128, 512, kModelSeed ^ 0x77ULL,
                              options.seed ^ 0x77ULL, options.scratch_dir));
  });

  // Both sweeps of a run together take at least `seconds`.
  const double sweep_s = options.seconds / static_cast<double>(kSweepsPerRun);
  const double rung_s = kLadderShare * sweep_s / static_cast<double>(kLadder.size());
  const double drain_s = (1.0 - kLadderShare) * sweep_s;
  std::vector<Schedule> phases;
  for (std::size_t r = 0; r < kLadder.size(); ++r) {
    phases.push_back(
        make_schedule(kLadder[r], rung_s, true, kinds, options.seed ^ (0x5eedULL + r)));
  }
  phases.push_back(make_schedule(kDrainMaxRate, drain_s, false, kinds, options.seed ^ 0xd4a1ULL));

  std::vector<SweepResult> sweeps;
  std::vector<bool> traced;
  const PassTimes passes = run_passes(options, [&](std::size_t index) {
    sweeps.push_back(run_sweep(kinds, phases, drain_s));
    traced.push_back(pass_traced(options, index));
  });
  for (const Kind& kind : kinds) std::filesystem::remove(kind.artifact);

  // Requests, failures and the bit-identity gate over every sweep.
  std::uint64_t mismatches = 0, unserved = 0, shed = 0;
  for (const SweepResult& sweep : sweeps) {
    const Records& rec = sweep.records;
    for (std::size_t g = 0; g < rec.due.size(); ++g) {
      if (!rec.submitted[g]) continue;
      ++outcome.attempted;
      mismatches += rec.mismatch[g];
      unserved += rec.served[g] ? 0 : 1;
    }
    shed += sweep.shed;
  }
  outcome.failed += mismatches + unserved;
  outcome.gate("daemon-results-bit-identical", mismatches == 0 && unserved == 0,
               std::to_string(outcome.attempted) + " requests, " + std::to_string(mismatches) +
                   " differ from the sequential reference, " + std::to_string(unserved) +
                   " unserved, " + std::to_string(shed) + " shed");

  // End-to-end numbers come from the untraced sweeps, per-layer numbers
  // from the traced ones.
  std::vector<const SweepResult*> selected;
  std::vector<double> drain_rates, drain_cpu_rates;
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    if (traced[i] != options.trace) continue;
    selected.push_back(&sweeps[i]);
    drain_rates.insert(drain_rates.end(), sweeps[i].drain_per_s.begin(),
                       sweeps[i].drain_per_s.end());
    drain_cpu_rates.insert(drain_cpu_rates.end(), sweeps[i].drain_per_cpu_s.begin(),
                           sweeps[i].drain_per_cpu_s.end());
    outcome.note("sweep " + std::to_string(i) + ": drain per CPU s " +
                 std::to_string(median(sweeps[i].drain_per_cpu_s)) + " over " +
                 std::to_string(sweeps[i].drain_per_cpu_s.size()) + " windows, swaps " +
                 std::to_string(sweeps[i].swaps) + ", batches " + std::to_string(sweeps[i].batches));
  }
  std::vector<RungStats> rungs;
  for (std::size_t r = 0; r < kLadder.size(); ++r) rungs.push_back(rung_stats(selected, r));
  const RungStats& low = rungs[rung_index(kLowRate)];
  const RungStats& high = rungs[rung_index(kHighRate)];
  const double sustainable = max_rate(rungs);
  const double drain_per_s = median(drain_rates);
  const double drain_per_cpu_s = median(drain_cpu_rates);

  double hamming_sum = 0.0;
  std::size_t hamming_count = 0;
  for (const Kind& kind : kinds) {
    for (std::size_t i = 0; i < kind.requests.size(); ++i) {
      hamming_sum += ml::hamming_score(kind.reference[i].predicted, kind.scenarios[i].truth);
      ++hamming_count;
    }
  }
  const double hamming = hamming_sum / static_cast<double>(std::max<std::size_t>(1, hamming_count));

  for (std::size_t r = 0; r < kLadder.size(); ++r) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "serve_districts: rate %6.0f/s  p50 %8.3f ms  p99 %8.3f ms  final p50 %8.3f ms  "
                  "failed %llu",
                  kLadder[r], rungs[r].p50_ms, rungs[r].p99_ms, rungs[r].final_p50_ms,
                  static_cast<unsigned long long>(rungs[r].failed));
    outcome.note(line);
  }
  char line[240];
  std::snprintf(line, sizeof line,
                "serve_districts: p50_ms_low=%.4f p99_ms_low=%.4f p50_ms_high=%.4f "
                "p99_ms_high=%.4f max_rate_per_s=%.1f drain_per_s=%.1f "
                "drain_per_cpu_s=%.1f hamming=%.6f",
                low.p50_ms, low.p99_ms, high.p50_ms, high.p99_ms, sustainable, drain_per_s,
                drain_per_cpu_s, hamming);
  outcome.note(line);
  outcome.note(describe(setups, passes));

  if (!options.trace) {
    const double reference_s = run_reference_s(setups, passes);
    outcome.add("setup_s", at_nominal_speed(median(setups.cpu), reference_s), "s");
    outcome.add("ops_per_cpu_s", 1.0 / at_nominal_speed(1.0 / drain_per_cpu_s, reference_s),
                "1/s");
    return outcome;
  }

  add_trace_metrics(outcome, passes,
                    {{"core.scenario.generate", "core.scenario.generate_s"},
                     {"core.snapshots.simulate", "core.snapshots.simulate_s"},
                     {"core.snapshots.featurize", "core.snapshots.featurize_s"},
                     {"sensing.baseline_run", "sensing.baseline_run_s"},
                     {"graph.kmedoids", "graph.kmedoids_s"},
                     {"ml.fit", "ml.fit_s"},
                     {"io.save", "io.save_s"},
                     {"fusion.cliques", "fusion.cliques_s"}});

  // Serving-layer numbers of the traced sweeps; queue and infer at the
  // high rate, where the queue is busy.
  std::vector<double> queue_s, infer_s, lag_s, swap_load_s, compile_s;
  telemetry::StageTimes inference = core::InferenceEngine::make_telemetry_schema();
  std::uint64_t served = 0, batches = 0, swaps = 0, shed_traced = 0, mismatched = 0;
  std::size_t trees = 0;
  const std::size_t hi = rung_index(kHighRate);
  for (const SweepResult* sweep : selected) {
    const Records& rec = sweep->records;
    for (std::size_t g = rec.phase_begin[hi]; g < rec.phase_begin[hi + 1]; ++g) {
      queue_s.push_back(rec.queue[g]);
      infer_s.push_back(rec.infer[g]);
    }
    for (std::size_t g = 0; g < rec.due.size(); ++g) {
      served += rec.served[g];
      mismatched += rec.mismatch[g];
      if (g < rec.phase_begin[kLadder.size()]) lag_s.push_back(rec.lag[g]);
    }
    swap_load_s.insert(swap_load_s.end(), sweep->swap_load_s.begin(), sweep->swap_load_s.end());
    compile_s.insert(compile_s.end(), sweep->forest_compile_s.begin(),
                     sweep->forest_compile_s.end());
    batches += sweep->batches;
    swaps += sweep->swaps;
    shed_traced += sweep->shed;
    trees = std::max(trees, sweep->compiled_trees);
    inference.merge(sweep->inference);
  }
  const auto per_sweep = [&](double total) {
    return total / static_cast<double>(std::max<std::size_t>(1, selected.size()));
  };
  outcome.add("serving.p50_ms_low", low.p50_ms, "ms");
  outcome.add("serving.p99_ms_low", low.p99_ms, "ms");
  outcome.add("serving.p50_ms_high", high.p50_ms, "ms");
  outcome.add("serving.p99_ms_high", high.p99_ms, "ms");
  outcome.add("serving.max_rate_per_s", sustainable, "1/s");
  outcome.add("serving.queue_wait_p50_ms", percentile_ms(queue_s, 50.0), "ms");
  outcome.add("serving.queue_wait_p99_ms", percentile_ms(queue_s, 99.0), "ms");
  outcome.add("serving.infer_p50_ms", percentile_ms(infer_s, 50.0), "ms");
  outcome.add("serving.infer_p99_ms", percentile_ms(infer_s, 99.0), "ms");
  outcome.add("serving.mean_batch_size",
              batches > 0 ? static_cast<double>(served) / static_cast<double>(batches) : 0.0,
              "count");
  outcome.add("serving.shed", per_sweep(static_cast<double>(shed_traced)), "count");
  outcome.add("serving.mismatches", per_sweep(static_cast<double>(mismatched)), "count");
  outcome.add("serving.swaps", per_sweep(static_cast<double>(swaps)), "count");
  outcome.add("serving.swap_load_s", median(swap_load_s), "s");
  outcome.add("serving.generator_lag_p99_ms", percentile_ms(lag_s, 99.0), "ms");
  outcome.add("ml.forest_compile_s", median(compile_s), "s");
  outcome.add("ml.compiled_trees", static_cast<double>(trees), "count");
  outcome.add("io.artifact_bytes",
              static_cast<double>(kinds[0].artifact_bytes + kinds[1].artifact_bytes), "bytes");
  outcome.add("sensing.sensors",
              static_cast<double>(kinds[0].profile->sensors.size() +
                                  kinds[1].profile->sensors.size()),
              "count");
  add_inference_metrics(outcome, inference);
  outcome.add("core.inference.hamming", hamming, "score");
  return outcome;
}

}  // namespace perfbench
