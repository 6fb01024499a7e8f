// Shared plumbing for the three workloads: run options, the result record,
// the setup/pass timing loop, and the traced-run per-layer report.
//
// Every workload follows the same shape:
//   * setup   — run kSetups times; setup_s is the median, the last one is kept;
//   * passes  — the timed unit of work, repeated until `seconds` of wall
//               time have passed (at least kMinPasses times);
//   * gates   — correctness checks outside the timed region.
// With --trace 1 every setup is traced, and passes alternate untraced and
// traced; per-layer numbers come from the traced passes, and
// trace.overhead is the traced pass wall over the untraced pass wall.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

inline constexpr std::size_t kSetups = 3;
inline constexpr std::size_t kMinPasses = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch_dir;  // private directory for artifacts, inside the checkout
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed above the result line.
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records a gate verdict; a failed gate marks the run incorrect.
  void gate(const std::string& name, bool ok, const std::string& detail);
};

double median(std::vector<double> values);

/// The nominal host speed: CPU seconds one thread of the reference
/// computation takes on it. A CPU time scaled by
/// kNominalReferenceS / reference_seconds() reads as if the host ran at
/// that speed, so on a shared host whose speed drifts with the neighbours'
/// load the scaled time moves with the program only. The value fixes the
/// scale and nothing else; on the 4-vCPU Xeon (Sapphire Rapids) VM this
/// benchmark was written on, reference_seconds() read 0.26-0.37 s.
inline constexpr double kNominalReferenceS = 0.25;

/// Each set-up's wall and process CPU time, and reference_seconds() before
/// the first and after each.
struct SetupTimes {
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> reference;
};

/// Runs `setup` kSetups times, each under a "setup" root span, with the
/// reference computation before the first and after each.
SetupTimes time_setups(const std::function<void()>& setup);

/// Wall time of every pass, and split by whether it was traced; process
/// CPU time of the untraced ones; reference_seconds() before the first
/// pass and after each.
struct PassTimes {
  std::vector<double> all;
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<double> untraced_cpu;
  std::vector<double> reference;
};

/// Runs `pass(index)` under a "pass" root span until `seconds` have passed
/// and at least kMinPasses ran, with the reference computation on every
/// pool thread before the first pass and after each. In trace mode odd
/// passes are traced.
PassTimes run_passes(const Options& options, const std::function<void(std::size_t)>& pass);

/// The host's speed over the run: the median of every reference_seconds()
/// reading. It drifts over minutes, so one figure for the run is steadier
/// than a reading next to each pass.
double run_reference_s(const SetupTimes& setups, const PassTimes& passes);

/// `cpu_s` scaled to the nominal host speed, on a host whose reference
/// computation took `reference_s`.
double at_nominal_speed(double cpu_s, double reference_s);

/// The set-ups' and passes' wall, CPU and reference seconds, for the note
/// lines.
std::string describe(const SetupTimes& setups, const PassTimes& passes);

/// True while the current pass records spans (trace mode, odd pass).
bool pass_traced(const Options& options, std::size_t pass);

/// CPU time of this process, all threads, user plus system. The kernel
/// leaves out time the hypervisor gave to other guests (steal) and time
/// other processes ran; it still moves with the host's speed, which
/// reference_seconds() measures.
double cpu_seconds();

/// Runs a fixed reference computation on `threads` threads at once and
/// returns the CPU seconds one thread took (the mean): the host's speed
/// right now, steal and other processes left out as for cpu_seconds().
double reference_seconds(std::size_t threads);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Per-layer report of a traced run: per-setup and per-pass layer self
/// time (breakdown.<layer>_s), trace.wall_s, trace.unattributed_s and
/// trace.overhead, plus every span's total duration per unit under
/// `span_metrics` (span name -> metric name). Checks that each breakdown
/// plus unattributed time sums to its wall time.
void add_trace_metrics(Outcome& outcome, const PassTimes& passes,
                       const std::vector<std::pair<const char*, const char*>>& span_metrics);

/// Workload entry points.
Outcome run_train_epa(const Options& options);
Outcome run_corpus_city(const Options& options);
Outcome run_serve_districts(const Options& options);

}  // namespace perfbench
