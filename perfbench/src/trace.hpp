// In-memory span tracer for the benchmark. A span is recorded around each
// public call the benchmark makes into a library layer; its name is
// "<layer>.<operation>" (e.g. "core.snapshots.simulate"), and the layer is
// the part before the first dot. Root spans ("setup", "pass", "publisher")
// have no layer: their self time is the wall time no layer span covers.
//
// Spans nest per thread (a thread-local stack gives each span its parent),
// are kept in memory, and are only turned into numbers by breakdown() once
// the run is over. With tracing disabled, ScopedSpan is a branch and
// nothing is recorded.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

double now_seconds();

struct Span {
  const char* name = "";  // string literal; "<layer>.<op>" or a root name
  std::int32_t parent = -1;
  double start = 0.0;      // seconds since the tracer was created, so that
  double end = 0.0;        // sums of many short spans keep their precision
};

class Tracer {
 public:
  void set_enabled(bool enabled) noexcept { enabled_.store(enabled); }
  bool enabled() const noexcept { return enabled_.load(); }

  /// Opens a span on the calling thread, child of the thread's innermost
  /// open span. Returns its id, or -1 when tracing is off.
  std::int32_t open(const char* name);
  void close(std::int32_t id);

  /// Records a closed child of the closed span `parent` for work a library
  /// call times internally (e.g. the fit inside train_profile): it covers
  /// the last `seconds` of the parent's interval, or the first ones when
  /// `at_end` is false. No-op when `parent` is -1.
  void add_child(std::int32_t parent, const char* name, double seconds, bool at_end = true);

  /// Copy of every recorded span (call after all threads have stopped).
  std::vector<Span> spans() const;
  void clear();

 private:
  std::atomic<bool> enabled_{false};
  const double origin_ = now_seconds();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// The process-wide tracer used by the workloads.
Tracer& tracer();

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : id_(tracer().open(name)) {}
  ~ScopedSpan() { tracer().close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int32_t id() const noexcept { return id_; }

 private:
  std::int32_t id_;
};

/// Time accounting over the spans under roots of one name.
struct Breakdown {
  std::size_t roots = 0;
  double wall_s = 0.0;          // summed root durations
  double unattributed_s = 0.0;  // summed root self time
  std::map<std::string, double> layer_self_s;  // per layer, summed self time
  std::map<std::string, double> span_total_s;  // per span name, summed duration
};

/// Self time of span `index`: its duration minus the part of its interval
/// covered by its children (overlapping children are merged first).
double self_seconds(const std::vector<Span>& spans, std::size_t index);

/// Accounts every span whose root ancestor is named `root`. By
/// construction wall_s == unattributed_s + sum(layer_self_s).
Breakdown breakdown(const std::vector<Span>& spans, const std::string& root);

}  // namespace perfbench
