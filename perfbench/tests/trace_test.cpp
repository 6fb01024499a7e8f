// Unit test of the benchmark's span arithmetic: self time, layer
// breakdowns, and the invariant that a breakdown plus unattributed time
// sums to the wall time. Spans are built by hand with exact times, then
// recorded live through the tracer. Exits nonzero on the first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "trace.hpp"

namespace {

using perfbench::Span;

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::abs(got - want) > 1e-12) {
    std::fprintf(stderr, "FAIL %s: got %.15g, want %.15g\n", what, got, want);
    ++failures;
  }
}

Span span(const char* name, std::int32_t parent, double start, double end) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start = start;
  s.end = end;
  return s;
}

void test_self_time() {
  // pass [0,10]: core [1,4] with hydraulics child [2,3]; ml [5,9] with two
  // overlapping children [5,7] and [6,8] and one running past its end.
  // Recorded traces never overlap (spans nest per thread and derived
  // children are clipped), but self time is defined for any children.
  const std::vector<Span> spans = {
      span("pass", -1, 0.0, 10.0),           // 0
      span("core.a", 0, 1.0, 4.0),           // 1
      span("hydraulics.b", 1, 2.0, 3.0),     // 2
      span("ml.c", 0, 5.0, 9.0),             // 3
      span("io.d", 3, 5.0, 7.0),             // 4
      span("io.e", 3, 6.0, 8.0),             // 5
      span("linalg.f", 3, 8.5, 12.0),        // 6: clipped to [8.5, 9]
  };
  expect_near(perfbench::self_seconds(spans, 0), 3.0, "root self");
  expect_near(perfbench::self_seconds(spans, 1), 2.0, "core self");
  expect_near(perfbench::self_seconds(spans, 2), 1.0, "leaf self");
  // ml.c covers [5,9]; children cover [5,8] and [8.5,9] -> 3.5 covered.
  expect_near(perfbench::self_seconds(spans, 3), 0.5, "overlapping children merged");

  const auto b = perfbench::breakdown(spans, "pass");
  expect_near(static_cast<double>(b.roots), 1.0, "one root");
  expect_near(b.wall_s, 10.0, "wall");
  expect_near(b.unattributed_s, 3.0, "unattributed");
  expect_near(b.layer_self_s.at("core"), 2.0, "core layer");
  expect_near(b.layer_self_s.at("hydraulics"), 1.0, "hydraulics layer");
  expect_near(b.layer_self_s.at("ml"), 0.5, "ml layer");
  expect_near(b.span_total_s.at("linalg.f"), 3.5, "span total keeps its own duration");
}

void test_roots_are_separated() {
  const std::vector<Span> spans = {
      span("setup", -1, 0.0, 2.0),
      span("graph.k", 0, 0.5, 1.5),
      span("pass", -1, 2.0, 5.0),
      span("core.x", 2, 2.0, 4.0),
      span("pass", -1, 5.0, 6.0),
  };
  const auto setup = perfbench::breakdown(spans, "setup");
  const auto pass = perfbench::breakdown(spans, "pass");
  expect_near(static_cast<double>(setup.roots), 1.0, "setup roots");
  expect_near(static_cast<double>(pass.roots), 2.0, "pass roots");
  expect_near(setup.unattributed_s, 1.0, "setup unattributed");
  expect_near(pass.wall_s, 4.0, "pass wall");
  expect_near(pass.unattributed_s, 2.0, "pass unattributed");
  expect_near(setup.layer_self_s.count("core") ? 1.0 : 0.0, 0.0, "pass spans stay out of setup");
  expect_near(pass.unattributed_s + pass.layer_self_s.at("core"), pass.wall_s, "pass sums");
  expect_near(setup.unattributed_s + setup.layer_self_s.at("graph"), setup.wall_s, "setup sums");
}

void test_live_recording_sums_to_wall() {
  perfbench::Tracer& tracer = perfbench::tracer();
  tracer.clear();
  tracer.set_enabled(true);
  {
    const perfbench::ScopedSpan root("pass");
    {
      const perfbench::ScopedSpan core("core.work");
      const perfbench::ScopedSpan inner("hydraulics.work");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::int32_t call = -1;
    {
      const perfbench::ScopedSpan io("io.work");
      call = io.id();
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
    // A library call that times part of its own work internally.
    tracer.add_child(call, "ml.derived", 1e-3, true);
  }
  tracer.set_enabled(false);
  { const perfbench::ScopedSpan ignored("core.ignored"); }

  const auto spans = tracer.spans();
  if (spans.size() != 5) {
    std::fprintf(stderr, "FAIL recorded %zu spans, want 5\n", spans.size());
    ++failures;
    return;
  }
  const auto b = perfbench::breakdown(spans, "pass");
  double sum = b.unattributed_s;
  for (const auto& [layer, seconds] : b.layer_self_s) sum += seconds;
  expect_near(sum, b.wall_s, "breakdown + unattributed == wall");
  expect_near(b.layer_self_s.at("ml"), 1e-3, "derived child time");
  if (!(b.layer_self_s.at("hydraulics") >= 2e-3 && b.layer_self_s.at("io") >= 2e-3)) {
    std::fprintf(stderr, "FAIL live spans shorter than their sleeps\n");
    ++failures;
  }
  tracer.clear();
}

}  // namespace

int main() {
  test_self_time();
  test_roots_are_separated();
  test_live_recording_sums_to_wall();
  if (failures == 0) std::printf("trace_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
