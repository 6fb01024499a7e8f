#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace perfbench {
namespace {

/// Open spans of the calling thread, innermost last.
std::vector<std::int32_t>& open_spans() {
  thread_local std::vector<std::int32_t> stack;
  return stack;
}

/// Layer of a span name: the text before the first '.', or "" for a root.
std::string layer_of(const char* name) {
  const std::string text(name);
  const auto dot = text.find('.');
  return dot == std::string::npos ? std::string() : text.substr(0, dot);
}

}  // namespace

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::int32_t Tracer::open(const char* name) {
  if (!enabled()) return -1;
  auto& stack = open_spans();
  const double start = now_seconds() - origin_;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, stack.empty() ? -1 : stack.back(), start, start});
  stack.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id) {
  if (id < 0) return;
  const double end = now_seconds() - origin_;
  auto& stack = open_spans();
  if (!stack.empty() && stack.back() == id) stack.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

void Tracer::add_child(std::int32_t parent, const char* name, double seconds, bool at_end) {
  if (parent < 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const Span owner = spans_[static_cast<std::size_t>(parent)];
  seconds = std::clamp(seconds, 0.0, owner.end - owner.start);
  spans_.push_back({name, parent, at_end ? owner.end - seconds : owner.start,
                    at_end ? owner.end : owner.start + seconds});
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

namespace {

/// Duration of `span` minus the union of its children's intervals.
double uncovered_seconds(const Span& span, const std::vector<const Span*>& children) {
  std::vector<std::pair<double, double>> covered;
  covered.reserve(children.size());
  for (const Span* child : children) {
    const double lo = std::max(child->start, span.start);
    const double hi = std::min(child->end, span.end);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  double covered_s = 0.0;
  double reach = span.start;
  for (const auto& [lo, hi] : covered) {
    const double from = std::max(lo, reach);
    if (hi > from) covered_s += hi - from;
    reach = std::max(reach, hi);
  }
  return (span.end - span.start) - covered_s;
}

}  // namespace

double self_seconds(const std::vector<Span>& spans, std::size_t index) {
  std::vector<const Span*> children;
  for (const Span& span : spans) {
    if (span.parent == static_cast<std::int32_t>(index)) children.push_back(&span);
  }
  return uncovered_seconds(spans[index], children);
}

Breakdown breakdown(const std::vector<Span>& spans, const std::string& root) {
  // Parents are recorded before their children, so one forward pass finds
  // every span's root and children.
  std::vector<std::size_t> root_of(spans.size());
  std::vector<std::vector<const Span*>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t parent = spans[i].parent;
    root_of[i] = parent < 0 ? i : root_of[static_cast<std::size_t>(parent)];
    if (parent >= 0) children[static_cast<std::size_t>(parent)].push_back(&spans[i]);
  }

  Breakdown result;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (root != spans[root_of[i]].name) continue;
    const Span& span = spans[i];
    const double self = uncovered_seconds(span, children[i]);
    if (span.parent < 0) {
      ++result.roots;
      result.wall_s += span.end - span.start;
      result.unattributed_s += self;
    } else {
      result.layer_self_s[layer_of(span.name)] += self;
      result.span_total_s[span.name] += span.end - span.start;
    }
  }
  return result;
}

}  // namespace perfbench
