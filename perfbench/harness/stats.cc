#include "harness/stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

size_t MinSamplesFor(double p) {
  if (p >= 100) return SIZE_MAX;
  // Round the quotient first so 10 / 0.1 lands on 100, not 100.000...01.
  const double q = std::round(10.0 / (1.0 - p / 100.0) * 1e9) / 1e9;
  return static_cast<size_t>(std::ceil(q));
}

Quantile QuantileOf(const std::vector<double>& samples, double p) {
  Quantile q;
  q.value = Percentile(samples, p);
  q.samples = samples.size();
  q.enough = q.samples >= MinSamplesFor(p);
  return q;
}

int Tracer::Record(const std::string& layer, int64_t start_ns, int64_t end_ns,
                   int parent, uint64_t request) {
  if (!enabled_) return -1;
  spans_.push_back({layer, start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

namespace {

/// Length of the union of `intervals` after clipping each to [lo, hi].
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

std::vector<std::vector<size_t>> ChildrenOf(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans.size()) {
      children[static_cast<size_t>(p)].push_back(i);
    }
  }
  return children;
}

int64_t SelfTime(const std::vector<Span>& spans,
                 const std::vector<size_t>& children, size_t index) {
  const Span& s = spans[index];
  std::vector<std::pair<int64_t, int64_t>> intervals;
  intervals.reserve(children.size());
  for (size_t c : children) {
    intervals.emplace_back(spans[c].start_ns, spans[c].end_ns);
  }
  const int64_t duration = std::max<int64_t>(0, s.end_ns - s.start_ns);
  return duration - CoveredNs(std::move(intervals), s.start_ns, s.end_ns);
}

}  // namespace

std::map<std::string, int64_t> SelfTimeByLayer(const std::vector<Span>& spans) {
  const auto children = ChildrenOf(spans);
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].layer] += SelfTime(spans, children[i], i);
  }
  return out;
}

double ResidualFraction(const std::vector<Span>& spans) {
  const auto children = ChildrenOf(spans);
  int64_t total = 0;
  int64_t uncovered = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    total += std::max<int64_t>(0, spans[i].end_ns - spans[i].start_ns);
    uncovered += SelfTime(spans, children[i], i);
  }
  return total == 0 ? 0.0
                    : static_cast<double>(uncovered) / static_cast<double>(total);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
