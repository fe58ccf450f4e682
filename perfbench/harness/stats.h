#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

/// \file stats.h
/// The benchmark's own arithmetic: percentiles with their sample-count rule,
/// ratios that keep their base, and in-memory spans with self time.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Percentile `p` (0..100) of `samples`, linearly interpolated between the
/// two closest ranks (the "type 7" estimator: p=50 of an even-sized sample is
/// the mean of the two middle values). Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Smallest sample count for which percentile `p` has at least ten samples
/// beyond it: ceil(10 / (1 - p/100)). p50 needs 20 samples, p90 needs 100.
size_t MinSamplesFor(double p);

/// A percentile together with the sample count it was taken from.
struct Quantile {
  double value = 0;
  size_t samples = 0;
  /// False when `samples < MinSamplesFor(p)`: the value is printed but
  /// flagged as resting on too few samples beyond it.
  bool enough = false;
};

Quantile QuantileOf(const std::vector<double>& samples, double p);

/// A ratio that is never reported without its base. A zero base yields a
/// value of 0 (the measured layer did no work), not NaN.
struct Ratio {
  double numerator = 0;
  double base = 0;

  double value() const { return base == 0 ? 0.0 : numerator / base; }
};

/// One traced interval. Spans of one statement share `request`; `parent` is
/// the index of the enclosing span in the tracer's list, or -1 for a root.
struct Span {
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t request = 0;
};

/// Keeps spans in memory while the workload runs; read out at the end.
/// A disabled tracer records nothing and hands out index -1.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a measured interval; returns its index (-1 when disabled).
  int Record(const std::string& layer, int64_t start_ns, int64_t end_ns,
             int parent, uint64_t request);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Sum of self time per layer name over all spans. A span's self time is its
/// duration minus the part of its interval that its direct children cover;
/// children are clipped to the parent and overlaps are counted once.
std::map<std::string, int64_t> SelfTimeByLayer(const std::vector<Span>& spans);

/// Share of the root spans' total duration that no child span covers
/// (0 when there are no roots). This is the unattributed residual.
double ResidualFraction(const std::vector<Span>& spans);

/// Monotonic clock in nanoseconds.
int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
