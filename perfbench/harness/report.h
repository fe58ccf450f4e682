#ifndef PERFBENCH_HARNESS_REPORT_H_
#define PERFBENCH_HARNESS_REPORT_H_

/// \file report.h
/// Collects one run's metrics and run context, then prints them twice: as an
/// aligned table for people, and as one JSON line (prefixed with
/// `kResultPrefix`) that run.py turns into the benchmark's result line.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/stats.h"

namespace perfbench {

inline constexpr const char* kResultPrefix = "PERFBENCH_RESULT ";

class Report {
 public:
  /// Adds a run-context entry (seed, nproc, compiler, ...).
  void SetContext(const std::string& key, const std::string& value);

  /// Adds a metric. `basis` says what it rests on ("n=412", "= 3 / 9", ...).
  void Add(const std::string& name, const std::string& unit, double value,
           const std::string& basis = "");
  /// Adds a percentile, scaled from nanoseconds by `ns_per_unit`, with its
  /// sample count (and a flag when too few samples lie beyond it).
  void AddQuantile(const std::string& name, const std::string& unit,
                   const Quantile& q, double ns_per_unit);
  /// Adds a ratio with its numerator and base.
  void AddRatio(const std::string& name, const std::string& unit,
                const Ratio& r);
  /// Adds a free-text line printed under the table.
  void Note(const std::string& line);

  double Value(const std::string& name) const;

  /// The human-readable table.
  std::string Text() const;
  /// One line: kResultPrefix + {"correct","attempted","failed","context",
  /// "metrics":{name:{"value","unit","basis"}}}.
  std::string JsonLine(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0;
    std::string basis;
  };
  std::vector<std::pair<std::string, std::string>> context_;
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
};

/// `s` as a JSON string literal.
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPORT_H_
