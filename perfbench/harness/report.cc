#include "harness/report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void Report::SetContext(const std::string& key, const std::string& value) {
  for (auto& [k, v] : context_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  context_.emplace_back(key, value);
}

void Report::Add(const std::string& name, const std::string& unit,
                 double value, const std::string& basis) {
  if (!std::isfinite(value)) {
    notes_.push_back(name + " was not finite; reported as 0");
    value = 0;
  }
  for (Entry& e : metrics_) {
    if (e.name == name) {
      e = {name, unit, value, basis};
      return;
    }
  }
  metrics_.push_back({name, unit, value, basis});
}

void Report::AddQuantile(const std::string& name, const std::string& unit,
                         const Quantile& q, double ns_per_unit) {
  std::string basis = "n=" + std::to_string(q.samples);
  if (!q.enough) basis += " (too few samples beyond this percentile)";
  Add(name, unit, q.value / ns_per_unit, basis);
}

void Report::AddRatio(const std::string& name, const std::string& unit,
                      const Ratio& r) {
  Add(name, unit, r.value(),
      "= " + FormatNumber(r.numerator) + " / " + FormatNumber(r.base));
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

double Report::Value(const std::string& name) const {
  for (const Entry& e : metrics_) {
    if (e.name == name) return e.value;
  }
  return 0;
}

std::string Report::Text() const {
  std::string out;
  char line[512];
  for (const auto& [k, v] : context_) {
    std::snprintf(line, sizeof(line), "  %-22s %s\n", k.c_str(), v.c_str());
    out += line;
  }
  for (const Entry& e : metrics_) {
    std::snprintf(line, sizeof(line), "  %-40s %16.6g %-6s %s\n",
                  e.name.c_str(), e.value, e.unit.c_str(), e.basis.c_str());
    out += line;
  }
  for (const std::string& n : notes_) out += "  note: " + n + "\n";
  return out;
}

std::string Report::JsonLine(bool correct, uint64_t attempted,
                             uint64_t failed) const {
  std::string out = kResultPrefix;
  out += "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"context\": {";
  for (size_t i = 0; i < context_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(context_[i].first) + ": " + JsonString(context_[i].second);
  }
  out += "}, \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    if (i > 0) out += ", ";
    out += JsonString(e.name) + ": {\"value\": " + FormatNumber(e.value) +
           ", \"unit\": " + JsonString(e.unit) +
           ", \"basis\": " + JsonString(e.basis) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
