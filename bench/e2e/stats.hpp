// Sample statistics and metric output of the request-level benchmark.
//
// Percentiles are nearest-rank: the p-th percentile of n samples is the
// ceil(p/100 * n)-th smallest, always an observed value. A percentile
// is only reported when at least kMinTail samples lie above it, so a
// "p90" never rests on one or two slow outliers.
//
// Every ratio goes through MetricSet::add_ratio, which emits the ratio's
// base (its denominator) as a metric of its own, so no ratio is ever
// printed without the count it was taken over.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace cvb::e2e {

/// Samples that must lie strictly above a reported percentile.
inline constexpr std::size_t kMinTail = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) over n samples.
[[nodiscard]] inline std::size_t nearest_rank(double p, std::size_t n) {
  if (n == 0 || !(p > 0.0) || p > 100.0) {
    throw std::invalid_argument("nearest_rank: need n >= 1 and 0 < p <= 100");
  }
  // The epsilon keeps 90/100*100 from rounding up to rank 91.
  const double exact = p / 100.0 * static_cast<double>(n);
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::max<std::size_t>(1, rank);
}

/// Samples lying above the nearest-rank percentile `p`.
[[nodiscard]] inline std::size_t samples_above(double p, std::size_t n) {
  return n - nearest_rank(p, n);
}

/// Nearest-rank percentile of `samples` (any order).
[[nodiscard]] inline double percentile(std::vector<double> samples, double p) {
  const std::size_t rank = nearest_rank(p, samples.size());
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Smallest sample count for which percentile `p` has kMinTail samples
/// above it.
[[nodiscard]] inline std::size_t min_samples_for(double p) {
  std::size_t n = 1;
  while (samples_above(p, n) < kMinTail) {
    ++n;
  }
  return n;
}

[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// Shortest text that reads back as exactly `value` (all its digits).
[[nodiscard]] inline std::string format_number(double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("format_number: non-finite metric value");
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered, name-unique set of metrics, printed as the "metrics" object
/// of the benchmark's result line.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (find(name) != nullptr) {
      throw std::logic_error("metric emitted twice: " + name);
    }
    metrics_.push_back({name, value, unit});
  }

  /// Emits `name` = num / den (0 when den is 0) and, unless already
  /// present, the base `base_name` = den with `base_unit`.
  void add_ratio(const std::string& name, double num, double den,
                 const std::string& base_name, const std::string& base_unit) {
    add(name, den > 0.0 ? num / den : 0.0, "ratio");
    if (const Metric* base = find(base_name); base == nullptr) {
      add(base_name, den, base_unit);
    } else if (base->value != den) {
      throw std::logic_error("ratio " + name + " disagrees with its base " +
                             base_name);
    }
    bases_.emplace_back(name, base_name);
  }

  [[nodiscard]] const Metric* find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) {
        return &m;
      }
    }
    return nullptr;
  }

  /// (ratio, base) pairs recorded by add_ratio.
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& bases()
      const {
    return bases_;
  }

  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

  /// {"name": {"value": v, "unit": "u"}, ...}
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (const Metric& m : metrics_) {
      if (out.size() > 1) {
        out += ", ";
      }
      out += "\"" + m.name + "\": {\"value\": " + format_number(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> bases_;
};

}  // namespace cvb::e2e
