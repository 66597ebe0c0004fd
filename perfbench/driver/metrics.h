// Metric maps, order statistics and the benchmark's result line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};

// Ordered by name, so printed output is stable.
using MetricMap = std::map<std::string, Metric>;

double median(std::vector<double> v);  // 0 for an empty sample
// Geometric mean of the positive entries (0 when there are none).
double geomean(const std::vector<double>& v);
// num / den, or 0 when den is 0 (a 0/0 ratio reads 0 and is documented).
double ratio(double num, double den);

// Per-name medians over a list of maps that share their keys.
MetricMap median_of(const std::vector<MetricMap>& maps);

// The benchmark's last stdout line: one JSON object with exactly the keys
// correct, attempted, failed and metrics.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricMap& metrics);

}  // namespace perfbench
