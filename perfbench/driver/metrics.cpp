#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

// Numbers printed with all their digits (17 significant), never rounded to
// a display precision.  JSON has no NaN; ratio() keeps metrics finite.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0;
  std::size_t n = 0;
  for (double x : v) {
    if (x > 0) {
      log_sum += std::log(x);
      ++n;
    }
  }
  return n ? std::exp(log_sum / static_cast<double>(n)) : 0;
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

MetricMap median_of(const std::vector<MetricMap>& maps) {
  MetricMap out;
  if (maps.empty()) return out;
  for (const auto& [name, m] : maps.front()) {
    std::vector<double> values;
    for (const auto& map : maps) {
      auto it = map.find(name);
      if (it != map.end()) values.push_back(it->second.value);
    }
    out[name] = {median(values), m.unit};
  }
  return out;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricMap& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

}  // namespace perfbench
