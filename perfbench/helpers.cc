#include "helpers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // The epsilon keeps 0.99 * 1000 from rounding up to rank 991.
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(values.size()) - 1e-9);
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double HighestSupportedPercentile(size_t n) {
  double best = 0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    // Samples strictly beyond the nearest-rank p-th percentile.
    const double beyond =
        static_cast<double>(n) -
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
    if (beyond >= 10) best = p;
  }
  return best;
}

std::string ResultDigest(const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  for (const std::vector<std::string>& row : rows) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line.push_back('|');
      line += row[i];
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 0x100000001b3ull;
  };
  for (const std::string& line : lines) {
    for (char c : line) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%zu:%016llx", rows.size(),
                static_cast<unsigned long long>(h));
  return buf;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
