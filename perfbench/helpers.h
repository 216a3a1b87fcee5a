#ifndef SMARTICEBERG_PERFBENCH_HELPERS_H_
#define SMARTICEBERG_PERFBENCH_HELPERS_H_

// Library-independent helpers of the benchmark: order statistics, the
// canonical result digest, open-loop due-time accounting, and the
// result-line JSON. Kept free of the Smart-Iceberg headers so
// helpers_test.cc checks them in isolation.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median as Python's statistics.median computes it (mean of the two
/// middle values for an even count). 0 for an empty sample.
double Median(std::vector<double> values);

/// Nearest-rank percentile (p in (0, 100]) of `values`. 0 when empty.
double Percentile(std::vector<double> values, double p);

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that still
/// has at least ten samples beyond it in a sample of size `n`, or 0 when
/// even the median does not (n < 20). A tail figure from fewer samples is
/// one or two observations, not a percentile.
double HighestSupportedPercentile(size_t n);

/// Digest of a result that does not depend on row order: rows (each a
/// list of rendered cell values) are joined with '|', sorted, and hashed
/// with 64-bit FNV-1a over the newline-joined text. Returned as
/// "<rows>:<16 hex digits>" so a row-count mismatch reads at a glance.
std::string ResultDigest(const std::vector<std::vector<std::string>>& rows);

/// Per-operation accounting of an open-loop generator: operation i is due
/// at start + i * interval. Latency runs from when the operation was due,
/// not from when it was sent, so a stall also charges the wait it imposes
/// on the operations queued behind it; lateness is how far behind its
/// schedule the generator sent.
struct OpenLoopStats {
  std::vector<double> latency_s;
  std::vector<double> lateness_s;
};

/// Drives `op` on an open-loop schedule until the next due time reaches
/// `end_s`. `now()` returns seconds on the caller's clock, and
/// `sleep_until(t)` blocks until that clock reads t; tests pass a fake
/// clock. `op()` runs one operation to completion.
template <typename Now, typename SleepUntil, typename Op>
OpenLoopStats RunOpenLoop(double start_s, double interval_s, double end_s,
                          Now now, SleepUntil sleep_until, Op op) {
  OpenLoopStats stats;
  for (uint64_t i = 0;; ++i) {
    const double due = start_s + static_cast<double>(i) * interval_s;
    if (due >= end_s) break;
    if (now() < due) sleep_until(due);
    const double sent = now();
    op();
    const double done = now();
    stats.lateness_s.push_back(sent - due);
    stats.latency_s.push_back(done - due);
  }
  return stats;
}

/// One named measurement of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The benchmark's result line: one JSON object with exactly the keys
/// correct, attempted, failed and metrics (name -> {value, unit}). Values
/// are printed with all significant digits.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // SMARTICEBERG_PERFBENCH_HELPERS_H_
