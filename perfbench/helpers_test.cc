// Checks of the benchmark's own helpers. Plain checks that stay active in
// optimized builds; exits nonzero on the first failure.
//
//   ./perfbench_helpers_test

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "helpers.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "helpers_test:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestMedianAndPercentile() {
  CHECK(Near(perfbench::Median({3, 1, 2}), 2));
  CHECK(Near(perfbench::Median({4, 1, 3, 2}), 2.5));
  CHECK(perfbench::Median({}) == 0);
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  CHECK(Near(perfbench::Percentile(ramp, 50), 500));
  CHECK(Near(perfbench::Percentile(ramp, 99), 990));
  CHECK(Near(perfbench::Percentile(ramp, 100), 1000));
}

void TestPercentileRule() {
  // Ten samples must lie beyond the reported percentile.
  CHECK(perfbench::HighestSupportedPercentile(19) == 0);
  CHECK(perfbench::HighestSupportedPercentile(20) == 50);
  CHECK(perfbench::HighestSupportedPercentile(99) == 50);
  CHECK(perfbench::HighestSupportedPercentile(100) == 90);
  CHECK(perfbench::HighestSupportedPercentile(999) == 90);
  CHECK(perfbench::HighestSupportedPercentile(1000) == 99);
  CHECK(perfbench::HighestSupportedPercentile(9999) == 99);
  CHECK(perfbench::HighestSupportedPercentile(10000) == 99.9);
  CHECK(perfbench::HighestSupportedPercentile(100000) == 99.99);
}

void TestDigest() {
  const std::vector<std::vector<std::string>> a = {{"1", "7"}, {"2", "9"}};
  const std::vector<std::vector<std::string>> b = {{"2", "9"}, {"1", "7"}};
  CHECK(perfbench::ResultDigest(a) == perfbench::ResultDigest(b));
  CHECK(perfbench::ResultDigest(a).rfind("2:", 0) == 0);
  // Cell boundaries are part of the digest: (1, 27) is not (12, 7).
  CHECK(perfbench::ResultDigest({{"1", "27"}}) !=
        perfbench::ResultDigest({{"12", "7"}}));
  CHECK(perfbench::ResultDigest({{"1"}}) !=
        perfbench::ResultDigest({{"1"}, {"1"}}));
  CHECK(perfbench::ResultDigest({}) == perfbench::ResultDigest({}));
}

void TestOpenLoop() {
  // Fake clock: ten operations due every 100 ms; the second one stalls
  // for 350 ms. The stall delays the sends of the ops behind it, and
  // their latency counts that wait from their due time.
  double clock = 0;
  const std::vector<double> durations = {0.05, 0.35, 0.05, 0.05, 0.05,
                                         0.05, 0.05, 0.05, 0.05, 0.05};
  size_t next = 0;
  perfbench::OpenLoopStats stats = perfbench::RunOpenLoop(
      0.0, 0.1, 1.0, [&] { return clock; },
      [&](double t) { clock = t; },
      [&] { clock += durations[next++]; });
  CHECK(stats.latency_s.size() == 10);
  CHECK(Near(stats.latency_s[0], 0.05));
  CHECK(Near(stats.latency_s[1], 0.35));
  // Op 2 was due at 0.2, sent at 0.45, done at 0.5.
  CHECK(Near(stats.lateness_s[2], 0.25));
  CHECK(Near(stats.latency_s[2], 0.30));
  CHECK(Near(stats.latency_s[3], 0.25));
  CHECK(Near(stats.latency_s[4], 0.20));
  // By op 7 (due and sent at 0.7) the backlog has drained.
  CHECK(Near(stats.latency_s[7], 0.05));
  CHECK(Near(stats.lateness_s[7], 0.0));
  CHECK(Near(stats.latency_s[9], 0.05));
}

void TestResultJson() {
  const std::string json = perfbench::ResultJson(
      true, 12, 0, {{"pass_s", 1.25, "s"}, {"qps", 3.0, "1/s"}});
  CHECK(json ==
        "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
        "{\"pass_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"qps\": "
        "{\"value\": 3, \"unit\": \"1/s\"}}}");
}

}  // namespace

int main() {
  TestMedianAndPercentile();
  TestPercentileRule();
  TestDigest();
  TestOpenLoop();
  TestResultJson();
  if (failures != 0) return 1;
  std::printf("perfbench helpers: all checks passed\n");
  return 0;
}
