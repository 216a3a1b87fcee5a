// The Smart-Iceberg benchmark binary. perfbench/run.py builds and runs it:
//
//   perfbench --workload skyband|pairs|served_read|served_write
//             --seed N --seconds S --trace 0|1 [--revision REV]
//
// It prints a human-readable report and, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics traced. Exit status 0 only when
// every output check passed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "helpers.h"
#include "workloads.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--revision REV]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(PERFBENCH_SANITIZED)
  std::fprintf(stderr,
               "perfbench: refusing to report from a sanitizer build\n");
  return 3;
#endif
#if !defined(NDEBUG)
  std::fprintf(stderr,
               "perfbench: refusing to report from a build without NDEBUG "
               "(use Release or RelWithDebInfo)\n");
  return 3;
#endif

  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage(argv[0]);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0)) return Usage(argv[0]);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage(argv[0]);
      }
      options.trace = value[0] == '1';
    } else if (flag == "--revision") {
      options.revision = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_workload) return Usage(argv[0]);

  perfbench::RunOutput out;
  if (!perfbench::RunWorkload(options, &out)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 options.workload.c_str());
    return Usage(argv[0]);
  }
  std::fflush(stdout);
  std::printf("%s\n", perfbench::ResultJson(out.correct, out.attempted,
                                            out.failed, out.metrics)
                          .c_str());
  std::fflush(stdout);
  return out.correct && out.failed == 0 ? 0 : 1;
}
