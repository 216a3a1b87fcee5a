#ifndef SMARTICEBERG_PERFBENCH_WORKLOADS_H_
#define SMARTICEBERG_PERFBENCH_WORKLOADS_H_

// The four workloads of the benchmark.
//
//  skyband       Fig. 1 Q1, Q2, Q3, Q8 at the paper's 3x10^5 score rows,
//                one statement at a time, intra-query threads = nproc.
//                NLJP-bound (Q_B stream, memo, Q_C prune, Q_R(b) inner
//                scans); Q8 isolates the WITH-block aggregation.
//  pairs         Fig. 1 Q4-Q7 at 3x10^4 rows. The WITH block's self-join +
//                GROUP BY dominates and NLJP is light: the reverse of
//                skyband.
//  served_read   IcebergServer, nproc closed-loop sessions, 1 thread per
//                query, over 16 score tables of 2x10^3 rows: mostly the Q1
//                shape with rotating k (plan-cache replay) plus cold
//                Q2-shaped and Q8 statements. Statements take 1-2 ms, so
//                serving overheads show.
//  served_write  served_read with nproc-1 readers plus one open-loop
//                writer inserting through IcebergServer::Insert: the only
//                workload that runs the invalidation paths.

#include <cstdint>
#include <string>
#include <vector>

#include "helpers.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  /// Source revision recorded in the provenance line.
  std::string revision = "unknown";
};

struct RunOutput {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
};

/// Runs one workload, printing the human-readable report to stdout.
/// Returns false for an unknown workload.
bool RunWorkload(const RunOptions& options, RunOutput* out);

}  // namespace perfbench

#endif  // SMARTICEBERG_PERFBENCH_WORKLOADS_H_
