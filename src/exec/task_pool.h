#ifndef SMARTICEBERG_EXEC_TASK_POOL_H_
#define SMARTICEBERG_EXEC_TASK_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/status.h"

namespace iceberg {

/// Resolves a requested worker count: positive values are taken as-is,
/// 0 (the ExecOptions default) means "auto" = the CPUs in the calling
/// thread's affinity mask (sched_getaffinity), falling back to
/// hardware_concurrency() and clamped to at least 1.
int ResolveThreads(int requested);

/// Picks a morsel size for splitting `total` work items across `threads`
/// workers: enough morsels that dynamic claiming balances skewed per-item
/// costs (inequality joins are highly skewed), but capped so the atomic
/// counter is not contended per row.
size_t MorselFor(size_t total, int threads);

/// A small fixed pool of worker threads executing morsel-driven range
/// jobs: [0, total) is split into fixed-size morsels claimed from a shared
/// atomic counter, so fast workers automatically take load from slow ones
/// (the scheduling scheme of Leis et al.'s morsel-driven parallelism,
/// which both engines use for their outer/binding loops).
///
/// The pool spawns num_threads - 1 threads; the caller of RunMorsels
/// participates as worker 0, so num_threads == 1 runs entirely inline on
/// the calling thread (exactly the serial path, no thread is ever
/// created). Worker ids passed to the callback are stable within one
/// RunMorsels call and in [0, num_threads), making per-worker state a
/// plain pre-sized vector with no locking.
class TaskPool {
 public:
  /// fn(worker, begin, end) processes one morsel [begin, end). A non-OK
  /// return stops the job: no further morsels are claimed and the first
  /// error (by completion order) is returned from RunMorsels.
  using MorselFn = std::function<Status(int worker, size_t begin, size_t end)>;

  explicit TaskPool(int num_threads);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn over every morsel of [0, total); blocks until the range is
  /// drained or a worker failed. The pool is reusable: RunMorsels may be
  /// called repeatedly (but not concurrently from several threads).
  Status RunMorsels(size_t total, size_t morsel_size, const MorselFn& fn);

  /// Microseconds each worker spent inside morsel callbacks during the
  /// most recent RunMorsels call (index = worker id). busy/wall is the
  /// worker's utilization; the spread across workers is scheduling skew.
  /// Valid until the next RunMorsels call.
  const std::vector<int64_t>& last_busy_micros() const { return busy_us_; }

 private:
  void WorkerLoop(int worker);
  /// Claims and runs morsels until the range is drained or the job failed.
  void Drain(int worker);

  const int num_threads_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // signals job_seq_ changes / shutdown
  std::condition_variable done_cv_;  // signals workers_running_ == 0
  bool shutdown_ = false;
  uint64_t job_seq_ = 0;     // bumped per job so workers run each job once
  int workers_running_ = 0;  // spawned workers still draining current job
  Status first_error_;       // of the current job

  // Current job; fields below are written under mu_ before the job is
  // published and read-only while workers are running.
  size_t total_ = 0;
  size_t morsel_ = 1;
  const MorselFn* fn_ = nullptr;
  std::atomic<size_t> next_{0};
  std::atomic<bool> failed_{false};

  /// Per-worker busy time of the current/last job. Each slot is written
  /// only by its owning worker during Drain and read by the caller after
  /// the job barrier, so no per-slot synchronization is needed.
  std::vector<int64_t> busy_us_;
};

}  // namespace iceberg

#endif  // SMARTICEBERG_EXEC_TASK_POOL_H_
