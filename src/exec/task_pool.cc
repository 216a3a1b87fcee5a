#include "src/exec/task_pool.h"

#include <sched.h>

#include <chrono>

#include "src/obs/metrics.h"

namespace iceberg {

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  // The CPUs this thread may run on: a container or taskset limit shows
  // here, while hardware_concurrency() reports every CPU of the host.
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int allowed = CPU_COUNT(&mask);
    if (allowed > 0) return allowed;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

size_t MorselFor(size_t total, int threads) {
  size_t morsel = total / (static_cast<size_t>(threads) * 8);
  return std::clamp<size_t>(morsel, 64, 1024);
}

TaskPool::TaskPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  busy_us_.assign(static_cast<size_t>(num_threads_), 0);
  threads_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int w = 1; w < num_threads_; ++w) {
    threads_.emplace_back([this, w]() { WorkerLoop(w); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void TaskPool::WorkerLoop(int worker) {
  uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || job_seq_ != seen; });
      if (shutdown_) return;
      seen = job_seq_;
    }
    Drain(worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--workers_running_ == 0) done_cv_.notify_all();
    }
  }
}

void TaskPool::Drain(int worker) {
  using Clock = std::chrono::steady_clock;
  Histogram* morsel_us = ICEBERG_HISTOGRAM("taskpool.morsel_us");
  Histogram* claim_ns = ICEBERG_HISTOGRAM("taskpool.claim_ns");
  Counter* morsels = ICEBERG_COUNTER("taskpool.morsels");
  int64_t busy = 0;
  size_t claimed = 0;
  Clock::time_point idle_since = Clock::now();
  while (!failed_.load(std::memory_order_acquire)) {
    size_t begin = next_.fetch_add(morsel_, std::memory_order_relaxed);
    if (begin >= total_) break;
    size_t end = std::min(begin + morsel_, total_);
    Clock::time_point start = Clock::now();
    // Claim latency: the gap between finishing the previous morsel (or
    // entering the drain loop) and starting this one — contention on the
    // claim counter and wake-up latency both land here.
    claim_ns->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(start -
                                                             idle_since)
            .count()));
    Status status = (*fn_)(worker, begin, end);
    Clock::time_point finish = Clock::now();
    int64_t took_us =
        std::chrono::duration_cast<std::chrono::microseconds>(finish - start)
            .count();
    busy += took_us;
    ++claimed;
    morsel_us->Record(static_cast<uint64_t>(took_us));
    idle_since = finish;
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (first_error_.ok()) first_error_ = std::move(status);
      failed_.store(true, std::memory_order_release);
      break;
    }
  }
  morsels->Add(claimed);
  busy_us_[static_cast<size_t>(worker)] = busy;
}

Status TaskPool::RunMorsels(size_t total, size_t morsel_size,
                            const MorselFn& fn) {
  if (morsel_size == 0) morsel_size = 1;
  ICEBERG_COUNTER("taskpool.jobs")->Increment();
  if (num_threads_ == 1 || total <= morsel_size) {
    // Serial path: no threads are woken; Drain on the calling thread
    // claims every morsel in ascending order, exactly the prior inline
    // loop (the atomic counter is uncontended).
    total_ = total;
    morsel_ = morsel_size;
    fn_ = &fn;
    next_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    first_error_ = Status::OK();
    std::fill(busy_us_.begin(), busy_us_.end(), 0);
    Drain(0);
    fn_ = nullptr;
    return first_error_;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    total_ = total;
    morsel_ = morsel_size;
    fn_ = &fn;
    next_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    first_error_ = Status::OK();
    std::fill(busy_us_.begin(), busy_us_.end(), 0);
    workers_running_ = static_cast<int>(threads_.size());
    ++job_seq_;
  }
  work_cv_.notify_all();
  Drain(0);  // the calling thread participates as worker 0
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return workers_running_ == 0; });
  fn_ = nullptr;
  return first_error_;
}

}  // namespace iceberg
