#include "src/exec/governor.h"

#include "src/common/logging.h"
#include "src/obs/metrics.h"

namespace iceberg {

QueryGovernor::QueryGovernor(Limits limits, GovernorProbe probe)
    : limits_(limits), probe_(std::move(probe)) {
  if (limits_.deadline_ms >= 0) {
    has_deadline_ = true;
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(limits_.deadline_ms);
  }
}

QueryGovernor::~QueryGovernor() {
  // Governors are per-query and single-use, so destruction is the exact
  // end-of-query publication point for governance metrics.
  ICEBERG_COUNTER("governor.queries")->Increment();
  ICEBERG_COUNTER("governor.checks")->Add(checks_performed());
  ICEBERG_COUNTER("governor.reserves")
      ->Add(reserves_.load(std::memory_order_relaxed));
  ICEBERG_COUNTER("governor.cache_shed_entries")->Add(cache_shed_entries());
  ICEBERG_GAUGE("governor.budget_peak_bytes")
      ->SetMax(static_cast<int64_t>(bytes_peak()));
  if (has_deadline_) {
    ICEBERG_GAUGE("governor.deadline_headroom_ms")
        ->Set(deadline_headroom_ms());
  }
  if (poisoned_.load(std::memory_order_acquire)) {
    ICEBERG_COUNTER("governor.poisoned_queries")->Increment();
  }
}

int64_t QueryGovernor::deadline_headroom_ms() const {
  if (!has_deadline_) return -1;
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             deadline_ - std::chrono::steady_clock::now())
      .count();
}

void QueryGovernor::Poison(Status status) {
  std::lock_guard<std::mutex> lock(poison_mu_);
  if (poisoned_.load(std::memory_order_relaxed)) return;  // first error wins
  poison_status_ = std::move(status);
  poisoned_.store(true, std::memory_order_release);
}

Status QueryGovernor::poison_status() const {
  if (!poisoned_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(poison_mu_);
  return poison_status_;
}

Status QueryGovernor::Check() {
  size_t ordinal = checks_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (probe_.on_check) {
    Status injected = probe_.on_check(ordinal);
    if (!injected.ok()) {
      Poison(injected);
      return injected;
    }
  }
  if (poisoned_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(poison_mu_);
    return poison_status_;
  }
  if (cancel_.load(std::memory_order_acquire)) {
    return Status::Cancelled("cancellation requested");
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    return Status::Cancelled("deadline of " +
                             std::to_string(limits_.deadline_ms) +
                             "ms exceeded");
  }
  return Status::OK();
}

Status QueryGovernor::ReserveInternal(size_t bytes, const char* tag,
                                      bool hard) {
  size_t ordinal = reserves_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (probe_.on_reserve) {
    Status injected = probe_.on_reserve(ordinal, bytes, tag);
    if (!injected.ok()) {
      if (hard) Poison(injected);
      return injected;
    }
  }
  // Admission and the charge below happen under one hold of the budget
  // lock, so concurrent reservations cannot both pass the check and
  // overshoot the budget together.
  std::unique_lock<std::mutex> lock;
  if (limits_.memory_budget_bytes > 0) {
    lock = std::unique_lock<std::mutex>(reserve_mu_);
    size_t in_use = in_use_.load(std::memory_order_relaxed);
    while (in_use + bytes > limits_.memory_budget_bytes) {
      size_t deficit = in_use + bytes - limits_.memory_budget_bytes;
      size_t freed = reclaimer_ ? reclaimer_(deficit) : 0;
      if (freed > 0) {
        ICEBERG_LOG(INFO) << "budget pressure: shed " << freed
                          << " advisory bytes reserving " << bytes
                          << " for " << tag;
      }
      in_use = in_use_.load(std::memory_order_relaxed);
      if (freed == 0) {
        Status st = Status::ResourceExhausted(
            "memory budget of " +
            std::to_string(limits_.memory_budget_bytes) +
            " bytes exceeded reserving " + std::to_string(bytes) +
            " bytes for " + tag);
        // An admission-apportioned share may be larger on resubmission;
        // the query's own budget repeats deterministically.
        if (limits_.shared_budget) st.MarkRetryable();
        lock.unlock();
        if (hard) {
          ICEBERG_LOG(WARN) << "memory budget exhausted: "
                            << limits_.memory_budget_bytes
                            << " bytes, hard reservation of " << bytes
                            << " bytes for " << tag << " failed";
          Poison(st);
        }
        return st;
      }
    }
  }
  size_t now = in_use_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  size_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
  return Status::OK();
}

Status QueryGovernor::Reserve(size_t bytes, const char* tag) {
  return ReserveInternal(bytes, tag, /*hard=*/true);
}

bool QueryGovernor::TryReserve(size_t bytes, const char* tag) {
  return ReserveInternal(bytes, tag, /*hard=*/false).ok();
}

void QueryGovernor::Release(size_t bytes) {
  size_t in_use = in_use_.load(std::memory_order_relaxed);
  while (true) {
    size_t next = bytes > in_use ? 0 : in_use - bytes;
    if (in_use_.compare_exchange_weak(in_use, next,
                                      std::memory_order_relaxed)) {
      return;
    }
  }
}

void QueryGovernor::RegisterReclaimer(Reclaimer fn) {
  std::lock_guard<std::mutex> lock(reserve_mu_);
  reclaimer_ = std::move(fn);
}

void QueryGovernor::UnregisterReclaimer() {
  std::lock_guard<std::mutex> lock(reserve_mu_);
  reclaimer_ = nullptr;
}

size_t QueryGovernor::ShedAdvisory(size_t bytes_needed) {
  std::lock_guard<std::mutex> lock(reserve_mu_);
  if (!reclaimer_) return 0;
  return reclaimer_(bytes_needed);
}

Status QueryGovernor::CountIntermediateRows(size_t rows) {
  size_t total = rows_.fetch_add(rows, std::memory_order_relaxed) + rows;
  if (limits_.max_intermediate_rows > 0 &&
      total > limits_.max_intermediate_rows) {
    Status st = Status::ResourceExhausted(
        "intermediate-row limit of " +
        std::to_string(limits_.max_intermediate_rows) + " rows exceeded");
    ICEBERG_LOG(WARN) << "intermediate-row limit tripped at " << total
                      << " rows (limit " << limits_.max_intermediate_rows
                      << ")";
    Poison(st);
    return st;
  }
  return Status::OK();
}

}  // namespace iceberg
