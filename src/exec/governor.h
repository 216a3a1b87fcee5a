#ifndef SMARTICEBERG_EXEC_GOVERNOR_H_
#define SMARTICEBERG_EXEC_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "src/common/status.h"

namespace iceberg {

/// Deterministic fault-injection hooks for tests. Both callbacks receive a
/// 1-based ordinal that counts invocations across the whole query, so tests
/// can trip "cancel at the Nth governance check" or "budget exhausted at the
/// Nth allocation" without wall-clock sleeps or real memory pressure.
/// Returning a non-OK status injects that failure at that point; soft
/// (advisory) reservations treat the injection as pressure, hard ones as a
/// fatal overrun.
struct GovernorProbe {
  std::function<Status(size_t check_ordinal)> on_check;
  std::function<Status(size_t reserve_ordinal, size_t bytes, const char* tag)>
      on_reserve;
};

/// Per-query resource governor: a wall-clock deadline, a cooperative
/// cancellation token, a byte-denominated memory budget, and an
/// intermediate-row limit, shared by every operator executing one query
/// (including CTE blocks and parallel workers — all methods are
/// thread-safe).
///
/// Operators call Check() at loop granularity (per outer tuple / per
/// binding) and account state growth through Reserve()/Release(). Exceeding
/// a budget degrades gracefully where possible: advisory consumers (the
/// NLJP cache) register a Reclaimer that sheds entries under pressure
/// before any query-fatal error is raised; only mandatory state
/// (aggregation groups, join materialization) that still does not fit
/// poisons the governor with ResourceExhausted.
///
/// Once a fatal condition is observed the governor is "poisoned": every
/// subsequent Check() returns the same status, so deep void callbacks can
/// record failure cheaply and the enclosing loop aborts at its next check.
class QueryGovernor {
 public:
  struct Limits {
    /// Wall-clock deadline in milliseconds from construction. Negative:
    /// no deadline. Zero: already expired (deterministic immediate trip).
    int64_t deadline_ms = -1;
    /// Total bytes of tracked intermediate state. 0 = unlimited.
    size_t memory_budget_bytes = 0;
    /// Joined (intermediate) rows produced before aggregation.
    /// 0 = unlimited.
    size_t max_intermediate_rows = 0;
    /// The memory budget is an admission-controller grant (a share of a
    /// global pool) rather than a property of the query itself. Budget
    /// overruns are then *transient* — another grant may be larger once
    /// load subsides — so the resulting ResourceExhausted is marked
    /// retryable (Status::IsRetryable()).
    bool shared_budget = false;
  };

  QueryGovernor() : QueryGovernor(Limits{}) {}
  explicit QueryGovernor(Limits limits, GovernorProbe probe = GovernorProbe());
  /// Governors are single-use (one per query); destruction publishes the
  /// query's governance footprint (checks, shed entries, budget high-water
  /// mark, remaining deadline headroom) into the global metrics registry.
  ~QueryGovernor();

  // ---- Cooperative cancellation ----
  /// May be called from any thread (e.g. a client disconnect handler).
  void RequestCancel() { cancel_.store(true, std::memory_order_release); }
  bool cancel_requested() const {
    return cancel_.load(std::memory_order_acquire);
  }

  /// Full governance check: fault probe, poison state, cancellation token,
  /// deadline. Called at loop granularity by every governed operator.
  Status Check();

  /// Cheap poll used inside tight inner loops: has a fatal condition
  /// already been recorded?
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

  /// Records a fatal condition; every later Check() returns `status`.
  void Poison(Status status);

  // ---- Memory accounting ----
  /// Hard reservation for mandatory state (aggregation groups, join
  /// materialization). Under pressure the registered reclaimer is asked to
  /// shed advisory state first; if the deficit remains, the governor is
  /// poisoned and ResourceExhausted returned. `tag` names the consumer in
  /// messages and fault-injection probes.
  Status Reserve(size_t bytes, const char* tag);
  /// Soft reservation for advisory state (the NLJP cache). Never poisons:
  /// returns false under pressure so the caller can shed or skip.
  bool TryReserve(size_t bytes, const char* tag);
  void Release(size_t bytes);

  /// Shed callback for advisory state: given a byte deficit, frees at
  /// least that much if possible and returns the bytes actually freed
  /// (releasing them via Release()). At most one reclaimer is active.
  using Reclaimer = std::function<size_t(size_t bytes_needed)>;
  void RegisterReclaimer(Reclaimer fn);
  void UnregisterReclaimer();

  /// Forces the registered reclaimer to shed up to `bytes_needed` bytes of
  /// advisory state right now, regardless of budget headroom. Returns the
  /// bytes actually freed (0 when no reclaimer is registered). Used by the
  /// chaos harness to provoke cache-shed storms at governor check sites;
  /// always safe because advisory state only accelerates.
  size_t ShedAdvisory(size_t bytes_needed);

  /// Counts joined rows flowing out of a join pipeline; poisons with
  /// ResourceExhausted when the limit is crossed.
  Status CountIntermediateRows(size_t rows);

  // ---- Introspection (stats reporting) ----
  const Limits& limits() const { return limits_; }
  size_t checks_performed() const {
    return checks_.load(std::memory_order_relaxed);
  }
  size_t bytes_in_use() const {
    return in_use_.load(std::memory_order_relaxed);
  }
  size_t bytes_peak() const { return peak_.load(std::memory_order_relaxed); }
  size_t intermediate_rows() const {
    return rows_.load(std::memory_order_relaxed);
  }
  /// Advisory entries shed under memory pressure (reported by reclaimers).
  void AddCacheShed(size_t entries) {
    shed_.fetch_add(entries, std::memory_order_relaxed);
  }
  size_t cache_shed_entries() const {
    return shed_.load(std::memory_order_relaxed);
  }
  /// Milliseconds left until the deadline (negative once overrun); -1 when
  /// the query has no deadline. The headroom at query end says how close a
  /// governed workload is running to its SLO.
  int64_t deadline_headroom_ms() const;

  /// The status the governor was poisoned with (OK when never poisoned) —
  /// the "governor verdict" a flight-recorder record stores at attempt end.
  Status poison_status() const;

 private:
  Status ReserveInternal(size_t bytes, const char* tag, bool hard);

  Limits limits_;
  GovernorProbe probe_;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;

  std::atomic<bool> cancel_{false};
  std::atomic<bool> poisoned_{false};
  std::atomic<size_t> checks_{0};
  std::atomic<size_t> reserves_{0};
  std::atomic<size_t> in_use_{0};
  std::atomic<size_t> peak_{0};
  std::atomic<size_t> rows_{0};
  std::atomic<size_t> shed_{0};

  mutable std::mutex poison_mu_;  // guards poison_status_
  Status poison_status_;
  std::mutex reserve_mu_;  // serializes budget admission + reclaimer_
  Reclaimer reclaimer_;
};

using GovernorPtr = std::shared_ptr<QueryGovernor>;

/// Bytes held against one governor and returned when the holder is
/// destroyed: the single RAII handle for state that lives as long as some
/// object (a pipeline's column chunks, a transfer build's Bloom filters,
/// an operator's bindings and LR-groups, a plan's a-priori bitmaps).
/// Movable, not copyable. With a null governor every reservation succeeds
/// and nothing is held.
class GovernorReservation {
 public:
  GovernorReservation() = default;
  explicit GovernorReservation(QueryGovernor* governor)
      : governor_(governor) {}
  GovernorReservation(GovernorReservation&& other) noexcept
      : governor_(other.governor_), bytes_(std::exchange(other.bytes_, 0)) {}
  GovernorReservation& operator=(GovernorReservation&& other) noexcept {
    if (this != &other) {
      ReleaseAll();
      governor_ = other.governor_;
      bytes_ = std::exchange(other.bytes_, 0);
    }
    return *this;
  }
  GovernorReservation(const GovernorReservation&) = delete;
  GovernorReservation& operator=(const GovernorReservation&) = delete;
  ~GovernorReservation() { ReleaseAll(); }

  /// Hard reservation (QueryGovernor::Reserve); held on success.
  Status Reserve(size_t bytes, const char* tag) {
    if (governor_ == nullptr) return Status::OK();
    Status st = governor_->Reserve(bytes, tag);
    if (st.ok()) bytes_ += bytes;
    return st;
  }
  /// Advisory reservation (QueryGovernor::TryReserve); held on success.
  bool TryReserve(size_t bytes, const char* tag) {
    if (governor_ == nullptr) return true;
    if (!governor_->TryReserve(bytes, tag)) return false;
    bytes_ += bytes;
    return true;
  }
  /// Takes over the bytes `other` holds against the same governor.
  void Absorb(GovernorReservation&& other) {
    bytes_ += std::exchange(other.bytes_, 0);
  }

  QueryGovernor* governor() const { return governor_; }

 private:
  void ReleaseAll() {
    if (governor_ != nullptr && bytes_ > 0) governor_->Release(bytes_);
    bytes_ = 0;
  }

  QueryGovernor* governor_ = nullptr;
  size_t bytes_ = 0;
};

}  // namespace iceberg

#endif  // SMARTICEBERG_EXEC_GOVERNOR_H_
