#include "src/server/plan_cache.h"

#include <mutex>
#include <utility>

#include "src/obs/metrics.h"

namespace iceberg {

uint64_t PlanOptionsFingerprint(const IcebergOptions& options) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(options.enable_apriori ? 1 : 0);
  mix(options.enable_memo ? 1 : 0);
  mix(options.enable_prune ? 1 : 0);
  mix(options.cache_index ? 1 : 0);
  mix(options.use_indexes ? 1 : 0);
  mix(static_cast<uint64_t>(options.binding_order));
  mix(options.max_cache_entries);
  // The CBO join-order schedule in a trace is only meaningful to replays
  // planned with the same CBO state (both the session option and the
  // process-wide chicken bit), so both rotate the fingerprint.
  mix(options.base_exec.cbo && CboEnabled() ? 1 : 0);
  return h;
}

uint64_t PlanCache::MapKey(const Key& key) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(key.shape_hash);
  mix(key.version_hash);
  mix(key.options_fp);
  return h;
}

std::shared_ptr<const PlanTrace> PlanCache::Lookup(
    const Key& key, const std::string& shape_text) {
  const uint64_t map_key = MapKey(key);
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = entries_.find(map_key);
    if (it != entries_.end() && it->second->shape == shape_text) {
      it->second->stamp.store(
          clock_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      ICEBERG_COUNTER("plan_cache.hits")->Increment();
      return it->second->trace;
    }
  }
  ICEBERG_COUNTER("plan_cache.misses")->Increment();
  return nullptr;
}

void PlanCache::Insert(const Key& key, const std::string& shape_text,
                       std::shared_ptr<const PlanTrace> trace) {
  if (trace == nullptr || !trace->captured) return;
  const uint64_t map_key = MapKey(key);
  const uint64_t shape_key = key.shape_hash ^ key.options_fp;

  auto entry = std::make_shared<Entry>();
  entry->shape = shape_text;
  entry->trace = std::move(trace);
  entry->stamp.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);

  std::unique_lock<std::shared_mutex> lock(mu_);
  // A mutation rotated the version hash since this shape was last cached:
  // the old generation's entry is unreachable now — drop it and account
  // the invalidation (distinguishing it from plain cold misses).
  auto gen = generations_.find(shape_key);
  if (gen != generations_.end() && gen->second != key.version_hash) {
    Key stale = key;
    stale.version_hash = gen->second;
    if (entries_.erase(MapKey(stale)) > 0) {
      ICEBERG_COUNTER("plan_cache.invalidations")->Increment();
    }
  }
  generations_[shape_key] = key.version_hash;
  // Keep the generation map from outliving its purpose (it only informs
  // the invalidation counter).
  if (max_entries_ > 0 && generations_.size() > max_entries_ * 4) {
    generations_.clear();
    generations_[shape_key] = key.version_hash;
  }

  auto it = entries_.find(map_key);
  if (it != entries_.end()) {
    // Lost a capture race; the incumbent trace is just as valid.
    return;
  }
  entries_.emplace(map_key, std::move(entry));
  if (max_entries_ > 0 && entries_.size() > max_entries_) {
    auto victim = entries_.end();
    uint64_t victim_stamp = ~0ull;
    for (auto e = entries_.begin(); e != entries_.end(); ++e) {
      uint64_t s = e->second->stamp.load(std::memory_order_relaxed);
      if (s < victim_stamp) {
        victim_stamp = s;
        victim = e;
      }
    }
    if (victim != entries_.end()) {
      entries_.erase(victim);
      ICEBERG_COUNTER("plan_cache.evictions")->Increment();
    }
  }
}

void PlanCache::Clear() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  entries_.clear();
  generations_.clear();
}

size_t PlanCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_.size();
}

}  // namespace iceberg
