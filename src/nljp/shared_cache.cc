#include "src/nljp/shared_cache.h"

#include <algorithm>
#include <limits>

namespace iceberg {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

size_t NljpCacheEntryBytes(const NljpCacheEntry& entry) {
  size_t bytes = RowBytes(entry.binding) + sizeof(NljpCacheEntry);
  for (const NljpPartitionPayload& p : entry.partitions) {
    bytes += RowBytes(p.gr_key);
    for (const Row& r : p.partials) bytes += RowBytes(r);
    bytes += p.finals.size() * sizeof(Value);
  }
  return bytes;
}

SharedNljpCache::SharedNljpCache(Options options)
    : options_(std::move(options)) {
  size_t stripes = RoundUpPow2(std::max<size_t>(options_.stripes, 1));
  stripe_mask_ = stripes - 1;
  memo_stripes_ = std::vector<MemoStripe>(stripes);
  if (options_.witness_index) {
    witness_stripes_ = std::vector<WitnessStripe>(stripes);
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  inserts_ = registry.GetCounter("nljp.cache.inserts");
  contention_ = registry.GetCounter("nljp.cache.contention");
}

std::unique_lock<std::mutex> SharedNljpCache::LockStripe(std::mutex& mu) {
  std::unique_lock<std::mutex> lock(mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    contention_->Increment();
    lock.lock();
  }
  return lock;
}

SharedNljpCache::~SharedNljpCache() {
  if (options_.governor != nullptr) {
    options_.governor->Release(live_bytes_.load(std::memory_order_relaxed));
  }
}

Row SharedNljpCache::EqKeyOf(const Row& binding) const {
  Row key;
  key.reserve(options_.eq_positions.size());
  for (size_t pos : options_.eq_positions) key.push_back(binding[pos]);
  return key;
}

size_t SharedNljpCache::MemoStripeOf(const Row& binding) const {
  return RowHash()(binding) & stripe_mask_;
}

size_t SharedNljpCache::WitnessStripeOf(const Row& eq_key) const {
  return RowHash()(eq_key) & stripe_mask_;
}

NljpCacheEntryPtr SharedNljpCache::Lookup(const NljpBindingProbe& probe) {
  const bool packed = options_.binding_codec.usable();
  if (options_.scan_lookup) {
    RowEq eq;
    for (MemoStripe& stripe : memo_stripes_) {
      auto lock = LockStripe(stripe.mu);
      for (const Slot& slot : stripe.slots) {
        if (slot.live && (packed ? slot.memo_key == *probe.memo_key
                                 : eq(slot.entry->binding, *probe.binding))) {
          return slot.entry;
        }
      }
    }
    return nullptr;
  }
  if (packed) {
    MemoStripe& stripe = memo_stripes_[probe.memo_key->hash() & stripe_mask_];
    auto lock = LockStripe(stripe.mu);
    auto it = stripe.by_binding_packed.find(*probe.memo_key);
    if (it == stripe.by_binding_packed.end()) return nullptr;
    return stripe.slots[it->second].entry;
  }
  MemoStripe& stripe = memo_stripes_[MemoStripeOf(*probe.binding)];
  auto lock = LockStripe(stripe.mu);
  auto it = stripe.by_binding.find(*probe.binding);
  if (it == stripe.by_binding.end()) return nullptr;
  return stripe.slots[it->second].entry;
}

void SharedNljpCache::RemoveWitness(uint64_t witness_id, const Row& binding) {
  if (witness_id == 0 || witness_stripes_.empty()) return;
  // Erases the witness in place, keeping the bucket's insertion order.
  const size_t width = options_.decoded_width;
  auto scrub = [witness_id, width](auto& bucket_map, auto bucket_it) {
    WitnessBucket& bucket = bucket_it->second;
    auto id = std::find(bucket.ids.begin(), bucket.ids.end(), witness_id);
    if (id == bucket.ids.end()) return;
    size_t j = static_cast<size_t>(id - bucket.ids.begin());
    bucket.ids.erase(id);
    bucket.bits.erase(bucket.bits.begin() + j);
    auto values = bucket.values.begin() + j * width;
    bucket.values.erase(values, values + width);
    if (bucket.ids.empty()) bucket_map.erase(bucket_it);
  };
  if (options_.eq_codec.usable()) {
    PackedKey key;
    options_.eq_codec.EncodeAt(binding, options_.eq_positions, &key);
    WitnessStripe& stripe = witness_stripes_[key.hash() & stripe_mask_];
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto bucket = stripe.buckets_packed.find(key);
    if (bucket != stripe.buckets_packed.end()) {
      scrub(stripe.buckets_packed, bucket);
    }
    return;
  }
  Row eq_key = EqKeyOf(binding);
  WitnessStripe& stripe = witness_stripes_[WitnessStripeOf(eq_key)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto bucket = stripe.buckets.find(eq_key);
  if (bucket != stripe.buckets.end()) {
    scrub(stripe.buckets, bucket);
  }
}

size_t SharedNljpCache::EvictOneGlobal(size_t start_stripe) {
  const size_t stripes = memo_stripes_.size();
  for (size_t i = 0; i < stripes; ++i) {
    MemoStripe& stripe = memo_stripes_[(start_stripe + i) & stripe_mask_];
    size_t freed = 0;
    uint64_t witness_id = 0;
    NljpCacheEntryPtr entry;
    {
      std::lock_guard<std::mutex> lock(stripe.mu);
      if (stripe.fifo.empty()) continue;
      size_t id = stripe.fifo.front();
      stripe.fifo.pop_front();
      Slot& slot = stripe.slots[id];
      if (options_.binding_codec.usable()) {
        stripe.by_binding_packed.erase(slot.memo_key);
      } else {
        stripe.by_binding.erase(slot.entry->binding);
      }
      freed = slot.bytes;
      witness_id = slot.witness_id;
      entry = std::move(slot.entry);
      slot = Slot();
      stripe.free_slots.push_back(id);
    }
    // Witness removal and byte release happen outside the memo stripe
    // lock; a prune test that still sees the witness in the gap is safe
    // (the witness was a true witness when cached).
    RemoveWitness(witness_id, entry->binding);
    live_entries_.fetch_sub(1, std::memory_order_relaxed);
    live_bytes_.fetch_sub(freed, std::memory_order_relaxed);
    if (options_.governor != nullptr) options_.governor->Release(freed);
    return freed;
  }
  return 0;
}

void SharedNljpCache::Insert(NljpCacheEntryPtr entry,
                             const NljpBindingProbe& probe) {
  inserts_->Increment();
  const size_t bytes = NljpCacheEntryBytes(*entry);
  // Advisory reservation, taken with no stripe lock held: under pressure
  // the governor's reclaimer sheds older entries first (possibly ours from
  // a sibling's insert); if the new entry still does not fit, drop it
  // rather than failing the query.
  if (options_.governor != nullptr &&
      !options_.governor->TryReserve(bytes, "nljp-cache")) {
    shed_entries_.fetch_add(1, std::memory_order_relaxed);
    options_.governor->AddCacheShed(1);
    return;
  }
  uint64_t witness_id = 0;
  if (options_.witness_index && entry->unpromising) {
    witness_id = next_witness_id_.fetch_add(1, std::memory_order_relaxed);
    auto add = [&](WitnessBucket& bucket) {
      bucket.ids.push_back(witness_id);
      bucket.bits.push_back(probe.decoded_bits);
      bucket.values.insert(bucket.values.end(), probe.decoded,
                           probe.decoded + options_.decoded_width);
    };
    if (options_.eq_codec.usable()) {
      WitnessStripe& stripe =
          witness_stripes_[probe.eq_key->hash() & stripe_mask_];
      auto lock = LockStripe(stripe.mu);
      add(stripe.buckets_packed[*probe.eq_key]);
    } else {
      Row eq_key = EqKeyOf(entry->binding);
      WitnessStripe& stripe = witness_stripes_[WitnessStripeOf(eq_key)];
      auto lock = LockStripe(stripe.mu);
      add(stripe.buckets[std::move(eq_key)]);
    }
  }
  const bool packed = options_.binding_codec.usable();
  const size_t stripe_idx = packed ? probe.memo_key->hash() & stripe_mask_
                                   : MemoStripeOf(entry->binding);
  bool duplicate = false;
  {
    MemoStripe& stripe = memo_stripes_[stripe_idx];
    auto lock = LockStripe(stripe.mu);
    if (options_.memo_index &&
        (packed ? stripe.by_binding_packed.count(*probe.memo_key) > 0
                : stripe.by_binding.count(entry->binding) > 0)) {
      // A sibling cached the same binding between our miss and now; keep
      // the first copy (identical contents) and back out ours below,
      // outside the lock.
      duplicate = true;
    } else {
      size_t id;
      if (!stripe.free_slots.empty()) {
        id = stripe.free_slots.back();
        stripe.free_slots.pop_back();
      } else {
        id = stripe.slots.size();
        stripe.slots.emplace_back();
      }
      Slot& slot = stripe.slots[id];
      if (packed) slot.memo_key = *probe.memo_key;
      slot.entry = entry;
      slot.bytes = bytes;
      slot.witness_id = witness_id;
      slot.live = true;
      stripe.fifo.push_back(id);
      if (options_.memo_index) {
        if (packed) {
          stripe.by_binding_packed.emplace(slot.memo_key, id);
        } else {
          stripe.by_binding.emplace(entry->binding, id);
        }
      }
    }
  }
  if (duplicate) {
    RemoveWitness(witness_id, entry->binding);
    if (options_.governor != nullptr) options_.governor->Release(bytes);
    return;
  }
  live_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  live_entries_.fetch_add(1, std::memory_order_relaxed);
  // FIFO bound (paper Section 7 future work), per-stripe eviction with an
  // exact global count: every insert that pushed the total over the bound
  // retires one oldest entry before returning, so at quiescence
  // live_entries() <= max_entries. EvictOneGlobal can only come up empty
  // when a concurrent evictor got there first, in which case the total has
  // already dropped — re-check rather than spin.
  while (options_.max_entries > 0) {
    size_t live = live_entries_.load(std::memory_order_relaxed);
    if (live <= options_.max_entries) break;
    if (EvictOneGlobal(next_evict_stripe_.fetch_add(
            1, std::memory_order_relaxed)) > 0) {
      evictions_.fetch_add(1, std::memory_order_relaxed);
      break;  // this insert's overage is paid for
    }
  }
}

size_t SharedNljpCache::Shed(size_t bytes_needed) {
  {
    std::lock_guard<std::mutex> lock(answer_mu_);
    answer_.reset();
  }
  size_t freed = 0;
  size_t count = 0;
  while (freed < bytes_needed) {
    size_t f = EvictOneGlobal(
        next_evict_stripe_.fetch_add(1, std::memory_order_relaxed));
    if (f == 0) break;
    freed += f;
    ++count;
  }
  if (count > 0) {
    shed_entries_.fetch_add(count, std::memory_order_relaxed);
    if (options_.governor != nullptr) options_.governor->AddCacheShed(count);
  }
  return freed;
}

NljpAnswerPtr SharedNljpCache::answer() const {
  std::lock_guard<std::mutex> lock(answer_mu_);
  return answer_;
}

void SharedNljpCache::RecordAnswer(const std::vector<Row>& rows) {
  if (options_.max_entries > 0 && rows.size() > options_.max_entries) return;
  std::lock_guard<std::mutex> lock(answer_mu_);
  if (answer_ == nullptr) {
    answer_ = std::make_shared<const std::vector<Row>>(rows);
  }
}

SharedNljpCachePtr NljpCacheRegistry::GetOrCreate(
    uint64_t key, const std::function<SharedNljpCache::Options()>& make) {
  std::lock_guard<std::mutex> lock(mu_);
  auto found = index_.find(key);
  if (found != index_.end()) {
    caches_.splice(caches_.begin(), caches_, found->second);  // MRU to front
    ICEBERG_COUNTER("nljp.registry.hits")->Increment();
    return caches_.front().second;
  }
  SharedNljpCache::Options opts = make();
  // Cross-query caches outlive any single query: never charge a per-query
  // governor, and always keep a hard entry bound.
  opts.governor = nullptr;
  if (opts.max_entries == 0 || opts.max_entries > max_entries_per_cache_) {
    opts.max_entries = max_entries_per_cache_;
  }
  auto cache = std::make_shared<SharedNljpCache>(std::move(opts));
  caches_.emplace_front(key, cache);
  index_[key] = caches_.begin();
  ICEBERG_COUNTER("nljp.registry.misses")->Increment();
  while (caches_.size() > max_caches_) {
    index_.erase(caches_.back().first);
    caches_.pop_back();
    ICEBERG_COUNTER("nljp.registry.evicted_caches")->Increment();
  }
  return cache;
}

size_t NljpCacheRegistry::ShedAll() {
  std::vector<SharedNljpCachePtr> caches;
  {
    std::lock_guard<std::mutex> lock(mu_);
    caches.reserve(caches_.size());
    for (const auto& [key, cache] : caches_) caches.push_back(cache);
  }
  // Shed outside the registry lock: Shed takes stripe locks and may run
  // concurrently with queries inserting into the same caches.
  size_t freed = 0;
  for (const SharedNljpCachePtr& cache : caches) {
    freed += cache->Shed(std::numeric_limits<size_t>::max());
  }
  return freed;
}

void NljpCacheRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  caches_.clear();
  index_.clear();
}

size_t NljpCacheRegistry::num_caches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return caches_.size();
}

size_t NljpCacheRegistry::total_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [key, cache] : caches_) total += cache->live_entries();
  return total;
}

}  // namespace iceberg
