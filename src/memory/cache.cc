#include "memory/cache.h"

#include <algorithm>

#include "common/check.h"

namespace grs {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  GRS_CHECK(cfg.num_sets() >= 1);
  GRS_CHECK(cfg.ways >= 1);
  ways_.resize(static_cast<std::size_t>(cfg.num_sets()) * cfg.ways);
}

std::size_t Cache::set_index(Addr line_addr) const {
  return static_cast<std::size_t>(line_addr / cfg_.line_bytes) % cfg_.num_sets();
}

void Cache::install(Addr line_addr) {
  const std::size_t base = set_index(line_addr) * cfg_.ways;
  // Reuse an existing tag slot if present (refill), else evict LRU.
  std::size_t victim = base;
  std::uint64_t best = ways_[base].lru;
  for (std::size_t w = base; w < base + cfg_.ways; ++w) {
    if (ways_[w].valid && ways_[w].tag == line_addr) {
      ways_[w].lru = ++stamp_;
      return;
    }
    if (!ways_[w].valid) {
      victim = w;
      best = 0;
    } else if (ways_[w].lru < best) {
      victim = w;
      best = ways_[w].lru;
    }
  }
  ways_[victim] = Way{line_addr, true, ++stamp_};
}

void Cache::drain(Cycle now) {
  // Collect, then install sorted by (ready, line): a drain that covers
  // several cycles at once (the event-driven loop wakes an SM after a
  // multi-cycle idle window) must assign LRU stamps in the same order a
  // cycle-by-cycle drain would, or replacement decisions diverge between
  // execution modes. The line-address tie-break keeps same-cycle batches
  // independent of hash-map iteration order.
  if (now < min_ready_) return;
  ready_scratch_.clear();
  min_ready_ = kNeverCycle;
  for (auto it = mshr_.begin(); it != mshr_.end();) {
    if (it->second <= now) {
      ready_scratch_.emplace_back(it->second, it->first);
      it = mshr_.erase(it);
    } else {
      min_ready_ = std::min(min_ready_, it->second);
      ++it;
    }
  }
  std::sort(ready_scratch_.begin(), ready_scratch_.end());
  for (const auto& [ready, line] : ready_scratch_) install(line);
}

Cache::LookupResult Cache::lookup(Addr line_addr, Cycle now) {
  ++accesses;
  drain(now);

  const std::size_t base = set_index(line_addr) * cfg_.ways;
  for (std::size_t w = base; w < base + cfg_.ways; ++w) {
    if (ways_[w].valid && ways_[w].tag == line_addr) {
      ways_[w].lru = ++stamp_;
      ++hits;
      return LookupResult{.hit = true};
    }
  }

  if (auto it = mshr_.find(line_addr); it != mshr_.end()) {
    ++merges;
    return LookupResult{.hit = false, .mshr_merge = true, .ready = it->second};
  }

  if (mshr_.size() >= cfg_.mshr_entries) {
    --accesses;  // structural reject: the access will be retried
    return LookupResult{.mshr_full = true};
  }

  ++misses;
  return LookupResult{};  // primary miss; caller calls fill_inflight()
}

void Cache::fill_inflight(Addr line_addr, Cycle ready) {
  GRS_CHECK(mshr_.size() < cfg_.mshr_entries);
  if (mshr_.emplace(line_addr, ready).second) min_ready_ = std::min(min_ready_, ready);
}

}  // namespace grs
