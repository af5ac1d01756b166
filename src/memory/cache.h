// Set-associative cache tag array with LRU replacement and an MSHR table.
//
// This is a *timing* cache: it tracks tags and in-flight misses, not data.
// Fill discipline: a missing line is entered into the MSHR with the cycle at
// which the lower level will deliver it; tags are installed lazily when a
// later access observes that the ready cycle has passed ("fill on ready").
// Accesses to a line already in flight merge into the existing MSHR entry and
// complete at its ready cycle without generating lower-level traffic.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/types.h"

namespace grs {

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  struct LookupResult {
    bool hit = false;         ///< tag present (or line already delivered)
    bool mshr_merge = false;  ///< miss merged into an in-flight entry
    bool mshr_full = false;   ///< structural: no MSHR entry available
    Cycle ready = 0;          ///< earliest cycle data is available (merge only)
  };

  /// Probe the cache at `now`. On a primary miss the caller must then call
  /// `fill_inflight(line, ready)` with the lower level's completion cycle.
  /// Does not allocate on miss by itself.
  [[nodiscard]] LookupResult lookup(Addr line_addr, Cycle now);

  /// Register a primary miss in the MSHR: the line becomes resident (tag
  /// installed) once `ready` has passed.
  void fill_inflight(Addr line_addr, Cycle ready);

  /// Deliver every in-flight line whose data has arrived by `now`. Must be
  /// called once per cycle by the owner: lookup() also drains, but a full
  /// MSHR blocks issues *before* lookup, so without an explicit drain the
  /// cache would deadlock against its own occupancy pre-check. O(1) when
  /// nothing is due yet.
  void drain(Cycle now);

  /// Number of MSHR entries currently in flight (for tests).
  [[nodiscard]] std::size_t inflight() const { return mshr_.size(); }

  /// Earliest ready cycle over the in-flight misses, kNeverCycle when none.
  /// The event-driven loop uses this as a wakeup: a warp blocked on MSHR
  /// capacity can become issuable as soon as any entry drains.
  [[nodiscard]] Cycle next_ready() const { return min_ready_; }

  [[nodiscard]] const CacheConfig& config() const { return cfg_; }

  // Statistics (primary accesses only; the caller classifies).
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t merges = 0;

 private:
  struct Way {
    Addr tag = 0;
    bool valid = false;
    std::uint64_t lru = 0;  ///< last-touch stamp
  };

  void install(Addr line_addr);
  [[nodiscard]] std::size_t set_index(Addr line_addr) const;

  CacheConfig cfg_;
  std::vector<Way> ways_;               ///< num_sets * ways, row-major
  std::unordered_map<Addr, Cycle> mshr_;  ///< line -> ready cycle
  Cycle min_ready_ = kNeverCycle;         ///< earliest ready cycle in mshr_
  std::vector<std::pair<Cycle, Addr>> ready_scratch_;  ///< drain() sort buffer
  std::uint64_t stamp_ = 0;
};

}  // namespace grs
