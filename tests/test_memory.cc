// Memory hierarchy: cache tags + MSHR, DRAM timing, L2 composition, and the
// coalescer's address-synthesis properties.
#include <gtest/gtest.h>

#include <set>

#include "common/config.h"
#include "memory/cache.h"
#include "memory/coalescer.h"
#include "memory/dram.h"
#include "memory/memsys.h"

namespace grs {
namespace {

// --- Cache -------------------------------------------------------------------

TEST(Cache, MissThenFillThenHit) {
  Cache c(CacheConfig{});
  auto r = c.lookup(0x1000, 10);
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(r.mshr_merge);
  c.fill_inflight(0x1000, 100);

  r = c.lookup(0x1000, 50);  // data still in flight
  EXPECT_TRUE(r.mshr_merge);
  EXPECT_EQ(r.ready, 100u);

  r = c.lookup(0x1000, 101);  // delivered
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(c.inflight(), 0u);
}

TEST(Cache, MergeDoesNotCreateSecondFill) {
  Cache c(CacheConfig{});
  (void)c.lookup(0x80, 0);
  c.fill_inflight(0x80, 50);
  (void)c.lookup(0x80, 1);
  (void)c.lookup(0x80, 2);
  EXPECT_EQ(c.merges, 2u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.inflight(), 1u);
}

TEST(Cache, MshrFullRejectsWithoutCounting) {
  CacheConfig cfg;
  cfg.mshr_entries = 2;
  Cache c(cfg);
  for (Addr a = 0; a < 2 * 128; a += 128) {
    (void)c.lookup(a, 0);
    c.fill_inflight(a, 1000);
  }
  const std::uint64_t accesses_before = c.accesses;
  const auto r = c.lookup(0x10000, 1);
  EXPECT_TRUE(r.mshr_full);
  EXPECT_EQ(c.accesses, accesses_before) << "structural reject must not count";
}

TEST(Cache, ExplicitDrainInstallsReadyLines) {
  CacheConfig cfg;
  cfg.mshr_entries = 1;
  Cache c(cfg);
  (void)c.lookup(0, 0);
  c.fill_inflight(0, 10);
  // Without drain, the MSHR stays full and blocks forever (the livelock this
  // API exists to prevent).
  c.drain(11);
  EXPECT_EQ(c.inflight(), 0u);
  EXPECT_TRUE(c.lookup(0, 12).hit);
}

TEST(Cache, LruEvictsOldestWay) {
  CacheConfig cfg;
  cfg.size_bytes = 4 * 128;  // 1 set x 4 ways? sets = size/(line*ways) = 1
  cfg.ways = 4;
  cfg.line_bytes = 128;
  Cache c(cfg);
  auto install = [&](Addr a, Cycle t) {
    (void)c.lookup(a, t);
    c.fill_inflight(a, t);
    c.drain(t + 1);
  };
  for (int i = 0; i < 4; ++i) install(i * 128, i);
  EXPECT_TRUE(c.lookup(0, 10).hit);  // touch line 0: now line 1 is LRU
  install(4 * 128, 20);              // evicts line 1
  EXPECT_TRUE(c.lookup(0, 21).hit);
  EXPECT_FALSE(c.lookup(128, 22).hit) << "LRU way should have been evicted";
}

TEST(Cache, DistinctSetsDoNotConflict) {
  Cache c(CacheConfig{});  // 16KB, 4-way, 32 sets
  auto install = [&](Addr a, Cycle t) {
    (void)c.lookup(a, t);
    c.fill_inflight(a, t);
    c.drain(t + 1);
  };
  // 32 lines mapping to 32 distinct sets; all must coexist.
  for (Addr i = 0; i < 32; ++i) install(i * 128, i);
  for (Addr i = 0; i < 32; ++i) EXPECT_TRUE(c.lookup(i * 128, 100).hit) << i;
}

TEST(Cache, NextReadyTracksEarliestInflightMiss) {
  Cache c(CacheConfig{});
  EXPECT_EQ(c.next_ready(), kNeverCycle);
  (void)c.lookup(0, 0);
  c.fill_inflight(0, 120);
  (void)c.lookup(128, 0);
  c.fill_inflight(128, 80);
  EXPECT_EQ(c.next_ready(), 80u);
  c.drain(80);
  EXPECT_EQ(c.next_ready(), 120u);
  c.drain(120);
  EXPECT_EQ(c.next_ready(), kNeverCycle);
}

TEST(Cache, NextReadyFollowsPartialDrains) {
  // drain() keeps the earliest in-flight ready cycle as it removes delivered
  // entries, and returns early while nothing is due.
  Cache c(CacheConfig{});
  (void)c.lookup(0, 0);
  c.fill_inflight(0, 30);
  (void)c.lookup(128, 0);
  c.fill_inflight(128, 50);
  EXPECT_EQ(c.next_ready(), 30u);
  c.drain(29);  // nothing due yet
  EXPECT_EQ(c.inflight(), 2u);
  EXPECT_EQ(c.next_ready(), 30u);
  c.drain(40);  // delivers only the first fill
  EXPECT_EQ(c.inflight(), 1u);
  EXPECT_EQ(c.next_ready(), 50u);
  EXPECT_TRUE(c.lookup(0, 41).hit);
  // A later fill that is due earlier lowers the minimum again.
  (void)c.lookup(256, 41);
  c.fill_inflight(256, 45);
  EXPECT_EQ(c.next_ready(), 45u);
  // lookup() drains too: both remaining fills are delivered by cycle 60.
  EXPECT_TRUE(c.lookup(128, 60).hit);
  EXPECT_EQ(c.inflight(), 0u);
  EXPECT_EQ(c.next_ready(), kNeverCycle);
  EXPECT_TRUE(c.lookup(256, 61).hit);
}

TEST(Cache, BatchDrainInstallsInReadyOrder) {
  // A drain covering several cycles at once (event-driven wakeup) must stamp
  // LRU recency in ready order, exactly as a cycle-by-cycle drain would.
  CacheConfig cfg;
  cfg.size_bytes = 2 * 128;  // one set, two ways
  cfg.ways = 2;
  cfg.line_bytes = 128;
  Cache c(cfg);
  (void)c.lookup(0, 0);
  c.fill_inflight(0, 20);  // ready late
  (void)c.lookup(128, 0);
  c.fill_inflight(128, 10);  // ready early
  c.drain(25);  // one batch: must install line 128 (ready 10) before line 0
  (void)c.lookup(256, 30);  // third line: evicts the LRU way
  c.fill_inflight(256, 30);
  c.drain(31);
  EXPECT_TRUE(c.lookup(0, 40).hit) << "most-recently-installed line evicted";
  EXPECT_FALSE(c.lookup(128, 41).hit) << "LRU (earliest-ready) line kept";
}

TEST(Cache, SameReadyLinesInstallInLineOrder) {
  // Two lines due in the same cycle, filled in descending address order:
  // the drain installs them in line order, so the lower address is the LRU
  // way and the third line evicts it.
  CacheConfig cfg;
  cfg.size_bytes = 2 * 128;  // one set, two ways
  cfg.ways = 2;
  cfg.line_bytes = 128;
  Cache c(cfg);
  (void)c.lookup(128, 0);
  c.fill_inflight(128, 10);
  (void)c.lookup(0, 0);
  c.fill_inflight(0, 10);
  c.drain(10);
  (void)c.lookup(256, 20);
  c.fill_inflight(256, 30);
  c.drain(30);
  EXPECT_FALSE(c.lookup(0, 40).hit) << "lower address installed first, evicted first";
  EXPECT_TRUE(c.lookup(128, 41).hit);
  EXPECT_TRUE(c.lookup(256, 42).hit);
}

TEST(Cache, ReMissFollowsTheNewReadyCycle) {
  // Fill a line, drain it, evict it, miss on it again: next_ready() follows
  // the refill alone, with nothing left of the first fill.
  CacheConfig cfg;
  cfg.size_bytes = 2 * 128;  // one set, two ways
  cfg.ways = 2;
  cfg.line_bytes = 128;
  Cache c(cfg);
  (void)c.lookup(0, 0);
  c.fill_inflight(0, 10);
  c.drain(10);
  EXPECT_EQ(c.next_ready(), kNeverCycle);
  EXPECT_TRUE(c.lookup(0, 11).hit);
  (void)c.lookup(128, 12);
  c.fill_inflight(128, 20);
  (void)c.lookup(256, 13);
  c.fill_inflight(256, 30);
  c.drain(30);  // line 0 is the LRU way: 256 evicts it
  EXPECT_EQ(c.next_ready(), kNeverCycle);
  EXPECT_FALSE(c.lookup(0, 40).hit);
  c.fill_inflight(0, 90);
  EXPECT_EQ(c.inflight(), 1u);
  EXPECT_EQ(c.next_ready(), 90u);
  c.drain(89);
  EXPECT_EQ(c.inflight(), 1u);
  EXPECT_EQ(c.next_ready(), 90u);
  c.drain(90);
  EXPECT_EQ(c.inflight(), 0u);
  EXPECT_EQ(c.next_ready(), kNeverCycle);
  EXPECT_TRUE(c.lookup(0, 91).hit);
}

// --- DRAM ---------------------------------------------------------------------

TEST(Dram, RowHitCheaperThanRowMiss) {
  const DramConfig cfg;
  Dram d(cfg, 128);
  const Cycle first = d.request(0, 0);            // row miss (cold)
  const Cycle second = d.request(128 * 6, first); // same bank (channel 0), same row
  EXPECT_EQ(d.row_hits, 1u);
  EXPECT_LT(second - first, first - 0) << "row hit should be serviced faster";
}

TEST(Dram, BusyBankQueuesRequests) {
  Dram d(DramConfig{}, 128);
  const Cycle t1 = d.request(0, 0);
  const Cycle t2 = d.request(0, 0);  // same line, same instant: must queue
  EXPECT_GT(t2, t1);
}

TEST(Dram, DifferentChannelsServeInParallel) {
  Dram d(DramConfig{}, 128);
  const Cycle t1 = d.request(0, 0);
  const Cycle t2 = d.request(128, 0);  // adjacent line -> different channel
  EXPECT_EQ(t1, t2);
}

TEST(Dram, RowWindowModelsFrFcfsReordering) {
  DramConfig cfg;
  cfg.row_window = 2;
  Dram d(cfg, 128);
  Cycle now = 0;
  (void)d.request(0, now);                       // row A (channel 0, bank 0)
  // Same-bank different row: row bits above row_bytes with same channel.
  // channel = line % 6; row = addr / 2048. Use addr = 6*2048*k to stay on
  // channel 0 while switching rows.
  (void)d.request(6 * 2048, now);                // row B, same channel
  (void)d.request(0, now + 100);                 // row A again: still in window
  EXPECT_EQ(d.row_hits, 1u);
  (void)d.request(2 * 6 * 2048, now + 200);      // row C: evicts A (LRU)
  (void)d.request(6 * 2048, now + 300);          // row B: still present
  EXPECT_EQ(d.row_hits, 2u);
}

TEST(Dram, LatencyIncludesBaseTransit) {
  const DramConfig cfg;
  Dram d(cfg, 128);
  const Cycle t = d.request(0, 1000);
  EXPECT_GE(t, 1000 + cfg.base_latency + cfg.row_miss_service);
}

// --- MemorySystem ---------------------------------------------------------------

TEST(MemSys, L2HitMatchesConfiguredLatency) {
  const GpuConfig cfg;
  MemorySystem m(cfg);
  const Cycle miss = m.access(0x4000, 0);
  EXPECT_GT(miss, cfg.l2_hit_latency);  // first touch goes to DRAM
  const Cycle hit = m.access(0x4000, miss + 10);
  EXPECT_EQ(hit - (miss + 10), cfg.l2_hit_latency);
  EXPECT_EQ(m.l2_misses(), 1u);
  EXPECT_EQ(m.l2_accesses(), 2u);
}

TEST(MemSys, ConcurrentMissesToSameLineMerge) {
  MemorySystem m(GpuConfig{});
  (void)m.access(0x8000, 0);
  (void)m.access(0x8000, 1);  // in flight: merged, no 2nd DRAM request
  EXPECT_EQ(m.dram_requests(), 1u);
}

TEST(MemSys, DistinctLinesReachDram) {
  MemorySystem m(GpuConfig{});
  (void)m.access(0, 0);
  (void)m.access(1 << 20, 0);
  EXPECT_EQ(m.dram_requests(), 2u);
}

// Regression: the bank split used to integer-divide size_bytes and
// mshr_entries by num_channels, silently shrinking total L2 capacity and
// MSHRs whenever the division had a remainder (the default 256 MSHRs over 6
// channels lost 4 entries). The per-bank sums must reconstruct the
// configured totals exactly.
TEST(MemSys, BankSplitReconstructsConfiguredTotals) {
  GpuConfig cfg;
  cfg.dram.num_channels = 5;          // 768 sets -> 153*5 + 3 remainder
  cfg.l2.mshr_entries = 257;          // 51*5 + 2 remainder
  MemorySystem m(cfg);
  ASSERT_EQ(m.num_banks(), 5u);
  std::uint64_t sum_bytes = 0, sum_mshr = 0;
  for (std::uint32_t b = 0; b < m.num_banks(); ++b) {
    const CacheConfig& bank = m.bank_config(b);
    EXPECT_GE(bank.num_sets(), 1u) << "bank " << b;
    // Low banks take the remainder, so per-bank capacity never increases.
    if (b > 0) {
      EXPECT_LE(bank.size_bytes, m.bank_config(b - 1).size_bytes);
      EXPECT_LE(bank.mshr_entries, m.bank_config(b - 1).mshr_entries);
    }
    sum_bytes += bank.size_bytes;
    sum_mshr += bank.mshr_entries;
  }
  EXPECT_EQ(sum_bytes, cfg.l2.size_bytes);
  EXPECT_EQ(sum_mshr, cfg.l2.mshr_entries);
}

TEST(MemSys, DefaultConfigBankSplitIsExact) {
  const GpuConfig cfg;  // 768KB / 6 channels, 256 MSHRs / 6 channels
  MemorySystem m(cfg);
  std::uint64_t sum_bytes = 0, sum_mshr = 0;
  for (std::uint32_t b = 0; b < m.num_banks(); ++b) {
    sum_bytes += m.bank_config(b).size_bytes;
    sum_mshr += m.bank_config(b).mshr_entries;
  }
  EXPECT_EQ(sum_bytes, cfg.l2.size_bytes);
  EXPECT_EQ(sum_mshr, cfg.l2.mshr_entries);
}

// --- Coalescer --------------------------------------------------------------------

Instruction gmem(MemPattern p, Locality l, std::uint8_t region, std::uint32_t fp) {
  Instruction i;
  i.op = Op::kLdGlobal;
  i.dst = 0;
  i.pattern = p;
  i.locality = l;
  i.region = region;
  i.footprint_lines = fp;
  return i;
}

TEST(Coalescer, TransactionCountMatchesPattern) {
  Coalescer co(128);
  std::vector<Addr> out;
  for (const MemPattern p : {MemPattern::kCoalesced, MemPattern::kStrided2,
                             MemPattern::kStrided4, MemPattern::kScatter8,
                             MemPattern::kScatter32}) {
    out.clear();
    co.expand(gmem(p, Locality::kStreaming, 1, 0), MemAccessContext{1, 0, 0}, out);
    EXPECT_EQ(out.size(), transactions_per_access(p));
  }
}

TEST(Coalescer, RegionsAreDisjoint) {
  Coalescer co(128);
  std::vector<Addr> a, b;
  co.expand(gmem(MemPattern::kCoalesced, Locality::kStreaming, 1, 0),
            MemAccessContext{7, 3, 5}, a);
  co.expand(gmem(MemPattern::kCoalesced, Locality::kStreaming, 2, 0),
            MemAccessContext{7, 3, 5}, b);
  EXPECT_NE(a[0] >> 36, b[0] >> 36);
}

TEST(Coalescer, StreamingNeverRepeatsLines) {
  Coalescer co(128);
  std::set<Addr> seen;
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    std::vector<Addr> out;
    co.expand(gmem(MemPattern::kStrided2, Locality::kStreaming, 1, 0),
              MemAccessContext{9, 2, seq}, out);
    for (Addr a : out) {
      EXPECT_TRUE(seen.insert(a).second) << "streaming line repeated";
    }
  }
}

TEST(Coalescer, StreamingStripesPerWarpAreDisjoint) {
  Coalescer co(128);
  std::vector<Addr> w1, w2;
  co.expand(gmem(MemPattern::kCoalesced, Locality::kStreaming, 1, 0),
            MemAccessContext{1, 0, 5}, w1);
  co.expand(gmem(MemPattern::kCoalesced, Locality::kStreaming, 1, 0),
            MemAccessContext{2, 0, 5}, w2);
  EXPECT_NE(w1[0], w2[0]);
}

TEST(Coalescer, GridSharedIsWarpIndependent) {
  // A lookup-table read at the same program position touches the same line
  // from every warp (broadcast reuse).
  Coalescer co(128);
  std::vector<Addr> w1, w2;
  co.expand(gmem(MemPattern::kCoalesced, Locality::kGridShared, 1, 512),
            MemAccessContext{10, 1, 33}, w1);
  co.expand(gmem(MemPattern::kCoalesced, Locality::kGridShared, 1, 512),
            MemAccessContext{99, 7, 33}, w2);
  EXPECT_EQ(w1[0], w2[0]);
}

TEST(Coalescer, BlockLocalStaysWithinFootprint) {
  Coalescer co(128);
  const std::uint32_t fp = 16;
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    std::vector<Addr> out;
    co.expand(gmem(MemPattern::kCoalesced, Locality::kBlockLocal, 3, fp),
              MemAccessContext{4, 2, seq}, out);
    const std::uint64_t base = (2ull << 24) * 128 + (3ull << 36);
    EXPECT_GE(out[0], base);
    EXPECT_LT(out[0], base + fp * 128);
  }
}

TEST(Coalescer, DeterministicAcrossCalls) {
  Coalescer co(128);
  std::vector<Addr> a, b;
  const Instruction i = gmem(MemPattern::kScatter8, Locality::kRandom, 5, 4096);
  co.expand(i, MemAccessContext{11, 4, 77}, a);
  co.expand(i, MemAccessContext{11, 4, 77}, b);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace grs
