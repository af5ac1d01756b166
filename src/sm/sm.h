// Streaming Multiprocessor: the per-core cycle model.
//
// Owns the resident warps and thread blocks, the private L1 data cache, the
// warp schedulers, and the sharing-pair lock/ownership state. Each cycle
// (`step`) it retires completed instructions and lets each scheduler issue at
// most one instruction from its highest-priority ready warp, classifying the
// cycle as issued / stall / idle (see common/stats.h for the definitions).
//
// The sharing runtime hooks live exactly where the paper puts them:
//  * issue-time register classification per Fig. 3 (unshared warp? RegNo
//    below threshold? lock acquired?);
//  * issue-time scratchpad classification per Fig. 4;
//  * ownership transfer and non-owner relaunch at block finish (§IV-A);
//  * the Dyn gate in front of non-owner global-memory issues (§IV-C).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "common/types.h"
#include "core/dyn_throttle.h"
#include "core/locks.h"
#include "core/occupancy.h"
#include "memory/cache.h"
#include "memory/coalescer.h"
#include "memory/memsys.h"
#include "obs/events.h"
#include "sm/block.h"
#include "sm/decoded.h"
#include "sm/scheduler.h"
#include "sm/warp.h"

namespace grs {

namespace obs {
class SimObserver;
}
namespace prof {
class HostProfiler;
}

class StreamingMultiprocessor {
 public:
  /// Invoked when a resident block finishes, so the dispatcher can refill
  /// the slot. Called after ownership transfer has been applied.
  using BlockFinishFn = std::function<void(SmId, BlockSlot)>;

  /// `obs` (optional) receives event-trace hooks; it is consulted once here
  /// and ignored thereafter unless tracing is enabled, so the default-null
  /// case costs one untaken branch per hook site (src/obs/obs.h). `prof`
  /// (optional) receives host-phase timings under the same null-guarded
  /// contract (src/prof/prof.h). `code` (must outlive the SM) is the
  /// kernel's program decoded for this cfg and occupancy; the Gpu builds it
  /// once and every SM reads the same table.
  StreamingMultiprocessor(SmId id, const GpuConfig& cfg, const DecodedProgram& code,
                          const KernelResources& res, const Occupancy& occ,
                          std::uint32_t active_lanes, MemorySystem& memsys,
                          const DynThrottle* dyn, obs::SimObserver* obs = nullptr,
                          prof::HostProfiler* prof = nullptr);

  void set_block_finish_callback(BlockFinishFn fn) { on_block_finish_ = std::move(fn); }

  /// Install a new block into `slot` (mapping: slots [0, U) are unshared,
  /// slots U+2p and U+2p+1 are the two sides of pair p).
  void launch_block(BlockSlot slot, std::uint64_t block_uid);

  /// Advance one GPU cycle. Returns true when any scheduler issued an
  /// instruction (the event-driven loop may only skip cycles in which no SM
  /// issued anything).
  bool step(Cycle now);

  /// True when no blocks are resident and no instructions are in flight.
  [[nodiscard]] bool drained() const;

  // --- event-driven execution (gpu/gpu.cc, exec_mode = kEvent) -----------
  /// Event-aware wrapper around step(): while inside a known-idle window
  /// (`now < idle_until()`) the call is O(1) — the scan is provably identical
  /// to the last one and is accounted in bulk when the SM wakes (or at
  /// flush_idle_accounting). A scan that issues nothing opens a window up to
  /// the SM's next timed wakeup. Statistics stay bit-identical to calling
  /// step() every cycle.
  bool tick(Cycle now);

  /// End of the current known-idle window: this SM's scan cannot change
  /// before this cycle. 0 when the SM must be stepped next cycle;
  /// kNeverCycle when only external termination can end the window.
  [[nodiscard]] Cycle idle_until() const { return idle_until_; }

  /// Account a still-open idle window through `final_cycle` (inclusive).
  /// Must be called once after the simulation loop exits so skipped trailing
  /// cycles are reflected in the counters.
  void flush_idle_accounting(Cycle final_cycle);

  /// Earliest future cycle at which this SM's candidate scan can change on
  /// its own: the earliest writeback (the fronts of the fixed-latency FIFOs
  /// and the top of the load heap) or the first L1 MSHR fill (which can
  /// unblock MSHR-capacity stalls before the owning warp's completion
  /// event). kNeverCycle when none is pending. Everything else
  /// that affects issuability (locks, barriers, ownership, dispatch) only
  /// moves when some warp on this SM issues.
  [[nodiscard]] Cycle next_wakeup() const;

  /// Account `n` further cycles that are provably identical to the (issue-
  /// free) cycle just stepped: replays the last step's counter increments
  /// n more times without re-scanning.
  void repeat_idle_accounting(std::uint64_t n);

  /// Copy the L1 counters into the stats block and return it.
  [[nodiscard]] const SmStats& finalize_stats();

  [[nodiscard]] const SmStats& stats() const { return stats_; }
  [[nodiscard]] SmId id() const { return id_; }
  [[nodiscard]] const Occupancy& occupancy() const { return occ_; }
  [[nodiscard]] std::uint32_t resident_blocks() const { return resident_blocks_; }
  [[nodiscard]] std::uint32_t resident_warps() const { return resident_warps_; }

  // --- timeline sampling (gpu/gpu.cc; event mode) ------------------------
  /// Counters as they will stand at cycle `c` >= the last stepped cycle,
  /// assuming the SM sleeps through the gap: the last scan's per-cycle delta
  /// replayed `c - last_stepped` times without touching live state. This is
  /// the same replay flush_idle_accounting() applies at the end of the run,
  /// so sampled values are bit-identical to stepping every cycle.
  [[nodiscard]] SmStats stats_at(Cycle c) const {
    SmStats s = stats_;
    if (c > last_stepped_) s.accumulate_scaled_delta(step_begin_stats_, stats_, c - last_stepped_);
    return s;
  }
  [[nodiscard]] std::uint64_t l1_accesses() const { return l1_.accesses; }
  [[nodiscard]] std::uint64_t l1_misses() const { return l1_.misses; }
  [[nodiscard]] std::uint32_t l1_mshr_inflight() const {
    return static_cast<std::uint32_t>(l1_.inflight());
  }
  [[nodiscard]] std::uint32_t warp_slots() const {
    return static_cast<std::uint32_t>(warps_.size());
  }
  /// Event mode: parked warps by scan outcome (indexed by obs::WarpState),
  /// summed over the schedulers. Names the stuck state when the run
  /// deadlocks.
  using ParkedCounts =
      std::array<std::uint32_t, static_cast<std::size_t>(obs::WarpState::kSfuPort) + 1>;
  [[nodiscard]] ParkedCounts parked_counts() const;

  // --- introspection for tests -------------------------------------------
  [[nodiscard]] const ResidentBlock& block(BlockSlot s) const { return blocks_[s]; }
  [[nodiscard]] const Warp& warp(std::uint32_t slot) const { return warps_[slot]; }
  [[nodiscard]] int pair_owner_side(std::uint32_t pair_id) const;
  [[nodiscard]] WarpClass classify(const Warp& w) const;
  [[nodiscard]] std::uint32_t warps_per_block() const { return warps_per_block_; }

 private:
  struct PairState {
    explicit PairState(std::uint32_t warp_positions) : locks(warp_positions) {}
    int owner_side = PairLockState::kNoSide;
    PairLockState locks;
  };

  /// An issued instruction's writeback: at `cycle` it clears `dst_mask`
  /// from warp `slot`'s pending writes and retires the instruction.
  struct Event {
    Cycle cycle = 0;
    std::uint32_t slot = 0;
    std::uint64_t dst_mask = 0;
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const { return a.cycle > b.cycle; }
  };
  void drain_events(Cycle now);
  void retire(const Event& e, bool lsu);
  /// Queue `w`'s writeback of `d` for cycle `at` on `q` (a fixed-latency
  /// FIFO or the load heap) and mark its destinations pending.
  template <class Queue>
  void start_writeback(Queue& q, Warp& w, const DecodedInstr& d, Cycle at);
  bool run_scheduler(std::uint32_t sched_id, Cycle now);
  /// Classify one live warp for this cycle: count its blocked reason, or
  /// append it to cands_ (kEligible). The one classification body both
  /// exec modes share; they differ only in which slots they hand it.
  [[nodiscard]] obs::WarpState scan_warp(std::uint32_t slot, Cycle now);
  void issue(Warp& w, const DecodedInstr& d, Cycle now);
  void do_global_access(Warp& w, const DecodedInstr& d, Cycle now, std::uint64_t instr_seq);
  void handle_exit(Warp& w, Cycle now);
  void finish_block(BlockSlot bs, Cycle now);
  void release_barrier_if_complete(ResidentBlock& b);
  void acquire_with_ownership(PairState& p, int side, bool reg, std::uint32_t pos, Cycle now);

  // --- event-mode visit lists (parked warps) -------------------------------
  void enlist(std::uint32_t slot);
  void delist(std::uint32_t slot);
  void park(std::uint32_t slot, obs::WarpState why);
  /// Put a parked warp back on its scheduler's visit list (no-op otherwise).
  void wake(std::uint32_t slot);
  /// Wake every warp of pair `p` parked on a lock: its lock state changed.
  void wake_lock_waiters(const PairState& p);
  [[nodiscard]] std::uint32_t pair_id_of(const PairState& p) const {
    return static_cast<std::uint32_t>(&p - pairs_.data());
  }
  [[nodiscard]] std::uint32_t warp_slot_of(const Warp& w) const {
    return static_cast<std::uint32_t>(&w - warps_.data());
  }

  SmId id_;
  GpuConfig cfg_;
  const DecodedProgram* code_;
  KernelResources res_;
  Occupancy occ_;
  std::uint32_t kernel_active_lanes_;
  MemorySystem* memsys_;
  const DynThrottle* dyn_;

  Cache l1_;
  Coalescer coalescer_;

  std::uint32_t warps_per_block_;
  std::vector<Warp> warps_;          ///< total_blocks * warps_per_block slots
  std::vector<ResidentBlock> blocks_;
  std::vector<PairState> pairs_;
  std::vector<WarpScheduler> schedulers_;

  /// Event mode visits only the warps whose scan outcome can have changed.
  /// A warp found at a barrier, on the scoreboard, draining before exit or
  /// waiting on a lock is parked: that outcome repeats until its barrier is
  /// released, a writeback for it retires, or its pair's lock state changes,
  /// and each of those wakes it. Per scheduler: `visit` is a bitset over its
  /// slots in slot order (bit k = slot k * num_schedulers + scheduler)
  /// holding the live, unparked warps; `parked` counts the rest by outcome,
  /// and each scan adds those counts to the per-warp-per-cycle blocked
  /// counters they stand for. Cycle mode keeps the lists but visits every
  /// slot and parks nothing.
  struct VisitList {
    std::vector<std::uint64_t> visit;
    ParkedCounts parked{};
  };
  std::vector<VisitList> visit_lists_;

  /// In-flight writebacks. Fixed latencies (ALU, SFU, scratchpad, and the
  /// global store's write-queue handoff) complete in issue order, so each
  /// class is a FIFO; only global loads, whose latency depends on the memory
  /// system, need a heap. Retire order within a cycle does not matter: each
  /// retire clears bits, decrements counters and wakes its warp.
  std::queue<Event> alu_wb_;
  std::queue<Event> sfu_wb_;
  std::queue<Event> smem_wb_;   ///< LSU work
  std::queue<Event> store_wb_;  ///< LSU work
  std::priority_queue<Event, std::vector<Event>, EventAfter> load_wb_;  ///< LSU work
  std::uint32_t lsu_inflight_ = 0;
  std::uint32_t lsu_port_ = 0;  ///< per-cycle issue-port counters
  std::uint32_t sfu_port_ = 0;
  std::uint64_t next_dynamic_id_ = 0;
  std::uint32_t resident_blocks_ = 0;
  std::uint32_t resident_warps_ = 0;

  SmStats stats_;
  SmStats step_begin_stats_;            ///< snapshot for repeat_idle_accounting
  /// Last scan let a warp through a fractional Dyn gate (without issuing):
  /// the same warp may be gated next cycle, reshuffling blocked counters.
  bool scan_gate_passed_ = false;
  /// Warps the last scan blocked at a fractional Dyn gate; their per-cycle
  /// hash draws are the only cycle-dependent part of an issue-free scan, so
  /// tick() can fast-forward to the first cycle any of them is allowed.
  std::vector<std::uint64_t> dyn_blocked_uids_;
  Cycle idle_until_ = 0;                ///< end of the current known-idle window
  Cycle last_stepped_ = 0;              ///< last cycle step() actually ran
  BlockFinishFn on_block_finish_;
  obs::SimObserver* trace_ = nullptr;   ///< null unless event tracing is on
  prof::HostProfiler* prof_ = nullptr;  ///< null unless --prof/--prof-folded
  /// Cycle currently being stepped; lets dispatcher-driven launch_block()
  /// (called from inside finish_block) stamp trace events. 0 = initial fill.
  Cycle now_ = 0;

  // scratch buffers (avoid per-cycle allocation)
  std::vector<SchedCandidate> cands_;
  std::vector<Addr> txns_;
};

}  // namespace grs
