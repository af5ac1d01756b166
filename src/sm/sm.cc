#include "sm/sm.h"

#include <algorithm>

#include "common/check.h"
#include "obs/obs.h"
#include "prof/prof.h"

namespace grs {

StreamingMultiprocessor::StreamingMultiprocessor(SmId id, const GpuConfig& cfg,
                                                 const DecodedProgram& code,
                                                 const KernelResources& res,
                                                 const Occupancy& occ,
                                                 std::uint32_t active_lanes,
                                                 MemorySystem& memsys,
                                                 const DynThrottle* dyn,
                                                 obs::SimObserver* obs,
                                                 prof::HostProfiler* prof)
    : id_(id),
      cfg_(cfg),
      code_(&code),
      res_(res),
      occ_(occ),
      kernel_active_lanes_(active_lanes),
      memsys_(&memsys),
      dyn_(dyn),
      l1_(cfg.l1),
      coalescer_(cfg.l1.line_bytes),
      warps_per_block_(res.warps_per_block(cfg.warp_size)) {
  GRS_CHECK(occ.total_blocks >= 1);
  GRS_CHECK(occ.total_blocks * warps_per_block_ <= cfg.max_warps_per_sm());
  warps_.resize(static_cast<std::size_t>(occ.total_blocks) * warps_per_block_);
  blocks_.resize(occ.total_blocks);
  pairs_.reserve(occ.shared_pairs);
  for (std::uint32_t p = 0; p < occ.shared_pairs; ++p) pairs_.emplace_back(warps_per_block_);
  schedulers_.reserve(cfg.num_schedulers);
  for (std::uint32_t s = 0; s < cfg.num_schedulers; ++s)
    schedulers_.emplace_back(cfg.scheduler, static_cast<std::uint32_t>(warps_.size()),
                             cfg.two_level_group_size);
  const std::size_t slots_per_sched =
      (warps_.size() + cfg.num_schedulers - 1) / cfg.num_schedulers;
  visit_lists_.resize(cfg.num_schedulers);
  for (VisitList& v : visit_lists_) v.visit.assign((slots_per_sched + 63) / 64, 0);
  cands_.reserve(warps_.size());
  txns_.reserve(32);
  if (obs != nullptr && obs->trace_enabled()) trace_ = obs;
  prof_ = prof;
}

int StreamingMultiprocessor::pair_owner_side(std::uint32_t pair_id) const {
  GRS_CHECK(pair_id < pairs_.size());
  return pairs_[pair_id].owner_side;
}

WarpClass StreamingMultiprocessor::classify(const Warp& w) const {
  const ResidentBlock& b = blocks_[w.block];
  if (!b.is_shared()) return WarpClass::kUnshared;
  const PairState& p = pairs_[b.pair_id];
  return p.owner_side == b.side ? WarpClass::kSharedOwner : WarpClass::kSharedNonOwner;
}

void StreamingMultiprocessor::launch_block(BlockSlot slot, std::uint64_t block_uid) {
  GRS_CHECK(slot < blocks_.size());
  ResidentBlock& b = blocks_[slot];
  GRS_CHECK_MSG(!b.active, "launch into an occupied block slot");

  b = ResidentBlock{};
  b.active = true;
  b.block_uid = block_uid;
  b.num_warps = warps_per_block_;
  b.first_warp_slot = slot * warps_per_block_;

  if (slot >= occ_.unshared_blocks) {
    b.pair_id = static_cast<int>((slot - occ_.unshared_blocks) / 2);
    b.side = static_cast<int>((slot - occ_.unshared_blocks) % 2);
    PairState& p = pairs_[b.pair_id];
    p.locks.on_block_replace(b.side);
    wake_lock_waiters(p);
    // First occupant of an empty pair owns the shared pool.
    if (p.owner_side == PairLockState::kNoSide) p.owner_side = b.side;
  }

  const std::uint32_t tail_threads = res_.threads_per_block % cfg_.warp_size;
  for (std::uint32_t i = 0; i < warps_per_block_; ++i) {
    Warp& w = warps_[b.first_warp_slot + i];
    GRS_CHECK(!w.active);
    w.reset();
    w.active = true;
    w.pos_in_block = i;
    w.block = slot;
    w.warp_uid = block_uid * warps_per_block_ + i;
    w.dynamic_id = next_dynamic_id_++;
    w.active_lanes = kernel_active_lanes_;
    if (i + 1 == warps_per_block_ && tail_threads != 0)
      w.active_lanes = std::min(w.active_lanes, tail_threads);
    enlist(b.first_warp_slot + i);
  }

  ++resident_blocks_;
  resident_warps_ += warps_per_block_;
  ++stats_.blocks_launched;
  stats_.max_resident_blocks = std::max(stats_.max_resident_blocks, resident_blocks_);
  stats_.max_resident_warps = std::max(stats_.max_resident_warps, resident_warps_);

  if (trace_) {
    const bool owner = b.is_shared() && pairs_[b.pair_id].owner_side == b.side;
    trace_->block_launch(id_, slot, block_uid, now_, b.is_shared() ? b.pair_id : -1, b.side,
                         owner);
  }
}

void StreamingMultiprocessor::drain_events(Cycle now) {
  while (!events_.empty() && events_.top().cycle <= now) {
    const Event e = events_.top();
    events_.pop();
    Warp& w = warps_[e.slot];
    w.pending_writes &= ~e.dst_mask;
    GRS_CHECK(w.inflight > 0);
    --w.inflight;
    if (e.mem) {
      GRS_CHECK(lsu_inflight_ > 0);
      --lsu_inflight_;
    }
    wake(e.slot);
  }
}

void StreamingMultiprocessor::enlist(std::uint32_t slot) {
  const auto n_sched = static_cast<std::uint32_t>(schedulers_.size());
  const std::uint32_t k = slot / n_sched;
  visit_lists_[slot % n_sched].visit[k / 64] |= 1ull << (k % 64);
}

void StreamingMultiprocessor::delist(std::uint32_t slot) {
  const auto n_sched = static_cast<std::uint32_t>(schedulers_.size());
  const std::uint32_t k = slot / n_sched;
  visit_lists_[slot % n_sched].visit[k / 64] &= ~(1ull << (k % 64));
}

void StreamingMultiprocessor::park(std::uint32_t slot, obs::WarpState why) {
  ++visit_lists_[slot % schedulers_.size()].parked[static_cast<std::size_t>(why)];
  warps_[slot].parked = why;
  delist(slot);
}

void StreamingMultiprocessor::wake(std::uint32_t slot) {
  Warp& w = warps_[slot];
  if (w.parked == obs::WarpState::kNone) return;
  --visit_lists_[slot % schedulers_.size()].parked[static_cast<std::size_t>(w.parked)];
  w.parked = obs::WarpState::kNone;
  enlist(slot);
}

void StreamingMultiprocessor::wake_lock_waiters(const PairState& p) {
  const BlockSlot first = occ_.unshared_blocks + pair_id_of(p) * 2;
  const std::uint32_t begin = first * warps_per_block_;
  for (std::uint32_t slot = begin; slot < begin + 2 * warps_per_block_; ++slot) {
    if (warps_[slot].parked == obs::WarpState::kLockWait) wake(slot);
  }
}

void StreamingMultiprocessor::acquire_with_ownership(PairState& p, int side, bool reg,
                                                     std::uint32_t pos, Cycle now) {
  // Paper §IV-A: the block whose warps enter the shared region first becomes
  // the owner block (a waiting partner then "waits for shared resources from
  // the owner").
  const bool first_lock = p.locks.locked_side() == PairLockState::kNoSide;
  bool newly = false;
  if (reg) {
    newly = !p.locks.reg_held(side, pos);
    p.locks.reg_acquire(side, pos);
  } else {
    newly = p.locks.smem_holder() != side;
    p.locks.smem_acquire(side);
  }
  if (newly) {
    ++stats_.lock_acquisitions;
    if (first_lock) {
      // First access to the shared pool in this pair epoch: the accessing
      // block becomes the owner and is entitled to the pool (paper §III).
      p.owner_side = side;
      p.locks.set_entitled(side);
    }
    wake_lock_waiters(p);
    if (trace_) trace_->lock_acquire(id_, pair_id_of(p), now, reg, side, pos, first_lock);
  }
}

bool StreamingMultiprocessor::step(Cycle now) {
  now_ = now;
  {
    prof::ScopedPhase prof_scope(prof_, prof::Phase::kExecute);
    drain_events(now);
    l1_.drain(now);
  }
  lsu_port_ = 0;
  sfu_port_ = 0;
  if (cfg_.exec_mode == ExecMode::kEvent) {
    // Only tick() replays deltas; keep the naive loop free of the snapshot.
    step_begin_stats_ = stats_;
  }
  scan_gate_passed_ = false;
  dyn_blocked_uids_.clear();
  bool issued = false;
  {
    prof::ScopedPhase prof_scope(prof_, prof::Phase::kSchedulerScan);
    for (std::uint32_t s = 0; s < schedulers_.size(); ++s) issued |= run_scheduler(s, now);
  }
  return issued;
}

Cycle StreamingMultiprocessor::next_wakeup() const {
  Cycle next = events_.empty() ? kNeverCycle : events_.top().cycle;
  return std::min(next, l1_.next_ready());
}

bool StreamingMultiprocessor::tick(Cycle now) {
  if (now < idle_until_) return false;  // known idle; accounted on wake/flush
  if (now > last_stepped_ + 1) {
    prof::ScopedPhase prof_scope(prof_, prof::Phase::kEventSleep);
    repeat_idle_accounting(now - last_stepped_ - 1);
  }
  const bool issued = step(now);
  last_stepped_ = now;
  if (issued) {
    idle_until_ = 0;  // machine state moved; re-scan next cycle
    return true;
  }
  // Nothing issued: until a timed wakeup fires, every future scan repeats
  // this one — locks, barriers, ownership, and dispatch only move when a
  // warp on this SM issues. Dyn caveats: a scan taken on a monitoring
  // boundary used probabilities that on_period_end is about to replace, and
  // a warp that PASSED a fractional gate (then stalled structurally) may be
  // gated next cycle, so both pin us to the next cycle. Warps BLOCKED at a
  // fractional gate are handled exactly: their per-cycle hash draws are the
  // only cycle-dependent input, so replay the gate sequence (two
  // hash_combines per warp-cycle, far cheaper than a scan) and stop at the
  // first cycle any of them would be let through. Never sleep across a
  // monitoring boundary, where probabilities (and with them the scan) move.
  prof::ScopedPhase prof_scope(prof_, prof::Phase::kEventSleep);
  Cycle w = next_wakeup();
  if (dyn_ != nullptr && dyn_->enabled()) {
    if (scan_gate_passed_ || now % dyn_->period() == 0) {
      w = now + 1;
    } else {
      w = std::min(w, dyn_->next_period_boundary(now));
      if (!dyn_blocked_uids_.empty()) {
        Cycle t = now + 1;
        for (; t < w; ++t) {
          bool any_allowed = false;
          for (const std::uint64_t uid : dyn_blocked_uids_) {
            if (dyn_->allow(id_, t, uid)) {
              any_allowed = true;
              break;
            }
          }
          if (any_allowed) break;
        }
        w = t;
      }
    }
  }
  idle_until_ = w;
  return false;
}

void StreamingMultiprocessor::flush_idle_accounting(Cycle final_cycle) {
  if (final_cycle > last_stepped_) {
    repeat_idle_accounting(final_cycle - last_stepped_);
    last_stepped_ = final_cycle;
  }
}

void StreamingMultiprocessor::repeat_idle_accounting(std::uint64_t n) {
  const SmStats after = stats_;
  stats_.accumulate_scaled_delta(step_begin_stats_, after, n);
}

bool StreamingMultiprocessor::run_scheduler(std::uint32_t sched_id, Cycle now) {
  cands_.clear();
  bool saw_stall = false;
  // With tracing on, each classification is mirrored to the observer, which
  // turns the stream into state-transition slices (obs/events.h explains why
  // that stays byte-identical across exec modes).
  obs::SimObserver* const tr = trace_;
  using obs::WarpState;
  auto visit = [&](std::uint32_t slot) {
    const WarpState st = scan_warp(slot, now);
    if (tr) tr->warp_scan(id_, slot, now, st);
    saw_stall |= st == WarpState::kLsuPort || st == WarpState::kLsuQueue ||
                 st == WarpState::kMshrFull || st == WarpState::kSfuPort;
    return st;
  };

  const auto n_sched = static_cast<std::uint32_t>(schedulers_.size());
  if (cfg_.exec_mode == ExecMode::kEvent) {
    // Event mode: a parked warp's outcome repeats until the event that wakes
    // it, so count it by reason instead of re-deriving it; a parked warp's
    // repeated state would be a trace no-op too.
    VisitList& v = visit_lists_[sched_id];
    stats_.blocked_scoreboard += v.parked[static_cast<std::size_t>(WarpState::kScoreboard)];
    stats_.blocked_barrier += v.parked[static_cast<std::size_t>(WarpState::kBarrier)];
    stats_.lock_wait_cycles += v.parked[static_cast<std::size_t>(WarpState::kLockWait)];
    for (std::size_t word = 0; word < v.visit.size(); ++word) {
      // Iterate a copy: parking clears bits of the live word.
      for (std::uint64_t bits = v.visit[word]; bits != 0; bits &= bits - 1) {
        const auto k = static_cast<std::uint32_t>(word * 64 + __builtin_ctzll(bits));
        const std::uint32_t slot = k * n_sched + sched_id;
        const WarpState st = visit(slot);
        if (st == WarpState::kBarrier || st == WarpState::kScoreboard ||
            st == WarpState::kDrainExit || st == WarpState::kLockWait) {
          park(slot, st);
        }
      }
    }
  } else {
    // Cycle mode, the reference: visit every live warp every cycle.
    for (std::uint32_t slot = sched_id; slot < warps_.size(); slot += n_sched) {
      if (warps_[slot].live()) visit(slot);
    }
  }

  if (cands_.empty()) {
    if (saw_stall) {
      ++stats_.stall_cycles;
    } else {
      ++stats_.idle_cycles;
    }
    return false;
  }

  prof::ScopedPhase prof_scope(prof_, prof::Phase::kIssue);
  const std::size_t pick = schedulers_[sched_id].select(cands_);
  const std::uint32_t picked_slot = cands_[pick].slot;
  Warp& w = warps_[picked_slot];
  const DecodedInstr& d = (*code_)[w.cursor.pc];
  if (tr) tr->warp_issue(id_, picked_slot, now, d.op);
  issue(w, d, now);
  ++stats_.issued_cycles;
  ++stats_.warp_instructions;
  stats_.thread_instructions += w.active_lanes;
  return true;
}

obs::WarpState StreamingMultiprocessor::scan_warp(std::uint32_t slot, Cycle now) {
  const Warp& w = warps_[slot];
  if (w.at_barrier) {  // synchronization wait -> idle class
    ++stats_.blocked_barrier;
    return obs::WarpState::kBarrier;
  }

  const DecodedInstr& d = (*code_)[w.cursor.pc];

  // Scoreboard: RAW/WAW on in-flight results -> dependency wait (idle class).
  if ((w.pending_writes & d.hazard) != 0) {
    ++stats_.blocked_scoreboard;
    return obs::WarpState::kScoreboard;
  }
  if (d.op == Op::kExit && w.inflight != 0) return obs::WarpState::kDrainExit;

  // Sharing locks (paper Fig. 3/4 step (d)-(e)): the warp busy-waits; like
  // a scoreboard dependency it is "not ready", so a cycle with only
  // lock-blocked warps counts as idle, not as a pipeline stall.
  const ResidentBlock& b = blocks_[w.block];
  if (b.is_shared()) {
    const PairLockState& locks = pairs_[b.pair_id].locks;
    if ((d.reg_lock && !locks.reg_can_acquire(b.side, w.pos_in_block)) ||
        (d.smem_lock && !locks.smem_can_acquire(b.side))) {
      ++stats_.lock_wait_cycles;
      return obs::WarpState::kLockWait;
    }
  }

  const WarpClass cls = classify(w);

  // Dynamic warp execution gate (paper §IV-C): suppressed issue, also
  // "not ready" this cycle. With a fractional probability the decision may
  // flip from one cycle to the next; record which way it went so tick()
  // knows how far this scan can be replayed.
  if (dyn_ != nullptr && dyn_->enabled() && is_global_mem(d.op) &&
      cls == WarpClass::kSharedNonOwner) {
    const bool cycle_dependent = dyn_->gate_is_cycle_dependent(id_);
    if (!dyn_->allow(id_, now, w.warp_uid)) {
      ++stats_.dyn_throttled_issues;
      if (cycle_dependent) dyn_blocked_uids_.push_back(w.warp_uid);
      return obs::WarpState::kDynGated;
    }
    scan_gate_passed_ |= cycle_dependent;
  }

  // Structural hazards -> stall class.
  if (is_mem(d.op)) {
    if (lsu_port_ >= cfg_.lsu_issue_per_cycle) {
      ++stats_.blocked_lsu_port;
      return obs::WarpState::kLsuPort;
    }
    if (lsu_inflight_ >= cfg_.lsu_max_inflight) {
      ++stats_.blocked_lsu_inflight;
      return obs::WarpState::kLsuQueue;
    }
    // Stores bypass the MSHR (no-allocate).
    if (d.op == Op::kLdGlobal && l1_.inflight() + d.max_transactions > cfg_.l1.mshr_entries) {
      ++stats_.blocked_mshr;
      return obs::WarpState::kMshrFull;
    }
  } else if (d.op == Op::kSfu && sfu_port_ >= cfg_.sfu_issue_per_cycle) {
    ++stats_.blocked_sfu_port;
    return obs::WarpState::kSfuPort;
  }

  cands_.push_back(SchedCandidate{slot, w.dynamic_id, cls});
  return obs::WarpState::kEligible;
}

void StreamingMultiprocessor::issue(Warp& w, const DecodedInstr& d, Cycle now) {
  ResidentBlock& b = blocks_[w.block];

  // Take sharing locks (legality was established during candidate scan).
  if (b.is_shared() && d.reg_lock)
    acquire_with_ownership(pairs_[b.pair_id], b.side, /*reg=*/true, w.pos_in_block, now);
  if (b.is_shared() && d.smem_lock)
    acquire_with_ownership(pairs_[b.pair_id], b.side, /*reg=*/false, 0, now);

  // Execution index of this instruction, captured before the cursor moves
  // (profile-backed address sampling keys on it and on d.uid).
  const std::uint64_t instr_seq = w.cursor.iter;
  w.cursor.advance(d);

  switch (d.op) {
    case Op::kAlu: {
      events_.push(Event{now + cfg_.alu_latency, warp_slot_of(w), d.dst, false});
      w.pending_writes |= d.dst;
      ++w.inflight;
      break;
    }
    case Op::kSfu: {
      ++sfu_port_;
      events_.push(Event{now + cfg_.sfu_latency, warp_slot_of(w), d.dst, false});
      w.pending_writes |= d.dst;
      ++w.inflight;
      break;
    }
    case Op::kLdShared:
    case Op::kStShared: {
      ++lsu_port_;
      ++lsu_inflight_;
      events_.push(Event{now + cfg_.scratchpad_latency, warp_slot_of(w), d.dst, true});
      w.pending_writes |= d.dst;
      ++w.inflight;
      break;
    }
    case Op::kLdGlobal:
    case Op::kStGlobal: {
      ++lsu_port_;
      do_global_access(w, d, now, instr_seq);
      break;
    }
    case Op::kBarrier: {
      w.at_barrier = true;
      ++b.barrier_arrived;
      release_barrier_if_complete(b);
      break;
    }
    case Op::kExit: {
      handle_exit(w, now);
      break;
    }
  }
}

void StreamingMultiprocessor::do_global_access(Warp& w, const DecodedInstr& d, Cycle now,
                                               std::uint64_t instr_seq) {
  const Instruction& ins = *d.ins;
  txns_.clear();
  const MemAccessContext ctx{w.warp_uid, blocks_[w.block].block_uid, w.mem_seq, instr_seq,
                             d.uid};
  ++w.mem_seq;
  coalescer_.expand(ins, ctx, txns_);

  Cycle completion = now + cfg_.l1_hit_latency;
  if (d.op == Op::kStGlobal) {
    // Write-through, no-allocate, fire-and-forget: the store consumes L2 and
    // DRAM bandwidth but the warp only waits for the write-queue handoff
    // (GPGPU-Sim models global stores the same way).
    for (const Addr line : txns_) {
      const Cache::LookupResult r = l1_.lookup(line, now);
      if (!r.hit && !r.mshr_merge && !r.mshr_full) {
        (void)memsys_->access(line, now);  // bandwidth/occupancy only
      }
      if (trace_) trace_->l1_transaction(id_, now, line, obs::L1Outcome::kStore, now);
    }
  } else {
    for (const Addr line : txns_) {
      const Cache::LookupResult r = l1_.lookup(line, now);
      GRS_CHECK_MSG(!r.mshr_full, "MSHR availability was pre-checked for loads");
      Cycle t;
      obs::L1Outcome outcome;
      if (r.hit) {
        t = now + cfg_.l1_hit_latency;
        outcome = obs::L1Outcome::kHit;
      } else if (r.mshr_merge) {
        t = std::max(r.ready, now + cfg_.l1_hit_latency);
        outcome = obs::L1Outcome::kMerge;
      } else {
        t = memsys_->access(line, now);
        l1_.fill_inflight(line, t);
        outcome = obs::L1Outcome::kMiss;
      }
      if (trace_) trace_->l1_transaction(id_, now, line, outcome, t);
      completion = std::max(completion, t);
    }
  }

  ++lsu_inflight_;
  events_.push(Event{completion, warp_slot_of(w), d.dst, true});
  w.pending_writes |= d.dst;
  ++w.inflight;
}

void StreamingMultiprocessor::release_barrier_if_complete(ResidentBlock& b) {
  if (b.barrier_arrived == 0) return;
  if (b.barrier_arrived + b.warps_exited != b.num_warps) return;
  for (std::uint32_t slot = b.first_warp_slot; slot < b.first_warp_slot + b.num_warps; ++slot) {
    warps_[slot].at_barrier = false;
    wake(slot);
  }
  b.barrier_arrived = 0;
}

void StreamingMultiprocessor::handle_exit(Warp& w, Cycle now) {
  GRS_CHECK(w.inflight == 0 && w.pending_writes == 0);
  w.exited = true;
  delist(warp_slot_of(w));
  ResidentBlock& b = blocks_[w.block];
  ++b.warps_exited;
  GRS_CHECK(resident_warps_ > 0);
  --resident_warps_;

  if (trace_) trace_->warp_exit(id_, warp_slot_of(w), now);

  if (b.is_shared() && cfg_.sharing.resource == Resource::kRegisters) {
    // Shared registers release when their holder warp finishes (paper §III-A).
    pairs_[b.pair_id].locks.reg_release_on_warp_finish(b.side, w.pos_in_block);
    wake_lock_waiters(pairs_[b.pair_id]);
    if (trace_) trace_->lock_release_warp(id_, b.pair_id, now, b.side, w.pos_in_block);
  }

  // An exited warp counts as arrived at any barrier the rest are waiting on.
  release_barrier_if_complete(b);

  if (b.finished()) finish_block(w.block, now);
}

void StreamingMultiprocessor::finish_block(BlockSlot bs, Cycle now) {
  ResidentBlock& b = blocks_[bs];
  GRS_CHECK(b.finished());
  b.active = false;
  GRS_CHECK(resident_blocks_ > 0);
  --resident_blocks_;
  ++stats_.blocks_finished;

  if (trace_) trace_->block_finish(id_, bs, b.block_uid, now);

  for (std::uint32_t i = 0; i < b.num_warps; ++i) warps_[b.first_warp_slot + i].active = false;

  if (b.is_shared()) {
    PairState& p = pairs_[b.pair_id];
    p.locks.on_block_finish(b.side);
    if (trace_) trace_->lock_release_block(id_, b.pair_id, now, b.side);
    // Ownership transfer (paper §IV-A): the surviving partner becomes the
    // owner; if the pair is now empty, the next launch re-seeds ownership.
    const BlockSlot partner_slot = occ_.unshared_blocks +
                                   static_cast<std::uint32_t>(b.pair_id) * 2 +
                                   static_cast<std::uint32_t>(1 - b.side);
    if (blocks_[partner_slot].active) {
      if (p.owner_side == b.side) {
        // Transfer ownership to the survivor and entitle it to the shared
        // pool, so the replacement block launched into this slot cannot win
        // the lock race against the resumed partner (paper §IV-A).
        p.owner_side = 1 - b.side;
        p.locks.set_entitled(p.owner_side);
        ++stats_.ownership_transfers;
        if (trace_) trace_->ownership_transfer(id_, b.pair_id, now, p.owner_side);
      }
    } else {
      p.owner_side = PairLockState::kNoSide;
    }
    wake_lock_waiters(p);
  }

  if (on_block_finish_) on_block_finish_(id_, bs);
}

bool StreamingMultiprocessor::drained() const {
  return resident_blocks_ == 0 && events_.empty();
}

const SmStats& StreamingMultiprocessor::finalize_stats() {
  stats_.l1_accesses = l1_.accesses;
  stats_.l1_misses = l1_.misses;
  stats_.l1_mshr_merges = l1_.merges;
  return stats_;
}

}  // namespace grs
