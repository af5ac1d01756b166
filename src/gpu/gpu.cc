#include "gpu/gpu.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace grs {

Gpu::Gpu(const GpuConfig& cfg, const KernelInfo& kernel, const Program& program,
         obs::SimObserver* obs, prof::HostProfiler* prof)
    : cfg_(cfg),
      occupancy_(compute_occupancy(cfg, kernel.resources)),
      code_(program, cfg, occupancy_),
      memsys_(cfg),
      dyn_(cfg.sharing, cfg.num_sms),
      obs_(obs != nullptr && (obs->trace_enabled() || obs->timeline_interval() != 0) ? obs
                                                                                    : nullptr),
      prof_(prof),
      kernel_name_(kernel.name),
      grid_blocks_(kernel.grid_blocks) {
  cfg_.validate();
  memsys_.set_observer(obs_);
  memsys_.set_profiler(prof_);
  sms_.reserve(cfg.num_sms);
  for (SmId i = 0; i < cfg.num_sms; ++i) {
    sms_.emplace_back(i, cfg_, code_, kernel.resources, occupancy_,
                      kernel.active_lanes, memsys_, &dyn_, obs_, prof_);
  }
  dispatcher_ = std::make_unique<Dispatcher>(kernel.grid_blocks, occupancy_, sms_);
}

void Gpu::take_timeline_sample(Cycle b) {
  prof::ScopedPhase prof_scope(prof_, prof::Phase::kTimeline);
  const bool event_mode = cfg_.exec_mode == ExecMode::kEvent;
  std::vector<obs::SmTimelinePoint> pts;
  pts.reserve(sms_.size());
  for (const auto& sm : sms_) {
    obs::SmTimelinePoint p;
    // In event mode a sleeping SM's counters lag; stats_at() replays the
    // provably-identical skipped cycles up to the boundary. Gauges need no
    // reconstruction: nothing an SM owns moves while it sleeps.
    p.stats = event_mode ? sm.stats_at(b) : sm.stats();
    p.l1_accesses = sm.l1_accesses();
    p.l1_misses = sm.l1_misses();
    p.resident_blocks = sm.resident_blocks();
    p.resident_warps = sm.resident_warps();
    p.mshr_inflight = sm.l1_mshr_inflight();
    pts.push_back(p);
  }
  obs::GpuTimelinePoint g;
  g.l2_accesses = memsys_.l2_accesses();
  g.l2_misses = memsys_.l2_misses();
  g.dram_requests = memsys_.dram_requests();
  g.dram_row_hits = memsys_.dram_row_hits();
  g.l2_busy_banks = memsys_.l2_busy_banks(b);
  g.dram_busy_banks = memsys_.dram_busy_banks(b);
  obs_->timeline_sample(b, pts, g);
}

void Gpu::abort_deadlock(Cycle cycle) const {
  std::ostringstream msg;
  msg << "deadlock at cycle " << cycle
      << ": no warp can ever issue again and no event is pending";
  for (const auto& sm : sms_) {
    if (sm.resident_blocks() == 0) continue;
    msg << "\n  SM " << sm.id() << ": resident blocks=" << sm.resident_blocks()
        << " warps=" << sm.resident_warps() << "; parked";
    const StreamingMultiprocessor::ParkedCounts parked = sm.parked_counts();
    for (std::size_t st = 0; st < parked.size(); ++st) {
      if (parked[st] != 0) msg << ' ' << obs::to_string(static_cast<obs::WarpState>(st)) << '='
                               << parked[st];
    }
  }
  detail::check_failed("next != kNeverCycle", __FILE__, __LINE__, msg.str().c_str());
}

GpuStats Gpu::run() {
  if (obs_ != nullptr) {
    obs::TraceTopology topo;
    topo.num_sms = cfg_.num_sms;
    topo.warp_slots = sms_.empty() ? 0 : sms_[0].warp_slots();
    topo.block_slots = occupancy_.total_blocks;
    topo.pairs = occupancy_.shared_pairs;
    topo.l2_banks = memsys_.num_banks();
    topo.dram_channels = cfg_.dram.num_channels;
    topo.dram_banks_per_channel = cfg_.dram.banks_per_channel;
    topo.kernel = kernel_name_;
    topo.grid_blocks = grid_blocks_;
    obs_->begin_run(topo);
  }

  dispatcher_->initial_fill();

  std::vector<std::uint64_t> stall_mark(sms_.size(), 0);
  std::vector<std::uint64_t> period_stalls(sms_.size(), 0);
  const bool event_mode = cfg_.exec_mode == ExecMode::kEvent;

  // Timeline sampling: counters are captured at every multiple of the
  // interval. Boundaries the event-mode loop jumped over are emitted as
  // catch-up samples — valid because every SM slept through them, so
  // stats_at() reconstructs the exact counters and no gauge moved.
  const Cycle tl_interval = obs_ != nullptr ? obs_->timeline_interval() : 0;
  Cycle next_sample = tl_interval;

  // An SM's drained() changes only in its own step: a finished block is
  // refilled into the SM it finished on. So whether every SM has drained is
  // read in the pass that steps them.
  bool all_drained = std::all_of(sms_.begin(), sms_.end(),
                                 [](const StreamingMultiprocessor& sm) { return sm.drained(); });
  Cycle cycle = 0;
  while (!(all_drained && dispatcher_->all_dispatched())) {
    ++cycle;
    if (tl_interval != 0) {
      while (next_sample < cycle) {
        take_timeline_sample(next_sample);
        next_sample += tl_interval;
      }
    }
    bool issued = false;
    // Earliest idle_until() over the SMs after this cycle's ticks.
    Cycle next_wake = kNeverCycle;
    all_drained = true;
    if (event_mode) {
      // The wake calendar: tick() lets each SM sleep through its own
      // provably-idle windows, so only the SMs whose window has ended are
      // ticked (a sleeping SM's tick is a no-op). SMs interact only through
      // issue-time memory accesses, which a sleeping SM by definition does
      // not generate; the awake ones still go in SM-index order.
      for (auto& sm : sms_) {
        if (sm.idle_until() <= cycle) issued |= sm.tick(cycle);
        next_wake = std::min(next_wake, sm.idle_until());
        all_drained = all_drained && sm.drained();
      }
    } else {
      for (auto& sm : sms_) {
        issued |= sm.step(cycle);
        all_drained = all_drained && sm.drained();
      }
    }

    // Dynamic warp execution: periodic stall comparison against SM0
    // (paper §IV-C, monitoring period 1000 cycles). Sleeping SMs never cross
    // a monitoring boundary (tick clamps their windows to it), so every SM's
    // stall counter is exact here in both modes.
    if (dyn_.enabled() && cycle % dyn_.period() == 0) {
      for (std::size_t i = 0; i < sms_.size(); ++i) {
        const std::uint64_t s = sms_[i].stats().stall_cycles;
        period_stalls[i] = s - stall_mark[i];
        stall_mark[i] = s;
      }
      dyn_.on_period_end(period_stalls);
    }

    if (tl_interval != 0 && cycle == next_sample) {
      take_timeline_sample(cycle);
      next_sample += tl_interval;
    }

    if (cfg_.max_cycles != 0 && cycle >= cfg_.max_cycles) break;

    // With every SM asleep, nothing can happen until the earliest window
    // ends: jump the clock straight there (the cycle counter is the only
    // state that moves; skipped-cycle accounting is settled lazily when each
    // SM wakes or at the final flush below).
    if (event_mode && !issued) {
      Cycle next = next_wake;
      if (cfg_.max_cycles != 0) next = std::min(next, cfg_.max_cycles);
      if (next == kNeverCycle) abort_deadlock(cycle);
      if (next > cycle + 1) cycle = next - 1;
    }
  }

  if (event_mode) {
    for (auto& sm : sms_) sm.flush_idle_accounting(cycle);
  }
  if (obs_ != nullptr) obs_->finalize(cycle);

  GpuStats g;
  g.cycles = cycle;
  for (auto& sm : sms_) g.sm_total.merge(sm.finalize_stats());
  g.l2_accesses = memsys_.l2_accesses();
  g.l2_misses = memsys_.l2_misses();
  g.dram_requests = memsys_.dram_requests();
  g.dram_row_hits = memsys_.dram_row_hits();
  return g;
}

}  // namespace grs
