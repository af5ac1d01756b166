// Cross-mode equivalence: exec_mode = kEvent must produce statistics
// bit-identical to the naive exec_mode = kCycle loop — same cycles, same
// per-class scheduler accounting, same per-warp blocked counters, same
// L1/L2/DRAM traffic — across kernels, schedulers, and sharing runtimes.
// This is the contract that lets every bench default to the fast loop.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "gpu/simulator.h"
#include "runner/kernel_source.h"
#include "workloads/suites.h"

namespace grs {
namespace {

KernelInfo shrink(KernelInfo k, std::uint32_t blocks) {
  k.grid_blocks = blocks;
  return k;
}

KernelInfo corpus_kernel(const std::string& file) {
  return runner::resolve_kernel(GRS_SOURCE_DIR "/examples/kernels/" + file);
}

/// Run `kernel` under both execution modes and assert identical stats.
/// Returns the cycle-mode (reference) result.
SimResult expect_equivalent(GpuConfig cfg, const KernelInfo& kernel,
                            const std::string& what) {
  cfg.exec_mode = ExecMode::kCycle;
  const SimResult naive = simulate(cfg, kernel);
  cfg.exec_mode = ExecMode::kEvent;
  const SimResult event = simulate(cfg, kernel);

  EXPECT_TRUE(naive.stats == event.stats) << what;
  // On mismatch, name the first diverging headline counters for diagnosis.
  EXPECT_EQ(naive.stats.cycles, event.stats.cycles) << what;
  EXPECT_EQ(naive.stats.sm_total.issued_cycles, event.stats.sm_total.issued_cycles)
      << what;
  EXPECT_EQ(naive.stats.sm_total.stall_cycles, event.stats.sm_total.stall_cycles)
      << what;
  EXPECT_EQ(naive.stats.sm_total.idle_cycles, event.stats.sm_total.idle_cycles) << what;
  EXPECT_EQ(naive.stats.sm_total.lock_wait_cycles, event.stats.sm_total.lock_wait_cycles)
      << what;
  EXPECT_EQ(naive.stats.sm_total.dyn_throttled_issues,
            event.stats.sm_total.dyn_throttled_issues)
      << what;
  EXPECT_EQ(naive.stats.l2_accesses, event.stats.l2_accesses) << what;
  EXPECT_EQ(naive.stats.dram_requests, event.stats.dram_requests) << what;
  return naive;
}

GpuConfig sharing_line(SchedulerKind sched, int line) {
  GpuConfig c;
  switch (line) {
    case 0: c = configs::unshared(); break;
    case 1: c = configs::shared_noopt(Resource::kRegisters, 0.1); break;
    case 2: c = configs::shared_noopt(Resource::kScratchpad, 0.1); break;
    case 3: c = configs::shared_unroll_dyn(Resource::kRegisters, 0.1); break;
  }
  c.scheduler = sched;
  c.sharing.owf = c.sharing.enabled && sched == SchedulerKind::kOwf;
  return c;
}

constexpr const char* kLineNames[] = {"unshared", "shared-reg", "shared-smem",
                                      "shared-reg-unroll-dyn"};

// The grid: kernels x {LRR, GTO, two-level, OWF} x {no sharing, register
// sharing, scratchpad sharing, +dyn}. Kernels cover one per paper set
// (register-limited, scratchpad-limited, thread/block-limited), a
// barrier-per-iteration corpus kernel, and a barrier-free register-pressure
// kernel whose warps exit one by one while partner warps wait on their
// register locks, at a shrunken grid so one point simulates in milliseconds.
TEST(Equivalence, KernelsBySchedulersBySharing) {
  const KernelInfo kernels[] = {shrink(workloads::hotspot(), 8),
                                shrink(workloads::lavamd(), 8),
                                shrink(workloads::bfs(), 8),
                                shrink(corpus_kernel("staged_reduce.gkd"), 16),
                                shrink(corpus_kernel("study_reg_pressure.gkd"), 16)};
  const SchedulerKind scheds[] = {SchedulerKind::kLrr, SchedulerKind::kGto,
                                  SchedulerKind::kTwoLevel, SchedulerKind::kOwf};
  for (const KernelInfo& k : kernels) {
    for (const SchedulerKind sched : scheds) {
      for (int line = 0; line < 4; ++line) {
        const GpuConfig cfg = sharing_line(sched, line);
        expect_equivalent(cfg, k,
                          k.name + " / " + to_string(sched) + " / " + kLineNames[line]);
      }
    }
  }
}

// Event mode parks warps blocked on a sharing lock or at a barrier and counts
// them by reason; cycle mode re-classifies every warp every cycle. A
// register-pressure kernel with a barrier opening each loop iteration makes
// both populations large under register sharing, so the parked counts are
// compared against the reference scan on every scheduler.
TEST(Equivalence, ParkedLockAndBarrierWaits) {
  KernelInfo k = shrink(corpus_kernel("study_reg_pressure.gkd"), 16);
  Instruction barrier;
  barrier.op = Op::kBarrier;
  std::vector<Segment> segs = k.program.segments();
  for (Segment& s : segs) {
    if (s.iterations > 1) s.instrs.insert(s.instrs.begin(), barrier);
  }
  k.program = Program(std::move(segs), k.program.num_regs());
  for (const SchedulerKind sched : {SchedulerKind::kLrr, SchedulerKind::kGto,
                                    SchedulerKind::kTwoLevel, SchedulerKind::kOwf}) {
    const std::string what = "barriered study_reg_pressure / " + std::string(to_string(sched));
    const SimResult r = expect_equivalent(sharing_line(sched, 1), k, what);
    EXPECT_GT(r.stats.sm_total.lock_wait_cycles, 0u) << what;
    EXPECT_GT(r.stats.sm_total.blocked_barrier, 0u) << what;
  }
}

// Full-size memory-bound kernel: long idle windows, deep sleep/jump paths.
TEST(Equivalence, FullSizeMemoryBoundKernel) {
  expect_equivalent(configs::unshared(), workloads::btree(), "b+tree full grid");
}

// Full-size Dyn line: fractional gate probabilities pin SMs to single
// stepping and monitoring boundaries bound every idle window.
TEST(Equivalence, FullSizeDynThrottledKernel) {
  expect_equivalent(configs::shared_owf_unroll_dyn(Resource::kRegisters, 0.1),
                    shrink(workloads::btree(), 84), "b+tree shared-owf-unroll-dyn");
}

// The max_cycles cap must land on the same cycle in both modes, including
// when it strikes in the middle of an idle window or clock jump.
TEST(Equivalence, MaxCyclesCapMidWindow) {
  for (const Cycle cap : {100u, 1234u, 54002u}) {
    GpuConfig cfg = configs::unshared();
    cfg.max_cycles = cap;
    expect_equivalent(cfg, shrink(workloads::btree(), 56),
                      "b+tree capped at " + std::to_string(cap));
    GpuConfig dyn_cfg = configs::shared_unroll_dyn(Resource::kRegisters, 0.1);
    dyn_cfg.max_cycles = cap;
    expect_equivalent(dyn_cfg, shrink(workloads::btree(), 56),
                      "b+tree dyn capped at " + std::to_string(cap));
  }
}

}  // namespace
}  // namespace grs
