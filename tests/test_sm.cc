// StreamingMultiprocessor unit tests: manual stepping of a single SM with
// hand-built kernels — barrier semantics, scoreboard timing, exits, sharing
// locks and ownership transfer.
#include <gtest/gtest.h>

#include <memory>

#include "common/config.h"
#include "core/occupancy.h"
#include "isa/builder.h"
#include "memory/memsys.h"
#include "sm/sm.h"

namespace grs {
namespace {

struct SmHarness {
  SmHarness(const GpuConfig& cfg_in, const Program& prog_in, const KernelResources& res)
      : cfg(cfg_in),
        program(prog_in),
        occ(compute_occupancy(cfg, res)),
        code(program, cfg, occ),
        memsys(cfg),
        dyn(cfg.sharing, cfg.num_sms),
        sm(0, cfg, code, res, occ, 32, memsys, &dyn) {}

  Cycle run_until_drained(Cycle limit = 1'000'000) {
    Cycle now = 0;
    while (!sm.drained()) {
      ++now;
      sm.step(now);
      if (now > limit) ADD_FAILURE() << "SM did not drain";
      if (now > limit) break;
    }
    return now;
  }

  GpuConfig cfg;
  Program program;
  Occupancy occ;
  DecodedProgram code;
  MemorySystem memsys;
  DynThrottle dyn;
  StreamingMultiprocessor sm;
};

GpuConfig one_sm(const GpuConfig& base = configs::unshared()) {
  GpuConfig c = base;
  c.num_sms = 1;
  return c;
}

// --- basic execution ----------------------------------------------------------

TEST(Sm, SingleWarpRunsToCompletion) {
  ProgramBuilder b(4);
  b.alu(0).alu(1, 0).alu(2, 1).alu(3, 2);
  SmHarness h(one_sm(), b.build(), KernelResources{32, 4, 0});
  h.sm.launch_block(0, 0);
  h.run_until_drained();
  EXPECT_EQ(h.sm.stats().warp_instructions, 5u);  // 4 alu + exit
  EXPECT_EQ(h.sm.stats().thread_instructions, 5u * 32);
  EXPECT_EQ(h.sm.stats().blocks_finished, 1u);
}

TEST(Sm, DependentAluChainTakesLatencyPerLink) {
  // 4 dependent ALU ops: each must wait alu_latency for its predecessor.
  ProgramBuilder b(4);
  b.alu(0).alu(1, 0).alu(2, 1).alu(3, 2);
  GpuConfig cfg = one_sm();
  SmHarness h(cfg, b.build(), KernelResources{32, 4, 0});
  h.sm.launch_block(0, 0);
  const Cycle end = h.run_until_drained();
  // Lower bound: 3 dependency waits of alu_latency each.
  EXPECT_GE(end, 3 * cfg.alu_latency);
  EXPECT_LE(end, 3 * cfg.alu_latency + 16);
}

TEST(Sm, IndependentOpsPipelineEveryCycle) {
  ProgramBuilder b(8);
  for (RegNum r = 0; r < 8; ++r) b.alu(r);  // no dependencies
  SmHarness h(one_sm(), b.build(), KernelResources{32, 8, 0});
  h.sm.launch_block(0, 0);
  const Cycle end = h.run_until_drained();
  // 8 independent issues + exit drain: well under serial time.
  EXPECT_LE(end, 8 + h.cfg.alu_latency + 4);
}

TEST(Sm, ExitWaitsForInflightInstructions) {
  ProgramBuilder b(2);
  b.ld_global(0, MemPattern::kCoalesced, Locality::kStreaming, 1, 0);
  // No consumer of r0: only the exit's inflight==0 rule orders the drain.
  SmHarness h(one_sm(), b.build(), KernelResources{32, 2, 0});
  h.sm.launch_block(0, 0);
  const Cycle end = h.run_until_drained();
  EXPECT_GT(end, h.cfg.l1_hit_latency) << "exit must not overtake the load";
}

// A global store and an SFU op retire from their own fixed-latency writeback
// FIFOs; either one alone must keep the SM undrained and be its next wakeup.
TEST(Sm, LoneStoreIsTheNextWakeup) {
  ProgramBuilder b(2);
  b.st_global(0, MemPattern::kCoalesced, Locality::kStreaming, 1, 0);
  SmHarness h(one_sm(), b.build(), KernelResources{32, 2, 0});
  h.sm.launch_block(0, 0);
  h.sm.step(1);  // issues the store
  h.sm.step(2);  // the exit waits for it
  EXPECT_EQ(h.sm.stats().warp_instructions, 1u);
  EXPECT_FALSE(h.sm.drained());
  EXPECT_EQ(h.sm.next_wakeup(), 1 + h.cfg.l1_hit_latency);
  h.run_until_drained();
  EXPECT_EQ(h.sm.next_wakeup(), kNeverCycle);
}

TEST(Sm, LoneSfuOpIsTheNextWakeup) {
  ProgramBuilder b(2);
  b.sfu(0);
  SmHarness h(one_sm(), b.build(), KernelResources{32, 2, 0});
  h.sm.launch_block(0, 0);
  h.sm.step(1);  // issues the SFU op
  h.sm.step(2);  // the exit waits for it
  EXPECT_EQ(h.sm.stats().warp_instructions, 1u);
  EXPECT_FALSE(h.sm.drained());
  EXPECT_EQ(h.sm.next_wakeup(), 1 + h.cfg.sfu_latency);
  h.run_until_drained();
  EXPECT_EQ(h.sm.next_wakeup(), kNeverCycle);
}

TEST(Sm, PartialLastWarpGetsReducedLanes) {
  ProgramBuilder b(2);
  b.alu(0).alu(1, 0);
  // 40 threads = warp of 32 + warp of 8.
  SmHarness h(one_sm(), b.build(), KernelResources{40, 2, 0});
  h.sm.launch_block(0, 0);
  h.run_until_drained();
  EXPECT_EQ(h.sm.stats().thread_instructions, 3u * 32 + 3u * 8);
}

// --- barriers -------------------------------------------------------------------

TEST(Sm, BarrierHoldsUntilAllWarpsArrive) {
  // Two warps; warp timing skewed by dependent ALU chains before the barrier.
  ProgramBuilder b(4);
  b.alu(0).alu(1, 0).alu(2, 1);
  b.barrier();
  b.alu(3, 2);
  SmHarness h(one_sm(), b.build(), KernelResources{64, 4, 0});
  h.sm.launch_block(0, 0);
  h.run_until_drained();
  EXPECT_EQ(h.sm.stats().blocks_finished, 1u);
  EXPECT_EQ(h.sm.stats().warp_instructions, 2u * 6);
}

TEST(Sm, SingleWarpBarrierReleasesImmediately) {
  ProgramBuilder b(2);
  b.alu(0);
  b.barrier();
  b.alu(1, 0);
  SmHarness h(one_sm(), b.build(), KernelResources{32, 2, 0});
  h.sm.launch_block(0, 0);
  const Cycle end = h.run_until_drained();
  EXPECT_LE(end, 3 * h.cfg.alu_latency + 8) << "1-warp barrier must not block";
}

TEST(Sm, RepeatedBarriersInLoop) {
  ProgramBuilder b(2);
  b.loop(5, [](ProgramBuilder& l) {
    l.alu(0);
    l.barrier();
  });
  SmHarness h(one_sm(), b.build(), KernelResources{128, 2, 0});
  h.sm.launch_block(0, 0);
  h.run_until_drained();
  EXPECT_EQ(h.sm.stats().blocks_finished, 1u);
}

// --- block refill callback --------------------------------------------------------

TEST(Sm, BlockFinishCallbackFiresWithSlot) {
  ProgramBuilder b(2);
  b.alu(0);
  SmHarness h(one_sm(), b.build(), KernelResources{32, 2, 0});
  int calls = 0;
  BlockSlot seen = kInvalidSlot;
  h.sm.set_block_finish_callback([&](SmId sm, BlockSlot slot) {
    ++calls;
    seen = slot;
    EXPECT_EQ(sm, 0u);
  });
  h.sm.launch_block(0, 0);
  h.run_until_drained();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, 0u);
}

TEST(Sm, RelaunchIntoFreedSlot) {
  ProgramBuilder b(2);
  b.alu(0).alu(1, 0);
  SmHarness h(one_sm(), b.build(), KernelResources{32, 2, 0});
  std::uint64_t launched = 1;
  h.sm.set_block_finish_callback([&](SmId, BlockSlot slot) {
    if (launched < 3) h.sm.launch_block(slot, launched++);
  });
  h.sm.launch_block(0, 0);
  h.run_until_drained();
  EXPECT_EQ(h.sm.stats().blocks_finished, 3u);
}

// --- register sharing on the SM ---------------------------------------------------

/// Kernel where all warps immediately touch a shared register: the non-owner
/// block can make no progress past its private prefix.
TEST(Sm, NonOwnerBlocksAtSharedRegisterUntilOwnerFinishes) {
  ProgramBuilder b(10);
  b.alu(0).alu(0, 0);          // private prefix (regs < 1? floor(10*0.1)=1)
  b.loop(4, [](ProgramBuilder& l) { l.alu(9, 9); });  // shared register 9
  // One block = 1 warp; Rtb = 10*32 = 320 regs. Shrink the SM so D=1, M=2.
  GpuConfig cfg = one_sm(configs::shared_noopt(Resource::kRegisters, 0.1));
  cfg.registers_per_sm = 480;  // D = 1, Eq.4 extra = 160/32 = 5 -> capped to 2
  cfg.max_threads_per_sm = 1536;
  SmHarness h(cfg, b.build(), KernelResources{32, 10, 0});
  ASSERT_EQ(h.occ.total_blocks, 2u);
  ASSERT_EQ(h.occ.shared_pairs, 1u);
  h.sm.launch_block(0, 0);
  h.sm.launch_block(1, 1);
  h.run_until_drained();
  EXPECT_EQ(h.sm.stats().blocks_finished, 2u);
  EXPECT_GT(h.sm.stats().lock_wait_cycles, 0u) << "non-owner must have waited";
  EXPECT_GT(h.sm.stats().lock_acquisitions, 0u);
}

TEST(Sm, OwnershipTransfersWhenOwnerFinishes) {
  ProgramBuilder b(10);
  b.alu(0);
  b.loop(3, [](ProgramBuilder& l) { l.alu(9, 9); });
  GpuConfig cfg = one_sm(configs::shared_noopt(Resource::kRegisters, 0.1));
  cfg.registers_per_sm = 480;
  SmHarness h(cfg, b.build(), KernelResources{32, 10, 0});
  h.sm.launch_block(0, 0);
  h.sm.launch_block(1, 1);
  // Side 0 launched first -> provisional owner.
  EXPECT_EQ(h.sm.pair_owner_side(0), 0);
  h.run_until_drained();
  EXPECT_EQ(h.sm.stats().ownership_transfers, 1u);
}

TEST(Sm, UnsharedBlocksNeverTakeLocks) {
  ProgramBuilder b(10);
  b.loop(4, [](ProgramBuilder& l) { l.alu(9, 9); });
  GpuConfig cfg = one_sm(configs::shared_noopt(Resource::kRegisters, 0.1));
  // Plenty of registers: no sharing activates.
  SmHarness h(cfg, b.build(), KernelResources{32, 10, 0});
  ASSERT_EQ(h.occ.shared_pairs, 0u);
  h.sm.launch_block(0, 0);
  h.run_until_drained();
  EXPECT_EQ(h.sm.stats().lock_acquisitions, 0u);
  EXPECT_EQ(h.sm.stats().lock_wait_cycles, 0u);
}

// --- scratchpad sharing on the SM ---------------------------------------------------

TEST(Sm, ScratchpadLockBlocksPartnerBlock) {
  ProgramBuilder b(4);
  b.alu(0);
  b.loop(3, [](ProgramBuilder& l) { l.ld_shared(1, 900); });  // shared region
  GpuConfig cfg = one_sm(configs::shared_noopt(Resource::kScratchpad, 0.1));
  cfg.scratchpad_per_sm = 1536;  // Rtb=1024 -> D=1; pair fits (1.1*1024=1126)
  SmHarness h(cfg, b.build(), KernelResources{32, 4, 1024});
  ASSERT_EQ(h.occ.total_blocks, 2u);
  ASSERT_EQ(h.occ.unshared_smem_bytes, 102u);  // floor(1024*0.1)
  h.sm.launch_block(0, 0);
  h.sm.launch_block(1, 1);
  h.run_until_drained();
  EXPECT_EQ(h.sm.stats().blocks_finished, 2u);
  EXPECT_GT(h.sm.stats().lock_wait_cycles, 0u);
}

TEST(Sm, PrivateScratchpadNeedsNoLock) {
  ProgramBuilder b(4);
  b.loop(3, [](ProgramBuilder& l) { l.ld_shared(1, 50); });  // < 102B: private
  GpuConfig cfg = one_sm(configs::shared_noopt(Resource::kScratchpad, 0.1));
  cfg.scratchpad_per_sm = 1536;
  SmHarness h(cfg, b.build(), KernelResources{32, 4, 1024});
  ASSERT_EQ(h.occ.total_blocks, 2u);
  h.sm.launch_block(0, 0);
  h.sm.launch_block(1, 1);
  const Cycle end = h.run_until_drained();
  EXPECT_EQ(h.sm.stats().lock_acquisitions, 0u);
  EXPECT_EQ(h.sm.stats().lock_wait_cycles, 0u);
  // Both blocks ran concurrently: far less than 2x the serial time.
  EXPECT_LT(end, 2 * 3 * (h.cfg.scratchpad_latency + 2));
}

// Regression for the paper's Fig. 5: shared pair with barriers must drain.
TEST(Sm, BarrierPlusRegisterLocksDoNotDeadlock) {
  ProgramBuilder b(10);
  b.alu(0);
  b.loop(3, [](ProgramBuilder& l) {
    l.alu(9, 9);   // shared register access (lock)
    l.barrier();   // barrier right next to it
  });
  GpuConfig cfg = one_sm(configs::shared_noopt(Resource::kRegisters, 0.1));
  cfg.registers_per_sm = 1440;  // Rtb = 10*64(2 warps)=640 -> D=2... use 2-warp blocks
  SmHarness h(cfg, b.build(), KernelResources{64, 10, 0});
  ASSERT_GE(h.occ.shared_pairs, 1u);
  for (BlockSlot s = 0; s < h.occ.total_blocks; ++s) h.sm.launch_block(s, s);
  h.run_until_drained();  // ADD_FAILURE inside if it hangs
  EXPECT_EQ(h.sm.stats().blocks_finished, h.occ.total_blocks);
}

TEST(Sm, ClassifyReflectsPairRoles) {
  ProgramBuilder b(10);
  b.alu(0);
  b.loop(3, [](ProgramBuilder& l) { l.alu(9, 9); });
  GpuConfig cfg = one_sm(configs::shared_noopt(Resource::kRegisters, 0.1));
  cfg.registers_per_sm = 480;
  SmHarness h(cfg, b.build(), KernelResources{32, 10, 0});
  h.sm.launch_block(0, 0);
  h.sm.launch_block(1, 1);
  EXPECT_EQ(h.sm.classify(h.sm.warp(0)), WarpClass::kSharedOwner);
  EXPECT_EQ(h.sm.classify(h.sm.warp(1)), WarpClass::kSharedNonOwner);
}

}  // namespace
}  // namespace grs
