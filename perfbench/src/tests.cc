// Self-tests of the benchmark's independent calculators and output checks:
// hand-worked Eq. 4 and instruction-count cases, and each check shown
// failing on a tampered result. Build and run:
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests
#include <cstdio>
#include <functional>
#include <string>

#include "common/config.h"
#include "expect.h"
#include "gpu/simulator.h"
#include "isa/builder.h"
#include "workloads/suites.h"

namespace {

int g_failures = 0;
int g_checks = 0;

void expect_true(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

template <typename A, typename B>
void expect_eq(const A& got, const B& want, const std::string& what) {
  expect_true(got == static_cast<A>(want),
              what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

using perfbench::expected_blocks;
using perfbench::kTableI;
using grs::Resource;

void eq4_hand_cases() {
  // hotspot: 36 regs x 256 threads = 9216 regs/block. D = ⌊32768/9216⌋ = 3,
  // remainder 5120; t = 0.1 adds ⌊5120/921.6⌋ = 5, capped by 2D = 6 and by
  // 1536/256 = 6 threads-blocks: 3 -> 6.
  const grs::KernelResources hotspot{256, 36, 0};
  auto p = expected_blocks(kTableI, hotspot, true, Resource::kRegisters, 100);
  expect_eq(p.baseline, 3u, "hotspot baseline");
  expect_eq(p.shared, 6u, "hotspot shared");
  expect_true(p.register_limited && !p.scratchpad_limited, "hotspot is register-limited");
  // t = 0.5 adds ⌊5120/4608⌋ = 1: 3 -> 4.
  expect_eq(expected_blocks(kTableI, hotspot, true, Resource::kRegisters, 500).shared, 4u,
            "hotspot t=0.5");
  // t = 1.0 (0% sharing) never adds a block.
  expect_eq(expected_blocks(kTableI, hotspot, true, Resource::kRegisters, 1000).shared, 3u,
            "hotspot t=1.0");
  // Sharing the resource that does not bind adds nothing.
  expect_eq(expected_blocks(kTableI, hotspot, true, Resource::kScratchpad, 100).shared, 3u,
            "hotspot scratchpad sharing");
  expect_eq(expected_blocks(kTableI, hotspot, false, Resource::kRegisters, 100).shared, 3u,
            "hotspot sharing off");

  // lavaMD: 7200 B/block. D = ⌊16384/7200⌋ = 2, remainder 1984; t = 0.1 adds
  // ⌊1984/720⌋ = 2, capped by 2D = 4: 2 -> 4.
  const grs::KernelResources lavamd{128, 20, 7200};
  p = expected_blocks(kTableI, lavamd, true, Resource::kScratchpad, 100);
  expect_eq(p.baseline, 2u, "lavaMD baseline");
  expect_eq(p.shared, 4u, "lavaMD shared");
  expect_true(p.scratchpad_limited, "lavaMD is scratchpad-limited");

  // 28 regs x 256: D = 4, remainder 4096 adds ⌊4096/716.8⌋ = 5, but threads
  // cap at 6: 4 -> 6. 44 regs x 256: D = 2, pairing caps 11 at 4.
  expect_eq(expected_blocks(kTableI, {256, 28, 0}, true, Resource::kRegisters, 100).shared, 6u,
            "28 regs");
  expect_eq(expected_blocks(kTableI, {256, 44, 0}, true, Resource::kRegisters, 100).shared, 4u,
            "44 regs");
  // 16 threads/block (one warp): the 8-block limit binds, sharing adds nothing.
  p = expected_blocks(kTableI, {16, 20, 2180}, true, Resource::kScratchpad, 100);
  expect_eq(p.baseline, 7u, "NW baseline (16384/2180 = 7)");
  expect_eq(p.shared, 8u, "NW shared capped by 8 blocks");

  // The paper's own kernels agree with the hand figures.
  const grs::KernelResources real_hotspot = grs::workloads::hotspot().resources;
  expect_eq(expected_blocks(kTableI, real_hotspot, true, Resource::kRegisters, 100).shared, 6u,
            "workloads::hotspot shared");
  const grs::KernelResources real_lavamd = grs::workloads::lavamd().resources;
  expect_eq(expected_blocks(kTableI, real_lavamd, true, Resource::kScratchpad, 100).shared, 4u,
            "workloads::lavamd shared");
}

grs::Program hand_program() {
  grs::ProgramBuilder b(8);
  b.alu(0);
  b.loop(5, [](grs::ProgramBuilder& l) { l.alu(1, 0).alu(2, 1).alu(0, 2); });
  return b.build();  // 1 + 3 x 5 + exit
}

void instruction_counts() {
  const grs::Program prog = hand_program();
  expect_eq(perfbench::warp_instructions_per_warp(prog), 17u, "1 + 3x5 + exit");
  expect_eq(perfbench::lanes_per_block(kTableI, 256, 32), 256u, "256 threads, full warps");
  expect_eq(perfbench::lanes_per_block(kTableI, 508, 32), 508u, "508 threads: tail warp of 28");
  expect_eq(perfbench::lanes_per_block(kTableI, 508, 16), 256u, "508 threads at 16 lanes");
  expect_eq(perfbench::lanes_per_block(kTableI, 16, 32), 16u, "half a warp");

  grs::KernelInfo k;
  k.name = "hand";
  k.resources = {96, 8, 0};
  k.grid_blocks = 10;
  k.active_lanes = 20;
  k.program = prog;
  const perfbench::PointExpectation e = perfbench::expect_point(grs::configs::unshared(), k);
  expect_eq(e.warp_instructions, 10u * 3u * 17u, "grid x warps x length");
  expect_eq(e.thread_instructions, 10u * 60u * 17u, "grid x lanes x length");
}

/// A real point, checked clean, then each property tampered with in turn.
void tampered_point_checks() {
  grs::KernelInfo k = grs::workloads::hotspot();
  k.grid_blocks = 28;
  const grs::GpuConfig cfg = grs::configs::shared_owf_unroll_dyn(Resource::kRegisters, 0.1);
  const grs::SimResult good = grs::simulate(cfg, k);
  const perfbench::PointExpectation e = perfbench::expect_point(cfg, k);
  expect_true(perfbench::check_point(e, good).empty(),
              "clean point passes: " + perfbench::check_point(e, good));

  const std::vector<std::pair<const char*, std::function<void(grs::SimResult&)>>> tampers = {
      {"resident blocks", [](grs::SimResult& r) { r.occupancy.total_blocks += 1; }},
      {"baseline blocks", [](grs::SimResult& r) { r.occupancy.baseline_blocks -= 1; }},
      {"warp instructions", [](grs::SimResult& r) { r.stats.sm_total.warp_instructions += 1; }},
      {"thread instructions",
       [](grs::SimResult& r) { r.stats.sm_total.thread_instructions -= 1; }},
      {"scheduler-cycle sum", [](grs::SimResult& r) { r.stats.sm_total.idle_cycles += 1; }},
      {"cycles", [](grs::SimResult& r) { r.stats.cycles += 1; }},
      {"blocks finished", [](grs::SimResult& r) { r.stats.sm_total.blocks_finished -= 1; }},
  };
  for (const auto& [what, tamper] : tampers) {
    grs::SimResult bad = good;
    tamper(bad);
    expect_true(!perfbench::check_point(e, bad).empty(), std::string("tampered ") + what);
  }
  // Sharing below the baseline fails even when the expectation agrees.
  perfbench::PointExpectation low = e;
  low.blocks.shared = e.blocks.baseline - 1;
  grs::SimResult lowered = good;
  lowered.occupancy.total_blocks = low.blocks.shared;
  expect_true(perfbench::check_point(low, lowered).find("lowered") != std::string::npos,
              "sharing below the baseline");

  // Result comparison.
  std::vector<grs::SimResult> want{good, good};
  std::vector<grs::SimResult> got = want;
  expect_true(perfbench::check_same_results(got, want).empty(), "same results pass");
  got[1].stats.l2_misses += 1;
  expect_true(!perfbench::check_same_results(got, want).empty(), "tampered stats");
  got = want;
  got[0].occupancy.shared_pairs += 1;
  expect_true(!perfbench::check_same_results(got, want).empty(), "tampered occupancy");
  got.pop_back();
  expect_true(!perfbench::check_same_results(got, want).empty(), "missing result");
}

void tampered_store_checks() {
  grs::cache::CacheStats cold;
  cold.misses = 1152;
  cold.stores = 1152;
  expect_true(perfbench::check_cold_stores(cold, 1152, 1152).empty(), "clean cold stores");
  grs::cache::CacheStats s = cold;
  s.stores = 1153;
  expect_true(!perfbench::check_cold_stores(s, 1152, 1152).empty(), "extra store");
  s = cold;
  s.misses -= 1;
  s.corrupt = 1;
  expect_true(!perfbench::check_cold_stores(s, 1152, 1152).empty(), "corrupt cold entry");

  grs::cache::CacheStats warm;
  warm.hits = 1152;
  expect_true(perfbench::check_warm_lookups(warm, 1152).empty(), "clean warm lookups");
  s = warm;
  s.hits -= 1;
  s.misses = 1;
  expect_true(!perfbench::check_warm_lookups(s, 1152).empty(), "warm miss");
  s = warm;
  s.hits -= 1;
  s.corrupt = 1;
  expect_true(!perfbench::check_warm_lookups(s, 1152).empty(), "warm corrupt entry");
  s = warm;
  s.stores = 1;
  expect_true(!perfbench::check_warm_lookups(s, 1152).empty(), "warm store");
}

void tampered_file_and_count_checks() {
  const perfbench::FileSet want{{"index.md", "# study\n"}, {"corpus.csv", "a,b\n1,2\n"}};
  expect_true(perfbench::check_same_files(want, want).empty(), "same files pass");
  perfbench::FileSet got = want;
  got["corpus.csv"] = "a,b\n1,3\n";
  expect_true(!perfbench::check_same_files(got, want).empty(), "one byte differs");
  got = want;
  got.erase("index.md");
  got["other.md"] = "# study\n";
  expect_true(!perfbench::check_same_files(got, want).empty(), "file missing");

  const perfbench::Counts a{{"sm.steps", 10}, {"cache.bytes_written", 300}};
  expect_true(perfbench::check_same_counts(a, a).empty(), "same counts pass");
  perfbench::Counts b = a;
  b["sm.steps"] = 11;
  expect_true(!perfbench::check_same_counts(a, b).empty(), "count differs");
  b = a;
  b.erase("sm.steps");
  b["sm.other"] = 10;
  expect_true(!perfbench::check_same_counts(a, b).empty(), "count missing");
}

}  // namespace

int main() {
  eq4_hand_cases();
  instruction_counts();
  tampered_point_checks();
  tampered_store_checks();
  tampered_file_and_count_checks();
  std::printf("perfbench_tests: %d checks, %d failed\n", g_checks, g_failures);
  return g_failures == 0 ? 0 : 1;
}
