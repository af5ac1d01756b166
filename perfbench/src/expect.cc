#include "expect.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace {

constexpr std::uint32_t kUnbounded = std::numeric_limits<std::uint32_t>::max();

std::uint32_t fit(std::uint64_t capacity, std::uint64_t per_block) {
  return per_block == 0 ? kUnbounded : static_cast<std::uint32_t>(capacity / per_block);
}

std::string mismatch(const char* what, std::uint64_t got, std::uint64_t want) {
  return std::string(what) + ": got " + std::to_string(got) + ", expected " +
         std::to_string(want);
}

}  // namespace

BlockPlan expected_blocks(const SmLimits& sm, const grs::KernelResources& k, bool sharing,
                          grs::Resource shared_resource, std::uint32_t t_milli) {
  const std::uint32_t warps = (k.threads_per_block + sm.warp_size - 1) / sm.warp_size;
  const std::uint32_t by_threads = warps == 0 ? 0 : (sm.max_threads / sm.warp_size) / warps;
  const std::uint64_t regs_per_block =
      static_cast<std::uint64_t>(k.regs_per_thread) * k.threads_per_block;
  const std::uint32_t by_regs = fit(sm.registers, regs_per_block);
  const std::uint32_t by_smem = fit(sm.scratchpad, k.smem_per_block);

  BlockPlan plan;
  const std::uint32_t d = std::min({by_threads, sm.max_blocks, by_regs, by_smem});
  plan.baseline = d;
  plan.shared = d;
  plan.register_limited = by_regs == d;
  plan.scratchpad_limited = by_smem == d;

  const bool on_regs = shared_resource == grs::Resource::kRegisters;
  const bool on_smem = shared_resource == grs::Resource::kScratchpad;
  if (!sharing || d == 0 || t_milli == 0 || (!on_regs && !on_smem)) return plan;
  const std::uint64_t r = on_regs ? sm.registers : sm.scratchpad;
  const std::uint64_t rtb = on_regs ? regs_per_block : k.smem_per_block;
  // Sharing can only add blocks on the resource that binds the baseline.
  if (rtb == 0 || (on_regs ? by_regs : by_smem) != d) return plan;

  const std::uint64_t extra = (r - d * rtb) * 1000 / (t_milli * rtb);
  std::uint64_t m = d + extra;
  m = std::min<std::uint64_t>(m, 2ull * d);
  m = std::min<std::uint64_t>(m, by_threads);
  m = std::min<std::uint64_t>(m, sm.max_blocks);
  m = std::min<std::uint64_t>(m, on_regs ? by_smem : by_regs);
  plan.shared = static_cast<std::uint32_t>(std::max<std::uint64_t>(m, d));
  return plan;
}

std::uint64_t warp_instructions_per_warp(const grs::Program& program) {
  std::uint64_t n = 0;
  for (const grs::Segment& s : program.segments()) {
    for (std::uint32_t it = 0; it < s.iterations; ++it) n += s.instrs.size();
  }
  return n;
}

std::uint64_t lanes_per_block(const SmLimits& sm, std::uint32_t threads_per_block,
                              std::uint32_t lanes) {
  std::uint64_t sum = 0;
  for (std::uint32_t first = 0; first < threads_per_block; first += sm.warp_size) {
    const std::uint32_t threads = std::min(sm.warp_size, threads_per_block - first);
    sum += std::min(lanes, threads);
  }
  return sum;
}

PointExpectation expect_point(const grs::GpuConfig& cfg, const grs::KernelInfo& kernel) {
  const auto t_milli = static_cast<std::uint32_t>(std::llround(cfg.sharing.threshold_t * 1000.0));
  PointExpectation e;
  e.blocks = expected_blocks(kTableI, kernel.resources, cfg.sharing.enabled,
                             cfg.sharing.resource, t_milli);
  const std::uint64_t per_warp = warp_instructions_per_warp(kernel.program);
  const std::uint32_t threads = kernel.resources.threads_per_block;
  const std::uint64_t warps = (threads + kTableI.warp_size - 1) / kTableI.warp_size;
  e.grid = kernel.grid_blocks;
  e.warp_instructions = e.grid * warps * per_warp;
  e.thread_instructions =
      e.grid * lanes_per_block(kTableI, threads, kernel.active_lanes) * per_warp;
  return e;
}

std::string check_point(const PointExpectation& e, const grs::SimResult& r) {
  const grs::SmStats& s = r.stats.sm_total;
  if (r.occupancy.baseline_blocks != e.blocks.baseline)
    return mismatch("baseline resident blocks", r.occupancy.baseline_blocks, e.blocks.baseline);
  if (r.occupancy.total_blocks != e.blocks.shared)
    return mismatch("resident blocks", r.occupancy.total_blocks, e.blocks.shared);
  if (r.occupancy.total_blocks < r.occupancy.baseline_blocks)
    return mismatch("sharing lowered resident blocks", r.occupancy.total_blocks,
                    r.occupancy.baseline_blocks);
  if (s.warp_instructions != e.warp_instructions)
    return mismatch("warp instructions", s.warp_instructions, e.warp_instructions);
  if (s.thread_instructions != e.thread_instructions)
    return mismatch("thread instructions", s.thread_instructions, e.thread_instructions);
  const std::uint64_t slots = r.stats.cycles * kTableI.schedulers * kTableI.sms;
  if (s.issued_cycles + s.stall_cycles + s.idle_cycles != slots)
    return mismatch("issued + stall + idle scheduler-cycles",
                    s.issued_cycles + s.stall_cycles + s.idle_cycles, slots);
  if (s.blocks_finished != e.grid) return mismatch("blocks finished", s.blocks_finished, e.grid);
  return {};
}

std::string check_cold_stores(const grs::cache::CacheStats& s, std::size_t distinct_keys,
                              std::size_t points) {
  if (s.stores != distinct_keys) return mismatch("cold stores", s.stores, distinct_keys);
  if (s.hits + s.misses + s.corrupt != points)
    return mismatch("cold lookups", s.hits + s.misses + s.corrupt, points);
  if (s.corrupt != 0) return mismatch("cold corrupt entries", s.corrupt, 0);
  return {};
}

std::string check_warm_lookups(const grs::cache::CacheStats& s, std::size_t points) {
  if (s.hits != points) return mismatch("warm hits", s.hits, points);
  if (s.misses != 0) return mismatch("warm misses", s.misses, 0);
  if (s.corrupt != 0) return mismatch("warm corrupt entries", s.corrupt, 0);
  if (s.stores != 0) return mismatch("warm stores", s.stores, 0);
  return {};
}

std::string check_same_results(const std::vector<grs::SimResult>& got,
                               const std::vector<grs::SimResult>& want) {
  if (got.size() != want.size()) return mismatch("result count", got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const grs::Occupancy& a = got[i].occupancy;
    const grs::Occupancy& b = want[i].occupancy;
    const bool same_occupancy = a.baseline_blocks == b.baseline_blocks &&
                                a.total_blocks == b.total_blocks &&
                                a.unshared_blocks == b.unshared_blocks &&
                                a.shared_pairs == b.shared_pairs;
    if (got[i].stats != want[i].stats || !same_occupancy)
      return "result " + std::to_string(i) + " differs from the reference run";
  }
  return {};
}

std::string check_same_files(const FileSet& got, const FileSet& want) {
  if (got.size() != want.size()) return mismatch("report file count", got.size(), want.size());
  for (const auto& [name, body] : want) {
    const auto it = got.find(name);
    if (it == got.end()) return "report " + name + " missing";
    if (it->second != body) return "report " + name + " differs";
  }
  return {};
}

std::string check_same_counts(const Counts& a, const Counts& b) {
  if (a.size() != b.size()) return mismatch("count names", a.size(), b.size());
  for (const auto& [name, value] : a) {
    const auto it = b.find(name);
    if (it == b.end()) return "count " + name + " missing from the second traced pass";
    if (it->second != value) return mismatch(name.c_str(), it->second, value);
  }
  return {};
}

}  // namespace perfbench
