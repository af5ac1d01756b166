// Independent expectations and output checks for the benchmark.
//
// Every expected value here is computed from the paper's definitions and the
// kernel's own description, never by calling the simulator's occupancy or
// program helpers, so a bug in those helpers shows as a failed check instead
// of being copied into the expectation. Each check returns an empty string
// when it holds and a one-line description of the first violation otherwise.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "gpu/simulator.h"
#include "workloads/kernel_info.h"

namespace perfbench {

/// The modelled SM and GPU of paper Table I.
struct SmLimits {
  std::uint32_t sms = 14;
  std::uint32_t schedulers = 2;
  std::uint32_t max_blocks = 8;
  std::uint32_t max_threads = 1536;
  std::uint32_t registers = 32768;
  std::uint32_t scratchpad = 16 * 1024;  ///< bytes
  std::uint32_t warp_size = 32;
};
inline constexpr SmLimits kTableI{};

/// Resident blocks per SM without sharing (§II) and with sharing (Eq. 1-4).
struct BlockPlan {
  std::uint32_t baseline = 0;
  std::uint32_t shared = 0;
  bool register_limited = false;    ///< registers bind the baseline
  bool scratchpad_limited = false;  ///< scratchpad binds the baseline
};

/// §II: the baseline is the minimum over the four per-SM limits. Eq. 4 adds
/// ⌊(R − D·Rtb) / (t·Rtb)⌋ blocks on the shared resource R (t given in
/// thousandths so the floor is exact), capped by pairing (2·D), the thread
/// and block limits, and the other resource's unshared capacity.
[[nodiscard]] BlockPlan expected_blocks(const SmLimits& sm, const grs::KernelResources& k,
                                        bool sharing, grs::Resource shared_resource,
                                        std::uint32_t t_milli);

/// Warp instructions one warp issues: Σ over segments of length × iterations.
[[nodiscard]] std::uint64_t warp_instructions_per_warp(const grs::Program& program);

/// Σ over one block's warps of that warp's active lanes: `lanes` each, except
/// that the tail warp of a block whose size is not a multiple of the warp size
/// holds only the remaining threads.
[[nodiscard]] std::uint64_t lanes_per_block(const SmLimits& sm, std::uint32_t threads_per_block,
                                            std::uint32_t lanes);

/// Everything one simulated point must report, worked out in advance.
struct PointExpectation {
  BlockPlan blocks;
  std::uint64_t warp_instructions = 0;
  std::uint64_t thread_instructions = 0;
  std::uint64_t grid = 0;
};

[[nodiscard]] PointExpectation expect_point(const grs::GpuConfig& cfg,
                                            const grs::KernelInfo& kernel);

/// The per-point properties: resident blocks (baseline and shared) as
/// expected, warp and thread instruction totals, issued + stall + idle =
/// cycles × schedulers × SMs, every block finished, and sharing never below
/// the baseline.
[[nodiscard]] std::string check_point(const PointExpectation& e, const grs::SimResult& r);

/// A cold sweep into an empty store writes exactly one entry per distinct key.
[[nodiscard]] std::string check_cold_stores(const grs::cache::CacheStats& s,
                                            std::size_t distinct_keys, std::size_t points);

/// A warm sweep serves every point from the store, with no corrupt entry.
[[nodiscard]] std::string check_warm_lookups(const grs::cache::CacheStats& s, std::size_t points);

/// Two sets of results (stats and occupancy) agree point by point.
[[nodiscard]] std::string check_same_results(const std::vector<grs::SimResult>& got,
                                             const std::vector<grs::SimResult>& want);

/// Two sets of named files agree byte for byte.
using FileSet = std::map<std::string, std::string>;
[[nodiscard]] std::string check_same_files(const FileSet& got, const FileSet& want);

/// Exact counts agree name by name between two traced passes.
using Counts = std::map<std::string, std::uint64_t>;
[[nodiscard]] std::string check_same_counts(const Counts& a, const Counts& b);

}  // namespace perfbench
