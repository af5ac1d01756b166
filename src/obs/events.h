// Observability vocabulary: the warp-state taxonomy and the pid/tid address
// scheme shared by the trace emitter, the docs, and the CI schema validator.
//
// Warp states mirror the scheduler's candidate-scan classification in
// sm/sm.cc scan_warp() one-to-one, so a Perfetto timeline of these slices
// decomposes exactly into the issued/stall/idle cycle accounting of
// common/stats.h. The trace collector turns the scan's stream into
// state-transition slices, which is what makes trace bytes identical across
// cycle and event exec modes: event mode only skips cycles whose scan is
// provably unchanged, and warps parked in a state that cannot change before
// the event that wakes them.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace grs::obs {

/// What the candidate scan decided about one live warp this cycle.
enum class WarpState : std::uint8_t {
  kNone = 0,     ///< not live (internal sentinel; never emitted)
  kEligible,     ///< ready candidate (issued or lost arbitration)
  kBarrier,      ///< waiting at a block-wide barrier
  kScoreboard,   ///< RAW/WAW on an in-flight result
  kDrainExit,    ///< at kExit, draining in-flight instructions
  kLockWait,     ///< busy-waiting on a sharing lock (register or scratchpad)
  kDynGated,     ///< suppressed by the Dyn warp-execution gate
  kLsuPort,      ///< structural: LSU issue port taken this cycle
  kLsuQueue,     ///< structural: LSU in-flight queue full
  kMshrFull,     ///< structural: L1 MSHR cannot take the load's transactions
  kSfuPort,      ///< structural: SFU issue port taken this cycle
};

/// Slice name shown on the warp's Perfetto track.
[[nodiscard]] constexpr const char* to_string(WarpState s) {
  switch (s) {
    case WarpState::kNone: return "none";
    case WarpState::kEligible: return "eligible";
    case WarpState::kBarrier: return "barrier";
    case WarpState::kScoreboard: return "scoreboard";
    case WarpState::kDrainExit: return "exit-drain";
    case WarpState::kLockWait: return "lock-wait";
    case WarpState::kDynGated: return "dyn-gated";
    case WarpState::kLsuPort: return "lsu-port";
    case WarpState::kLsuQueue: return "lsu-queue";
    case WarpState::kMshrFull: return "mshr-full";
    case WarpState::kSfuPort: return "sfu-port";
  }
  return "?";
}

/// Outcome of one L1 transaction (loads; stores are fire-and-forget).
enum class L1Outcome : std::uint8_t { kHit, kMerge, kMiss, kStore };

[[nodiscard]] constexpr const char* to_string(L1Outcome o) {
  switch (o) {
    case L1Outcome::kHit: return "L1 hit";
    case L1Outcome::kMerge: return "L1 merge";
    case L1Outcome::kMiss: return "L1 miss";
    case L1Outcome::kStore: return "L1 store";
  }
  return "?";
}

// --- trace address scheme (documented in docs/observability.md) ------------
// Perfetto renders pid as a process group and tid as a track. SMs are
// processes 1..num_sms; the shared memory system is process num_sms+1.
// Within an SM process: warps, block slots, pairs, and the L1 get disjoint
// tid ranges so tracks sort naturally.

[[nodiscard]] constexpr std::uint32_t sm_pid(SmId sm) { return sm + 1; }
[[nodiscard]] constexpr std::uint32_t mem_pid(std::uint32_t num_sms) { return num_sms + 1; }

[[nodiscard]] constexpr std::uint32_t warp_tid(std::uint32_t slot) { return 1 + slot; }
[[nodiscard]] constexpr std::uint32_t block_tid(std::uint32_t slot) { return 1001 + slot; }
[[nodiscard]] constexpr std::uint32_t pair_tid(std::uint32_t pair) { return 2001 + pair; }
inline constexpr std::uint32_t kL1Tid = 3001;

[[nodiscard]] constexpr std::uint32_t l2_bank_tid(std::uint32_t bank) { return 1 + bank; }
[[nodiscard]] constexpr std::uint32_t dram_bank_tid(std::uint32_t channel, std::uint32_t bank,
                                                    std::uint32_t banks_per_channel) {
  return 1001 + channel * banks_per_channel + bank;
}

}  // namespace grs::obs
