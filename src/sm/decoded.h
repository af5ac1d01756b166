// Predecoded kernel program: the issue-time facts of every static instruction.
//
// The Gpu lowers its Program once per simulation into one flat table that
// every SM reads. Each entry resolves what the scheduler scan would otherwise
// re-derive per warp per cycle: the scoreboard hazard mask, the worst-case L1
// transaction count, and whether the instruction enters the shared region of
// the configured sharing runtime (paper Fig. 3/4 step (c), resolved against
// the occupancy thresholds). Segments stay contiguous in the table, so a
// warp's position is a table index plus the iteration of its segment.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "core/occupancy.h"
#include "isa/program.h"

namespace grs {

struct DecodedInstr {
  const Instruction* ins = nullptr;  ///< the Program's own instruction
  /// Scoreboard masks, one bit per architectural register (at most 64 per
  /// thread, checked when the program is decoded).
  std::uint64_t hazard = 0;  ///< registers read or written (RAW + WAW)
  std::uint64_t dst = 0;     ///< register written
  /// Static identity (segment << 32 | index) that profile-backed address
  /// sampling keys on.
  std::uint64_t uid = 0;
  std::uint32_t max_transactions = 1;  ///< Instruction::max_transactions()
  std::uint32_t seg_begin = 0;         ///< table index of the segment's first entry
  std::uint32_t iterations = 1;        ///< of the enclosing segment
  Op op = Op::kAlu;
  bool last_in_segment = false;
  /// Register sharing: touches a register at or above the unshared threshold.
  bool reg_lock = false;
  /// Scratchpad sharing: scratchpad op at or above the unshared byte offset.
  bool smem_lock = false;
};

class DecodedProgram {
 public:
  /// Aborts, naming the instruction, when a load could never fit the L1 MSHR
  /// (its transactions exceed cfg.l1.mshr_entries) or a register number does
  /// not fit the 64-bit scoreboard.
  DecodedProgram(const Program& program, const GpuConfig& cfg, const Occupancy& occ);

  [[nodiscard]] const DecodedInstr& operator[](std::uint32_t pc) const { return instrs_[pc]; }

 private:
  std::vector<DecodedInstr> instrs_;
};

/// A warp's position in a DecodedProgram. `iter` is also the number of times
/// the instruction at `pc` has already executed — the per-static-instruction
/// execution index that profile-backed address sampling keys on.
struct DecodedCursor {
  std::uint32_t pc = 0;
  std::uint32_t iter = 0;

  void advance(const DecodedInstr& cur) {
    if (!cur.last_in_segment) {
      ++pc;
    } else if (++iter < cur.iterations) {
      pc = cur.seg_begin;
    } else {
      iter = 0;
      ++pc;
    }
  }
};

}  // namespace grs
