#include "sm/decoded.h"

#include <string>

#include "common/check.h"

namespace grs {
namespace {

constexpr std::uint64_t reg_bit(RegNum r) { return r == kNoReg ? 0ull : (1ull << r); }

}  // namespace

DecodedProgram::DecodedProgram(const Program& program, const GpuConfig& cfg,
                               const Occupancy& occ) {
  GRS_CHECK_MSG(program.num_regs() <= 64, "scoreboard supports at most 64 registers/thread");
  instrs_.reserve(program.static_length());
  const auto& segments = program.segments();
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const Segment& seg = segments[s];
    const auto seg_begin = static_cast<std::uint32_t>(instrs_.size());
    for (std::size_t i = 0; i < seg.instrs.size(); ++i) {
      const Instruction& ins = seg.instrs[i];
      DecodedInstr d;
      d.ins = &ins;
      d.dst = reg_bit(ins.dst);
      d.hazard = d.dst | reg_bit(ins.src0) | reg_bit(ins.src1);
      d.uid = (static_cast<std::uint64_t>(s) << 32) | i;
      d.max_transactions = ins.max_transactions();
      d.seg_begin = seg_begin;
      d.iterations = seg.iterations;
      d.op = ins.op;
      d.last_in_segment = i + 1 == seg.instrs.size();
      const RegNum m = ins.max_reg();
      d.reg_lock = cfg.sharing.resource == Resource::kRegisters && m != kNoReg &&
                   m >= occ.unshared_regs_per_thread;
      d.smem_lock = cfg.sharing.resource == Resource::kScratchpad && is_shared_mem(ins.op) &&
                    ins.smem_offset >= occ.unshared_smem_bytes;
      // A load issues only once the MSHR can take all its transactions at
      // once (stores bypass it), so this one could never issue.
      GRS_CHECK_MSG(ins.op != Op::kLdGlobal || d.max_transactions <= cfg.l1.mshr_entries,
                    ("load at segment " + std::to_string(s) + ", instruction " +
                     std::to_string(i) + " needs " + std::to_string(d.max_transactions) +
                     " L1 transactions but l1.mshr_entries is " +
                     std::to_string(cfg.l1.mshr_entries))
                        .c_str());
      instrs_.push_back(d);
    }
  }
}

}  // namespace grs
