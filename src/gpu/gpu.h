// Whole-GPU model: SMs + shared L2/DRAM + dispatcher + Dyn controller.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "core/dyn_throttle.h"
#include "core/occupancy.h"
#include "gpu/dispatcher.h"
#include "memory/memsys.h"
#include "obs/obs.h"
#include "prof/prof.h"
#include "sm/sm.h"
#include "workloads/kernel_info.h"

namespace grs {

class Gpu {
 public:
  /// `program` must outlive the Gpu (the Simulator facade owns the
  /// possibly-reordered copy). `kernel.program` is ignored here.
  /// `obs` (optional, must outlive the Gpu) turns on observability: trace
  /// hooks throughout the machine and/or timeline sampling in run(). `prof`
  /// (optional, must outlive the Gpu) turns on host-phase timing. Neither
  /// ever changes GpuStats — the run is bit-identical either way
  /// (tests/test_obs.cc, tests/test_prof.cc).
  Gpu(const GpuConfig& cfg, const KernelInfo& kernel, const Program& program,
      obs::SimObserver* obs = nullptr, prof::HostProfiler* prof = nullptr);

  /// Run the grid to completion (or cfg.max_cycles); returns aggregate stats.
  [[nodiscard]] GpuStats run();

  [[nodiscard]] const Occupancy& occupancy() const { return occupancy_; }
  [[nodiscard]] const std::vector<StreamingMultiprocessor>& sms() const { return sms_; }

 private:
  /// Abort an event-mode run in which every SM sleeps forever, naming the
  /// cycle and each SM's resident work and parked warps.
  [[noreturn]] void abort_deadlock(Cycle cycle) const;
  /// Counter/gauge snapshot for timeline boundary `b` (see obs/timeline.h).
  void take_timeline_sample(Cycle b);

  GpuConfig cfg_;
  Occupancy occupancy_;
  DecodedProgram code_;  ///< the program decoded once, shared by every SM
  MemorySystem memsys_;
  DynThrottle dyn_;
  std::vector<StreamingMultiprocessor> sms_;
  std::unique_ptr<Dispatcher> dispatcher_;
  obs::SimObserver* obs_ = nullptr;
  prof::HostProfiler* prof_ = nullptr;
  std::string kernel_name_;
  std::uint64_t grid_blocks_ = 0;
};

}  // namespace grs
