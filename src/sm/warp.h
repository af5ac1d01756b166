// Per-warp execution state.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "obs/events.h"
#include "sm/decoded.h"

namespace grs {

struct Warp {
  // --- identity ----------------------------------------------------------
  bool active = false;           ///< slot holds a live warp
  std::uint32_t pos_in_block = 0;///< warp index within its block (pairing key)
  BlockSlot block = kInvalidSlot;
  std::uint64_t warp_uid = 0;    ///< grid-global unique id
  std::uint64_t dynamic_id = 0;  ///< SM-local launch order (age for GTO/OWF)
  std::uint32_t active_lanes = 32;

  // --- progress ------------------------------------------------------------
  DecodedCursor cursor;
  bool exited = false;
  bool at_barrier = false;
  /// Event mode: the scan outcome this warp is parked on, which repeats
  /// until the SM wakes it (sm/sm.h VisitList); kNone = visited every scan.
  obs::WarpState parked = obs::WarpState::kNone;

  // --- scoreboard ----------------------------------------------------------
  std::uint64_t pending_writes = 0;  ///< bit set => register write in flight
  std::uint32_t inflight = 0;        ///< instructions issued, not yet retired
  std::uint64_t mem_seq = 0;         ///< global-memory instructions issued

  void reset() { *this = Warp{}; }

  [[nodiscard]] bool live() const { return active && !exited; }
};

}  // namespace grs
