// TraceSink: where instrumentation events go when tracing is on.
//
// The simulator side (obs::SimObserver) produces TraceEvent records already
// carrying final pid/tid/ts coordinates; sinks only serialize or count them.
// ChromeTraceSink renders the Chrome trace-event JSON object format that
// Perfetto and chrome://tracing load directly — one event per line, appended
// strictly in hook-call order, so a trace is byte-identical whenever the
// hook stream is (the determinism contract tests/test_obs.cc locks in).
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"

namespace grs::obs {

/// One trace-event record. `name`/`cat` point at static strings (the emitter
/// owns no dynamic names — variable data goes into `args_json`).
struct TraceEvent {
  char ph = 'i';            ///< 'M' meta, 'B'/'E' slice, 'i' instant, 'X' complete
  std::uint32_t pid = 0;    ///< process: SM or memory system (obs/events.h)
  std::uint32_t tid = 0;    ///< track within the process
  Cycle ts = 0;             ///< sim-cycle timestamp
  Cycle dur = 0;            ///< 'X' only: duration in cycles
  const char* name = "";
  const char* cat = nullptr;      ///< optional category
  std::string args_json;          ///< optional rendered `{...}` object
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void begin() {}
  virtual void emit(const TraceEvent& e) = 0;
  /// The argument is a rendered `{...}` object for the file trailer
  /// (ignored by non-serializing sinks).
  virtual void end(const std::string& /*other_data_json*/) {}
};

/// Serializes to the Chrome trace-event JSON object format, buffered in
/// memory; the runner writes `str()` to disk after the sweep so parallel
/// sweep points never interleave file writes.
class ChromeTraceSink final : public TraceSink {
 public:
  void begin() override;
  void emit(const TraceEvent& e) override;
  void end(const std::string& other_data_json) override;

  /// The complete JSON document (valid only after end()).
  [[nodiscard]] const std::string& str() const { return buf_; }

 private:
  std::string buf_;
  bool first_ = true;
};

/// Swallows events, counting them: hook-coverage assertions in tests use it.
class NullTraceSink final : public TraceSink {
 public:
  void emit(const TraceEvent&) override { ++events_; }
  [[nodiscard]] std::uint64_t events() const { return events_; }

 private:
  std::uint64_t events_ = 0;
};

}  // namespace grs::obs
