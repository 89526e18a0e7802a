// Engine flight recorder: introspection of the simulator *engine* rather
// than the simulated world — event-queue depth over sim time, events
// processed by type, RNG draws consumed, and per-phase host wall-clock. This
// is the before/after evidence the ROADMAP's hot-path rebuild needs (you
// can't rebuild what you can't measure).
//
// Attachment follows the null-sink contract: engines hold a raw
// `EngineProfiler*` defaulting to null; detached runs pay one pointer test
// per event and stay bit-identical. Everything the profiler records about
// the *simulation* (event counts, queue depths, sim timestamps) is
// deterministic; the per-phase wall-clock durations are host measurements
// read through the sanctioned src/common/wallclock shim and are the one
// intentionally nondeterministic artifact in the tree — CI byte-compares
// must therefore never include the profile export (ci.sh compares the
// telemetry JSONL, not profile.json).

#ifndef FAASCOST_OBS_ENGINE_PROFILER_H_
#define FAASCOST_OBS_ENGINE_PROFILER_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace faascost {

class EngineProfiler {
 public:
  // `queue_sample_every`: record one (sim_time, depth) sample per this many
  // events (1 = every event). Throws std::invalid_argument unless > 0.
  explicit EngineProfiler(int64_t queue_sample_every = 64);

  // Names an event type before the run; unnamed types render as "event_N".
  void RegisterEventType(int type, const char* name);

  // One engine event: counts by type and samples queue depth on the cadence.
  // Inline because engines call it once per event.
  void CountEvent(int type, MicroSecs sim_time, size_t queue_depth) {
    if (type < 0) {
      return;
    }
    if (static_cast<size_t>(type) >= events_by_type_.size()) {
      EnsureType(type);
    }
    ++events_by_type_[static_cast<size_t>(type)];
    ++events_total_;
    queue_depth_peak_ = std::max(queue_depth_peak_, static_cast<int64_t>(queue_depth));
    if (++since_sample_ >= sample_every_) {
      since_sample_ = 0;
      queue_samples_.push_back({sim_time, static_cast<int64_t>(queue_depth)});
    }
  }

  // RNG accounting, reported by the engine at the end of the run (e.g. from
  // Rng::draw_count()).
  void AddRngDraws(uint64_t draws) { rng_draws_ += draws; }

  // Host wall-clock phases (setup / run / finish). Non-reentrant; EndPhase
  // without a matching BeginPhase is ignored.
  void BeginPhase(const char* name);
  void EndPhase();

  struct QueueSample {
    MicroSecs time = 0;
    int64_t depth = 0;
  };
  struct Phase {
    std::string name;
    int64_t wall_nanos = 0;
  };

  int64_t events_total() const { return events_total_; }
  int64_t EventsOfType(int type) const;
  const std::vector<std::string>& type_names() const { return type_names_; }
  uint64_t rng_draws() const { return rng_draws_; }
  const std::vector<QueueSample>& queue_samples() const { return queue_samples_; }
  int64_t queue_depth_peak() const { return queue_depth_peak_; }
  const std::vector<Phase>& phases() const { return phases_; }

  // Chrome-trace JSON (object form, loads in Perfetto): phase "X" events on
  // a wall-clock track, queue-depth "C" counter events on a sim-time track,
  // and per-type event counts in a top-level summary. Byte-deterministic
  // formatting via JsonWriter; the phase durations themselves are wall-clock
  // measurements and vary run to run.
  std::string ChromeTraceJson() const;

 private:
  void EnsureType(int type);

  int64_t sample_every_;
  int64_t events_total_ = 0;
  int64_t since_sample_ = 0;
  int64_t queue_depth_peak_ = 0;
  uint64_t rng_draws_ = 0;
  std::vector<int64_t> events_by_type_;
  std::vector<std::string> type_names_;
  std::vector<QueueSample> queue_samples_;
  std::vector<Phase> phases_;
  int64_t phase_started_nanos_ = 0;
  bool phase_open_ = false;
};

}  // namespace faascost

#endif  // FAASCOST_OBS_ENGINE_PROFILER_H_
