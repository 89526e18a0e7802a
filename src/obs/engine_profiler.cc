#include "src/obs/engine_profiler.h"

#include <stdexcept>

#include "src/common/json_writer.h"
#include "src/common/wallclock.h"

namespace faascost {

EngineProfiler::EngineProfiler(int64_t queue_sample_every)
    : sample_every_(queue_sample_every) {
  if (queue_sample_every <= 0) {
    throw std::invalid_argument("queue_sample_every must be > 0, got " +
                                std::to_string(queue_sample_every));
  }
}

void EngineProfiler::EnsureType(int type) {
  if (static_cast<size_t>(type) >= events_by_type_.size()) {
    const size_t old = events_by_type_.size();
    events_by_type_.resize(static_cast<size_t>(type) + 1, 0);
    type_names_.resize(static_cast<size_t>(type) + 1);
    for (size_t i = old; i < type_names_.size(); ++i) {
      if (type_names_[i].empty()) {
        type_names_[i] = "event_" + std::to_string(i);
      }
    }
  }
}

void EngineProfiler::RegisterEventType(int type, const char* name) {
  if (type < 0) {
    throw std::invalid_argument("event type must be >= 0");
  }
  EnsureType(type);
  type_names_[static_cast<size_t>(type)] = name;
}

int64_t EngineProfiler::EventsOfType(int type) const {
  if (type < 0 || static_cast<size_t>(type) >= events_by_type_.size()) {
    return 0;
  }
  return events_by_type_[static_cast<size_t>(type)];
}

void EngineProfiler::BeginPhase(const char* name) {
  if (phase_open_) {
    EndPhase();
  }
  phases_.push_back({name, 0});
  phase_started_nanos_ = MonotonicNanos();
  phase_open_ = true;
}

void EngineProfiler::EndPhase() {
  if (!phase_open_) {
    return;
  }
  phases_.back().wall_nanos = MonotonicNanos() - phase_started_nanos_;
  phase_open_ = false;
}

std::string EngineProfiler::ChromeTraceJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents");
  w.BeginArray();
  // Track metadata: pid 1 = host wall-clock phases, pid 2 = sim-time queue.
  const auto meta = [&w](int pid, const char* name) {
    w.BeginObject();
    w.KV("name", "process_name");
    w.KV("ph", "M");
    w.KV("pid", pid);
    w.KV("tid", 0);
    w.Key("args");
    w.BeginObject();
    w.KV("name", name);
    w.EndObject();
    w.EndObject();
  };
  meta(1, "engine.phases (host wall-clock)");
  meta(2, "engine.queue (sim time)");
  // Phases as complete events laid end to end on the wall-clock track: the
  // trace origin is the first phase's start, so absolute host time never
  // reaches the artifact.
  int64_t cursor_us = 0;
  for (const Phase& phase : phases_) {
    const int64_t dur_us = phase.wall_nanos / 1'000;
    w.BeginObject();
    w.KV("name", phase.name);
    w.KV("ph", "X");
    w.KV("pid", 1);
    w.KV("tid", 0);
    w.KV("ts", cursor_us);
    w.KV("dur", dur_us);
    w.EndObject();
    cursor_us += dur_us;
  }
  for (const QueueSample& sample : queue_samples_) {
    w.BeginObject();
    w.KV("name", "event_queue_depth");
    w.KV("ph", "C");
    w.KV("pid", 2);
    w.KV("tid", 0);
    w.KV("ts", sample.time);
    w.Key("args");
    w.BeginObject();
    w.KV("depth", sample.depth);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.KV("eventsTotal", events_total_);
  w.Key("eventsByType");
  w.BeginObject();
  for (size_t i = 0; i < events_by_type_.size(); ++i) {
    w.KV(type_names_[i], events_by_type_[i]);
  }
  w.EndObject();
  w.KV("rngDraws", rng_draws_);
  w.KV("queueDepthPeak", queue_depth_peak_);
  w.EndObject();
  return w.str();
}

}  // namespace faascost
