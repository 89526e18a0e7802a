#include "src/obs/exporters.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <stdexcept>
#include <utility>

#include "src/common/fileio.h"
#include "src/common/json_writer.h"

namespace faascost {

namespace {

// Sort order guaranteeing monotone ts per (pid, tid) track and parents before
// equal-start children. stable_sort keeps emission order for exact ties.
bool SpanBefore(const Span& a, const Span& b) {
  if (a.group != b.group) {
    return a.group < b.group;
  }
  if (a.track != b.track) {
    return a.track < b.track;
  }
  if (a.start != b.start) {
    return a.start < b.start;
  }
  return a.duration > b.duration;
}

}  // namespace

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  std::vector<Span> sorted = spans;
  std::stable_sort(sorted.begin(), sorted.end(), SpanBefore);

  std::set<int> groups;
  for (const Span& s : sorted) {
    groups.insert(s.group);
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit");
  w.Value("ms");
  w.Key("traceEvents");
  w.BeginArray();
  for (const int group : groups) {
    w.BeginObject();
    w.KV("ph", "M");
    w.KV("pid", static_cast<int64_t>(group));
    w.KV("name", "process_name");
    w.Key("args");
    w.BeginObject();
    w.KV("name", TrackGroupName(group));
    w.EndObject();
    w.EndObject();
  }
  for (const Span& s : sorted) {
    w.BeginObject();
    w.KV("ph", "X");
    w.KV("name", SpanKindName(s.kind));
    w.KV("cat", TrackGroupName(s.group));
    w.KV("pid", static_cast<int64_t>(s.group));
    w.KV("tid", s.track);
    w.KV("ts", s.start);
    w.KV("dur", s.duration);
    w.Key("args");
    w.BeginObject();
    if (s.req_idx >= 0) {
      w.KV("req", static_cast<int64_t>(s.req_idx));
      w.KV("attempt", static_cast<int64_t>(s.attempt));
    }
    if (s.sandbox_id >= 0) {
      w.KV("sandbox", static_cast<int64_t>(s.sandbox_id));
    }
    if (s.status != nullptr && s.status[0] != '\0') {
      w.KV("status", s.status);
    }
    if (s.cold) {
      w.KV("cold", true);
    }
    if (s.terminal) {
      w.KV("billed_us", s.billed_micros);
      w.KV("billed_usd", s.billed_usd);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string TimeSeriesJsonl(const TimeSeries& series) {
  std::string out;
  const MicroSecs width = series.window();
  for (size_t i = 0; i < series.window_count(); ++i) {
    const WindowStats& win = series.window_at(i);
    JsonWriter w;
    w.BeginObject();
    w.KV("window", static_cast<int64_t>(i));
    w.KV("start_us", static_cast<MicroSecs>(i) * width);
    w.KV("end_us", static_cast<MicroSecs>(i + 1) * width);
    w.KV("arrivals", win.arrivals);
    w.KV("dispatches", win.dispatches);
    w.KV("cold_starts", win.cold_starts);
    w.KV("completions", win.completions);
    w.KV("failures", win.failures);
    w.KV("retries", win.retries);
    w.KV("cold_start_rate",
         win.dispatches > 0 ? static_cast<double>(win.cold_starts) /
                                  static_cast<double>(win.dispatches)
                            : 0.0);
    w.KV("p50_ms", win.latency_us.Quantile(0.50) / 1'000.0);
    w.KV("p95_ms", win.latency_us.Quantile(0.95) / 1'000.0);
    w.KV("p99_ms", win.latency_us.Quantile(0.99) / 1'000.0);
    w.KV("latency_samples", win.latency_us.count());
    w.KV("latency_rejected", win.latency_us.rejected());
    w.KV("billed_usd", win.billed_usd);
    w.KV("waste_usd_total", win.WasteTotal());
    for (int k = 0; k < kWasteKindCount; ++k) {
      w.KV(std::string("waste_usd_") + WasteKindName(static_cast<WasteKind>(k)),
           win.waste_usd[k]);
    }
    w.KV("net_bytes", win.net_bytes);
    w.KV("net_usd", win.net_usd);
    w.KV("queue_depth_max", win.queue_depth_max);
    w.KV("avg_concurrency",
         static_cast<double>(win.busy_micros) / static_cast<double>(width));
    for (size_t obj = 0; obj < series.objective_count(); ++obj) {
      w.KV("good_within_" + std::to_string(series.objective_at(obj) / 1'000) + "ms",
           win.good[obj]);
    }
    w.EndObject();
    out += w.str();
    out.push_back('\n');
  }
  return out;
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  // Crash-safe: readers of run artifacts never see a half-written file.
  try {
    WriteFileAtomic(path, content);
  } catch (const std::runtime_error&) {
    return false;
  }
  return true;
}

}  // namespace faascost
