// Span tracing for the benchmark runner.
//
// A span is recorded around each call the runner makes into one of smilab's
// public layers (apps/nas, cache, apps/convolve, apps/unixbench, sim, mpi,
// core/sweep, serve). Spans live in memory and are handed to the report at
// the end of the pass; nothing is written while the pass is being timed.
// With tracing off a Span is two branches and no clock read, so untraced
// passes measure the program, not the tracer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the monotonic clock (the same clock Python's time.monotonic
/// reads on Linux, so the driver can difference against it).
[[nodiscard]] double monotonic_s(Clock::time_point t);

struct SpanRecord {
  std::string name;   ///< layer-qualified, e.g. "apps.nas.calibrate"
  int id = 0;
  int parent = -1;    ///< -1 for a root span
  std::int64_t request = -1;  ///< serve request id, -1 elsewhere
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  static Tracer& instance();

  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] int open(const char* name, int parent, std::int64_t request);
  void close(int id);
  /// Record an already-finished interval (serve requests are timed by the
  /// client threads themselves; the span is added when the response lands).
  void add(const char* name, int parent, std::int64_t request,
           Clock::time_point start, Clock::time_point end);

  [[nodiscard]] std::vector<SpanRecord> spans() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span. `parent` defaults to the innermost open span on this thread;
/// sweep workers pass the sweep span explicitly (their stack starts empty).
class Span {
 public:
  static constexpr int kInherit = -2;

  explicit Span(const char* name, int parent = kInherit,
                std::int64_t request = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's id (-1 when tracing is off), for cross-thread children.
  [[nodiscard]] int id() const { return id_; }

 private:
  int id_ = -1;
};

/// Per-name totals derived from a span list.
struct LayerTimes {
  std::map<std::string, double> self_s;      ///< duration minus child cover
  std::map<std::string, std::int64_t> count;
};

/// A span's self time is its duration minus the part of that interval
/// covered by the union of its children (children on other threads may
/// overlap one another; the union counts covered time once).
[[nodiscard]] LayerTimes layer_times(const std::vector<SpanRecord>& spans);

/// Sweep accounting for every span named `name` whose children ran on
/// `workers` threads: busy = summed child durations, idle = workers x span
/// duration - busy.
struct SweepTimes {
  double busy_s = 0;
  double idle_s = 0;
};
[[nodiscard]] SweepTimes sweep_times(const std::vector<SpanRecord>& spans,
                                     const std::string& name, int workers);

}  // namespace perfbench
