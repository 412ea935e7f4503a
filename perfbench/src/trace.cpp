#include "trace.h"

#include <algorithm>
#include <utility>

namespace perfbench {

namespace {

// Innermost open span per thread: the default parent of the next span.
thread_local std::vector<int> t_open;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

double monotonic_s(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

int Tracer::open(const char* name, int parent, std::int64_t request) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = parent;
  rec.request = request;
  rec.start = Clock::now();
  const std::lock_guard<std::mutex> lock{mu_};
  rec.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

void Tracer::close(int id) {
  const Clock::time_point end = Clock::now();
  const std::lock_guard<std::mutex> lock{mu_};
  spans_[static_cast<std::size_t>(id)].end = end;
}

void Tracer::add(const char* name, int parent, std::int64_t request,
                 Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  SpanRecord rec;
  rec.name = name;
  rec.parent = parent;
  rec.request = request;
  rec.start = start;
  rec.end = end;
  const std::lock_guard<std::mutex> lock{mu_};
  rec.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(rec));
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return spans_;
}

Span::Span(const char* name, int parent, std::int64_t request) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  if (parent == kInherit) parent = t_open.empty() ? -1 : t_open.back();
  id_ = tracer.open(name, parent, request);
  t_open.push_back(id_);
}

Span::~Span() {
  if (id_ < 0) return;
  Tracer::instance().close(id_);
  t_open.pop_back();
}

LayerTimes layer_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<const SpanRecord*>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].push_back(&s);
  }
  LayerTimes out;
  for (const SpanRecord& s : spans) {
    // Union of child intervals clipped to the parent: sort by start, merge.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    for (const SpanRecord* c : children[static_cast<std::size_t>(s.id)]) {
      const auto a = std::max(c->start, s.start);
      const auto b = std::min(c->end, s.end);
      if (a < b) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0;
    for (std::size_t i = 0; i < cover.size();) {
      auto [a, b] = cover[i];
      for (++i; i < cover.size() && cover[i].first <= b; ++i) {
        b = std::max(b, cover[i].second);
      }
      covered += seconds_between(a, b);
    }
    out.self_s[s.name] += seconds_between(s.start, s.end) - covered;
    out.count[s.name] += 1;
  }
  return out;
}

SweepTimes sweep_times(const std::vector<SpanRecord>& spans,
                       const std::string& name, int workers) {
  SweepTimes out;
  std::vector<double> busy(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && spans[static_cast<std::size_t>(s.parent)].name == name) {
      busy[static_cast<std::size_t>(s.parent)] += seconds_between(s.start, s.end);
    }
  }
  for (const SpanRecord& s : spans) {
    if (s.name != name) continue;
    const double dur = seconds_between(s.start, s.end);
    const double b = busy[static_cast<std::size_t>(s.id)];
    out.busy_s += b;
    out.idle_s += workers * dur - b;
  }
  return out;
}

}  // namespace perfbench
