// perfbench_runner: one measured pass of one benchmark workload, reported as
// a single JSON object on stdout. perfbench/run.py drives it: it starts a
// fresh runner process for every pass (see workloads.h for why), checks the
// reported output hashes against perfbench/references.json, and aggregates
// the passes of a run into the benchmark's metrics.
//
// Usage: perfbench_runner --workload=NAME --variant=N [--trace]
//                         [--smilab=PATH] [--window=SECONDS]
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "workloads.h"

namespace perfbench {

std::string full(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hash_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream status{"/proc/" + pid + "/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

namespace {

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

template <typename Map>
std::string object(const Map& map) {
  std::string out = "{";
  for (const auto& [key, value] : map) {
    if (out.size() > 1) out += ",";
    out += quoted(key) + ":" + full(static_cast<double>(value));
  }
  return out + "}";
}

std::string to_json(const PassReport& r, const std::vector<SpanRecord>& spans) {
  std::ostringstream out;
  out << "{\"pid\":" << ::getpid() << ",\"first_call\":" << full(monotonic_s(r.first_call))
      << ",\"wall_s\":" << full(r.wall_s) << ",\"cells\":" << r.cells
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"rss_mb\":" << full(r.rss_mb > 0 ? r.rss_mb : peak_rss_mb("self"))
      << ",\"cell_ms\":[";
  for (std::size_t i = 0; i < r.cell_ms.size(); ++i) {
    out << (i ? "," : "") << full(r.cell_ms[i]);
  }
  out << "],\"hashes\":[";
  for (std::size_t i = 0; i < r.hashes.size(); ++i) {
    out << (i ? "," : "") << "[" << quoted(r.hashes[i].key) << ","
        << quoted(r.hashes[i].hex) << "," << r.hashes[i].cells << "]";
  }
  out << "],\"values\":" << object(r.values) << ",\"counters\":" << object(r.counters);

  const LayerTimes layers = layer_times(spans);
  const SweepTimes sweep = sweep_times(spans, "core.sweep", kSweepWorkers);
  out << ",\"self_s\":" << object(layers.self_s) << ",\"span_counts\":"
      << object(layers.count) << ",\"sweep\":{\"busy_s\":" << full(sweep.busy_s)
      << ",\"idle_s\":" << full(sweep.idle_s) << "},\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i ? "," : "") << "[" << quoted(s.name) << "," << s.id << "," << s.parent
        << "," << s.request << "," << full(monotonic_s(s.start)) << ","
        << full(monotonic_s(s.end)) << "]";
  }
  out << "]}";
  return out.str();
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  PassOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      workload = v;
    } else if (const char* v = value("--variant=")) {
      options.variant = std::atoi(v);
    } else if (const char* v = value("--smilab=")) {
      options.smilab_cli = v;
    } else if (const char* v = value("--window=")) {
      options.window_s = std::atof(v);
    } else if (arg == "--trace") {
      Tracer::instance().enable();
    } else {
      std::fprintf(stderr, "perfbench_runner: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }

  PassReport report;
  try {
    if (workload == "paper_tables") {
      report = run_paper_tables(options);
    } else if (workload == "ring_scale") {
      report = run_ring_scale(options);
    } else if (workload == "htt_figures") {
      report = run_htt_figures(options);
    } else if (workload == "serve_mixed") {
      report = run_serve_mixed(options);
    } else {
      std::fprintf(stderr, "perfbench_runner: unknown workload '%s'\n",
                   workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
  std::printf("%s\n", to_json(report, Tracer::instance().spans()).c_str());
  return 0;
}
