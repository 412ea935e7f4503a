// The four benchmark workloads. Each function runs ONE pass in the calling
// process and reports what it measured; the driver (perfbench/run.py)
// starts a fresh process for every pass, because calibrate_nas_knob and
// the Convolve cache measurements memoize in process-wide statics — a
// second pass in the same process would time a warm memo no CLI user sees.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct PassOptions {
  int variant = 0;          ///< input variant, chosen by the driver from --seed
  std::string smilab_cli;   ///< serve_mixed: path of the smilab binary
  double window_s = 5.0;    ///< serve_mixed: open-loop window length
};

/// One pinned output check: `hex` must equal the reference for `key`;
/// a mismatch fails `cells` operations.
struct OutputHash {
  std::string key;
  std::string hex;
  int cells = 1;
};

struct PassReport {
  Clock::time_point first_call{};  ///< start of the first timed call
  double wall_s = 0;               ///< timed region, host seconds
  std::int64_t cells = 0;          ///< experiment cells completed
  std::vector<double> cell_ms;     ///< host latency per cell, in grid order
  std::int64_t attempted = 0;      ///< operations attempted (cells + checks)
  std::int64_t failed = 0;         ///< failed in-process (status or check)
  std::vector<OutputHash> hashes;  ///< checked by the driver
  std::map<std::string, double> values;    ///< workload-level figures
  std::map<std::string, double> counters;  ///< per-layer counters
  double rss_mb = 0;  ///< peak RSS of the process under test (0: this one)
};

PassReport run_paper_tables(const PassOptions& options);
PassReport run_ring_scale(const PassOptions& options);
PassReport run_htt_figures(const PassOptions& options);
PassReport run_serve_mixed(const PassOptions& options);

/// Worker count of every sweep the runner drives: on a 4-core host one pass
/// at 2 workers spread ~6%, 4 workers 15-30%.
inline constexpr int kSweepWorkers = 2;

/// "%.17g": every digit of a double, so output hashes see every bit.
[[nodiscard]] std::string full(double v);
/// 16-digit lower-case hex of an FNV-1a hash of `text`.
[[nodiscard]] std::string hash_hex(const std::string& text);
/// VmHWM of /proc/<pid>/status in MB ("self" for this process); 0 if absent.
[[nodiscard]] double peak_rss_mb(const std::string& pid);

}  // namespace perfbench
