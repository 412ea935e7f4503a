// htt_figures: Figure 1 (Convolve CacheUnfriendly and CacheFriendly at
// 1-8 logical CPUs, long SMIs every 50-1500 ms, plus the no-SMI row) and
// Figure 2 (UnixBench index at 1-8 CPUs, long SMIs every 100-1600 ms, plus
// the no-SMI row) on one E5620 node, on 2 sweep workers. No network: the
// time goes to the cache-hierarchy model and CPU/HTT rate settling.
#include <cstdio>
#include <optional>
#include <string_view>

#include "smilab/apps/convolve/workload.h"
#include "smilab/apps/unixbench/unixbench.h"
#include "smilab/core/sweep.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace smilab;

constexpr int kCpus = 8;

/// One figure row: an SMI gap (0 = the no-SMI reference row) across the
/// 1-8 CPU configurations.
struct Row {
  const char* figure;  ///< "fig1.CU", "fig1.CF", "fig2"
  int gap_ms;
};

std::vector<Row> fig1_rows(const char* figure) {
  std::vector<Row> rows{{figure, 0}};
  for (int gap = 50; gap <= 1500; gap += 50) rows.push_back({figure, gap});
  return rows;
}

std::vector<Row> fig2_rows() {
  std::vector<Row> rows{{"fig2", 0}};
  for (int gap = 100; gap <= 1600; gap += 500) rows.push_back({"fig2", gap});
  return rows;
}

SmiConfig smi_for(int gap_ms) {
  return gap_ms == 0 ? SmiConfig::none() : SmiConfig::long_with_gap(gap_ms);
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

PassReport run_htt_figures(const PassOptions& options) {
  const auto v = static_cast<std::uint64_t>(options.variant);
  const std::vector<Row> fig2 = fig2_rows();
  std::vector<Row> fig1 = fig1_rows("fig1.CU");
  for (const Row& r : fig1_rows("fig1.CF")) fig1.push_back(r);

  const ExperimentSweep sweep{kSweepWorkers};
  std::optional<ConvolveWorkload> cu;
  std::optional<ConvolveWorkload> cf;
  std::vector<double> fig2_values(fig2.size() * kCpus);
  std::vector<double> fig1_values(fig1.size() * kCpus);
  // Latency per cell in grid order: Figure 2 cells, then Figure 1 cells.
  std::vector<double> cell_ms(fig2_values.size() + fig1_values.size());

  PassReport report;
  report.first_call = Clock::now();
  {
    const Span pass{"pass"};
    // Sweep 1: the two cache measurements (the first call of each workload
    // factory replays its access stream; later calls hit the memo) share
    // the workers with the UnixBench grid, which needs neither.
    {
      const Span sweep_span{"core.sweep"};
      const int parent = sweep_span.id();
      sweep.for_each(2 + static_cast<int>(fig2_values.size()), [&](int i) {
        if (i < 2) {
          const Span span{"cache.measure", parent};
          if (i == 0) {
            cu = ConvolveWorkload::cache_unfriendly_workload();
          } else {
            cf = ConvolveWorkload::cache_friendly_workload();
          }
          return;
        }
        const auto cell = static_cast<std::size_t>(i - 2);
        const Row& row = fig2[cell / kCpus];
        const int cpus = static_cast<int>(cell % kCpus) + 1;
        const Clock::time_point start = Clock::now();
        UnixBenchOptions ub;
        ub.online_cpus = cpus;
        ub.smi = smi_for(row.gap_ms);
        ub.seed = static_cast<std::uint64_t>(row.gap_ms * 37 + cpus * 11) + 104729 * v;
        {
          const Span span{"apps.unixbench.sim", parent};
          fig2_values[cell] = run_unixbench(ub).index;
        }
        cell_ms[cell] = ms_since(start);
      });
    }
    // Sweep 2: the Figure 1 grid on the measured workloads.
    const Span sweep_span{"core.sweep"};
    const int parent = sweep_span.id();
    sweep.for_each(static_cast<int>(fig1_values.size()), [&](int i) {
      const auto cell = static_cast<std::size_t>(i);
      const Row& row = fig1[cell / kCpus];
      const int cpus = static_cast<int>(cell % kCpus) + 1;
      const ConvolveWorkload& w = std::string_view{row.figure} == "fig1.CU" ? *cu : *cf;
      const Clock::time_point start = Clock::now();
      {
        const Span span{"apps.convolve.sim", parent};
        fig1_values[cell] =
            run_convolve_sim(w, cpus, smi_for(row.gap_ms),
                             static_cast<std::uint64_t>(row.gap_ms * 131 + cpus * 17) +
                                 7919 * v)
                .seconds;
      }
      cell_ms[fig2_values.size() + cell] = ms_since(start);
    });
  }
  report.wall_s =
      std::chrono::duration<double>(Clock::now() - report.first_call).count();

  // Rendered series rows, one pinned hash per row.
  const auto add_rows = [&](const std::vector<Row>& rows,
                            const std::vector<double>& values) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::string text = std::string(rows[r].figure) + " gap=" +
                         std::to_string(rows[r].gap_ms) + ":";
      for (int c = 0; c < kCpus; ++c) text += " " + full(values[r * kCpus + c]);
      report.hashes.push_back({std::string(rows[r].figure) + "." +
                                   std::to_string(rows[r].gap_ms),
                               hash_hex(text), kCpus});
    }
  };
  add_rows(fig1, fig1_values);
  add_rows(fig2, fig2_values);

  report.cells = static_cast<std::int64_t>(fig1_values.size() + fig2_values.size());
  report.attempted = report.cells;
  report.cell_ms = cell_ms;
  const HierarchyStats& a = cu->cache.stats;
  const HierarchyStats& b = cf->cache.stats;
  const auto refs = static_cast<double>(a.accesses + b.accesses);
  report.counters["cache.refs"] = refs;
  report.counters["cache.l1_miss_rate"] =
      static_cast<double>(a.accesses - a.l1_hits + b.accesses - b.l1_hits) / refs;
  return report;
}

}  // namespace perfbench
