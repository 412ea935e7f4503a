// paper_tables: the Tables 1-3 NAS grid (BT, FT, EP; classes A-C; 1/4/16
// nodes; 1 or 4 ranks per node; SMM 0/1/2), each reported cell calibrated
// with calibrate_nas_knob and then measured with run_nas_cell, fanned
// across a 2-worker ExperimentSweep.
#include <cmath>
#include <cstdio>
#include <mutex>

#include "smilab/apps/nas/nas.h"
#include "smilab/apps/nas/runner.h"
#include "smilab/core/sweep.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace smilab;

// One trial per regime keeps a pass near 5 s, so a run holds several
// passes; calibration is most of a cell either way.
constexpr int kTrials = 1;

std::vector<NasJobSpec> grid() {
  // Heaviest benchmarks first so the two workers finish together.
  std::vector<NasJobSpec> cells;
  for (const NasBenchmark bench :
       {NasBenchmark::kFT, NasBenchmark::kBT, NasBenchmark::kEP}) {
    for (const int rpn : {4, 1}) {
      for (const int nodes : {16, 4, 1}) {
        for (const NasClass cls : {NasClass::kC, NasClass::kB, NasClass::kA}) {
          const NasJobSpec spec{bench, cls, nodes, rpn};
          if (nas_valid_rank_count(bench, spec.ranks()) &&
              nas_paper_reports(spec)) {
            cells.push_back(spec);
          }
        }
      }
    }
  }
  return cells;
}

std::string cell_key(const NasJobSpec& s) {
  return std::string(to_string(s.bench)) + "." + to_string(s.cls) + "." +
         std::to_string(s.nodes) + "x" + std::to_string(s.ranks_per_node);
}

/// The cell's rendered table row: the knob and every regime's mean and
/// spread at full precision.
std::string render_row(const NasCellResult& r) {
  std::string row = cell_key(r.spec) + " knob=" +
                    std::to_string(r.knob.exchange_bytes) + "/" +
                    std::to_string(r.knob.iter_pad_ns);
  for (const OnlineStats* s : {&r.smm0, &r.smm1, &r.smm2}) {
    row += " " + full(s->mean()) + "~" + full(s->stddev());
  }
  return row;
}

}  // namespace

PassReport run_paper_tables(const PassOptions& options) {
  const std::vector<NasJobSpec> cells = grid();
  NasRunOptions run;
  run.trials = kTrials;
  run.jobs = 1;  // the cell grid is the parallel axis
  run.seed = 2016 + 7919 * static_cast<std::uint64_t>(options.variant);
  const ExperimentSweep sweep{kSweepWorkers};

  std::vector<NasCellResult> results(cells.size());
  std::vector<double> cell_ms(cells.size());
  std::vector<int> ok(cells.size(), 0);
  std::mutex err_mu;
  std::string first_error;

  PassReport report;
  report.first_call = Clock::now();
  {
    const Span pass{"pass"};
    const Span sweep_span{"core.sweep"};
    const int parent = sweep_span.id();
    sweep.for_each(static_cast<int>(cells.size()), [&](int i) {
      const auto idx = static_cast<std::size_t>(i);
      const Clock::time_point start = Clock::now();
      try {
        {
          const Span span{"apps.nas.calibrate", parent};
          (void)calibrate_nas_knob(cells[idx]);
        }
        const Span span{"apps.nas.cell", parent};
        results[idx] = run_nas_cell(cells[idx], run);
        ok[idx] = 1;
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock{err_mu};
        if (first_error.empty()) first_error = cell_key(cells[idx]) + ": " + e.what();
      }
      cell_ms[idx] =
          std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    });
  }
  report.wall_s =
      std::chrono::duration<double>(Clock::now() - report.first_call).count();
  if (!first_error.empty()) std::fprintf(stderr, "paper_tables: %s\n", first_error.c_str());

  // Simulated long-SMI slowdown against the paper's published delta.
  double err_sum = 0;
  int err_n = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    report.attempted += 1;
    if (ok[i] == 0) {
      report.failed += 1;
      continue;
    }
    report.hashes.push_back({cell_key(cells[i]), hash_hex(render_row(results[i])), 1});
    if (const auto paper = nas_paper_cell(cells[i])) {
      const double sim_pct =
          (results[i].smm2.mean() / results[i].smm0.mean() - 1.0) * 100.0;
      err_sum += std::abs(sim_pct - paper->long_pct());
      ++err_n;
    }
  }
  report.cells = static_cast<std::int64_t>(cells.size());
  report.cell_ms = cell_ms;
  report.values["paper_err_pp"] = err_n > 0 ? err_sum / err_n : 0.0;
  return report;
}

}  // namespace perfbench
