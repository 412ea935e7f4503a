// NAS cell execution: calibration of the communication knob against the
// paper's SMM-0 baseline, then multi-trial runs under each SMI regime.
//
// Calibration contract (see DESIGN.md): per-class compute volume and the
// paper's no-SMI baselines are inputs; everything the tables report under
// SMM 1/2 (the deltas) is produced by the simulation.
#pragma once

#include <cstdint>
#include <optional>

#include "smilab/apps/nas/nas.h"
#include "smilab/smm/smi_config.h"
#include "smilab/stats/online_stats.h"

namespace smilab {

struct NasRunOptions {
  int trials = 6;                  ///< the paper averaged six runs
  double node_speed_sigma = 0.003; ///< non-SMI run-to-run system noise
  std::uint64_t seed = 2016;
  bool synchronized_smis = false;  ///< ablation knob
  /// Worker threads for independent (regime, trial) sims inside a cell
  /// (and for whole cells in the table builders). 1 = historical serial
  /// path; <=0 = hardware concurrency. Results are byte-identical at any
  /// value: every sim derives from (spec, knob, smi, seed) alone and is
  /// collected in grid order (core/sweep.h).
  int jobs = 1;
};

struct NasCellResult {
  NasJobSpec spec;
  std::optional<double> paper_baseline_s;
  NasKnob knob;  ///< calibrated exchange bytes + compute pad
  OnlineStats smm0;       ///< measured seconds, no SMIs
  OnlineStats smm1;       ///< short SMIs @ 1/s
  OnlineStats smm2;       ///< long SMIs @ 1/s

  [[nodiscard]] const OnlineStats& by_kind(SmiKind kind) const {
    switch (kind) {
      case SmiKind::kNone:
        return smm0;
      case SmiKind::kShort:
        return smm1;
      case SmiKind::kLong:
        return smm2;
    }
    return smm0;
  }
};

/// Simulate one run of a cell under the given calibrated knobs. Rank
/// programs stream from make_nas_rank_sources (one chunk per rank, peak RSS
/// O(ranks)); the streaming equality suite pins the result bit-for-bit to
/// running the whole programs build_nas_trace materializes.
double simulate_nas_once(const NasJobSpec& spec, const NasKnob& knob,
                         const SmiConfig& smi, std::uint64_t seed,
                         double node_speed_sigma);

/// Fit the knobs so the simulated no-SMI runtime matches the paper baseline
/// (to ~0.1%): bracketed bisection on the exchange size, then a per-
/// iteration compute pad for the residual. Results are memoized per cell;
/// HTT state does not affect the no-SMI runtime, so both HTT variants share
/// a calibration. Cells the paper does not report use the model's own
/// analytic baseline (compute split plus physical network volume).
NasKnob calibrate_nas_knob(const NasJobSpec& spec);

/// Calibrate and measure a cell under SMM 0/1/2.
NasCellResult run_nas_cell(const NasJobSpec& spec, const NasRunOptions& options);

}  // namespace smilab
