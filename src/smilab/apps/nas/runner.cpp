#include "smilab/apps/nas/runner.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <mutex>
#include <tuple>

#include "smilab/core/sweep.h"
#include "smilab/mpi/job.h"
#include "smilab/sim/system.h"

namespace smilab {

double simulate_nas_once(const NasJobSpec& spec, const NasKnob& knob,
                         const SmiConfig& smi, std::uint64_t seed,
                         double node_speed_sigma) {
  SystemConfig cfg;
  cfg.machine = MachineSpec::wyeast_e5520();
  cfg.node_count = spec.nodes;
  cfg.net = NetworkParams::wyeast();
  cfg.smi = smi;
  cfg.seed = seed;
  cfg.node_speed_sigma = node_speed_sigma;
  System sys{cfg};
  sys.set_online_cpus(spec.htt ? cfg.machine.logical_cpus()
                               : cfg.machine.cores());

  const auto placement = block_placement(spec.ranks(), spec.ranks_per_node);
  const std::string name =
      std::string(to_string(spec.bench)) + "." + to_string(spec.cls);
  const MpiJobResult result = run_mpi_job_streaming(
      sys, spec.ranks(), make_nas_rank_sources(spec, knob), placement,
      WorkloadProfile::dense_fp(), name);
  return result.elapsed.seconds();
}

namespace {

std::int64_t physical_exchange_bytes(const NasJobSpec& spec) {
  const auto points = static_cast<double>(nas_grid_points(spec.bench, spec.cls));
  const int p = spec.ranks();
  switch (spec.bench) {
    case NasBenchmark::kEP:
      return 0;
    case NasBenchmark::kBT: {
      // A face of the per-rank subdomain: 5 doubles per cell.
      const double side = std::cbrt(points);
      const double q = std::sqrt(static_cast<double>(p));
      return static_cast<std::int64_t>(side * side / q * 5.0 * 8.0);
    }
    case NasBenchmark::kFT:
      // Transpose: each rank sends grid/p^2 complex doubles to each peer.
      return static_cast<std::int64_t>(points * 16.0 /
                                       (static_cast<double>(p) * p));
  }
  return 0;
}

NasKnob calibrate_uncached(const NasJobSpec& spec) {
  const int p = spec.ranks();
  const int niter = nas_iterations(spec.bench, spec.cls);
  const double compute = nas_serial_work_seconds(spec.bench, spec.cls) / p;
  const auto paper = nas_paper_baseline(spec);

  const auto runtime = [&](NasKnob knob) {
    return simulate_nas_once(spec, knob, SmiConfig::none(), 1, 0.0);
  };
  const auto pad_residual = [&](NasKnob knob, double target) {
    // The pad enters the runtime additively (one pad per iteration on the
    // critical path), so one probe pins it down exactly.
    const double t = runtime(knob);
    const double per_iter = (target - t) / niter;
    knob.iter_pad_ns = static_cast<std::int64_t>(per_iter * 1e9);
    // Never drive the per-iteration compute negative.
    const auto floor_ns =
        -static_cast<std::int64_t>(compute / niter * 1e9) + 1000;
    knob.iter_pad_ns = std::max(knob.iter_pad_ns, floor_ns);
    return knob;
  };

  if (spec.bench == NasBenchmark::kEP) {
    NasKnob knob;
    if (!paper) return knob;
    return pad_residual(knob, *paper);
  }

  if (!paper) {
    // Unreported cell: fall back to the physical message volume.
    return NasKnob{std::max<std::int64_t>(64, physical_exchange_bytes(spec)), 0};
  }

  const double target = *paper;
  if (target <= compute) return pad_residual(NasKnob{1, 0}, target);

  // runtime(bytes) is monotone in bytes (more wire + copy work) but not
  // smooth (NIC queueing, rendezvous threshold), so bracket, bisect in log
  // space, then absorb the residual into the compute pad.
  std::int64_t lo = 1;
  double t_lo = runtime(NasKnob{lo, 0});
  if (t_lo >= target) return pad_residual(NasKnob{lo, 0}, target);
  std::int64_t hi =
      std::max<std::int64_t>(4096, physical_exchange_bytes(spec) / 4);
  double t_hi = runtime(NasKnob{hi, 0});
  while (t_hi < target && hi < (1LL << 33)) {
    lo = hi;
    t_lo = t_hi;
    hi *= 4;
    t_hi = runtime(NasKnob{hi, 0});
  }
  for (int iter = 0; iter < 20 && hi - lo > 1; ++iter) {
    const auto mid = static_cast<std::int64_t>(
        std::sqrt(static_cast<double>(lo) * static_cast<double>(hi)));
    if (mid <= lo || mid >= hi) break;
    const double t_mid = runtime(NasKnob{mid, 0});
    if (std::abs(t_mid - target) <= 0.002 * target) {
      return pad_residual(NasKnob{mid, 0}, target);
    }
    if (t_mid < target) {
      lo = mid;
      t_lo = t_mid;
    } else {
      hi = mid;
      t_hi = t_mid;
    }
  }
  // Prefer the under-shooting end so the pad stays non-negative.
  return pad_residual(NasKnob{lo, 0}, target);
}

}  // namespace

NasKnob calibrate_nas_knob(const NasJobSpec& spec) {
  using Key = std::tuple<int, int, int, int>;
  // The memo is shared across concurrently swept cells; calibration itself
  // runs outside the lock (it is a pure function of the spec, so a rare
  // duplicate computation by two first-comers yields the same knob).
  static std::mutex mu;
  static std::map<Key, NasKnob> cache;
  const Key key{static_cast<int>(spec.bench), static_cast<int>(spec.cls),
                spec.nodes, spec.ranks_per_node};
  {
    const std::lock_guard<std::mutex> lock{mu};
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }
  NasJobSpec base = spec;
  base.htt = false;  // HTT does not change the no-SMI runtime
  const NasKnob knob = calibrate_uncached(base);
  const std::lock_guard<std::mutex> lock{mu};
  return cache.emplace(key, knob).first->second;
}

NasCellResult run_nas_cell(const NasJobSpec& spec, const NasRunOptions& options) {
  NasCellResult result;
  result.spec = spec;
  result.paper_baseline_s = nas_paper_baseline(spec);
  result.knob = calibrate_nas_knob(spec);

  const SmiConfig configs[3] = {SmiConfig::none(), SmiConfig::short_every_second(),
                                SmiConfig::long_every_second()};
  OnlineStats* stats[3] = {&result.smm0, &result.smm1, &result.smm2};
  // The 3 x trials sims are independent once the knob is fixed: fan them
  // across the sweep pool, then fold into the per-regime stats in the same
  // (regime, trial) order the serial loop used — byte-identical results.
  const ExperimentSweep sweep{options.jobs};
  const std::vector<double> seconds = sweep.map<double>(
      3 * options.trials, [&](int i) {
        const int k = i / options.trials;
        const int trial = i % options.trials;
        SmiConfig smi = configs[k];
        smi.synchronized_across_nodes = options.synchronized_smis;
        const std::uint64_t seed =
            options.seed * 2654435761u + static_cast<std::uint64_t>(k) * 97 +
            static_cast<std::uint64_t>(trial) * 1013904223u + (spec.htt ? 7 : 0);
        return simulate_nas_once(spec, result.knob, smi, seed,
                                 options.node_speed_sigma);
      });
  for (int k = 0; k < 3; ++k) {
    for (int trial = 0; trial < options.trials; ++trial) {
      stats[k]->add(seconds[static_cast<std::size_t>(k * options.trials + trial)]);
    }
  }
  return result;
}

}  // namespace smilab
