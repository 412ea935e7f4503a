// System configuration and the fault-model types System's layers share
// (sim/system.h is the public entry point and includes this header).
#pragma once

#include <cstdint>

#include "smilab/net/network.h"
#include "smilab/os/costs.h"
#include "smilab/sim/machine.h"
#include "smilab/smm/smi_config.h"
#include "smilab/time/sim_time.h"

namespace smilab {

struct SystemConfig {
  MachineSpec machine = MachineSpec::wyeast_e5520();
  int node_count = 1;
  NetworkParams net{};
  OsCosts os{};
  SmiConfig smi{};
  std::uint64_t seed = 1;

  /// Per-node multiplicative speed jitter (stddev), modelling run-to-run
  /// system noise unrelated to SMIs (daemons, DVFS wiggle). 0 disables.
  double node_speed_sigma = 0.0;

  /// Post-SMM refill multiplier applied when the node has HTT siblings
  /// online (more hardware contexts re-warming the same caches).
  double refill_htt_node_multiplier = 1.35;

  /// Receive-processing cost factor for messages that arrived while the
  /// node was frozen, when HTT siblings are online: spare logical CPUs let
  /// the network stack drain the post-SMI backlog in parallel with the
  /// resumed ranks.
  double post_smi_drain_factor = 0.55;

  /// Extra CPU-side warm-up charged to each on-CPU task after an SMM
  /// interval when HTT siblings are online, as a fraction of the residency
  /// (jittered +/-40%). Twice as many hardware contexts re-populate the
  /// same caches/TLBs and the OS resumes twice as many runqueues, so the
  /// post-SMI recovery grows with the freeze length. This is what makes
  /// long SMIs ~4% more expensive with HTT on (Tables 4-5) while short
  /// SMIs stay invisible — the cost is proportional to residency. Being
  /// CPU-side only, it does NOT stretch the NIC outage, so comm-dominated
  /// jobs (FT at scale) can still come out ahead under HTT via the faster
  /// recovery below.
  double htt_refill_fraction = 0.38;

  /// SMM residency multiplier when HTT siblings are online (SMI rendezvous
  /// cost across twice the hardware threads). Kept at 1.0 by default — the
  /// ablation benches explore it; the refill fraction above carries the
  /// HTT effect in the calibrated model.
  double smm_htt_residency_factor = 1.0;

  /// TCP recovery scale multiplier when HTT siblings are online: softirq /
  /// retransmission processing restarts on spare hardware threads instead
  /// of competing with the resumed ranks, so comm-heavy jobs (FT) recover
  /// faster — the mechanism behind Table 5's negative HTT deltas.
  double htt_nic_recovery_factor = 0.35;

  /// SMM residency at which the handler has effectively flushed all hot
  /// state. Refill penalties scale with min(1, residency/this): a 1-3 ms
  /// handler touches little (short SMIs stay invisible even at high rates,
  /// as the paper reports); a 100+ ms integrity scan evicts everything.
  SimDuration smm_full_flush_residency = milliseconds(30);

  /// Hard ceiling on simulated time; exceeding it aborts the run with an
  /// error (guards against accidental livelock under extreme SMI rates).
  SimDuration max_sim_time = seconds(24 * 3600);

  /// Hang watchdog: if no task makes progress for this much simulated time
  /// while every unfinished task is blocked on communication and nothing is
  /// in flight, the run is diagnosed as stuck instead of grinding on to
  /// max_sim_time (periodic sources like the SMI driver otherwise keep the
  /// event queue alive forever). Zero disables the watchdog.
  SimDuration hang_timeout = seconds(10);
};

/// Transport-level fault decisions, consulted once per inter-node delivery
/// attempt as a message finishes egress service. Implemented by
/// FaultInjector (fault/fault_injector.h); when none is installed the
/// transport is perfectly reliable, exactly as before.
class LinkFaultModel {
 public:
  virtual ~LinkFaultModel() = default;
  /// True: this attempt is lost; the transport schedules a retransmission
  /// (timeout + exponential backoff, up to NetworkParams::max_retries).
  virtual bool should_drop(int src_node, int dst_node) = 0;
  /// True: deliver a duplicate copy that burns ingress wire time at the
  /// destination before transport dedup discards it.
  virtual bool should_duplicate(int src_node, int dst_node) = 0;
};

/// One injected-fault interval, recorded for traces and reports. `end` is
/// SimTime{-1} while the fault is still active (or forever, for crashes
/// record end == start).
struct FaultRecord {
  enum class Kind { kFreeze, kCrash, kLinkDown, kSlowNode };
  Kind kind;
  int node = 0;
  SimTime start;
  SimTime end{-1};
};

[[nodiscard]] const char* to_string(FaultRecord::Kind kind);

}  // namespace smilab
