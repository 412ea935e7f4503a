// NodeControl: System's whole-node layer. It decides when a node's CPUs
// and NICs stop and what the stop costs: SMM entry and exit (with the
// OS-view charge and the post-SMM cache refill), injected fault freezes,
// fail-stop crashes, link-down intervals, slow-node rate degradation and
// single-CPU OS-noise preemption. Causes compose: a CPU stays frozen until
// the last cause releases it, and only an SMM exit charges the interrupted
// tasks.
#pragma once

#include <cstdint>
#include <vector>

#include "smilab/sim/event_queue.h"
#include "smilab/sim/machine.h"
#include "smilab/sim/system_config.h"
#include "smilab/sim/task_impl.h"
#include "smilab/smm/accounting.h"
#include "smilab/time/rng.h"

namespace smilab {

class CpuSched;
class Interpreter;
class Nic;
class Protocol;

class NodeControl {
 public:
  NodeControl(const SystemConfig& cfg, Engine& engine, const Cluster& cluster,
              TaskTable& tasks, const Rng& master, CpuSched& sched,
              Interpreter& interp, Protocol& protocol, Nic& nic);

  // The public hooks System exposes (see sim/system.h for the contracts).
  void smm_enter(int node);
  void smm_exit(int node, const SmmInterval& interval);
  void preempt_cpu(int node, int cpu);
  void resume_cpu(int node, int cpu);
  void fault_freeze_enter(int node);
  void fault_freeze_exit(int node);
  void crash_node(int node);
  void set_node_fault_rate(int node, double scale);
  void set_link_down(int node, bool down);

  /// A timer wake fired: true when the node is frozen (SMM or a fault
  /// stall), in which case the wake is held until the node thaws.
  bool defer_wake(const TaskImpl& t);

  [[nodiscard]] bool in_smm(int node) const { return state(node).in_smm; }
  [[nodiscard]] bool fault_frozen(int node) const {
    return state(node).fault_frozen;
  }
  [[nodiscard]] bool crashed(int node) const { return state(node).crashed; }
  [[nodiscard]] double fault_rate(int node) const {
    return fault_rate_[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] const std::vector<FaultRecord>& fault_log() const {
    return fault_log_;
  }
  [[nodiscard]] const SmmAccounting& smm_accounting() const { return smm_acct_; }

 private:
  struct NodeState {
    bool in_smm = false;
    bool fault_frozen = false;  ///< transient whole-node fault stall active
    bool crashed = false;       ///< fail-stop: permanently dead
    SimTime freeze_start;
    SimTime last_smm_exit{-1};  ///< negative: never been in SMM
    std::vector<std::int32_t> deferred_wakes;  // timer wakes that fired frozen
  };
  /// What an SMM exit charges each task it interrupted.
  struct SmmCharge {
    SimDuration frozen_for;  ///< the SMM residency
    SimDuration refill;      ///< residency that counts toward cache refill
  };

  [[nodiscard]] NodeState& state(int node) {
    return nodes_.at(static_cast<std::size_t>(node));
  }
  [[nodiscard]] const NodeState& state(int node) const {
    return nodes_.at(static_cast<std::size_t>(node));
  }
  void freeze_node(int node);
  void thaw_node(int node, const SmmCharge* smm);
  void apply_refill(TaskImpl& t, SimDuration frozen_for);
  void close_fault_record(FaultRecord::Kind kind, int node);

  const SystemConfig& cfg_;
  Engine& engine_;
  const Cluster& cluster_;
  TaskTable& tasks_;
  CpuSched& sched_;
  Interpreter& interp_;
  Protocol& protocol_;
  Nic& nic_;

  std::vector<NodeState> nodes_;
  std::vector<double> fault_rate_;  ///< per-node fault rate degradation
  std::vector<FaultRecord> fault_log_;
  SmmAccounting smm_acct_;
  Rng refill_rng_;
  double htt_refill_run_factor_;  ///< per-run HTT warm-up luck
};

}  // namespace smilab
