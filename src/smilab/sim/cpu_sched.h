// CpuSched: System's CPU scheduler layer. It decides where a task runs and
// how fast: sticky placement, per-CPU runqueues with CFS-style idle
// stealing and a round-robin quantum, HTT rate sharing between sibling
// hardware threads, and the per-CPU half of a freeze (banking a task's
// progress while its CPU is stopped).
#pragma once

#include <cstdint>
#include <vector>

#include "smilab/sim/event_queue.h"
#include "smilab/sim/interpreter.h"
#include "smilab/sim/machine.h"
#include "smilab/sim/system_config.h"
#include "smilab/sim/task_impl.h"
#include "smilab/time/rng.h"

namespace smilab {

class NodeControl;

struct CpuState {
  // A vector, not a deque: runqueues are short (a few sticky tasks), and
  // an untouched vector holds no heap block — at 8192 nodes x 16 CPUs a
  // per-CPU allocation at construction dominated System setup.
  std::vector<std::int32_t> runqueue;  // task indices
  std::int32_t current = -1;
  bool frozen = false;
  EventId quantum_ev{};
  std::int32_t last_task = -1;
  int assigned = 0;  ///< sticky placements on this CPU (for balancing)
};

class CpuSched {
 public:
  /// Calls `interp` to drive a task whose CPU becomes available to it, and
  /// reads `ctl`'s per-node fault rate degradation.
  CpuSched(const SystemConfig& cfg, Engine& engine, const Cluster& cluster,
           TaskTable& tasks, const Rng& master, Interpreter& interp,
           const NodeControl& ctl);

  /// Node-local CPU (least loaded, idle cores before HTT siblings) for a
  /// new task on `node`. Throws SimulationError if no CPU is online.
  [[nodiscard]] int place(int node) const;
  /// Count a freshly spawned task on its CPU and make it runnable.
  void admit(TaskImpl& t);

  void make_ready(TaskImpl& t);
  void dispatch(int node, int cpu);

  /// Begin `amount` of work (plus any pending overhead) on the task's CPU.
  void start_work(TaskImpl& t, SimDuration amount);
  /// Bank CPU time and work progress since the last settle.
  void settle(TaskImpl& t);
  /// Take the task off the engine's clock; `keep_on_cpu` (a freeze) keeps
  /// it current on its CPU.
  void stop_running(TaskImpl& t, bool keep_on_cpu);
  /// Re-pace the task running on (node, cpu) after its rate inputs changed.
  void rerate(int node, int cpu);
  /// A parked task's wait may be satisfied: a spinner on a running CPU
  /// re-polls now (a frozen one re-polls at its thaw), a blocked one is
  /// made ready, and a queued one (preempted while spinning) re-polls at
  /// dispatch. Inline: every message arrival and ack wake lands here.
  void poll_waiter(TaskImpl& t) {
    if (t.on_cpu) {
      if (!cpu(t.node, t.cpu).frozen) interp_.step_action(t);
    } else if (t.state == TaskImpl::State::kBlocked) {
      make_ready(t);
    }
  }
  /// Remove a killed task from its CPU and runqueue and drop its work.
  void evict(TaskImpl& t);

  void freeze_cpu(int node, int cpu);
  void thaw_cpu(int node, int cpu);

  /// True when the task's HTT sibling is executing real work.
  [[nodiscard]] bool sibling_busy(const TaskImpl& t) const;
  /// True when any physical core of the node has both hardware threads
  /// online.
  [[nodiscard]] bool node_htt_active(int node) const;

  [[nodiscard]] CpuState& cpu(int node, int cpu) {
    return cpus_[static_cast<std::size_t>(node * per_node_ + cpu)];
  }
  [[nodiscard]] const CpuState& cpu(int node, int cpu) const {
    return cpus_[static_cast<std::size_t>(node * per_node_ + cpu)];
  }

 private:
  void steal_into(int node, int cpu);
  void preempt_current(int node, int cpu);
  void arm_quantum(int node, int cpu);
  [[nodiscard]] double current_rate(const TaskImpl& t) const;
  void begin_running(TaskImpl& t);
  void reschedule_completion(TaskImpl& t);
  void on_work_complete(TaskImpl& t);
  void sibling_rate_changed(int node, int cpu);

  const SystemConfig& cfg_;
  Engine& engine_;
  const Cluster& cluster_;
  TaskTable& tasks_;
  Interpreter& interp_;
  const NodeControl& ctl_;

  int per_node_;                    ///< logical CPUs per node
  std::vector<CpuState> cpus_;      ///< node * per_node_ + cpu
  std::vector<double> node_speed_;  ///< per-node base speed multiplier
};

}  // namespace smilab
