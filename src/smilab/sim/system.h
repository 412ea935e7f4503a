// The simulation runtime: interprets task actions against the machine
// model, the OS scheduler, the network, and the SMM injection engine.
//
// Execution semantics (the load-bearing rules):
//  * A task is sticky-placed on one logical CPU at spawn (HPC-style); the
//    placement policy fills distinct physical cores before HTT siblings,
//    like the Linux scheduler's preference for idle cores.
//  * Compute progresses at a rate set by HTT sibling occupancy
//    (cpu/workload_profile.h) and pauses entirely while the node is in SMM.
//  * An SMI freezes EVERY online logical CPU of the node for the sampled
//    SMM duration: no compute, no message injection or drain, no timer
//    wake-ups — only the wire keeps moving. This is the defining property
//    of SMIs versus ordinary interrupts.
//  * The OS-view clock keeps charging the interrupted task during SMM
//    (TaskStats::os_view_cpu_time), reproducing the misattribution the
//    paper calls out for performance tools.
//  * After SMM exit each on-CPU task pays a cache-refill penalty, larger
//    when HTT is active; messages that arrived during the freeze drain
//    cheaper when spare sibling contexts exist (post-SMI backlog drain).
//
// System is the facade over six layers, each owning one decision and its
// state (DESIGN.md §17 has the diagram). The layers hold references to the
// layers they call; those references are the whole dependency graph:
//  * CpuSched (sim/cpu_sched.h): where and how fast a task runs.
//  * Interpreter (sim/interpreter.h): what a task does next.
//  * Protocol (sim/protocol.h): how a message travels, matches, completes.
//  * Nic (sim/nic.h): when a message's bits are on the wire.
//  * NodeControl (sim/node_control.h): when a node stops and what it costs.
//  * Diagnosis (sim/diagnosis.h): read-only explanations of a run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "smilab/net/network.h"
#include "smilab/sim/cpu_sched.h"
#include "smilab/sim/diagnosis.h"
#include "smilab/sim/event_queue.h"
#include "smilab/sim/interpreter.h"
#include "smilab/sim/machine.h"
#include "smilab/sim/nic.h"
#include "smilab/sim/node_control.h"
#include "smilab/sim/protocol.h"
#include "smilab/sim/run_result.h"
#include "smilab/sim/system_config.h"
#include "smilab/sim/task.h"
#include "smilab/sim/task_impl.h"
#include "smilab/sim/transport.h"
#include "smilab/smm/accounting.h"
#include "smilab/time/rng.h"
#include "smilab/time/tsc.h"
#include "smilab/trace/action_ring.h"

namespace smilab {

class SmiController;

/// See file header. Single-threaded, deterministic given (config, seed).
class System {
 public:
  explicit System(SystemConfig cfg);
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] Cluster& cluster() { return cluster_; }
  [[nodiscard]] const Cluster& cluster() const { return cluster_; }
  [[nodiscard]] const SystemConfig& config() const { return cfg_; }
  [[nodiscard]] SimTime now() const { return engine_.now(); }
  [[nodiscard]] Tsc tsc() const { return Tsc{cfg_.machine.ghz}; }

  /// Take `n` logical CPUs online on every node before spawning tasks
  /// (sysfs-style sweep used by the multithreaded study).
  void set_online_cpus(int n);

  // --- Tasks and groups ------------------------------------------------------

  /// Create a communication group (an MPI communicator / a pipe pair).
  GroupId create_group(int size);

  /// Spawn a standalone task (it gets a singleton group).
  TaskId spawn(TaskSpec spec);

  /// Spawn a task as rank `rank` of group `g`. Send/Recv ranks resolve
  /// within the group.
  TaskId spawn_member(GroupId g, int rank, TaskSpec spec);

  // --- Running -----------------------------------------------------------------

  /// Run until every spawned task has finished (tasks killed by node
  /// crashes count as resolved). Throws SimulationError carrying the
  /// formatted diagnosis if the run deadlocks, hangs, or exceeds
  /// max_sim_time.
  void run();

  /// Non-throwing run: like run(), but a stuck run returns a structured
  /// RunResult (status + per-rank blocked-operation diagnosis + wait-for
  /// cycle if one exists) instead of throwing. The CLI and benches use this
  /// for graceful degradation.
  [[nodiscard]] RunResult try_run();

  /// Run for at most `d` more simulated time. Returns true if events remain.
  bool run_for(SimDuration d);

  [[nodiscard]] bool all_finished() const;
  [[nodiscard]] const TaskStats& task_stats(TaskId t) const;
  [[nodiscard]] const std::string& task_name(TaskId t) const;
  [[nodiscard]] int task_node(TaskId t) const;
  /// Tasks spawned so far; ids are dense: TaskId{0} .. TaskId{count-1}.
  [[nodiscard]] int task_count() const { return static_cast<int>(tasks_.all.size()); }
  /// Sum of true (executing) CPU time over all tasks.
  [[nodiscard]] SimDuration total_true_cpu_time() const;
  /// Completion time of the last-finishing member of `g`; all members must
  /// have finished.
  [[nodiscard]] SimTime group_finish_time(GroupId g) const;
  /// Completion time of the last-finishing task overall.
  [[nodiscard]] SimTime last_finish_time() const;

  // --- SMM ---------------------------------------------------------------------

  [[nodiscard]] const SmmAccounting& smm_accounting() const {
    return ctl_.smm_accounting();
  }
  /// Non-null when cfg.smi.enabled(): the injection engine.
  [[nodiscard]] SmiController* smi_controller() { return smi_.get(); }

  /// Firmware-side hooks used by SmiController. All online CPUs of `node`
  /// stop at smm_enter and resume at smm_exit.
  void smm_enter(int node);
  void smm_exit(int node, const SmmInterval& interval);
  [[nodiscard]] bool node_in_smm(int node) const;
  /// True when any physical core of the node has both hardware threads
  /// online (drives the HTT-dependent SMM behaviours above).
  [[nodiscard]] bool node_htt_active(int node) const;

  // --- Generic single-CPU noise (noise/ injector) ----------------------------

  /// Preempt one logical CPU (an OS-level noise event: daemon, IRQ storm,
  /// kernel thread). Unlike SMM this stops neither the other CPUs nor the
  /// NIC — the contrast the SMI-vs-OS-noise ablation measures. The CPU must
  /// not already be frozen (by SMM or a previous preemption).
  void preempt_cpu(int node, int cpu);
  /// Undo preempt_cpu: no refill penalty, no SMM accounting.
  void resume_cpu(int node, int cpu);

  // --- Fault hooks (driven by fault/FaultInjector) ---------------------------

  /// Transient whole-node stall begin/end: every online CPU and both NIC
  /// directions stop, like SMM but independent of the SMI controller and
  /// without its accounting (no OS-view charge, no refill model). Freezes
  /// compose with SMM: whichever mechanism releases the node last resumes
  /// it. No-ops on a crashed node.
  void fault_freeze_enter(int node);
  void fault_freeze_exit(int node);
  [[nodiscard]] bool node_fault_frozen(int node) const;

  /// Fail-stop crash: kills every task on the node (TaskStats::failed),
  /// silences its NICs forever, and discards traffic queued for it. Blocked
  /// peers become diagnosable through try_run().
  void crash_node(int node);
  [[nodiscard]] bool node_crashed(int node) const;

  /// Multiplicative compute-rate degradation for every CPU of `node`
  /// (1.0 = nominal). Running tasks re-settle and re-pace immediately.
  void set_node_fault_rate(int node, double scale);

  /// Take both NIC directions of `node` down / back up (refcounted with SMM
  /// pauses). Resuming pays the usual TCP loss-recovery cost.
  void set_link_down(int node, bool down);

  /// Install / clear the per-delivery fault model. `model` must outlive the
  /// run. Null restores the perfectly reliable transport.
  /// Any armed model also switches rendezvous acks from lazy maturation on
  /// the sender's next poll to one dedicated event per ack (DESIGN.md §11).
  void set_link_fault_model(LinkFaultModel* model) {
    protocol_.set_link_fault_model(model);
  }

  /// Injected-fault intervals, in injection order (for traces and reports).
  [[nodiscard]] const std::vector<FaultRecord>& fault_log() const {
    return ctl_.fault_log();
  }

  // --- Schedule exploration (mc/ model checker) ------------------------------

  /// Install / clear the schedule-exploration policy (sim/choice_hooks.h).
  /// Covers all three choice points: engine same-instant ties (forwarded to
  /// engine().set_tie_break), ANY_SOURCE match order, and FaultInjector
  /// jitter offsets (the injector reads schedule_policy() at construction).
  /// Null — the default — restores the canonical schedule with zero
  /// overhead beyond one pointer test per consulting site. The policy must
  /// outlive its installation.
  void set_schedule_policy(SchedulePolicy* policy) {
    protocol_.set_schedule_policy(policy);
    engine_.set_tie_break(policy);
  }
  [[nodiscard]] SchedulePolicy* schedule_policy() const {
    return protocol_.schedule_policy();
  }

  /// Order-insensitive digest of "where the simulation is": per-task
  /// control state (phase, action index, wait keys, open handles,
  /// unexpected-queue content in arrival order), transport counters, and
  /// the multiset of pending-event times. Two exploration runs reaching
  /// equal digests at the same choice point continue identically, which is
  /// what the model checker's memo pruning relies on. Deliberately excludes
  /// numbering isomorphisms (event seqs, ack keys, arrival_seq values) so
  /// commuted-but-equivalent schedules collapse. O(state); never on the
  /// simulation hot path.
  [[nodiscard]] std::uint64_t progress_digest() const;

  // --- Transport counters ----------------------------------------------------

  [[nodiscard]] std::int64_t messages_dropped() const {
    return protocol_.messages_dropped();
  }
  [[nodiscard]] std::int64_t messages_duplicated() const {
    return protocol_.messages_duplicated();
  }
  [[nodiscard]] std::int64_t retransmissions() const {
    return protocol_.retransmissions();
  }
  /// Messages abandoned after max_retries or because their destination died.
  [[nodiscard]] std::int64_t transport_failures() const {
    return protocol_.transport_failures();
  }

  /// Message-pool / ack-router resource snapshot (sim/transport.h). The pool
  /// numbers are the proof that transport memory is bounded by in-flight
  /// traffic: `pool_live` returns to 0 when the wire drains and
  /// `pool_capacity` stops at the concurrency high-water mark instead of
  /// growing with every message ever sent.
  [[nodiscard]] TransportStats transport_stats() const {
    return diagnosis_.transport_stats();
  }
  /// High-water mark of simultaneously in-flight (injected, not yet
  /// arrived/failed) messages over the run so far.
  [[nodiscard]] std::int64_t peak_in_flight_messages() const {
    return protocol_.peak_in_flight_messages();
  }
  /// High-water mark of materialized program actions summed across live
  /// tasks (ActionSource::materialized_actions, sampled at spawn and after
  /// every action pull): the trace-memory analogue of
  /// peak_in_flight_messages.
  [[nodiscard]] std::int64_t peak_program_actions() const {
    return interp_.peak_program_actions();
  }

  /// Keep a bounded window of completed actions for trace rendering
  /// (trace/action_ring.h). Capacity 0 (default) disables recording.
  void set_action_ring_capacity(std::size_t capacity) {
    interp_.action_ring().set_capacity(capacity);
  }
  [[nodiscard]] const ActionRing& action_ring() const {
    return interp_.action_ring();
  }

  // --- Diagnostics ----------------------------------------------------------------

  [[nodiscard]] const NetworkModel& network() const { return net_; }
  /// Warm-start the network cost memo from a model left behind by an
  /// earlier run with identical NetworkParams (a no-op otherwise). Used by
  /// the serve daemon's warm workers; bit-inert — see NetworkModel::warm_from.
  void warm_network_memo(const NetworkModel& prev) { net_.warm_from(prev); }
  /// Total bytes that crossed node boundaries.
  [[nodiscard]] std::int64_t inter_node_bytes() const {
    return protocol_.inter_node_bytes();
  }
  /// Derived per-run RNG stream (deterministic per label).
  [[nodiscard]] Rng make_rng(std::string_view label) const {
    return master_rng_.fork(stream_label(label));
  }

  /// Internal consistency checker (used by the fuzz harness and tests):
  /// every CPU's `current` cross-references a task that believes it is on
  /// that CPU; every queued task sits in exactly its own CPU's runqueue;
  /// frozen flags agree with node SMM state (outside single-CPU
  /// preemptions); finished tasks hold no execution state. Transport side:
  /// the message pool's free-list bookkeeping holds, the in-flight counter
  /// equals the pool's kTransit population, every unexpected queue is
  /// structurally sound and their sizes sum to the pool's kUnexpected
  /// population, and every kConsumed record has a live ack route. Throws
  /// std::logic_error with a description on the first violation.
  void validate() const;

 private:
  SystemConfig cfg_;
  Engine engine_;
  Cluster cluster_;
  NetworkModel net_;
  Rng master_rng_;
  TaskTable tasks_;

  // The layers. Each is constructed with references to the layers it
  // calls, some of which are constructed after it; no layer calls another
  // before System's constructor has finished.
  CpuSched sched_;
  Interpreter interp_;
  Protocol protocol_;
  Nic nic_;
  NodeControl ctl_;
  Diagnosis diagnosis_;

  std::unique_ptr<SmiController> smi_;
};

}  // namespace smilab
