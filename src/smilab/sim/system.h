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
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "smilab/net/network.h"
#include "smilab/os/costs.h"
#include "smilab/sim/event_queue.h"
#include "smilab/sim/machine.h"
#include "smilab/sim/run_result.h"
#include "smilab/sim/task.h"
#include "smilab/sim/transport.h"
#include "smilab/smm/accounting.h"
#include "smilab/smm/smi_config.h"
#include "smilab/time/rng.h"
#include "smilab/time/tsc.h"
#include "smilab/trace/action_ring.h"

namespace smilab {

class SmiController;

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
  [[nodiscard]] int task_count() const { return static_cast<int>(tasks_.size()); }
  /// Sum of true (executing) CPU time over all tasks.
  [[nodiscard]] SimDuration total_true_cpu_time() const;
  /// Completion time of the last-finishing member of `g`; all members must
  /// have finished.
  [[nodiscard]] SimTime group_finish_time(GroupId g) const;
  /// Completion time of the last-finishing task overall.
  [[nodiscard]] SimTime last_finish_time() const;

  // --- SMM ---------------------------------------------------------------------

  [[nodiscard]] const SmmAccounting& smm_accounting() const { return smm_acct_; }
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
  void set_link_fault_model(LinkFaultModel* model) { link_fault_ = model; }

  /// Enable/disable the transport fast path: lazily matured rendezvous
  /// acks (delivery piggybacks on the sender's next poll instead of a
  /// dedicated event). It self-disables while a link fault model is armed.
  /// Lazy acks are NOT bit-exact on every program: acks due at the same
  /// instant apply in the order their senders parked, not the order they
  /// were delivered, so an 8-rank FT (2 nodes x 4 ranks) runs its ranks in
  /// a different order (DESIGN.md §11), though the equality tests' ring,
  /// same-node and fault-plan scenarios hash equal. On by default; the off position exists for debugging and
  /// the equality tests.
  void set_transport_fast_paths(bool on) { fast_paths_ = on; }
  [[nodiscard]] bool transport_fast_paths() const { return fast_paths_; }

  /// Injected-fault intervals, in injection order (for traces and reports).
  [[nodiscard]] const std::vector<FaultRecord>& fault_log() const {
    return fault_log_;
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
    sched_policy_ = policy;
    engine_.set_tie_break(policy);
  }
  [[nodiscard]] SchedulePolicy* schedule_policy() const { return sched_policy_; }

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

  [[nodiscard]] std::int64_t messages_dropped() const { return messages_dropped_; }
  [[nodiscard]] std::int64_t messages_duplicated() const { return messages_duplicated_; }
  [[nodiscard]] std::int64_t retransmissions() const { return retransmissions_; }
  /// Messages abandoned after max_retries or because their destination died.
  [[nodiscard]] std::int64_t transport_failures() const { return transport_failures_; }

  /// Message-pool / ack-router resource snapshot (sim/transport.h). The pool
  /// numbers are the proof that transport memory is bounded by in-flight
  /// traffic: `pool_live` returns to 0 when the wire drains and
  /// `pool_capacity` stops at the concurrency high-water mark instead of
  /// growing with every message ever sent.
  [[nodiscard]] TransportStats transport_stats() const;
  /// High-water mark of simultaneously in-flight (injected, not yet
  /// arrived/failed) messages over the run so far.
  [[nodiscard]] std::int64_t peak_in_flight_messages() const {
    return peak_in_flight_messages_;
  }
  /// High-water mark of materialized program actions summed across live
  /// tasks (ActionSource::materialized_actions, sampled at spawn and after
  /// every action pull): the trace-memory analogue of
  /// peak_in_flight_messages.
  [[nodiscard]] std::int64_t peak_program_actions() const {
    return peak_program_actions_;
  }

  /// Keep a bounded window of completed actions for trace rendering
  /// (trace/action_ring.h). Capacity 0 (default) disables recording.
  void set_action_ring_capacity(std::size_t capacity) {
    action_ring_.set_capacity(capacity);
  }
  [[nodiscard]] const ActionRing& action_ring() const { return action_ring_; }

  // --- Diagnostics ----------------------------------------------------------------

  [[nodiscard]] const NetworkModel& network() const { return net_; }
  /// Warm-start the network cost memo from a model left behind by an
  /// earlier run with identical NetworkParams (a no-op otherwise). Used by
  /// the serve daemon's warm workers; bit-inert — see NetworkModel::warm_from.
  void warm_network_memo(const NetworkModel& prev) { net_.warm_from(prev); }
  /// Total bytes that crossed node boundaries.
  [[nodiscard]] std::int64_t inter_node_bytes() const { return inter_node_bytes_; }
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
  struct TaskImpl;
  struct CpuState;
  struct NodeState;

  TaskImpl& task(TaskId id);
  const TaskImpl& task(TaskId id) const;
  CpuState& cpu_state(int node, int cpu);

  // Placement and scheduling.
  int place(const TaskSpec& spec);
  void make_ready(TaskImpl& t);
  void dispatch(int node, int cpu);
  void steal_into(int node, int cpu);
  void preempt_current(int node, int cpu);
  void arm_quantum(int node, int cpu);

  // Execution progress.
  double current_rate(const TaskImpl& t) const;
  void settle(TaskImpl& t);
  void begin_running(TaskImpl& t);
  void stop_running(TaskImpl& t, bool keep_on_cpu);
  void reschedule_completion(TaskImpl& t);
  void on_work_complete(TaskImpl& t);
  void sibling_rate_changed(int node, int cpu);
  void rerate(int node, int cpu);
  [[nodiscard]] bool sibling_busy(const TaskImpl& t) const;

  // Action interpretation.
  void start_next_action(TaskImpl& t);
  void step_action(TaskImpl& t);
  void start_work(TaskImpl& t, SimDuration amount);
  void park(TaskImpl& t);
  void start_copy(TaskImpl& t, const MessageRec& msg);
  void finish_task(TaskImpl& t);

  // Messaging. Records live in pool_ and are addressed by generation-checked
  // MsgHandles; see sim/transport.h for the lifecycle and recycle policy.
  std::uint64_t inject_message(TaskImpl& sender, int dst_rank,
                               std::int64_t bytes, int tag, int nb_handle);
  void on_message_arrival(MsgHandle h);
  bool try_match_recv(TaskImpl& t, int src_rank, int tag, MessageRec** out);
  void retire_copied(TaskImpl& receiver, MsgHandle h);
  void deliver_ack(const MessageRec& msg);
  bool match_posted_irecv(TaskImpl& t, MsgHandle h);
  void poll_waiter(TaskImpl& t);

  // WaitAll progress-counter helpers (TaskImpl::wa_* state).
  static void wa_mark_ready(TaskImpl& t, int pos);
  static void wa_clear_ready(TaskImpl& t, int pos);
  [[nodiscard]] static int wa_first_ready(const TaskImpl& t);

  // Lazily matured rendezvous acks (fast path; see deliver_ack).
  void queue_lazy_ack(TaskImpl& sender, std::uint64_t key, SimTime due);
  void mature_acks(TaskImpl& t, bool allow_wake = false);
  void ensure_ack_wake(TaskImpl& t);
  void apply_ack(std::uint64_t ack_key, bool allow_wake);

  // Event-driven NIC servers (pause while the node is in SMM: a frozen
  // host neither transmits nor ACKs, so TCP stalls with the CPUs). Each is
  // one booked FIFO whose front carries the only armed event (egress: the
  // handoff; ingress: the merged service-end + propagation arrival); see
  // the NicServer comment in system.cpp.
  struct NicServer;
  NicServer& nic(int node, bool egress);
  void nic_submit(int node, bool egress, MsgHandle h);
  void nic_pause(int node);   // both directions
  void nic_resume(int node);  // both directions
  void nic_arm(int node, bool egress, NicServer& server);
  void nic_handoff(int node, MsgHandle h);
  void nic_arrival(int node, MsgHandle h);

  // Freeze and thaw (SMM, fault freezes, OS-noise preemption).
  struct SmmCharge;
  void freeze_cpu(int node, int cpu);
  void thaw_cpu(int node, int cpu);
  void freeze_node(int node);
  void thaw_node(int node, const SmmCharge* smm);
  void apply_refill(TaskImpl& t, Rng& rng, SimDuration frozen_for);

  // Fault and diagnosis helpers.
  void kill_task(TaskImpl& t);
  void fail_message(MsgHandle h);
  void handoff_to_ingress(MsgHandle h);
  void retransmit_later(MsgHandle h);
  void close_fault_record(FaultRecord::Kind kind, int node);
  [[nodiscard]] bool all_unfinished_comm_waiting() const;
  [[nodiscard]] RunResult diagnose(RunStatus status) const;
  void note_progress() { last_progress_ = now(); }

  SystemConfig cfg_;
  Engine engine_;
  Cluster cluster_;
  NetworkModel net_;
  SmmAccounting smm_acct_;
  Rng master_rng_;
  Rng refill_rng_;
  Rng nic_rng_;
  double htt_refill_run_factor_ = 1.0;  ///< per-run HTT warm-up luck
  std::vector<double> node_speed_;  ///< per-node base speed multiplier

  std::vector<std::unique_ptr<TaskImpl>> tasks_;
  std::vector<std::vector<TaskId>> groups_;
  std::vector<std::unique_ptr<NodeState>> node_state_;
  MessagePool pool_;
  AckRouter ack_router_;
  std::uint64_t next_ack_key_ = 1;
  std::int64_t inter_node_bytes_ = 0;
  int unfinished_tasks_ = 0;

  // Fault and watchdog state.
  bool fast_paths_ = true;
  LinkFaultModel* link_fault_ = nullptr;
  SchedulePolicy* sched_policy_ = nullptr;  ///< null: canonical schedule
  std::vector<double> fault_rate_;  ///< per-node fault rate degradation
  std::vector<FaultRecord> fault_log_;
  std::int64_t messages_dropped_ = 0;
  std::int64_t messages_duplicated_ = 0;
  std::int64_t retransmissions_ = 0;
  std::int64_t transport_failures_ = 0;
  std::int64_t failed_tasks_ = 0;
  std::int64_t in_flight_messages_ = 0;
  std::int64_t peak_in_flight_messages_ = 0;
  std::int64_t program_actions_ = 0;  ///< sum of materialized_actions()
  std::int64_t peak_program_actions_ = 0;
  ActionRing action_ring_;
  SimTime last_progress_ = SimTime::zero();

  std::unique_ptr<SmiController> smi_;
};

}  // namespace smilab
