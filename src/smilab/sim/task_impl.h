// Per-task runtime state shared by System's layers (sim/system.h).
//
// One struct per task, owned by the TaskTable. Each field group names the
// layer that writes it; the layers read each other's groups freely, which
// is the point of keeping one struct: every hot wake path reaches all of a
// task's state with one pointer.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "smilab/sim/event_queue.h"
#include "smilab/sim/task.h"
#include "smilab/sim/transport.h"

namespace smilab {

// Field order is deliberate (64k-rank residency: every byte here is
// paid per rank): the interpreter/scheduler state the per-action hot
// path touches sits in the first cache lines, flags and small ints are
// clustered so padding does not reappear between 8-byte members, and
// cold identity/config/stats fields trail.
struct TaskImpl {
  enum class State : std::uint8_t {
    kReady,       ///< runnable, waiting for its CPU
    kRunning,     ///< current on its CPU (executing or spin-waiting)
    kBlocked,     ///< off-CPU, waiting for a message/ack (kBlock policy)
    kSleeping,    ///< off-CPU, waiting for a timer
    kDone,
  };

  // --- Flag/small-int cluster (one packed block, hot path first) ---
  // state: CpuSched (ready/running) and Interpreter (blocked, sleeping,
  // done). on_cpu/queued: CpuSched. The waiting flags and sr_send_injected:
  // Interpreter, cleared by Protocol when a match or ack satisfies them.
  // maturing_acks: Protocol. pinned, wait_policy, rank, node, id, group:
  // set once at spawn; cpu: spawn, then CpuSched's idle steal.
  State state = State::kReady;
  bool on_cpu = false;
  bool queued = false;
  bool pinned = false;  ///< hard affinity: never migrated by idle stealing
  bool sr_send_injected = false;  // SendRecv: send half injected
  bool waiting_msg = false;
  bool waiting_ack = false;
  bool ack_arrived = false;
  bool waiting_all = false;  // parked in WaitAll
  bool maturing_acks = false;  ///< re-entrancy guard: a wake may step us
  WaitPolicy wait_policy = WaitPolicy::kSpin;
  int phase = 0;
  int wait_src = kAnySource;
  int wait_tag = 0;
  int rank = 0;
  int node = 0;
  int cpu = -1;  ///< node-local CPU this task is sticky-placed on
  TaskId id;
  GroupId group;

  // Current action interpreter state: Interpreter; Protocol clears
  // pending_ack_key on the ack and sets active_msg on a match.
  std::uint64_t pending_ack_key = 0;  // ack we are (or will be) waiting for
  MsgHandle active_msg;               // matched message being copied
  std::optional<Action> action;

  // Nonblocking communication state (Isend/Irecv/WaitAll), boxed: a task
  // that never issues a nonblocking op never allocates it, and at 64k
  // ranks a blocking-only workload (e.g. the sendrecv ring cell) saves
  // ~190 inline bytes per rank — about 12 MB of dead residency. Only
  // `waiting_all` stays inline; hot wake paths test it for every task.
  // Rendezvous isend acks route through the System-wide AckRouter, not a
  // per-task map. Written by the Interpreter (open, post, WaitAll) and by
  // Protocol (posted matches, ack completions).
  struct NbState {
    NbHandleTable table;
    int active_nb_handle = -1;  ///< recv copy in progress

    // Active-WaitAll progress counters: armed once on entry, maintained
    // by completion events, so each re-poll is O(1) instead of a scan
    // over the handle list (the scan made dense waitall windows
    // quadratic). The ready bitmap is indexed by handle-list position;
    // find-first-set picks the same list-order-first receive the scan
    // picked.
    bool wa_armed = false;
    int wa_incomplete = 0;
    std::vector<std::uint64_t> wa_ready_bits;
  };
  std::unique_ptr<NbState> nbs_;

  NbState& nbs() {
    if (!nbs_) nbs_ = std::make_unique<NbState>();
    return *nbs_;
  }

  // Lazily matured rendezvous acks (Protocol): acks owed to this sender
  // whose delivery instant is already fixed but whose effects are applied
  // at the task's next poll — or by a wake event at exactly the delivery
  // instant whenever the task parks first, so wake timing is identical to
  // a dedicated per-ack event.
  struct PendingAck {
    SimTime due;
    std::uint64_t seq = 0;  ///< delivery order among same-instant acks
    std::uint64_t key = 0;
  };
  std::vector<PendingAck> pending_acks;
  std::uint64_t pending_ack_seq = 0;
  EventId ack_wake_ev{};
  SimTime ack_wake_due;

  // Work execution state: CpuSched; NodeControl adds refill overhead.
  SimDuration work_left{};
  SimDuration pending_overhead{};  // refill / context-switch charged at next work
  SimTime run_since;
  double rate = 0.0;
  std::uint64_t epoch = 0;
  EventId completion_ev{};

  // Arrived-but-unmatched messages, bucketed by (src, tag) with a per-tag
  // arrival-order index for kAnySource (sim/transport.h). Protocol.
  UnexpectedQueue unexpected;

  // --- Cold tail: identity, configuration, accounting ---
  // name/profile/source: spawn. stats: CpuSched (CPU time), Interpreter
  // (lifecycle), Protocol (message counts), NodeControl (SMM charges).
  std::string name;
  WorkloadProfile profile;
  std::unique_ptr<ActionSource> source;
  TaskStats stats;
  /// Last-sampled source->materialized_actions(), mirrored into the
  /// Interpreter's program_actions sum by delta updates.
  std::int64_t materialized = 0;
  // Current action's provenance for the completed-action ring (only
  // maintained when the ring is enabled). Interpreter.
  int action_kind = -1;
  SimTime action_start;
};

/// Every spawned task (dense ids: TaskId{i} is `all[i]`) and the rank ->
/// task map of every communication group. Owned by System; every layer
/// holds a reference.
struct TaskTable {
  std::vector<std::unique_ptr<TaskImpl>> all;
  std::vector<std::vector<TaskId>> groups;

  /// Checked lookup by id.
  [[nodiscard]] TaskImpl& at(TaskId id) {
    return *all.at(static_cast<std::size_t>(id.value));
  }
  [[nodiscard]] const TaskImpl& at(TaskId id) const {
    return *all.at(static_cast<std::size_t>(id.value));
  }
  /// Unchecked lookup by the index a runqueue or CPU slot stores.
  [[nodiscard]] TaskImpl& operator[](std::int32_t idx) {
    return *all[static_cast<std::size_t>(idx)];
  }
  [[nodiscard]] const TaskImpl& operator[](std::int32_t idx) const {
    return *all[static_cast<std::size_t>(idx)];
  }
  [[nodiscard]] const std::vector<TaskId>& members(GroupId g) const {
    return groups.at(static_cast<std::size_t>(g.value));
  }
};

}  // namespace smilab
