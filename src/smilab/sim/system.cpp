#include "smilab/sim/system.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "smilab/core/fnv.h"
#include "smilab/smm/smi_controller.h"

namespace smilab {

namespace {
constexpr std::int64_t kAckBytes = 64;
}  // namespace

// --- Internal structures -----------------------------------------------------

// MessageRec and the pooled transport structures live in sim/transport.h.

// Allocation-lazy FIFO for per-CPU and per-NIC queues. std::deque here
// cost ~600 bytes of chunk map per instance at construction — times 16
// runqueues and 4 NIC queues per node that dominated System construction
// at 8192 nodes (77 MB before a single task spawned). A vector with a
// consumed-prefix head index allocates nothing until first use, pops in
// amortized O(1), and iterates contiguously.
template <typename T>
class ShortFifo {
 public:
  [[nodiscard]] bool empty() const { return head_ == v_.size(); }
  [[nodiscard]] std::size_t size() const { return v_.size() - head_; }
  [[nodiscard]] T& front() { return v_[head_]; }
  [[nodiscard]] const T& front() const { return v_[head_]; }
  void push_back(T x) {
    if (head_ != 0 && head_ == v_.size()) {
      v_.clear();
      head_ = 0;
    }
    v_.push_back(std::move(x));
  }
  void pop_front() {
    ++head_;
    if (head_ == v_.size()) {
      v_.clear();
      head_ = 0;
    } else if (head_ > 64 && head_ * 2 > v_.size()) {
      v_.erase(v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }
  void clear() {
    v_.clear();
    head_ = 0;
  }
  [[nodiscard]] auto begin() { return v_.begin() + static_cast<std::ptrdiff_t>(head_); }
  [[nodiscard]] auto end() { return v_.end(); }
  [[nodiscard]] auto begin() const { return v_.begin() + static_cast<std::ptrdiff_t>(head_); }
  [[nodiscard]] auto end() const { return v_.end(); }

 private:
  std::vector<T> v_;
  std::size_t head_ = 0;
};

/// One direction of a node's NIC, as a pausable FIFO server. Pauses are
/// refcounted so overlapping causes (SMM freeze, fault freeze, link-down,
/// crash) compose; the server resumes when the last cause clears.
///
/// The FIFO is booked: while the server runs, each submit fixes its service
/// interval at once ([start, end] with start = max(now, busy_until)), so a
/// burst of N submits is N pushes and one running `busy_until` cursor. Only
/// the FRONT booking holds an armed event — egress: the handoff at `end`;
/// ingress: the merged service-end + propagation arrival at
/// `end + latency` — and arms its successor when it fires, so a deep
/// backlog keeps the engine heap at one event per server direction instead
/// of one per in-flight message (booking every event up front measurably
/// loses once backlogs reach tens of thousands: every heap operation pays
/// log N on the ballooned heap).
///
/// A pause splits the FIFO at `now`. Ingress bookings whose service already
/// ended are in propagation flight, which no pause stops: each leaves the
/// FIFO with its own arrival event. The front's event is cancelled and its
/// unserved time kept in `remaining`. Submits while paused append unbooked.
/// The resume re-books the whole FIFO contiguously from `now`, the front
/// first with `remaining` plus the TCP recovery draw.
struct System::NicServer {
  struct Booking {
    MsgHandle h;
    SimTime start;  // service begins (meaningful while unpaused)
    SimTime end;    // service ends: egress handoff / ingress + latency
    EventId ev{};   // armed only while this booking is the front
  };

  ShortFifo<Booking> fifo;
  SimTime busy_until;              // end of the last booked service
  SimTime paused_at;               // start of the outermost pause
  SimDuration remaining{};         // paused: the front's unserved time
  int pause_depth = 0;
  bool front_in_service = false;   // paused: the front was mid-service

  [[nodiscard]] bool paused() const { return pause_depth > 0; }
};

// Field order is deliberate (64k-rank residency: every byte here is
// paid per rank): the interpreter/scheduler state the per-action hot
// path touches sits in the first cache lines, flags and small ints are
// clustered so padding does not reappear between 8-byte members, and
// cold identity/config/stats fields trail.
struct System::TaskImpl {
  enum class State : std::uint8_t {
    kReady,       ///< runnable, waiting for its CPU
    kRunning,     ///< current on its CPU (executing or spin-waiting)
    kBlocked,     ///< off-CPU, waiting for a message/ack (kBlock policy)
    kSleeping,    ///< off-CPU, waiting for a timer
    kDone,
  };

  // --- Flag/small-int cluster (one packed block, hot path first) ---
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

  // Current action interpreter state.
  std::uint64_t pending_ack_key = 0;  // ack we are (or will be) waiting for
  MsgHandle active_msg;               // matched message being copied
  std::optional<Action> action;

  // Nonblocking communication state (Isend/Irecv/WaitAll), boxed: a task
  // that never issues a nonblocking op never allocates it, and at 64k
  // ranks a blocking-only workload (e.g. the sendrecv ring cell) saves
  // ~190 inline bytes per rank — about 12 MB of dead residency. Only
  // `waiting_all` stays inline; hot wake paths test it for every task.
  // Rendezvous isend acks route through the System-wide AckRouter, not a
  // per-task map.
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

  // Lazily matured rendezvous acks (transport fast path): acks owed to
  // this sender whose delivery instant is already fixed but whose effects
  // are applied at the task's next poll — or by a wake event at exactly
  // the delivery instant whenever the task parks first, so wake timing is
  // identical to a dedicated per-ack event.
  struct PendingAck {
    SimTime due;
    std::uint64_t seq = 0;  ///< delivery order among same-instant acks
    std::uint64_t key = 0;
  };
  std::vector<PendingAck> pending_acks;
  std::uint64_t pending_ack_seq = 0;
  EventId ack_wake_ev{};
  SimTime ack_wake_due;

  // Work execution state.
  SimDuration work_left{};
  SimDuration pending_overhead{};  // refill / context-switch charged at next work
  SimTime run_since;
  double rate = 0.0;
  std::uint64_t epoch = 0;
  EventId completion_ev{};

  // Arrived-but-unmatched messages, bucketed by (src, tag) with a per-tag
  // arrival-order index for kAnySource (sim/transport.h).
  UnexpectedQueue unexpected;

  // --- Cold tail: identity, configuration, accounting ---
  std::string name;
  WorkloadProfile profile;
  std::unique_ptr<ActionSource> source;
  TaskStats stats;
  /// Last-sampled source->materialized_actions(), mirrored into the
  /// System-wide program_actions_ sum by delta updates.
  std::int64_t materialized = 0;
  // Current action's provenance for the completed-action ring (only
  // maintained when the ring is enabled).
  int action_kind = -1;
  SimTime action_start;
};

struct System::CpuState {
  // A vector, not a deque: runqueues are short (a few sticky tasks), and
  // an untouched vector holds no heap block — see ShortFifo above for why
  // that matters at 8192 nodes x 16 CPUs.
  std::vector<std::int32_t> runqueue;  // task indices
  std::int32_t current = -1;
  bool frozen = false;
  EventId quantum_ev{};
  std::int32_t last_task = -1;
  int assigned = 0;  ///< sticky placements on this CPU (for balancing)
};

struct System::NodeState {
  std::vector<CpuState> cpus;
  NicServer egress;
  NicServer ingress;
  bool in_smm = false;
  bool fault_frozen = false;  ///< transient whole-node fault stall active
  bool crashed = false;       ///< fail-stop: permanently dead
  SimTime freeze_start;
  SimTime last_smm_exit{-1};  ///< negative: never been in SMM
  std::vector<std::int32_t> deferred_wakes;  // timer wakes that fired frozen
};

// --- Construction -----------------------------------------------------------

System::System(SystemConfig cfg)
    : cfg_(cfg),
      cluster_(cfg.node_count, cfg.machine),
      net_(cfg.net),
      smm_acct_(cfg.node_count),
      master_rng_(cfg.seed),
      refill_rng_(master_rng_.fork(stream_label("refill"))),
      nic_rng_(master_rng_.fork(stream_label("nic"))) {
  // Collectives over p ranks touch O(log p) distinct segment sizes per
  // phase and different phases use different bases, so scale the cost memo
  // with the node count (4 lines/node keeps 64k ranks comfortably under a
  // few MB while a 1-node run stays at the 64-line floor).
  net_.resize_cache(std::max<std::size_t>(
      NetworkModel::kDefaultLines, static_cast<std::size_t>(cfg.node_count) * 4));
  htt_refill_run_factor_ =
      master_rng_.fork(stream_label("htt_luck")).uniform(0.5, 1.8);
  node_speed_.resize(static_cast<std::size_t>(cfg.node_count), 1.0);
  if (cfg_.node_speed_sigma > 0) {
    Rng speed_rng = master_rng_.fork(stream_label("node_speed"));
    for (auto& s : node_speed_) {
      s = std::clamp(speed_rng.normal(1.0, cfg_.node_speed_sigma), 0.5, 1.5);
    }
  }
  fault_rate_.resize(static_cast<std::size_t>(cfg.node_count), 1.0);
  node_state_.reserve(static_cast<std::size_t>(cfg.node_count));
  for (int n = 0; n < cfg.node_count; ++n) {
    auto ns = std::make_unique<NodeState>();
    ns->cpus.resize(static_cast<std::size_t>(cfg.machine.logical_cpus()));
    node_state_.push_back(std::move(ns));
  }
  if (cfg_.smi.enabled()) {
    smi_ = std::make_unique<SmiController>(*this, cfg_.smi);
  }
  ack_router_.reserve(static_cast<std::size_t>(cfg_.node_count) * 4);
}

System::~System() = default;

void System::set_online_cpus(int n) {
  assert(tasks_.empty() && "change CPU topology before spawning tasks");
  for (int i = 0; i < cluster_.node_count(); ++i) {
    cluster_.node(i).set_online_cpus(n);
  }
}

System::TaskImpl& System::task(TaskId id) {
  return *tasks_.at(static_cast<std::size_t>(id.value));
}
const System::TaskImpl& System::task(TaskId id) const {
  return *tasks_.at(static_cast<std::size_t>(id.value));
}
System::CpuState& System::cpu_state(int node, int cpu) {
  return node_state_.at(static_cast<std::size_t>(node))
      ->cpus.at(static_cast<std::size_t>(cpu));
}

// --- Groups and spawning -------------------------------------------------------

GroupId System::create_group(int size) {
  assert(size >= 1);
  groups_.emplace_back(static_cast<std::size_t>(size), TaskId{});
  return GroupId{static_cast<std::int32_t>(groups_.size() - 1)};
}

TaskId System::spawn(TaskSpec spec) {
  const GroupId g = create_group(1);
  return spawn_member(g, 0, std::move(spec));
}

TaskId System::spawn_member(GroupId g, int rank, TaskSpec spec) {
  assert(g.valid());
  assert(spec.actions && "task needs an action source");
  auto& members = groups_.at(static_cast<std::size_t>(g.value));
  assert(rank >= 0 && rank < static_cast<int>(members.size()));
  assert(!members[static_cast<std::size_t>(rank)].valid() && "rank already spawned");

  auto t = std::make_unique<TaskImpl>();
  t->id = TaskId{static_cast<std::int32_t>(tasks_.size())};
  t->group = g;
  t->rank = rank;
  t->name = std::move(spec.name);
  t->node = spec.node;
  t->profile = spec.profile;
  t->wait_policy = spec.wait_policy;
  t->source = std::move(spec.actions);
  t->stats.start_time = now();
  t->pinned = spec.pinned_cpu >= 0;
  t->cpu = spec.pinned_cpu >= 0 ? spec.pinned_cpu : place(spec);
  assert(cluster_.node(t->node).is_online(t->cpu) && "placed on offline CPU");

  members[static_cast<std::size_t>(rank)] = t->id;
  cpu_state(t->node, t->cpu).assigned += 1;
  ++unfinished_tasks_;

  t->materialized = t->source->materialized_actions();
  program_actions_ += t->materialized;
  if (program_actions_ > peak_program_actions_) {
    peak_program_actions_ = program_actions_;
  }

  TaskImpl& ref = *t;
  tasks_.push_back(std::move(t));
  make_ready(ref);
  return ref.id;
}

int System::place(const TaskSpec& spec) {
  const Node& node = cluster_.node(spec.node);
  auto& cpus = node_state_.at(static_cast<std::size_t>(spec.node))->cpus;
  int best = -1;
  // Linux-style preference: least-loaded CPU, idle physical cores before
  // HTT siblings of busy cores, lowest index as the deterministic tie-break.
  long best_key0 = 0, best_key1 = 0;
  for (int i = 0; i < node.cpu_count(); ++i) {
    if (!node.is_online(i)) continue;
    const int sib = node.cpu(i).sibling;
    const int sib_assigned =
        (sib >= 0 && node.is_online(sib)) ? cpus[static_cast<std::size_t>(sib)].assigned : 0;
    const long key0 = cpus[static_cast<std::size_t>(i)].assigned;
    const long key1 = sib_assigned;
    if (best < 0 || key0 < best_key0 || (key0 == best_key0 && key1 < best_key1)) {
      best = i;
      best_key0 = key0;
      best_key1 = key1;
    }
  }
  if (best < 0) {
    // Structured config error: name the node and its online-CPU mask so a
    // bad hotplug sweep is diagnosable from the message alone.
    std::uint64_t mask = 0;
    for (int i = 0; i < node.cpu_count() && i < 64; ++i) {
      if (node.is_online(i)) mask |= 1ull << i;
    }
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%llx",
                  static_cast<unsigned long long>(mask));
    throw SimulationError(
        RunStatus::kConfigError,
        "no online CPU available on node " + std::to_string(node.id()) +
            " (" + std::to_string(node.online_cpu_count()) + " of " +
            std::to_string(node.cpu_count()) + " CPUs online, mask " + hex +
            ")");
  }
  return best;
}

// --- Scheduling ------------------------------------------------------------------

void System::make_ready(TaskImpl& t) {
  assert(!t.on_cpu);
  if (t.queued) return;
  t.state = TaskImpl::State::kReady;
  t.queued = true;
  auto& cs = cpu_state(t.node, t.cpu);
  cs.runqueue.push_back(t.id.value);
  if (cs.current < 0) {
    dispatch(t.node, t.cpu);
  } else {
    arm_quantum(t.node, t.cpu);
  }
}

void System::dispatch(int node, int cpu) {
  auto& cs = cpu_state(node, cpu);
  if (cs.frozen || cs.current >= 0) return;
  if (cs.runqueue.empty()) steal_into(node, cpu);
  if (cs.runqueue.empty()) return;
  const std::int32_t idx = cs.runqueue.front();
  cs.runqueue.erase(cs.runqueue.begin());
  TaskImpl& t = *tasks_[static_cast<std::size_t>(idx)];
  assert(t.queued);
  t.queued = false;
  t.state = TaskImpl::State::kRunning;
  t.on_cpu = true;
  cs.current = idx;
  if (cs.last_task >= 0 && cs.last_task != idx) {
    t.pending_overhead += cfg_.os.context_switch;
  }
  cs.last_task = idx;
  arm_quantum(node, cpu);
  sibling_rate_changed(node, cpu);
  begin_running(t);
}

void System::arm_quantum(int node, int cpu) {
  auto& cs = cpu_state(node, cpu);
  if (cs.quantum_ev.valid() || cs.frozen || cs.current < 0 || cs.runqueue.empty())
    return;
  cs.quantum_ev = engine_.schedule_after(
      cfg_.os.quantum, [this, node, cpu] {
        auto& s = cpu_state(node, cpu);
        s.quantum_ev = EventId{};
        if (s.frozen || s.current < 0 || s.runqueue.empty()) return;
        preempt_current(node, cpu);
      });
}

// CFS-style idle balancing: an idle CPU pulls a waiting task from the most
// loaded runqueue of its node. Without this, uneven thread counts on HTT
// configurations leave whole cores idle while a shared core grinds — real
// kernels rebalance, and the paper's Convolve (a block work queue) depends
// on it. Tasks with hard affinity (TaskSpec::pinned_cpu) are never moved.
void System::steal_into(int node, int cpu) {
  const Node& topo = cluster_.node(node);
  auto& ns = *node_state_[static_cast<std::size_t>(node)];
  int donor = -1;
  std::size_t donor_depth = 0;
  for (int i = 0; i < topo.cpu_count(); ++i) {
    if (i == cpu || !topo.is_online(i)) continue;
    std::size_t stealable = 0;
    for (const std::int32_t idx :
         ns.cpus[static_cast<std::size_t>(i)].runqueue) {
      if (!tasks_[static_cast<std::size_t>(idx)]->pinned) ++stealable;
    }
    if (stealable > donor_depth) {
      donor = i;
      donor_depth = stealable;
    }
  }
  if (donor < 0 || donor_depth == 0) return;
  auto& donor_queue = ns.cpus[static_cast<std::size_t>(donor)].runqueue;
  // Take the most recently queued unpinned task (coldest cache footprint).
  for (auto it = donor_queue.rbegin(); it != donor_queue.rend(); ++it) {
    TaskImpl& t = *tasks_[static_cast<std::size_t>(*it)];
    if (t.pinned) continue;
    assert(t.queued && t.cpu == donor);
    const std::int32_t idx = *it;
    donor_queue.erase(std::next(it).base());
    t.cpu = cpu;
    cpu_state(node, cpu).runqueue.push_back(idx);
    return;
  }
}

void System::preempt_current(int node, int cpu) {
  auto& cs = cpu_state(node, cpu);
  assert(cs.current >= 0);
  TaskImpl& t = *tasks_[static_cast<std::size_t>(cs.current)];
  stop_running(t, /*keep_on_cpu=*/false);
  make_ready(t);
  dispatch(node, cpu);
}

// --- Execution progress ----------------------------------------------------------

bool System::sibling_busy(const TaskImpl& t) const {
  const Node& node = cluster_.node(t.node);
  const int sib = node.cpu(t.cpu).sibling;
  if (sib < 0 || !node.is_online(sib)) return false;
  const auto& scs = node_state_[static_cast<std::size_t>(t.node)]
                        ->cpus[static_cast<std::size_t>(sib)];
  if (scs.current < 0) return false;
  const TaskImpl& other = *tasks_[static_cast<std::size_t>(scs.current)];
  // A spin-waiting sibling (no work) uses PAUSE loops that release the
  // shared execution ports; only real work contends.
  return other.work_left > SimDuration::zero();
}

double System::current_rate(const TaskImpl& t) const {
  double rate = node_speed_[static_cast<std::size_t>(t.node)] *
                fault_rate_[static_cast<std::size_t>(t.node)] *
                execution_rate(t.profile, sibling_busy(t));
  if (!cfg_.os.tickless) {
    rate *= 1.0 - cfg_.os.tick_cost / cfg_.os.tick_period;
  }
  return rate;
}

void System::settle(TaskImpl& t) {
  if (!t.on_cpu) return;
  const SimDuration elapsed = now() - t.run_since;
  if (elapsed <= SimDuration::zero()) return;
  t.stats.os_view_cpu_time += elapsed;
  t.stats.true_cpu_time += elapsed;
  if (t.work_left > SimDuration::zero() && t.rate > 0) {
    const auto progress = static_cast<std::int64_t>(
        std::llround(static_cast<double>(elapsed.ns()) * t.rate));
    t.work_left = SimDuration{std::max<std::int64_t>(0, t.work_left.ns() - progress)};
  }
  t.run_since = now();
}

void System::begin_running(TaskImpl& t) {
  assert(t.on_cpu);
  assert(!cpu_state(t.node, t.cpu).frozen);
  t.run_since = now();
  t.rate = current_rate(t);
  if (t.work_left > SimDuration::zero()) {
    reschedule_completion(t);
  } else {
    step_action(t);
  }
}

void System::stop_running(TaskImpl& t, bool keep_on_cpu) {
  settle(t);
  ++t.epoch;
  engine_.cancel(t.completion_ev);
  t.completion_ev = EventId{};
  if (!keep_on_cpu && t.on_cpu) {
    auto& cs = cpu_state(t.node, t.cpu);
    assert(cs.current == t.id.value);
    cs.current = -1;
    t.on_cpu = false;
    engine_.cancel(cs.quantum_ev);
    cs.quantum_ev = EventId{};
    sibling_rate_changed(t.node, t.cpu);
  }
}

void System::reschedule_completion(TaskImpl& t) {
  assert(t.on_cpu && t.work_left > SimDuration::zero());
  ++t.epoch;
  engine_.cancel(t.completion_ev);
  assert(t.rate > 0);
  SimDuration d = scale(t.work_left, 1.0 / t.rate);
  if (d <= SimDuration::zero()) d = SimDuration{1};
  t.completion_ev = engine_.schedule_after(d, [this, id = t.id, ep = t.epoch] {
    TaskImpl& task_ref = task(id);
    if (task_ref.epoch != ep) return;
    on_work_complete(task_ref);
  });
}

void System::on_work_complete(TaskImpl& t) {
  settle(t);
  if (t.work_left > SimDuration{1}) {
    // Integer rounding left a sliver; finish it.
    reschedule_completion(t);
    return;
  }
  t.work_left = SimDuration::zero();
  ++t.epoch;
  t.completion_ev = EventId{};
  step_action(t);
}

void System::sibling_rate_changed(int node, int cpu) {
  const int sib = cluster_.node(node).cpu(cpu).sibling;
  if (sib >= 0) rerate(node, sib);
}

// The execution rate of the task running on (node, cpu) may have changed
// (HTT sibling occupancy, slow-node fault): bank progress at the old rate
// and re-pace its completion.
void System::rerate(int node, int cpu) {
  auto& cs = cpu_state(node, cpu);
  if (cs.current < 0 || cs.frozen) return;
  TaskImpl& t = *tasks_[static_cast<std::size_t>(cs.current)];
  if (!t.on_cpu) return;
  settle(t);
  const double new_rate = current_rate(t);
  if (new_rate == t.rate) return;
  t.rate = new_rate;
  if (t.work_left > SimDuration::zero()) reschedule_completion(t);
}

// --- Action interpretation ---------------------------------------------------------

void System::start_work(TaskImpl& t, SimDuration amount) {
  assert(t.on_cpu);
  amount += t.pending_overhead;
  t.pending_overhead = SimDuration::zero();
  if (amount <= SimDuration::zero()) amount = SimDuration{1};
  t.work_left = amount;
  t.run_since = now();
  t.rate = current_rate(t);
  sibling_rate_changed(t.node, t.cpu);  // we went from idle/spin to busy
  reschedule_completion(t);
}

void System::start_next_action(TaskImpl& t) {
  note_progress();  // an action retired: the hang watchdog re-arms
  if (action_ring_.enabled() && t.action_kind >= 0) {
    action_ring_.record({t.id.value, t.action_kind, t.action_start, now()});
    t.action_kind = -1;
  }
  while (true) {
    std::optional<Action> a = t.source->next();
    // Streaming sources change their materialized footprint on refill;
    // retained ones report a constant, so the delta is usually zero.
    const std::int64_t m = t.source->materialized_actions();
    if (m != t.materialized) {
      program_actions_ += m - t.materialized;
      t.materialized = m;
      if (program_actions_ > peak_program_actions_) {
        peak_program_actions_ = program_actions_;
      }
    }
    if (!a) {
      finish_task(t);
      return;
    }
    if (auto* call = std::get_if<Call>(&*a)) {
      call->fn();
      continue;  // zero-time action; keep pulling
    }
    if (action_ring_.enabled()) {
      t.action_kind = static_cast<int>(a->index());
      t.action_start = now();
    }
    t.action = std::move(a);
    t.phase = 0;
    t.sr_send_injected = false;
    t.waiting_msg = false;
    t.waiting_ack = false;
    t.ack_arrived = false;
    t.pending_ack_key = 0;
    t.active_msg = MsgHandle{};
    step_action(t);
    return;
  }
}

// --- WaitAll progress counters (see TaskImpl::wa_*) ------------------------

void System::wa_mark_ready(TaskImpl& t, int pos) {
  assert(t.nbs_ && t.nbs_->wa_armed && pos >= 0);
  TaskImpl::NbState& nb = *t.nbs_;
  const auto word = static_cast<std::size_t>(pos) / 64;
  assert(word < nb.wa_ready_bits.size());
  nb.wa_ready_bits[word] |= std::uint64_t{1}
                            << (static_cast<unsigned>(pos) % 64);
}

void System::wa_clear_ready(TaskImpl& t, int pos) {
  assert(t.nbs_ && t.nbs_->wa_armed && pos >= 0);
  TaskImpl::NbState& nb = *t.nbs_;
  const auto word = static_cast<std::size_t>(pos) / 64;
  assert(word < nb.wa_ready_bits.size());
  nb.wa_ready_bits[word] &=
      ~(std::uint64_t{1} << (static_cast<unsigned>(pos) % 64));
}

int System::wa_first_ready(const TaskImpl& t) {
  assert(t.nbs_);
  const TaskImpl::NbState& nb = *t.nbs_;
  for (std::size_t w = 0; w < nb.wa_ready_bits.size(); ++w) {
    if (nb.wa_ready_bits[w] != 0) {
      return static_cast<int>(w * 64) + std::countr_zero(nb.wa_ready_bits[w]);
    }
  }
  return -1;
}

// The per-action state machine. Invoked whenever the task is on its CPU,
// unfrozen, and needs driving: action entry, work completion, wait
// satisfaction, post-SMM resume.
void System::step_action(TaskImpl& t) {
  assert(t.on_cpu);
  // Apply any rendezvous acks whose delivery instant has passed before the
  // poll reads the completion flags (unless this step IS such a delivery:
  // the maturation loop below already interleaves them in event order).
  if (!t.pending_acks.empty() && !t.maturing_acks) {
    mature_acks(t);
  }
  if (!t.action) {
    start_next_action(t);
    return;
  }
  t.state = TaskImpl::State::kRunning;

  if (auto* comp = std::get_if<Compute>(&*t.action)) {
    if (t.phase == 0) {
      t.phase = 1;
      start_work(t, comp->work);
      return;
    }
    t.action.reset();
    start_next_action(t);
    return;
  }

  if (auto* send = std::get_if<Send>(&*t.action)) {
    switch (t.phase) {
      case 0:  // pay the CPU-side injection cost
        t.phase = 1;
        start_work(t, net_.send_cpu_cost(send->bytes));
        return;
      case 1:  // hand to the wire
        t.pending_ack_key = inject_message(t, send->dst_rank, send->bytes,
                                           send->tag, /*nb_handle=*/-1);
        if (t.pending_ack_key == 0) {  // eager: done at injection
          t.action.reset();
          start_next_action(t);
          return;
        }
        t.phase = 2;
        [[fallthrough]];
      case 2:  // rendezvous: wait for the receiver's completion ack
        if (t.ack_arrived) {
          t.action.reset();
          start_next_action(t);
          return;
        }
        t.waiting_ack = true;
        park(t);
        return;
      default:
        assert(false);
    }
  }

  if (auto* recv = std::get_if<Recv>(&*t.action)) {
    switch (t.phase) {
      case 0: {  // wait for / match the message
        MessageRec* msg = nullptr;
        if (try_match_recv(t, recv->src_rank, recv->tag, &msg)) {
          t.phase = 1;
          start_copy(t, *msg);
          return;
        }
        t.waiting_msg = true;
        t.wait_src = recv->src_rank;
        t.wait_tag = recv->tag;
        park(t);
        return;
      }
      case 1:  // copy complete
        retire_copied(t, std::exchange(t.active_msg, MsgHandle{}));
        t.action.reset();
        start_next_action(t);
        return;
      default:
        assert(false);
    }
  }

  if (auto* sr = std::get_if<SendRecv>(&*t.action)) {
    switch (t.phase) {
      case 0:  // send half: CPU injection cost
        t.phase = 1;
        start_work(t, net_.send_cpu_cost(sr->send_bytes));
        return;
      case 1: {  // inject send, then progress the receive half
        if (!t.sr_send_injected) {
          t.sr_send_injected = true;
          t.pending_ack_key = inject_message(t, sr->dst_rank, sr->send_bytes,
                                             sr->send_tag, /*nb_handle=*/-1);
        }
        MessageRec* msg = nullptr;
        if (try_match_recv(t, sr->src_rank, sr->recv_tag, &msg)) {
          t.phase = 2;
          start_copy(t, *msg);
          return;
        }
        t.waiting_msg = true;
        t.wait_src = sr->src_rank;
        t.wait_tag = sr->recv_tag;
        park(t);
        return;
      }
      case 2:  // recv copy complete
        retire_copied(t, std::exchange(t.active_msg, MsgHandle{}));
        t.phase = 3;
        [[fallthrough]];
      case 3:  // wait for our own send's ack, if rendezvous
        if (t.pending_ack_key == 0 || t.ack_arrived) {
          t.action.reset();
          start_next_action(t);
          return;
        }
        t.waiting_ack = true;
        park(t);
        return;
      default:
        assert(false);
    }
  }

  if (auto* isend = std::get_if<Isend>(&*t.action)) {
    switch (t.phase) {
      case 0:  // CPU-side injection cost, as for blocking Send
        t.phase = 1;
        start_work(t, net_.send_cpu_cost(isend->bytes));
        return;
      case 1: {
        NbHandleTable::Entry& entry = t.nbs().table.open_slot(isend->handle,
                                                              /*is_send=*/true);
        entry.peer = isend->dst_rank;
        entry.ack_key = inject_message(t, isend->dst_rank, isend->bytes,
                                       isend->tag, isend->handle);
        entry.complete = entry.ack_key == 0;  // eager: complete at injection
        t.action.reset();
        start_next_action(t);
        return;
      }
      default:
        assert(false);
    }
  }

  if (auto* irecv = std::get_if<Irecv>(&*t.action)) {
    NbHandleTable& nb_table = t.nbs().table;
    NbHandleTable::Entry& entry = nb_table.open_slot(irecv->handle,
                                                     /*is_send=*/false);
    entry.src = irecv->src_rank;
    entry.peer = irecv->src_rank;
    entry.tag = irecv->tag;
    // Match an already-arrived message immediately (late post); only
    // still-waiting receives enter the posted-by-tag index.
    MessageRec* msg = nullptr;
    if (try_match_recv(t, irecv->src_rank, irecv->tag, &msg)) {
      entry.data_arrived = true;
      entry.msg = t.active_msg;
      t.active_msg = MsgHandle{};
    } else {
      nb_table.post_recv(irecv->handle);
    }
    t.action.reset();
    start_next_action(t);
    return;
  }

  if (auto* wait = std::get_if<WaitAll>(&*t.action)) {
    // Not parked while actively progressing: a wake that lands during a
    // receive copy must not re-enter this state machine (arrivals and acks
    // poll a WaitAll task only while waiting_all is set).
    t.waiting_all = false;
    TaskImpl::NbState& nb = t.nbs();
    if (!nb.wa_armed) {
      // Arm the progress counters: one walk over the handle list on entry,
      // after which completion events (acks, arrivals, copy retirements)
      // maintain them and every re-poll is O(1). The old re-poll scanned
      // the whole list each time, which made dense waitall windows (the
      // rendezvous ack storm) quadratic.
      nb.wa_armed = true;
      nb.wa_incomplete = 0;
      nb.wa_ready_bits.assign((wait->handles.size() + 63) / 64, 0);
      for (std::size_t i = 0; i < wait->handles.size(); ++i) {
        NbHandleTable::Entry* entry = nb.table.find(wait->handles[i]);
        assert(entry != nullptr && "WaitAll on unknown handle");
        entry->in_waitall = true;
        entry->wa_pos = static_cast<int>(i);
        if (entry->complete) continue;
        ++nb.wa_incomplete;
        if (!entry->is_send && entry->data_arrived) {
          wa_mark_ready(t, static_cast<int>(i));
        }
      }
    }
    if (t.phase == 1) {
      // A receive's copy just finished: complete that handle.
      NbHandleTable::Entry* entry = nb.table.find(nb.active_nb_handle);
      assert(entry != nullptr);
      entry->complete = true;
      --nb.wa_incomplete;
      retire_copied(t, std::exchange(entry->msg, MsgHandle{}));
      nb.active_nb_handle = -1;
      t.phase = 0;
    }
    // Re-poll: charge the next arrived-but-uncopied receive, or finish.
    // First-set-bit is the first ready receive in handle-list order — the
    // same pick the full scan made.
    const int pos = wa_first_ready(t);
    if (pos >= 0) {
      const int h = wait->handles[static_cast<std::size_t>(pos)];
      NbHandleTable::Entry* entry = nb.table.find(h);
      assert(entry != nullptr && !entry->is_send && !entry->complete &&
             entry->data_arrived);
      wa_clear_ready(t, pos);
      // Progress this receive now: CPU-side copy.
      nb.active_nb_handle = h;
      t.phase = 1;
      start_copy(t, pool_.ref(entry->msg));
      return;
    }
    if (nb.wa_incomplete == 0) {
      for (const int h : wait->handles) nb.table.close(h);
      t.waiting_all = false;
      nb.wa_armed = false;
      t.action.reset();
      start_next_action(t);
      return;
    }
    t.waiting_all = true;
    park(t);
    return;
  }

  if (auto* sleep = std::get_if<Sleep>(&*t.action)) {
    switch (t.phase) {
      case 0: {
        t.phase = 1;
        t.state = TaskImpl::State::kSleeping;
        stop_running(t, /*keep_on_cpu=*/false);
        engine_.schedule_after(sleep->dur, [this, id = t.id] {
          TaskImpl& task_ref = task(id);
          if (task_ref.state != TaskImpl::State::kSleeping) return;
          // Timer interrupts are deferred while the node is frozen (SMM or
          // an injected fault stall).
          if (node_in_smm(task_ref.node) || node_fault_frozen(task_ref.node)) {
            node_state_[static_cast<std::size_t>(task_ref.node)]
                ->deferred_wakes.push_back(task_ref.id.value);
            return;
          }
          make_ready(task_ref);
        });
        dispatch(t.node, t.cpu);
        return;
      }
      case 1:
        t.action.reset();
        start_next_action(t);
        return;
      default:
        assert(false);
    }
  }

  assert(false && "Call actions are consumed by start_next_action");
}

// A poll found nothing to do (the waiting flags are set): arm the lazy-ack
// wake and, under the blocking policy, give up the CPU until a wake.
void System::park(TaskImpl& t) {
  ensure_ack_wake(t);
  if (t.wait_policy == WaitPolicy::kBlock) {
    t.state = TaskImpl::State::kBlocked;
    stop_running(t, /*keep_on_cpu=*/false);
    dispatch(t.node, t.cpu);
  }
}

// Charge the CPU-side copy of a matched message. A backlog that arrived
// during SMM drains cheaper when HTT siblings are online.
void System::start_copy(TaskImpl& t, const MessageRec& msg) {
  SimDuration cost = net_.recv_cpu_cost(msg.bytes);
  if (msg.arrived_during_smm && node_htt_active(t.node)) {
    cost = scale(cost, cfg_.post_smi_drain_factor);
  }
  start_work(t, cost);
}

void System::finish_task(TaskImpl& t) {
  assert(!t.stats.finished);
  // A finishing task cannot be awaiting a rendezvous ack (every wait
  // consumes its acks first), but acks queued for it with a delivery
  // instant still in the future must keep their wire-time effects (route
  // erase, payload recycle, note_progress) — hand them to the wake chain.
  ensure_ack_wake(t);
  t.stats.finished = true;
  t.stats.end_time = now();
  t.state = TaskImpl::State::kDone;
  program_actions_ -= t.materialized;
  t.materialized = 0;
  stop_running(t, /*keep_on_cpu=*/false);
  --unfinished_tasks_;
  dispatch(t.node, t.cpu);
}

// --- Messaging -------------------------------------------------------------------

// Hand a message to the wire. A rendezvous-sized one also gets the ack
// route that completes the send (`nb_handle` >= 0: an Isend's handle).
// Returns the ack key, or 0 for an eager message.
std::uint64_t System::inject_message(TaskImpl& sender, int dst_rank,
                                     std::int64_t bytes, int tag,
                                     int nb_handle) {
  const bool needs_ack = net_.is_rendezvous(bytes);
  const std::uint64_t ack_key = needs_ack ? next_ack_key_++ : 0;
  const auto& members = groups_.at(static_cast<std::size_t>(sender.group.value));
  assert(dst_rank >= 0 && dst_rank < static_cast<int>(members.size()));
  const TaskId dst_id = members[static_cast<std::size_t>(dst_rank)];
  assert(dst_id.valid() && "destination rank not spawned");
  TaskImpl& dst = task(dst_id);

  const MsgHandle h = pool_.alloc();
  MessageRec& msg = pool_.ref(h);
  msg.group = sender.group;
  msg.src_rank = sender.rank;
  msg.dst_rank = dst_rank;
  msg.src_node = sender.node;
  msg.dst_node = dst.node;
  msg.bytes = bytes;
  msg.tag = tag;
  msg.needs_ack = needs_ack;
  msg.ack_key = ack_key;
  msg.sender = sender.id;
  msg.xmit = net_.wire_xmit(bytes);

  sender.stats.messages_sent += 1;
  sender.stats.bytes_sent += bytes;
  if (++in_flight_messages_ > peak_in_flight_messages_) {
    peak_in_flight_messages_ = in_flight_messages_;
  }

  if (sender.node == dst.node) {
    // Shared-memory transport: the copy is CPU work already charged to the
    // sender; the residual is a small transfer delay. Arrival during SMM
    // just lands in the unexpected queue (DMA); the frozen receiver drains
    // it later.
    engine_.schedule_after(net_.intra_transfer(bytes),
                           [this, h] { on_message_arrival(h); });
  } else {
    inter_node_bytes_ += bytes;
    nic_submit(sender.node, /*egress=*/true, h);
  }
  if (needs_ack) {
    ack_router_.add(ack_key, AckTarget{sender.id, nb_handle, h, dst_rank, tag});
  }
  return ack_key;
}

// --- NIC servers ---------------------------------------------------------------

System::NicServer& System::nic(int node, bool egress) {
  auto& ns = *node_state_.at(static_cast<std::size_t>(node));
  return egress ? ns.egress : ns.ingress;
}

// Book the message's service interval now, or append it unbooked while the
// server is paused (the resume books it). The armed event stays with the
// front booking only (see the NicServer comment).
void System::nic_submit(int node, bool egress, MsgHandle h) {
  NicServer& server = nic(node, egress);
  if (server.paused()) {
    server.fifo.push_back(NicServer::Booking{h, {}, {}, EventId{}});
    return;
  }
  const SimTime start = std::max(now(), server.busy_until);
  const SimTime end = start + pool_.ref(h).xmit;
  server.busy_until = end;
  server.fifo.push_back(NicServer::Booking{h, start, end, EventId{}});
  if (server.fifo.size() == 1) nic_arm(node, egress, server);
}

// Arm the front booking's merged event. Called when a booking lands in an
// empty FIFO, when a fired front hands the chain to its successor, and on
// resume; the target instants were fixed at booking time, so arming order
// never moves a timestamp.
void System::nic_arm(int node, bool egress, NicServer& server) {
  assert(!server.fifo.empty());
  NicServer::Booking& e = server.fifo.front();
  assert(!e.ev.valid());
  if (egress) {
    e.ev = engine_.schedule_at(e.end, [this, node, h = e.h] { nic_handoff(node, h); });
  } else {
    e.ev = engine_.schedule_at(e.end + net_.latency(),
                               [this, node, h = e.h] { nic_arrival(node, h); });
  }
}

// A booked egress service ended: hand off (which may book at the
// destination ingress) before arming this server's next service.
void System::nic_handoff(int node, MsgHandle h) {
  NicServer& server = nic(node, /*egress=*/true);
  assert(!server.fifo.empty() && server.fifo.front().h == h);
  server.fifo.pop_front();
  handoff_to_ingress(h);
  if (!server.fifo.empty()) nic_arm(node, /*egress=*/true, server);
}

// A booked ingress service ended and the propagation delay elapsed. The
// booking may already be gone (a pause released it while the message was
// in propagation flight); otherwise the successor is armed before the
// arrival side effects run.
void System::nic_arrival(int node, MsgHandle h) {
  NicServer& server = nic(node, /*egress=*/false);
  if (!server.fifo.empty() && server.fifo.front().h == h) {
    server.fifo.pop_front();
    if (!server.fifo.empty()) nic_arm(node, /*egress=*/false, server);
  }
  on_message_arrival(h);
}

// Bits left the source NIC: apply the link fault model, then serialize into
// the destination NIC. A dropped attempt re-enters the source egress queue
// after the retransmission timeout; a duplicated one additionally burns
// ingress service time at the destination before transport dedup eats it.
void System::handoff_to_ingress(MsgHandle h) {
  MessageRec& msg = pool_.ref(h);
  ++msg.attempts;
  if (node_crashed(msg.dst_node)) {
    // The destination died while the bits were on the wire: undeliverable.
    fail_message(h);
    return;
  }
  if (link_fault_ != nullptr && !msg.ghost &&
      link_fault_->should_drop(msg.src_node, msg.dst_node)) {
    ++messages_dropped_;
    if (msg.attempts > net_.params().max_retries) {
      ++transport_failures_;  // dead link: the transport gives up
      fail_message(h);
      return;
    }
    retransmit_later(h);
    return;
  }
  nic_submit(msg.dst_node, /*egress=*/false, h);
  if (link_fault_ != nullptr && !pool_.ref(h).ghost &&
      link_fault_->should_duplicate(pool_.ref(h).src_node,
                                    pool_.ref(h).dst_node)) {
    ++messages_duplicated_;
    const MsgHandle dup_h = pool_.alloc();
    MessageRec& src = pool_.ref(h);  // alloc may have moved the slab
    MessageRec& dup = pool_.ref(dup_h);
    dup.src_node = src.src_node;
    dup.dst_node = src.dst_node;
    dup.bytes = src.bytes;
    dup.xmit = src.xmit;
    dup.ghost = true;
    if (++in_flight_messages_ > peak_in_flight_messages_) {
      peak_in_flight_messages_ = in_flight_messages_;
    }
    nic_submit(dup.dst_node, /*egress=*/false, dup_h);
  }
}

void System::retransmit_later(MsgHandle h) {
  MessageRec& msg = pool_.ref(h);
  ++retransmissions_;
  // RFC 6298-style exponential backoff from the base RTO.
  SimDuration rto = net_.params().retrans_timeout;
  for (int i = 1; i < msg.attempts; ++i) {
    rto = scale(rto, net_.params().retrans_backoff);
  }
  engine_.schedule_after(rto, [this, h] {
    MessageRec* m = pool_.get(h);
    if (m == nullptr || m->failed) return;  // abandoned and recycled meanwhile
    if (node_crashed(m->src_node) || node_crashed(m->dst_node)) {
      fail_message(h);
      return;
    }
    nic_submit(m->src_node, /*egress=*/true, h);
  });
}

void System::fail_message(MsgHandle h) {
  MessageRec& msg = pool_.ref(h);
  if (msg.failed || msg.arrived) return;
  msg.failed = true;
  --in_flight_messages_;
  if (msg.needs_ack) {
    // The sender's ack will never come; keep the route (marked failed) so a
    // stuck sender's diagnosis can still name its peer, but drop the record.
    if (AckTarget* route = ack_router_.find(msg.ack_key)) {
      route->failed = true;
      route->msg = MsgHandle{};
    }
  }
  pool_.release(h);
}

// Stop both directions of the node's NIC, egress first. Ingress bookings
// whose service already ended are in propagation flight, which no pause
// stops: each leaves with an armed arrival event (the front already has its
// merged event). Ties (end == now, event not yet fired) stay with the
// server and pay the stall, like a pause that beats the service-end. The
// front keeps its unserved time, at least 1 ns.
void System::nic_pause(int node) {
  for (const bool egress : {true, false}) {
    NicServer& server = nic(node, egress);
    if (++server.pause_depth > 1) continue;  // already stopped by another cause
    server.paused_at = now();
    while (!server.fifo.empty() && server.fifo.front().end < now()) {
      NicServer::Booking& e = server.fifo.front();
      if (!e.ev.valid()) {
        e.ev = engine_.schedule_at(
            e.end + net_.latency(), [this, node, h = e.h] { nic_arrival(node, h); });
      }
      server.fifo.pop_front();  // its arrival event now owns the delivery
    }
    if (server.fifo.empty()) continue;
    NicServer::Booking& front = server.fifo.front();
    engine_.cancel(front.ev);
    front.ev = EventId{};
    server.remaining = std::max(SimDuration{1}, front.end - now());
    server.front_in_service = true;
  }
}

// Release one pause cause on both directions, egress first. A direction
// whose last cause cleared re-books its whole FIFO contiguously from now
// and arms the front. A front that was mid-service at the pause resumes
// with its unserved time plus the recovery draw; anything submitted while
// paused gets its full wire time.
void System::nic_resume(int node) {
  for (const bool egress : {true, false}) {
    NicServer& server = nic(node, egress);
    assert(server.paused());
    if (--server.pause_depth > 0) continue;  // another cause still holds it
    SimTime cursor = now();
    for (NicServer::Booking& e : server.fifo) {
      SimDuration service = pool_.ref(e.h).xmit;
      if (server.front_in_service) {  // the front, first pass only
        server.front_in_service = false;
        service = server.remaining;
        // TCP loss recovery after the stall: retransmission plus congestion-
        // window rebuild, proportional to how long the host was frozen.
        double recovery = net_.params().tcp_recovery_scale;
        if (recovery > 0.0 && node_htt_active(node)) {
          recovery *= cfg_.htt_nic_recovery_factor;
        }
        if (recovery > 0.0) {
          const SimDuration stall = now() - server.paused_at;
          service += nic_rng_.uniform_duration(
              SimDuration::zero(),
              std::max(SimDuration{1}, scale(stall, recovery)));
        }
      }
      e.start = cursor;
      e.end = cursor + service;
      cursor = e.end;
    }
    server.busy_until = cursor;
    if (!server.fifo.empty()) nic_arm(node, egress, server);
  }
}

void System::on_message_arrival(MsgHandle h) {
  MessageRec& msg = pool_.ref(h);
  note_progress();
  if (node_crashed(msg.dst_node)) {
    // The destination died while the message was in propagation flight:
    // its receiver is gone, so nothing would ever match or release it.
    fail_message(h);
    return;
  }
  --in_flight_messages_;
  if (msg.ghost) {
    // Transport dedup swallows injected duplicates; the ghost burned its
    // ingress wire time, so the record's job is done.
    pool_.release(h);
    return;
  }
  const auto& members = groups_.at(static_cast<std::size_t>(msg.group.value));
  TaskImpl& dst = task(members[static_cast<std::size_t>(msg.dst_rank)]);
  msg.arrived = true;
  msg.arrival = now();
  msg.arrived_during_smm = node_in_smm(dst.node);

  // Posted nonblocking receives match first (MPI posted-queue semantics);
  // only unmatched arrivals enter the unexpected queue.
  if (match_posted_irecv(dst, h)) {
    if (dst.waiting_all) poll_waiter(dst);
    return;
  }
  dst.unexpected.push(pool_, h);

  if (!dst.waiting_msg) return;
  if (msg.tag != dst.wait_tag) return;
  if (dst.wait_src != kAnySource && msg.src_rank != dst.wait_src) return;
  poll_waiter(dst);
}

bool System::try_match_recv(TaskImpl& t, int src_rank, int tag,
                            MessageRec** out) {
  const MsgHandle h = t.unexpected.match(pool_, src_rank, tag, sched_policy_);
  if (!h.valid()) return false;
  t.waiting_msg = false;
  t.active_msg = h;
  *out = &pool_.ref(h);
  return true;
}

// A matched message's CPU-side copy finished: count the receive, send the
// rendezvous ack if one is owed, then recycle the record — immediately for
// eager messages, or at the ack's completion for rendezvous ones
// (kConsumed holds the routing fields the ack path still reads).
void System::retire_copied(TaskImpl& receiver, MsgHandle h) {
  assert(h.valid());
  receiver.stats.messages_received += 1;
  MessageRec& msg = pool_.ref(h);
  if (msg.needs_ack) {
    deliver_ack(msg);
    if (ack_router_.find(msg.ack_key) != nullptr) {
      msg.state = MessageRec::State::kConsumed;
      return;
    }
    // The sender was killed and its route erased: the ack will land on
    // nobody, so nothing holds the record past this point.
  }
  pool_.release(h);
}

bool System::match_posted_irecv(TaskImpl& t, MsgHandle h) {
  if (!t.nbs_ || !t.nbs_->table.any_open_recv()) return false;
  NbHandleTable& nb_table = t.nbs_->table;
  MessageRec& msg = pool_.ref(h);
  // The posted-by-tag index holds exactly the open, unmatched receives (a
  // receive can only complete after its data arrives, so !data_arrived
  // implies !complete) and yields the lowest id — the same handle the old
  // ascending full-table scan picked.
  const int id = nb_table.match_posted(msg.src_rank, msg.tag);
  if (id < 0) return false;
  NbHandleTable::Entry* hit = nb_table.find(id);
  assert(hit != nullptr && !hit->is_send && !hit->complete);
  nb_table.unpost(id);
  hit->data_arrived = true;
  hit->msg = h;
  msg.state = MessageRec::State::kMatched;
  if (hit->in_waitall) wa_mark_ready(t, hit->wa_pos);
  return true;
}

// A parked task's wait may be satisfied: a spinner on a running CPU re-polls
// now (a frozen one re-polls at its thaw), a blocked one is made ready, and
// a queued one (preempted while spinning) re-polls at dispatch.
void System::poll_waiter(TaskImpl& t) {
  if (t.on_cpu) {
    if (!cpu_state(t.node, t.cpu).frozen) step_action(t);
  } else if (t.state == TaskImpl::State::kBlocked) {
    make_ready(t);
  }
}

void System::deliver_ack(const MessageRec& msg) {
  // Control traffic: tiny, skips the queue servers (a real NIC prioritizes
  // pure ACKs and their wire time is negligible). If the sender's node is
  // frozen when it lands, the spinning sender picks it up at SMM exit.
  const SimDuration wire = msg.src_node == msg.dst_node
                               ? net_.intra_transfer(kAckBytes)
                               : net_.latency() + net_.wire_xmit(kAckBytes);
  // Fast path: the delivery instant is fixed here and acks fire
  // unconditionally (they skip the NIC servers, so no pause or fault can
  // move them) — record it on the sender and piggyback the effects on its
  // next poll instead of paying a dedicated event. Falls back to the full
  // event chain whenever a link fault model is armed (drops/dups change
  // route lifetimes mid-flight) or the sender is already gone.
  if (fast_paths_ && link_fault_ == nullptr) {
    if (AckTarget* route = ack_router_.find(msg.ack_key)) {
      queue_lazy_ack(task(route->task), msg.ack_key, now() + wire);
      return;
    }
  }
  engine_.schedule_after(wire, [this, key = msg.ack_key] {
    apply_ack(key, /*allow_wake=*/true);
  });
}

// The ack's effects. `allow_wake` is false when the owning sender is being
// stepped right now (lazy maturation at the top of its own poll): the
// ongoing poll reads the flags itself, and waking would re-enter its state
// machine.
void System::apply_ack(std::uint64_t ack_key, bool allow_wake) {
  note_progress();
  // O(1) hash route: ack keys are globally unique per System.
  AckTarget* route = ack_router_.find(ack_key);
  if (route == nullptr) return;  // sender was killed; route already erased
  const AckTarget target = *route;
  ack_router_.erase(ack_key);
  // The consumed rendezvous payload was held only for this moment.
  if (target.msg.valid()) {
    assert(pool_.ref(target.msg).state == MessageRec::State::kConsumed);
    pool_.release(target.msg);
  }
  TaskImpl& t = task(target.task);
  if (target.nb_handle >= 0) {
    // Nonblocking rendezvous send completion.
    if (NbHandleTable::Entry* entry =
            t.nbs_ ? t.nbs_->table.find(target.nb_handle) : nullptr) {
      entry->complete = true;
      entry->ack_key = 0;
      if (entry->in_waitall) {
        assert(t.nbs_->wa_armed);
        --t.nbs_->wa_incomplete;
      }
    }
    if (allow_wake && t.waiting_all) poll_waiter(t);
    return;
  }
  if (t.state == TaskImpl::State::kDone) return;
  if (t.pending_ack_key != ack_key) return;
  t.ack_arrived = true;
  t.pending_ack_key = 0;
  if (!t.waiting_ack) return;  // arrived before the task started waiting
  t.waiting_ack = false;
  if (!allow_wake) return;  // the ongoing poll continues from the flag
  poll_waiter(t);
}

// --- Lazy ack maturation (transport fast path) -------------------------------
//
// deliver_ack computes the ack's delivery instant exactly as before, but —
// when no fault model is armed — records {due, key} on the sender instead
// of scheduling an event. Acks skip the NIC servers and fire
// unconditionally in the classic path, so their only observable effects
// are the sender-side completion flags, which the sender can only read at
// a poll. A parked sender gets a wake event at exactly the earliest due
// instant, so wake timing (and the hang watchdog's note_progress) is
// unchanged; a busy sender absorbs the acks into its next poll, which is
// where the event savings come from (the ack storm's senders are almost
// always mid-copy).

void System::queue_lazy_ack(TaskImpl& sender, std::uint64_t key, SimTime due) {
  sender.pending_acks.push_back(
      TaskImpl::PendingAck{due, sender.pending_ack_seq++, key});
  if (sender.waiting_msg || sender.waiting_ack || sender.waiting_all) {
    ensure_ack_wake(sender);
  }
}

// Apply every pending ack whose delivery instant has passed, in delivery
// order (due, then queue order) — the order dedicated events fired in.
void System::mature_acks(TaskImpl& t, bool allow_wake) {
  assert(!t.maturing_acks);
  t.maturing_acks = true;
  while (!t.pending_acks.empty()) {
    std::size_t best = t.pending_acks.size();
    for (std::size_t i = 0; i < t.pending_acks.size(); ++i) {
      const TaskImpl::PendingAck& p = t.pending_acks[i];
      if (p.due > now()) continue;
      if (best == t.pending_acks.size() ||
          p.due < t.pending_acks[best].due ||
          (p.due == t.pending_acks[best].due &&
           p.seq < t.pending_acks[best].seq)) {
        best = i;
      }
    }
    if (best == t.pending_acks.size()) break;
    const std::uint64_t key = t.pending_acks[best].key;
    t.pending_acks[best] = t.pending_acks.back();
    t.pending_acks.pop_back();
    apply_ack(key, allow_wake);
  }
  t.maturing_acks = false;
}

// Arm (or tighten) the one wake event that stands in for every dedicated
// ack event while the task is parked.
void System::ensure_ack_wake(TaskImpl& t) {
  if (t.pending_acks.empty()) return;
  SimTime due = t.pending_acks[0].due;
  for (const TaskImpl::PendingAck& p : t.pending_acks) {
    if (p.due < due) due = p.due;
  }
  if (t.ack_wake_ev.valid() && t.ack_wake_due <= due) return;
  engine_.cancel(t.ack_wake_ev);
  t.ack_wake_due = due;
  t.ack_wake_ev = engine_.schedule_at(due, [this, id = t.id] {
    TaskImpl& task_ref = task(id);
    task_ref.ack_wake_ev = EventId{};
    mature_acks(task_ref, /*allow_wake=*/true);
    ensure_ack_wake(task_ref);  // later dues may remain
  });
}

// --- SMM ---------------------------------------------------------------------------

bool System::node_in_smm(int node) const {
  return node_state_.at(static_cast<std::size_t>(node))->in_smm;
}

bool System::node_htt_active(int node) const {
  const Node& n = cluster_.node(node);
  if (n.spec().threads_per_core < 2) return false;
  for (int i = 0; i < n.cpu_count(); ++i) {
    const auto& cpu = n.cpu(i);
    if (cpu.online && cpu.sibling >= 0 && n.is_online(cpu.sibling)) return true;
  }
  return false;
}

// --- Freeze and thaw ---------------------------------------------------------
//
// Three causes stop CPUs: SMM (whole node), an injected fault freeze (whole
// node) and OS-noise preemption (one CPU). They compose: a CPU stays frozen
// until the last cause releases it, and only an SMM exit charges the
// interrupted tasks.

// Stop one CPU: its timeslice is cancelled and the current task's progress
// is banked, with its completion cancelled, until thaw_cpu.
void System::freeze_cpu(int node, int cpu) {
  auto& cs = cpu_state(node, cpu);
  cs.frozen = true;
  engine_.cancel(cs.quantum_ev);
  cs.quantum_ev = EventId{};
  if (cs.current >= 0) {
    stop_running(*tasks_[static_cast<std::size_t>(cs.current)],
                 /*keep_on_cpu=*/true);
  }
}

// Restart a frozen CPU: the current task resumes from now and gets back the
// timeslice the freeze cancelled (a spinning waiter must not starve an
// oversubscribed CPU's queue).
void System::thaw_cpu(int node, int cpu) {
  auto& cs = cpu_state(node, cpu);
  cs.frozen = false;
  if (cs.current >= 0) {
    begin_running(*tasks_[static_cast<std::size_t>(cs.current)]);
    arm_quantum(node, cpu);
  }
}

// Stop a whole node: both NIC directions (TCP stalls with the host) and
// every online CPU not already stopped by another cause.
void System::freeze_node(int node) {
  nic_pause(node);
  const Node& topo = cluster_.node(node);
  for (int i = 0; i < topo.cpu_count(); ++i) {
    if (topo.is_online(i) && !cpu_state(node, i).frozen) freeze_cpu(node, i);
  }
}

/// What an SMM exit charges each task it interrupted.
struct System::SmmCharge {
  SimDuration frozen_for;  ///< the SMM residency
  SimDuration refill;      ///< residency that counts toward cache refill
};

// Restart every online CPU of a node whose last freeze cause cleared (its
// NICs are resumed by the caller). On an SMM exit (`smm` non-null) each
// interrupted task is charged first: the OS never saw the freeze, so it
// keeps charging the task, and its caches refill. Timer wakes deferred by
// the freeze are serviced next, then idle CPUs dispatch.
void System::thaw_node(int node, const SmmCharge* smm) {
  auto& ns = *node_state_.at(static_cast<std::size_t>(node));
  const Node& topo = cluster_.node(node);
  for (int i = 0; i < topo.cpu_count(); ++i) {
    if (!topo.is_online(i)) continue;
    const std::int32_t current = ns.cpus[static_cast<std::size_t>(i)].current;
    if (smm != nullptr && current >= 0) {
      TaskImpl& t = *tasks_[static_cast<std::size_t>(current)];
      t.stats.os_view_cpu_time += smm->frozen_for;
      t.stats.smm_stolen_time += smm->frozen_for;
      t.stats.smm_hits += 1;
      apply_refill(t, refill_rng_, smm->refill);
    }
    thaw_cpu(node, i);
  }
  const std::vector<std::int32_t> wakes = std::move(ns.deferred_wakes);
  ns.deferred_wakes.clear();
  for (const std::int32_t idx : wakes) {
    TaskImpl& t = *tasks_[static_cast<std::size_t>(idx)];
    if (t.state == TaskImpl::State::kSleeping) make_ready(t);
  }
  for (int i = 0; i < topo.cpu_count(); ++i) {
    if (topo.is_online(i)) dispatch(node, i);
  }
}

void System::smm_enter(int node) {
  auto& ns = *node_state_.at(static_cast<std::size_t>(node));
  assert(!ns.in_smm && "nested SMM entry");
  ns.in_smm = true;
  ns.freeze_start = now();
  freeze_node(node);
}

void System::smm_exit(int node, const SmmInterval& interval) {
  auto& ns = *node_state_.at(static_cast<std::size_t>(node));
  assert(ns.in_smm);
  ns.in_smm = false;
  smm_acct_.record(interval);
  nic_resume(node);
  if (ns.fault_frozen || ns.crashed) {
    // An injected fault stall outlasts the SMI (or the node died inside
    // it): keep the CPUs down — fault_freeze_exit resumes them. The hung
    // node gets no refill or OS-view charge for this interval; nothing on
    // it observed the handler return.
    ns.last_smm_exit = now();
    return;
  }

  const SimDuration frozen_for = now() - ns.freeze_start;
  // The state worth re-warming after SMM is bounded by what was rebuilt
  // since the previous SMM interval: at high SMI rates caches never get
  // fully hot, so the per-SMI warm-up shrinks with the gap. The quadratic
  // damping reflects that a barely-warm cache both has less to lose and
  // loses it more cheaply (the lines it still needs are the recent ones).
  const double warm_fraction = [&] {
    if (ns.last_smm_exit < SimTime::zero()) return 1.0;
    const SimDuration warm = ns.freeze_start - ns.last_smm_exit;
    const double f = warm / (warm + frozen_for);
    return f * f;
  }();
  ns.last_smm_exit = now();
  const SmmCharge charge{frozen_for, scale(frozen_for, warm_fraction)};
  thaw_node(node, &charge);
}

void System::preempt_cpu(int node, int cpu) {
  assert(!node_in_smm(node) && "use SMM entry for whole-node freezes");
  assert(!cpu_state(node, cpu).frozen && "CPU already preempted");
  freeze_cpu(node, cpu);
}

void System::resume_cpu(int node, int cpu) {
  if (node_in_smm(node)) return;  // SMM superseded; its exit restores the CPU
  if (!cpu_state(node, cpu).frozen) return;  // already restored by an SMM exit
  // OS-level noise is visible to the kernel: unlike SMM it is NOT charged
  // to the victim task's CPU time, so no os_view adjustment here.
  thaw_cpu(node, cpu);
  dispatch(node, cpu);
}

void System::apply_refill(TaskImpl& t, Rng& rng, SimDuration frozen_for) {
  if (cfg_.machine.hot_set_bytes <= 0) return;  // nothing to re-warm
  // How much of the hot state the handler actually evicted: a millisecond
  // handler touches almost nothing; a long scan flushes everything.
  const double evicted =
      std::min(1.0, frozen_for / cfg_.smm_full_flush_residency);
  SimDuration refill = scale(
      refill_work(t.profile, cfg_.machine.hot_set_bytes,
                  cfg_.machine.cache_refill_bw, sibling_busy(t), rng),
      evicted);
  if (node_htt_active(t.node)) {
    refill = scale(refill, cfg_.refill_htt_node_multiplier);
    // Residency-proportional warm-up with twice the hardware contexts
    // competing for the same caches (see SystemConfig::htt_refill_fraction),
    // scaled by how much hot state this task actually keeps (a register-
    // resident spin loop loses nothing; a streaming kernel loses little).
    // The per-run factor models how (un)lucky this run's post-SMI thread
    // placement is — the paper's HTT variance at high SMI rates.
    if (cfg_.htt_refill_fraction > 0 && t.profile.hot_set_fraction > 0) {
      const double hot = std::min(1.0, t.profile.hot_set_fraction);
      const double jittered = cfg_.htt_refill_fraction * hot * evicted *
                              htt_refill_run_factor_ * rng.uniform(0.7, 1.3);
      refill += scale(frozen_for, jittered);
    }
  }
  t.stats.refill_overhead += refill;
  if (t.work_left > SimDuration::zero()) {
    t.work_left += refill;
  } else {
    t.pending_overhead += refill;
  }
}

// --- Fault injection hooks ---------------------------------------------------------

const char* to_string(FaultRecord::Kind kind) {
  switch (kind) {
    case FaultRecord::Kind::kFreeze: return "FREEZE";
    case FaultRecord::Kind::kCrash: return "CRASH";
    case FaultRecord::Kind::kLinkDown: return "LINKDOWN";
    case FaultRecord::Kind::kSlowNode: return "SLOW";
  }
  return "?";
}

void System::close_fault_record(FaultRecord::Kind kind, int node) {
  for (auto it = fault_log_.rbegin(); it != fault_log_.rend(); ++it) {
    if (it->kind == kind && it->node == node && it->end < SimTime::zero()) {
      it->end = now();
      return;
    }
  }
  assert(false && "closing a fault interval that was never opened");
}

bool System::node_fault_frozen(int node) const {
  return node_state_.at(static_cast<std::size_t>(node))->fault_frozen;
}

bool System::node_crashed(int node) const {
  return node_state_.at(static_cast<std::size_t>(node))->crashed;
}

void System::fault_freeze_enter(int node) {
  auto& ns = *node_state_.at(static_cast<std::size_t>(node));
  if (ns.crashed) return;
  assert(!ns.fault_frozen && "nested fault freeze");
  ns.fault_frozen = true;
  fault_log_.push_back({FaultRecord::Kind::kFreeze, node, now(), SimTime{-1}});
  freeze_node(node);  // inside SMM the CPUs are already down
}

void System::fault_freeze_exit(int node) {
  auto& ns = *node_state_.at(static_cast<std::size_t>(node));
  if (ns.crashed) return;  // the crash superseded the stall
  assert(ns.fault_frozen);
  ns.fault_frozen = false;
  close_fault_record(FaultRecord::Kind::kFreeze, node);
  nic_resume(node);
  if (ns.in_smm) return;  // SMM still holds the node; its exit resumes CPUs
  // Unlike smm_exit there is no refill penalty and no OS-view charge: a
  // hang stops the kernel's clocks along with everything else.
  thaw_node(node, nullptr);
}

void System::kill_task(TaskImpl& t) {
  assert(!t.stats.finished && !t.stats.failed);
  auto& cs = cpu_state(t.node, t.cpu);
  if (t.on_cpu) {
    if (!cs.frozen) settle(t);  // frozen tasks were settled at freeze time
    assert(cs.current == t.id.value);
    cs.current = -1;
    t.on_cpu = false;
    engine_.cancel(cs.quantum_ev);
    cs.quantum_ev = EventId{};
  }
  if (t.queued) {
    auto& q = cs.runqueue;
    q.erase(std::remove(q.begin(), q.end(), t.id.value), q.end());
    t.queued = false;
  }
  ++t.epoch;
  engine_.cancel(t.completion_ev);
  t.completion_ev = EventId{};
  t.state = TaskImpl::State::kDone;
  t.stats.failed = true;
  t.stats.end_time = now();
  t.work_left = SimDuration::zero();
  t.pending_overhead = SimDuration::zero();
  t.action.reset();
  t.action_kind = -1;
  program_actions_ -= t.materialized;
  t.materialized = 0;
  t.waiting_msg = t.waiting_ack = t.waiting_all = false;
  if (t.nbs_) t.nbs_->wa_armed = false;
  // Release every pool record this task holds and unhook its ack routes:
  // the message in mid-copy, matched-but-uncopied nonblocking receives,
  // queued unexpected traffic, and outstanding rendezvous-send routes
  // (whose acks must now fall on the floor, not on a recycled slot). A
  // routed payload is released only once it is kConsumed — in any other
  // state the wire or the receiving task still owns it, and the receiver's
  // retire_copied path will find the route gone and recycle it then.
  auto drop_route = [&](std::uint64_t key) {
    if (key == 0) return;
    const AckTarget* route = ack_router_.find(key);
    if (route == nullptr) return;
    if (MessageRec* m = pool_.get(route->msg);
        m != nullptr && m->state == MessageRec::State::kConsumed) {
      pool_.release(route->msg);
    }
    ack_router_.erase(key);
  };
  if (t.active_msg.valid()) {
    pool_.release(t.active_msg);
    t.active_msg = MsgHandle{};
  }
  if (t.nbs_) {
    t.nbs_->table.for_each_open([&](int, NbHandleTable::Entry& entry) {
      if (entry.data_arrived && entry.msg.valid()) pool_.release(entry.msg);
      if (entry.is_send) drop_route(entry.ack_key);
    });
    t.nbs_->table.clear();
  }
  drop_route(t.pending_ack_key);
  t.pending_ack_key = 0;
  t.unexpected.clear(pool_);
  // Pending lazy acks stay queued: their routes are gone (drop_route), but
  // the wake chain still fires at each delivery instant so the watchdog
  // sees the same note_progress sequence dedicated ack events produced.
  ensure_ack_wake(t);
  --unfinished_tasks_;
  ++failed_tasks_;
  note_progress();
}

void System::crash_node(int node) {
  auto& ns = *node_state_.at(static_cast<std::size_t>(node));
  if (ns.crashed) return;
  ns.crashed = true;
  if (ns.fault_frozen) {
    ns.fault_frozen = false;
    close_fault_record(FaultRecord::Kind::kFreeze, node);
  }
  fault_log_.push_back({FaultRecord::Kind::kCrash, node, now(), now()});
  // The NICs go silent forever; traffic parked at them is undeliverable.
  nic_pause(node);
  for (NicServer* server : {&ns.egress, &ns.ingress}) {
    for (const NicServer::Booking& e : server->fifo) fail_message(e.h);
    server->fifo.clear();
    server->front_in_service = false;
  }
  // Fail-stop: every task placed here dies where it stands.
  for (const auto& tp : tasks_) {
    TaskImpl& t = *tp;
    if (t.node != node || t.stats.finished || t.stats.failed) continue;
    kill_task(t);
  }
  ns.deferred_wakes.clear();
}

void System::set_node_fault_rate(int node, double scale) {
  assert(scale > 0.0 && "a zero rate is a freeze, not a slow node");
  double& slot = fault_rate_.at(static_cast<std::size_t>(node));
  if (slot == scale) return;
  if (slot == 1.0) {
    fault_log_.push_back(
        {FaultRecord::Kind::kSlowNode, node, now(), SimTime{-1}});
  } else if (scale == 1.0) {
    close_fault_record(FaultRecord::Kind::kSlowNode, node);
  }
  slot = scale;
  if (node_state_[static_cast<std::size_t>(node)]->crashed) return;
  // Re-pace everything currently executing on the node.
  const Node& topo = cluster_.node(node);
  for (int i = 0; i < topo.cpu_count(); ++i) {
    if (topo.is_online(i)) rerate(node, i);
  }
}

void System::set_link_down(int node, bool down) {
  if (node_state_.at(static_cast<std::size_t>(node))->crashed) return;
  if (down) {
    fault_log_.push_back(
        {FaultRecord::Kind::kLinkDown, node, now(), SimTime{-1}});
    nic_pause(node);
  } else {
    close_fault_record(FaultRecord::Kind::kLinkDown, node);
    nic_resume(node);
  }
}

// --- Running -----------------------------------------------------------------------

void System::validate() const {
  auto fail = [](const std::string& what) {
    throw std::logic_error("System::validate: " + what);
  };
  // CPU <-> task cross-references.
  for (int n = 0; n < cluster_.node_count(); ++n) {
    const auto& ns = *node_state_[static_cast<std::size_t>(n)];
    const Node& topo = cluster_.node(n);
    for (int c = 0; c < topo.cpu_count(); ++c) {
      const auto& cs = ns.cpus[static_cast<std::size_t>(c)];
      if (cs.current >= 0) {
        const TaskImpl& t = *tasks_[static_cast<std::size_t>(cs.current)];
        if (!t.on_cpu || t.node != n || t.cpu != c) {
          fail("cpu " + std::to_string(n) + "/" + std::to_string(c) +
               " current task '" + t.name + "' does not point back");
        }
        if (!topo.is_online(c)) fail("offline CPU has a current task");
      }
      for (const std::int32_t idx : cs.runqueue) {
        const TaskImpl& t = *tasks_[static_cast<std::size_t>(idx)];
        if (!t.queued || t.on_cpu || t.node != n || t.cpu != c) {
          fail("runqueue entry '" + t.name + "' state mismatch");
        }
      }
      if (ns.in_smm && topo.is_online(c) && !cs.frozen) {
        fail("node in SMM but CPU not frozen");
      }
    }
  }
  // Task-side invariants.
  for (const auto& tp : tasks_) {
    const TaskImpl& t = *tp;
    if (t.stats.finished) {
      if (t.on_cpu || t.queued || t.work_left > SimDuration::zero()) {
        fail("finished task '" + t.name + "' retains execution state");
      }
      if (t.stats.os_view_cpu_time <
          t.stats.true_cpu_time + t.stats.smm_stolen_time - SimDuration{1}) {
        fail("ledger mismatch for '" + t.name + "'");
      }
    }
    if (t.on_cpu && t.queued) fail("task '" + t.name + "' both on CPU and queued");
    if (t.on_cpu) {
      const auto& cs = node_state_[static_cast<std::size_t>(t.node)]
                           ->cpus[static_cast<std::size_t>(t.cpu)];
      if (cs.current != t.id.value) {
        fail("task '" + t.name + "' thinks it is current but is not");
      }
    }
  }
  // Transport invariants: the pool's bookkeeping is sound, the in-flight
  // counter matches the kTransit population, the per-task unexpected queues
  // are structurally valid and account for every kUnexpected record, and
  // every consumed-but-retained record is awaiting a routed ack.
  pool_.check_invariants();
  if (static_cast<std::int64_t>(pool_.live_in_state(
          MessageRec::State::kTransit)) != in_flight_messages_) {
    fail("in-flight counter disagrees with the pool's kTransit population");
  }
  std::size_t unexpected_total = 0;
  for (const auto& tp : tasks_) {
    tp->unexpected.check_invariants(pool_);
    unexpected_total += tp->unexpected.size();
  }
  if (unexpected_total != pool_.live_in_state(MessageRec::State::kUnexpected)) {
    fail("unexpected queues do not cover the pool's kUnexpected records");
  }
  if (in_flight_messages_ > peak_in_flight_messages_) {
    fail("in-flight counter exceeds its recorded peak");
  }
  const std::size_t consumed =
      pool_.live_in_state(MessageRec::State::kConsumed);
  if (consumed > ack_router_.size()) {
    fail("kConsumed records outnumber outstanding ack routes");
  }
  // NIC invariants: every FIFO entry is a live record, and an unpaused
  // server's bookings are a contiguous FIFO ending at busy_until (a paused
  // one holds no bookings until its resume).
  for (int n = 0; n < cluster_.node_count(); ++n) {
    const auto& ns = *node_state_[static_cast<std::size_t>(n)];
    for (const NicServer* server : {&ns.egress, &ns.ingress}) {
      for (const NicServer::Booking& e : server->fifo) {
        if (pool_.get(e.h) == nullptr) fail("NIC FIFO holds a stale handle");
      }
      if (server->paused() || server->fifo.empty()) continue;
      SimTime prev_end = SimTime::zero();
      for (const NicServer::Booking& e : server->fifo) {
        if (e.end < e.start || e.start < prev_end) {
          fail("NIC bookings are not a contiguous FIFO");
        }
        prev_end = e.end;
      }
      if (server->busy_until != prev_end) {
        fail("NIC busy_until disagrees with the last booking");
      }
    }
  }
}

TransportStats System::transport_stats() const {
  TransportStats s;
  s.messages_allocated = pool_.total_allocated();
  s.pool_live = static_cast<std::int64_t>(pool_.live());
  s.pool_capacity = static_cast<std::int64_t>(pool_.capacity());
  s.pool_peak_live = static_cast<std::int64_t>(pool_.peak_live());
  s.peak_in_flight = peak_in_flight_messages_;
  s.ack_routes = static_cast<std::int64_t>(ack_router_.size());
  return s;
}

std::uint64_t System::progress_digest() const {
  // See the header contract: a stable digest of control state, transport
  // counters, and the pending-event time multiset. Excluded on purpose:
  // event seqs, ack keys, and arrival_seq values (numbering isomorphisms
  // that differ between commuted-but-equivalent schedules) and pool/slab
  // capacities (allocation-order artifacts).
  Fnv64 h;
  h.mix(static_cast<std::uint64_t>(now().ns()));
  h.mix(static_cast<std::uint64_t>(unfinished_tasks_));
  for (const auto& tp : tasks_) {
    const TaskImpl& t = *tp;
    h.mix_signed(t.id.value);
    h.mix(static_cast<std::uint64_t>(t.state));
    h.mix(static_cast<std::uint64_t>(t.phase));
    h.mix((t.stats.finished ? 1u : 0u) | (t.stats.failed ? 2u : 0u) |
          (t.waiting_msg ? 4u : 0u) | (t.waiting_ack ? 8u : 0u) |
          (t.waiting_all ? 16u : 0u) | (t.on_cpu ? 32u : 0u) |
          (t.queued ? 64u : 0u) | (t.ack_arrived ? 128u : 0u) |
          (t.action.has_value() ? 256u : 0u));
    h.mix_signed(t.wait_src);
    h.mix_signed(t.wait_tag);
    h.mix(static_cast<std::uint64_t>(t.work_left.ns()));
    h.mix(t.stats.messages_sent);
    h.mix(t.stats.messages_received);
    h.mix(static_cast<std::uint64_t>(t.stats.bytes_sent));
    h.mix(static_cast<std::uint64_t>(t.pending_acks.size()));
    // Unexpected-queue CONTENT in arrival order (relative order matters for
    // future matches; absolute arrival_seq values do not).
    h.mix(static_cast<std::uint64_t>(t.unexpected.size()));
    t.unexpected.for_each_arrival(pool_, [&h](const MessageRec& msg) {
      h.mix_signed(msg.src_rank);
      h.mix_signed(msg.tag);
      h.mix(static_cast<std::uint64_t>(msg.bytes));
    });
    // An absent nb box hashes exactly like a constructed-but-empty table:
    // count 0, no entries.
    h.mix(static_cast<std::uint64_t>(t.nbs_ ? t.nbs_->table.open_count() : 0));
    if (t.nbs_)
      t.nbs_->table.for_each_open([&h](int id,
                                       const NbHandleTable::Entry& entry) {
      h.mix_signed(id);
      h.mix((entry.is_send ? 1u : 0u) | (entry.complete ? 2u : 0u) |
            (entry.data_arrived ? 4u : 0u) | (entry.in_waitall ? 8u : 0u));
      h.mix_signed(entry.src);
      h.mix_signed(entry.tag);
      h.mix_signed(entry.peer);
    });
  }
  h.mix(static_cast<std::uint64_t>(messages_dropped_));
  h.mix(static_cast<std::uint64_t>(messages_duplicated_));
  h.mix(static_cast<std::uint64_t>(retransmissions_));
  h.mix(static_cast<std::uint64_t>(transport_failures_));
  h.mix(static_cast<std::uint64_t>(inter_node_bytes_));
  h.mix(static_cast<std::uint64_t>(in_flight_messages_));
  // The pending-event schedule: without it, states whose counters coincide
  // but whose futures differ (e.g. the same fault at two jitter offsets,
  // neither fired yet) would falsely collapse in the memo.
  h.mix(engine_.pending_time_digest());
  return h.value();
}

bool System::all_unfinished_comm_waiting() const {
  for (const auto& tp : tasks_) {
    const TaskImpl& t = *tp;
    if (t.stats.finished || t.stats.failed) continue;
    if (!(t.waiting_msg || t.waiting_ack || t.waiting_all)) return false;
  }
  return true;
}

RunResult System::diagnose(RunStatus status) const {
  RunResult result;
  RunDiagnosis& d = result.diagnosis;
  d.sim_now = now();
  d.failed_tasks = failed_tasks_;
  d.in_flight_messages = in_flight_messages_;

  auto peer_of = [&](const TaskImpl& t, int rank) -> const TaskImpl* {
    if (rank < 0 || !t.group.valid()) return nullptr;
    const auto& members = groups_[static_cast<std::size_t>(t.group.value)];
    if (static_cast<std::size_t>(rank) >= members.size()) return nullptr;
    const TaskId id = members[static_cast<std::size_t>(rank)];
    return id.valid() ? &task(id) : nullptr;
  };

  // Wait-for graph over task indices: an edge u -> v means u cannot make
  // progress until v acts (sends the awaited message, consumes the
  // rendezvous payload, or completes a handle's transfer).
  std::vector<std::vector<std::int32_t>> edges(tasks_.size());
  auto add_edge = [&](const TaskImpl& from, const TaskImpl* to) {
    if (to != nullptr && !to->stats.finished && !to->stats.failed) {
      edges[static_cast<std::size_t>(from.id.value)].push_back(to->id.value);
    }
  };

  for (const auto& tp : tasks_) {
    const TaskImpl& t = *tp;
    if (t.stats.finished || t.stats.failed) continue;
    RankDiagnosis r;
    r.task = t.id;
    r.name = t.name;
    r.node = t.node;
    r.rank = t.rank;
    r.unexpected_depth = t.unexpected.size();
    // Sample what HAS arrived but failed to match (arrival order): the key
    // evidence for diagnosing an ANY_SOURCE wedge, where the receive the
    // user expected to fire was satisfied by a different sender earlier.
    t.unexpected.for_each_arrival(pool_, [&](const MessageRec& msg) {
      if (r.unexpected_sample.size() >= kDiagnosisSampleCap) return;
      r.unexpected_sample.push_back(
          QueuedMessage{msg.src_rank, msg.tag, msg.bytes});
    });
    if (t.nbs_)
      t.nbs_->table.for_each_open([&](int id,
                                      const NbHandleTable::Entry& entry) {
      if (entry.complete) return;
      ++r.incomplete_handles;
      if (!entry.is_send) ++r.posted_recvs;
      if (r.pending_handles.size() < kDiagnosisSampleCap) {
        r.pending_handles.push_back(PendingHandle{
            id, entry.is_send, entry.is_send ? entry.peer : entry.src,
            entry.tag, !entry.is_send && entry.src == kAnySource});
      }
    });
    if (t.waiting_msg) {
      r.op = BlockedOp::kRecv;
      r.peer_rank = t.wait_src;
      r.tag = t.wait_tag;
      r.any_source = t.wait_src == kAnySource;
      if (t.wait_src == kAnySource) {
        // Any of the group could unblock us; conservatively depend on all.
        if (t.group.valid()) {
          for (const TaskId id :
               groups_[static_cast<std::size_t>(t.group.value)]) {
            if (id.valid() && !(id == t.id)) add_edge(t, &task(id));
          }
        }
      } else {
        const TaskImpl* p = peer_of(t, t.wait_src);
        r.peer_failed = p != nullptr && p->stats.failed;
        add_edge(t, p);
      }
    } else if (t.waiting_ack) {
      r.op = BlockedOp::kAckWait;
      // The ack comes from whoever consumes our rendezvous payload: the ack
      // route remembers the peer (rank, tag) even after the payload record
      // itself has been recycled.
      if (const AckTarget* route = ack_router_.find(t.pending_ack_key)) {
        r.peer_rank = route->dst_rank;
        r.tag = route->tag;
        const TaskImpl* p = peer_of(t, route->dst_rank);
        r.peer_failed = p != nullptr && p->stats.failed;
        add_edge(t, p);
      }
    } else if (t.waiting_all) {
      r.op = BlockedOp::kWaitAll;
      if (t.nbs_)
        t.nbs_->table.for_each_open([&](int, const NbHandleTable::Entry& entry) {
        if (entry.complete) return;
        if (r.peer_rank < 0) r.peer_rank = entry.peer;
        const TaskImpl* p = peer_of(t, entry.peer);
        if (r.peer_rank == entry.peer) {
          r.peer_failed = p != nullptr && p->stats.failed;
        }
        add_edge(t, p);
      });
    } else if (t.state == TaskImpl::State::kSleeping) {
      r.op = BlockedOp::kSleep;
    }
    d.ranks.push_back(std::move(r));
  }

  // Cycle detection (DFS, three colours). A cycle proves deadlock; report
  // it as task ids with the entry repeated at the end.
  std::vector<int> color(tasks_.size(), 0);
  std::vector<std::int32_t> path;
  // smilint: allow(std-function) reason=recursive diagnosis DFS; runs once per failed run, never on the event hot path
  const std::function<bool(std::int32_t)> dfs = [&](std::int32_t u) -> bool {
    color[static_cast<std::size_t>(u)] = 1;
    path.push_back(u);
    for (const std::int32_t v : edges[static_cast<std::size_t>(u)]) {
      if (color[static_cast<std::size_t>(v)] == 1) {
        auto it = std::find(path.begin(), path.end(), v);
        for (; it != path.end(); ++it) d.cycle.push_back(TaskId{*it});
        d.cycle.push_back(TaskId{v});
        return true;
      }
      if (color[static_cast<std::size_t>(v)] == 0 && dfs(v)) return true;
    }
    color[static_cast<std::size_t>(u)] = 2;
    path.pop_back();
    return false;
  };
  for (const auto& tp : tasks_) {
    const TaskImpl& t = *tp;
    if (t.stats.finished || t.stats.failed) continue;
    if (color[static_cast<std::size_t>(t.id.value)] == 0 && dfs(t.id.value)) {
      break;
    }
  }
  if (status == RunStatus::kHang && !d.cycle.empty()) {
    status = RunStatus::kDeadlock;  // the watchdog fired on a provable cycle
  }
  result.status = status;
  result.peak_in_flight_messages = peak_in_flight_messages_;
  result.peak_program_actions = peak_program_actions_;
  return result;
}

RunResult System::try_run() {
  while (unfinished_tasks_ > 0) {
    if (!engine_.step()) {
      // No pending events but tasks remain: nothing can ever wake them.
      return diagnose(RunStatus::kDeadlock);
    }
    if (now() - SimTime::zero() > cfg_.max_sim_time) {
      return diagnose(RunStatus::kMaxSimTime);
    }
    if (cfg_.hang_timeout > SimDuration::zero() &&
        now() - last_progress_ > cfg_.hang_timeout &&
        in_flight_messages_ == 0 && all_unfinished_comm_waiting()) {
      // Nothing on the wire, every survivor parked in communication, and
      // no action has retired for hang_timeout of simulated time: stuck.
      // (Spin-waiters keep generating quantum events, so the event queue
      // alone cannot distinguish this from forward progress.)
      return diagnose(RunStatus::kHang);
    }
  }
  RunResult result;
  result.peak_in_flight_messages = peak_in_flight_messages_;
  result.peak_program_actions = peak_program_actions_;
  return result;
}

void System::run() {
  const RunResult result = try_run();
  if (!result.ok()) {
    throw SimulationError(result.status,
                          "smilab::System::run: " + result.to_string());
  }
}

bool System::run_for(SimDuration d) { return engine_.run_until(now() + d); }

bool System::all_finished() const { return unfinished_tasks_ == 0; }

const TaskStats& System::task_stats(TaskId t) const { return task(t).stats; }

const std::string& System::task_name(TaskId t) const { return task(t).name; }

int System::task_node(TaskId t) const { return task(t).node; }

SimDuration System::total_true_cpu_time() const {
  SimDuration total{};
  for (const auto& tp : tasks_) total += tp->stats.true_cpu_time;
  return total;
}

SimTime System::group_finish_time(GroupId g) const {
  const auto& members = groups_.at(static_cast<std::size_t>(g.value));
  SimTime latest = SimTime::zero();
  for (const TaskId id : members) {
    assert(id.valid());
    const TaskStats& stats = task(id).stats;
    assert(stats.finished && "group member still running");
    latest = std::max(latest, stats.end_time);
  }
  return latest;
}

SimTime System::last_finish_time() const {
  SimTime latest = SimTime::zero();
  for (const auto& tp : tasks_) {
    if (tp->stats.finished) latest = std::max(latest, tp->stats.end_time);
  }
  return latest;
}

}  // namespace smilab
