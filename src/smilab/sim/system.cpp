#include "smilab/sim/system.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "smilab/smm/smi_controller.h"

namespace smilab {

// --- Construction -----------------------------------------------------------

System::System(SystemConfig cfg)
    : cfg_(cfg),
      cluster_(cfg.node_count, cfg.machine),
      net_(cfg.net),
      master_rng_(cfg.seed),
      sched_(cfg_, engine_, cluster_, tasks_, master_rng_, interp_, ctl_),
      interp_(cfg_, engine_, net_, tasks_, sched_, protocol_, ctl_),
      protocol_(cfg_, engine_, net_, tasks_, sched_, interp_, nic_, ctl_),
      nic_(cfg_, engine_, net_, master_rng_, protocol_, sched_),
      ctl_(cfg_, engine_, cluster_, tasks_, master_rng_, sched_, interp_,
           protocol_, nic_),
      diagnosis_(engine_, cluster_, tasks_, sched_, interp_, protocol_, nic_,
                 ctl_) {
  // Collectives over p ranks touch O(log p) distinct segment sizes per
  // phase and different phases use different bases, so scale the cost memo
  // with the node count (4 lines/node keeps 64k ranks comfortably under a
  // few MB while a 1-node run stays at the 64-line floor).
  net_.resize_cache(std::max<std::size_t>(
      NetworkModel::kDefaultLines, static_cast<std::size_t>(cfg.node_count) * 4));
  if (cfg_.smi.enabled()) {
    smi_ = std::make_unique<SmiController>(*this, cfg_.smi);
  }
}

System::~System() = default;

void System::set_online_cpus(int n) {
  assert(tasks_.all.empty() && "change CPU topology before spawning tasks");
  for (int i = 0; i < cluster_.node_count(); ++i) {
    cluster_.node(i).set_online_cpus(n);
  }
}

// --- Groups and spawning -------------------------------------------------------

GroupId System::create_group(int size) {
  assert(size >= 1);
  tasks_.groups.emplace_back(static_cast<std::size_t>(size), TaskId{});
  return GroupId{static_cast<std::int32_t>(tasks_.groups.size() - 1)};
}

TaskId System::spawn(TaskSpec spec) {
  const GroupId g = create_group(1);
  return spawn_member(g, 0, std::move(spec));
}

TaskId System::spawn_member(GroupId g, int rank, TaskSpec spec) {
  assert(g.valid());
  assert(spec.actions && "task needs an action source");
  auto& members = tasks_.groups.at(static_cast<std::size_t>(g.value));
  assert(rank >= 0 && rank < static_cast<int>(members.size()));
  assert(!members[static_cast<std::size_t>(rank)].valid() && "rank already spawned");

  auto t = std::make_unique<TaskImpl>();
  t->id = TaskId{static_cast<std::int32_t>(tasks_.all.size())};
  t->group = g;
  t->rank = rank;
  t->name = std::move(spec.name);
  t->node = spec.node;
  t->profile = spec.profile;
  t->wait_policy = spec.wait_policy;
  t->source = std::move(spec.actions);
  t->stats.start_time = now();
  t->pinned = spec.pinned_cpu >= 0;
  t->cpu = spec.pinned_cpu >= 0 ? spec.pinned_cpu : sched_.place(spec.node);
  members[static_cast<std::size_t>(rank)] = t->id;

  TaskImpl& ref = *t;
  tasks_.all.push_back(std::move(t));
  interp_.admit(ref);
  sched_.admit(ref);
  return ref.id;
}

// --- SMM, noise and fault hooks ----------------------------------------------------

void System::smm_enter(int node) { ctl_.smm_enter(node); }

void System::smm_exit(int node, const SmmInterval& interval) {
  ctl_.smm_exit(node, interval);
}

bool System::node_in_smm(int node) const { return ctl_.in_smm(node); }

bool System::node_htt_active(int node) const {
  return sched_.node_htt_active(node);
}

void System::preempt_cpu(int node, int cpu) { ctl_.preempt_cpu(node, cpu); }

void System::resume_cpu(int node, int cpu) { ctl_.resume_cpu(node, cpu); }

void System::fault_freeze_enter(int node) { ctl_.fault_freeze_enter(node); }

void System::fault_freeze_exit(int node) { ctl_.fault_freeze_exit(node); }

bool System::node_fault_frozen(int node) const { return ctl_.fault_frozen(node); }

void System::crash_node(int node) { ctl_.crash_node(node); }

bool System::node_crashed(int node) const { return ctl_.crashed(node); }

void System::set_node_fault_rate(int node, double scale) {
  ctl_.set_node_fault_rate(node, scale);
}

void System::set_link_down(int node, bool down) {
  ctl_.set_link_down(node, down);
}

// --- Running -----------------------------------------------------------------------

void System::validate() const { diagnosis_.validate(); }

std::uint64_t System::progress_digest() const {
  return diagnosis_.progress_digest();
}

RunResult System::try_run() {
  while (interp_.unfinished_tasks() > 0) {
    if (!engine_.step()) {
      // No pending events but tasks remain: nothing can ever wake them.
      return diagnosis_.diagnose(RunStatus::kDeadlock);
    }
    if (now() - SimTime::zero() > cfg_.max_sim_time) {
      return diagnosis_.diagnose(RunStatus::kMaxSimTime);
    }
    if (cfg_.hang_timeout > SimDuration::zero() &&
        now() - interp_.last_progress() > cfg_.hang_timeout &&
        protocol_.in_flight_messages() == 0 &&
        diagnosis_.all_unfinished_comm_waiting()) {
      // Nothing on the wire, every survivor parked in communication, and
      // no action has retired for hang_timeout of simulated time: stuck.
      // (Spin-waiters keep generating quantum events, so the event queue
      // alone cannot distinguish this from forward progress.)
      return diagnosis_.diagnose(RunStatus::kHang);
    }
  }
  RunResult result;
  result.peak_in_flight_messages = protocol_.peak_in_flight_messages();
  result.peak_program_actions = interp_.peak_program_actions();
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

bool System::all_finished() const { return interp_.unfinished_tasks() == 0; }

const TaskStats& System::task_stats(TaskId t) const { return tasks_.at(t).stats; }

const std::string& System::task_name(TaskId t) const { return tasks_.at(t).name; }

int System::task_node(TaskId t) const { return tasks_.at(t).node; }

SimDuration System::total_true_cpu_time() const {
  SimDuration total{};
  for (const auto& tp : tasks_.all) total += tp->stats.true_cpu_time;
  return total;
}

SimTime System::group_finish_time(GroupId g) const {
  SimTime latest = SimTime::zero();
  for (const TaskId id : tasks_.members(g)) {
    assert(id.valid());
    const TaskStats& stats = tasks_.at(id).stats;
    assert(stats.finished && "group member still running");
    latest = std::max(latest, stats.end_time);
  }
  return latest;
}

SimTime System::last_finish_time() const {
  SimTime latest = SimTime::zero();
  for (const auto& tp : tasks_.all) {
    if (tp->stats.finished) latest = std::max(latest, tp->stats.end_time);
  }
  return latest;
}

}  // namespace smilab
