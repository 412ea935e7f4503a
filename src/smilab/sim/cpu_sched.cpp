#include "smilab/sim/cpu_sched.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>

#include "smilab/sim/node_control.h"
#include "smilab/sim/run_result.h"

namespace smilab {

CpuSched::CpuSched(const SystemConfig& cfg, Engine& engine,
                   const Cluster& cluster, TaskTable& tasks, const Rng& master,
                   Interpreter& interp, const NodeControl& ctl)
    : cfg_(cfg),
      engine_(engine),
      cluster_(cluster),
      tasks_(tasks),
      interp_(interp),
      ctl_(ctl),
      per_node_(cfg.machine.logical_cpus()),
      cpus_(static_cast<std::size_t>(cfg.node_count) *
            static_cast<std::size_t>(per_node_)),
      node_speed_(static_cast<std::size_t>(cfg.node_count), 1.0) {
  if (cfg_.node_speed_sigma > 0) {
    Rng speed_rng = master.fork(stream_label("node_speed"));
    for (auto& s : node_speed_) {
      s = std::clamp(speed_rng.normal(1.0, cfg_.node_speed_sigma), 0.5, 1.5);
    }
  }
}

// --- Placement -----------------------------------------------------------------

int CpuSched::place(int node_id) const {
  const Node& node = cluster_.node(node_id);
  int best = -1;
  // Linux-style preference: least-loaded CPU, idle physical cores before
  // HTT siblings of busy cores, lowest index as the deterministic tie-break.
  long best_key0 = 0, best_key1 = 0;
  for (int i = 0; i < node.cpu_count(); ++i) {
    if (!node.is_online(i)) continue;
    const int sib = node.cpu(i).sibling;
    const int sib_assigned =
        (sib >= 0 && node.is_online(sib)) ? cpu(node_id, sib).assigned : 0;
    const long key0 = cpu(node_id, i).assigned;
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

void CpuSched::admit(TaskImpl& t) {
  assert(cluster_.node(t.node).is_online(t.cpu) && "placed on offline CPU");
  cpu(t.node, t.cpu).assigned += 1;
  make_ready(t);
}

// --- Scheduling ------------------------------------------------------------------

void CpuSched::make_ready(TaskImpl& t) {
  assert(!t.on_cpu);
  if (t.queued) return;
  t.state = TaskImpl::State::kReady;
  t.queued = true;
  auto& cs = cpu(t.node, t.cpu);
  cs.runqueue.push_back(t.id.value);
  if (cs.current < 0) {
    dispatch(t.node, t.cpu);
  } else {
    arm_quantum(t.node, t.cpu);
  }
}

void CpuSched::dispatch(int node, int cpu_id) {
  auto& cs = cpu(node, cpu_id);
  if (cs.frozen || cs.current >= 0) return;
  if (cs.runqueue.empty()) steal_into(node, cpu_id);
  if (cs.runqueue.empty()) return;
  const std::int32_t idx = cs.runqueue.front();
  cs.runqueue.erase(cs.runqueue.begin());
  TaskImpl& t = tasks_[idx];
  assert(t.queued);
  t.queued = false;
  t.state = TaskImpl::State::kRunning;
  t.on_cpu = true;
  cs.current = idx;
  if (cs.last_task >= 0 && cs.last_task != idx) {
    t.pending_overhead += cfg_.os.context_switch;
  }
  cs.last_task = idx;
  arm_quantum(node, cpu_id);
  sibling_rate_changed(node, cpu_id);
  begin_running(t);
}

void CpuSched::arm_quantum(int node, int cpu_id) {
  auto& cs = cpu(node, cpu_id);
  if (cs.quantum_ev.valid() || cs.frozen || cs.current < 0 || cs.runqueue.empty())
    return;
  cs.quantum_ev = engine_.schedule_after(
      cfg_.os.quantum, [this, node, cpu_id] {
        auto& s = cpu(node, cpu_id);
        s.quantum_ev = EventId{};
        if (s.frozen || s.current < 0 || s.runqueue.empty()) return;
        preempt_current(node, cpu_id);
      });
}

// CFS-style idle balancing: an idle CPU pulls a waiting task from the most
// loaded runqueue of its node. Without this, uneven thread counts on HTT
// configurations leave whole cores idle while a shared core grinds — real
// kernels rebalance, and the paper's Convolve (a block work queue) depends
// on it. Tasks with hard affinity (TaskSpec::pinned_cpu) are never moved.
void CpuSched::steal_into(int node, int cpu_id) {
  const Node& topo = cluster_.node(node);
  int donor = -1;
  std::size_t donor_depth = 0;
  for (int i = 0; i < topo.cpu_count(); ++i) {
    if (i == cpu_id || !topo.is_online(i)) continue;
    std::size_t stealable = 0;
    for (const std::int32_t idx : cpu(node, i).runqueue) {
      if (!tasks_[idx].pinned) ++stealable;
    }
    if (stealable > donor_depth) {
      donor = i;
      donor_depth = stealable;
    }
  }
  if (donor < 0 || donor_depth == 0) return;
  auto& donor_queue = cpu(node, donor).runqueue;
  // Take the most recently queued unpinned task (coldest cache footprint).
  for (auto it = donor_queue.rbegin(); it != donor_queue.rend(); ++it) {
    TaskImpl& t = tasks_[*it];
    if (t.pinned) continue;
    assert(t.queued && t.cpu == donor);
    const std::int32_t idx = *it;
    donor_queue.erase(std::next(it).base());
    t.cpu = cpu_id;
    cpu(node, cpu_id).runqueue.push_back(idx);
    return;
  }
}

void CpuSched::preempt_current(int node, int cpu_id) {
  auto& cs = cpu(node, cpu_id);
  assert(cs.current >= 0);
  TaskImpl& t = tasks_[cs.current];
  stop_running(t, /*keep_on_cpu=*/false);
  make_ready(t);
  dispatch(node, cpu_id);
}

// --- Execution progress ----------------------------------------------------------

bool CpuSched::sibling_busy(const TaskImpl& t) const {
  const Node& node = cluster_.node(t.node);
  const int sib = node.cpu(t.cpu).sibling;
  if (sib < 0 || !node.is_online(sib)) return false;
  const auto& scs = cpu(t.node, sib);
  if (scs.current < 0) return false;
  const TaskImpl& other = tasks_[scs.current];
  // A spin-waiting sibling (no work) uses PAUSE loops that release the
  // shared execution ports; only real work contends.
  return other.work_left > SimDuration::zero();
}

bool CpuSched::node_htt_active(int node) const {
  const Node& n = cluster_.node(node);
  if (n.spec().threads_per_core < 2) return false;
  for (int i = 0; i < n.cpu_count(); ++i) {
    const auto& c = n.cpu(i);
    if (c.online && c.sibling >= 0 && n.is_online(c.sibling)) return true;
  }
  return false;
}

double CpuSched::current_rate(const TaskImpl& t) const {
  double rate = node_speed_[static_cast<std::size_t>(t.node)] *
                ctl_.fault_rate(t.node) *
                execution_rate(t.profile, sibling_busy(t));
  if (!cfg_.os.tickless) {
    rate *= 1.0 - cfg_.os.tick_cost / cfg_.os.tick_period;
  }
  return rate;
}

void CpuSched::settle(TaskImpl& t) {
  if (!t.on_cpu) return;
  const SimDuration elapsed = engine_.now() - t.run_since;
  if (elapsed <= SimDuration::zero()) return;
  t.stats.os_view_cpu_time += elapsed;
  t.stats.true_cpu_time += elapsed;
  if (t.work_left > SimDuration::zero() && t.rate > 0) {
    const auto progress = static_cast<std::int64_t>(
        std::llround(static_cast<double>(elapsed.ns()) * t.rate));
    t.work_left = SimDuration{std::max<std::int64_t>(0, t.work_left.ns() - progress)};
  }
  t.run_since = engine_.now();
}

void CpuSched::begin_running(TaskImpl& t) {
  assert(t.on_cpu);
  assert(!cpu(t.node, t.cpu).frozen);
  t.run_since = engine_.now();
  t.rate = current_rate(t);
  if (t.work_left > SimDuration::zero()) {
    reschedule_completion(t);
  } else {
    interp_.step_action(t);
  }
}

void CpuSched::stop_running(TaskImpl& t, bool keep_on_cpu) {
  settle(t);
  ++t.epoch;
  engine_.cancel(t.completion_ev);
  t.completion_ev = EventId{};
  if (!keep_on_cpu && t.on_cpu) {
    auto& cs = cpu(t.node, t.cpu);
    assert(cs.current == t.id.value);
    cs.current = -1;
    t.on_cpu = false;
    engine_.cancel(cs.quantum_ev);
    cs.quantum_ev = EventId{};
    sibling_rate_changed(t.node, t.cpu);
  }
}

void CpuSched::reschedule_completion(TaskImpl& t) {
  assert(t.on_cpu && t.work_left > SimDuration::zero());
  ++t.epoch;
  engine_.cancel(t.completion_ev);
  assert(t.rate > 0);
  SimDuration d = scale(t.work_left, 1.0 / t.rate);
  if (d <= SimDuration::zero()) d = SimDuration{1};
  t.completion_ev = engine_.schedule_after(d, [this, id = t.id, ep = t.epoch] {
    TaskImpl& task_ref = tasks_.at(id);
    if (task_ref.epoch != ep) return;
    on_work_complete(task_ref);
  });
}

void CpuSched::on_work_complete(TaskImpl& t) {
  settle(t);
  if (t.work_left > SimDuration{1}) {
    // Integer rounding left a sliver; finish it.
    reschedule_completion(t);
    return;
  }
  t.work_left = SimDuration::zero();
  ++t.epoch;
  t.completion_ev = EventId{};
  interp_.step_action(t);
}

void CpuSched::sibling_rate_changed(int node, int cpu_id) {
  const int sib = cluster_.node(node).cpu(cpu_id).sibling;
  if (sib >= 0) rerate(node, sib);
}

// The execution rate of the task running on (node, cpu) may have changed
// (HTT sibling occupancy, slow-node fault): bank progress at the old rate
// and re-pace its completion.
void CpuSched::rerate(int node, int cpu_id) {
  auto& cs = cpu(node, cpu_id);
  if (cs.current < 0 || cs.frozen) return;
  TaskImpl& t = tasks_[cs.current];
  if (!t.on_cpu) return;
  settle(t);
  const double new_rate = current_rate(t);
  if (new_rate == t.rate) return;
  t.rate = new_rate;
  if (t.work_left > SimDuration::zero()) reschedule_completion(t);
}

void CpuSched::start_work(TaskImpl& t, SimDuration amount) {
  assert(t.on_cpu);
  amount += t.pending_overhead;
  t.pending_overhead = SimDuration::zero();
  if (amount <= SimDuration::zero()) amount = SimDuration{1};
  t.work_left = amount;
  t.run_since = engine_.now();
  t.rate = current_rate(t);
  sibling_rate_changed(t.node, t.cpu);  // we went from idle/spin to busy
  reschedule_completion(t);
}

void CpuSched::evict(TaskImpl& t) {
  auto& cs = cpu(t.node, t.cpu);
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
  t.work_left = SimDuration::zero();
  t.pending_overhead = SimDuration::zero();
}

// --- Freeze and thaw ---------------------------------------------------------

// Stop one CPU: its timeslice is cancelled and the current task's progress
// is banked, with its completion cancelled, until thaw_cpu.
void CpuSched::freeze_cpu(int node, int cpu_id) {
  auto& cs = cpu(node, cpu_id);
  cs.frozen = true;
  engine_.cancel(cs.quantum_ev);
  cs.quantum_ev = EventId{};
  if (cs.current >= 0) {
    stop_running(tasks_[cs.current], /*keep_on_cpu=*/true);
  }
}

// Restart a frozen CPU: the current task resumes from now and gets back the
// timeslice the freeze cancelled (a spinning waiter must not starve an
// oversubscribed CPU's queue).
void CpuSched::thaw_cpu(int node, int cpu_id) {
  auto& cs = cpu(node, cpu_id);
  cs.frozen = false;
  if (cs.current >= 0) {
    begin_running(tasks_[cs.current]);
    arm_quantum(node, cpu_id);
  }
}

}  // namespace smilab
