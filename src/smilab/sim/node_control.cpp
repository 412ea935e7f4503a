#include "smilab/sim/node_control.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "smilab/sim/cpu_sched.h"
#include "smilab/sim/interpreter.h"
#include "smilab/sim/nic.h"
#include "smilab/sim/protocol.h"

namespace smilab {

const char* to_string(FaultRecord::Kind kind) {
  switch (kind) {
    case FaultRecord::Kind::kFreeze: return "FREEZE";
    case FaultRecord::Kind::kCrash: return "CRASH";
    case FaultRecord::Kind::kLinkDown: return "LINKDOWN";
    case FaultRecord::Kind::kSlowNode: return "SLOW";
  }
  return "?";
}

NodeControl::NodeControl(const SystemConfig& cfg, Engine& engine,
                         const Cluster& cluster, TaskTable& tasks,
                         const Rng& master, CpuSched& sched,
                         Interpreter& interp, Protocol& protocol, Nic& nic)
    : cfg_(cfg),
      engine_(engine),
      cluster_(cluster),
      tasks_(tasks),
      sched_(sched),
      interp_(interp),
      protocol_(protocol),
      nic_(nic),
      nodes_(static_cast<std::size_t>(cfg.node_count)),
      fault_rate_(static_cast<std::size_t>(cfg.node_count), 1.0),
      smm_acct_(cfg.node_count),
      refill_rng_(master.fork(stream_label("refill"))),
      htt_refill_run_factor_(
          master.fork(stream_label("htt_luck")).uniform(0.5, 1.8)) {}

bool NodeControl::defer_wake(const TaskImpl& t) {
  NodeState& ns = state(t.node);
  if (!ns.in_smm && !ns.fault_frozen) return false;
  ns.deferred_wakes.push_back(t.id.value);
  return true;
}

// --- Freeze and thaw ---------------------------------------------------------

// Stop a whole node: both NIC directions (TCP stalls with the host) and
// every online CPU not already stopped by another cause.
void NodeControl::freeze_node(int node) {
  nic_.pause(node);
  const Node& topo = cluster_.node(node);
  for (int i = 0; i < topo.cpu_count(); ++i) {
    if (topo.is_online(i) && !sched_.cpu(node, i).frozen) {
      sched_.freeze_cpu(node, i);
    }
  }
}

// Restart every online CPU of a node whose last freeze cause cleared (its
// NICs are resumed by the caller). On an SMM exit (`smm` non-null) each
// interrupted task is charged first: the OS never saw the freeze, so it
// keeps charging the task, and its caches refill. Timer wakes deferred by
// the freeze are serviced next, then idle CPUs dispatch.
void NodeControl::thaw_node(int node, const SmmCharge* smm) {
  NodeState& ns = state(node);
  const Node& topo = cluster_.node(node);
  for (int i = 0; i < topo.cpu_count(); ++i) {
    if (!topo.is_online(i)) continue;
    const std::int32_t current = sched_.cpu(node, i).current;
    if (smm != nullptr && current >= 0) {
      TaskImpl& t = tasks_[current];
      t.stats.os_view_cpu_time += smm->frozen_for;
      t.stats.smm_stolen_time += smm->frozen_for;
      t.stats.smm_hits += 1;
      apply_refill(t, smm->refill);
    }
    sched_.thaw_cpu(node, i);
  }
  const std::vector<std::int32_t> wakes = std::move(ns.deferred_wakes);
  ns.deferred_wakes.clear();
  for (const std::int32_t idx : wakes) {
    TaskImpl& t = tasks_[idx];
    if (t.state == TaskImpl::State::kSleeping) sched_.make_ready(t);
  }
  for (int i = 0; i < topo.cpu_count(); ++i) {
    if (topo.is_online(i)) sched_.dispatch(node, i);
  }
}

void NodeControl::apply_refill(TaskImpl& t, SimDuration frozen_for) {
  if (cfg_.machine.hot_set_bytes <= 0) return;  // nothing to re-warm
  // How much of the hot state the handler actually evicted: a millisecond
  // handler touches almost nothing; a long scan flushes everything.
  const double evicted =
      std::min(1.0, frozen_for / cfg_.smm_full_flush_residency);
  SimDuration refill = scale(
      refill_work(t.profile, cfg_.machine.hot_set_bytes,
                  cfg_.machine.cache_refill_bw, sched_.sibling_busy(t),
                  refill_rng_),
      evicted);
  if (sched_.node_htt_active(t.node)) {
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
                              htt_refill_run_factor_ *
                              refill_rng_.uniform(0.7, 1.3);
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

// --- SMM -----------------------------------------------------------------------

void NodeControl::smm_enter(int node) {
  NodeState& ns = state(node);
  assert(!ns.in_smm && "nested SMM entry");
  ns.in_smm = true;
  ns.freeze_start = engine_.now();
  freeze_node(node);
}

void NodeControl::smm_exit(int node, const SmmInterval& interval) {
  NodeState& ns = state(node);
  assert(ns.in_smm);
  ns.in_smm = false;
  smm_acct_.record(interval);
  nic_.resume(node);
  if (ns.fault_frozen || ns.crashed) {
    // An injected fault stall outlasts the SMI (or the node died inside
    // it): keep the CPUs down — fault_freeze_exit resumes them. The hung
    // node gets no refill or OS-view charge for this interval; nothing on
    // it observed the handler return.
    ns.last_smm_exit = engine_.now();
    return;
  }

  const SimDuration frozen_for = engine_.now() - ns.freeze_start;
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
  ns.last_smm_exit = engine_.now();
  const SmmCharge charge{frozen_for, scale(frozen_for, warm_fraction)};
  thaw_node(node, &charge);
}

// --- OS-noise preemption -------------------------------------------------------

void NodeControl::preempt_cpu(int node, int cpu) {
  (void)cluster_.node(node).cpu(cpu);  // std::out_of_range on a bad index
  assert(!in_smm(node) && "use SMM entry for whole-node freezes");
  assert(!sched_.cpu(node, cpu).frozen && "CPU already preempted");
  sched_.freeze_cpu(node, cpu);
}

void NodeControl::resume_cpu(int node, int cpu) {
  (void)cluster_.node(node).cpu(cpu);  // std::out_of_range on a bad index
  if (in_smm(node)) return;  // SMM superseded; its exit restores the CPU
  if (!sched_.cpu(node, cpu).frozen) return;  // already restored by an SMM exit
  // OS-level noise is visible to the kernel: unlike SMM it is NOT charged
  // to the victim task's CPU time, so no os_view adjustment here.
  sched_.thaw_cpu(node, cpu);
  sched_.dispatch(node, cpu);
}

// --- Fault injection hooks -----------------------------------------------------

void NodeControl::close_fault_record(FaultRecord::Kind kind, int node) {
  for (auto it = fault_log_.rbegin(); it != fault_log_.rend(); ++it) {
    if (it->kind == kind && it->node == node && it->end < SimTime::zero()) {
      it->end = engine_.now();
      return;
    }
  }
  assert(false && "closing a fault interval that was never opened");
}

void NodeControl::fault_freeze_enter(int node) {
  NodeState& ns = state(node);
  if (ns.crashed) return;
  assert(!ns.fault_frozen && "nested fault freeze");
  ns.fault_frozen = true;
  fault_log_.push_back(
      {FaultRecord::Kind::kFreeze, node, engine_.now(), SimTime{-1}});
  freeze_node(node);  // inside SMM the CPUs are already down
}

void NodeControl::fault_freeze_exit(int node) {
  NodeState& ns = state(node);
  if (ns.crashed) return;  // the crash superseded the stall
  assert(ns.fault_frozen);
  ns.fault_frozen = false;
  close_fault_record(FaultRecord::Kind::kFreeze, node);
  nic_.resume(node);
  if (ns.in_smm) return;  // SMM still holds the node; its exit resumes CPUs
  // Unlike smm_exit there is no refill penalty and no OS-view charge: a
  // hang stops the kernel's clocks along with everything else.
  thaw_node(node, nullptr);
}

void NodeControl::crash_node(int node) {
  NodeState& ns = state(node);
  if (ns.crashed) return;
  ns.crashed = true;
  if (ns.fault_frozen) {
    ns.fault_frozen = false;
    close_fault_record(FaultRecord::Kind::kFreeze, node);
  }
  fault_log_.push_back(
      {FaultRecord::Kind::kCrash, node, engine_.now(), engine_.now()});
  nic_.silence(node);
  // Fail-stop: every task placed here dies where it stands.
  for (const auto& tp : tasks_.all) {
    TaskImpl& t = *tp;
    if (t.node != node || t.stats.finished || t.stats.failed) continue;
    sched_.evict(t);
    interp_.kill(t);
    protocol_.drop_task(t);
  }
  ns.deferred_wakes.clear();
}

void NodeControl::set_node_fault_rate(int node, double scale) {
  assert(scale > 0.0 && "a zero rate is a freeze, not a slow node");
  double& slot = fault_rate_.at(static_cast<std::size_t>(node));
  if (slot == scale) return;
  if (slot == 1.0) {
    fault_log_.push_back(
        {FaultRecord::Kind::kSlowNode, node, engine_.now(), SimTime{-1}});
  } else if (scale == 1.0) {
    close_fault_record(FaultRecord::Kind::kSlowNode, node);
  }
  slot = scale;
  if (state(node).crashed) return;
  // Re-pace everything currently executing on the node.
  const Node& topo = cluster_.node(node);
  for (int i = 0; i < topo.cpu_count(); ++i) {
    if (topo.is_online(i)) sched_.rerate(node, i);
  }
}

void NodeControl::set_link_down(int node, bool down) {
  if (state(node).crashed) return;
  if (down) {
    fault_log_.push_back(
        {FaultRecord::Kind::kLinkDown, node, engine_.now(), SimTime{-1}});
    nic_.pause(node);
  } else {
    close_fault_record(FaultRecord::Kind::kLinkDown, node);
    nic_.resume(node);
  }
}

}  // namespace smilab
