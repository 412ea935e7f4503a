#include "smilab/fault/fault_injector.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "smilab/sim/choice_hooks.h"

namespace smilab {

namespace {

void config_error(const std::string& what) {
  throw SimulationError(RunStatus::kConfigError, "FaultPlan: " + what);
}

void check_node(int node, int node_count, const char* kind) {
  if (node < 0 || node >= node_count) {
    config_error(std::string(kind) + " targets node " + std::to_string(node) +
                 " but the cluster has " + std::to_string(node_count) +
                 " node(s)");
  }
}

void check_interval(SimTime at, SimDuration duration, const char* kind) {
  if (at < SimTime::zero()) {
    config_error(std::string(kind) + " scheduled before t=0");
  }
  if (duration <= SimDuration::zero()) {
    config_error(std::string(kind) + " has non-positive duration");
  }
}

}  // namespace

FaultInjector::FaultInjector(System& sys, FaultPlan plan)
    : sys_(sys), plan_(std::move(plan)), rng_(sys.make_rng("fault/link")) {
  const int nodes = sys_.config().node_count;

  for (const NodeFreeze& f : plan_.freezes) {
    check_node(f.node, nodes, "freeze");
    check_interval(f.at, f.duration, "freeze");
  }
  // Freezes on one node must not overlap: the runtime models a fault stall
  // as a single whole-node condition, not a stack of them.
  std::vector<NodeFreeze> sorted = plan_.freezes;
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.node != b.node ? a.node < b.node : a.at < b.at;
  });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].node == sorted[i - 1].node &&
        sorted[i].at < sorted[i - 1].at + sorted[i - 1].duration) {
      config_error("overlapping freezes on node " +
                   std::to_string(sorted[i].node));
    }
  }
  for (const NodeCrash& c : plan_.crashes) {
    check_node(c.node, nodes, "crash");
    if (c.at < SimTime::zero()) config_error("crash scheduled before t=0");
  }
  for (const LinkDown& l : plan_.link_downs) {
    check_node(l.node, nodes, "link_down");
    check_interval(l.at, l.duration, "link_down");
  }
  for (const SlowNode& s : plan_.slow_nodes) {
    check_node(s.node, nodes, "slow");
    check_interval(s.at, s.duration, "slow");
    if (!(s.rate_scale > 0.0 && s.rate_scale <= 1.0)) {  // NaN fails too
      config_error("slow-node rate_scale must be in (0, 1], got " +
                   std::to_string(s.rate_scale));
    }
  }
  const auto& noise = plan_.link_noise;
  // Written so that NaN fails the range test.
  if (!(noise.drop_prob >= 0.0 && noise.drop_prob <= 1.0) ||
      !(noise.dup_prob >= 0.0 && noise.dup_prob <= 1.0)) {
    config_error("link noise probabilities must be in [0, 1]");
  }
  if (plan_.jitter.window < SimDuration::zero()) {
    config_error("jitter window must be non-negative");
  }
  if (plan_.jitter.steps < 1 || plan_.jitter.steps > 16) {
    config_error("jitter steps must be in [1, 16], got " +
                 std::to_string(plan_.jitter.steps));
  }
  if (plan_.jitter.active()) {
    // Re-check the freeze overlap with every interval expanded by the full
    // window: no jittered placement may collide, whichever offsets the
    // explorer picks.
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i].node == sorted[i - 1].node &&
          sorted[i].at < sorted[i - 1].at + sorted[i - 1].duration +
                             plan_.jitter.window) {
        config_error("freezes on node " + std::to_string(sorted[i].node) +
                     " may overlap under the jitter window");
      }
    }
  }

  // Fault start-time jitter (schedule exploration): each timed fault asks
  // the installed SchedulePolicy which of the plan's discrete offsets to
  // take, in plan order (freezes, crashes, link_downs, slow_nodes — the
  // same order the kFaultJitter choice points appear in a replay token).
  // Offset 0 — always, with no policy — is the plan's literal start time.
  // The whole interval shifts: durations never change under jitter.
  SchedulePolicy* policy = sys_.schedule_policy();
  auto jittered = [&](SimTime at) -> SimTime {
    if (!plan_.jitter.active()) return at;
    std::size_t step = 0;
    if (policy != nullptr) {
      step = policy->choose(ChoiceKind::kFaultJitter,
                            static_cast<std::size_t>(plan_.jitter.steps));
      assert(step < static_cast<std::size_t>(plan_.jitter.steps));
    }
    return at + nanoseconds(plan_.jitter.window.ns() *
                            static_cast<std::int64_t>(step) /
                            plan_.jitter.steps);
  };

  Engine& engine = sys_.engine();
  for (const NodeFreeze& f : plan_.freezes) {
    const SimTime at = jittered(f.at);
    engine.schedule_at(at,
                       [this, node = f.node] { sys_.fault_freeze_enter(node); });
    engine.schedule_at(at + f.duration,
                       [this, node = f.node] { sys_.fault_freeze_exit(node); });
  }
  for (const NodeCrash& c : plan_.crashes) {
    engine.schedule_at(jittered(c.at),
                       [this, node = c.node] { sys_.crash_node(node); });
  }
  for (const LinkDown& l : plan_.link_downs) {
    const SimTime at = jittered(l.at);
    engine.schedule_at(at, [this, node = l.node] {
      sys_.set_link_down(node, /*down=*/true);
    });
    engine.schedule_at(at + l.duration, [this, node = l.node] {
      sys_.set_link_down(node, /*down=*/false);
    });
  }
  for (const SlowNode& s : plan_.slow_nodes) {
    const SimTime at = jittered(s.at);
    engine.schedule_at(at, [this, node = s.node, scale = s.rate_scale] {
      sys_.set_node_fault_rate(node, scale);
    });
    engine.schedule_at(at + s.duration, [this, node = s.node] {
      sys_.set_node_fault_rate(node, 1.0);
    });
  }
  if (noise.drop_prob > 0.0 || noise.dup_prob > 0.0) {
    sys_.set_link_fault_model(this);
    registered_ = true;
  }
}

FaultInjector::~FaultInjector() {
  if (registered_) sys_.set_link_fault_model(nullptr);
}

bool FaultInjector::should_drop(int /*src_node*/, int /*dst_node*/) {
  const double p = plan_.link_noise.drop_prob;
  return p > 0.0 && rng_.next_double() < p;
}

bool FaultInjector::should_duplicate(int /*src_node*/, int /*dst_node*/) {
  const double p = plan_.link_noise.dup_prob;
  return p > 0.0 && rng_.next_double() < p;
}

}  // namespace smilab
