// NIC pause corner cases. A pause (SMM, fault freeze, link-down, crash)
// stops both directions of a node's NIC; the server must split its FIFO
// exactly where the booked services say: an entry whose service ends at the
// pause instant stays with the server and pays the stall, an ingress entry
// already in propagation flight is pause-immune, and overlapping causes
// compose by refcount. Every scenario here keeps a multi-message backlog on
// both directions of a two-node link and places its pauses on those exact
// instants.
//
// A probe run reads every injection instant from the completed-action ring
// and replays the FIFO booking from the wire model (start = max(injection,
// previous end), end = start + wire_xmit), so the pause instants follow the
// schedule instead of hard-coded nanoseconds. The pinned hashes were
// recorded before the NIC server was reduced to a single booked FIFO; if
// one fails, pause handling CHANGED SIMULATION BEHAVIOUR.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "smilab/fault/fault_injector.h"
#include "smilab/fault/fault_plan.h"
#include "smilab/sim/system.h"

namespace smilab {
namespace {

// FNV-1a over 64-bit words (integer nanoseconds and counters only).
class TraceHash {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void mix_signed(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

constexpr int kBurst = 8;
constexpr int kRounds = 2;
constexpr std::int64_t kBytes = 4096;  // eager
constexpr std::size_t kIsendKind = 6;
static_assert(std::is_same_v<std::variant_alternative_t<kIsendKind, Action>, Isend>);

SystemConfig two_node_cfg() {
  SystemConfig cfg;
  cfg.machine = MachineSpec::wyeast_e5520();
  cfg.node_count = 2;
  cfg.net = NetworkParams::wyeast();  // TCP recovery on: resumes draw
  cfg.seed = 3;
  return cfg;
}

// Rank r on node r. Each round both ranks inject a burst at each other,
// then receive the peer's burst, so both directions of both NICs back up.
void spawn_exchange(System& sys) {
  const GroupId g = sys.create_group(2);
  for (int r = 0; r < 2; ++r) {
    const int peer = 1 - r;
    std::vector<Action> prog;
    for (int round = 0; round < kRounds; ++round) {
      prog.push_back(Compute{microseconds(40 + 25 * r)});
      std::vector<int> handles;
      for (int i = 0; i < kBurst; ++i) {
        prog.push_back(Isend{peer, kBytes, i, i});
        handles.push_back(i);
      }
      for (int i = 0; i < kBurst; ++i) {
        prog.push_back(Irecv{peer, i, kBurst + i});
        handles.push_back(kBurst + i);
      }
      prog.push_back(WaitAll{handles});
    }
    sys.spawn_member(g, r, TaskSpec::with_actions("r" + std::to_string(r), r,
                                                  std::move(prog)));
  }
}

// Booked service ends of the unpaused run, per node and direction.
struct Schedule {
  std::array<std::vector<SimTime>, 2> egress_end;
  std::array<std::vector<SimTime>, 2> ingress_end;
  SimDuration latency;
};

Schedule probe_schedule() {
  System sys{two_node_cfg()};
  sys.set_action_ring_capacity(1024);
  spawn_exchange(sys);
  sys.run();
  const SimDuration xmit = sys.network().wire_xmit(kBytes);
  Schedule s;
  s.latency = sys.network().latency();
  const ActionRing& ring = sys.action_ring();
  for (int node = 0; node < 2; ++node) {
    SimTime busy;
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const CompletedAction& a = ring.at(i);
      if (a.task != node || a.kind != static_cast<int>(kIsendKind)) continue;
      busy = std::max(a.end, busy) + xmit;  // injection -> egress booking
      s.egress_end[static_cast<std::size_t>(node)].push_back(busy);
    }
  }
  // Each ingress serves the other node's egress handoffs in order.
  for (int node = 0; node < 2; ++node) {
    SimTime busy;
    for (const SimTime handoff : s.egress_end[static_cast<std::size_t>(1 - node)]) {
      busy = std::max(handoff, busy) + xmit;
      s.ingress_end[static_cast<std::size_t>(node)].push_back(busy);
    }
  }
  for (const auto& ends : s.egress_end) {
    EXPECT_EQ(ends.size(), static_cast<std::size_t>(kBurst * kRounds));
  }
  return s;
}

const Schedule& schedule() {
  static const Schedule s = probe_schedule();
  return s;
}

struct SmmWindow {
  int node = -1;  ///< -1: none
  SimTime enter;
  SimDuration length;
};

std::uint64_t paused_run_hash(const FaultPlan& plan, SmmWindow smm = {}) {
  System sys{two_node_cfg()};
  const FaultInjector injector{sys, plan};
  if (smm.node >= 0) {
    const SmmInterval iv{smm.node, smm.enter, smm.enter + smm.length};
    sys.engine().schedule_at(iv.enter, [&sys, iv] { sys.smm_enter(iv.node); });
    sys.engine().schedule_at(iv.exit, [&sys, iv] { sys.smm_exit(iv.node, iv); });
  }
  spawn_exchange(sys);
  sys.run();
  sys.validate();
  EXPECT_EQ(sys.transport_stats().pool_live, 0);
  TraceHash h;
  for (int t = 0; t < sys.task_count(); ++t) {
    const TaskStats& s = sys.task_stats(TaskId{t});
    h.mix_signed(s.end_time.ns());
    h.mix_signed(s.true_cpu_time.ns());
    h.mix_signed(s.os_view_cpu_time.ns());
    h.mix_signed(s.messages_received);
  }
  h.mix_signed(sys.inter_node_bytes());
  return h.value();
}

// Backlog positions the pauses land on: the first burst's second and fifth
// messages, and the second burst's third.
constexpr std::array<std::size_t, 3> kPositions{1, 4, kBurst + 2};

constexpr std::uint64_t kEgressTieHash = 9586848601709622947ull;
constexpr std::uint64_t kIngressTieHash = 5318230553835680162ull;
constexpr std::uint64_t kPropagationHash = 6640799611741202509ull;
constexpr std::uint64_t kOverlapHash = 11545164660138751152ull;

// A pause at the exact instant an egress service ends (its handoff event
// not yet fired): the message stays with the paused server.
TEST(NicPauseTest, PauseAtEgressServiceEndHashPinned) {
  const Schedule& s = schedule();
  TraceHash h;
  for (const std::size_t k : kPositions) {
    FaultPlan plan;
    plan.link_down(0, s.egress_end[0][k], microseconds(150));
    h.mix(paused_run_hash(plan));
  }
  EXPECT_EQ(h.value(), kEgressTieHash);
}

// The same tie on ingress: service ends at the pause instant, propagation
// has not begun, so the message pays the stall and the recovery draw.
TEST(NicPauseTest, PauseAtIngressServiceEndHashPinned) {
  const Schedule& s = schedule();
  TraceHash h;
  for (const std::size_t k : kPositions) {
    FaultPlan plan;
    plan.link_down(1, s.ingress_end[1][k], microseconds(150));
    h.mix(paused_run_hash(plan));
  }
  EXPECT_EQ(h.value(), kIngressTieHash);
}

// A pause while an ingress message is in propagation flight (served, not
// yet arrived): that message arrives on time; its successor, mid-service,
// stalls.
TEST(NicPauseTest, PauseDuringIngressPropagationHashPinned) {
  const Schedule& s = schedule();
  TraceHash h;
  for (const std::size_t k : kPositions) {
    const SimTime served = s.ingress_end[1][k];
    FaultPlan plan;
    plan.link_down(1, served + SimDuration{1}, microseconds(150));
    h.mix(paused_run_hash(plan));
    FaultPlan freeze;
    freeze.freeze(1, served + scale(s.latency, 0.5), microseconds(90));
    h.mix(paused_run_hash(freeze));
  }
  EXPECT_EQ(h.value(), kPropagationHash);
}

// Overlapping causes compose by refcount: the server resumes (and draws its
// recovery) only when the last cause clears, measured from the first.
TEST(NicPauseTest, OverlappingPauseCausesHashPinned) {
  const Schedule& s = schedule();
  TraceHash h;
  for (const std::size_t k : kPositions) {
    const SimTime eg = s.egress_end[0][k];
    const SimTime in = s.ingress_end[1][k];
    {  // link-down, then a fault freeze that outlasts it
      FaultPlan plan;
      plan.link_down(0, eg, microseconds(200)).freeze(0, eg + microseconds(100),
                                                      microseconds(200));
      h.mix(paused_run_hash(plan));
    }
    {  // a link-down nested inside a fault freeze, starting at an ingress tie
      FaultPlan plan;
      plan.freeze(1, in, microseconds(300))
          .link_down(1, in + microseconds(50), microseconds(100));
      h.mix(paused_run_hash(plan));
    }
    {  // SMM overlapping a link-down on the receiving node
      FaultPlan plan;
      plan.link_down(1, in, microseconds(120));
      h.mix(paused_run_hash(plan, {1, in + microseconds(60), microseconds(150)}));
    }
    {  // both nodes down at once, from an egress tie
      FaultPlan plan;
      plan.link_down(0, eg, microseconds(130)).link_down(1, eg, microseconds(70));
      h.mix(paused_run_hash(plan));
    }
  }
  EXPECT_EQ(h.value(), kOverlapHash);
}

}  // namespace
}  // namespace smilab
