// Freeze compositions. Three mechanisms stop a node's CPUs: SMM entry, an
// injected fault freeze, and a single-CPU OS-noise preemption; a crash
// stops the node for good. Whichever cause releases a CPU last resumes it,
// and only an SMM exit charges refill and OS-view time. Each scenario here
// overlaps two causes on node 0 of a small ring job (rendezvous and eager
// traffic, spin and blocking waiters, a timer sleeper sharing rank 0's CPU
// so wakes are deferred and timeslicing must re-arm) and pins the complete
// outcome. The geometry of every overlap is asserted from the recorded SMM
// interval, so a pin cannot silently stop covering its case.
//
// The pinned hashes were recorded before the freeze and thaw paths were
// merged into shared helpers; if one fails, a freeze transition CHANGED
// SIMULATION BEHAVIOUR.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "smilab/fault/fault_injector.h"
#include "smilab/fault/fault_plan.h"
#include "smilab/noise/injector.h"
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

constexpr int kNodes = 2;
constexpr int kRanksPerNode = 2;
constexpr int kRanks = kNodes * kRanksPerNode;
constexpr int kIters = 120;
// SMM on every node enters at this phase and lasts 100-110 ms.
constexpr SimDuration kSmmPhase = milliseconds(100);

SystemConfig compose_cfg() {
  SystemConfig cfg;
  cfg.machine = MachineSpec::wyeast_e5520();
  cfg.node_count = kNodes;
  cfg.net = NetworkParams::wyeast();  // TCP recovery on: resumes draw
  cfg.smi = SmiConfig::long_every_second();
  cfg.smi.fixed_initial_phase = kSmmPhase;
  cfg.seed = 11;
  return cfg;
}

// Ring ranks (block-placed, odd ranks block instead of spinning) exchange
// an eager and a rendezvous message per iteration; one sleeper per node is
// pinned to CPU 0, which rank 0 of that node also occupies (so it runs
// when rank 0's timeslice expires).
void spawn_job(System& sys) {
  const GroupId g = sys.create_group(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    const int right = (r + 1) % kRanks;
    const int left = (r + kRanks - 1) % kRanks;
    std::vector<Action> prog;
    for (int it = 0; it < kIters; ++it) {
      prog.push_back(Compute{microseconds(3000 + 250 * r)});
      prog.push_back(SendRecv{right, 2048, 2 * it, left, 2 * it});
      prog.push_back(SendRecv{left, 256 * 1024, 2 * it + 1, right, 2 * it + 1});
    }
    TaskSpec spec = TaskSpec::with_actions("r" + std::to_string(r),
                                           r / kRanksPerNode, std::move(prog));
    if (r % 2 == 1) spec.wait_policy = WaitPolicy::kBlock;
    sys.spawn_member(g, r, std::move(spec));
  }
  for (int node = 0; node < kNodes; ++node) {
    // The first timer expires at about 126 ms, inside every SMM interval
    // below, so the wake is deferred to the thaw.
    std::vector<Action> prog{Sleep{milliseconds(120)}};
    for (int it = 0; it < 20; ++it) {
      prog.push_back(Compute{microseconds(300)});
      prog.push_back(Sleep{milliseconds(25)});
    }
    TaskSpec spec = TaskSpec::with_actions("sleeper" + std::to_string(node),
                                           node, std::move(prog));
    spec.pinned_cpu = 0;
    sys.spawn(std::move(spec));
    TaskSpec hog = TaskSpec::with_actions(
        "hog" + std::to_string(node), node,
        std::vector<Action>(60, Action{Compute{milliseconds(4)}}));
    hog.pinned_cpu = 1;
    sys.spawn(std::move(hog));
  }
}

std::uint64_t outcome_hash(const System& sys, const RunResult& run) {
  TraceHash h;
  h.mix(static_cast<std::uint64_t>(run.status));
  h.mix_signed(sys.now().ns());
  for (int t = 0; t < sys.task_count(); ++t) {
    const TaskStats& s = sys.task_stats(TaskId{t});
    h.mix_signed(s.end_time.ns());
    h.mix_signed(s.os_view_cpu_time.ns());
    h.mix_signed(s.true_cpu_time.ns());
    h.mix_signed(s.smm_stolen_time.ns());
    h.mix_signed(s.refill_overhead.ns());
    h.mix_signed(s.smm_hits);
    h.mix_signed(s.messages_sent);
    h.mix_signed(s.messages_received);
    h.mix_signed(s.bytes_sent);
    h.mix((s.finished ? 1u : 0u) | (s.failed ? 2u : 0u));
  }
  for (const SmmInterval& i : sys.smm_accounting().intervals()) {
    h.mix_signed(i.node);
    h.mix_signed(i.enter.ns());
    h.mix_signed(i.exit.ns());
  }
  for (const FaultRecord& f : sys.fault_log()) {
    h.mix(static_cast<std::uint64_t>(f.kind));
    h.mix_signed(f.node);
    h.mix_signed(f.start.ns());
    h.mix_signed(f.end.ns());
  }
  h.mix_signed(sys.inter_node_bytes());
  h.mix_signed(sys.peak_in_flight_messages());
  h.mix_signed(sys.transport_failures());
  h.mix_signed(static_cast<std::int64_t>(run.diagnosis.ranks.size()));
  return h.value();
}

struct Outcome {
  std::uint64_t hash = 0;
  SmmInterval smm;  ///< node 0's first SMM interval
  SimTime end;      ///< when the run stopped (finished or diagnosed)
};

Outcome run_job(System& sys) {
  spawn_job(sys);
  const RunResult run = sys.try_run();
  sys.validate();
  Outcome out{outcome_hash(sys, run), {}, sys.now()};
  bool seen = false;
  for (const SmmInterval& i : sys.smm_accounting().intervals()) {
    if (i.node != 0 || seen) continue;
    out.smm = i;
    seen = true;
  }
  EXPECT_TRUE(seen) << "node 0 never entered SMM";
  return out;
}

SimTime at_ms(std::int64_t ms) { return SimTime::zero() + milliseconds(ms); }

TEST(FreezeComposeTest, FaultFreezeInsideSmmOutlastsItHashPinned) {
  System sys{compose_cfg()};
  FaultPlan plan;
  plan.freeze(0, at_ms(150), milliseconds(300));
  const FaultInjector injector{sys, plan};
  const Outcome out = run_job(sys);
  ASSERT_LT(out.smm.enter, at_ms(150));
  ASSERT_GT(out.smm.exit, at_ms(150));
  ASSERT_LT(out.smm.exit, at_ms(450));
  ASSERT_GT(out.end, at_ms(450));
  EXPECT_EQ(out.hash, 7403348898923744303ull);
}

// The SMI controller skips an SMI that falls inside a fault freeze, so this
// overlap drives the firmware hooks directly: node 0 freezes at 40 ms, SMM
// enters at 100 ms, the freeze ends at 150 ms and SMM exits at 205 ms.
TEST(FreezeComposeTest, FaultFreezeEndingInsideSmmHashPinned) {
  SystemConfig cfg = compose_cfg();
  cfg.smi = SmiConfig::none();
  System sys{cfg};
  const SimTime enter = at_ms(100);
  const SimTime exit = at_ms(205);
  Engine& engine = sys.engine();
  engine.schedule_at(at_ms(40), [&sys] { sys.fault_freeze_enter(0); });
  engine.schedule_at(enter, [&sys] { sys.smm_enter(0); });
  engine.schedule_at(at_ms(150), [&sys] { sys.fault_freeze_exit(0); });
  engine.schedule_at(exit, [&sys, enter, exit] {
    sys.smm_exit(0, SmmInterval{0, enter, exit});
  });
  const Outcome out = run_job(sys);
  ASSERT_EQ(sys.fault_log().size(), 1u);
  ASSERT_EQ(sys.fault_log()[0].end, at_ms(150));
  ASSERT_EQ(out.smm.exit, exit);
  ASSERT_GT(out.end, exit);
  EXPECT_EQ(out.hash, 9213105440651361957ull);
}

TEST(FreezeComposeTest, CrashInsideSmmHashPinned) {
  System sys{compose_cfg()};
  FaultPlan plan;
  plan.crash(0, at_ms(160));
  const FaultInjector injector{sys, plan};
  const Outcome out = run_job(sys);
  ASSERT_LT(out.smm.enter, at_ms(160));
  ASSERT_GT(out.smm.exit, at_ms(160));
  ASSERT_GT(out.end, out.smm.exit);
  EXPECT_EQ(out.hash, 10623224735473418482ull);
}

// OS noise preempts CPU 0 of every node from 60 ms for `dur`, so the
// preemption starts before SMM entry and either ends after the SMM exit
// (the exit thaws the CPU first) or inside SMM (the exit supersedes the
// resume).
Outcome noise_run(SimDuration dur) {
  System sys{compose_cfg()};
  OsNoiseConfig noise;
  noise.duration = dur;
  noise.interval = seconds(1);
  noise.cpu = 0;
  noise.fixed_initial_phase = milliseconds(60);
  const OsNoiseInjector injector{sys, noise};
  const Outcome out = run_job(sys);
  EXPECT_GT(injector.events(), 0);
  return out;
}

TEST(FreezeComposeTest, PreemptionSpanningSmmHashPinned) {
  const Outcome out = noise_run(milliseconds(200));
  ASSERT_LT(at_ms(60), out.smm.enter);
  ASSERT_LT(out.smm.exit, at_ms(260));
  ASSERT_GT(out.end, at_ms(260));
  EXPECT_EQ(out.hash, 17092382534144525695ull);
}

TEST(FreezeComposeTest, PreemptionEndingInsideSmmHashPinned) {
  const Outcome out = noise_run(milliseconds(90));
  ASSERT_LT(at_ms(60), out.smm.enter);
  ASSERT_LT(out.smm.enter, at_ms(150));
  ASSERT_GT(out.smm.exit, at_ms(150));
  ASSERT_GT(out.end, out.smm.exit);
  EXPECT_EQ(out.hash, 11208629023056409532ull);
}

}  // namespace
}  // namespace smilab
