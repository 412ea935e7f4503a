// Fault-injection subsystem tests: deterministic replay, the zero-fault
// bit-identity guarantee, freeze/crash/slow/link-fault semantics, and the
// transport's retransmission state machine.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "smilab/fault/fault_injector.h"
#include "smilab/fault/fault_plan.h"
#include "smilab/mpi/job.h"
#include "smilab/mpi/program.h"
#include "smilab/sim/system.h"
#include "smilab/trace/chrome_trace.h"

namespace smilab {
namespace {

SystemConfig base_config(int nodes = 2) {
  SystemConfig cfg;
  cfg.machine = MachineSpec::poweredge_r410_e5620();
  cfg.node_count = nodes;
  cfg.seed = 42;
  return cfg;
}

/// A small ring-exchange MPI job: every rank depends on both neighbours
/// each iteration, so faults anywhere propagate job-wide.
std::vector<RankProgram> ring_job(int nranks, int iters,
                                  std::int64_t bytes = 4 * 1024) {
  auto programs = make_rank_programs(nranks);
  TagAllocator tags;
  for (int it = 0; it < iters; ++it) {
    const int tag = tags.allocate(1);
    for (auto& prog : programs) {
      const int r = prog.rank();
      prog.compute(microseconds(200));
      prog.sendrecv((r + 1) % nranks, bytes, tag, (r + nranks - 1) % nranks,
                    tag);
    }
  }
  return programs;
}

std::vector<int> one_rank_per_node(int nranks) {
  std::vector<int> placement(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) placement[static_cast<std::size_t>(r)] = r;
  return placement;
}

/// Run the ring job under SMI noise, optionally with a fault injector, and
/// return the full Chrome trace (a complete serialization of every task
/// lifetime and SMM interval — byte equality means identical runs).
std::string traced_run(bool with_injector, const FaultPlan& plan) {
  SystemConfig cfg = base_config(4);
  cfg.smi = SmiConfig::long_every_second();
  System sys{cfg};
  std::optional<FaultInjector> injector;
  if (with_injector) injector.emplace(sys, plan);
  run_mpi_job(sys, ring_job(4, 100), one_rank_per_node(4), WorkloadProfile{});
  return to_chrome_trace(sys);
}

TEST(FaultPlanTest, EmptyPlanReproducesBaselineBitForBit) {
  // The headline guarantee: constructing a FaultInjector with an empty plan
  // perturbs nothing — not the RNG streams, not the NIC service order, not
  // a single event timestamp.
  const std::string baseline = traced_run(/*with_injector=*/false, {});
  const std::string with_empty_plan = traced_run(/*with_injector=*/true, {});
  EXPECT_EQ(baseline, with_empty_plan);
}

TEST(FaultPlanTest, SameSeedAndPlanAreDeterministic) {
  FaultPlan plan;
  plan.freeze(1, SimTime::zero() + milliseconds(40), milliseconds(80))
      .slow(2, SimTime::zero() + milliseconds(10), milliseconds(500), 0.5)
      .drop(0.1)
      .duplicate(0.05);
  const std::string first = traced_run(/*with_injector=*/true, plan);
  const std::string second = traced_run(/*with_injector=*/true, plan);
  EXPECT_EQ(first, second);
  // And the faults actually changed the run versus baseline.
  EXPECT_NE(first, traced_run(/*with_injector=*/false, {}));
}

TEST(FaultInjectorTest, FreezeDelaysComputeByItsDuration) {
  System sys{base_config(1)};
  FaultPlan plan;
  plan.freeze(0, SimTime::zero() + milliseconds(200), milliseconds(300));
  const FaultInjector injector{sys, plan};
  std::vector<Action> prog;
  prog.push_back(Compute{seconds(1)});
  const TaskId id = sys.spawn(TaskSpec::with_actions("t", 0, std::move(prog)));
  sys.run();
  const TaskStats& stats = sys.task_stats(id);
  EXPECT_TRUE(stats.finished);
  // 1 s of work with a 300 ms whole-node stall in the middle, and no SMM
  // refill model: exactly 1.3 s wall, 1.0 s true CPU.
  EXPECT_NEAR((stats.end_time - stats.start_time).seconds(), 1.3, 1e-6);
  EXPECT_NEAR(stats.true_cpu_time.seconds(), 1.0, 1e-6);
  ASSERT_EQ(sys.fault_log().size(), 1u);
  const FaultRecord& rec = sys.fault_log()[0];
  EXPECT_EQ(rec.kind, FaultRecord::Kind::kFreeze);
  EXPECT_NEAR(rec.start.seconds(), 0.2, 1e-9);
  EXPECT_NEAR(rec.end.seconds(), 0.5, 1e-9);
}

TEST(FaultInjectorTest, FreezeComposesWithSmi) {
  // A fault freeze that straddles an SMM interval: whichever mechanism
  // releases the node last resumes it, and the run still completes.
  SystemConfig cfg = base_config(1);
  cfg.smi = SmiConfig::long_every_second();
  cfg.smi.fixed_initial_phase = milliseconds(100);  // SMM roughly [100,205]ms
  System sys{cfg};
  FaultPlan plan;
  plan.freeze(0, SimTime::zero() + milliseconds(150), milliseconds(400));
  const FaultInjector injector{sys, plan};
  std::vector<Action> prog;
  prog.push_back(Compute{seconds(1)});
  const TaskId id = sys.spawn(TaskSpec::with_actions("t", 0, std::move(prog)));
  sys.run();
  const TaskStats& stats = sys.task_stats(id);
  EXPECT_TRUE(stats.finished);
  // At least the freeze tail past the SMM exit is added on top of the work.
  EXPECT_GT((stats.end_time - stats.start_time).seconds(), 1.3);
}

TEST(FaultInjectorTest, DroppedMessagesAreRetransmitted) {
  SystemConfig cfg = base_config(2);
  System sys{cfg};
  FaultPlan plan;
  plan.drop(0.3);
  const FaultInjector injector{sys, plan};
  const auto result = try_run_mpi_job(sys, ring_job(2, 100),
                                      one_rank_per_node(2), WorkloadProfile{});
  ASSERT_TRUE(result.ok()) << result.run.to_string();
  EXPECT_GT(sys.messages_dropped(), 0);
  EXPECT_EQ(sys.retransmissions(), sys.messages_dropped());
  EXPECT_EQ(sys.transport_failures(), 0);
  // Every rank still received every message exactly once.
  for (const TaskStats& s : result.job.rank_stats) {
    EXPECT_TRUE(s.finished);
    EXPECT_EQ(s.messages_received, 100);
  }
}

TEST(FaultInjectorTest, DuplicatesAreSuppressedByTransportDedup) {
  SystemConfig cfg = base_config(2);
  System sys{cfg};
  FaultPlan plan;
  plan.duplicate(1.0);  // every delivery also ships a ghost copy
  const FaultInjector injector{sys, plan};
  const auto result = try_run_mpi_job(sys, ring_job(2, 50),
                                      one_rank_per_node(2), WorkloadProfile{});
  ASSERT_TRUE(result.ok()) << result.run.to_string();
  EXPECT_GT(sys.messages_duplicated(), 0);
  for (const TaskStats& s : result.job.rank_stats) {
    EXPECT_TRUE(s.finished);
    EXPECT_EQ(s.messages_received, 50);  // ghosts never reach MPI matching
  }
}

TEST(FaultInjectorTest, TotalLossExhaustsRetriesAndDiagnoses) {
  SystemConfig cfg = base_config(2);
  cfg.net.max_retries = 3;
  cfg.hang_timeout = seconds(2);
  System sys{cfg};
  FaultPlan plan;
  plan.drop(1.0);
  const FaultInjector injector{sys, plan};
  const GroupId g = sys.create_group(2);
  {
    std::vector<Action> prog;
    prog.push_back(Send{1, 1024, 7});  // eager: the sender itself finishes
    sys.spawn_member(g, 0, TaskSpec::with_actions("tx", 0, std::move(prog)));
  }
  {
    std::vector<Action> prog;
    prog.push_back(Recv{0, 7});
    sys.spawn_member(g, 1, TaskSpec::with_actions("rx", 1, std::move(prog)));
  }
  const RunResult result = sys.try_run();
  EXPECT_FALSE(result.ok());
  // Once the transport gives up the event queue drains completely (the
  // sender already finished), which is provably stuck: deadlock, no cycle.
  EXPECT_EQ(result.status, RunStatus::kDeadlock);
  EXPECT_TRUE(result.diagnosis.cycle.empty());
  EXPECT_GE(sys.transport_failures(), 1);
  EXPECT_EQ(sys.retransmissions(), 3);  // the full retry budget was spent
  ASSERT_EQ(result.diagnosis.ranks.size(), 1u);
  const RankDiagnosis& r = result.diagnosis.ranks[0];
  EXPECT_EQ(r.name, "rx");
  EXPECT_EQ(r.op, BlockedOp::kRecv);
  EXPECT_EQ(r.peer_rank, 0);
  EXPECT_EQ(r.tag, 7);
}

TEST(FaultInjectorTest, CrashKillsNodeAndDiagnosesBlockedPeers) {
  SystemConfig cfg = base_config(2);
  System sys{cfg};
  FaultPlan plan;
  plan.crash(1, SimTime::zero() + milliseconds(100));
  const FaultInjector injector{sys, plan};
  const GroupId g = sys.create_group(2);
  {
    std::vector<Action> prog;
    prog.push_back(Recv{1, 5});  // waits on a rank that will die first
    sys.spawn_member(g, 0, TaskSpec::with_actions("waiter", 0, std::move(prog)));
  }
  TaskId victim;
  {
    std::vector<Action> prog;
    prog.push_back(Compute{seconds(1)});
    prog.push_back(Send{0, 1024, 5});
    victim =
        sys.spawn_member(g, 1, TaskSpec::with_actions("victim", 1, std::move(prog)));
  }
  const RunResult result = sys.try_run();
  EXPECT_FALSE(result.ok());
  const TaskStats& dead = sys.task_stats(victim);
  EXPECT_TRUE(dead.failed);
  EXPECT_FALSE(dead.finished);
  EXPECT_NEAR(dead.end_time.seconds(), 0.1, 1e-9);
  EXPECT_EQ(result.diagnosis.failed_tasks, 1);
  ASSERT_EQ(result.diagnosis.ranks.size(), 1u);
  const RankDiagnosis& r = result.diagnosis.ranks[0];
  EXPECT_EQ(r.name, "waiter");
  EXPECT_EQ(r.op, BlockedOp::kRecv);
  EXPECT_EQ(r.peer_rank, 1);
  EXPECT_TRUE(r.peer_failed);
  ASSERT_EQ(sys.fault_log().size(), 1u);
  EXPECT_EQ(sys.fault_log()[0].kind, FaultRecord::Kind::kCrash);
}

// A message still in ingress propagation when its destination crashes must
// be discarded on arrival, not parked in the killed receiver's unexpected
// queue: the pool drains to zero live records at every crash instant.
// Instants 33-87 us catch the 1 KB message between its ingress service end
// and its arrival.
TEST(FaultInjectorTest, CrashDuringIngressPropagationReleasesTheMessage) {
  for (int us = 0; us < 400; ++us) {
    System sys{base_config(2)};
    FaultPlan plan;
    plan.crash(1, SimTime::zero() + microseconds(us));
    const FaultInjector injector{sys, plan};
    const GroupId g = sys.create_group(2);
    sys.spawn_member(g, 0, TaskSpec::with_actions(
                               "sender", 0, {Send{1, 1024, 3}, Compute{milliseconds(50)}}));
    sys.spawn_member(g, 1, TaskSpec::with_actions(
                               "receiver", 1, {Compute{milliseconds(10)}, Recv{0, 3}}));
    (void)sys.try_run();
    EXPECT_TRUE(sys.task_stats(TaskId{1}).failed) << "crash at " << us << " us";
    EXPECT_EQ(sys.transport_stats().pool_live, 0) << "crash at " << us << " us";
  }
}

TEST(FaultInjectorTest, SlowNodeStretchesComputeByItsScale) {
  System sys{base_config(1)};
  FaultPlan plan;
  plan.slow(0, SimTime::zero(), seconds(10), 0.5);
  const FaultInjector injector{sys, plan};
  std::vector<Action> prog;
  prog.push_back(Compute{seconds(1)});
  const TaskId id = sys.spawn(TaskSpec::with_actions("t", 0, std::move(prog)));
  sys.run();
  const TaskStats& stats = sys.task_stats(id);
  EXPECT_TRUE(stats.finished);
  EXPECT_NEAR((stats.end_time - stats.start_time).seconds(), 2.0, 1e-3);
}

TEST(FaultInjectorTest, LinkDownStallsDeliveryUntilRestored) {
  SystemConfig cfg = base_config(2);
  System sys{cfg};
  FaultPlan plan;
  plan.link_down(1, SimTime::zero(), milliseconds(500));
  const FaultInjector injector{sys, plan};
  const GroupId g = sys.create_group(2);
  {
    std::vector<Action> prog;
    prog.push_back(Send{1, 1024, 3});
    sys.spawn_member(g, 0, TaskSpec::with_actions("tx", 0, std::move(prog)));
  }
  TaskId rx;
  {
    std::vector<Action> prog;
    prog.push_back(Recv{0, 3});
    rx = sys.spawn_member(g, 1, TaskSpec::with_actions("rx", 1, std::move(prog)));
  }
  sys.run();
  const TaskStats& stats = sys.task_stats(rx);
  EXPECT_TRUE(stats.finished);
  // The payload parked at the dead ingress until t = 0.5 s.
  EXPECT_GT(stats.end_time.seconds(), 0.5);
  EXPECT_LT(stats.end_time.seconds(), 0.6);
}

TEST(FaultInjectorTest, RejectsInvalidPlans) {
  System sys{base_config(2)};
  {
    FaultPlan plan;
    plan.crash(7, SimTime::zero());  // only 2 nodes exist
    EXPECT_THROW(FaultInjector(sys, plan), SimulationError);
  }
  {
    FaultPlan plan;
    plan.freeze(0, SimTime::zero(), milliseconds(100))
        .freeze(0, SimTime::zero() + milliseconds(50), milliseconds(100));
    EXPECT_THROW(FaultInjector(sys, plan), SimulationError);
  }
  {
    FaultPlan plan;
    plan.drop(1.5);
    EXPECT_THROW(FaultInjector(sys, plan), SimulationError);
  }
  {
    FaultPlan plan;
    plan.slow(0, SimTime::zero(), seconds(1), 0.0);
    EXPECT_THROW(FaultInjector(sys, plan), SimulationError);
  }
}

TEST(FaultInjectorTest, ChromeTraceRendersFaultRowsAndKilledTasks) {
  System sys{base_config(2)};
  FaultPlan plan;
  plan.freeze(0, SimTime::zero() + milliseconds(10), milliseconds(20))
      .crash(1, SimTime::zero() + milliseconds(100));
  const FaultInjector injector{sys, plan};
  std::vector<Action> short_prog;
  short_prog.push_back(Compute{milliseconds(50)});
  sys.spawn(TaskSpec::with_actions("ok", 0, std::move(short_prog)));
  std::vector<Action> long_prog;
  long_prog.push_back(Compute{seconds(5)});
  sys.spawn(TaskSpec::with_actions("doomed", 1, std::move(long_prog)));
  const RunResult result = sys.try_run();
  EXPECT_TRUE(result.ok());  // survivors finished; the victim counts as resolved
  const std::string trace = to_chrome_trace(sys);
  EXPECT_NE(trace.find("\"cat\": \"fault\""), std::string::npos);
  EXPECT_NE(trace.find("FREEZE"), std::string::npos);
  EXPECT_NE(trace.find("CRASH"), std::string::npos);
  EXPECT_NE(trace.find("doomed [killed]"), std::string::npos);
  EXPECT_NE(trace.find("task_failed"), std::string::npos);
}

}  // namespace
}  // namespace smilab
