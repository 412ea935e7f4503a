// Lazy-ack equality suite: rendezvous acks matured lazily on the sender's
// next poll versus delivered by a dedicated event per ack. Every equality
// test here runs the same scenario twice, once as configured (lazy acks
// when no link fault model is armed) and once with a NoFaults model armed
// — a LinkFaultModel that never drops or duplicates, whose only effect is
// to select the eager per-ack event — and asserts the full observable
// trace hashes are EQUAL. The eager chain is itself covered by the pinned
// goldens in transport_test.cpp, so equality against it extends those pins
// to lazy acks on these scenarios.
//
// Equality here does NOT make lazy acks bit-exact in general: FT with 4
// ranks per node ends slightly earlier with them (DESIGN.md §11), and
// StreamingEqualityTest.SmallFtDefaultPathGoldenPinned pins that default
// path rather than asserting equality.
//
// The scenarios target the conditions under which lazy delivery must match
// the event chain:
//  * long SMIs landing mid-burst (acks owed to frozen senders);
//  * fault-plan drops/duplicates and a crash (link faults disable the
//    piggyback ack route; kill-time ack wakes must keep watchdog parity);
//  * same-node rendezvous (the intra-node ack timing path).
// The eager egress burst at the end has no acks to compare; it pins the
// NIC FIFO's service order under every submit interleaving instead.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "smilab/fault/fault_injector.h"
#include "smilab/fault/fault_plan.h"
#include "smilab/mpi/collectives.h"
#include "smilab/mpi/job.h"
#include "smilab/sim/system.h"

namespace smilab {
namespace {

/// Armed but inert: never drops, never duplicates. Arming any model makes
/// the transport deliver every rendezvous ack by a dedicated event.
class NoFaults final : public LinkFaultModel {
 public:
  bool should_drop(int, int) override { return false; }
  bool should_duplicate(int, int) override { return false; }
};

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

void mix_stats(TraceHash& h, const TaskStats& s) {
  h.mix_signed(s.end_time.ns());
  h.mix_signed(s.os_view_cpu_time.ns());
  h.mix_signed(s.true_cpu_time.ns());
  h.mix_signed(s.smm_stolen_time.ns());
  h.mix_signed(s.refill_overhead.ns());
  h.mix_signed(s.smm_hits);
  h.mix_signed(s.messages_sent);
  h.mix_signed(s.messages_received);
  h.mix_signed(s.bytes_sent);
  h.mix(s.finished ? 1 : 0);
  h.mix(s.failed ? 1 : 0);
}

void mix_system(TraceHash& h, const System& sys) {
  for (int t = 0; t < sys.task_count(); ++t) {
    mix_stats(h, sys.task_stats(TaskId{t}));
  }
  h.mix_signed(sys.inter_node_bytes());
  h.mix_signed(sys.messages_dropped());
  h.mix_signed(sys.messages_duplicated());
  h.mix_signed(sys.retransmissions());
  h.mix_signed(sys.transport_failures());
}

SystemConfig wyeast_cfg(int nodes, std::uint64_t seed) {
  SystemConfig cfg;
  cfg.machine = MachineSpec::wyeast_e5520();
  cfg.node_count = nodes;
  cfg.net = NetworkParams::wyeast();
  cfg.seed = seed;
  return cfg;
}

// Rendezvous ring with deep nonblocking bursts: every rank keeps `burst`
// isends and irecvs outstanding at once, so rendezvous acks pile up and
// the waitall progress counters, lazy maturation and (with SMIs) NIC
// pauses all engage.
std::uint64_t ack_ring_hash(bool lazy_acks, bool long_smi, int ranks_per_node,
                            std::uint64_t seed) {
  const int ranks = 6;
  SystemConfig cfg =
      wyeast_cfg((ranks + ranks_per_node - 1) / ranks_per_node, seed);
  cfg.smi = long_smi ? SmiConfig::long_every_second()
                     : SmiConfig::short_every_second();
  System sys{cfg};
  NoFaults no_faults;
  if (!lazy_acks) sys.set_link_fault_model(&no_faults);
  auto programs = make_rank_programs(ranks);
  constexpr int kBurst = 24;
  for (int round = 0; round < 4; ++round) {
    for (auto& rp : programs) {
      rp.compute(milliseconds(35));  // lets SMIs land between bursts
      const int next = (rp.rank() + 1) % ranks;
      std::vector<int> handles;
      for (int i = 0; i < kBurst; ++i) {
        rp.isend(next, 128 * 1024, 10 + i, /*handle=*/i);
        rp.irecv_any(10 + i, /*handle=*/kBurst + i);
        handles.push_back(i);
        handles.push_back(kBurst + i);
      }
      rp.waitall(std::move(handles));
    }
  }
  auto result = run_mpi_job(sys, std::move(programs),
                            block_placement(ranks, ranks_per_node),
                            WorkloadProfile::dense_fp());
  sys.validate();
  TraceHash h;
  h.mix_signed(result.elapsed.ns());
  mix_system(h, sys);
  return h.value();
}

TEST(TransportFastPathTest, RendezvousRingMatchesClassicUnderLongSmi) {
  for (const std::uint64_t seed : {1ull, 9ull}) {
    EXPECT_EQ(ack_ring_hash(true, /*long_smi=*/true, /*rpn=*/1, seed),
              ack_ring_hash(false, /*long_smi=*/true, /*rpn=*/1, seed))
        << "seed " << seed;
  }
}

TEST(TransportFastPathTest, RendezvousRingMatchesClassicUnderShortSmi) {
  EXPECT_EQ(ack_ring_hash(true, /*long_smi=*/false, /*rpn=*/1, 4),
            ack_ring_hash(false, /*long_smi=*/false, /*rpn=*/1, 4));
}

// Two ranks per node: half the ring's traffic is same-node, exercising the
// intra-node rendezvous ack timing (lazy delivery at now + intra_transfer).
TEST(TransportFastPathTest, SameNodeRendezvousMatchesClassic) {
  for (const std::uint64_t seed : {2ull, 17ull}) {
    EXPECT_EQ(ack_ring_hash(true, /*long_smi=*/true, /*rpn=*/2, seed),
              ack_ring_hash(false, /*long_smi=*/true, /*rpn=*/2, seed))
        << "seed " << seed;
  }
}

// Probabilistic drops/duplicates plus a mid-run crash: link faults must
// make the piggyback ack route disable itself (retransmission timing is
// observable), and a killed sender's queued lazy acks must keep the same
// watchdog progress sequence the eager ack events produced.
std::uint64_t faulted_hash(bool lazy_acks, std::uint64_t seed) {
  SystemConfig cfg = wyeast_cfg(6, seed);
  cfg.smi = SmiConfig::long_every_second();
  System sys{cfg};
  NoFaults no_faults;
  if (!lazy_acks) sys.set_link_fault_model(&no_faults);
  FaultPlan plan;
  plan.drop(0.05).duplicate(0.05).crash(5, SimTime{2'500'000'000});
  FaultInjector injector{sys, plan};
  auto programs = make_rank_programs(6);
  TagAllocator tags;
  for (int iter = 0; iter < 6; ++iter) {
    for (auto& rp : programs) rp.compute(milliseconds(30));
    alltoall(programs, 128 * 1024, tags);
    alltoall_nonblocking(programs, 80 * 1024, tags);
    allreduce(programs, 2048, tags);
  }
  auto out = try_run_mpi_job(sys, std::move(programs), block_placement(6, 1),
                             WorkloadProfile::dense_fp());
  TraceHash h;
  h.mix(static_cast<std::uint64_t>(out.run.status));
  mix_system(h, sys);
  return h.value();
}

TEST(TransportFastPathTest, FaultPlanDropsMatchClassic) {
  for (const std::uint64_t seed : {7ull, 23ull}) {
    EXPECT_EQ(faulted_hash(true, seed), faulted_hash(false, seed))
        << "seed " << seed;
  }
}

// Eager burst at one egress NIC under every cross-sender interleaving of
// the submit order: the booked FIFO must serialize any order in which
// submits hit the server, including across the SMIs that pause it
// mid-burst. Three senders on one node interleave their injections through
// the shared egress server; the permutation rotates which sender's burst
// is emitted first. The traffic is eager, so no ack path is involved and
// the hashes are pinned rather than compared across the toggle.
std::uint64_t egress_interleave_hash(const int (&order)[3]) {
  SystemConfig cfg = wyeast_cfg(2, 5);
  cfg.smi = SmiConfig::long_every_second();  // pauses land mid-burst
  System sys{cfg};
  auto programs = make_rank_programs(4);  // ranks 0..2 on node 0, 3 on node 1
  constexpr int kBurst = 30;
  for (int round = 0; round < 3; ++round) {
    for (const int s : order) {
      auto& rp = programs[static_cast<std::size_t>(s)];
      std::vector<int> handles;
      for (int i = 0; i < kBurst; ++i) {
        rp.isend(3, 4096, /*tag=*/100 * s + i, /*handle=*/i);
        handles.push_back(i);
      }
      rp.waitall(std::move(handles));
      rp.compute(milliseconds(10));
    }
    auto& sink = programs[3];
    for (const int s : order) {
      for (int i = 0; i < kBurst; ++i) {
        sink.irecv(s, 100 * s + i, /*handle=*/100 * s + i);
      }
    }
    std::vector<int> sink_handles;
    for (int s = 0; s < 3; ++s) {
      for (int i = 0; i < kBurst; ++i) sink_handles.push_back(100 * s + i);
    }
    sink.waitall(std::move(sink_handles));
  }
  auto result = run_mpi_job(sys, std::move(programs),
                            block_placement(4, /*ranks_per_node=*/3),
                            WorkloadProfile::dense_fp());
  sys.validate();
  TraceHash h;
  h.mix_signed(result.elapsed.ns());
  mix_system(h, sys);
  return h.value();
}

// Every order ends identically: only the sink's irecv posting order
// differs, and posted receives match by (source, tag).
constexpr std::uint64_t kEgressBurstHash = 14413920452737650820ull;

TEST(TransportFastPathTest, EgressBurstHashPinnedAcrossInterleavings) {
  const int perms[][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                          {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (const auto& p : perms) {
    EXPECT_EQ(egress_interleave_hash(p), kEgressBurstHash)
        << "order " << p[0] << p[1] << p[2];
  }
}

}  // namespace
}  // namespace smilab
