// Scale-core pins: the event ladder (DESIGN.md §16) and the FlatKeyMap
// transport stores at the scale they were built for. A 4096-rank streaming
// ring is pinned to a recorded hash; a drift here is a correctness bug in
// the event core or the transport, not a perf tradeoff. Do not re-pin
// without understanding why.
//
// Alongside the pin: FlatKeyMap churned against a std::unordered_map
// reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "smilab/mpi/job.h"
#include "smilab/mpi/streaming.h"
#include "smilab/sim/flat_key_map.h"
#include "smilab/sim/system.h"

namespace smilab {
namespace {

// FNV-1a over 64-bit words — the idiom of tests/transport_test.cpp.
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

// --- 4096-rank streaming ring golden ----------------------------------------

// The scale_projection ring halo-exchange at 4096 ranks — the shape the
// ladder and the flat transport stores were built for.
constexpr std::uint64_t kStreamingRing4096Hash = 10078820625376476608ull;

std::uint64_t ring_sweep_hash() {
  constexpr int kRanks = 4096;
  constexpr int kIters = 5;
  constexpr int kRanksPerNode = 8;
  SystemConfig cfg;
  cfg.machine = MachineSpec::wyeast_e5520();
  cfg.node_count = (kRanks + kRanksPerNode - 1) / kRanksPerNode;
  cfg.net = NetworkParams::wyeast();
  cfg.smi = SmiConfig::none();
  cfg.seed = 42;
  System sys{cfg};
  auto sources = chunked_rank_sources(kRanks, [](int rank) {
    return [rank](int chunk, RankProgram& rp, TagAllocator& tags) {
      if (chunk >= kIters) return false;
      const int base = tags.allocate(2);
      const int next = (rank + 1) % kRanks;
      const int prev = (rank + kRanks - 1) % kRanks;
      rp.compute(microseconds(200));
      rp.sendrecv(next, 64 * 1024, base, prev, base);
      rp.sendrecv(prev, 64 * 1024, base + 1, next, base + 1);
      return true;
    };
  });
  std::vector<int> placement(kRanks);
  for (int r = 0; r < kRanks; ++r) placement[r] = r / kRanksPerNode;
  const MpiJobResult result = run_mpi_job_streaming(
      sys, kRanks, sources, placement, WorkloadProfile::dense_fp());
  sys.validate();
  TraceHash h;
  h.mix_signed(result.elapsed.ns());
  mix_system(h, sys);
  return h.value();
}

TEST(ScaleCoreTest, StreamingRing4096GoldenPinned) {
  EXPECT_EQ(ring_sweep_hash(), kStreamingRing4096Hash);
}

// --- FlatKeyMap vs unordered_map reference -----------------------------------

TEST(FlatKeyMapTest, ChurnMatchesUnorderedMapReference) {
  FlatKeyMap<int> map;
  std::unordered_map<std::uint64_t, int> ref;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  auto snapshot = [](auto&& for_each_fn) {
    std::vector<std::pair<std::uint64_t, int>> v;
    for_each_fn(v);
    std::sort(v.begin(), v.end());
    return v;
  };
  for (int round = 0; round < 20000; ++round) {
    const std::uint64_t key = next() % 512;  // small space: heavy collisions
    switch (next() % 4) {
      case 0:
      case 1: {  // insert / overwrite
        const int val = static_cast<int>(next() & 0xffff);
        map.get_or_insert(key) = val;
        ref[key] = val;
        break;
      }
      case 2: {  // erase (often absent: backward-shift on misses too)
        map.erase(key);
        ref.erase(key);
        break;
      }
      case 3: {  // lookup
        const int* got = map.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got != nullptr, it != ref.end());
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), ref.size());
  }
  const auto got = snapshot([&](auto& v) {
    map.for_each([&v](std::uint64_t k, const int& val) { v.emplace_back(k, val); });
  });
  const auto want = snapshot([&](auto& v) {
    for (const auto& [k, val] : ref) v.emplace_back(k, val);
  });
  EXPECT_EQ(got, want);
}

TEST(FlatKeyMapTest, SurvivesGrowthFromMinCapacity) {
  FlatKeyMap<std::uint64_t> map;
  for (std::uint64_t k = 0; k < 1000; ++k) map.get_or_insert(k * 0x10001) = k;
  EXPECT_EQ(map.size(), 1000u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const std::uint64_t* v = map.find(k * 0x10001);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, k);
  }
  for (std::uint64_t k = 0; k < 1000; k += 2) map.erase(k * 0x10001);
  EXPECT_EQ(map.size(), 500u);
  for (std::uint64_t k = 1; k < 1000; k += 2) {
    ASSERT_NE(map.find(k * 0x10001), nullptr);
  }
}

}  // namespace
}  // namespace smilab
