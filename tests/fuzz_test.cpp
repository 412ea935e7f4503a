// Deterministic fuzz harness: generate random task systems (random
// topologies, programs, communication patterns, SMI regimes) from seeds
// and check the global invariants on every one:
//   * the run terminates (no deadlock, no livelock),
//   * per-task conservation: wall >= true cpu; os-view = true + stolen
//     when the task never shares or leaves its CPU ledger,
//   * accounting totals are consistent with the SMM interval record,
//   * identical seeds give bit-identical outcomes.
//
// Communication patterns are generated deadlock-free by construction
// (pairwise matched sends/recvs ordered by a global sequence).
//
// The second half fuzzes the external inputs with seeded byte mutations of
// valid seed strings (bit flips, byte and token inserts, deletions, span
// duplication): the serve wire format (parse_json, parse_request_line and
// the canonical key of every accepted request) and the CLI (Options flag
// parsing, the fault-spec field parser and the FaultInjector's plan
// checks). Each accepted input must satisfy the parser's own contract, so
// the suite catches silent acceptance (a NaN probability) as well as
// crashes; the sanitizer job runs it under ASan and UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "smilab/cli/options.h"
#include "smilab/fault/fault_injector.h"
#include "smilab/fault/fault_plan.h"
#include "smilab/serve/request.h"
#include "smilab/serve/wire.h"
#include "smilab/sim/system.h"
#include "smilab/time/rng.h"

namespace smilab {
namespace {

struct FuzzOutcome {
  std::int64_t finish_ns = 0;
  std::int64_t total_true_ns = 0;
  std::int64_t total_stolen_ns = 0;
  std::int64_t messages = 0;
};

FuzzOutcome run_fuzz(std::uint64_t seed) {
  Rng rng{seed};
  SystemConfig cfg;
  cfg.machine = rng.next_double() < 0.5 ? MachineSpec::wyeast_e5520()
                                        : MachineSpec::poweredge_r410_e5620();
  cfg.node_count = static_cast<int>(rng.uniform_int(1, 4));
  cfg.net = NetworkParams::wyeast();
  const double smi_pick = rng.next_double();
  if (smi_pick < 0.25) {
    cfg.smi = SmiConfig::none();
  } else if (smi_pick < 0.5) {
    cfg.smi = SmiConfig::short_with_gap(rng.uniform_int(50, 1000));
  } else {
    cfg.smi = SmiConfig::long_with_gap(rng.uniform_int(150, 1600));
    cfg.smi.synchronized_across_nodes = rng.next_double() < 0.3;
  }
  cfg.seed = seed ^ 0xABCDEF;
  System sys{cfg};
  const int online = static_cast<int>(
      rng.uniform_int(1, cfg.machine.logical_cpus()));
  sys.set_online_cpus(online);

  const int ranks = static_cast<int>(rng.uniform_int(2, 6));
  const GroupId g = sys.create_group(ranks);

  // Build per-rank programs: interleave compute and a global sequence of
  // matched point-to-point transfers (sender's Send appears before or
  // after computes, receiver's Recv in the same global order per rank —
  // ordered matched pairs over a tree-free pattern cannot deadlock because
  // every Recv's message is eventually injected by a sender that never
  // waits on the receiver... senders of rendezvous messages DO wait, so
  // keep payloads under the rendezvous threshold).
  std::vector<std::vector<Action>> programs(static_cast<std::size_t>(ranks));
  const int transfers = static_cast<int>(rng.uniform_int(0, 12));
  for (auto& p : programs) {
    p.push_back(Compute{milliseconds(rng.uniform_int(1, 120))});
  }
  std::vector<std::vector<int>> open_handles(static_cast<std::size_t>(ranks));
  int next_handle = 1;
  for (int t = 0; t < transfers; ++t) {
    const int src = static_cast<int>(rng.uniform_int(0, ranks - 1));
    int dst = static_cast<int>(rng.uniform_int(0, ranks - 1));
    if (dst == src) dst = (dst + 1) % ranks;
    const std::int64_t bytes = rng.uniform_int(1, 60'000);
    const int tag = 100 + t;
    // Mix blocking and nonblocking forms of the same matched transfer.
    if (rng.next_double() < 0.35) {
      const int sh = next_handle++;
      programs[static_cast<std::size_t>(src)].push_back(Isend{dst, bytes, tag, sh});
      open_handles[static_cast<std::size_t>(src)].push_back(sh);
    } else {
      programs[static_cast<std::size_t>(src)].push_back(Send{dst, bytes, tag});
    }
    if (rng.next_double() < 0.35) {
      const int rh = next_handle++;
      programs[static_cast<std::size_t>(dst)].push_back(Irecv{src, tag, rh});
      open_handles[static_cast<std::size_t>(dst)].push_back(rh);
    } else {
      programs[static_cast<std::size_t>(dst)].push_back(Recv{src, tag});
    }
    if (rng.next_double() < 0.5) {
      programs[static_cast<std::size_t>(src)].push_back(
          Compute{microseconds(rng.uniform_int(10, 5000))});
    }
  }
  // Close every open nonblocking handle.
  for (int r = 0; r < ranks; ++r) {
    auto& handles = open_handles[static_cast<std::size_t>(r)];
    if (!handles.empty()) {
      programs[static_cast<std::size_t>(r)].push_back(WaitAll{std::move(handles)});
    }
  }
  // A potential ordering hazard: rank A's Recv(t1) before its Send(t2)
  // while the t1 sender waits on A's t2? Eager sends never wait, so no
  // cycle is possible; every Send completes unconditionally.

  std::vector<TaskId> ids;
  for (int r = 0; r < ranks; ++r) {
    TaskSpec spec;
    spec.name = "fuzz" + std::to_string(r);
    spec.node = static_cast<int>(rng.uniform_int(0, cfg.node_count - 1));
    spec.wait_policy =
        rng.next_double() < 0.5 ? WaitPolicy::kSpin : WaitPolicy::kBlock;
    spec.profile.htt_efficiency = rng.uniform(0.5, 0.9);
    spec.profile.hot_set_fraction = rng.uniform(0.0, 1.2);
    spec.actions = std::make_unique<VectorActions>(
        std::move(programs[static_cast<std::size_t>(r)]));
    ids.push_back(sys.spawn_member(g, r, std::move(spec)));
  }
  sys.run();
  sys.validate();  // internal cross-reference consistency

  FuzzOutcome outcome;
  outcome.finish_ns = sys.last_finish_time().ns();
  for (const TaskId id : ids) {
    const TaskStats& stats = sys.task_stats(id);
    EXPECT_TRUE(stats.finished) << "seed " << seed;
    const SimDuration wall = stats.end_time - stats.start_time;
    EXPECT_GE(wall.ns(), stats.true_cpu_time.ns() - 1) << "seed " << seed;
    EXPECT_GE(stats.os_view_cpu_time.ns(), stats.true_cpu_time.ns())
        << "seed " << seed;
    EXPECT_EQ(stats.os_view_cpu_time.ns(),
              (stats.true_cpu_time + stats.smm_stolen_time).ns())
        << "seed " << seed;
    outcome.total_true_ns += stats.true_cpu_time.ns();
    outcome.total_stolen_ns += stats.smm_stolen_time.ns();
    outcome.messages += stats.messages_received;
  }
  // Stolen time cannot exceed recorded SMM residency x online CPUs.
  SimDuration total_residency{};
  for (const auto& interval : sys.smm_accounting().intervals()) {
    total_residency += interval.duration();
  }
  EXPECT_LE(outcome.total_stolen_ns,
            total_residency.ns() * cfg.machine.logical_cpus())
      << "seed " << seed;
  return outcome;
}

class FuzzSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(0, 64));

TEST_P(FuzzSweep, InvariantsHoldAndRunIsDeterministic) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 7919 + 13;
  const FuzzOutcome a = run_fuzz(seed);
  const FuzzOutcome b = run_fuzz(seed);
  EXPECT_EQ(a.finish_ns, b.finish_ns);
  EXPECT_EQ(a.total_true_ns, b.total_true_ns);
  EXPECT_EQ(a.total_stolen_ns, b.total_stolen_ns);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_GT(a.finish_ns, 0);
}

// --- External-input mutation fuzzing -------------------------------------------

/// Apply 1-4 random byte-level mutations to `s`. `tokens` are spliced in
/// whole, so the mutants reach past the tokenizer into the schema and
/// range checks.
std::string mutate(std::string s, Rng& rng,
                   const std::vector<std::string_view>& tokens) {
  const int edits = static_cast<int>(rng.uniform_int(1, 4));
  for (int e = 0; e < edits; ++e) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(s.size())));
    switch (rng.uniform_int(0, 5)) {
      case 0:  // flip one bit
        if (pos < s.size()) {
          s[pos] = static_cast<char>(s[pos] ^ (1 << rng.uniform_int(0, 7)));
        }
        break;
      case 1:  // overwrite with an arbitrary byte
        if (pos < s.size()) s[pos] = static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 2:  // insert an arbitrary byte
        s.insert(pos, 1, static_cast<char>(rng.uniform_int(0, 255)));
        break;
      case 3:  // delete a short span
        s.erase(pos, static_cast<std::size_t>(rng.uniform_int(1, 4)));
        break;
      case 4: {  // insert a dictionary token
        const auto t = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(tokens.size()) - 1));
        s.insert(pos, tokens[t]);
        break;
      }
      default: {  // duplicate a span in place
        const auto len = std::min<std::size_t>(
            s.size() - pos, static_cast<std::size_t>(rng.uniform_int(1, 8)));
        s.insert(pos, s.substr(pos, len));
        break;
      }
    }
  }
  return s;
}

constexpr int kMutantsPerSeed = 400;

TEST(InputFuzz, ServeRequestLinesKeepTheirContract) {
  const std::vector<std::string_view> seeds = {
      R"({"experiment":"ring","nodes":3,"iters":20,"bytes":1024,"seed":7})",
      R"({"experiment":"ring","smi":"none","gap_ms":50})",
      R"({"experiment":"nas","workload":"ft","class":"A","nodes":4,"smi":"long"})",
      R"({"experiment":"convolve","case":"cf","cpus":4,"smi":"short"})",
      R"({"experiment":"unixbench","cpus":2,"gap_ms":600})",
      R"({"op":"stats"})",
      R"({"op":"ping"})",
      R"({"a":[1,-2.5e3,true,false,null,"x\u00e9\n"],"b":{"c":{}}})",
  };
  const std::vector<std::string_view> tokens = {
      "\"", "\\", "\\u", "{", "}", "[", "]", ":", ",", "null", "true",
      "1e999", "-0", "NaN", "\"seed\":", "\"nodes\":", "\"smi\":\"none\"",
      "\"experiment\":\"nas\"", "\"op\":", "9223372036854775808", " "};
  int accepted = 0;
  for (std::size_t si = 0; si < seeds.size(); ++si) {
    Rng rng{0x5e57e000 + si};
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string line = mutate(std::string(seeds[si]), rng, tokens);
      std::string error;
      const auto doc = serve::parse_json(line, &error);
      if (!doc) {
        EXPECT_FALSE(error.empty()) << line;
      }
      error.clear();
      const auto req = serve::parse_request_line(line, &error);
      if (!req) {
        EXPECT_FALSE(error.empty()) << line;
        continue;
      }
      EXPECT_TRUE(doc.has_value()) << line;
      if (req->op != serve::RequestLine::Op::kExperiment) continue;
      ++accepted;
      // The key is a pure function of the parsed request, and the
      // canonical rendering parses back to the same key.
      const serve::ExperimentRequest& exp = req->experiment;
      const std::uint64_t key = exp.canonical_key();
      EXPECT_EQ(key, exp.canonical_key()) << line;
      const std::string canonical = exp.canonical_json();
      const auto again = serve::parse_request_line(canonical, &error);
      ASSERT_TRUE(again.has_value()) << line << " -> " << canonical << ": "
                                     << error;
      EXPECT_EQ(again->experiment.canonical_key(), key) << line;
      EXPECT_EQ(again->experiment.canonical_json(), canonical) << line;
    }
  }
  EXPECT_GT(accepted, 0);  // the mutants must reach the schema layer
}

TEST(InputFuzz, CliFlagsAndFaultSpecsKeepTheirContract) {
  const std::vector<std::string_view> seeds = {
      "--drop=0.05", "--dup=0.02", "--hang-timeout-s=10", "--nodes=4",
      "--slow=0:0:10:0.5", "--freeze=0:100:200,1:400:100", "--crash=2:50",
      "--link-down=1:20:30"};
  const std::vector<std::string_view> tokens = {
      "nan", "inf", "-", "+", "e", "1e999", "0x1p3", ":", ",", "=", "--",
      ".", "0", "1", "  "};
  System sys{SystemConfig{}};  // fault plans are validated, never run
  int fault_plans = 0;
  for (std::size_t si = 0; si < seeds.size(); ++si) {
    Rng rng{0xc1f1a6 + si};
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string arg = mutate(std::string(seeds[si]), rng, tokens);
      const char* argv[] = {"smilab", "faults", arg.c_str()};
      std::string error;
      const auto options = Options::parse(3, argv, &error);
      if (!options) {
        EXPECT_FALSE(error.empty()) << arg;
        continue;
      }
      for (const char* key : {"drop", "dup", "hang-timeout-s", "nodes"}) {
        std::string value_error;
        const double d = options->get_double(key, 0.0, &value_error);
        EXPECT_TRUE(std::isfinite(d)) << arg;
        (void)options->get_int(key, 0, &value_error);
        (void)options->get_bool(key, false);
      }
      // A probability either fails the flag parser or meets the injector's
      // range check; a value that passes both must lie in [0, 1].
      std::string prob_error;
      const double drop = options->get_double("drop", 0.0, &prob_error);
      const double dup = options->get_double("dup", 0.0, &prob_error);
      if (prob_error.empty()) {
        FaultPlan plan;
        plan.drop(drop).duplicate(dup);
        ++fault_plans;
        try {
          const FaultInjector injector{sys, plan};
          EXPECT_TRUE(drop >= 0.0 && drop <= 1.0 && dup >= 0.0 && dup <= 1.0)
              << arg;
        } catch (const SimulationError&) {
          EXPECT_FALSE(drop >= 0.0 && drop <= 1.0 && dup >= 0.0 && dup <= 1.0)
              << arg;
        }
      }
      // Fault specs: every accepted field is finite and the count matches;
      // a slow-node scale that passes the parser meets the injector's
      // (0, 1] check or is rejected by it.
      for (const char* key : {"slow", "freeze", "crash", "link-down"}) {
        const std::string spec = options->get(key, "");
        if (spec.empty()) continue;
        const std::size_t expected =
            std::string_view{key} == "slow" ? 4 : key[0] == 'c' ? 2 : 3;
        std::vector<double> fields;
        std::string spec_error;
        if (!parse_spec_fields(spec, key, &fields, expected, &spec_error)) {
          EXPECT_FALSE(spec_error.empty()) << arg;
          continue;
        }
        ASSERT_EQ(fields.size(), expected) << arg;
        for (const double f : fields) EXPECT_TRUE(std::isfinite(f)) << arg;
        if (std::string_view{key} != "slow") continue;
        const double scale = fields[3];
        FaultPlan plan;
        plan.slow(0, SimTime::zero(), seconds(1), scale);
        ++fault_plans;
        try {
          const FaultInjector injector{sys, plan};
          EXPECT_TRUE(scale > 0.0 && scale <= 1.0) << arg;
        } catch (const SimulationError&) {
          EXPECT_FALSE(scale > 0.0 && scale <= 1.0) << arg;
        }
      }
    }
  }
  EXPECT_GT(fault_plans, 0);
}

}  // namespace
}  // namespace smilab
