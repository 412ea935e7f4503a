// Stateless model checking for smilab programs (DESIGN.md §12).
//
// The Explorer re-runs a target program from scratch once per schedule,
// driving the simulator's three choice points (sim/choice_hooks.h) through
// a DFS over the choice tree:
//
//   * Each run replays a recorded decision prefix, then extends it: the
//     first choice point past the prefix becomes a new stack frame taking
//     alternative 0 (the canonical branch).
//   * After a run completes, the deepest frame with unexplored
//     alternatives is advanced and everything below it is discarded —
//     plain depth-first backtracking with no cross-run simulator state
//     (each schedule gets a fresh System; the stack IS the schedule).
//
// Pruning (DPOR-lite): at every NEW choice point the explorer digests
// "where the simulation is" (System::progress_digest + the choice's kind
// and arity). When a frame has had all alternatives explored, its digest
// enters a memo; a later run reaching a memoized digest at a new choice
// point takes the canonical tail instead of branching — the subtree was
// already covered from an equivalent state, which is exactly the case
// when two earlier commuting choices lead to the same state. Runs that
// complete through a memo hit still have their outcome verified, so a
// digest collision can cost coverage but can never fake a verdict.
//
// Verdicts, in priority order:
//   kCheckerBug      replay structure diverged (the same prefix presented
//                    different choice points — the simulator is not the
//                    deterministic function of its decisions the checker
//                    assumes), or a run wedged without deadlock evidence.
//   kDivergent       two completed schedules produced different observable
//                    outcomes (per-task stats + transport counters): the
//                    program's RESULT depends on scheduling.
//   kDeadlock        some schedule wedged with proof (wait-for cycle, dead
//                    peer, or an empty event queue with tasks remaining).
//                    The report carries a replay token for the first one.
//   kDeterministic   every explored schedule completed with the same
//                    observable hash.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "smilab/fault/fault_injector.h"
#include "smilab/mc/schedule_trace.h"
#include "smilab/sim/choice_hooks.h"
#include "smilab/sim/run_result.h"
#include "smilab/sim/system.h"

namespace smilab {
namespace mc {

/// A program under check. Plain function pointers, not std::function: mc/
/// is a smilint hot path (rule D4) and corpus targets capture nothing.
struct McTarget {
  /// Fresh System with every task spawned, ready to run. Called once per
  /// schedule. The explorer installs its policy right after this returns
  /// (spawn-time execution pops no events, so no choice can fire inside).
  using MakeSystemFn = std::unique_ptr<System> (*)();
  /// Optional fault attachment, constructed AFTER the policy is installed
  /// so kFaultJitter choices route through the explorer; null for
  /// fault-free programs. The injector must outlive the run.
  using MakeInjectorFn = std::unique_ptr<FaultInjector> (*)(System& sys);

  MakeSystemFn make_system = nullptr;
  MakeInjectorFn make_injector = nullptr;
};

struct ExplorerOptions {
  /// Complete runs before giving up (the tree may be larger than any
  /// budget; exhausted() on the report says whether exploration finished).
  std::size_t max_schedules = 4096;
  /// Decision-stack depth cap: choice points deeper than this take the
  /// canonical branch without opening alternatives.
  std::size_t max_depth = 64;
  /// Digest-memo subtree pruning (see file header). Off = plain DFS.
  bool prune = true;
};

enum class Verdict : std::uint8_t {
  kDeterministic = 0,
  kDeadlock = 1,
  kDivergent = 2,
  kCheckerBug = 3,
};

[[nodiscard]] const char* to_string(Verdict v);

struct ExplorationReport {
  Verdict verdict = Verdict::kDeterministic;

  std::size_t schedules_run = 0;     ///< completed runs (includes pruned)
  std::size_t schedules_pruned = 0;  ///< runs completed via a memo-hit tail
  std::size_t choice_points = 0;     ///< frontier frames ever opened
  std::size_t max_depth_seen = 0;    ///< deepest decision stack reached
  bool depth_clipped = false;        ///< some subtree cut by max_depth
  bool budget_exhausted = false;     ///< stopped by max_schedules

  /// Observable-outcome hash of the canonical schedule (first completed
  /// run); 0 if no schedule ever completed (all-deadlock programs).
  std::uint64_t canonical_hash = 0;
  bool any_completed = false;

  /// kDivergent evidence: the first schedule whose hash disagreed.
  std::string divergent_token;
  std::uint64_t divergent_hash = 0;

  /// kDeadlock evidence: the first wedged schedule.
  std::string deadlock_token;
  RunStatus deadlock_status = RunStatus::kOk;
  std::string deadlock_report;  ///< formatted RunResult diagnosis

  /// kCheckerBug explanation (empty otherwise).
  std::string checker_note;

  /// True when the full choice tree was explored within budget and depth.
  [[nodiscard]] bool exhausted() const {
    return !budget_exhausted && !depth_clipped;
  }
};

/// Observable-outcome hash of a completed run: FNV-1a over every task's
/// stats, the transport/fault counters, total inter-node bytes, and the
/// last finish time. Deliberately excludes engine/pool internals (event
/// counts, slab capacities) — those legitimately differ between equivalent
/// schedules; what must NOT differ is what an experiment would measure.
[[nodiscard]] std::uint64_t hash_observable(const System& sys);

class Explorer {
 public:
  Explorer(McTarget target, ExplorerOptions opts);

  /// Enumerate schedules depth-first until the tree or the budget is
  /// exhausted (or a checker bug aborts exploration).
  [[nodiscard]] ExplorationReport explore();

  /// Run exactly ONE schedule, following `trace`'s decisions and taking
  /// the canonical branch past its end. Reports structure mismatches
  /// (token from a different program/config) as kCheckerBug.
  [[nodiscard]] ExplorationReport replay(const ScheduleTrace& trace);

 private:
  /// One decision-stack frame: a choice point on the current DFS path.
  struct Frame {
    ChoiceKind kind;
    std::size_t n = 0;
    std::size_t chosen = 0;
    std::uint64_t digest = 0;  ///< memo key (state + kind + n)
  };

  /// SchedulePolicy wired to the DFS stack: replays frames_[0..], then
  /// extends at the frontier. Owned by the Explorer so run_one can reach
  /// the flags it raises.
  class CursorPolicy final : public SchedulePolicy {
   public:
    explicit CursorPolicy(Explorer& owner) : owner_(owner) {}
    [[nodiscard]] std::size_t choose(ChoiceKind kind, std::size_t n) override;

   private:
    Explorer& owner_;
  };

  /// Outcome of one schedule execution.
  struct RunOutcome {
    RunResult result;
    std::uint64_t hash = 0;  ///< valid only when result.ok()
    ScheduleTrace trace;     ///< full decision path (replayed + extended)
    bool pruned = false;     ///< completed through a memo-hit tail
    bool structure_mismatch = false;
    std::string mismatch_note;
  };

  RunOutcome run_one();
  /// Fold one outcome into `report`; false to abort exploration (checker
  /// bug — further schedules prove nothing).
  bool record(const RunOutcome& outcome, ExplorationReport& report);
  /// Advance the deepest non-exhausted frame; false when the tree is done.
  bool backtrack();

  std::size_t on_choose(ChoiceKind kind, std::size_t n);

  McTarget target_;
  ExplorerOptions opts_;
  CursorPolicy policy_;

  // DFS state across runs.
  std::vector<Frame> frames_;
  // Memo of fully-explored choice-point digests. unordered_set is
  // deliberate and smilint-D3-legal: contains/insert only, never iterated.
  std::unordered_set<std::uint64_t> memo_;

  // Per-run state (reset by run_one).
  System* sys_ = nullptr;  ///< live only while a schedule executes
  std::size_t cursor_ = 0;
  ScheduleTrace run_trace_;
  bool run_pruned_ = false;
  bool run_clipped_ = false;
  bool run_mismatch_ = false;
  std::string run_mismatch_note_;
  const ScheduleTrace* replay_trace_ = nullptr;  ///< replay() mode
  std::size_t choice_points_opened_ = 0;
};

}  // namespace mc
}  // namespace smilab
