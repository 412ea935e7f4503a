#include "smilab/mc/explorer.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "smilab/core/fnv.h"

namespace smilab {
namespace mc {

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kDeterministic: return "deterministic";
    case Verdict::kDeadlock: return "deadlock";
    case Verdict::kDivergent: return "divergent";
    case Verdict::kCheckerBug: return "checker-bug";
  }
  return "?";
}

std::uint64_t hash_observable(const System& sys) {
  Fnv64 h;
  const int n = sys.task_count();
  h.mix_signed(n);
  for (int i = 0; i < n; ++i) {
    const TaskStats& s = sys.task_stats(TaskId{i});
    h.mix(static_cast<std::uint64_t>(s.start_time.ns()));
    h.mix(static_cast<std::uint64_t>(s.end_time.ns()));
    h.mix(static_cast<std::uint64_t>(s.os_view_cpu_time.ns()));
    h.mix(static_cast<std::uint64_t>(s.true_cpu_time.ns()));
    h.mix(static_cast<std::uint64_t>(s.smm_stolen_time.ns()));
    h.mix(static_cast<std::uint64_t>(s.refill_overhead.ns()));
    h.mix(static_cast<std::uint64_t>(s.smm_hits));
    h.mix(static_cast<std::uint64_t>(s.messages_sent));
    h.mix(static_cast<std::uint64_t>(s.messages_received));
    h.mix(static_cast<std::uint64_t>(s.bytes_sent));
    h.mix((s.finished ? 1u : 0u) | (s.failed ? 2u : 0u));
  }
  h.mix(static_cast<std::uint64_t>(sys.messages_dropped()));
  h.mix(static_cast<std::uint64_t>(sys.messages_duplicated()));
  h.mix(static_cast<std::uint64_t>(sys.retransmissions()));
  h.mix(static_cast<std::uint64_t>(sys.transport_failures()));
  h.mix(static_cast<std::uint64_t>(sys.inter_node_bytes()));
  h.mix(static_cast<std::uint64_t>(sys.last_finish_time().ns()));
  return h.value();
}

Explorer::Explorer(McTarget target, ExplorerOptions opts)
    : target_(target), opts_(opts), policy_(*this) {
  assert(target_.make_system != nullptr);
  if (opts_.max_schedules == 0) opts_.max_schedules = 1;
}

std::size_t Explorer::CursorPolicy::choose(ChoiceKind kind, std::size_t n) {
  return owner_.on_choose(kind, n);
}

std::size_t Explorer::on_choose(ChoiceKind kind, std::size_t n) {
  assert(n >= 2 && "policy consulted without real alternatives");

  if (replay_trace_ != nullptr) {
    // Replay mode: follow the token, canonical past its end.
    if (cursor_ < replay_trace_->choices.size()) {
      const Choice& c = replay_trace_->choices[cursor_];
      if (c.kind != kind || c.n != n) {
        run_mismatch_ = true;
        run_mismatch_note_ =
            "replay token mismatch at decision " + std::to_string(cursor_) +
            ": token says " + std::string(to_string(c.kind)) + " with " +
            std::to_string(c.n) + " alternative(s), program presented " +
            std::string(to_string(kind)) + " with " + std::to_string(n);
        run_trace_.choices.push_back(Choice{kind, 0, n});
        ++cursor_;
        return 0;
      }
      run_trace_.choices.push_back(c);
      ++cursor_;
      return c.chosen;
    }
    run_trace_.choices.push_back(Choice{kind, 0, n});
    ++cursor_;
    return 0;
  }

  if (cursor_ < frames_.size()) {
    // Prefix replay: the simulator must present the same choice structure
    // it presented last run, or the stateless-rerun premise is broken.
    Frame& f = frames_[cursor_];
    if (f.kind != kind || f.n != n) {
      run_mismatch_ = true;
      run_mismatch_note_ =
          "schedule prefix diverged at decision " + std::to_string(cursor_) +
          ": previous run saw " + std::string(to_string(f.kind)) + " with " +
          std::to_string(f.n) + " alternative(s), this run presents " +
          std::string(to_string(kind)) + " with " + std::to_string(n) +
          " — the target is not a pure function of its schedule decisions";
      run_trace_.choices.push_back(Choice{kind, 0, n});
      ++cursor_;
      return 0;
    }
    run_trace_.choices.push_back(Choice{kind, f.chosen, n});
    ++cursor_;
    return f.chosen;
  }

  // Frontier. Once this run is pruned or clipped it stays canonical: a
  // memo hit certifies the whole remaining subtree, and a clipped run
  // must not open frames its backtrack would then wrongly walk.
  if (run_pruned_ || run_mismatch_) {
    run_trace_.choices.push_back(Choice{kind, 0, n});
    return 0;
  }
  if (frames_.size() >= opts_.max_depth) {
    run_clipped_ = true;
    run_trace_.choices.push_back(Choice{kind, 0, n});
    return 0;
  }

  Fnv64 digest;
  digest.mix(sys_ != nullptr ? sys_->progress_digest() : 0);
  digest.mix(static_cast<std::uint64_t>(kind));
  digest.mix(static_cast<std::uint64_t>(n));
  const std::uint64_t key = digest.value();

  if (opts_.prune && memo_.contains(key)) {
    run_pruned_ = true;
    run_trace_.choices.push_back(Choice{kind, 0, n});
    return 0;
  }

  frames_.push_back(Frame{kind, n, 0, key});
  ++choice_points_opened_;
  ++cursor_;
  run_trace_.choices.push_back(Choice{kind, 0, n});
  return 0;
}

Explorer::RunOutcome Explorer::run_one() {
  cursor_ = 0;
  run_trace_.choices.clear();
  run_pruned_ = false;
  run_clipped_ = false;
  run_mismatch_ = false;
  run_mismatch_note_.clear();

  std::unique_ptr<System> sys = target_.make_system();
  sys_ = sys.get();
  sys->set_schedule_policy(&policy_);
  std::unique_ptr<FaultInjector> injector;
  if (target_.make_injector != nullptr) {
    injector = target_.make_injector(*sys);  // kFaultJitter choices fire here
  }

  RunOutcome out;
  out.result = sys->try_run();
  if (out.result.ok()) out.hash = hash_observable(*sys);
  out.trace = run_trace_;
  out.pruned = run_pruned_;
  out.structure_mismatch = run_mismatch_;
  out.mismatch_note = run_mismatch_note_;

  // A run that consumed fewer decisions than the replayed prefix is the
  // same structural divergence as a kind/arity mismatch.
  if (replay_trace_ == nullptr && !run_mismatch_ && cursor_ < frames_.size()) {
    out.structure_mismatch = true;
    out.mismatch_note =
        "schedule prefix diverged: previous run made " +
        std::to_string(frames_.size()) + " decisions, this run ended after " +
        std::to_string(cursor_);
  }

  sys_ = nullptr;
  return out;
}

bool Explorer::record(const RunOutcome& outcome, ExplorationReport& report) {
  ++report.schedules_run;
  if (outcome.pruned) ++report.schedules_pruned;
  report.max_depth_seen =
      std::max(report.max_depth_seen, outcome.trace.choices.size());

  if (outcome.structure_mismatch) {
    report.verdict = Verdict::kCheckerBug;
    report.checker_note = outcome.mismatch_note;
    return false;
  }

  if (outcome.result.ok()) {
    if (!report.any_completed) {
      report.any_completed = true;
      report.canonical_hash = outcome.hash;
    } else if (outcome.hash != report.canonical_hash &&
               report.verdict != Verdict::kDivergent) {
      report.verdict = Verdict::kDivergent;
      report.divergent_token = outcome.trace.to_token();
      report.divergent_hash = outcome.hash;
    }
    return true;
  }

  // Wedged. Genuine deadlock needs proof: an empty event queue with tasks
  // remaining (kDeadlock — no wake is possible), a wait-for cycle, or a
  // dead peer. A hang or sim-time blowout without any of those means the
  // checker drove the simulator somewhere unexplained.
  bool peer_died = false;
  for (const RankDiagnosis& r : outcome.result.diagnosis.ranks) {
    if (r.peer_failed) peer_died = true;
  }
  const bool genuine = outcome.result.status == RunStatus::kDeadlock ||
                       !outcome.result.diagnosis.cycle.empty() || peer_died;
  if (!genuine) {
    report.verdict = Verdict::kCheckerBug;
    report.checker_note =
        "schedule " + outcome.trace.to_token() + " wedged with status '" +
        std::string(smilab::to_string(outcome.result.status)) +
        "' but no deadlock evidence (no cycle, no dead peer)";
    return false;
  }
  if (report.deadlock_token.empty() && report.deadlock_status == RunStatus::kOk) {
    report.deadlock_status = outcome.result.status;
    report.deadlock_token = outcome.trace.to_token();
    report.deadlock_report = outcome.result.to_string();
  }
  if (report.verdict == Verdict::kDeterministic) {
    report.verdict = Verdict::kDeadlock;
  }
  return true;
}

bool Explorer::backtrack() {
  while (!frames_.empty()) {
    Frame& f = frames_.back();
    if (f.chosen + 1 < f.n) {
      ++f.chosen;
      return true;
    }
    // Every alternative of this choice point has been explored: memoize
    // its state digest so equivalent states reached later prune.
    memo_.insert(f.digest);
    frames_.pop_back();
  }
  return false;
}

ExplorationReport Explorer::explore() {
  frames_.clear();
  memo_.clear();
  choice_points_opened_ = 0;
  replay_trace_ = nullptr;

  ExplorationReport report;
  for (;;) {
    const RunOutcome outcome = run_one();
    if (run_clipped_) report.depth_clipped = true;
    if (!record(outcome, report)) break;
    if (report.schedules_run >= opts_.max_schedules) {
      // Budget spent; the tree is unfinished iff decisions remain.
      report.budget_exhausted = backtrack();
      break;
    }
    if (!backtrack()) break;
  }
  report.choice_points = choice_points_opened_;
  return report;
}

ExplorationReport Explorer::replay(const ScheduleTrace& trace) {
  frames_.clear();
  memo_.clear();
  choice_points_opened_ = 0;
  replay_trace_ = &trace;

  ExplorationReport report;
  const RunOutcome outcome = run_one();
  replay_trace_ = nullptr;
  record(outcome, report);
  report.choice_points = outcome.trace.choices.size();
  return report;
}

}  // namespace mc
}  // namespace smilab
