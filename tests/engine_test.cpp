// Unit tests for the discrete-event engine: ordering, determinism,
// cancellation, stepping, and run_until semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "smilab/core/fnv.h"
#include "smilab/sim/event_queue.h"

namespace smilab {
namespace {

TEST(EngineTest, ExecutesInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(SimTime{30}, [&] { order.push_back(3); });
  eng.schedule_at(SimTime{10}, [&] { order.push_back(1); });
  eng.schedule_at(SimTime{20}, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), SimTime{30});
}

TEST(EngineTest, TiesBreakByInsertionOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.schedule_at(SimTime{100}, [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EngineTest, ScheduleAfterUsesCurrentTime) {
  Engine eng;
  SimTime seen = SimTime::zero();
  eng.schedule_after(milliseconds(5), [&] {
    eng.schedule_after(milliseconds(5), [&] { seen = eng.now(); });
  });
  eng.run();
  EXPECT_EQ(seen, SimTime::zero() + milliseconds(10));
}

TEST(EngineTest, CancelPreventsExecution) {
  Engine eng;
  bool fired = false;
  const EventId id = eng.schedule_at(SimTime{10}, [&] { fired = true; });
  eng.cancel(id);
  eng.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(eng.pending_events(), 0u);
}

TEST(EngineTest, CancelInvalidIdIsNoOp) {
  Engine eng;
  eng.cancel(EventId{});
  eng.cancel(EventId{12345});
  SUCCEED();
}

TEST(EngineTest, CancelFromWithinEarlierEvent) {
  Engine eng;
  bool fired = false;
  const EventId id = eng.schedule_at(SimTime{20}, [&] { fired = true; });
  eng.schedule_at(SimTime{10}, [&] { eng.cancel(id); });
  eng.run();
  EXPECT_FALSE(fired);
}

TEST(EngineTest, EventsCanScheduleEvents) {
  Engine eng;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) eng.schedule_after(SimDuration{1}, chain);
  };
  eng.schedule_at(SimTime{0}, chain);
  eng.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(eng.now(), SimTime{99});
}

TEST(EngineTest, StepExecutesExactlyOne) {
  Engine eng;
  int count = 0;
  for (int i = 0; i < 5; ++i) {
    eng.schedule_at(SimTime{i}, [&] { ++count; });
  }
  EXPECT_TRUE(eng.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(eng.step());
  EXPECT_EQ(count, 2);
  eng.run();
  EXPECT_EQ(count, 5);
  EXPECT_FALSE(eng.step());
}

TEST(EngineTest, RunUntilStopsAtBoundary) {
  Engine eng;
  std::vector<int> fired;
  eng.schedule_at(SimTime{10}, [&] { fired.push_back(10); });
  eng.schedule_at(SimTime{20}, [&] { fired.push_back(20); });
  eng.schedule_at(SimTime{30}, [&] { fired.push_back(30); });
  const bool pending = eng.run_until(SimTime{20});
  EXPECT_TRUE(pending);
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  EXPECT_EQ(eng.now(), SimTime{20});
  eng.run();
  EXPECT_EQ(fired, (std::vector<int>{10, 20, 30}));
}

TEST(EngineTest, RunUntilAdvancesClockWhenIdle) {
  Engine eng;
  EXPECT_FALSE(eng.run_until(SimTime{1000}));
  EXPECT_EQ(eng.now(), SimTime{1000});
}

TEST(EngineTest, StopHaltsRun) {
  Engine eng;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    eng.schedule_at(SimTime{i}, [&] {
      if (++count == 3) eng.stop();
    });
  }
  eng.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(eng.pending_events(), 7u);
}

TEST(EngineTest, ExecutedEventCountTracks) {
  Engine eng;
  for (int i = 0; i < 7; ++i) eng.schedule_at(SimTime{i}, [] {});
  eng.run();
  EXPECT_EQ(eng.executed_events(), 7u);
}

TEST(EngineTest, CancelAfterFireIsANoOp) {
  Engine eng;
  int fired = 0;
  const EventId id = eng.schedule_at(SimTime{1}, [&] { ++fired; });
  eng.run();
  EXPECT_EQ(fired, 1);
  // The slot was retired when the event fired; a stale id must neither
  // create a tombstone nor perturb the counters.
  eng.cancel(id);
  eng.cancel(id);
  EXPECT_EQ(eng.tombstones(), 0u);
  EXPECT_EQ(eng.cancelled_events(), 0u);
  EXPECT_EQ(eng.executed_events(), 1u);
  EXPECT_EQ(eng.pending_events(), 0u);
}

TEST(EngineTest, StaleIdNeverCancelsSlotReuse) {
  Engine eng;
  int first = 0, second = 0;
  const EventId a = eng.schedule_at(SimTime{1}, [&] { ++first; });
  eng.run();
  // The new event reuses a's slab slot (free-list reuse) but carries a
  // fresh generation; cancelling with the stale id must not touch it.
  const EventId b = eng.schedule_at(SimTime{2}, [&] { ++second; });
  EXPECT_EQ(a.slot, b.slot);
  EXPECT_NE(a.seq, b.seq);
  eng.cancel(a);
  eng.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(EngineTest, DoubleCancelCountsOnce) {
  Engine eng;
  const EventId id = eng.schedule_at(SimTime{5}, [] {});
  eng.cancel(id);
  eng.cancel(id);
  EXPECT_EQ(eng.cancelled_events(), 1u);
  EXPECT_EQ(eng.pending_events(), 0u);
  eng.run();
  EXPECT_EQ(eng.executed_events(), 0u);
}

TEST(EngineTest, MassCancelCompactsTombstones) {
  Engine eng;
  std::vector<EventId> ids;
  for (int i = 0; i < 100'000; ++i) {
    ids.push_back(eng.schedule_at(SimTime{1'000'000 + i}, [] {}));
  }
  for (const EventId id : ids) eng.cancel(id);
  // Compaction keeps tombstones bounded by the threshold (64) no matter how
  // many events were cancelled; the first pop sweeps the stragglers.
  EXPECT_LE(eng.tombstones(), 64u);
  EXPECT_EQ(eng.pending_events(), 0u);
  EXPECT_EQ(eng.cancelled_events(), 100'000u);
  EXPECT_FALSE(eng.step());
  EXPECT_EQ(eng.tombstones(), 0u);
}

TEST(EngineTest, SlabSlotsAreReusedInSteadyState) {
  Engine eng;
  // Self-rescheduling chains: the pending set stays at 8, so the slab must
  // not grow past a handful of slots no matter how many events fire.
  int fired = 0;
  std::function<void(int)> arm = [&](int lane) {
    if (++fired >= 80'000) return;
    eng.schedule_after(SimDuration{1 + lane % 3}, [&arm, lane] { arm(lane); });
  };
  for (int lane = 0; lane < 8; ++lane) {
    eng.schedule_at(SimTime{lane}, [&arm, lane] { arm(lane); });
  }
  eng.run();
  // Each of the 8 lanes may overshoot the shared quota by one in-flight event.
  EXPECT_GE(fired, 80'000);
  EXPECT_LE(fired, 80'007);
  EXPECT_LE(eng.slot_capacity(), 64u);
}

TEST(EngineTest, LargeCallbacksBoxAndStillFire) {
  Engine eng;
  // A capture larger than the inline buffer exercises the boxed fallback.
  struct Big {
    std::uint64_t words[16] = {};
  };
  Big big;
  big.words[0] = 41;
  std::uint64_t seen = 0;
  eng.schedule_at(SimTime{1}, [big, &seen] { seen = big.words[0] + 1; });
  eng.run();
  EXPECT_EQ(seen, 42u);
}

// Randomized interleaving of schedule/cancel/step checked against a simple
// reference model (a sorted list of (time, seq) records).
TEST(EngineTest, StressScheduleCancelStepMatchesReferenceModel) {
  struct Ref {
    std::int64_t time;
    std::uint64_t seq;
    bool cancelled = false;
  };
  Engine eng;
  std::vector<Ref> model;
  std::vector<std::pair<EventId, std::size_t>> handles;  // id -> model index
  std::vector<std::uint64_t> fired;   // engine-side execution order (seq)
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::uint64_t seq_counter = 0;
  std::size_t scheduled = 0, cancelled = 0;
  for (int op = 0; op < 20'000; ++op) {
    const std::uint64_t r = next();
    if (r % 100 < 55) {  // schedule at a future (possibly tied) time
      const auto t = static_cast<std::int64_t>(eng.now().ns() + r % 97);
      const std::uint64_t seq = seq_counter++;
      const EventId id = eng.schedule_at(
          SimTime{t}, [&fired, seq] { fired.push_back(seq); });
      model.push_back(Ref{t, seq});
      handles.emplace_back(id, model.size() - 1);
      ++scheduled;
    } else if (r % 100 < 75 && !handles.empty()) {  // cancel a random handle
      const auto pick = r % handles.size();
      auto [id, idx] = handles[pick];
      if (!model[idx].cancelled) {
        // May be stale (already fired); the engine must treat that as a
        // no-op, which the model mirrors by only marking unfired entries.
        const bool still_pending =
            std::find(fired.begin(), fired.end(), model[idx].seq) == fired.end();
        eng.cancel(id);
        if (still_pending) {
          model[idx].cancelled = true;
          ++cancelled;
        }
      }
    } else {  // step
      eng.step();
    }
  }
  eng.run();
  // Reference order: uncancelled records by (time, seq).
  std::vector<Ref> expect;
  for (const Ref& ref : model) {
    if (!ref.cancelled) expect.push_back(ref);
  }
  std::sort(expect.begin(), expect.end(), [](const Ref& a, const Ref& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  });
  ASSERT_EQ(fired.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(fired[i], expect[i].seq) << "at position " << i;
  }
  // Conservation: everything scheduled either executed or was cancelled.
  EXPECT_EQ(eng.executed_events() + eng.cancelled_events(),
            static_cast<std::uint64_t>(scheduled));
  EXPECT_EQ(eng.cancelled_events(), static_cast<std::uint64_t>(cancelled));
  EXPECT_EQ(eng.pending_events(), 0u);
}

TEST(EngineTest, ManyEventsStressOrdering) {
  Engine eng;
  SimTime last = SimTime::zero();
  bool monotonic = true;
  // Insert in a scrambled deterministic order.
  for (int i = 0; i < 10'000; ++i) {
    const auto t = SimTime{(i * 7919) % 10'000};
    eng.schedule_at(t, [&, t] {
      if (eng.now() < last) monotonic = false;
      last = eng.now();
      EXPECT_EQ(eng.now(), t);
    });
  }
  eng.run();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(eng.executed_events(), 10'000u);
}

// A same-instant storm scheduled from inside a callback, with a nested
// same-instant wake and a cancellation, fires in exact (time, seq) order.
TEST(EngineTest, SameInstantStormPreservesTimeSeqOrderAndCancellation) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(SimTime{100}, [&] {
    eng.schedule_at(SimTime{100}, [&] { order.push_back(1); });
    const EventId victim =
        eng.schedule_at(SimTime{100}, [&] { order.push_back(2); });
    eng.schedule_at(SimTime{100}, [&] {
      order.push_back(3);
      // Nested same-instant wake, scheduled while draining the storm.
      eng.schedule_at(SimTime{100}, [&] { order.push_back(5); });
    });
    eng.schedule_at(SimTime{200}, [&] { order.push_back(6); });
    eng.schedule_at(SimTime{100}, [&] { order.push_back(4); });
    eng.cancel(victim);
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4, 5, 6}));
}

// The pending digest counts every live entry, including ones scheduled at
// now() from inside the running callback, and skips tombstones.
TEST(EngineTest, PendingDigestSeesSameInstantEntries) {
  Engine eng;
  std::uint64_t digest = 0;
  eng.schedule_at(SimTime{50}, [&] {
    eng.schedule_at(SimTime{50}, [] {});
    eng.schedule_at(SimTime{80}, [] {});
    eng.cancel(eng.schedule_at(SimTime{60}, [] {}));
    digest = eng.pending_time_digest();
    eng.stop();
  });
  eng.run();
  EXPECT_EQ(digest, splitmix64(50) + splitmix64(80));
}

}  // namespace
}  // namespace smilab
