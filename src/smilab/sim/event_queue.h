// Discrete-event engine: a time-ordered queue of callbacks with stable
// (time, insertion-sequence) ordering so runs are deterministic, plus
// cancellation via generation-checked tombstones.
//
// Internals (see DESIGN.md §8, §16): callbacks live out of line in a slab
// of reusable slots (InlineCallback: no allocation for the captures the
// simulator uses); pending entries are POD {time, seq, slot} records.
// Cancellation marks the slot; the slot's seq acts as a generation counter,
// so cancelling an already-fired id compares against the slot's current
// tenant and is a guaranteed no-op rather than a leaked tombstone.
// Tombstoned entries are skipped on pop and compacted wholesale if they
// ever dominate the pending set.
//
// Entries wait in a two-tier ladder/calendar queue (DESIGN.md §16): a
// near-future window of fixed-count, adaptive-width time buckets drained
// in (time, seq) order (each bucket sorted once when first touched), with
// a 4-ary implicit min-heap as the far-future overflow tier. Amortized
// O(1) per event independent of the pending count; bucket width
// re-derives from the previous window's occupancy each time the window is
// re-anchored. While a model-checking tie-break policy is installed the
// heap holds every entry (see set_tie_break). (time, seq) is a total
// order, so pop order never depends on which tier an entry waited in.
#pragma once

#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "smilab/sim/inline_callback.h"
#include "smilab/time/sim_time.h"

namespace smilab {

class SchedulePolicy;  // sim/choice_hooks.h

/// Handle to a scheduled event; can be used to cancel it before it fires.
struct EventId {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;  ///< slab index; (seq, slot) is generation-checked
  [[nodiscard]] bool valid() const { return seq != 0; }
  bool operator==(const EventId&) const = default;
};

/// The simulation engine. Single-threaded by design: determinism beats
/// parallel event execution for a noise study, where runs must be exactly
/// reproducible from (config, seed). Grid-level parallelism lives in
/// core/sweep.h instead: one Engine per cell, no shared state.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now()). The callable is
  /// constructed directly inside its slab slot (no temporary, no move).
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback>>>
  EventId schedule_at(SimTime t, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    slots_[slot].fn.emplace(std::forward<F>(fn));
    return finish_schedule(t, slot);
  }

  /// Overload for a pre-built InlineCallback (moved into the slot).
  EventId schedule_at(SimTime t, InlineCallback fn);

  /// Schedule `fn` after a non-negative delay.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback>>>
  EventId schedule_after(SimDuration d, F&& fn) {
    return schedule_at(now_ + d, std::forward<F>(fn));
  }

  EventId schedule_after(SimDuration d, InlineCallback fn);

  /// Cancel a pending event. Cancelling an already-fired or invalid id is a
  /// harmless no-op (common when a completion event races a preemption).
  void cancel(EventId id);

  /// Run until the queue is empty or `stop()` is called.
  void run();

  /// Run until simulated time reaches `t` (events at exactly `t` fire).
  /// Returns true if the queue still has pending events.
  bool run_until(SimTime t);

  /// Execute exactly one event (the earliest pending). Returns false if no
  /// events remain. Lets callers interleave termination checks with event
  /// processing (System::run stops when all tasks finish even though
  /// periodic sources like the SMI driver would keep the queue non-empty).
  bool step() { return pop_next(); }

  /// Request `run()` to return after the current event completes.
  void stop() { stopped_ = true; }

  [[nodiscard]] std::size_t pending_events() const {
    return static_cast<std::size_t>(live_);
  }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }
  [[nodiscard]] std::uint64_t cancelled_events() const { return cancelled_; }
  /// Cancelled entries still occupying queue space (bounded: compacted
  /// away once they would dominate the pending set).
  [[nodiscard]] std::size_t tombstones() const {
    return static_cast<std::size_t>(tombstones_);
  }
  /// Slab high-water mark: peak concurrently scheduled events, not total
  /// events ever scheduled (slots are recycled through a free list).
  [[nodiscard]] std::size_t slot_capacity() const { return slots_.size(); }

  /// Install / clear a same-instant tie-break policy (sim/choice_hooks.h).
  /// When set, a pop whose minimal timestamp is shared by n >= 2 live
  /// entries asks `policy->choose(kEventTie, n)` which fires first;
  /// candidates are presented in (time, seq) order, so decision 0 is the
  /// default schedule bit-for-bit. Null (the default) keeps the plain
  /// lowest-(time, seq) pop: one pointer test, no collection pass. The
  /// policy must outlive its installation. Installing a policy flushes the
  /// ladder window into the heap so pop_tied sees one candidate set —
  /// model-checking schedules are identical either way.
  void set_tie_break(SchedulePolicy* policy) {
    tie_break_ = policy;
    if (policy != nullptr) flush_ladder();
  }
  [[nodiscard]] SchedulePolicy* tie_break() const { return tie_break_; }

  /// Order-insensitive digest of the pending-event schedule: the multiset
  /// of live entry timestamps (seq and queue layout excluded — commuted
  /// same-instant firings must digest equal). Model-checker memo input;
  /// O(pending), never on the simulation hot path.
  [[nodiscard]] std::uint64_t pending_time_digest() const;

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  /// One cache line per slot: schedule, cancel, and fire each touch a
  /// random slab position, so a slot never straddling two lines halves the
  /// miss cost of the slab working set.
  struct alignas(64) Slot {
    InlineCallback fn;      // 48 bytes (40 inline + ops pointer)
    std::uint64_t seq = 0;  ///< current tenant's seq; 0 = free
    std::uint32_t next_free = kNilSlot;
    bool cancelled = false;
  };
  static_assert(sizeof(Slot) == 64, "slab slots must be cache-line sized");

  /// Heap entry: plain data, cheap to shuffle during sifts. Ordering is
  /// (time, seq) — identical tie-breaking to the original binary heap.
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// One near-future time bucket: entries appended unsorted, sorted by
  /// (time, seq) the first time the drain cursor touches the bucket, then
  /// consumed from `head`. Inserts into a sorted bucket binary-insert;
  /// `head` > 0 leaves a gap at the front that absorbs now()+epsilon
  /// inserts without a memmove.
  struct Bucket {
    std::vector<Entry> v;
    std::size_t head = 0;
    bool sorted = false;
  };

  bool pop_next();  // executes one event; false if queue exhausted
  bool pop_tied();  // pop_next with the tie-break policy consulted
  EventId finish_schedule(SimTime t, std::uint32_t slot);
  void heap_push(Entry e);
  void remove_root();
  void drop_root_tombstones();
  void compact_tombstones();
  void release_slot(std::uint32_t slot);

  /// Ladder routing is live only when no tie-break policy is installed:
  /// pop_tied needs the whole candidate set in one structure, so policy
  /// installation flushes the ladder (decision 0 stays the canonical
  /// schedule either way).
  [[nodiscard]] bool ladder_routing() const { return tie_break_ == nullptr; }
  [[nodiscard]] std::size_t bucket_index(SimTime t) const;
  void ladder_insert(Entry e);
  const Entry* ladder_peek();  // min ladder entry; refills window from heap
  void ladder_pop_front();     // consume the entry ladder_peek returned
  bool refill_window();        // re-anchor window at heap root; false: empty
  void flush_ladder();         // move ladder entries to heap, drop window
  void sweep_ladder_tombstones();

  /// Pop a free slot or grow the slab. Inline: the free-list hit is three
  /// loads and sits on every schedule call.
  std::uint32_t acquire_slot() {
    if (free_head_ != kNilSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slots_[slot].next_free;
      return slot;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t live_ = 0;        // scheduled, not yet fired or cancelled
  std::uint64_t tombstones_ = 0;  // cancelled entries still queued
  bool stopped_ = false;
  std::vector<Entry> heap_;  // implicit 4-ary min-heap
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  SchedulePolicy* tie_break_ = nullptr;  // null: plain (time, seq) pops
  std::vector<Entry> tie_buf_;           // reused same-instant collection

  // Ladder state. The window covers [win_lo_, win_hi_ns_) split into
  // kBucketCount buckets of width_ ns; entries at or past win_hi_ns_
  // overflow into heap_. win_hi_ns_ == INT64_MIN means "no window":
  // everything routes to the heap until the first pop re-anchors the
  // window at the heap root (so clearing a tie-break policy mid-run needs
  // no migration pass). Invariant while a window is live: every heap
  // entry's time >= win_hi_ns_, so the ladder minimum is the global
  // minimum.
  static constexpr std::size_t kBucketCount = 512;
  static constexpr std::int64_t kMinBucketWidthNs = 16;
  static constexpr std::int64_t kMaxBucketWidthNs =
      std::int64_t{1} << 32;  // ~4.3 s
  std::vector<Bucket> buckets_;  // kBucketCount once first window forms
  SimTime win_lo_ = SimTime::zero();
  std::int64_t win_hi_ns_ = std::numeric_limits<std::int64_t>::min();
  std::int64_t width_ = 1024;     // current bucket width (ns)
  std::size_t scan_hint_ = 0;     // first possibly non-empty bucket
  std::size_t ladder_size_ = 0;   // entries in buckets (incl. tombstones)
  std::size_t win_inserted_ = 0;  // inserts this window: width feedback
};

}  // namespace smilab
