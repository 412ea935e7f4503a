// Point-to-point transport data structures: the message-path hot layer.
//
// The simulator replays every MPI message through the System, so for the
// NAS table sweeps the message path is wall-clock critical the same way the
// event engine is. Three structures carry it, all O(1) on the hot path and
// all bounded by *in-flight* traffic rather than total traffic:
//
//  * MessagePool — a slab/free-list of MessageRec slots addressed by
//    generation-checked handles. Records are recycled the moment the
//    protocol is done with them (eager: at receive copy; rendezvous: when
//    the sender's ack fires; ghosts/failures: immediately), so a class-C
//    table run keeps a few hundred live records instead of retaining every
//    message ever sent. Stale handles (e.g. a retransmission timer whose
//    message was abandoned) resolve to nullptr instead of poking a
//    recycled slot.
//  * UnexpectedQueue — per-receiver bucketed unexpected-message queues:
//    (src, tag) buckets for specific matches plus a per-tag index for
//    MPI_ANY_SOURCE, both as intrusive doubly-linked lists threaded through
//    the pool slots. Matching pops a list head instead of scanning a
//    mailbox vector, and a consumed record is unlinked from BOTH lists
//    eagerly, so mid-queue consumption reclaims immediately (the old
//    mailbox only compacted from the front). Every enqueued record gets a
//    per-receiver arrival sequence number; any-source matching follows the
//    per-tag list, which is arrival-ordered, preserving MPI's global
//    arrival-order semantics for wildcards — check_invariants verifies the
//    sequence is strictly increasing along every list.
//  * AckRouter — a global ack-key -> (task, handle) flat hash route. A
//    rendezvous completion previously scanned every task and searched two
//    maps per task; now it is one hash lookup. The route also remembers the
//    message's (dst_rank, tag) so a stuck sender can be diagnosed after the
//    record itself has been recycled.
//
// NbHandleTable replaces the per-task std::map<int, NbHandle>: programs use
// small dense task-local handle ids (collectives allocate 0..2p-1 and reuse
// them every invocation), so a flat slot vector indexed by id with slot
// reuse across open/close cycles beats a node-based map. Iteration is in
// ascending handle id — the same order std::map gave — so posted-receive
// matching picks the same handle bit-for-bit.
//
// Every keyed index here is a FlatKeyMap (sim/flat_key_map.h, DESIGN.md
// §16): open-addressed slots, so the per-message insert+erase churn never
// touches the allocator. All of them are probed by key only; whatever is
// iterated is sorted before it can have a simulation-visible effect.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <vector>

#include "smilab/sim/flat_key_map.h"
#include "smilab/sim/task.h"
#include "smilab/time/sim_time.h"
#include "smilab/trace/action_arena.h"

namespace smilab {

class SchedulePolicy;  // sim/choice_hooks.h

/// Generation-checked reference to a pooled MessageRec. Trivially copyable
/// (8 bytes) so deferred events capture it inline. A default-constructed
/// handle is null; a handle outlives its record gracefully: resolving it
/// after the record was recycled yields nullptr, never a stale slot.
struct MsgHandle {
  std::uint32_t index = 0;
  std::uint32_t gen = 0;  ///< 0 = null (live slots have gen >= 1)
  [[nodiscard]] bool valid() const { return gen != 0; }
  bool operator==(const MsgHandle&) const = default;
};

/// One point-to-point message, pooled. Lifecycle:
///   kTransit    injected; on the wire / in a NIC queue / awaiting retry
///   kUnexpected arrived, enqueued at the receiver, not yet matched
///   kMatched    matched to a receive; CPU-side copy not yet done
///   kConsumed   copy done; record held only until the rendezvous ack
///               fires (eager messages skip this state and recycle at copy)
/// Ghost duplicates and transport failures recycle straight from kTransit.
struct MessageRec {
  static constexpr std::uint32_t kNil = 0xffffffffu;

  enum class State : std::uint8_t { kTransit, kUnexpected, kMatched, kConsumed };

  GroupId group;
  int src_rank = 0;
  int dst_rank = 0;
  int src_node = 0;
  int dst_node = 0;
  std::int64_t bytes = 0;
  int tag = 0;
  bool needs_ack = false;
  std::uint64_t ack_key = 0;
  TaskId sender;
  SimDuration xmit{};  ///< per-stage wire service time (inter-node)
  SimTime arrival;
  std::uint64_t arrival_seq = 0;  ///< per-receiver arrival order (wildcards)
  State state = State::kTransit;
  bool arrived = false;
  bool arrived_during_smm = false;
  int attempts = 0;     ///< egress service attempts consumed (fault drops)
  bool ghost = false;   ///< injected duplicate; discarded at transport dedup
  bool failed = false;  ///< abandoned by the transport (dead link / crash)

  // Intrusive UnexpectedQueue links (indices into the pool, kNil-ended):
  // one doubly-linked list per (src, tag) bucket, one per tag index.
  std::uint32_t st_prev = kNil, st_next = kNil;
  std::uint32_t tag_prev = kNil, tag_next = kNil;
};

/// Slab allocator for MessageRec with a free list and generation-checked
/// handles. Capacity grows to the peak number of concurrently live records
/// and is then recycled forever; `live()` is bounded by in-flight traffic.
class MessagePool {
 public:
  /// Fresh record (value-initialized) in kTransit state.
  [[nodiscard]] MsgHandle alloc();

  /// Resolve a handle; nullptr when the record was recycled (stale handle).
  [[nodiscard]] MessageRec* get(MsgHandle h) {
    if (!h.valid() || h.index >= slots_.size()) return nullptr;
    Slot& s = slots_[h.index];
    return (s.live && s.gen == h.gen) ? &s.rec : nullptr;
  }
  [[nodiscard]] const MessageRec* get(MsgHandle h) const {
    return const_cast<MessagePool*>(this)->get(h);
  }

  /// Resolve a handle that must be live (hot path; asserts in debug).
  [[nodiscard]] MessageRec& ref(MsgHandle h);

  /// Record at a raw slab index that the caller knows is live — used by
  /// UnexpectedQueue to walk its intrusive links, which only ever thread
  /// through live kUnexpected records (eager dual unlink at match time).
  [[nodiscard]] MessageRec& at_index(std::uint32_t index) {
    assert(index < slots_.size() && slots_[index].live);
    return slots_[index].rec;
  }
  [[nodiscard]] const MessageRec& at_index(std::uint32_t index) const {
    assert(index < slots_.size() && slots_[index].live);
    return slots_[index].rec;
  }

  /// Live handle for a raw slab index (for releasing linked records).
  [[nodiscard]] MsgHandle handle_at(std::uint32_t index) const {
    assert(index < slots_.size() && slots_[index].live);
    return MsgHandle{index, slots_[index].gen};
  }

  /// Recycle a record. Its generation retires, so outstanding handles to it
  /// become stale rather than dangling.
  void release(MsgHandle h);

  [[nodiscard]] std::size_t live() const { return live_; }
  [[nodiscard]] std::size_t peak_live() const { return peak_live_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] std::int64_t total_allocated() const { return allocated_; }

  /// Count live records in `state` (diagnostics; O(capacity)).
  [[nodiscard]] std::size_t live_in_state(MessageRec::State state) const;

  /// Free-list / liveness bookkeeping self-check; throws std::logic_error.
  void check_invariants() const;

 private:
  struct Slot {
    MessageRec rec;
    std::uint32_t gen = 1;
    std::uint32_t next_free = MessageRec::kNil;
    bool live = false;
  };

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = MessageRec::kNil;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
  std::int64_t allocated_ = 0;
};

/// Per-receiver unexpected-message queues: (src, tag) buckets plus a
/// per-tag arrival-ordered index for any-source matching. See file header.
class UnexpectedQueue {
 public:
  /// Enqueue an arrived, unmatched message; assigns its arrival_seq and
  /// moves it to kUnexpected.
  void push(MessagePool& pool, MsgHandle h);

  /// Match and unlink the earliest-arrival message with `tag` from
  /// `src_rank` (or any source when src_rank == kAnySource). Returns a null
  /// handle when nothing matches. The record is left in kMatched state.
  ///
  /// `policy` (model checking; sim/choice_hooks.h) is consulted only for
  /// an ANY_SOURCE match with >= 2 candidate sources: candidates are the
  /// earliest queued message of each distinct source, in arrival order —
  /// MPI's non-overtaking rule pins the within-source order, so these are
  /// exactly the matches a real MPI library could legally make. Decision 0
  /// is the tag-list head, i.e. the default (earliest-arrival) match.
  [[nodiscard]] MsgHandle match(MessagePool& pool, int src_rank, int tag,
                                SchedulePolicy* policy);
  [[nodiscard]] MsgHandle match(MessagePool& pool, int src_rank, int tag) {
    return match(pool, src_rank, tag, nullptr);
  }

  /// Release every queued record back to the pool (receiver killed).
  void clear(MessagePool& pool);

  [[nodiscard]] std::size_t size() const { return count_; }

  /// Visit every queued record in true arrival order (diagnostics: the
  /// wait-for-graph report samples what a wedged receiver has queued but
  /// unmatched). F: void(const MessageRec&). Allocates and sorts — never
  /// on the message hot path.
  template <typename F>
  void for_each_arrival(const MessagePool& pool, F&& f) const {
    std::vector<int> tags = tag_keys();  // sorted; hash order cannot escape
    std::vector<const MessageRec*> recs;
    recs.reserve(count_);
    for (const int tag : tags) {
      for (std::uint32_t i = find_tag_bucket(tag)->head;
           i != MessageRec::kNil; i = pool.at_index(i).tag_next) {
        recs.push_back(&pool.at_index(i));
      }
    }
    std::sort(recs.begin(), recs.end(),
              [](const MessageRec* a, const MessageRec* b) {
                return a->arrival_seq < b->arrival_seq;
              });
    for (const MessageRec* r : recs) f(*r);
  }

  /// Structural self-check: link symmetry, live kUnexpected records only,
  /// strictly increasing arrival_seq along every list, counts consistent.
  void check_invariants(const MessagePool& pool) const;

 private:
  struct Bucket {
    std::uint32_t head = MessageRec::kNil;
    std::uint32_t tail = MessageRec::kNil;
  };

  // Both bucket families share one FlatKeyMap. (src, tag) keys put
  // src + 1 in the high word, tag-only keys leave it zero (src >= 0), so
  // the families never collide. One map halves the per-task header and
  // first-allocation cost; at 64k ranks a pair of maps was ~10 MB of
  // four-slot opening bids.
  static std::uint64_t st_key(int src_rank, int tag) {
    return ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_rank)) +
             1)
            << 32) |
           static_cast<std::uint32_t>(tag);
  }
  static std::uint64_t tag_key(int tag) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
  }
  [[nodiscard]] const Bucket* find_tag_bucket(int tag) const {
    return buckets_.find(tag_key(tag));
  }

  /// Distinct queued tags, sorted (diagnostics/clear; probe order cannot
  /// escape).
  [[nodiscard]] std::vector<int> tag_keys() const;

  /// Unlink `h` from both its (src, tag) bucket and its tag index;
  /// erases buckets that become empty so the map stays bounded by
  /// *concurrently* queued traffic, not by distinct tags ever seen.
  void unlink(MessagePool& pool, MsgHandle h);

  // Scratch for the policy-driven any-source candidate scan (first queued
  // record per distinct source). Heap members, not locals, so capacity
  // persists across matches and exploration runs don't churn the
  // allocator; boxed because only model-checking runs with wildcard
  // receives ever take that branch.
  struct MatchScratch {
    std::vector<std::uint32_t> cand;
    std::vector<int> seen;
  };
  [[nodiscard]] MatchScratch& scratch() {
    if (!scratch_) scratch_ = std::make_unique<MatchScratch>();
    return *scratch_;
  }

  /// Both bucket families, keyed by st_key / tag_key.
  FlatKeyMap<Bucket> buckets_;
  std::uint64_t next_seq_ = 0;
  std::size_t count_ = 0;
  std::unique_ptr<MatchScratch> scratch_;
};

/// Where a rendezvous completion ack should land, plus enough routing
/// detail (peer rank, tag) to diagnose a stuck sender after the message
/// record itself has been recycled.
struct AckTarget {
  TaskId task;
  int nb_handle = -1;  ///< nonblocking send handle id, or -1: blocking wait
  MsgHandle msg;       ///< the rendezvous payload (recycled when the ack fires)
  int dst_rank = -1;
  int tag = -1;
  bool failed = false;  ///< the payload was abandoned; the ack never comes
};

/// Global ack-key -> target hash route: one lookup per completion instead
/// of a scan over every task. Keys are globally unique per System; flat
/// open-addressed slots save an alloc/free pair per rendezvous.
///
/// Determinism (smilint D3): the router is match-by-key ONLY — add, find,
/// erase, size. It deliberately exposes no iteration or visitation API, so
/// the map's probe order cannot reach simulation state, output, or
/// validate() ordering. If a future change needs to walk outstanding
/// routes (e.g. for diagnostics), it must drain via sorted keys; the
/// AckRouterPermutation test pins this by inserting in permuted orders and
/// hashing the observable drain sequence.
class AckRouter {
 public:
  /// Pre-size for about `n` concurrent routes (O(ranks) during a
  /// collective phase).
  void reserve(std::size_t n) { routes_.reserve(n); }

  void add(std::uint64_t key, AckTarget target) {
    routes_.get_or_insert(key) = target;
  }
  [[nodiscard]] AckTarget* find(std::uint64_t key) { return routes_.find(key); }
  [[nodiscard]] const AckTarget* find(std::uint64_t key) const {
    return routes_.find(key);
  }
  void erase(std::uint64_t key) { routes_.erase(key); }
  [[nodiscard]] std::size_t size() const { return routes_.size(); }

 private:
  FlatKeyMap<AckTarget> routes_;
};

/// Per-task nonblocking-communication handle table: a flat slot vector
/// indexed by the program's task-local handle id, slots reused across
/// open/close cycles. Iteration is ascending by id (what std::map iteration
/// gave), which fixes the posted-receive match order.
///
/// Posted receives are additionally indexed by tag (`post_recv` /
/// `match_posted`): an arrival probes its tag bucket instead of scanning
/// every open handle, which is what made dense waitall windows (the
/// rendezvous ack storm) quadratic. The bucket keeps ids ascending, so the
/// match picks the same lowest-id handle the full scan picked, bit-for-bit.
/// Determinism (smilint D3): the tag map is probed by key only and dropped
/// wholesale on clear(); its probe order never reaches simulation state.
class NbHandleTable {
 public:
  struct Entry {
    bool open = false;
    bool is_send = false;
    bool complete = false;
    bool data_arrived = false;   ///< recv: matched message landed
    bool in_waitall = false;     ///< enrolled in the task's active WaitAll
    int wa_pos = -1;             ///< position in that WaitAll's handle list
    MsgHandle msg;               ///< recv: the matched message
    std::uint64_t ack_key = 0;   ///< send: rendezvous ack route key
    int src = -1;                ///< recv posting key
    int tag = 0;
    int peer = -1;               ///< counterpart rank (diagnosis wait-for edge)
  };

  /// Open slot `id` for a send or receive; asserts the id is not already
  /// in use.
  Entry& open_slot(int id, bool is_send);

  /// Enroll an open, unmatched receive slot in the posted-by-tag index.
  /// Call after the entry's `src`/`tag` posting keys are set.
  void post_recv(int id);

  /// Lowest-id posted receive matching (src_rank, tag) — identical to the
  /// ascending full-table scan — or -1. Does not consume; the caller marks
  /// the entry and calls unpost().
  [[nodiscard]] int match_posted(int src_rank, int tag) const;

  /// Remove a receive from the posted index (matched, closed, or killed).
  void unpost(int id);

  /// The open entry with this id, or nullptr.
  [[nodiscard]] Entry* find(int id) {
    if (id < 0 || static_cast<std::size_t>(id) >= entries_.size()) return nullptr;
    Entry& e = entries_[static_cast<std::size_t>(id)];
    return e.open ? &e : nullptr;
  }
  [[nodiscard]] const Entry* find(int id) const {
    return const_cast<NbHandleTable*>(this)->find(id);
  }

  /// Close (free) slot `id` for reuse.
  void close(int id);

  /// Drop every open entry (task killed). Does not touch pool records;
  /// the caller walks entries first to release/unroute them.
  void clear();

  [[nodiscard]] std::size_t open_count() const { return open_; }
  [[nodiscard]] bool any_open_recv() const { return open_recvs_ > 0; }

  /// Visit open entries in ascending handle-id order.
  /// F: void(int id, Entry&) / void(int id, const Entry&).
  template <typename F>
  void for_each_open(F&& f) {
    if (open_ == 0) return;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].open) f(static_cast<int>(i), entries_[i]);
    }
  }
  template <typename F>
  void for_each_open(F&& f) const {
    if (open_ == 0) return;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].open) f(static_cast<int>(i), entries_[i]);
    }
  }

 private:
  /// The posted-id vector for `tag`, or nullptr.
  [[nodiscard]] const std::pmr::vector<int>* find_posted(int tag) const;
  /// The posted-id vector for `tag`, creating an empty one.
  [[nodiscard]] std::pmr::vector<int>& get_posted(int tag);
  /// Drop `tag`'s bucket (it must be empty), recycling the store slot.
  void erase_posted(int tag);

  std::vector<Entry> entries_;
  std::size_t open_ = 0;
  std::size_t open_recvs_ = 0;
  /// tag -> ascending ids of open receives still awaiting a message, as
  /// (store index + 1) in a FlatKeyMap (0 = empty sentinel from value-
  /// initialization). Probed by key only; cleared wholesale (smilint D3).
  /// The id vectors themselves are recycled through posted_store_ /
  /// store_free_, so FlatKeyMap only ever relocates 32-bit indices.
  ///
  /// The id vectors live on the thread's ActionArena (trace/): posting and
  /// unposting churn small id vectors at waitall-window rate, and the bump
  /// resource turns that into pointer arithmetic.
  FlatKeyMap<std::uint32_t> posted_index_;
  std::vector<std::pmr::vector<int>> posted_store_;
  std::vector<std::uint32_t> store_free_;
  std::pmr::memory_resource* arena_ = ActionArena::current();
};

/// Snapshot of the transport's resource usage (System::transport_stats()).
struct TransportStats {
  std::int64_t messages_allocated = 0;  ///< total records ever allocated
  std::int64_t pool_live = 0;           ///< records currently live
  std::int64_t pool_capacity = 0;       ///< slab slots (the memory bound)
  std::int64_t pool_peak_live = 0;      ///< high-water mark of live records
  std::int64_t peak_in_flight = 0;      ///< high-water mark of wire traffic
  std::int64_t ack_routes = 0;          ///< outstanding rendezvous routes
};

}  // namespace smilab
