#include "smilab/sim/transport.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "smilab/sim/choice_hooks.h"

namespace smilab {

// --- MessagePool -------------------------------------------------------------

MsgHandle MessagePool::alloc() {
  std::uint32_t index;
  if (free_head_ != MessageRec::kNil) {
    index = free_head_;
    Slot& s = slots_[index];
    free_head_ = s.next_free;
    s.next_free = MessageRec::kNil;
    s.rec = MessageRec{};
    s.live = true;
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    slots_.back().live = true;
  }
  ++allocated_;
  ++live_;
  if (live_ > peak_live_) peak_live_ = live_;
  return MsgHandle{index, slots_[index].gen};
}

MessageRec& MessagePool::ref(MsgHandle h) {
  assert(h.valid() && h.index < slots_.size());
  Slot& s = slots_[h.index];
  assert(s.live && s.gen == h.gen && "stale MsgHandle on the hot path");
  return s.rec;
}

void MessagePool::release(MsgHandle h) {
  assert(h.valid() && h.index < slots_.size());
  Slot& s = slots_[h.index];
  assert(s.live && s.gen == h.gen && "double release / stale handle");
  s.live = false;
  ++s.gen;  // retire outstanding handles
  s.next_free = free_head_;
  free_head_ = h.index;
  --live_;
}

std::size_t MessagePool::live_in_state(MessageRec::State state) const {
  std::size_t n = 0;
  for (const Slot& s : slots_) {
    if (s.live && s.rec.state == state) ++n;
  }
  return n;
}

void MessagePool::check_invariants() const {
  auto fail = [](const std::string& what) {
    throw std::logic_error("MessagePool::check_invariants: " + what);
  };
  std::size_t live_seen = 0;
  for (const Slot& s : slots_) {
    if (s.live) ++live_seen;
  }
  if (live_seen != live_) fail("live slot count disagrees with counter");
  if (live_ > peak_live_) fail("live exceeds recorded peak");
  // Free list: every entry a dead slot, no cycles, covers all dead slots.
  std::size_t free_seen = 0;
  for (std::uint32_t i = free_head_; i != MessageRec::kNil;
       i = slots_[i].next_free) {
    if (i >= slots_.size()) fail("free-list index out of range");
    if (slots_[i].live) fail("live slot on the free list");
    if (++free_seen > slots_.size()) fail("free-list cycle");
  }
  if (free_seen + live_ != slots_.size()) {
    fail("free list does not cover every dead slot");
  }
}

// --- UnexpectedQueue ---------------------------------------------------------

void UnexpectedQueue::push(MessagePool& pool, MsgHandle h) {
  MessageRec& rec = pool.ref(h);
  assert(rec.arrived && !rec.ghost);
  rec.state = MessageRec::State::kUnexpected;
  rec.arrival_seq = next_seq_++;
  rec.st_prev = rec.st_next = MessageRec::kNil;
  rec.tag_prev = rec.tag_next = MessageRec::kNil;

  Bucket& st = buckets_.get_or_insert(st_key(rec.src_rank, rec.tag));
  if (st.tail == MessageRec::kNil) {
    st.head = st.tail = h.index;
  } else {
    pool.at_index(st.tail).st_next = h.index;
    rec.st_prev = st.tail;
    st.tail = h.index;
  }

  Bucket& tg = buckets_.get_or_insert(tag_key(rec.tag));
  if (tg.tail == MessageRec::kNil) {
    tg.head = tg.tail = h.index;
  } else {
    pool.at_index(tg.tail).tag_next = h.index;
    rec.tag_prev = tg.tail;
    tg.tail = h.index;
  }
  ++count_;
}

void UnexpectedQueue::unlink(MessagePool& pool, MsgHandle h) {
  MessageRec& rec = pool.ref(h);

  {  // (src, tag) bucket list
    Bucket* b = buckets_.find(st_key(rec.src_rank, rec.tag));
    assert(b != nullptr);
    if (rec.st_prev != MessageRec::kNil) {
      pool.at_index(rec.st_prev).st_next = rec.st_next;
    } else {
      b->head = rec.st_next;
    }
    if (rec.st_next != MessageRec::kNil) {
      pool.at_index(rec.st_next).st_prev = rec.st_prev;
    } else {
      b->tail = rec.st_prev;
    }
    if (b->head == MessageRec::kNil) {
      buckets_.erase(st_key(rec.src_rank, rec.tag));
    }
  }

  {  // tag index list
    Bucket* b = buckets_.find(tag_key(rec.tag));
    assert(b != nullptr);
    if (rec.tag_prev != MessageRec::kNil) {
      pool.at_index(rec.tag_prev).tag_next = rec.tag_next;
    } else {
      b->head = rec.tag_next;
    }
    if (rec.tag_next != MessageRec::kNil) {
      pool.at_index(rec.tag_next).tag_prev = rec.tag_prev;
    } else {
      b->tail = rec.tag_prev;
    }
    if (b->head == MessageRec::kNil) buckets_.erase(tag_key(rec.tag));
  }

  rec.st_prev = rec.st_next = MessageRec::kNil;
  rec.tag_prev = rec.tag_next = MessageRec::kNil;
  assert(count_ > 0);
  --count_;
}

MsgHandle UnexpectedQueue::match(MessagePool& pool, int src_rank, int tag,
                                 SchedulePolicy* policy) {
  std::uint32_t index = MessageRec::kNil;
  if (src_rank == kAnySource) {
    // The tag index is arrival-ordered across sources: its head IS the
    // globally earliest arrival with this tag (MPI wildcard semantics).
    if (const Bucket* b = find_tag_bucket(tag)) index = b->head;
    if (policy != nullptr && index != MessageRec::kNil) {
      // Candidate set for exploration: the FIRST queued record of each
      // distinct source, walked in arrival order so cand[0] is the
      // tag-list head and decision 0 reproduces the default match.
      MatchScratch& sc = scratch();
      sc.cand.clear();
      sc.seen.clear();
      for (std::uint32_t i = index; i != MessageRec::kNil;
           i = pool.at_index(i).tag_next) {
        const int src = pool.at_index(i).src_rank;
        if (std::find(sc.seen.begin(), sc.seen.end(), src) != sc.seen.end()) {
          continue;  // later message from a seen source: non-overtaking
        }
        sc.seen.push_back(src);
        sc.cand.push_back(i);
      }
      if (sc.cand.size() > 1) {
        const std::size_t pick =
            policy->choose(ChoiceKind::kAnySourceMatch, sc.cand.size());
        assert(pick < sc.cand.size() && "any-source decision out of range");
        index = sc.cand[pick];
      }
    }
  } else {
    if (const Bucket* b = buckets_.find(st_key(src_rank, tag))) {
      index = b->head;
    }
  }
  if (index == MessageRec::kNil) return MsgHandle{};
  const MsgHandle h = pool.handle_at(index);
  unlink(pool, h);
  pool.ref(h).state = MessageRec::State::kMatched;
  return h;
}

std::vector<int> UnexpectedQueue::tag_keys() const {
  std::vector<int> tags;
  buckets_.for_each([&tags](std::uint64_t key, const Bucket&) {
    // Tag-family keys only: (src, tag) keys carry src + 1 up top.
    if ((key >> 32) == 0) {
      tags.push_back(
          static_cast<std::int32_t>(static_cast<std::uint32_t>(key)));
    }
  });
  std::sort(tags.begin(), tags.end());
  return tags;
}

void UnexpectedQueue::clear(MessagePool& pool) {
  // Drain via sorted tag keys. Releasing in probe order would push records
  // onto the pool free list in an order that varies with insertion
  // history — and free-list order decides the slab index of every future
  // allocation. Sorting first makes the post-kill pool state a
  // deterministic function of queue content alone; each per-tag list is
  // already arrival-ordered, covering every queued record exactly once.
  for (const int tag : tag_keys()) {
    std::uint32_t i = find_tag_bucket(tag)->head;
    while (i != MessageRec::kNil) {
      const std::uint32_t next = pool.at_index(i).tag_next;
      pool.release(pool.handle_at(i));
      i = next;
    }
  }
  buckets_.clear();
  count_ = 0;
}

void UnexpectedQueue::check_invariants(const MessagePool& pool) const {
  auto fail = [](const std::string& what) {
    throw std::logic_error("UnexpectedQueue::check_invariants: " + what);
  };
  // Split the bucket families; validation is order-insensitive (every
  // failure throws regardless of visit order).
  std::vector<std::pair<int, Bucket>> tag_buckets;
  std::vector<std::pair<std::uint64_t, Bucket>> st_buckets;
  buckets_.for_each([&tag_buckets, &st_buckets](std::uint64_t key,
                                                const Bucket& b) {
    if ((key >> 32) == 0) {
      tag_buckets.emplace_back(
          static_cast<std::int32_t>(static_cast<std::uint32_t>(key)), b);
    } else {
      st_buckets.emplace_back(key, b);
    }
  });

  std::size_t tag_seen = 0;
  for (const auto& [tag, bucket] : tag_buckets) {
    if (bucket.head == MessageRec::kNil) fail("empty bucket not erased");
    std::uint64_t last_seq = 0;
    bool first = true;
    std::uint32_t prev = MessageRec::kNil;
    for (std::uint32_t i = bucket.head; i != MessageRec::kNil;) {
      const MessageRec& rec = pool.at_index(i);
      if (rec.state != MessageRec::State::kUnexpected) {
        fail("linked record not kUnexpected");
      }
      if (rec.tag != tag) fail("record in the wrong tag list");
      if (rec.tag_prev != prev) fail("tag-list prev link broken");
      if (!first && rec.arrival_seq <= last_seq) {
        fail("arrival_seq not strictly increasing along tag list");
      }
      last_seq = rec.arrival_seq;
      first = false;
      prev = i;
      i = rec.tag_next;
      ++tag_seen;
      if (tag_seen > count_) fail("tag lists longer than queue count");
    }
    if (bucket.tail != prev) fail("tag-list tail stale");
  }
  if (tag_seen != count_) fail("tag lists do not cover the queue");

  std::size_t st_seen = 0;
  for (const auto& [key, bucket] : st_buckets) {
    if (bucket.head == MessageRec::kNil) fail("empty (src,tag) bucket");
    // st_key biases src by +1 in the high word.
    const int src = static_cast<std::int32_t>((key >> 32) - 1);
    const int tag = static_cast<std::int32_t>(key & 0xffffffffu);
    std::uint64_t last_seq = 0;
    bool first = true;
    std::uint32_t prev = MessageRec::kNil;
    for (std::uint32_t i = bucket.head; i != MessageRec::kNil;) {
      const MessageRec& rec = pool.at_index(i);
      if (rec.src_rank != src || rec.tag != tag) {
        fail("record in the wrong (src,tag) bucket");
      }
      if (rec.st_prev != prev) fail("(src,tag) prev link broken");
      if (!first && rec.arrival_seq <= last_seq) {
        fail("arrival_seq not strictly increasing along (src,tag) list");
      }
      last_seq = rec.arrival_seq;
      first = false;
      prev = i;
      i = rec.st_next;
      ++st_seen;
      if (st_seen > count_) fail("(src,tag) lists longer than queue count");
    }
    if (bucket.tail != prev) fail("(src,tag) tail stale");
  }
  if (st_seen != count_) fail("(src,tag) buckets do not cover the queue");
}

// --- NbHandleTable -----------------------------------------------------------

NbHandleTable::Entry& NbHandleTable::open_slot(int id, bool is_send) {
  assert(id >= 0 && "nonblocking handle ids must be non-negative");
  if (static_cast<std::size_t>(id) >= entries_.size()) {
    entries_.resize(static_cast<std::size_t>(id) + 1);
  }
  Entry& e = entries_[static_cast<std::size_t>(id)];
  assert(!e.open && "nonblocking handle already in use");
  e = Entry{};
  e.open = true;
  e.is_send = is_send;
  ++open_;
  if (!is_send) ++open_recvs_;
  return e;
}

namespace {
std::uint64_t posted_key(int tag) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
}
}  // namespace

const std::pmr::vector<int>* NbHandleTable::find_posted(int tag) const {
  const std::uint32_t* idx = posted_index_.find(posted_key(tag));
  return idx == nullptr ? nullptr : &posted_store_[*idx - 1];
}

std::pmr::vector<int>& NbHandleTable::get_posted(int tag) {
  // The flat map holds (store index + 1) so a value-initialized slot reads
  // as "no bucket"; the pmr vectors never move — FlatKeyMap only relocates
  // the 32-bit indices during rehash / backward shift.
  std::uint32_t& ref = posted_index_.get_or_insert(posted_key(tag));
  if (ref == 0) {
    if (!store_free_.empty()) {
      ref = store_free_.back() + 1;
      store_free_.pop_back();
    } else {
      posted_store_.emplace_back(arena_);
      ref = static_cast<std::uint32_t>(posted_store_.size());
    }
  }
  return posted_store_[ref - 1];
}

void NbHandleTable::erase_posted(int tag) {
  const std::uint64_t key = posted_key(tag);
  std::uint32_t* idx = posted_index_.find(key);
  assert(idx != nullptr);
  assert(posted_store_[*idx - 1].empty());
  store_free_.push_back(*idx - 1);
  posted_index_.erase(key);
}

void NbHandleTable::post_recv(int id) {
  const Entry* e = find(id);
  assert(e != nullptr && !e->is_send && !e->data_arrived);
  std::pmr::vector<int>& ids = get_posted(e->tag);
  // Ids arrive mostly in ascending order (collectives allocate densely),
  // so the insertion point is almost always the back.
  auto it = std::lower_bound(ids.begin(), ids.end(), id);
  assert(it == ids.end() || *it != id);
  ids.insert(it, id);
}

int NbHandleTable::match_posted(int src_rank, int tag) const {
  const std::pmr::vector<int>* ids = find_posted(tag);
  if (ids == nullptr) return -1;
  for (const int id : *ids) {
    const Entry& e = entries_[static_cast<std::size_t>(id)];
    assert(e.open && !e.is_send && !e.data_arrived && e.tag == tag);
    if (e.src == kAnySource || e.src == src_rank) return id;
  }
  return -1;
}

void NbHandleTable::unpost(int id) {
  const Entry* e = find(id);
  assert(e != nullptr && !e->is_send);
  std::pmr::vector<int>* ids = const_cast<std::pmr::vector<int>*>(
      static_cast<const NbHandleTable*>(this)->find_posted(e->tag));
  if (ids == nullptr) return;
  auto it = std::lower_bound(ids->begin(), ids->end(), id);
  if (it == ids->end() || *it != id) return;  // not posted (already matched)
  ids->erase(it);
  if (ids->empty()) erase_posted(e->tag);
}

void NbHandleTable::close(int id) {
  Entry* e = find(id);
  assert(e != nullptr && "closing an unknown handle");
  if (!e->is_send) {
    assert(open_recvs_ > 0);
    --open_recvs_;
    if (!e->data_arrived) unpost(id);
  }
  e->open = false;
  assert(open_ > 0);
  --open_;
}

void NbHandleTable::clear() {
  for (Entry& e : entries_) e.open = false;
  open_ = 0;
  open_recvs_ = 0;
  // Drop the id vectors wholesale: they point into an arena whose lifetime
  // the caller is about to recycle, so release them rather than keeping
  // them on the free list.
  posted_index_.clear();
  posted_store_.clear();
  store_free_.clear();
}

}  // namespace smilab
