#include "smilab/sim/protocol.h"

#include <cassert>

#include "smilab/sim/cpu_sched.h"
#include "smilab/sim/interpreter.h"
#include "smilab/sim/nic.h"
#include "smilab/sim/node_control.h"

namespace smilab {

namespace {
constexpr std::int64_t kAckBytes = 64;
}  // namespace

Protocol::Protocol(const SystemConfig& cfg, Engine& engine,
                   const NetworkModel& net, TaskTable& tasks, CpuSched& sched,
                   Interpreter& interp, Nic& nic, const NodeControl& ctl)
    : engine_(engine),
      net_(net),
      tasks_(tasks),
      sched_(sched),
      interp_(interp),
      nic_(nic),
      ctl_(ctl) {
  ack_router_.reserve(static_cast<std::size_t>(cfg.node_count) * 4);
}

void Protocol::count_in_flight() {
  if (++in_flight_messages_ > peak_in_flight_messages_) {
    peak_in_flight_messages_ = in_flight_messages_;
  }
}

// --- Injection ---------------------------------------------------------------

std::uint64_t Protocol::inject_message(TaskImpl& sender, int dst_rank,
                                       std::int64_t bytes, int tag,
                                       int nb_handle) {
  const bool needs_ack = net_.is_rendezvous(bytes);
  const std::uint64_t ack_key = needs_ack ? next_ack_key_++ : 0;
  const auto& members = tasks_.members(sender.group);
  assert(dst_rank >= 0 && dst_rank < static_cast<int>(members.size()));
  const TaskId dst_id = members[static_cast<std::size_t>(dst_rank)];
  assert(dst_id.valid() && "destination rank not spawned");
  TaskImpl& dst = tasks_.at(dst_id);

  const MsgHandle h = pool_.alloc();
  MessageRec& msg = pool_.ref(h);
  msg.group = sender.group;
  msg.src_rank = sender.rank;
  msg.dst_rank = dst_rank;
  msg.src_node = sender.node;
  msg.dst_node = dst.node;
  msg.bytes = bytes;
  msg.tag = tag;
  msg.needs_ack = needs_ack;
  msg.ack_key = ack_key;
  msg.sender = sender.id;
  msg.xmit = net_.wire_xmit(bytes);

  sender.stats.messages_sent += 1;
  sender.stats.bytes_sent += bytes;
  count_in_flight();

  if (sender.node == dst.node) {
    // Shared-memory transport: the copy is CPU work already charged to the
    // sender; the residual is a small transfer delay. Arrival during SMM
    // just lands in the unexpected queue (DMA); the frozen receiver drains
    // it later.
    engine_.schedule_after(net_.intra_transfer(bytes),
                           [this, h] { on_message_arrival(h); });
  } else {
    inter_node_bytes_ += bytes;
    nic_.submit(sender.node, /*egress=*/true, h);
  }
  if (needs_ack) {
    ack_router_.add(ack_key, AckTarget{sender.id, nb_handle, h, dst_rank, tag});
  }
  return ack_key;
}

// Bits left the source NIC: apply the link fault model, then serialize into
// the destination NIC. A dropped attempt re-enters the source egress queue
// after the retransmission timeout; a duplicated one additionally burns
// ingress service time at the destination before transport dedup eats it.
void Protocol::handoff_to_ingress(MsgHandle h) {
  MessageRec& msg = pool_.ref(h);
  ++msg.attempts;
  if (ctl_.crashed(msg.dst_node)) {
    // The destination died while the bits were on the wire: undeliverable.
    fail_message(h);
    return;
  }
  if (link_fault_ != nullptr && !msg.ghost &&
      link_fault_->should_drop(msg.src_node, msg.dst_node)) {
    ++messages_dropped_;
    if (msg.attempts > net_.params().max_retries) {
      ++transport_failures_;  // dead link: the transport gives up
      fail_message(h);
      return;
    }
    retransmit_later(h);
    return;
  }
  nic_.submit(msg.dst_node, /*egress=*/false, h);
  if (link_fault_ != nullptr && !pool_.ref(h).ghost &&
      link_fault_->should_duplicate(pool_.ref(h).src_node,
                                    pool_.ref(h).dst_node)) {
    ++messages_duplicated_;
    const MsgHandle dup_h = pool_.alloc();
    MessageRec& src = pool_.ref(h);  // alloc may have moved the slab
    MessageRec& dup = pool_.ref(dup_h);
    dup.src_node = src.src_node;
    dup.dst_node = src.dst_node;
    dup.bytes = src.bytes;
    dup.xmit = src.xmit;
    dup.ghost = true;
    count_in_flight();
    nic_.submit(dup.dst_node, /*egress=*/false, dup_h);
  }
}

void Protocol::retransmit_later(MsgHandle h) {
  MessageRec& msg = pool_.ref(h);
  ++retransmissions_;
  // RFC 6298-style exponential backoff from the base RTO.
  SimDuration rto = net_.params().retrans_timeout;
  for (int i = 1; i < msg.attempts; ++i) {
    rto = scale(rto, net_.params().retrans_backoff);
  }
  engine_.schedule_after(rto, [this, h] {
    MessageRec* m = pool_.get(h);
    if (m == nullptr || m->failed) return;  // abandoned and recycled meanwhile
    if (ctl_.crashed(m->src_node) || ctl_.crashed(m->dst_node)) {
      fail_message(h);
      return;
    }
    nic_.submit(m->src_node, /*egress=*/true, h);
  });
}

void Protocol::fail_message(MsgHandle h) {
  MessageRec& msg = pool_.ref(h);
  if (msg.failed || msg.arrived) return;
  msg.failed = true;
  --in_flight_messages_;
  if (msg.needs_ack) {
    // The sender's ack will never come; keep the route (marked failed) so a
    // stuck sender's diagnosis can still name its peer, but drop the record.
    if (AckTarget* route = ack_router_.find(msg.ack_key)) {
      route->failed = true;
      route->msg = MsgHandle{};
    }
  }
  pool_.release(h);
}

// --- Arrival and matching ----------------------------------------------------

void Protocol::on_message_arrival(MsgHandle h) {
  MessageRec& msg = pool_.ref(h);
  interp_.note_progress();
  if (ctl_.crashed(msg.dst_node)) {
    // The destination died while the message was in propagation flight:
    // its receiver is gone, so nothing would ever match or release it.
    fail_message(h);
    return;
  }
  --in_flight_messages_;
  if (msg.ghost) {
    // Transport dedup swallows injected duplicates; the ghost burned its
    // ingress wire time, so the record's job is done.
    pool_.release(h);
    return;
  }
  const auto& members = tasks_.members(msg.group);
  TaskImpl& dst = tasks_.at(members[static_cast<std::size_t>(msg.dst_rank)]);
  msg.arrived = true;
  msg.arrival = engine_.now();
  msg.arrived_during_smm = ctl_.in_smm(dst.node);

  // Posted nonblocking receives match first (MPI posted-queue semantics);
  // only unmatched arrivals enter the unexpected queue.
  if (match_posted_irecv(dst, h)) {
    if (dst.waiting_all) sched_.poll_waiter(dst);
    return;
  }
  dst.unexpected.push(pool_, h);

  if (!dst.waiting_msg) return;
  if (msg.tag != dst.wait_tag) return;
  if (dst.wait_src != kAnySource && msg.src_rank != dst.wait_src) return;
  sched_.poll_waiter(dst);
}

bool Protocol::try_match_recv(TaskImpl& t, int src_rank, int tag,
                              MessageRec** out) {
  const MsgHandle h = t.unexpected.match(pool_, src_rank, tag, sched_policy_);
  if (!h.valid()) return false;
  t.waiting_msg = false;
  t.active_msg = h;
  *out = &pool_.ref(h);
  return true;
}

bool Protocol::match_posted_irecv(TaskImpl& t, MsgHandle h) {
  if (!t.nbs_ || !t.nbs_->table.any_open_recv()) return false;
  NbHandleTable& nb_table = t.nbs_->table;
  MessageRec& msg = pool_.ref(h);
  // The posted-by-tag index holds exactly the open, unmatched receives (a
  // receive can only complete after its data arrives, so !data_arrived
  // implies !complete) and yields the lowest id — the same handle the old
  // ascending full-table scan picked.
  const int id = nb_table.match_posted(msg.src_rank, msg.tag);
  if (id < 0) return false;
  NbHandleTable::Entry* hit = nb_table.find(id);
  assert(hit != nullptr && !hit->is_send && !hit->complete);
  nb_table.unpost(id);
  hit->data_arrived = true;
  hit->msg = h;
  msg.state = MessageRec::State::kMatched;
  if (hit->in_waitall) Interpreter::wa_mark_ready(t, hit->wa_pos);
  return true;
}

// Count the receive, send the rendezvous ack if one is owed, then recycle
// the record — immediately for eager messages, or at the ack's completion
// for rendezvous ones (kConsumed holds the routing fields the ack path
// still reads).
void Protocol::retire_copied(TaskImpl& receiver, MsgHandle h) {
  assert(h.valid());
  receiver.stats.messages_received += 1;
  MessageRec& msg = pool_.ref(h);
  if (msg.needs_ack) {
    deliver_ack(msg);
    if (ack_router_.find(msg.ack_key) != nullptr) {
      msg.state = MessageRec::State::kConsumed;
      return;
    }
    // The sender was killed and its route erased: the ack will land on
    // nobody, so nothing holds the record past this point.
  }
  pool_.release(h);
}

// --- Acks ----------------------------------------------------------------------

void Protocol::deliver_ack(const MessageRec& msg) {
  // Control traffic: tiny, skips the queue servers (a real NIC prioritizes
  // pure ACKs and their wire time is negligible). If the sender's node is
  // frozen when it lands, the spinning sender picks it up at SMM exit.
  const SimDuration wire = msg.src_node == msg.dst_node
                               ? net_.intra_transfer(kAckBytes)
                               : net_.latency() + net_.wire_xmit(kAckBytes);
  // The delivery instant is fixed here and acks fire unconditionally (they
  // skip the NIC servers, so no pause or fault can move them) — record it
  // on the sender and piggyback the effects on its next poll instead of
  // paying a dedicated event. Falls back to the full event chain whenever
  // a link fault model is armed (drops/dups change route lifetimes
  // mid-flight) or the sender is already gone.
  if (link_fault_ == nullptr) {
    if (AckTarget* route = ack_router_.find(msg.ack_key)) {
      queue_lazy_ack(tasks_.at(route->task), msg.ack_key, engine_.now() + wire);
      return;
    }
  }
  engine_.schedule_after(wire, [this, key = msg.ack_key] {
    apply_ack(key, /*allow_wake=*/true);
  });
}

// The ack's effects. `allow_wake` is false when the owning sender is being
// stepped right now (lazy maturation at the top of its own poll): the
// ongoing poll reads the flags itself, and waking would re-enter its state
// machine.
void Protocol::apply_ack(std::uint64_t ack_key, bool allow_wake) {
  interp_.note_progress();
  // O(1) hash route: ack keys are globally unique per System.
  AckTarget* route = ack_router_.find(ack_key);
  if (route == nullptr) return;  // sender was killed; route already erased
  const AckTarget target = *route;
  ack_router_.erase(ack_key);
  // The consumed rendezvous payload was held only for this moment.
  if (target.msg.valid()) {
    assert(pool_.ref(target.msg).state == MessageRec::State::kConsumed);
    pool_.release(target.msg);
  }
  TaskImpl& t = tasks_.at(target.task);
  if (target.nb_handle >= 0) {
    // Nonblocking rendezvous send completion.
    if (NbHandleTable::Entry* entry =
            t.nbs_ ? t.nbs_->table.find(target.nb_handle) : nullptr) {
      entry->complete = true;
      entry->ack_key = 0;
      if (entry->in_waitall) {
        assert(t.nbs_->wa_armed);
        --t.nbs_->wa_incomplete;
      }
    }
    if (allow_wake && t.waiting_all) sched_.poll_waiter(t);
    return;
  }
  if (t.state == TaskImpl::State::kDone) return;
  if (t.pending_ack_key != ack_key) return;
  t.ack_arrived = true;
  t.pending_ack_key = 0;
  if (!t.waiting_ack) return;  // arrived before the task started waiting
  t.waiting_ack = false;
  if (!allow_wake) return;  // the ongoing poll continues from the flag
  sched_.poll_waiter(t);
}

// --- Lazy ack maturation -------------------------------------------------------
//
// deliver_ack computes the ack's delivery instant exactly as the eager
// path does, but — when no fault model is armed — records {due, key} on
// the sender instead of scheduling an event. Acks skip the NIC servers and
// fire unconditionally on the eager path, so their only observable effects
// are the sender-side completion flags, which the sender can only read at
// a poll. A parked sender gets a wake event at exactly the earliest due
// instant, so wake timing (and the hang watchdog's note_progress) is
// unchanged; a busy sender absorbs the acks into its next poll, which is
// where the event savings come from (the ack storm's senders are almost
// always mid-copy).

void Protocol::queue_lazy_ack(TaskImpl& sender, std::uint64_t key, SimTime due) {
  sender.pending_acks.push_back(
      TaskImpl::PendingAck{due, sender.pending_ack_seq++, key});
  if (sender.waiting_msg || sender.waiting_ack || sender.waiting_all) {
    ensure_ack_wake(sender);
  }
}

// Apply every pending ack whose delivery instant has passed, in delivery
// order (due, then queue order) — the order dedicated events fired in.
void Protocol::mature_acks(TaskImpl& t, bool allow_wake) {
  assert(!t.maturing_acks);
  t.maturing_acks = true;
  while (!t.pending_acks.empty()) {
    std::size_t best = t.pending_acks.size();
    for (std::size_t i = 0; i < t.pending_acks.size(); ++i) {
      const TaskImpl::PendingAck& p = t.pending_acks[i];
      if (p.due > engine_.now()) continue;
      if (best == t.pending_acks.size() ||
          p.due < t.pending_acks[best].due ||
          (p.due == t.pending_acks[best].due &&
           p.seq < t.pending_acks[best].seq)) {
        best = i;
      }
    }
    if (best == t.pending_acks.size()) break;
    const std::uint64_t key = t.pending_acks[best].key;
    t.pending_acks[best] = t.pending_acks.back();
    t.pending_acks.pop_back();
    apply_ack(key, allow_wake);
  }
  t.maturing_acks = false;
}

void Protocol::ensure_ack_wake(TaskImpl& t) {
  if (t.pending_acks.empty()) return;
  SimTime due = t.pending_acks[0].due;
  for (const TaskImpl::PendingAck& p : t.pending_acks) {
    if (p.due < due) due = p.due;
  }
  if (t.ack_wake_ev.valid() && t.ack_wake_due <= due) return;
  engine_.cancel(t.ack_wake_ev);
  t.ack_wake_due = due;
  t.ack_wake_ev = engine_.schedule_at(due, [this, id = t.id] {
    TaskImpl& task_ref = tasks_.at(id);
    task_ref.ack_wake_ev = EventId{};
    mature_acks(task_ref, /*allow_wake=*/true);
    ensure_ack_wake(task_ref);  // later dues may remain
  });
}

// --- Crash ---------------------------------------------------------------------

// Release every pool record a killed task holds and unhook its ack routes:
// the message in mid-copy, matched-but-uncopied nonblocking receives,
// queued unexpected traffic, and outstanding rendezvous-send routes (whose
// acks must now fall on the floor, not on a recycled slot). A routed
// payload is released only once it is kConsumed — in any other state the
// wire or the receiving task still owns it, and the receiver's
// retire_copied path will find the route gone and recycle it then.
void Protocol::drop_task(TaskImpl& t) {
  auto drop_route = [&](std::uint64_t key) {
    if (key == 0) return;
    const AckTarget* route = ack_router_.find(key);
    if (route == nullptr) return;
    if (MessageRec* m = pool_.get(route->msg);
        m != nullptr && m->state == MessageRec::State::kConsumed) {
      pool_.release(route->msg);
    }
    ack_router_.erase(key);
  };
  if (t.active_msg.valid()) {
    pool_.release(t.active_msg);
    t.active_msg = MsgHandle{};
  }
  if (t.nbs_) {
    t.nbs_->table.for_each_open([&](int, NbHandleTable::Entry& entry) {
      if (entry.data_arrived && entry.msg.valid()) pool_.release(entry.msg);
      if (entry.is_send) drop_route(entry.ack_key);
    });
    t.nbs_->table.clear();
  }
  drop_route(t.pending_ack_key);
  t.pending_ack_key = 0;
  t.unexpected.clear(pool_);
  // Pending lazy acks stay queued: their routes are gone (drop_route), but
  // the wake chain still fires at each delivery instant so the watchdog
  // sees the same note_progress sequence dedicated ack events produced.
  ensure_ack_wake(t);
}

}  // namespace smilab
