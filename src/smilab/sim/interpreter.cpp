#include "smilab/sim/interpreter.h"

#include <bit>
#include <cassert>
#include <utility>
#include <variant>

#include "smilab/sim/cpu_sched.h"
#include "smilab/sim/node_control.h"
#include "smilab/sim/protocol.h"

namespace smilab {

Interpreter::Interpreter(const SystemConfig& cfg, Engine& engine,
                         const NetworkModel& net, TaskTable& tasks,
                         CpuSched& sched, Protocol& protocol, NodeControl& ctl)
    : cfg_(cfg),
      engine_(engine),
      net_(net),
      tasks_(tasks),
      sched_(sched),
      protocol_(protocol),
      ctl_(ctl) {}

void Interpreter::add_program_actions(std::int64_t delta) {
  program_actions_ += delta;
  if (program_actions_ > peak_program_actions_) {
    peak_program_actions_ = program_actions_;
  }
}

void Interpreter::admit(TaskImpl& t) {
  ++unfinished_tasks_;
  t.materialized = t.source->materialized_actions();
  add_program_actions(t.materialized);
}

void Interpreter::start_next_action(TaskImpl& t) {
  note_progress();  // an action retired: the hang watchdog re-arms
  if (action_ring_.enabled() && t.action_kind >= 0) {
    action_ring_.record({t.id.value, t.action_kind, t.action_start, engine_.now()});
    t.action_kind = -1;
  }
  while (true) {
    std::optional<Action> a = t.source->next();
    // Streaming sources change their materialized footprint on refill;
    // retained ones report a constant, so the delta is usually zero.
    const std::int64_t m = t.source->materialized_actions();
    if (m != t.materialized) {
      add_program_actions(m - t.materialized);
      t.materialized = m;
    }
    if (!a) {
      finish_task(t);
      return;
    }
    if (auto* call = std::get_if<Call>(&*a)) {
      call->fn();
      continue;  // zero-time action; keep pulling
    }
    if (action_ring_.enabled()) {
      t.action_kind = static_cast<int>(a->index());
      t.action_start = engine_.now();
    }
    t.action = std::move(a);
    t.phase = 0;
    t.sr_send_injected = false;
    t.waiting_msg = false;
    t.waiting_ack = false;
    t.ack_arrived = false;
    t.pending_ack_key = 0;
    t.active_msg = MsgHandle{};
    step_action(t);
    return;
  }
}

void Interpreter::finish_action(TaskImpl& t) {
  t.action.reset();
  start_next_action(t);
}

// --- WaitAll progress counters (see TaskImpl::NbState::wa_*) -----------------

void Interpreter::wa_mark_ready(TaskImpl& t, int pos) {
  assert(t.nbs_ && t.nbs_->wa_armed && pos >= 0);
  TaskImpl::NbState& nb = *t.nbs_;
  const auto word = static_cast<std::size_t>(pos) / 64;
  assert(word < nb.wa_ready_bits.size());
  nb.wa_ready_bits[word] |= std::uint64_t{1}
                            << (static_cast<unsigned>(pos) % 64);
}

void Interpreter::wa_clear_ready(TaskImpl& t, int pos) {
  assert(t.nbs_ && t.nbs_->wa_armed && pos >= 0);
  TaskImpl::NbState& nb = *t.nbs_;
  const auto word = static_cast<std::size_t>(pos) / 64;
  assert(word < nb.wa_ready_bits.size());
  nb.wa_ready_bits[word] &=
      ~(std::uint64_t{1} << (static_cast<unsigned>(pos) % 64));
}

int Interpreter::wa_first_ready(const TaskImpl& t) {
  assert(t.nbs_);
  const TaskImpl::NbState& nb = *t.nbs_;
  for (std::size_t w = 0; w < nb.wa_ready_bits.size(); ++w) {
    if (nb.wa_ready_bits[w] != 0) {
      return static_cast<int>(w * 64) + std::countr_zero(nb.wa_ready_bits[w]);
    }
  }
  return -1;
}

// --- The per-action state machines ------------------------------------------

void Interpreter::step_action(TaskImpl& t) {
  assert(t.on_cpu);
  // Apply any rendezvous acks whose delivery instant has passed before the
  // poll reads the completion flags (unless this step IS such a delivery:
  // the maturation loop already interleaves them in event order).
  if (!t.pending_acks.empty() && !t.maturing_acks) {
    protocol_.mature_acks(t);
  }
  if (!t.action) {
    start_next_action(t);
    return;
  }
  t.state = TaskImpl::State::kRunning;
  std::visit([this, &t](auto& a) { run(t, a); }, *t.action);
}

void Interpreter::run(TaskImpl& t, Compute& comp) {
  if (t.phase == 0) {
    t.phase = 1;
    sched_.start_work(t, comp.work);
    return;
  }
  finish_action(t);
}

void Interpreter::run(TaskImpl& t, Send& send) {
  switch (t.phase) {
    case 0:  // pay the CPU-side injection cost
      t.phase = 1;
      sched_.start_work(t, net_.send_cpu_cost(send.bytes));
      return;
    case 1:  // hand to the wire
      t.pending_ack_key = protocol_.inject_message(
          t, send.dst_rank, send.bytes, send.tag, /*nb_handle=*/-1);
      if (t.pending_ack_key == 0) {  // eager: done at injection
        finish_action(t);
        return;
      }
      t.phase = 2;
      [[fallthrough]];
    case 2:  // rendezvous: wait for the receiver's completion ack
      if (t.ack_arrived) {
        finish_action(t);
        return;
      }
      t.waiting_ack = true;
      park(t);
      return;
    default:
      assert(false);
  }
}

void Interpreter::run(TaskImpl& t, Recv& recv) {
  switch (t.phase) {
    case 0: {  // wait for / match the message
      MessageRec* msg = nullptr;
      if (protocol_.try_match_recv(t, recv.src_rank, recv.tag, &msg)) {
        t.phase = 1;
        start_copy(t, *msg);
        return;
      }
      t.waiting_msg = true;
      t.wait_src = recv.src_rank;
      t.wait_tag = recv.tag;
      park(t);
      return;
    }
    case 1:  // copy complete
      protocol_.retire_copied(t, std::exchange(t.active_msg, MsgHandle{}));
      finish_action(t);
      return;
    default:
      assert(false);
  }
}

void Interpreter::run(TaskImpl& t, SendRecv& sr) {
  switch (t.phase) {
    case 0:  // send half: CPU injection cost
      t.phase = 1;
      sched_.start_work(t, net_.send_cpu_cost(sr.send_bytes));
      return;
    case 1: {  // inject send, then progress the receive half
      if (!t.sr_send_injected) {
        t.sr_send_injected = true;
        t.pending_ack_key = protocol_.inject_message(
            t, sr.dst_rank, sr.send_bytes, sr.send_tag, /*nb_handle=*/-1);
      }
      MessageRec* msg = nullptr;
      if (protocol_.try_match_recv(t, sr.src_rank, sr.recv_tag, &msg)) {
        t.phase = 2;
        start_copy(t, *msg);
        return;
      }
      t.waiting_msg = true;
      t.wait_src = sr.src_rank;
      t.wait_tag = sr.recv_tag;
      park(t);
      return;
    }
    case 2:  // recv copy complete
      protocol_.retire_copied(t, std::exchange(t.active_msg, MsgHandle{}));
      t.phase = 3;
      [[fallthrough]];
    case 3:  // wait for our own send's ack, if rendezvous
      if (t.pending_ack_key == 0 || t.ack_arrived) {
        finish_action(t);
        return;
      }
      t.waiting_ack = true;
      park(t);
      return;
    default:
      assert(false);
  }
}

void Interpreter::run(TaskImpl& t, Isend& isend) {
  switch (t.phase) {
    case 0:  // CPU-side injection cost, as for blocking Send
      t.phase = 1;
      sched_.start_work(t, net_.send_cpu_cost(isend.bytes));
      return;
    case 1: {
      NbHandleTable::Entry& entry = t.nbs().table.open_slot(isend.handle,
                                                            /*is_send=*/true);
      entry.peer = isend.dst_rank;
      entry.ack_key = protocol_.inject_message(t, isend.dst_rank, isend.bytes,
                                               isend.tag, isend.handle);
      entry.complete = entry.ack_key == 0;  // eager: complete at injection
      finish_action(t);
      return;
    }
    default:
      assert(false);
  }
}

void Interpreter::run(TaskImpl& t, Irecv& irecv) {
  NbHandleTable& nb_table = t.nbs().table;
  NbHandleTable::Entry& entry = nb_table.open_slot(irecv.handle,
                                                   /*is_send=*/false);
  entry.src = irecv.src_rank;
  entry.peer = irecv.src_rank;
  entry.tag = irecv.tag;
  // Match an already-arrived message immediately (late post); only
  // still-waiting receives enter the posted-by-tag index.
  MessageRec* msg = nullptr;
  if (protocol_.try_match_recv(t, irecv.src_rank, irecv.tag, &msg)) {
    entry.data_arrived = true;
    entry.msg = t.active_msg;
    t.active_msg = MsgHandle{};
  } else {
    nb_table.post_recv(irecv.handle);
  }
  finish_action(t);
}

void Interpreter::run(TaskImpl& t, WaitAll& wait) {
  // Not parked while actively progressing: a wake that lands during a
  // receive copy must not re-enter this state machine (arrivals and acks
  // poll a WaitAll task only while waiting_all is set).
  t.waiting_all = false;
  TaskImpl::NbState& nb = t.nbs();
  if (!nb.wa_armed) {
    // Arm the progress counters: one walk over the handle list on entry,
    // after which completion events (acks, arrivals, copy retirements)
    // maintain them and every re-poll is O(1). The old re-poll scanned
    // the whole list each time, which made dense waitall windows (the
    // rendezvous ack storm) quadratic.
    nb.wa_armed = true;
    nb.wa_incomplete = 0;
    nb.wa_ready_bits.assign((wait.handles.size() + 63) / 64, 0);
    for (std::size_t i = 0; i < wait.handles.size(); ++i) {
      NbHandleTable::Entry* entry = nb.table.find(wait.handles[i]);
      assert(entry != nullptr && "WaitAll on unknown handle");
      entry->in_waitall = true;
      entry->wa_pos = static_cast<int>(i);
      if (entry->complete) continue;
      ++nb.wa_incomplete;
      if (!entry->is_send && entry->data_arrived) {
        wa_mark_ready(t, static_cast<int>(i));
      }
    }
  }
  if (t.phase == 1) {
    // A receive's copy just finished: complete that handle.
    NbHandleTable::Entry* entry = nb.table.find(nb.active_nb_handle);
    assert(entry != nullptr);
    entry->complete = true;
    --nb.wa_incomplete;
    protocol_.retire_copied(t, std::exchange(entry->msg, MsgHandle{}));
    nb.active_nb_handle = -1;
    t.phase = 0;
  }
  // Re-poll: charge the next arrived-but-uncopied receive, or finish.
  // First-set-bit is the first ready receive in handle-list order — the
  // same pick the full scan made.
  const int pos = wa_first_ready(t);
  if (pos >= 0) {
    const int h = wait.handles[static_cast<std::size_t>(pos)];
    NbHandleTable::Entry* entry = nb.table.find(h);
    assert(entry != nullptr && !entry->is_send && !entry->complete &&
           entry->data_arrived);
    wa_clear_ready(t, pos);
    // Progress this receive now: CPU-side copy.
    nb.active_nb_handle = h;
    t.phase = 1;
    start_copy(t, protocol_.pool().ref(entry->msg));
    return;
  }
  if (nb.wa_incomplete == 0) {
    for (const int h : wait.handles) nb.table.close(h);
    t.waiting_all = false;
    nb.wa_armed = false;
    finish_action(t);
    return;
  }
  t.waiting_all = true;
  park(t);
}

void Interpreter::run(TaskImpl& t, Sleep& sleep) {
  switch (t.phase) {
    case 0: {
      t.phase = 1;
      t.state = TaskImpl::State::kSleeping;
      sched_.stop_running(t, /*keep_on_cpu=*/false);
      engine_.schedule_after(sleep.dur, [this, id = t.id] {
        TaskImpl& task_ref = tasks_.at(id);
        if (task_ref.state != TaskImpl::State::kSleeping) return;
        if (ctl_.defer_wake(task_ref)) return;
        sched_.make_ready(task_ref);
      });
      sched_.dispatch(t.node, t.cpu);
      return;
    }
    case 1:
      finish_action(t);
      return;
    default:
      assert(false);
  }
}

void Interpreter::run(TaskImpl&, Call&) {
  assert(false && "Call actions are consumed by start_next_action");
}

// A poll found nothing to do (the waiting flags are set): arm the lazy-ack
// wake and, under the blocking policy, give up the CPU until a wake.
void Interpreter::park(TaskImpl& t) {
  protocol_.ensure_ack_wake(t);
  if (t.wait_policy == WaitPolicy::kBlock) {
    t.state = TaskImpl::State::kBlocked;
    sched_.stop_running(t, /*keep_on_cpu=*/false);
    sched_.dispatch(t.node, t.cpu);
  }
}

// Charge the CPU-side copy of a matched message. A backlog that arrived
// during SMM drains cheaper when HTT siblings are online.
void Interpreter::start_copy(TaskImpl& t, const MessageRec& msg) {
  SimDuration cost = net_.recv_cpu_cost(msg.bytes);
  if (msg.arrived_during_smm && sched_.node_htt_active(t.node)) {
    cost = scale(cost, cfg_.post_smi_drain_factor);
  }
  sched_.start_work(t, cost);
}

void Interpreter::finish_task(TaskImpl& t) {
  assert(!t.stats.finished);
  // A finishing task cannot be awaiting a rendezvous ack (every wait
  // consumes its acks first), but acks queued for it with a delivery
  // instant still in the future must keep their wire-time effects (route
  // erase, payload recycle, note_progress) — hand them to the wake chain.
  protocol_.ensure_ack_wake(t);
  t.stats.finished = true;
  t.stats.end_time = engine_.now();
  t.state = TaskImpl::State::kDone;
  add_program_actions(-t.materialized);
  t.materialized = 0;
  sched_.stop_running(t, /*keep_on_cpu=*/false);
  --unfinished_tasks_;
  sched_.dispatch(t.node, t.cpu);
}

void Interpreter::kill(TaskImpl& t) {
  t.state = TaskImpl::State::kDone;
  t.stats.failed = true;
  t.stats.end_time = engine_.now();
  t.action.reset();
  t.action_kind = -1;
  add_program_actions(-t.materialized);
  t.materialized = 0;
  t.waiting_msg = t.waiting_ack = t.waiting_all = false;
  if (t.nbs_) t.nbs_->wa_armed = false;
  --unfinished_tasks_;
  ++failed_tasks_;
  note_progress();
}

}  // namespace smilab
