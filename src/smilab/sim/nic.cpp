#include "smilab/sim/nic.h"

#include <algorithm>
#include <cassert>

#include "smilab/sim/cpu_sched.h"
#include "smilab/sim/protocol.h"

namespace smilab {

Nic::Nic(const SystemConfig& cfg, Engine& engine, const NetworkModel& net,
         const Rng& master, Protocol& protocol, const CpuSched& sched)
    : cfg_(cfg),
      engine_(engine),
      net_(net),
      protocol_(protocol),
      sched_(sched),
      servers_(2 * static_cast<std::size_t>(cfg.node_count)),
      nic_rng_(master.fork(stream_label("nic"))) {}

// The armed event stays with the front booking only (see NicServer).
void Nic::submit(int node, bool egress, MsgHandle h) {
  NicServer& s = server(node, egress);
  if (s.paused()) {
    s.fifo.push_back(NicServer::Booking{h, {}, {}, EventId{}});
    return;
  }
  const SimTime start = std::max(engine_.now(), s.busy_until);
  const SimTime end = start + protocol_.pool().ref(h).xmit;
  s.busy_until = end;
  s.fifo.push_back(NicServer::Booking{h, start, end, EventId{}});
  if (s.fifo.size() == 1) arm(node, egress, s);
}

// Arm the front booking's merged event. Called when a booking lands in an
// empty FIFO, when a fired front hands the chain to its successor, and on
// resume; the target instants were fixed at booking time, so arming order
// never moves a timestamp.
void Nic::arm(int node, bool egress, NicServer& s) {
  assert(!s.fifo.empty());
  NicServer::Booking& e = s.fifo.front();
  assert(!e.ev.valid());
  if (egress) {
    e.ev = engine_.schedule_at(e.end, [this, node, h = e.h] { handoff(node, h); });
  } else {
    e.ev = engine_.schedule_at(e.end + net_.latency(),
                               [this, node, h = e.h] { arrival(node, h); });
  }
}

// A booked egress service ended: hand off (which may book at the
// destination ingress) before arming this server's next service.
void Nic::handoff(int node, MsgHandle h) {
  NicServer& s = server(node, /*egress=*/true);
  assert(!s.fifo.empty() && s.fifo.front().h == h);
  s.fifo.pop_front();
  protocol_.handoff_to_ingress(h);
  if (!s.fifo.empty()) arm(node, /*egress=*/true, s);
}

// A booked ingress service ended and the propagation delay elapsed. The
// booking may already be gone (a pause released it while the message was
// in propagation flight); otherwise the successor is armed before the
// arrival side effects run.
void Nic::arrival(int node, MsgHandle h) {
  NicServer& s = server(node, /*egress=*/false);
  if (!s.fifo.empty() && s.fifo.front().h == h) {
    s.fifo.pop_front();
    if (!s.fifo.empty()) arm(node, /*egress=*/false, s);
  }
  protocol_.on_message_arrival(h);
}

// Stop both directions of the node's NIC, egress first. Ingress bookings
// whose service already ended are in propagation flight, which no pause
// stops: each leaves with an armed arrival event (the front already has its
// merged event). Ties (end == now, event not yet fired) stay with the
// server and pay the stall, like a pause that beats the service-end. The
// front keeps its unserved time, at least 1 ns.
void Nic::pause(int node) {
  for (const bool egress : {true, false}) {
    NicServer& s = server(node, egress);
    if (++s.pause_depth > 1) continue;  // already stopped by another cause
    s.paused_at = engine_.now();
    while (!s.fifo.empty() && s.fifo.front().end < engine_.now()) {
      NicServer::Booking& e = s.fifo.front();
      if (!e.ev.valid()) {
        e.ev = engine_.schedule_at(
            e.end + net_.latency(), [this, node, h = e.h] { arrival(node, h); });
      }
      s.fifo.pop_front();  // its arrival event now owns the delivery
    }
    if (s.fifo.empty()) continue;
    NicServer::Booking& front = s.fifo.front();
    engine_.cancel(front.ev);
    front.ev = EventId{};
    s.remaining = std::max(SimDuration{1}, front.end - engine_.now());
    s.front_in_service = true;
  }
}

// Release one pause cause on both directions, egress first. A direction
// whose last cause cleared re-books its whole FIFO contiguously from now
// and arms the front. A front that was mid-service at the pause resumes
// with its unserved time plus the recovery draw; anything submitted while
// paused gets its full wire time.
void Nic::resume(int node) {
  for (const bool egress : {true, false}) {
    NicServer& s = server(node, egress);
    assert(s.paused());
    if (--s.pause_depth > 0) continue;  // another cause still holds it
    SimTime cursor = engine_.now();
    for (NicServer::Booking& e : s.fifo) {
      SimDuration service = protocol_.pool().ref(e.h).xmit;
      if (s.front_in_service) {  // the front, first pass only
        s.front_in_service = false;
        service = s.remaining;
        // TCP loss recovery after the stall: retransmission plus congestion-
        // window rebuild, proportional to how long the host was frozen.
        double recovery = net_.params().tcp_recovery_scale;
        if (recovery > 0.0 && sched_.node_htt_active(node)) {
          recovery *= cfg_.htt_nic_recovery_factor;
        }
        if (recovery > 0.0) {
          const SimDuration stall = engine_.now() - s.paused_at;
          service += nic_rng_.uniform_duration(
              SimDuration::zero(),
              std::max(SimDuration{1}, scale(stall, recovery)));
        }
      }
      e.start = cursor;
      e.end = cursor + service;
      cursor = e.end;
    }
    s.busy_until = cursor;
    if (!s.fifo.empty()) arm(node, egress, s);
  }
}

// The NICs go silent forever; traffic parked at them is undeliverable.
void Nic::silence(int node) {
  pause(node);
  for (const bool egress : {true, false}) {
    NicServer& s = server(node, egress);
    for (const NicServer::Booking& e : s.fifo) protocol_.fail_message(e.h);
    s.fifo.clear();
    s.front_in_service = false;
  }
}

}  // namespace smilab
