// Nic: System's NIC layer. It decides when a message's bits are on the
// wire: each node has an egress and an ingress server, each a pausable
// booked FIFO (a frozen host neither transmits nor ACKs, so TCP stalls
// with the CPUs, and pays a loss-recovery draw when it resumes).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "smilab/net/network.h"
#include "smilab/sim/event_queue.h"
#include "smilab/sim/system_config.h"
#include "smilab/sim/transport.h"
#include "smilab/time/rng.h"

namespace smilab {

class CpuSched;
class Protocol;

// Allocation-lazy FIFO for the NIC queues. std::deque here cost ~600 bytes
// of chunk map per instance at construction, which dominated System
// construction at 8192 nodes. A vector with a consumed-prefix head index
// allocates nothing until first use, pops in amortized O(1), and iterates
// contiguously.
template <typename T>
class ShortFifo {
 public:
  [[nodiscard]] bool empty() const { return head_ == v_.size(); }
  [[nodiscard]] std::size_t size() const { return v_.size() - head_; }
  [[nodiscard]] T& front() { return v_[head_]; }
  [[nodiscard]] const T& front() const { return v_[head_]; }
  void push_back(T x) {
    if (head_ != 0 && head_ == v_.size()) {
      v_.clear();
      head_ = 0;
    }
    v_.push_back(std::move(x));
  }
  void pop_front() {
    ++head_;
    if (head_ == v_.size()) {
      v_.clear();
      head_ = 0;
    } else if (head_ > 64 && head_ * 2 > v_.size()) {
      v_.erase(v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }
  void clear() {
    v_.clear();
    head_ = 0;
  }
  [[nodiscard]] auto begin() { return v_.begin() + static_cast<std::ptrdiff_t>(head_); }
  [[nodiscard]] auto end() { return v_.end(); }
  [[nodiscard]] auto begin() const { return v_.begin() + static_cast<std::ptrdiff_t>(head_); }
  [[nodiscard]] auto end() const { return v_.end(); }

 private:
  std::vector<T> v_;
  std::size_t head_ = 0;
};

/// One direction of a node's NIC, as a pausable FIFO server. Pauses are
/// refcounted so overlapping causes (SMM freeze, fault freeze, link-down,
/// crash) compose; the server resumes when the last cause clears.
///
/// The FIFO is booked: while the server runs, each submit fixes its service
/// interval at once ([start, end] with start = max(now, busy_until)), so a
/// burst of N submits is N pushes and one running `busy_until` cursor. Only
/// the FRONT booking holds an armed event — egress: the handoff at `end`;
/// ingress: the merged service-end + propagation arrival at
/// `end + latency` — and arms its successor when it fires, so a deep
/// backlog keeps the engine heap at one event per server direction instead
/// of one per in-flight message (booking every event up front measurably
/// loses once backlogs reach tens of thousands: every heap operation pays
/// log N on the ballooned heap).
///
/// A pause splits the FIFO at `now`. Ingress bookings whose service already
/// ended are in propagation flight, which no pause stops: each leaves the
/// FIFO with its own arrival event. The front's event is cancelled and its
/// unserved time kept in `remaining`. Submits while paused append unbooked.
/// The resume re-books the whole FIFO contiguously from `now`, the front
/// first with `remaining` plus the TCP recovery draw.
struct NicServer {
  struct Booking {
    MsgHandle h;
    SimTime start;  // service begins (meaningful while unpaused)
    SimTime end;    // service ends: egress handoff / ingress + latency
    EventId ev{};   // armed only while this booking is the front
  };

  ShortFifo<Booking> fifo;
  SimTime busy_until;              // end of the last booked service
  SimTime paused_at;               // start of the outermost pause
  SimDuration remaining{};         // paused: the front's unserved time
  int pause_depth = 0;
  bool front_in_service = false;   // paused: the front was mid-service

  [[nodiscard]] bool paused() const { return pause_depth > 0; }
};

class Nic {
 public:
  /// Calls `protocol` when a message leaves egress service, arrives, or is
  /// abandoned; reads `sched`'s HTT state for the recovery draw.
  Nic(const SystemConfig& cfg, Engine& engine, const NetworkModel& net,
      const Rng& master, Protocol& protocol, const CpuSched& sched);

  /// Book the message's service interval now, or append it unbooked while
  /// the server is paused (the resume books it).
  void submit(int node, bool egress, MsgHandle h);
  /// Stop / restart both directions of the node's NIC (one pause cause).
  void pause(int node);
  void resume(int node);
  /// Crash: pause forever and abandon every message queued at the node.
  void silence(int node);

  [[nodiscard]] const NicServer& server(int node, bool egress) const {
    return servers_[index(node, egress)];
  }

 private:
  [[nodiscard]] static std::size_t index(int node, bool egress) {
    return 2 * static_cast<std::size_t>(node) + (egress ? 0 : 1);
  }
  [[nodiscard]] NicServer& server(int node, bool egress) {
    return servers_[index(node, egress)];
  }
  void arm(int node, bool egress, NicServer& server);
  void handoff(int node, MsgHandle h);
  void arrival(int node, MsgHandle h);

  const SystemConfig& cfg_;
  Engine& engine_;
  const NetworkModel& net_;
  Protocol& protocol_;
  const CpuSched& sched_;

  std::vector<NicServer> servers_;  ///< 2 * node + (egress ? 0 : 1)
  Rng nic_rng_;                     ///< TCP recovery draws
};

}  // namespace smilab
