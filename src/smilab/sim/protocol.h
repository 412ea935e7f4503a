// Protocol: System's point-to-point message layer. It decides how a
// message travels and completes: eager versus rendezvous, shared-memory
// versus NIC delivery, MPI matching (posted receives first, then the
// unexpected queues), rendezvous acks (lazily matured on the sender, or a
// dedicated event while a link fault model is armed), and the resilient
// transport's retransmit, fail and dedup rules. It owns the message pool,
// the ack router and the transport counters.
#pragma once

#include <cstdint>

#include "smilab/net/network.h"
#include "smilab/sim/event_queue.h"
#include "smilab/sim/system_config.h"
#include "smilab/sim/task_impl.h"
#include "smilab/sim/transport.h"

namespace smilab {

class CpuSched;
class Interpreter;
class Nic;
class NodeControl;
class SchedulePolicy;

class Protocol {
 public:
  Protocol(const SystemConfig& cfg, Engine& engine, const NetworkModel& net,
           TaskTable& tasks, CpuSched& sched, Interpreter& interp, Nic& nic,
           const NodeControl& ctl);

  /// Hand a message to the wire. A rendezvous-sized one also gets the ack
  /// route that completes the send (`nb_handle` >= 0: an Isend's handle).
  /// Returns the ack key, or 0 for an eager message.
  std::uint64_t inject_message(TaskImpl& sender, int dst_rank,
                               std::int64_t bytes, int tag, int nb_handle);
  /// Match an unexpected message for a receive; on success the task's
  /// active_msg holds it and `*out` points at it.
  bool try_match_recv(TaskImpl& t, int src_rank, int tag, MessageRec** out);
  /// A matched message's CPU-side copy finished.
  void retire_copied(TaskImpl& receiver, MsgHandle h);

  /// Apply every lazily queued ack whose delivery instant has passed.
  void mature_acks(TaskImpl& t, bool allow_wake = false);
  /// Arm (or tighten) the one wake event that stands in for every
  /// dedicated ack event while the task is parked.
  void ensure_ack_wake(TaskImpl& t);
  /// The transport half of a fail-stop kill: release every record the task
  /// holds and unhook its ack routes.
  void drop_task(TaskImpl& t);

  // NIC callbacks.
  void on_message_arrival(MsgHandle h);
  void handoff_to_ingress(MsgHandle h);
  void fail_message(MsgHandle h);

  void set_link_fault_model(LinkFaultModel* model) { link_fault_ = model; }
  void set_schedule_policy(SchedulePolicy* policy) { sched_policy_ = policy; }
  [[nodiscard]] SchedulePolicy* schedule_policy() const { return sched_policy_; }

  [[nodiscard]] MessagePool& pool() { return pool_; }
  [[nodiscard]] const MessagePool& pool() const { return pool_; }
  [[nodiscard]] const AckRouter& ack_router() const { return ack_router_; }

  [[nodiscard]] std::int64_t messages_dropped() const { return messages_dropped_; }
  [[nodiscard]] std::int64_t messages_duplicated() const { return messages_duplicated_; }
  [[nodiscard]] std::int64_t retransmissions() const { return retransmissions_; }
  [[nodiscard]] std::int64_t transport_failures() const { return transport_failures_; }
  [[nodiscard]] std::int64_t inter_node_bytes() const { return inter_node_bytes_; }
  [[nodiscard]] std::int64_t in_flight_messages() const { return in_flight_messages_; }
  [[nodiscard]] std::int64_t peak_in_flight_messages() const {
    return peak_in_flight_messages_;
  }

 private:
  void count_in_flight();
  bool match_posted_irecv(TaskImpl& t, MsgHandle h);
  void deliver_ack(const MessageRec& msg);
  void apply_ack(std::uint64_t ack_key, bool allow_wake);
  void queue_lazy_ack(TaskImpl& sender, std::uint64_t key, SimTime due);
  void retransmit_later(MsgHandle h);

  Engine& engine_;
  const NetworkModel& net_;
  TaskTable& tasks_;
  CpuSched& sched_;
  Interpreter& interp_;
  Nic& nic_;
  const NodeControl& ctl_;

  // Records live in pool_ and are addressed by generation-checked
  // MsgHandles; see sim/transport.h for the lifecycle and recycle policy.
  MessagePool pool_;
  AckRouter ack_router_;
  std::uint64_t next_ack_key_ = 1;
  LinkFaultModel* link_fault_ = nullptr;
  SchedulePolicy* sched_policy_ = nullptr;  ///< null: canonical schedule

  std::int64_t inter_node_bytes_ = 0;
  std::int64_t messages_dropped_ = 0;
  std::int64_t messages_duplicated_ = 0;
  std::int64_t retransmissions_ = 0;
  std::int64_t transport_failures_ = 0;
  std::int64_t in_flight_messages_ = 0;
  std::int64_t peak_in_flight_messages_ = 0;
};

}  // namespace smilab
