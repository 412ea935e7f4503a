// Interpreter: System's action layer. It decides what a task does next:
// it pulls actions from the task's source and runs each kind's state
// machine (one handler per Action alternative), parking the task when a
// wait is unsatisfied. It owns the task lifecycle counters (unfinished and
// failed tasks, the materialized-program high-water mark), the hang
// watchdog's last-progress instant and the completed-action ring.
#pragma once

#include <cstdint>

#include "smilab/net/network.h"
#include "smilab/sim/event_queue.h"
#include "smilab/sim/system_config.h"
#include "smilab/sim/task_impl.h"
#include "smilab/trace/action_ring.h"

namespace smilab {

class CpuSched;
class NodeControl;
class Protocol;

class Interpreter {
 public:
  Interpreter(const SystemConfig& cfg, Engine& engine, const NetworkModel& net,
              TaskTable& tasks, CpuSched& sched, Protocol& protocol,
              NodeControl& ctl);

  /// Count a freshly spawned task (before CpuSched::admit runs it).
  void admit(TaskImpl& t);
  /// Drive a task that is on its CPU, unfrozen, and needs driving: action
  /// entry, work completion, wait satisfaction, post-SMM resume.
  void step_action(TaskImpl& t);
  /// The lifecycle half of a fail-stop kill: the task is done and failed.
  void kill(TaskImpl& t);

  /// An action retired or a message/ack landed: the hang watchdog re-arms.
  void note_progress() { last_progress_ = engine_.now(); }
  [[nodiscard]] SimTime last_progress() const { return last_progress_; }

  [[nodiscard]] int unfinished_tasks() const { return unfinished_tasks_; }
  [[nodiscard]] std::int64_t failed_tasks() const { return failed_tasks_; }
  [[nodiscard]] std::int64_t peak_program_actions() const {
    return peak_program_actions_;
  }
  [[nodiscard]] ActionRing& action_ring() { return action_ring_; }
  [[nodiscard]] const ActionRing& action_ring() const { return action_ring_; }

  // WaitAll progress-counter helpers (TaskImpl::NbState::wa_* state).
  static void wa_mark_ready(TaskImpl& t, int pos);

 private:
  void start_next_action(TaskImpl& t);
  void finish_action(TaskImpl& t);
  void park(TaskImpl& t);
  void start_copy(TaskImpl& t, const MessageRec& msg);
  void finish_task(TaskImpl& t);
  void add_program_actions(std::int64_t delta);

  // One handler per Action alternative (Call is consumed by
  // start_next_action and never reaches a handler).
  void run(TaskImpl& t, Compute& a);
  void run(TaskImpl& t, Send& a);
  void run(TaskImpl& t, Recv& a);
  void run(TaskImpl& t, SendRecv& a);
  void run(TaskImpl& t, Sleep& a);
  void run(TaskImpl& t, Call& a);
  void run(TaskImpl& t, Isend& a);
  void run(TaskImpl& t, Irecv& a);
  void run(TaskImpl& t, WaitAll& a);

  static void wa_clear_ready(TaskImpl& t, int pos);
  [[nodiscard]] static int wa_first_ready(const TaskImpl& t);

  const SystemConfig& cfg_;
  Engine& engine_;
  const NetworkModel& net_;
  TaskTable& tasks_;
  CpuSched& sched_;
  Protocol& protocol_;
  NodeControl& ctl_;

  int unfinished_tasks_ = 0;
  std::int64_t failed_tasks_ = 0;
  std::int64_t program_actions_ = 0;  ///< sum of materialized_actions()
  std::int64_t peak_program_actions_ = 0;
  SimTime last_progress_ = SimTime::zero();
  ActionRing action_ring_;
};

}  // namespace smilab
