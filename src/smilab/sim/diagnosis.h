// Diagnosis: System's read-only layer. It explains a run from the other
// layers' state without changing any of it: the internal consistency
// check, the model checker's progress digest, the hang watchdog's
// all-parked test, the wait-for-graph diagnosis of a stuck run, and the
// transport resource snapshot.
#pragma once

#include <cstdint>

#include "smilab/sim/event_queue.h"
#include "smilab/sim/machine.h"
#include "smilab/sim/run_result.h"
#include "smilab/sim/task_impl.h"
#include "smilab/sim/transport.h"

namespace smilab {

class CpuSched;
class Interpreter;
class Nic;
class NodeControl;
class Protocol;

class Diagnosis {
 public:
  Diagnosis(const Engine& engine, const Cluster& cluster,
            const TaskTable& tasks, const CpuSched& sched,
            const Interpreter& interp, const Protocol& protocol,
            const Nic& nic, const NodeControl& ctl);

  /// See System::validate.
  void validate() const;
  /// See System::progress_digest.
  [[nodiscard]] std::uint64_t progress_digest() const;
  /// True when every unfinished task is parked in communication.
  [[nodiscard]] bool all_unfinished_comm_waiting() const;
  /// Per-rank blocked-operation report plus a wait-for cycle if one exists.
  [[nodiscard]] RunResult diagnose(RunStatus status) const;
  [[nodiscard]] TransportStats transport_stats() const;

 private:
  const Engine& engine_;
  const Cluster& cluster_;
  const TaskTable& tasks_;
  const CpuSched& sched_;
  const Interpreter& interp_;
  const Protocol& protocol_;
  const Nic& nic_;
  const NodeControl& ctl_;
};

}  // namespace smilab
