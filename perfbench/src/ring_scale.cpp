// ring_scale: the streaming ring halo exchange of bench/scale_projection at
// 16384 ranks (2048 nodes of 8 ranks), under long SMIs at 1/s. The work is
// event scheduling, rank-indexed matching, NIC service and the network
// memo; calibration, the cache model and the sweep pool are bypassed.
#include <chrono>
#include <cstdio>
#include <optional>

#include "smilab/core/fnv.h"
#include "smilab/mpi/job.h"
#include "smilab/mpi/streaming.h"
#include "smilab/sim/system.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace smilab;

constexpr int kRanks = 16384;
constexpr int kRanksPerNode = 8;  // wyeast_e5520 cores: no time-sharing
constexpr int kIters = 50;
constexpr std::int64_t kBytes = 64 * 1024;
const SimDuration kStep = microseconds(200);

bool emit_ring_chunk(int rank, int chunk, RankProgram& rp, TagAllocator& tags) {
  if (chunk >= kIters) return false;
  const int base = tags.allocate(2);
  const int next = (rank + 1) % kRanks;
  const int prev = (rank + kRanks - 1) % kRanks;
  rp.compute(kStep);
  rp.sendrecv(next, kBytes, base, prev, base);
  rp.sendrecv(prev, kBytes, base + 1, next, base + 1);
  return true;
}

/// FNV-1a over the fields of scale_projection's outcome_hash: elapsed,
/// per-rank stats, inter-node bytes and the in-flight high-water mark.
std::uint64_t outcome_hash(const System& sys, const MpiJobResult& result) {
  Fnv64 h;
  h.mix_signed(result.elapsed.ns());
  for (int t = 0; t < sys.task_count(); ++t) {
    const TaskStats& s = sys.task_stats(TaskId{t});
    h.mix_signed(s.end_time.ns());
    h.mix_signed(s.os_view_cpu_time.ns());
    h.mix_signed(s.true_cpu_time.ns());
    h.mix_signed(s.smm_stolen_time.ns());
    h.mix_signed(s.messages_sent);
    h.mix_signed(s.messages_received);
    h.mix_signed(s.bytes_sent);
    h.mix(s.finished ? 1 : 0);
  }
  h.mix_signed(sys.inter_node_bytes());
  h.mix_signed(sys.peak_in_flight_messages());
  return h.value();
}

}  // namespace

PassReport run_ring_scale(const PassOptions& options) {
  PassReport report;
  const Span pass{"pass"};

  SystemConfig cfg;
  cfg.machine = MachineSpec::wyeast_e5520();
  cfg.node_count = node_count_for(kRanks, kRanksPerNode);
  cfg.net = NetworkParams::wyeast();
  cfg.smi = SmiConfig::long_every_second();
  cfg.seed = 42 + 1000003 * static_cast<std::uint64_t>(options.variant);
  std::optional<System> sys;
  {
    const Span span{"sim.setup"};
    sys.emplace(cfg);
  }
  RankSourceFactory sources;
  {
    const Span span{"mpi.sources"};
    sources = chunked_rank_sources(kRanks, [](int rank) {
      return [rank](int chunk, RankProgram& rp, TagAllocator& tags) {
        return emit_ring_chunk(rank, chunk, rp, tags);
      };
    });
  }

  report.first_call = Clock::now();
  MpiJobResult result;
  {
    const Span span{"sim.run"};
    result = run_mpi_job_streaming(*sys, kRanks, sources,
                                   block_placement(kRanks, kRanksPerNode),
                                   WorkloadProfile{}, "ring_scale");
  }
  report.wall_s =
      std::chrono::duration<double>(Clock::now() - report.first_call).count();

  bool finished = true;
  for (const TaskStats& s : result.rank_stats) finished = finished && s.finished;
  const auto actions = static_cast<double>(kRanks) * kIters * 3;
  const auto events = static_cast<double>(sys->engine().executed_events());
  report.cells = 1;
  report.cell_ms = {report.wall_s * 1e3};
  report.attempted = 1;
  report.failed = finished ? 0 : 1;
  if (finished) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(outcome_hash(*sys, result)));
    report.hashes.push_back({"ring.16384", hex, 1});
  }
  report.values["actions_per_s"] = actions / report.wall_s;
  report.counters["sim.events"] = events;
  report.counters["sim.events_cancelled"] =
      static_cast<double>(sys->engine().cancelled_events());
  report.counters["sim.ns_per_event"] = report.wall_s * 1e9 / events;
  report.counters["smm.fired"] =
      static_cast<double>(sys->smm_accounting().total_smi_count());
  report.counters["transport.messages"] =
      static_cast<double>(result.transport.messages_allocated);
  report.counters["transport.pool_peak_live"] =
      static_cast<double>(result.transport.pool_peak_live);
  report.counters["transport.peak_in_flight"] =
      static_cast<double>(result.transport.peak_in_flight);
  report.counters["mpi.peak_program_actions"] =
      static_cast<double>(sys->peak_program_actions());
  return report;
}

}  // namespace perfbench
