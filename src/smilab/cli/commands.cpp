#include "smilab/cli/commands.h"

#include <csignal>

#include <fstream>
#include <iostream>

#include "smilab/apps/convolve/workload.h"
#include "smilab/apps/nas/nas.h"
#include "smilab/apps/nas/runner.h"
#include "smilab/apps/unixbench/unixbench.h"
#include "smilab/core/sweep.h"
#include "smilab/cpu/energy.h"
#include "smilab/fault/fault_injector.h"
#include "smilab/mc/corpus.h"
#include "smilab/mc/explorer.h"
#include "smilab/mc/schedule_trace.h"
#include "smilab/mpi/job.h"
#include "smilab/mpi/program.h"
#include "smilab/noise/hwlat.h"
#include "smilab/serve/server.h"
#include "smilab/sim/system.h"
#include "smilab/smm/rim.h"
#include "smilab/trace/chrome_trace.h"

namespace smilab {

namespace {

constexpr const char* kUsage = R"(smilab — SMI noise laboratory

usage: smilab <command> [--flag=value ...]

commands:
  nas        --workload=ep|bt|ft --class=A|B|C [--nodes=N] [--ranks-per-node=1|4]
             [--htt] [--smi=none|short|long] [--interval-ms=N] [--trials=N]
             [--seed=N] [--jobs=N]
             Run one NAS table cell (calibrated against the paper baseline)
             under the chosen SMI regime. Rank programs stream chunk by
             chunk (peak RSS O(ranks)).
  convolve   [--case=cf|cu] [--cpus=1..8] [--smi=none|short|long]
             [--gap-ms=N] [--seed=N]
             The Figure-1 multithreaded convolution at one sweep point.
  unixbench  [--cpus=1..8] [--smi=none|short|long] [--gap-ms=N] [--seed=N]
             The Figure-2 five-test index at one sweep point.
  detect     [--smi=short|long] [--gap-ms=N] [--duration-s=N]
             [--window-ms=N] [--period-ms=N]
             hwlat-style TSC-gap detection, scored against ground truth.
  rim        [--scan-mb=X] [--interval-ms=N] [--total-mb=X] [--nodes=N]
             A RIM (SMM integrity scanning) policy: residency, duty cycle,
             detection latency, and measured application slowdown.
  faults     [--nodes=N] [--iters=N] [--bytes=N] [--smi=none|short|long]
             [--gap-ms=N] [--seed=N] [--hang-timeout-s=N]
             [--freeze=node:at_ms:dur_ms] [--crash=node:at_ms]
             [--link-down=node:at_ms:dur_ms] [--slow=node:at_ms:dur_ms:scale]
             [--drop=P] [--dup=P]
             Ring halo-exchange job under an injected fault plan: transport
             drops/retransmissions, node freezes, fail-stop crashes. Each
             fault flag takes a comma-separated list of specs (e.g.
             --freeze=0:100:200,1:400:100). Prints the per-rank
             hang/deadlock diagnosis (and exits 3) if the faults stall the
             job.
  serve      [--socket=PATH] [--stdin-batch] [--workers=N] [--cache-mb=X]
             [--cache-shards=N]
             Persistent sweep service: newline-delimited JSON experiment
             requests, answered from a content-addressed result cache
             (hits replay bit-identical bytes with zero simulation) or
             simulated on a warm worker pool. --stdin-batch pumps stdin
             to stdout and exits at EOF (CI mode); otherwise listens on
             the Unix socket PATH ('@' prefix = Linux abstract namespace)
             until SIGINT/SIGTERM. See README "smilab serve" for the
             request schema.
  check      [--program=NAME] [--list] [--max-schedules=N] [--max-depth=N]
             [--no-prune] [--replay=TOKEN]
             Explore the schedule space of the model-checking corpus (or
             one named program) and report a determinism / deadlock
             verdict per case. Default budgets match the pinned corpus
             expectations, and any count or verdict drift fails the run.
             --replay re-executes exactly one schedule from its token
             (requires --program) and prints that run's outcome.
  help       This text.

common:
  --trace=FILE   write a Chrome trace of the (last) run to FILE.

exit codes: 0 success, 2 usage error, 3 the simulation itself faulted
(deadlock / hang / max_sim_time / invalid configuration).
)";

SmiConfig smi_from(const Options& options, std::string* error) {
  const std::string kind = options.get("smi", "long");
  const auto gap = options.get_int("gap-ms", options.get_int("interval-ms", 1000, error), error);
  if (kind == "none") return SmiConfig::none();
  if (kind == "short") return SmiConfig::short_with_gap(gap);
  if (kind == "long") return SmiConfig::long_with_gap(gap);
  *error = "unknown --smi kind '" + kind + "' (none|short|long)";
  return SmiConfig::none();
}

int fail(std::ostream& err, const std::string& message) {
  err << "smilab: " << message << "\n";
  return 2;
}

int check_leftovers(const Options& options, std::ostream& err) {
  const auto extra = options.unconsumed();
  if (extra.empty()) return 0;
  std::string message = "unknown flag(s):";
  for (const auto& key : extra) message += " --" + key;
  return fail(err, message);
}

void maybe_write_trace(const Options& options, const System& sys,
                       std::ostream& out, std::ostream& err) {
  const std::string path = options.get("trace", "");
  if (path.empty()) return;
  std::ofstream file{path};
  if (!file) {
    err << "smilab: cannot open trace file '" << path << "'\n";
    return;
  }
  file << to_chrome_trace(sys);
  out << "chrome trace written to " << path << "\n";
}

int cmd_nas(const Options& options, std::ostream& out, std::ostream& err) {
  std::string error;
  const std::string workload = options.get("workload", "ep");
  NasJobSpec spec;
  if (workload == "ep") spec.bench = NasBenchmark::kEP;
  else if (workload == "bt") spec.bench = NasBenchmark::kBT;
  else if (workload == "ft") spec.bench = NasBenchmark::kFT;
  else return fail(err, "unknown --workload '" + workload + "' (ep|bt|ft)");

  const std::string cls = options.get("class", "A");
  if (cls == "A") spec.cls = NasClass::kA;
  else if (cls == "B") spec.cls = NasClass::kB;
  else if (cls == "C") spec.cls = NasClass::kC;
  else return fail(err, "unknown --class '" + cls + "' (A|B|C)");

  spec.nodes = static_cast<int>(options.get_int("nodes", 4, &error));
  spec.ranks_per_node =
      static_cast<int>(options.get_int("ranks-per-node", 1, &error));
  spec.htt = options.get_bool("htt", false);
  const auto trials = static_cast<int>(options.get_int("trials", 3, &error));
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 2016, &error));
  const auto jobs = static_cast<int>(options.get_int("jobs", 1, &error));
  const SmiConfig smi = smi_from(options, &error);
  (void)options.get("trace", "");  // mark consumed
  if (!error.empty()) return fail(err, error);
  if (const int rc = check_leftovers(options, err)) return rc;
  if (!nas_valid_rank_count(spec.bench, spec.ranks())) {
    return fail(err, std::string(to_string(spec.bench)) +
                         " does not support " + std::to_string(spec.ranks()) +
                         " ranks (BT: square, FT: power of two)");
  }

  const NasKnob knob = calibrate_nas_knob(spec);
  // The (regime, trial) cells are independent sims: fan them across the
  // sweep pool (--jobs=N) and fold back in serial order, so the output is
  // byte-identical at any job count.
  const ExperimentSweep sweep{jobs};
  const std::vector<double> runs = sweep.map<double>(2 * trials, [&](int i) {
    const SmiConfig& cfg = (i % 2 == 0) ? SmiConfig::none() : smi;
    return simulate_nas_once(spec, knob, cfg,
                             seed + static_cast<std::uint64_t>(i / 2), 0.003);
  });
  OnlineStats base, noisy;
  for (int t = 0; t < trials; ++t) {
    base.add(runs[static_cast<std::size_t>(2 * t)]);
    noisy.add(runs[static_cast<std::size_t>(2 * t + 1)]);
  }
  out << "NAS " << to_string(spec.bench) << " class " << to_string(spec.cls)
      << ", " << spec.nodes << " node(s) x " << spec.ranks_per_node
      << " rank(s)/node" << (spec.htt ? ", HTT on" : "") << ", " << trials
      << " trial(s)\n";
  const auto paper = nas_paper_baseline(spec);
  const double work = nas_work_units(spec.bench, spec.cls);
  out << "  no SMIs:   " << base.mean() << " s";
  if (paper) out << "  (paper baseline " << *paper << " s)";
  out << ", " << work / base.mean() / 1e6 << " M" << nas_work_unit_name(spec.bench)
      << "/s";
  out << "\n  with SMIs: " << noisy.mean() << " s  ("
      << (noisy.mean() / base.mean() - 1.0) * 100.0 << "% slowdown), "
      << work / noisy.mean() / 1e6 << " M" << nas_work_unit_name(spec.bench)
      << "/s\n";
  return 0;
}

int cmd_convolve(const Options& options, std::ostream& out, std::ostream& err) {
  std::string error;
  const std::string which = options.get("case", "cu");
  ConvolveWorkload workload;
  if (which == "cf") workload = ConvolveWorkload::cache_friendly_workload();
  else if (which == "cu") workload = ConvolveWorkload::cache_unfriendly_workload();
  else return fail(err, "unknown --case '" + which + "' (cf|cu)");
  const auto cpus = static_cast<int>(options.get_int("cpus", 8, &error));
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 1, &error));
  const SmiConfig smi = smi_from(options, &error);
  (void)options.get("trace", "");
  if (!error.empty()) return fail(err, error);
  if (const int rc = check_leftovers(options, err)) return rc;
  if (cpus < 1 || cpus > 8) return fail(err, "--cpus must be 1..8");

  const auto base = run_convolve_sim(workload, cpus, SmiConfig::none(), seed);
  const auto noisy = run_convolve_sim(workload, cpus, smi, seed);
  out << "Convolve " << (which == "cf" ? "CacheFriendly" : "CacheUnfriendly")
      << " (" << workload.cache.l1_miss_rate * 100.0 << "% L1 miss), "
      << workload.threads << " threads on " << cpus << " logical CPU(s)\n";
  out << "  no SMIs:   " << base.seconds << " s\n";
  out << "  with SMIs: " << noisy.seconds << " s  ("
      << (noisy.seconds / base.seconds - 1.0) * 100.0 << "% slowdown, "
      << noisy.smi_hits << " SMM hits)\n";
  return 0;
}

int cmd_unixbench(const Options& options, std::ostream& out, std::ostream& err) {
  std::string error;
  UnixBenchOptions ub;
  ub.online_cpus = static_cast<int>(options.get_int("cpus", 8, &error));
  ub.seed = static_cast<std::uint64_t>(options.get_int("seed", 1, &error));
  const SmiConfig smi = smi_from(options, &error);
  (void)options.get("trace", "");
  if (!error.empty()) return fail(err, error);
  if (const int rc = check_leftovers(options, err)) return rc;
  if (ub.online_cpus < 1 || ub.online_cpus > 8) {
    return fail(err, "--cpus must be 1..8");
  }

  const UnixBenchResult clean = run_unixbench(ub);
  ub.smi = smi;
  const UnixBenchResult noisy = run_unixbench(ub);
  out << "UnixBench, " << ub.online_cpus << " logical CPU(s)\n";
  for (int i = 0; i < kUbTestCount; ++i) {
    out << "  " << to_string(static_cast<UbTest>(i)) << ": "
        << clean.score[static_cast<std::size_t>(i)] << " -> "
        << noisy.score[static_cast<std::size_t>(i)] << "\n";
  }
  out << "  total index: " << clean.index << " -> " << noisy.index << "  ("
      << (noisy.index / clean.index - 1.0) * 100.0 << "%)\n";
  return 0;
}

int cmd_detect(const Options& options, std::ostream& out, std::ostream& err) {
  std::string error;
  HwlatConfig config;
  config.duration = seconds(options.get_int("duration-s", 30, &error));
  config.window = milliseconds(options.get_int("window-ms", 500, &error));
  config.period = milliseconds(options.get_int("period-ms", 1000, &error));
  const SmiConfig smi = smi_from(options, &error);
  (void)options.get("trace", "");
  if (!error.empty()) return fail(err, error);
  if (const int rc = check_leftovers(options, err)) return rc;

  SystemConfig cfg;
  cfg.machine = MachineSpec::poweredge_r410_e5620();
  cfg.smi = smi;
  cfg.seed = 1;
  System sys{cfg};
  const HwlatReport report = run_hwlat_detector(sys, config);
  out << "hwlat: " << report.hits << " detection(s) over "
      << report.true_smis_during_windows << " in-window SMI(s)  (recall "
      << report.recall * 100.0 << "%)\n";
  if (report.hits > 0) {
    out << "  gap mean " << report.gap_us.mean() / 1e3 << " ms, max "
        << report.gap_us.max() / 1e3 << " ms, duration error "
        << report.mean_duration_error_us << " us\n";
  }
  maybe_write_trace(options, sys, out, err);
  return 0;
}

int cmd_rim(const Options& options, std::ostream& out, std::ostream& err) {
  std::string error;
  RimConfig rim;
  rim.scanned_bytes = options.get_double("scan-mb", 16.0, &error) * 1e6;
  rim.check_interval_jiffies = options.get_int("interval-ms", 1000, &error);
  const double total_mb = options.get_double("total-mb", 256.0, &error);
  const auto nodes = static_cast<int>(options.get_int("nodes", 1, &error));
  (void)options.get("trace", "");
  if (!error.empty()) return fail(err, error);
  if (const int rc = check_leftovers(options, err)) return rc;

  out << "RIM policy: " << rim.scanned_bytes / 1e6 << " MB per check, every "
      << rim.check_interval_jiffies << " ms\n";
  out << "  SMM residency:      " << rim.smm_duration().seconds() * 1e3 << " ms\n";
  out << "  duty cycle:         " << rim.duty_cycle() * 100.0 << " %\n";
  out << "  detection latency:  " << rim.detection_latency(total_mb * 1e6).seconds()
      << " s to cover " << total_mb << " MB\n";

  SystemConfig cfg;
  cfg.machine = MachineSpec::wyeast_e5520();
  cfg.node_count = nodes;
  cfg.smi = rim.to_smi_config();
  cfg.seed = 5;
  System sys{cfg};
  for (int n = 0; n < nodes; ++n) {
    std::vector<Action> prog;
    prog.push_back(Compute{seconds(20)});
    sys.spawn(TaskSpec::with_actions("app" + std::to_string(n), n, std::move(prog)));
  }
  sys.run();
  const double wall = sys.last_finish_time().seconds();
  out << "  measured slowdown:  " << (wall / 20.0 - 1.0) * 100.0
      << " % on a 20 s compute task\n";
  out << "  BIOSBITS(150us):    "
      << sys.smm_accounting().biosbits_violations() << " violation(s)\n";
  const EnergyReport energy = estimate_energy(sys, PowerModel{});
  out << "  energy:             " << energy.joules << " J ("
      << energy.average_watts << " W avg/node)\n";
  return 0;
}

/// Parse "a:b:c"-style numeric fault specs. Returns false (with *error set)
/// on malformed input.
bool parse_fields(const std::string& spec, const char* flag,
                  std::vector<double>* out, std::size_t expected,
                  std::string* error) {
  out->clear();
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t colon = spec.find(':', pos);
    const std::string field =
        spec.substr(pos, colon == std::string::npos ? colon : colon - pos);
    try {
      std::size_t used = 0;
      out->push_back(std::stod(field, &used));
      if (used != field.size()) throw std::invalid_argument(field);
    } catch (const std::exception&) {
      *error = std::string("--") + flag + ": bad number '" + field + "' in '" +
               spec + "'";
      return false;
    }
    if (colon == std::string::npos) break;
    pos = colon + 1;
  }
  if (out->size() != expected) {
    *error = std::string("--") + flag + ": expected " +
             std::to_string(expected) + " ':'-separated fields, got " +
             std::to_string(out->size()) + " in '" + spec + "'";
    return false;
  }
  return true;
}

/// Parse a comma-separated list of "a:b:c" specs, calling `add` per spec.
/// The Options map is last-wins for repeated flags, so the list form is the
/// only way to express several faults of one kind in a single command.
template <typename Add>
bool parse_spec_list(const std::string& list, const char* flag,
                     std::size_t expected, std::string* error, Add add) {
  std::vector<double> f;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string spec =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!parse_fields(spec, flag, &f, expected, error)) return false;
    add(f);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return true;
}

int cmd_faults(const Options& options, std::ostream& out, std::ostream& err) {
  std::string error;
  const auto nodes = static_cast<int>(options.get_int("nodes", 4, &error));
  const auto iters = static_cast<int>(options.get_int("iters", 200, &error));
  const auto bytes = options.get_int("bytes", 32 * 1024, &error);
  const auto seed =
      static_cast<std::uint64_t>(options.get_int("seed", 1, &error));
  const double hang_timeout_s =
      options.get_double("hang-timeout-s", 10.0, &error);
  const std::string smi_kind = options.get("smi", "none");
  const auto gap =
      options.get_int("gap-ms", options.get_int("interval-ms", 1000, &error),
                      &error);

  FaultPlan plan;
  if (const std::string s = options.get("freeze", ""); !s.empty()) {
    if (!parse_spec_list(s, "freeze", 3, &error,
                         [&](const std::vector<double>& f) {
                           plan.freeze(static_cast<int>(f[0]),
                                       SimTime::zero() + seconds_d(f[1] / 1e3),
                                       seconds_d(f[2] / 1e3));
                         }))
      return fail(err, error);
  }
  if (const std::string s = options.get("crash", ""); !s.empty()) {
    if (!parse_spec_list(s, "crash", 2, &error,
                         [&](const std::vector<double>& f) {
                           plan.crash(static_cast<int>(f[0]),
                                      SimTime::zero() + seconds_d(f[1] / 1e3));
                         }))
      return fail(err, error);
  }
  if (const std::string s = options.get("link-down", ""); !s.empty()) {
    if (!parse_spec_list(s, "link-down", 3, &error,
                         [&](const std::vector<double>& f) {
                           plan.link_down(static_cast<int>(f[0]),
                                          SimTime::zero() + seconds_d(f[1] / 1e3),
                                          seconds_d(f[2] / 1e3));
                         }))
      return fail(err, error);
  }
  if (const std::string s = options.get("slow", ""); !s.empty()) {
    if (!parse_spec_list(s, "slow", 4, &error,
                         [&](const std::vector<double>& f) {
                           plan.slow(static_cast<int>(f[0]),
                                     SimTime::zero() + seconds_d(f[1] / 1e3),
                                     seconds_d(f[2] / 1e3), f[3]);
                         }))
      return fail(err, error);
  }
  plan.drop(options.get_double("drop", 0.0, &error));
  plan.duplicate(options.get_double("dup", 0.0, &error));
  (void)options.get("trace", "");
  if (!error.empty()) return fail(err, error);
  if (const int rc = check_leftovers(options, err)) return rc;
  if (nodes < 2) return fail(err, "--nodes must be >= 2 (ring exchange)");
  if (iters < 1) return fail(err, "--iters must be >= 1");

  SystemConfig cfg;
  cfg.node_count = nodes;
  cfg.seed = seed;
  cfg.hang_timeout = seconds_d(hang_timeout_s);
  if (smi_kind == "short") cfg.smi = SmiConfig::short_with_gap(gap);
  else if (smi_kind == "long") cfg.smi = SmiConfig::long_with_gap(gap);
  else if (smi_kind != "none") {
    return fail(err, "unknown --smi kind '" + smi_kind + "' (none|short|long)");
  }
  System sys{cfg};
  const FaultInjector injector{sys, plan};

  // Ring halo exchange: compute, then swap with both neighbours, per
  // iteration — every rank depends on every other within a few steps, so
  // any injected fault propagates job-wide.
  auto programs = make_rank_programs(nodes);
  TagAllocator tags;
  for (int it = 0; it < iters; ++it) {
    const int tag = tags.allocate(2);
    for (auto& prog : programs) {
      const int r = prog.rank();
      const int next = (r + 1) % nodes;
      const int prev = (r + nodes - 1) % nodes;
      prog.compute(microseconds(500));
      prog.sendrecv(next, bytes, tag, prev, tag);
      prog.sendrecv(prev, bytes, tag + 1, next, tag + 1);
    }
  }
  std::vector<int> placement(static_cast<std::size_t>(nodes));
  for (int r = 0; r < nodes; ++r) placement[static_cast<std::size_t>(r)] = r;

  const MpiJobRunResult result = try_run_mpi_job(
      sys, std::move(programs), placement, WorkloadProfile{}, "ring");

  out << "ring exchange: " << nodes << " rank(s), " << iters
      << " iteration(s), " << bytes << " B per hop\n";
  out << "  transport: " << sys.messages_dropped() << " dropped, "
      << sys.retransmissions() << " retransmission(s), "
      << sys.messages_duplicated() << " duplicate(s), "
      << sys.transport_failures() << " failure(s)\n";
  const TransportStats tstats = sys.transport_stats();
  out << "  message pool: " << tstats.messages_allocated << " allocated, "
      << tstats.pool_capacity << " slot(s), peak " << tstats.pool_peak_live
      << " live / " << tstats.peak_in_flight << " in flight, "
      << tstats.pool_live << " live at exit\n";
  out << "  program actions: peak " << sys.peak_program_actions()
      << " materialized\n";
  for (const FaultRecord& rec : sys.fault_log()) {
    out << "  fault: " << to_string(rec.kind) << " node " << rec.node
        << " at " << rec.start.seconds() << " s";
    if (rec.end >= rec.start && rec.kind != FaultRecord::Kind::kCrash) {
      out << " for " << (rec.end - rec.start).seconds() << " s";
    }
    out << "\n";
  }
  maybe_write_trace(options, sys, out, err);
  if (!result.ok()) {
    err << result.run.to_string() << "\n";
    return 3;
  }
  out << "  completed in " << result.job.elapsed.seconds() << " s\n";
  return 0;
}

int cmd_serve(const Options& options, std::ostream& out, std::ostream& err) {
  std::string error;
  serve::ServiceConfig cfg;
  cfg.workers = static_cast<int>(options.get_int("workers", 0, &error));
  cfg.cache_bytes = static_cast<std::int64_t>(
      options.get_double("cache-mb", 64.0, &error) * 1e6);
  cfg.cache_shards =
      static_cast<int>(options.get_int("cache-shards", 16, &error));
  const bool stdin_batch = options.get_bool("stdin-batch", false);
  const std::string socket_path = options.get("socket", "@smilab-serve");
  if (!error.empty()) return fail(err, error);
  if (const int rc = check_leftovers(options, err)) return rc;
  if (cfg.cache_bytes < 0) return fail(err, "--cache-mb must be >= 0");
  if (cfg.cache_shards < 1) return fail(err, "--cache-shards must be >= 1");

  serve::SweepService service{cfg};
  if (stdin_batch) {
    // CI mode: stdout carries exactly one response line per request line,
    // so the summary goes to stderr.
    const std::int64_t handled = serve::serve_stream(service, std::cin, out);
    const serve::ServiceStats stats = service.stats();
    err << "smilab serve: " << handled << " request(s), " << stats.simulations
        << " simulated, " << stats.cache.hits << " cache hit(s), "
        << stats.errors << " error(s)\n";
    return 0;
  }

  // Daemon mode: block the shutdown signals BEFORE the server (and its
  // handler threads) exist, so they are only ever delivered to sigwait.
  sigset_t shutdown_set;
  sigemptyset(&shutdown_set);
  sigaddset(&shutdown_set, SIGINT);
  sigaddset(&shutdown_set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &shutdown_set, nullptr);
  try {
    serve::SocketServer server{service, socket_path};
    server.start();
    out << "smilab serve: listening on " << socket_path << " ("
        << service.stats().workers << " worker(s), cache "
        << cfg.cache_bytes / 1000000 << " MB / " << cfg.cache_shards
        << " shard(s))\n";
    out.flush();
    int sig = 0;
    sigwait(&shutdown_set, &sig);
    server.stop();
    const serve::ServiceStats stats = service.stats();
    out << "smilab serve: shut down (" << server.connections_accepted()
        << " connection(s), " << stats.requests << " request(s), "
        << stats.simulations << " simulated, " << stats.cache.hits
        << " cache hit(s))\n";
  } catch (const std::runtime_error& e) {
    return fail(err, e.what());
  }
  return 0;
}

void print_report(const mc::ExplorationReport& rep, std::ostream& out) {
  out << "    verdict: " << mc::to_string(rep.verdict) << "\n";
  out << "    schedules: " << rep.schedules_run << " run, "
      << rep.schedules_pruned << " pruned, " << rep.choice_points
      << " choice point(s), max depth " << rep.max_depth_seen
      << (rep.exhausted() ? "" : "  [INCOMPLETE: budget or depth cap hit]")
      << "\n";
  if (rep.any_completed) {
    out << "    canonical hash: " << std::hex << rep.canonical_hash
        << std::dec << "\n";
  }
  if (rep.verdict == mc::Verdict::kDivergent) {
    out << "    divergent schedule: " << rep.divergent_token << " (hash "
        << std::hex << rep.divergent_hash << std::dec << ")\n";
    out << "    replay: smilab check --program=NAME --replay="
        << rep.divergent_token << "\n";
  }
  if (!rep.deadlock_token.empty()) {
    out << "    deadlocking schedule: " << rep.deadlock_token << " ("
        << to_string(rep.deadlock_status) << ")\n";
  }
  if (!rep.checker_note.empty()) {
    out << "    checker note: " << rep.checker_note << "\n";
  }
}

int cmd_check(const Options& options, std::ostream& out, std::ostream& err) {
  std::string error;
  const std::string program = options.get("program", "");
  const bool list = options.get_bool("list", false);
  const auto max_schedules = options.get_int(
      "max-schedules", static_cast<long long>(mc::kCorpusMaxSchedules),
      &error);
  const auto max_depth = options.get_int(
      "max-depth", static_cast<long long>(mc::kCorpusMaxDepth), &error);
  const bool no_prune = options.get_bool("no-prune", false);
  const std::string replay_token = options.get("replay", "");
  if (!error.empty()) return fail(err, error);
  if (const int rc = check_leftovers(options, err)) return rc;
  if (max_schedules < 1) return fail(err, "--max-schedules must be >= 1");
  if (max_depth < 1) return fail(err, "--max-depth must be >= 1");

  if (list) {
    for (const mc::McCase& c : mc::corpus()) {
      out << "  " << c.name << ": " << c.summary << "\n";
    }
    return 0;
  }

  mc::ExplorerOptions eopts;
  eopts.max_schedules = static_cast<std::size_t>(max_schedules);
  eopts.max_depth = static_cast<std::size_t>(max_depth);
  eopts.prune = !no_prune;
  // The pinned corpus counts are defined at the default budgets with
  // pruning on; a custom exploration is informative, not a gate.
  const bool gate = !options.has("max-schedules") && !options.has("max-depth");

  if (!replay_token.empty()) {
    if (program.empty()) return fail(err, "--replay requires --program=NAME");
    const mc::McCase* c = mc::find_case(program);
    if (c == nullptr) {
      return fail(err, "unknown program '" + program + "' (try --list)");
    }
    const auto trace = mc::ScheduleTrace::parse(replay_token);
    if (!trace) {
      return fail(err, "malformed replay token '" + replay_token + "'");
    }
    mc::Explorer explorer{c->target, eopts};
    const mc::ExplorationReport rep = explorer.replay(*trace);
    out << "replaying " << c->name << " schedule " << trace->to_token()
        << ":\n";
    print_report(rep, out);
    if (rep.verdict == mc::Verdict::kCheckerBug) return 3;
    if (!rep.deadlock_report.empty()) err << rep.deadlock_report << "\n";
    return rep.deadlock_token.empty() ? 0 : 3;
  }

  bool all_ok = true;
  std::size_t ran = 0;
  for (const mc::McCase& c : mc::corpus()) {
    if (!program.empty() && program != c.name) continue;
    ++ran;
    mc::Explorer explorer{c.target, eopts};
    const mc::ExplorationReport rep = explorer.explore();
    out << "  " << c.name << ":\n";
    print_report(rep, out);
    if (!gate) continue;
    const std::size_t want_schedules =
        no_prune ? c.expect_schedules_noprune : c.expect_schedules;
    const std::size_t want_pruned = no_prune ? 0 : c.expect_pruned;
    if (rep.verdict != c.expect_verdict) {
      err << "smilab: " << c.name << ": expected verdict '"
          << mc::to_string(c.expect_verdict) << "', got '"
          << mc::to_string(rep.verdict) << "'\n";
      all_ok = false;
    }
    if (rep.schedules_run != want_schedules ||
        rep.schedules_pruned != want_pruned) {
      err << "smilab: " << c.name << ": expected " << want_schedules
          << " schedule(s) (" << want_pruned << " pruned), got "
          << rep.schedules_run << " (" << rep.schedules_pruned
          << " pruned) — a choice point appeared or vanished\n";
      all_ok = false;
    }
    if (!rep.exhausted()) {
      err << "smilab: " << c.name
          << ": exploration did not finish within the corpus budgets\n";
      all_ok = false;
    }
  }
  if (ran == 0) {
    return fail(err, "unknown program '" + program + "' (try --list)");
  }
  if (!all_ok) return 3;
  out << (gate ? "all " : "") << std::to_string(ran)
      << " corpus case(s) explored" << (gate ? ", all pins hold" : "")
      << "\n";
  return 0;
}

}  // namespace

const char* cli_usage() { return kUsage; }

int run_cli_command(const Options& options, std::ostream& out,
                    std::ostream& err) {
  const std::string& command = options.command();
  if (command.empty() || command == "help") {
    out << kUsage;
    return command.empty() ? 2 : 0;
  }
  if (command == "nas") return cmd_nas(options, out, err);
  if (command == "convolve") return cmd_convolve(options, out, err);
  if (command == "unixbench") return cmd_unixbench(options, out, err);
  if (command == "detect") return cmd_detect(options, out, err);
  if (command == "rim") return cmd_rim(options, out, err);
  if (command == "faults") return cmd_faults(options, out, err);
  if (command == "serve") return cmd_serve(options, out, err);
  if (command == "check") return cmd_check(options, out, err);
  return fail(err, "unknown command '" + command + "' (see 'smilab help')");
}

int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  std::string error;
  const auto options = Options::parse(argc, argv, &error);
  if (!options) {
    err << "smilab: " << error << "\n" << kUsage;
    return 2;
  }
  // Degrade gracefully: a faulting simulation prints its diagnosis and
  // maps to exit code 3, distinct from usage errors (2).
  try {
    return run_cli_command(*options, out, err);
  } catch (const SimulationError& e) {
    err << "smilab: simulation fault (" << to_string(e.status()) << ")\n"
        << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    err << "smilab: error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace smilab
