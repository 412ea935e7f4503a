#include "smilab/serve/service.h"

#include <atomic>
#include <future>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "smilab/apps/convolve/workload.h"
#include "smilab/apps/nas/runner.h"
#include "smilab/apps/unixbench/unixbench.h"
#include "smilab/core/fnv.h"
#include "smilab/core/sweep.h"
#include "smilab/mpi/job.h"
#include "smilab/sim/system.h"
#include "smilab/stats/online_stats.h"

namespace smilab::serve {

namespace {

// --- Warm worker state ------------------------------------------------------
//
// A pool worker's previous run leaves its NetworkModel behind here; the next
// run on the same thread adopts the cost memo when the parameters match
// (NetworkModel::warm_from — bit-inert, see net/network.h). Thread-local so
// the serve pool's workers warm independently and nothing is shared.
thread_local std::optional<NetworkModel> t_warm_net;

void warm_apply(System& sys) {
  if (t_warm_net.has_value()) sys.warm_network_memo(*t_warm_net);
}

void warm_save(const System& sys) { t_warm_net = sys.network(); }

// --- Experiment runners -----------------------------------------------------

/// Ring halo exchange (the `smilab faults` workload, fault-free), streamed:
/// each rank's program is produced chunk-by-chunk, one iteration per chunk.
/// Every rank allocates the same tag count per chunk, so the per-rank
/// private tag streams stay congruent across ranks.
std::string run_ring(const ExperimentRequest& req) {
  SystemConfig cfg;
  cfg.node_count = req.ring_nodes;
  cfg.seed = req.seed;
  cfg.smi = req.smi_config();
  System sys{cfg};
  warm_apply(sys);

  const int nodes = req.ring_nodes;
  const int iters = req.ring_iters;
  const std::int64_t bytes = req.ring_bytes;
  const auto factory = chunked_rank_sources(nodes, [=](int rank) {
    return [=](int chunk, RankProgram& rp, TagAllocator& tags) {
      if (chunk >= iters) return false;
      const int tag = tags.allocate(2);
      const int next = (rank + 1) % nodes;
      const int prev = (rank + nodes - 1) % nodes;
      rp.compute(microseconds(500));
      rp.sendrecv(next, bytes, tag, prev, tag);
      rp.sendrecv(prev, bytes, tag + 1, next, tag + 1);
      return true;
    };
  });
  std::vector<int> placement(static_cast<std::size_t>(nodes));
  for (int r = 0; r < nodes; ++r) placement[static_cast<std::size_t>(r)] = r;

  const MpiJobResult job = run_mpi_job_streaming(
      sys, nodes, factory, placement, WorkloadProfile{}, "serve-ring");
  warm_save(sys);

  std::int64_t smi_hits = 0;
  std::int64_t messages = 0;
  Fnv64 digest;
  for (const TaskStats& s : job.rank_stats) {
    smi_hits += s.smm_hits;
    messages += s.messages_sent;
    digest.mix_signed(s.start_time.ns());
    digest.mix_signed(s.end_time.ns());
    digest.mix_signed(s.smm_stolen_time.ns());
    digest.mix_signed(s.smm_hits);
    digest.mix_signed(s.messages_sent);
    digest.mix_signed(s.messages_received);
    digest.mix_signed(s.bytes_sent);
  }

  JsonWriter w;
  w.begin_object();
  w.field("elapsed_s", job.elapsed.seconds());
  w.field("smm_stolen_s", job.total_smm_stolen().seconds());
  w.field("smi_hits", smi_hits);
  w.field("messages", messages);
  w.field("stats_digest", key_hex(digest.value()));
  w.end_object();
  return w.take();
}

/// One NAS table cell: `trials` paired (no-SMI, requested-regime) runs on
/// shared per-trial seeds, streamed programs throughout.
std::string run_nas(const ExperimentRequest& req) {
  const NasKnob knob = calibrate_nas_knob(req.nas);
  OnlineStats base, noisy;
  for (int t = 0; t < req.nas_trials; ++t) {
    const std::uint64_t seed = req.seed + static_cast<std::uint64_t>(t);
    base.add(simulate_nas_once(req.nas, knob, SmiConfig::none(), seed, 0.003));
    noisy.add(simulate_nas_once(req.nas, knob, req.smi_config(), seed, 0.003));
  }
  const double work = nas_work_units(req.nas.bench, req.nas.cls);
  JsonWriter w;
  w.begin_object();
  w.field("base_s", base.mean());
  w.field("noisy_s", noisy.mean());
  w.field("slowdown_pct", (noisy.mean() / base.mean() - 1.0) * 100.0);
  w.field("base_mops", work / base.mean() / 1e6);
  w.field("noisy_mops", work / noisy.mean() / 1e6);
  w.field("trials", req.nas_trials);
  w.end_object();
  return w.take();
}

std::string run_convolve(const ExperimentRequest& req) {
  const ConvolveWorkload workload =
      req.convolve_cache_friendly
          ? ConvolveWorkload::cache_friendly_workload()
          : ConvolveWorkload::cache_unfriendly_workload();
  const ConvolveRunResult base = run_convolve_sim(
      workload, req.convolve_cpus, SmiConfig::none(), req.seed);
  const ConvolveRunResult noisy = run_convolve_sim(
      workload, req.convolve_cpus, req.smi_config(), req.seed);
  JsonWriter w;
  w.begin_object();
  w.field("base_s", base.seconds);
  w.field("noisy_s", noisy.seconds);
  w.field("slowdown_pct", (noisy.seconds / base.seconds - 1.0) * 100.0);
  w.field("smi_hits", noisy.smi_hits);
  w.field("smm_stolen_s", noisy.smm_stolen_seconds);
  w.end_object();
  return w.take();
}

std::string run_unixbench_req(const ExperimentRequest& req) {
  UnixBenchOptions ub;
  ub.online_cpus = req.unixbench_cpus;
  ub.seed = req.seed;
  const UnixBenchResult clean = run_unixbench(ub);
  ub.smi = req.smi_config();
  const UnixBenchResult noisy = run_unixbench(ub);
  JsonWriter w;
  w.begin_object();
  w.field("base_index", clean.index);
  w.field("noisy_index", noisy.index);
  w.field("delta_pct", (noisy.index / clean.index - 1.0) * 100.0);
  w.begin_array("base_scores");
  for (const double s : clean.score) w.element(s);
  w.end_array();
  w.begin_array("noisy_scores");
  for (const double s : noisy.score) w.element(s);
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace

std::string run_experiment_payload(const ExperimentRequest& request) {
  switch (request.kind) {
    case ExperimentKind::kRing:
      return run_ring(request);
    case ExperimentKind::kNas:
      return run_nas(request);
    case ExperimentKind::kConvolve:
      return run_convolve(request);
    case ExperimentKind::kUnixbench:
      return run_unixbench_req(request);
  }
  return "{}";
}

// --- Service ----------------------------------------------------------------

namespace {

/// What a simulation job hands its waiters.
struct Outcome {
  std::shared_ptr<const std::string> payload;  // null on failure
  std::string error;
};

}  // namespace

struct SweepService::Impl {
  explicit Impl(const ServiceConfig& config)
      : pool(effective_jobs(config.workers)),
        cache(config.cache_bytes, config.cache_shards) {}

  SweepPool pool;     // guarded_by(internal): owns its own mutex/cv
  ResultCache cache;  // guarded_by(internal): per-shard locking inside

  std::mutex flight_mu;
  // guarded_by(flight_mu) key -> in-flight simulation (single-flight map)
  std::unordered_map<std::uint64_t, std::shared_future<Outcome>> inflight;

  std::atomic<std::int64_t> requests{0};
  std::atomic<std::int64_t> simulations{0};
  std::atomic<std::int64_t> coalesced{0};
  std::atomic<std::int64_t> errors{0};
};

SweepService::SweepService(const ServiceConfig& config)
    : impl_(std::make_unique<Impl>(config)) {}

SweepService::~SweepService() {
  // Jobs catch their own exceptions into Outcomes, so the pool's implicit
  // drain on destruction cannot rethrow.
  impl_->pool.drain();
}

SweepService::Served SweepService::serve(const ExperimentRequest& request) {
  Impl& im = *impl_;
  im.requests.fetch_add(1, std::memory_order_relaxed);
  Served out;
  out.key = request.canonical_key();

  if (auto hit = im.cache.lookup(out.key)) {
    out.ok = true;
    out.cached = true;
    out.payload = std::move(hit);
    return out;
  }

  std::shared_future<Outcome> flight;
  bool leader = false;
  {
    const std::lock_guard<std::mutex> lock{im.flight_mu};
    if (const auto it = im.inflight.find(out.key);
        it != im.inflight.end()) {
      flight = it->second;  // join the in-flight computation
    } else if (auto hit = im.cache.lookup(out.key, /*count=*/false)) {
      // The job we missed against completed between our lookup and this
      // lock; its bytes are resident now (already booked as a miss above,
      // so this re-check is stats-silent).
      out.ok = true;
      out.cached = true;
      out.payload = std::move(hit);
      return out;
    } else {
      auto promise = std::make_shared<std::promise<Outcome>>();
      flight = promise->get_future().share();
      im.inflight.emplace(out.key, flight);
      leader = true;
      im.simulations.fetch_add(1, std::memory_order_relaxed);
      im.pool.submit([&im, request, key = out.key,
                      promise = std::move(promise)] {
        Outcome result;
        try {
          result.payload = im.cache.insert(key, run_experiment_payload(request));
        } catch (const std::exception& e) {
          result.error = e.what();
        }
        {
          const std::lock_guard<std::mutex> lock{im.flight_mu};
          im.inflight.erase(key);
        }
        promise->set_value(std::move(result));
      });
    }
  }
  if (!leader) im.coalesced.fetch_add(1, std::memory_order_relaxed);

  const Outcome& outcome = flight.get();
  if (outcome.payload == nullptr) {
    im.errors.fetch_add(1, std::memory_order_relaxed);
    out.error = outcome.error;
    return out;
  }
  out.ok = true;
  // Followers never simulated; their bytes came from the leader's single
  // run, which is "cached" from the client's perspective.
  out.cached = !leader;
  out.payload = outcome.payload;
  return out;
}

std::string SweepService::serve_line(std::string_view line) {
  std::string error;
  const auto request = parse_request_line(line, &error);
  if (!request) {
    impl_->errors.fetch_add(1, std::memory_order_relaxed);
    JsonWriter w;
    w.begin_object();
    w.field("ok", false);
    w.field("error", error);
    w.end_object();
    return w.take();
  }

  if (request->op == RequestLine::Op::kPing) {
    return R"({"ok":true,"op":"ping"})";
  }
  if (request->op == RequestLine::Op::kStats) {
    const ServiceStats s = stats();
    JsonWriter w;
    w.begin_object();
    w.field("ok", true);
    w.field("op", "stats");
    w.field("workers", s.workers);
    w.field("requests", s.requests);
    w.field("simulations", s.simulations);
    w.field("coalesced", s.coalesced);
    w.field("errors", s.errors);
    w.field("cache_hits", s.cache.hits);
    w.field("cache_misses", s.cache.misses);
    w.field("cache_insertions", s.cache.insertions);
    w.field("cache_evictions", s.cache.evictions);
    w.field("cache_entries", s.cache.entries);
    w.field("cache_bytes", s.cache.bytes);
    w.field("cache_byte_budget", s.cache.byte_budget);
    w.end_object();
    return w.take();
  }

  const Served served = serve(request->experiment);
  JsonWriter w;
  w.begin_object();
  w.field("ok", served.ok);
  w.field("key", key_hex(served.key));
  if (served.ok) {
    w.field("cached", served.cached);
    w.raw_field("config", request->experiment.canonical_json());
    w.raw_field("result", *served.payload);
  } else {
    w.field("error", served.error);
  }
  w.end_object();
  return w.take();
}

ServiceStats SweepService::stats() const {
  const Impl& im = *impl_;
  ServiceStats s;
  s.cache = im.cache.stats();
  s.requests = im.requests.load(std::memory_order_relaxed);
  s.simulations = im.simulations.load(std::memory_order_relaxed);
  s.coalesced = im.coalesced.load(std::memory_order_relaxed);
  s.errors = im.errors.load(std::memory_order_relaxed);
  s.workers = im.pool.workers();
  return s;
}

}  // namespace smilab::serve
