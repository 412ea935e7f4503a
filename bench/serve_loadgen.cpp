// Load generator for the `smilab serve` daemon: spins up an in-process
// SweepService behind a real SocketServer (abstract-namespace Unix socket),
// then drives it with concurrent client connections through three phases:
//
//  * cold  — every request is a fresh key, so every response is a full
//            simulation on the warm worker pool.
//  * warm  — the same keys again: every response is a cache hit, served
//            from the content-addressed result cache without touching the
//            pool. The headline claim is the p99 gap between these two
//            phases (CI floor: warm p99 at least 10x below cold p99).
//  * mixed — a splitmix64-driven blend of repeats (75%) and fresh keys
//            (25%) across all clients at once: the daemon's steady state.
//            Records end-to-end requests/s and the observed hit rate.
//
// Latency is measured client-side (wall clock is fine here: bench/ is
// exempt from smilint D1; the serve/ sources themselves never read a
// clock). Percentiles come from sorting the per-request samples; means use
// OnlineStats (D6).
//
// Always writes BENCH_serve.json with the phase latencies, throughput, hit
// rate and cache counters; the CI floors for them live in
// bench/ci_floors.json. Exits nonzero if any client saw an error.
//
// Usage: serve_loadgen [--quick] [--clients=N] [--workers=N]
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "smilab/core/fnv.h"
#include "smilab/serve/server.h"
#include "smilab/serve/service.h"
#include "smilab/stats/online_stats.h"

namespace {

using namespace smilab;
using namespace smilab::serve;
using benchtool::WallTimer;

/// One blocking client connection to an abstract-namespace socket.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path + 1, path.data() + 1, path.size() - 1);
    const auto len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                            path.size());
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), len) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }

  /// Send one request line, block for the response line.
  std::string round_trip(const std::string& line) {
    std::string framed = line;
    framed.push_back('\n');
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n =
          ::send(fd_, framed.data() + sent, framed.size() - sent, 0);
      if (n <= 0) return {};
      sent += static_cast<std::size_t>(n);
    }
    std::string response;
    char c = 0;
    while (::recv(fd_, &c, 1, 0) == 1) {
      if (c == '\n') return response;
      response.push_back(c);
    }
    return response;
  }

 private:
  int fd_ = -1;
};

std::string ring_request(std::uint64_t seed, int iters) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                R"({"experiment":"ring","nodes":3,"iters":%d,"seed":%llu})",
                iters, static_cast<unsigned long long>(seed));
  return buf;
}

struct PhaseResult {
  std::vector<double> latencies_s;  // one sample per request, all clients
  std::int64_t hits = 0;            // responses carrying "cached":true
  std::int64_t errors = 0;
  double wall_s = 0;
};

/// Percentile by rank on a sorted copy (no float accumulation).
double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

double mean_of(const std::vector<double>& samples) {
  OnlineStats stats;
  for (const double s : samples) stats.add(s);
  return stats.mean();
}

/// Run `per_client` requests on each of `clients` concurrent connections;
/// request i on client c is generated by `make_request(c, i)`.
template <typename MakeRequest>
PhaseResult run_phase(const std::string& path, int clients, int per_client,
                      MakeRequest make_request) {
  PhaseResult result;
  std::vector<std::vector<double>> lats(static_cast<std::size_t>(clients));
  std::vector<std::int64_t> hits(static_cast<std::size_t>(clients), 0);
  std::vector<std::int64_t> errors(static_cast<std::size_t>(clients), 0);
  const WallTimer wall;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const auto ci = static_cast<std::size_t>(c);
      Client client{path};
      if (!client.ok()) {
        errors[ci] = per_client;
        return;
      }
      // Unmeasured ping: pays the connection's handler-thread spawn and
      // first-touch costs so the samples below measure the request path.
      (void)client.round_trip(R"({"op":"ping"})");
      lats[ci].reserve(static_cast<std::size_t>(per_client));
      for (int i = 0; i < per_client; ++i) {
        const std::string request = make_request(c, i);
        const WallTimer timer;
        const std::string response = client.round_trip(request);
        lats[ci].push_back(timer.seconds());
        if (response.find(R"("ok":true)") == std::string::npos) ++errors[ci];
        if (response.find(R"("cached":true)") != std::string::npos) {
          ++hits[ci];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  result.wall_s = wall.seconds();
  for (int c = 0; c < clients; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    result.latencies_s.insert(result.latencies_s.end(), lats[ci].begin(),
                              lats[ci].end());
    result.hits += hits[ci];
    result.errors += errors[ci];
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int clients = 4;
  int workers = 0;  // hardware concurrency
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      clients = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = std::atoi(argv[i] + 10);
    } else {
      std::fprintf(stderr,
                   "usage: serve_loadgen [--quick] [--clients=N] "
                   "[--workers=N]\n");
      return 2;
    }
  }
  const int hot_keys = quick ? 8 : 32;        // distinct cold/warm keys
  const int warm_rounds = quick ? 8 : 16;     // warm passes over the hot set
  const int mixed_per_client = quick ? 40 : 200;
  // Heavy enough that a cold miss (full ring simulation) dwarfs a warm
  // hit's socket round trip even on a loaded single-core runner.
  const int ring_iters = quick ? 1600 : 2400;

  ServiceConfig cfg;
  cfg.workers = workers;
  SweepService service{cfg};
  const std::string path =
      "@smilab-loadgen-" + std::to_string(::getpid());
  SocketServer server{service, path};
  server.start();
  std::printf("serve_loadgen: %d clients, socket %s\n\n", clients,
              path.c_str());

  // Cold: hot_keys distinct seeds, spread round-robin over the clients so
  // every request is this key's first sighting (a miss or a coalesced
  // wait, both of which pay for the simulation).
  const auto cold = run_phase(
      path, clients, (hot_keys + clients - 1) / clients,
      [&](int c, int i) {
        return ring_request(
            static_cast<std::uint64_t>(1 + c + i * clients), ring_iters);
      });

  // Warm: the same keys again, several passes — every one a pure cache
  // hit, with enough samples that p99 measures the hit path rather than
  // scheduler noise.
  const int cold_per_client = (hot_keys + clients - 1) / clients;
  const auto warm = run_phase(
      path, clients, cold_per_client * warm_rounds, [&](int c, int i) {
        return ring_request(
            static_cast<std::uint64_t>(1 + c + (i % cold_per_client) * clients),
            ring_iters);
      });

  // Mixed: per-request splitmix64 stream decides repeat-vs-fresh. Fresh
  // seeds live far above the hot set and are unique per (client, index),
  // so ~25% of requests simulate while the rest hit.
  const auto mixed = run_phase(
      path, clients, mixed_per_client, [&](int c, int i) {
        const std::uint64_t roll = splitmix64(
            0x6c6f6164ull ^ (static_cast<std::uint64_t>(c) << 32) ^
            static_cast<std::uint64_t>(i));
        if ((roll & 3) != 0) {  // 75%: somewhere in the hot set
          return ring_request(
              1 + roll % static_cast<std::uint64_t>(hot_keys), ring_iters);
        }
        const std::uint64_t fresh = 1'000'000 +
                                    static_cast<std::uint64_t>(c) * 100'000 +
                                    static_cast<std::uint64_t>(i);
        return ring_request(fresh, ring_iters);
      });

  server.stop();

  const double cold_p50 = percentile(cold.latencies_s, 0.50);
  const double cold_p99 = percentile(cold.latencies_s, 0.99);
  const double warm_p50 = percentile(warm.latencies_s, 0.50);
  const double warm_p99 = percentile(warm.latencies_s, 0.99);
  const double warm_speedup_p99 = warm_p99 > 0 ? cold_p99 / warm_p99 : 0;
  const double mixed_n = static_cast<double>(mixed.latencies_s.size());
  const double mixed_rps = mixed.wall_s > 0 ? mixed_n / mixed.wall_s : 0;
  const double mixed_hit_rate =
      mixed_n > 0 ? static_cast<double>(mixed.hits) / mixed_n : 0;
  const ServiceStats stats = service.stats();

  std::printf("%-6s  %10s  %10s  %10s  %12s\n", "phase", "p50 (us)",
              "p99 (us)", "mean (us)", "requests");
  std::printf("%-6s  %10.1f  %10.1f  %10.1f  %12zu\n", "cold", cold_p50 * 1e6,
              cold_p99 * 1e6, mean_of(cold.latencies_s) * 1e6,
              cold.latencies_s.size());
  std::printf("%-6s  %10.1f  %10.1f  %10.1f  %12zu\n", "warm", warm_p50 * 1e6,
              warm_p99 * 1e6, mean_of(warm.latencies_s) * 1e6,
              warm.latencies_s.size());
  std::printf("%-6s  %10.1f  %10.1f  %10.1f  %12zu\n", "mixed",
              percentile(mixed.latencies_s, 0.50) * 1e6,
              percentile(mixed.latencies_s, 0.99) * 1e6,
              mean_of(mixed.latencies_s) * 1e6, mixed.latencies_s.size());
  std::printf("\nwarm p99 speedup: %.1fx\n", warm_speedup_p99);
  std::printf("mixed: %.0f req/s, hit rate %.2f, errors %lld\n", mixed_rps,
              mixed_hit_rate,
              static_cast<long long>(cold.errors + warm.errors +
                                     mixed.errors));
  std::printf("service: %lld requests, %lld simulations, %lld coalesced; "
              "cache %lld/%lld hit/miss, %lld evictions, %lld bytes\n",
              static_cast<long long>(stats.requests),
              static_cast<long long>(stats.simulations),
              static_cast<long long>(stats.coalesced),
              static_cast<long long>(stats.cache.hits),
              static_cast<long long>(stats.cache.misses),
              static_cast<long long>(stats.cache.evictions),
              static_cast<long long>(stats.cache.bytes));

  benchtool::BenchJson json{"serve"};
  json.set("quick", quick);
  json.set("clients", clients);
  json.set("hot_keys", hot_keys);
  json.set("cold_p50_us", cold_p50 * 1e6);
  json.set("cold_p99_us", cold_p99 * 1e6);
  json.set("warm_p50_us", warm_p50 * 1e6);
  json.set("warm_p99_us", warm_p99 * 1e6);
  json.set("warm_speedup_p99", warm_speedup_p99);
  json.set("mixed_requests_per_s", mixed_rps);
  json.set("mixed_hit_rate", mixed_hit_rate);
  json.set("mixed_p99_us", percentile(mixed.latencies_s, 0.99) * 1e6);
  json.set("client_errors",
           static_cast<long long>(cold.errors + warm.errors + mixed.errors));
  json.set("service_requests", static_cast<long long>(stats.requests));
  json.set("service_simulations", static_cast<long long>(stats.simulations));
  json.set("service_coalesced", static_cast<long long>(stats.coalesced));
  json.set("cache_hits", static_cast<long long>(stats.cache.hits));
  json.set("cache_misses", static_cast<long long>(stats.cache.misses));
  json.set("cache_bytes", static_cast<long long>(stats.cache.bytes));
  json.write();

  const bool client_errors = (cold.errors + warm.errors + mixed.errors) != 0;
  if (client_errors) std::fprintf(stderr, "serve_loadgen: client errors\n");
  return client_errors ? 1 : 0;
}
