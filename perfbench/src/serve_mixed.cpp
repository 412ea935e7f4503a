// serve_mixed: an open loop at a fixed offered rate into a `smilab serve`
// daemon (2 workers) over its Unix socket, on 2 client connections.
//
// Every slot of the schedule is due at t0 + i / kRate whether or not
// earlier requests have been answered; each request is timed from when it
// was due, so a stall also charges the requests queued behind it, and the
// generator reports how late it ran. The mix of kinds is a fixed pattern
// (the variant picks the keys):
//   30% hot repeats of keys filled during warm-up (cache hits),
//   60% fresh ring keys and 2% fresh small-NAS keys (misses),
//    8% a fresh ring key sent on both connections at once (single-flight).
// A hit costs little more than the host's thread wake-ups, which on a
// shared VM vary several-fold from run to run; with misses the majority,
// p50 lands on the simulation path smilab controls. The NAS misses are the
// slowest requests and 2% of them, so p99 falls inside their cluster.
// Checks: every response for a key is byte-equal to the first one; the hot
// payloads are pinned by the driver; after the window a sample of misses is
// recomputed in-process with run_experiment_payload and must match.
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "smilab/core/fnv.h"
#include "smilab/serve/request.h"
#include "smilab/serve/service.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace smilab;

constexpr double kRate = 200.0;     ///< offered schedule slots per second
constexpr double kLimitMs = 100.0;     ///< latency limit for goodput
constexpr int kHotRing = 12;
constexpr int kHotNas = 4;
constexpr int kVerifyRing = 6;
constexpr int kVerifyNas = 2;
constexpr int kWorkers = 2;

std::string ring_line(std::uint64_t seed) {
  return R"({"experiment":"ring","nodes":4,"iters":300,"seed":)" +
         std::to_string(seed) + "}";
}

std::string nas_line(std::uint64_t seed) {
  return R"({"experiment":"nas","workload":"bt","class":"A","nodes":1,)"
         R"("ranks_per_node":4,"trials":3,"seed":)" +
         std::to_string(seed) + "}";
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/// The `smilab serve` daemon as a child process; stopped on destruction.
class Daemon {
 public:
  Daemon(const std::string& cli, const std::string& socket) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);  // never outlive the runner
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      const std::string sock = "--socket=" + socket;
      const std::string workers = "--workers=" + std::to_string(kWorkers);
      ::execl(cli.c_str(), "smilab", "serve", sock.c_str(), workers.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(fds[1]);
    out_ = fds[0];
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Block until the daemon prints its "listening" line (it is bound then).
  void wait_listening() {
    std::string line;
    char c = 0;
    while (line.find("listening") == std::string::npos) {
      pollfd p{out_, POLLIN, 0};
      if (::poll(&p, 1, 30'000) <= 0 || ::read(out_, &c, 1) != 1) {
        throw std::runtime_error("smilab serve did not start");
      }
      line.push_back(c);
    }
  }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    pid_t reaped = 0;
    for (int i = 0; i < 500 && reaped == 0; ++i) {  // 5 s, then force
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      reaped = ::waitpid(pid_, &status, WNOHANG);
    }
    if (reaped == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    ::close(out_);
  }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
};

/// One client connection to an abstract-namespace socket.
class Conn {
 public:
  explicit Conn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path + 1, path.data() + 1, path.size() - 1);
    const auto len =
        static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + path.size());
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), len) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect failed");
    }
    timeval tv{60, 0};  // a lost response fails the pass instead of hanging
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next response line; empty on EOF or timeout.
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return {};
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::string round_trip(const std::string& line) {
    return send_line(line) ? read_line() : std::string{};
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

enum class Kind { kHot, kFreshRing, kFreshNas, kDuplicate };

struct Slot {
  std::string line;
  Kind kind;
  Clock::time_point due;
};

struct Response {
  std::size_t slot = 0;
  int conn = 0;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point received;
  bool ok = false;
  bool cached = false;
  std::string payload;
};

/// The "result" member of a response envelope (the cached payload bytes).
std::string payload_of(const std::string& response) {
  const std::size_t at = response.find(R"("result":)");
  if (at == std::string::npos || response.empty()) return {};
  return response.substr(at + 9, response.size() - at - 10);
}

std::int64_t stat_field(const std::string& stats, const std::string& name) {
  const std::size_t at = stats.find("\"" + name + "\":");
  return at == std::string::npos
             ? -1
             : std::atoll(stats.c_str() + at + name.size() + 3);
}

/// Sent, not yet answered requests of one connection, oldest first (the
/// daemon answers each connection in request order).
struct Pending {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Response> queue;  // guarded by mu
  bool done = false;           // guarded by mu
};

/// Sleep until shortly before `due`, then spin: the generator's lateness is
/// then what the host imposes, not timer slack.
void wait_until(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::microseconds(300));
  while (Clock::now() < due) {
  }
}

/// Match one connection's in-order responses to its pending requests.
void receive(Conn& conn, Pending& pending, std::vector<Response>& out) {
  for (;;) {
    std::unique_lock<std::mutex> lock{pending.mu};
    pending.cv.wait(lock, [&] { return !pending.queue.empty() || pending.done; });
    if (pending.queue.empty()) return;
    Response r = std::move(pending.queue.front());
    pending.queue.pop_front();
    lock.unlock();
    const std::string line = conn.read_line();
    if (line.empty()) return;  // connection lost: the rest count as failed
    r.received = Clock::now();
    r.ok = line.find(R"("ok":true)") != std::string::npos;
    r.cached = line.find(R"("cached":true)") != std::string::npos;
    r.payload = payload_of(line);
    out.push_back(std::move(r));
  }
}

/// The open loop: one generator thread sends every slot at its due time
/// (slot i on connection i % 2, a duplicate on both back to back), one
/// receiver thread per connection collects the answers.
std::vector<Response> open_loop(Conn& conn0, Conn& conn1,
                                const std::vector<Slot>& slots) {
  Conn* conns[2] = {&conn0, &conn1};
  Pending pending[2];
  std::vector<Response> out[2];
  std::thread receivers[2];
  for (int c = 0; c < 2; ++c) {
    receivers[c] = std::thread(receive, std::ref(*conns[c]), std::ref(pending[c]),
                               std::ref(out[c]));
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    wait_until(slots[i].due);
    const int first = static_cast<int>(i % 2);
    for (int k = 0; k < (slots[i].kind == Kind::kDuplicate ? 2 : 1); ++k) {
      const int c = (first + k) % 2;
      Response r;
      r.slot = i;
      r.conn = c;
      r.due = slots[i].due;
      r.sent = Clock::now();
      if (!conns[c]->send_line(slots[i].line)) continue;
      const std::lock_guard<std::mutex> lock{pending[c].mu};
      pending[c].queue.push_back(std::move(r));
      pending[c].cv.notify_one();
    }
  }
  for (int c = 0; c < 2; ++c) {
    {
      const std::lock_guard<std::mutex> lock{pending[c].mu};
      pending[c].done = true;
    }
    pending[c].cv.notify_one();
    receivers[c].join();
  }
  out[0].insert(out[0].end(), std::make_move_iterator(out[1].begin()),
                std::make_move_iterator(out[1].end()));
  return std::move(out[0]);
}

}  // namespace

PassReport run_serve_mixed(const PassOptions& options) {
  const auto v = static_cast<std::uint64_t>(options.variant);
  PassReport report;
  const Span pass{"pass"};

  std::vector<std::string> hot;
  for (int k = 0; k < kHotRing; ++k) hot.push_back(ring_line(1000 * v + k));
  for (int k = 0; k < kHotNas; ++k) hot.push_back(nas_line(1000 * v + 500 + k));

  // The schedule: slot i due at t0 + i / kRate (t0 fixed after warm-up).
  const auto slot_count = static_cast<std::size_t>(options.window_s * kRate);
  std::vector<Slot> slots;
  std::size_t expected = 0;  // requests sent: duplicates go out twice
  std::uint64_t fresh = 1'000'000 + 100'000 * v;
  for (std::size_t i = 0; i < slot_count; ++i) {
    // The kind of each slot follows a fixed low-discrepancy sequence, so
    // every variant offers the same arrival pattern of hits and misses;
    // the variant picks the keys.
    const double pick = std::fmod(0.6180339887498949 * static_cast<double>(i), 1.0);
    const std::uint64_t roll = splitmix64(0x5e7e ^ (v << 32) ^ i);
    Slot slot;
    if (pick < 0.30) {
      slot = {hot[roll % hot.size()], Kind::kHot, {}};
    } else if (pick < 0.90) {
      slot = {ring_line(fresh++), Kind::kFreshRing, {}};
    } else if (pick < 0.92) {
      slot = {nas_line(fresh++), Kind::kFreshNas, {}};
    } else {
      slot = {ring_line(fresh++), Kind::kDuplicate, {}};
    }
    expected += slot.kind == Kind::kDuplicate ? 2 : 1;
    slots.push_back(std::move(slot));
  }

  const std::string socket = "@perfbench-serve-" + std::to_string(::getpid());
  std::optional<Daemon> daemon;
  {
    const Span span{"serve.daemon_start"};
    daemon.emplace(options.smilab_cli, socket);
    daemon->wait_listening();
  }
  Conn conn0{socket};
  Conn conn1{socket};

  // Warm-up: fill the hot keys (alternating connections) and keep each
  // first payload as the reference later hits must equal.
  std::map<std::string, std::string> first_payload;
  std::string stats_before;
  {
    const Span span{"serve.warmup"};
    (void)conn1.round_trip(R"({"op":"ping"})");
    for (std::size_t k = 0; k < hot.size(); ++k) {
      const std::string response = (k % 2 ? conn1 : conn0).round_trip(hot[k]);
      report.attempted += 1;
      if (response.find(R"("ok":true)") == std::string::npos) {
        report.failed += 1;
        continue;
      }
      first_payload[hot[k]] = payload_of(response);
      report.hashes.push_back(
          {(k < kHotRing ? "hot.ring." : "hot.nas.") + std::to_string(k),
           hash_hex(first_payload[hot[k]]), 1});
    }
    stats_before = conn0.round_trip(R"({"op":"stats"})");
  }

  // The timed window.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i].due = t0 + std::chrono::nanoseconds(
                            static_cast<std::int64_t>(1e9 * i / kRate));
  }
  report.first_call = t0;
  std::vector<Response> all;
  int window_span = -1;
  {
    const Span span{"serve.window"};
    window_span = span.id();
    all = open_loop(conn0, conn1, slots);
  }
  const std::string stats_after = conn0.round_trip(R"({"op":"stats"})");
  report.rss_mb = peak_rss_mb(std::to_string(daemon->pid()));
  daemon->stop();

  // In arrival order: every response must equal the first for its key.
  std::sort(all.begin(), all.end(), [](const Response& a, const Response& b) {
    return a.received < b.received;
  });
  report.attempted += static_cast<std::int64_t>(expected);
  report.failed += static_cast<std::int64_t>(expected - all.size());
  std::vector<double> latency, hit_ms, miss_ms, late;
  std::int64_t hits = 0;
  std::int64_t good = 0;
  Clock::time_point last = t0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Response& r = all[i];
    const double ms = ms_between(r.due, r.received);
    latency.push_back(ms);
    late.push_back(ms_between(r.due, r.sent));
    last = std::max(last, r.received);
    Tracer::instance().add("serve.request", window_span,
                           static_cast<std::int64_t>(2 * r.slot + r.conn),
                           r.due, r.received);
    const std::string& line = slots[r.slot].line;
    bool ok = r.ok;
    if (ok) {
      const auto [it, inserted] = first_payload.emplace(line, r.payload);
      ok = inserted || it->second == r.payload;
    }
    if (!ok) {
      report.failed += 1;
      continue;
    }
    (r.cached ? hit_ms : miss_ms).push_back(ms);
    hits += r.cached ? 1 : 0;
    good += ms <= kLimitMs ? 1 : 0;
  }

  // After the window: recompute a sample of misses in this process.
  {
    const Span span{"serve.verify"};
    int want_ring = kVerifyRing;
    int want_nas = kVerifyNas;
    for (const Slot& slot : slots) {
      int* want = slot.kind == Kind::kFreshRing  ? &want_ring
                  : slot.kind == Kind::kFreshNas ? &want_nas
                                                 : nullptr;
      if (want == nullptr || *want == 0) continue;
      --*want;
      report.attempted += 1;
      std::string error;
      const auto parsed = serve::parse_request_line(slot.line, &error);
      const auto served = first_payload.find(slot.line);
      if (!parsed || served == first_payload.end() ||
          serve::run_experiment_payload(parsed->experiment) != served->second) {
        report.failed += 1;
      }
    }
  }

  const double window_s = std::chrono::duration<double>(last - t0).count();
  report.wall_s = window_s;
  report.cells = static_cast<std::int64_t>(all.size());
  report.cell_ms = latency;
  report.values["goodput_rps"] = static_cast<double>(good) / window_s;
  report.values["latency_limit_ms"] = kLimitMs;
  report.values["offered_rps"] = static_cast<double>(expected) / options.window_s;
  report.values["gen_late_max_ms"] =
      late.empty() ? 0 : *std::max_element(late.begin(), late.end());
  report.counters["serve.hit_p50_ms"] = percentile(hit_ms, 0.5);
  report.counters["serve.miss_p50_ms"] = percentile(miss_ms, 0.5);
  report.counters["serve.hit_rate"] =
      all.empty() ? 0 : static_cast<double>(hits) / static_cast<double>(all.size());
  report.counters["serve.gen_late_ms"] = percentile(late, 0.99);
  for (const char* name : {"coalesced", "simulations", "errors"}) {
    report.counters[std::string("serve.") + name] = static_cast<double>(
        stat_field(stats_after, name) - stat_field(stats_before, name));
  }
  return report;
}

}  // namespace perfbench
