// Set-associative cache hierarchy simulator (cachegrind-style).
//
// The paper selected its CacheFriendly (~1% miss) and CacheUnfriendly
// (~70% miss) Convolve configurations with cachegrind; we reproduce that
// selection by running the actual Convolve access pattern through this
// model (see apps/convolve). The same model also sizes the post-SMM refill
// penalty inputs.
//
// Hot-path design (DESIGN.md §8): each level memoises the last-accessed
// line and its way, so consecutive same-line references — the dominant case
// for unit-stride replay — skip the set walk entirely, and the hierarchy
// exposes batched replay entry points (access_run / access_interleaved)
// that collapse whole same-line runs into counter updates. Both are
// bit-identical to the scalar path: stats, LRU stamps, and residency evolve
// exactly as if access() had been called per reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace smilab {

struct CacheConfig {
  std::size_t size_bytes = 32 * 1024;
  int line_bytes = 64;
  int associativity = 8;

  /// Empty if the geometry is consistent; otherwise a message naming the
  /// offending field. A size not divisible by line*associativity used to
  /// silently truncate in sets(); now it is a construction error.
  [[nodiscard]] std::string validation_error() const;

  [[nodiscard]] std::size_t sets() const {
    return size_bytes / (static_cast<std::size_t>(line_bytes) *
                         static_cast<std::size_t>(associativity));
  }
};

/// One level: physically indexed, true-LRU, write-allocate. We only track
/// hit/miss (no dirty writeback modelling: the study needs miss *rates*).
class SetAssocCache {
 public:
  /// Throws std::invalid_argument (CacheConfig::validation_error) on an
  /// inconsistent geometry.
  explicit SetAssocCache(CacheConfig config);

  /// Access one byte address; returns true on hit. A miss installs the line
  /// (the caller decides whether to probe the next level first).
  bool access(std::uint64_t addr);

  /// Probe without installing or updating LRU (diagnostics).
  [[nodiscard]] bool contains(std::uint64_t addr) const;

  /// Drop every line (what SMM entry/exit effectively does to hot state).
  void flush();

  /// Test reference: with the last-line memo off, every access takes the
  /// full set lookup. CacheHierarchyTest.FastPath* compares the memoized
  /// default against it to prove the memo changes nothing observable.
  void set_fast_path(bool enabled);
  [[nodiscard]] bool fast_path_enabled() const { return fast_path_; }

  [[nodiscard]] const CacheConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t accesses() const { return accesses_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] double miss_rate() const {
    return accesses_ ? static_cast<double>(misses_) / static_cast<double>(accesses_)
                     : 0.0;
  }
  void reset_stats() {
    accesses_ = 0;
    misses_ = 0;
  }

 private:
  friend class CacheHierarchy;

  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  // last-use stamp
    bool valid = false;
  };

  [[nodiscard]] std::uint64_t line_of(std::uint64_t addr) const {
    return addr >> line_shift_;
  }

  bool access_slow(std::uint64_t line);

  /// Resident way for `line`, or nullptr; no stats or LRU side effects.
  [[nodiscard]] Way* find_resident(std::uint64_t line);

  /// Count `n` further hits on the line of the immediately preceding
  /// access without re-walking the set. Caller (CacheHierarchy batching)
  /// guarantees the previous access touched that line and it is resident;
  /// final accesses/clock/LRU state is bit-identical to n scalar hits.
  void touch_last(std::uint64_t n) {
    accesses_ += n;
    clock_ += n;
    last_way_->lru = clock_;
  }

  /// Count `pairs` alternating hits on two resident lines (a before b per
  /// pair), leaving b as the most recent. Bit-identical to the scalar
  /// interleaving: a's final stamp is clock-1, b's is clock.
  void touch_pair(Way& a, Way& b, std::uint64_t line_b, std::uint64_t pairs) {
    accesses_ += 2 * pairs;
    clock_ += 2 * pairs;
    a.lru = clock_ - 1;
    b.lru = clock_;
    last_line_ = line_b;
    last_way_ = &b;
  }

  CacheConfig config_;
  std::size_t set_count_;
  int line_shift_;
  std::vector<Way> ways_;  // set-major: ways_[set * assoc + way]
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t clock_ = 0;
  // Last-line memo: the way holding the most recently accessed line. Only
  // access() installs/evicts lines, so the memo stays valid until the next
  // flush or differently-lined access.
  std::uint64_t last_line_ = ~0ull;
  Way* last_way_ = nullptr;
  bool fast_path_ = true;
};

/// Per-level hit statistics for a full hierarchy walk.
enum class CacheLevel { kL1 = 1, kL2 = 2, kL3 = 3, kMemory = 4 };

struct HierarchyStats {
  std::uint64_t accesses = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l3_hits = 0;
  std::uint64_t memory_accesses = 0;

  bool operator==(const HierarchyStats&) const = default;

  /// cachegrind-style overall miss rate: fraction of references that left
  /// the L1 (what the paper's ~1% / ~70% numbers describe).
  [[nodiscard]] double l1_miss_rate() const {
    return accesses ? static_cast<double>(accesses - l1_hits) /
                          static_cast<double>(accesses)
                    : 0.0;
  }
  [[nodiscard]] double memory_miss_rate() const {
    return accesses ? static_cast<double>(memory_accesses) /
                          static_cast<double>(accesses)
                    : 0.0;
  }
  [[nodiscard]] std::string summary() const;
};

/// Three-level inclusive-enough hierarchy: misses walk down and install at
/// every level on the way back up.
class CacheHierarchy {
 public:
  CacheHierarchy(CacheConfig l1, CacheConfig l2, CacheConfig l3);

  /// The multithreaded-study machine (Westmere E5620): 32 KB L1d, 256 KB
  /// L2 per core, 12 MB shared L3.
  static CacheHierarchy e5620();

  /// Access one address; returns the level that satisfied it.
  CacheLevel access(std::uint64_t addr);

  /// Replay `count` accesses starting at `addr`, advancing by `stride`
  /// bytes each time. Equivalent to count access() calls; same-line runs
  /// (stride < L1 line size) collapse into one walk plus counter updates.
  void access_run(std::uint64_t addr, std::int64_t count, std::uint64_t stride);

  /// Replay `pairs` interleaved accesses a0,b0,a1,b1,... with each stream
  /// advancing by its stride. Equivalent to the scalar interleaving; this
  /// is the shape of the Convolve inner loop (image row and kernel row in
  /// lockstep), where both streams stay within their lines for many pairs.
  void access_interleaved(std::uint64_t a, std::uint64_t stride_a,
                          std::uint64_t b, std::uint64_t stride_b,
                          std::int64_t pairs);

  /// Flush all levels (SMM entry/exit effect).
  void flush();

  /// Test reference: toggles the per-level last-line memo off, the plain
  /// lookup CacheHierarchyTest.FastPath* compares the memoized default
  /// against (stats must be equal with and without it).
  void set_fast_path(bool enabled);

  [[nodiscard]] const HierarchyStats& stats() const { return stats_; }
  void reset_stats() { stats_ = HierarchyStats{}; }

  /// Average access latency in cycles given per-level costs; used to turn
  /// measured miss behaviour into per-reference work for the simulator.
  [[nodiscard]] double average_latency_cycles(double l1_cy, double l2_cy,
                                              double l3_cy, double mem_cy) const;

 private:
  SetAssocCache l1_;
  SetAssocCache l2_;
  SetAssocCache l3_;
  HierarchyStats stats_;
};

}  // namespace smilab
