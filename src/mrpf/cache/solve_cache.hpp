// Sharded in-memory LRU cache of canonical synthesis plans — one cache,
// every scheme.
//
// Keyed by the 64-bit solve fingerprint (fingerprint.hpp — canonical bank
// + scheme + options tag), N-way sharded with one mutex and one intrusive
// LRU list per shard, so the PR-2 batch runners can hammer it from every
// worker with no global lock. Entries store the *canonical* plan (for the
// MRP schemes: taps per canonical vertex, identity back-references); a hit
// deep-copies it and swaps in the requester's own back-transform, which
// makes the rehydrated plan field-for-field identical to a fresh driver
// optimize of the original bank. Lookups verify the stored canonical words
// and options tag — a 64-bit key collision degrades to a miss, never to
// wrong data.
//
// Counters (hit/miss/insert/evict, per-scheme hit/miss, plus wall ns,
// StageTimers-style) are process-cheap atomics; bench/baseline_zoo exports
// stats() snapshots into BENCH_schemes.json, and the daemon's stats frame
// and perfbench read them too.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "mrpf/cache/fingerprint.hpp"
#include "mrpf/core/mrp.hpp"
#include "mrpf/core/synth_plan.hpp"

namespace mrpf::cache {

/// Monotonic counters plus a point-in-time size snapshot.
struct CacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 trivial = 0;  // lookups for empty/all-zero banks (never cached)
  u64 inserts = 0;
  u64 evictions = 0;
  u64 entries = 0;       // snapshot
  u64 bytes = 0;         // snapshot (approximate footprint)
  double lookup_ns = 0;  // total wall ns inside try_get_plan
  double insert_ns = 0;  // total wall ns inside put_plan
  /// Per-scheme breakdown of hits/misses, indexed by core::Scheme value.
  std::array<u64, core::kNumSchemes> scheme_hits{};
  std::array<u64, core::kNumSchemes> scheme_misses{};
};

struct SolveCacheConfig {
  /// Approximate total footprint budget, split evenly across shards. Each
  /// shard always keeps its most recent entry, even when oversized.
  std::size_t max_bytes = std::size_t{256} << 20;
  /// Number of independent (mutex, LRU, index) shards; clamped to >= 1.
  int shards = 16;
};

class SolveCache final : public core::SolveCacheHook {
 public:
  explicit SolveCache(const SolveCacheConfig& config = {});
  ~SolveCache() override = default;

  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  // core::SolveCacheHook
  bool try_get_plan(const std::vector<i64>& bank, core::Scheme scheme,
                    const core::MrpOptions& options,
                    core::SynthPlan& out) override;
  void put_plan(const std::vector<i64>& bank, core::Scheme scheme,
                const core::MrpOptions& options,
                const core::SynthPlan& plan) override;
  u64 plan_key(const std::vector<i64>& bank, core::Scheme scheme,
               const core::MrpOptions& options) const override;

  CacheStats stats() const;
  void clear();

  std::size_t max_bytes() const { return config_.max_bytes; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// One entry as seen by the persistence layer (borrowed views — valid
  /// only inside the for_each callback, which runs under the shard lock).
  struct StoredSolve {
    u64 key = 0;
    SolveOptionsTag tag;
    const std::vector<i64>* canonical = nullptr;
    const core::SynthPlan* plan = nullptr;
  };

  /// Visits every entry, shard by shard, oldest first within a shard.
  void for_each(const std::function<void(const StoredSolve&)>& fn) const;

  /// Direct canonical insertion (persistence load path). Returns false —
  /// and stores nothing — unless (tag, canonical, plan) passes
  /// is_canonical_plan. Counts as an insert, not a miss.
  bool insert_canonical(const SolveOptionsTag& tag, std::vector<i64> canonical,
                        core::SynthPlan plan);

 private:
  struct Entry {
    u64 key = 0;
    SolveOptionsTag tag;
    std::vector<i64> canonical;
    core::SynthPlan plan;  // canonical form (see file comment)
    std::size_t bytes = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = oldest, back = most recent
    std::unordered_map<u64, std::list<Entry>::iterator> index;
    std::size_t bytes = 0;
  };

  Shard& shard_of(u64 key) {
    return shards_[static_cast<std::size_t>((key >> 17) ^ key) %
                   shards_.size()];
  }
  /// Inserts under the shard lock, then evicts oldest-first down to the
  /// per-shard budget (always keeping at least one entry).
  void insert_entry(Entry&& entry);
  void count_lookup(core::Scheme scheme, bool hit);

  SolveCacheConfig config_;
  std::vector<Shard> shards_;

  std::atomic<u64> hits_{0};
  std::atomic<u64> misses_{0};
  std::atomic<u64> trivial_{0};
  std::atomic<u64> inserts_{0};
  std::atomic<u64> evictions_{0};
  std::atomic<u64> lookup_ns_{0};
  std::atomic<u64> insert_ns_{0};
  std::array<std::atomic<u64>, core::kNumSchemes> scheme_hits_{};
  std::array<std::atomic<u64>, core::kNumSchemes> scheme_misses_{};
};

/// Approximate heap footprint of a solve result / plan (used for LRU
/// budgeting; deliberately cheap, not exact).
std::size_t approx_result_bytes(const core::MrpResult& result);
std::size_t approx_plan_bytes(const core::SynthPlan& plan);

/// True iff (tag, canonical, plan) is a valid canonical cache entry: the
/// scheme is in range and matches the plan's provenance (mrp present iff
/// an MRP scheme with matching canonical vertices and identity
/// back-references; cse present iff kCse), `canonical` obeys the scheme's
/// canonical form, and the plan's ops+taps replay through the shared
/// lowering path into a block that verifiably multiplies by `canonical`.
/// The persistence loader dry-runs this over a whole file before
/// inserting anything, so a rejected file leaves the cache untouched.
bool is_canonical_plan(const SolveOptionsTag& tag,
                       const std::vector<i64>& canonical,
                       const core::SynthPlan& plan);

}  // namespace mrpf::cache
