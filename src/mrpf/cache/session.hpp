// Lifecycle wrapper tying a SolveCache to its on-disk store.
//
// A session owns one SolveCache, warms it from `path` at construction
// (silently starting cold if the file is missing, corrupt, or stale), and
// writes it back on save(). The MRPF_CACHE environment variable, read
// through env::read_cache, is the operator override: `0` or `off` disables
// caching entirely (cache() returns nullptr), a positive integer overrides
// the capacity in MiB, and anything else warns once on stderr and falls
// back to defaults.
#pragma once

#include <memory>
#include <string>

#include "mrpf/cache/solve_cache.hpp"

namespace mrpf::cache {

class SolveCacheSession {
 public:
  /// Opens a session backed by `path` (may be empty for a purely
  /// in-memory session). Honors MRPF_CACHE unless `ignore_env` is set —
  /// tests pass true to pin behavior regardless of the environment.
  explicit SolveCacheSession(std::string path, bool ignore_env = false,
                             const SolveCacheConfig& config = {});

  SolveCacheSession(const SolveCacheSession&) = delete;
  SolveCacheSession& operator=(const SolveCacheSession&) = delete;
  SolveCacheSession(SolveCacheSession&&) = default;
  SolveCacheSession& operator=(SolveCacheSession&&) = default;

  /// The hook to hand to MrpOptions::cache; nullptr when MRPF_CACHE
  /// disabled the session (callers then just solve fresh).
  SolveCache* cache() { return cache_.get(); }
  const SolveCache* cache() const { return cache_.get(); }

  /// True when the backing file existed and loaded cleanly.
  bool warm() const { return warm_; }

  /// Persists the cache back to the path. No-op (returning true) for
  /// disabled or pathless sessions; false on I/O failure.
  bool save() const;

 private:
  std::string path_;
  std::unique_ptr<SolveCache> cache_;
  bool warm_ = false;
};

}  // namespace mrpf::cache
