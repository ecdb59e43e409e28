#include "mrpf/cache/session.hpp"

#include <string>
#include <utility>

#include "mrpf/cache/persist.hpp"
#include "mrpf/common/env.hpp"

namespace mrpf::cache {

SolveCacheSession::SolveCacheSession(std::string path, bool ignore_env,
                                     const SolveCacheConfig& config)
    : path_(std::move(path)) {
  SolveCacheConfig effective = config;
  if (!ignore_env) {
    const env::ParsedCacheKnob knob = env::read_cache();
    if (knob.disabled) return;  // cache_ stays null
    if (knob.max_bytes != 0) effective.max_bytes = knob.max_bytes;
  }
  cache_ = std::make_unique<SolveCache>(effective);
  if (!path_.empty()) {
    warm_ = load_solve_cache(*cache_, path_);
  }
}

bool SolveCacheSession::save() const {
  if (cache_ == nullptr || path_.empty()) return true;
  return save_solve_cache(*cache_, path_);
}

}  // namespace mrpf::cache
