#include "mrpf/core/flow.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>

#include "mrpf/cache/session.hpp"
#include "mrpf/common/error.hpp"
#include "mrpf/common/parallel.hpp"
#include "mrpf/core/pass_manager.hpp"
#include "mrpf/core/scheme_driver.hpp"
#include "mrpf/filter/symmetric.hpp"

namespace mrpf::core {

namespace {

/// Flow-level cache_path wiring: when the caller named a store file but
/// did not supply a live cache hook, open a session around the solve(s).
/// The returned session (when engaged) owns the hook now installed in
/// `opts`; the caller saves it after solving. MRPF_CACHE=off makes the
/// session hand out a null hook, which simply means "solve fresh".
std::optional<cache::SolveCacheSession> open_cache_session(MrpOptions& opts) {
  std::optional<cache::SolveCacheSession> session;
  if (opts.cache == nullptr && !opts.cache_path.empty()) {
    session.emplace(opts.cache_path);
    opts.cache = session->cache();
    opts.cache_path.clear();
  }
  return session;
}

/// One (bank, scheme, options) synthesis through the unified pipeline:
/// cache probe → driver optimize (publishing the fresh plan) → plan
/// passes (the e-graph rewriter, when enabled) → the one shared lowering
/// path. `options` must already be the driver's canonical options. Passes
/// run between optimize and the cache put, so cached plans are post-pass
/// and a hit rehydrates the rewritten plan bit-identically. On a hit the
/// plan's optimize/stage timers travel from the original solve; the
/// lowering sample is always from this call.
SchemeResult solve_and_lower(const std::vector<i64>& bank,
                             const SchemeDriver& driver,
                             const MrpOptions& options,
                             SolveInfo* info = nullptr) {
  const Scheme scheme = driver.scheme();
  SchemeResult out;
  out.scheme = scheme;
  SynthPlan plan;
  bool cached = false;
  if (options.cache != nullptr) {
    cached = options.cache->try_get_plan(bank, scheme, options, plan);
  }
  if (info != nullptr) info->cache_hit = cached;
  if (!cached) {
    StageSample optimize;
    {
      const StageStopwatch watch(optimize);
      plan = driver.optimize(bank, options);
    }
    optimize.items = static_cast<std::uint64_t>(bank.size());
    plan.timers.optimize = optimize;
    apply_plan_passes(bank, options, plan);
    if (options.cache != nullptr) {
      options.cache->put_plan(bank, scheme, options, plan);
    }
  }
  StageSample lowering;
  {
    const StageStopwatch watch(lowering);
    out.block = lower_plan(bank, plan);
  }
  lowering.items = static_cast<std::uint64_t>(plan.ops.size());
  plan.timers.lowering = lowering;
  out.multiplier_adders = plan.analytic_adders;
  out.plan = std::move(plan);
  return out;
}

}  // namespace

SchemeResult optimize_bank(const std::vector<i64>& bank, Scheme scheme,
                           const MrpOptions& options) {
  return optimize_bank(bank, scheme, options, nullptr);
}

SchemeResult optimize_bank(const std::vector<i64>& bank, Scheme scheme,
                           const MrpOptions& options, SolveInfo* info) {
  const SchemeDriver& driver = scheme_driver(scheme);
  MrpOptions eff = driver.canonical_options(options);
  const auto session = open_cache_session(eff);
  SchemeResult out = solve_and_lower(bank, driver, eff, info);
  if (session.has_value()) session->save();
  return out;
}

std::vector<SchemeResult> optimize_bank_batch(
    const std::vector<std::vector<i64>>& banks, Scheme scheme,
    const MrpOptions& options) {
  const SchemeDriver& driver = scheme_driver(scheme);
  std::vector<SchemeResult> results(banks.size());
  ThreadPool pool;  // one pool for every stage of the batch
  MrpOptions eff = driver.canonical_options(options);
  // Inner stages (the MRP set-cover seeding shards) reuse the fan-out
  // pool — nesting is safe and workers that run out of solves steal inner
  // shards. Schemes without intra-solve parallelism simply ignore it.
  eff.pool = &pool;
  const auto session = open_cache_session(eff);

  // With a cache live, group jobs by solve fingerprint so each
  // equivalence class is solved live at most once per batch — group
  // members after the first rehydrate from the cache, which preserves
  // bit-identity because cached == fresh. Groups run in parallel, members
  // sequentially, and every result slot is written only by the worker
  // that owns its group, so the batch is deterministic for every thread
  // count.
  std::vector<std::vector<std::size_t>> groups;
  if (eff.cache != nullptr) {
    std::unordered_map<u64, std::size_t> group_of;
    groups.reserve(banks.size());
    for (std::size_t i = 0; i < banks.size(); ++i) {
      const u64 key = eff.cache->plan_key(banks[i], scheme, eff);
      const auto [it, fresh] = group_of.try_emplace(key, groups.size());
      if (fresh) groups.emplace_back();
      groups[it->second].push_back(i);
    }
  } else {
    groups.resize(banks.size());
    for (std::size_t i = 0; i < banks.size(); ++i) groups[i].push_back(i);
  }
  pool.parallel_for(groups.size(), [&](std::size_t g) {
    for (const std::size_t i : groups[g]) {
      results[i] = solve_and_lower(banks[i], driver, eff);
    }
  });
  if (session.has_value()) session->save();
  return results;
}

std::vector<i64> optimization_bank(const std::vector<i64>& coefficients) {
  if (filter::is_symmetric(coefficients)) {
    return filter::folded_half(coefficients);
  }
  return coefficients;
}

std::vector<int> alignment_of(const number::QuantizedCoefficients& q) {
  int smax = 0;
  for (const auto& c : q.coeffs) smax = std::max(smax, c.scale_log2);
  std::vector<int> align;
  align.reserve(q.coeffs.size());
  for (const auto& c : q.coeffs) align.push_back(smax - c.scale_log2);
  return align;
}

arch::TdfFilter expand_block_to_tdf(const std::vector<i64>& coefficients,
                                    const std::vector<int>& align,
                                    arch::MultiplierBlock block) {
  MRPF_CHECK(!coefficients.empty(),
             "expand_block_to_tdf: empty coefficient vector");
  const std::size_t n = coefficients.size();
  const std::size_t folded = block.taps.size();
  MRPF_CHECK(folded == n || folded == (n + 1) / 2,
             "expand_block_to_tdf: block does not cover the coefficients");

  // Expand the folded block back onto every tap position.
  arch::MultiplierBlock full;
  full.graph = std::move(block.graph);
  full.constants = coefficients;
  full.taps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t folded_index = folded == n ? i : std::min(i, n - 1 - i);
    arch::Tap tap = block.taps[folded_index];
    MRPF_CHECK(tap.constant == coefficients[i],
               "expand_block_to_tdf: folded tap does not match mirrored "
               "coefficient");
    full.taps.push_back(tap);
  }
  return arch::TdfFilter(coefficients, align, std::move(full));
}

arch::TdfFilter build_tdf(const std::vector<i64>& coefficients,
                          const std::vector<int>& align, Scheme scheme,
                          const MrpOptions& options) {
  MRPF_CHECK(!coefficients.empty(), "build_tdf: empty coefficient vector");
  const std::vector<i64> bank = optimization_bank(coefficients);
  SchemeResult opt = optimize_bank(bank, scheme, options);
  return expand_block_to_tdf(coefficients, align, std::move(opt.block));
}

arch::TdfFilter build_tdf(const number::QuantizedCoefficients& q,
                          Scheme scheme, const MrpOptions& options) {
  return build_tdf(q.values(), alignment_of(q), scheme, options);
}

}  // namespace mrpf::core
