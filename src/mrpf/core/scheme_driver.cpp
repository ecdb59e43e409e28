#include "mrpf/core/scheme_driver.hpp"

#include <algorithm>
#include <utility>

#include "mrpf/baseline/diff_mst.hpp"
#include "mrpf/baseline/ragn.hpp"
#include "mrpf/baseline/simple.hpp"
#include "mrpf/common/env.hpp"
#include "mrpf/common/error.hpp"
#include "mrpf/core/sidc.hpp"
#include "mrpf/cse/build.hpp"
#include "mrpf/opt/bnb.hpp"
#include "mrpf/opt/emit.hpp"

namespace mrpf::core {

namespace {

/// Resolves the 0 = "unset" xform_budget convention, mirroring
/// resolve_opt_budget below: an explicit budget wins, then
/// MRPF_XFORM_BUDGET (env::read_xform_budget), then kDefaultXformBudget.
/// Only consulted when the pass is on — a disabled pass pins the budget to
/// 0 and never touches the environment, so pass-off cache tags stay stable
/// and the daemon's env-hygiene (knobs snapshotted once at startup) is
/// preserved.
PassConfig canonical_passes(const PassConfig& requested) {
  PassConfig p;
  p.xform = requested.xform;
  if (!p.xform) return p;
  if (requested.xform_budget > 0) {
    p.xform_budget = std::min(requested.xform_budget, kMaxXformBudget);
    return p;
  }
  const long long env_budget = env::read_xform_budget();
  p.xform_budget = env_budget > 0 ? env_budget : kDefaultXformBudget;
  return p;
}

/// Resets every MRP-only knob; the baselines read at most options.rep.
/// The pass config survives (resolved, not reset) — plan passes apply to
/// every scheme's plan.
MrpOptions baseline_options(const MrpOptions& options) {
  MrpOptions o = options;
  o.beta = 0.5;
  o.l_max = -1;
  o.depth_limit = 0;
  o.recursive_levels = 0;
  o.cse_on_seed = false;
  o.opt_budget = 0;
  o.passes = canonical_passes(options.passes);
  return o;
}

/// Resolves the 0 = "unset" opt_budget convention: an explicit option wins,
/// then MRPF_OPT_BUDGET (env::read_opt_budget), then the built-in default.
/// The daemon never reaches the environment — it injects its startup
/// snapshot into every request's options.
long long resolve_opt_budget(long long requested) {
  if (requested > 0) return std::min(requested, kMaxOptBudget);
  const long long env_budget = env::read_opt_budget();
  return env_budget > 0 ? env_budget : kDefaultOptBudget;
}

class SimpleDriver final : public SchemeDriver {
 public:
  Scheme scheme() const override { return Scheme::kSimple; }
  MrpOptions canonical_options(const MrpOptions& options) const override {
    return baseline_options(options);
  }
  SynthPlan optimize(const std::vector<i64>& bank,
                     const MrpOptions& options) const override {
    return plan_from_block(Scheme::kSimple,
                           baseline::simple_adder_cost(bank, options.rep),
                           baseline::build_simple_block(bank, options.rep));
  }
};

class CseDriver final : public SchemeDriver {
 public:
  Scheme scheme() const override { return Scheme::kCse; }
  MrpOptions canonical_options(const MrpOptions& options) const override {
    MrpOptions o = baseline_options(options);
    o.rep = number::NumberRep::kCsd;  // Hartley CSE is CSD-based
    return o;
  }
  SynthPlan optimize(const std::vector<i64>& bank,
                     const MrpOptions& /*options*/) const override {
    cse::CseOptions cse_opts;
    cse_opts.rep = number::NumberRep::kCsd;
    cse::CseResult result = cse::hartley_cse(bank, cse_opts);
    SynthPlan plan = plan_from_block(Scheme::kCse, result.adder_count(),
                                     cse::build_multiplier_block(result));
    plan.cse = std::move(result);
    return plan;
  }
};

class DiffMstDriver final : public SchemeDriver {
 public:
  Scheme scheme() const override { return Scheme::kDiffMst; }
  MrpOptions canonical_options(const MrpOptions& options) const override {
    return baseline_options(options);
  }
  SynthPlan optimize(const std::vector<i64>& bank,
                     const MrpOptions& options) const override {
    const baseline::DiffMstResult result =
        baseline::diff_mst_optimize(bank, options.rep);
    return plan_from_block(Scheme::kDiffMst, result.adders,
                           baseline::build_diff_mst_block(bank, options.rep));
  }
};

class RagnDriver final : public SchemeDriver {
 public:
  Scheme scheme() const override { return Scheme::kRagn; }
  MrpOptions canonical_options(const MrpOptions& options) const override {
    MrpOptions o = baseline_options(options);
    o.rep = number::NumberRep::kCsd;
    return o;
  }
  SynthPlan optimize(const std::vector<i64>& bank,
                     const MrpOptions& /*options*/) const override {
    const baseline::RagnResult result =
        baseline::ragn_optimize(bank, number::NumberRep::kCsd);
    return plan_from_block(Scheme::kRagn, result.adders, result.block);
  }
};

class MrpDriver final : public SchemeDriver {
 public:
  explicit MrpDriver(bool cse_on_seed) : cse_on_seed_(cse_on_seed) {}
  Scheme scheme() const override {
    return cse_on_seed_ ? Scheme::kMrpCse : Scheme::kMrp;
  }
  MrpOptions canonical_options(const MrpOptions& options) const override {
    MrpOptions o = options;
    o.cse_on_seed = cse_on_seed_;
    o.opt_budget = 0;
    o.passes = canonical_passes(options.passes);
    return o;
  }
  SynthPlan optimize(const std::vector<i64>& bank,
                     const MrpOptions& options) const override {
    MrpOptions opts = canonical_options(options);
    const MrpResult result = mrp_optimize(bank, opts);
    return make_mrp_plan(bank, result, opts);
  }

 private:
  bool cse_on_seed_;
};

/// The exact scheme: branch-and-bound over shift-add fundamentals
/// (src/mrpf/opt) seeded by the greedy MRP solve as its upper bound. The
/// greedy sub-solve runs with opt_budget reset to 0, so it shares the
/// plain-kMrp cache slot with direct kMrp solves. Four outcomes:
///   - the search finds a strictly better chain  -> exact plan, tagged won
///   - every shallower depth is exhausted        -> greedy plan, proven
///   - budget runs out / bank too big / emission -> greedy plan, unproven
/// All three fallbacks return the greedy plan retagged kBnb, so callers
/// (cache, serde, daemon, fuzz) never see a scheme/plan mismatch.
class BnbDriver final : public SchemeDriver {
 public:
  Scheme scheme() const override { return Scheme::kBnb; }
  MrpOptions canonical_options(const MrpOptions& options) const override {
    MrpOptions o = options;
    o.cse_on_seed = false;
    o.opt_budget = resolve_opt_budget(options.opt_budget);
    o.passes = canonical_passes(options.passes);
    return o;
  }
  SynthPlan optimize(const std::vector<i64>& bank,
                     const MrpOptions& options) const override {
    MrpOptions opts = canonical_options(options);

    // Greedy upper bound (and fallback plan) via the plain MRP pipeline.
    MrpOptions greedy_opts = opts;
    greedy_opts.opt_budget = 0;
    const MrpResult greedy = mrp_optimize(bank, greedy_opts);

    const PrimaryBank primaries = extract_primaries(bank);
    std::vector<i64> targets;
    for (const i64 p : primaries.primaries) {
      if (p > 1) targets.push_back(p);
    }

    opt::BnbOptions search_options;
    search_options.step_budget = opts.opt_budget;
    opt::BnbOutcome outcome;
    StageSample search_sample;
    {
      StageStopwatch watch(search_sample);
      outcome = opt::bnb_solve(targets, greedy.total_adders(), search_options);
    }
    search_sample.items = static_cast<std::uint64_t>(outcome.steps_explored);

    if (outcome.status == opt::BnbStatus::kOptimal) {
      try {
        arch::MultiplierBlock block;
        block.graph = opt::build_bnb_graph(outcome.steps);
        block.constants = bank;
        for (const i64 c : bank) {
          const std::optional<arch::Tap> tap = block.graph.resolve(c);
          MRPF_CHECK(tap.has_value(), "bnb: solved chain misses a constant");
          block.taps.push_back(*tap);
        }
        block.verify({1, -1, 2, 9, -100, 2047});
        SynthPlan plan = plan_from_block(Scheme::kBnb, outcome.adders, block);
        plan.timers.bnb_search = search_sample;
        plan.timers.bnb_fallback.items = 0;  // the exact plan won
        return plan;
      } catch (const Error&) {
        // Residue re-alignment can overflow the 62-bit fundamental range
        // on pathological chains; treat exactly like a budget miss.
        outcome.status = opt::BnbStatus::kBudget;
      }
    }

    SynthPlan plan = make_mrp_plan(bank, greedy, greedy_opts);
    plan.scheme = Scheme::kBnb;
    plan.timers.bnb_search = search_sample;
    plan.timers.bnb_fallback.items =
        outcome.status == opt::BnbStatus::kProvedExisting ? 1 : 2;
    return plan;
  }
};

}  // namespace

const SchemeDriver& scheme_driver(Scheme scheme) {
  static const SimpleDriver simple;
  static const CseDriver cse;
  static const DiffMstDriver diff_mst;
  static const RagnDriver ragn;
  static const MrpDriver mrp(false);
  static const MrpDriver mrp_cse(true);
  static const BnbDriver bnb;
  switch (scheme) {
    case Scheme::kSimple:
      return simple;
    case Scheme::kCse:
      return cse;
    case Scheme::kDiffMst:
      return diff_mst;
    case Scheme::kRagn:
      return ragn;
    case Scheme::kMrp:
      return mrp;
    case Scheme::kMrpCse:
      return mrp_cse;
    case Scheme::kBnb:
      return bnb;
  }
  throw Error("scheme_driver: unknown scheme");
}

}  // namespace mrpf::core
