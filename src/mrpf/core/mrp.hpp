// The MRP optimizer (paper §3): greedy weighted-minimum-set-cover over
// color classes, spanning-arborescence construction with minimum tree
// height (APSP/BFS root selection) and optional depth constraint, SEED
// extraction, and the two SEED-network refinements of §4 — CSE and
// recursive MRP.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mrpf/core/color_graph.hpp"
#include "mrpf/core/scheme.hpp"
#include "mrpf/core/sidc.hpp"
#include "mrpf/core/stage_timers.hpp"
#include "mrpf/cse/hartley.hpp"
#include "mrpf/number/repr.hpp"

namespace mrpf {
class ThreadPool;
}

namespace mrpf::core {

class SolveCacheHook;

/// Plan-pass pipeline configuration (core/pass_manager.hpp): which passes
/// run between the SchemeDriver and lower_plan. Carried in canonical
/// options so the pass set a plan was produced with is part of the
/// solve-cache fingerprint — pass-on and pass-off entries never mix.
struct PassConfig {
  /// Run the e-graph equality-saturation rewrite pass (src/mrpf/xform)
  /// over the driver's plan before lowering. Off by default, and enabling
  /// is always explicit (mrpf_synth --xform, mrpf_serve --xform, bench or
  /// fuzz config) — MRPF_XFORM_BUDGET alone never turns the pass on.
  bool xform = false;
  /// Deterministic saturation-step budget of the e-graph pass. 0 means
  /// "unset": when the pass is enabled, canonical_options resolves it from
  /// MRPF_XFORM_BUDGET (same grammar as MRPF_OPT_BUDGET) or
  /// kDefaultXformBudget, so the value the pass actually ran with always
  /// lands in the cache tag. Pinned to 0 whenever the pass is off, so
  /// pass-off fingerprints never fragment by budget.
  long long xform_budget = 0;

  bool operator==(const PassConfig&) const = default;
};

struct MrpOptions {
  number::NumberRep rep = number::NumberRep::kSpt;
  /// Benefit trade-off: f = β·frequency − (1−β)·cost (paper eq. 1).
  /// β = 0.5 weighs sharing and implementation cost equally; lower values
  /// model expensive interconnect (§3.3).
  double beta = 0.5;
  /// Max predecessor shift (paper: the coefficient wordlength); -1 = auto.
  int l_max = -1;
  /// Max spanning-tree height; 0 = unconstrained. Table 1 uses 3.
  int depth_limit = 0;
  /// Apply MRP to the SEED network this many more times (§4).
  int recursive_levels = 0;
  /// Apply Hartley CSE (CSD) to the SEED network instead (§4, Fig. 8).
  bool cse_on_seed = false;
  /// Deterministic search-step budget of the exact branch-and-bound scheme
  /// (kBnb; see src/mrpf/opt). 0 means "unset": BnbDriver resolves it from
  /// MRPF_OPT_BUDGET (shared env grammar) or kDefaultOptBudget, so the
  /// value the solve actually ran with always lands in the cache tag.
  /// Result-relevant for kBnb only; every other driver resets it to 0.
  long long opt_budget = 0;
  /// Plan passes to run between the driver and lowering. Result-relevant
  /// for every scheme (the e-graph pass can rewrite any plan), so every
  /// driver's canonical_options resolves it instead of resetting it.
  PassConfig passes;
  /// Route stage A through the pre-optimization reference kernels
  /// (map-based color graph, full-rescan set cover and root selection).
  /// Differential testing and perf baselines only — the result is
  /// bit-identical either way, just slower.
  bool use_reference_engine = false;
  /// Intra-solve parallelism: when non-null, the set-cover seeding (the
  /// benefit scoring of every candidate class) shards its work across this
  /// pool once an instance has enough classes. The result is bit-identical
  /// to pool == nullptr for every pool size (see set_cover.hpp); only wall
  /// time changes. The color-graph stage always runs serially. Nested use
  /// is safe — mrp_optimize_batch hands its own fan-out pool down here and
  /// the pool runs nested loops inline with work stealing. Borrowed, never
  /// owned; must outlive the call.
  ThreadPool* pool = nullptr;
  /// Cross-solve memoization: when non-null, mrp_optimize first asks the
  /// cache for a solve of an equivalent bank (same canonical fingerprint —
  /// see cache/fingerprint.hpp) and, on a miss, offers the fresh result
  /// back for reuse. A rehydrated hit is field-for-field identical to the
  /// fresh solve (timers excepted — they travel from the original solve),
  /// so results never depend on cache state. Must be thread-safe (the
  /// batch runners share it across workers). Borrowed, never owned.
  SolveCacheHook* cache = nullptr;
  /// Flow-level persistent cache: when non-empty (and `cache` is null),
  /// core::optimize_bank / optimize_bank_batch open a cache::SolveCache,
  /// load this file if it exists and is valid (corrupt or version-stale
  /// files are rejected and ignored, never trusted), run with it, and save
  /// it back. MRPF_CACHE=0/off disables this; MRPF_CACHE=<MiB> resizes the
  /// in-memory budget (see cache/session.hpp).
  std::string cache_path;
};

/// Default kBnb search-step budget when neither MrpOptions::opt_budget nor
/// MRPF_OPT_BUDGET picks one. Calibrated so the 10-bit single-constant
/// differential sweep and the Table-1 gap study both solve to proven
/// optimality well inside a CI minute.
inline constexpr long long kDefaultOptBudget = 2'000'000;

/// Upper clamp of the MRPF_OPT_BUDGET grammar (absurd budgets are almost
/// certainly typos; the clamp keeps the knob forgiving).
inline constexpr long long kMaxOptBudget = 1'000'000'000'000;

/// Default e-graph saturation budget when the pass is enabled but neither
/// PassConfig::xform_budget nor MRPF_XFORM_BUDGET picks one. Calibrated so
/// the W=12 catalog saturates to a fixpoint on every bank while a fuzz
/// case stays well under a millisecond.
inline constexpr long long kDefaultXformBudget = 500'000;

/// Upper clamp of the MRPF_XFORM_BUDGET grammar (same rationale as
/// kMaxOptBudget).
inline constexpr long long kMaxXformBudget = 1'000'000'000'000;

/// One committed computation-order edge: child = σ·(parent<<L) ± ξ.
struct TreeEdge {
  SidcEdge edge;
  int depth = 0;  // of edge.to within its tree
};

struct MrpResult {
  PrimaryBank bank;
  std::vector<i64> vertices;        // primary coefficients (== bank.primaries)
  std::vector<i64> solution_colors; // selected color classes, pick order
  std::vector<int> roots;           // vertex ids, in creation order
  std::vector<bool> root_is_free;   // value coincides with a solution color
  std::vector<TreeEdge> tree_edges; // parents always precede children
  std::vector<int> vertex_depth;    // -1 only for vertices of an empty bank
  int tree_height = 0;

  /// Colors ∪ root values, deduplicated and sorted: the SEED set.
  std::vector<i64> seed_values;

  /// Adders in the SEED multiplication network (direct, CSE'd, or
  /// recursive, depending on options).
  int seed_adders = 0;
  /// One adder per non-root covered vertex (the overhead add network).
  int overhead_adders = 0;
  int total_adders() const { return seed_adders + overhead_adders; }

  /// Table-1 shape: (#roots, #solution colors).
  int seed_roots() const { return static_cast<int>(roots.size()); }
  int seed_solution_set() const {
    return static_cast<int>(solution_colors.size());
  }

  /// Present when options.cse_on_seed.
  std::optional<cse::CseResult> seed_cse;
  /// Present when options.recursive_levels > 0.
  std::unique_ptr<MrpResult> seed_recursive;

  /// Per-stage wall time + item counts of this solve (always collected;
  /// excluded from bit-identity comparisons — it is observability, not
  /// part of the solution).
  StageTimers timers;

  /// Deep copy (MrpResult is move-only because of seed_recursive). Every
  /// field is duplicated, including nested recursive levels, seed_cse and
  /// timers — the copy compares field-for-field equal to the original.
  MrpResult clone() const;
};

struct SynthPlan;  // core/synth_plan.hpp

/// Cross-solve cache interface consumed by the flow layer, mrp_optimize
/// and the batch runners. Entries are scheme-tagged SynthPlans, so every
/// scheme shares one cache. The concrete implementation
/// (cache::SolveCache — canonical fingerprinting, sharded in-memory LRU,
/// optional persistent store) lives in src/mrpf/cache; core only depends
/// on this abstract hook so the dependency points cache → core. All
/// methods must be thread-safe.
class SolveCacheHook {
 public:
  virtual ~SolveCacheHook() = default;

  /// If a plan for an equivalent (bank, scheme, options) solve is cached,
  /// rehydrates it for `bank` into `out` (field-for-field identical to a
  /// fresh driver optimize, timers excepted) and returns true.
  virtual bool try_get_plan(const std::vector<i64>& bank, Scheme scheme,
                            const MrpOptions& options, SynthPlan& out) = 0;

  /// Offers a freshly computed plan for reuse (the cache stores the
  /// canonical form; `plan` is not modified). Re-offering a plan already
  /// cached under the same key is a no-op, so the flow layer and
  /// mrp_optimize's internal memoization can both publish one solve.
  virtual void put_plan(const std::vector<i64>& bank, Scheme scheme,
                        const MrpOptions& options, const SynthPlan& plan) = 0;

  /// Canonical solve key of (bank, scheme, options): equal keys ⇔ the
  /// solves can share one cache entry. The batch runners group jobs by
  /// this key so equivalent banks dedup to one live solve per batch.
  virtual u64 plan_key(const std::vector<i64>& bank, Scheme scheme,
                       const MrpOptions& options) const = 0;

  /// MrpResult-level convenience used by mrp_optimize's internal
  /// memoization (including recursive SEED solves). Wraps the plan-level
  /// interface: the scheme is derived from options.cse_on_seed and the
  /// MrpResult travels inside a SynthPlan (see core/synth_plan.cpp).
  bool try_get(const std::vector<i64>& bank, const MrpOptions& options,
               MrpResult& out);
  void put(const std::vector<i64>& bank, const MrpOptions& options,
           const MrpResult& result);
  u64 solve_key(const std::vector<i64>& bank, const MrpOptions& options) const;
};

/// Runs MRP stage A + tree construction over a constant bank (typically
/// the folded coefficient half of a symmetric filter). Deterministic.
MrpResult mrp_optimize(const std::vector<i64>& constants,
                       const MrpOptions& options = {});

/// One independent solve in a batch: a constant bank with its options.
struct MrpBatchJob {
  std::vector<i64> bank;
  MrpOptions options;
};

/// Fans independent solves out across a thread pool (thread count from
/// MRPF_THREADS, see common/parallel.hpp; options.pool is reused as the
/// fan-out pool when non-null). Every result slot is written only by the
/// worker that claimed it, so results[i] is bit-identical to a serial
/// mrp_optimize(banks[i], options) regardless of thread count. With
/// options.cache set, jobs sharing a solve fingerprint are grouped onto
/// one worker, so each equivalence class is solved live at most once per
/// batch — the rest rehydrate from the cache, which preserves the
/// bit-identity guarantee because cached == fresh.
std::vector<MrpResult> mrp_optimize_batch(
    const std::vector<std::vector<i64>>& banks,
    const MrpOptions& options = {});

/// Per-job options variant (e.g. β sweeps, mixed schemes).
std::vector<MrpResult> mrp_optimize_batch(const std::vector<MrpBatchJob>& jobs);

}  // namespace mrpf::core
