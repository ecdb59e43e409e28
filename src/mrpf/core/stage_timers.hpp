// Per-solve stage observability for the MRP pipeline.
//
// Every mrp_optimize call records wall time and an item count for each
// stage-A phase into the MrpResult it returns, so a perf regression shows
// up *per stage per solve* in bench/perf_mrp_sweep's BENCH_mrp.json
// trajectory instead of being buried in one aggregate number. Collection
// is always on: the cost is a handful of steady_clock reads per solve,
// invisible next to the stages themselves, and the timers never influence
// any algorithmic decision — results stay bit-identical with or without
// readers.
#pragma once

#include <chrono>
#include <cstdint>

namespace mrpf::core {

/// One timed stage: wall nanoseconds plus how many items it processed
/// (edges, classes, roots, … — see the per-stage comments below), so a
/// trajectory diff can tell "stage got slower" from "workload got bigger".
struct StageSample {
  double ns = 0.0;
  std::uint64_t items = 0;
};

/// The per-solve breakdown, in pipeline order. The five stage-A samples
/// are MRP-specific (zero for other schemes); `optimize` and `lowering`
/// are recorded by the flow layer for every scheme, so BENCH_mrp.json and
/// BENCH_schemes.json report the same shape across schemes.
struct StageTimers {
  StageSample primaries;       // items: primary vertices extracted
  StageSample color_graph;     // items: SIDC edges enumerated
  /// items: cover sets scored — the candidate classes the greedy was
  /// given, which in the production engine excludes the one-target
  /// classes that can never be picked (see build_cover_instance)
  StageSample set_cover;
  StageSample tree_growth;     // items: roots selected
  StageSample seed_synthesis;  // items: SEED values costed
  StageSample optimize;        // whole driver optimize; items: bank size
  StageSample lowering;        // plan -> verified block; items: plan ops
  StageSample exec_compile;    // plan -> ExecProgram; items: fused ops kept
  StageSample exec_run;        // compiled execution; items: samples pushed
  StageSample bnb_search;      // kBnb only; items: search steps explored
  /// kBnb provenance: which path produced the plan. items: 0 = the exact
  /// branch-and-bound plan won, 1 = the greedy MRP plan was retained but
  /// proven optimal (the search exhausted every depth below it), 2 = the
  /// greedy plan was retained unproven (budget exhausted / bank skipped).
  /// ns stays 0 — the sample is a tag, not a timer.
  StageSample bnb_fallback;
  StageSample xform_saturate;  // e-graph pass; items: saturation steps spent
  StageSample xform_extract;   // e-graph pass; items: ops in extracted DAG
  /// E-graph pass provenance: which plan survived. items: 0 = the rewritten
  /// plan won (strictly fewer adders), 1 = the driver's plan was kept (no
  /// improvement at a saturation fixpoint — tie or worse), 2 = the driver's
  /// plan was kept with the budget exhausted before a fixpoint, 3 = the
  /// rewritten plan failed re-lowering and was discarded (defensive; never
  /// expected). ns stays 0 — the sample is a tag, not a timer.
  StageSample xform_fallback;
  /// Shared-bank provenance: set by core::SharedBankGroup *after* the
  /// cache/serde path (like `lowering`, it always describes this call, so
  /// it is deliberately not serialized and never fragments cache entries).
  /// items: number of polyphase branches covered by the one union solve
  /// (0 = ordinary per-bank solve); ns: union canonicalization plus
  /// per-branch tap-view mapping time.
  StageSample shared_bank;
  double total_ns = 0.0;       // whole mrp_optimize call
};

/// Sums `from` into `into` sample by sample (ns and items, plus total_ns) —
/// the aggregation the perf benches use to report per-stage totals across a
/// catalog sweep. Every field only grows, so repeated accumulation yields
/// monotone per-stage sums.
inline void accumulate(StageTimers& into, const StageTimers& from) {
  const auto add = [](StageSample& a, const StageSample& b) {
    a.ns += b.ns;
    a.items += b.items;
  };
  add(into.primaries, from.primaries);
  add(into.color_graph, from.color_graph);
  add(into.set_cover, from.set_cover);
  add(into.tree_growth, from.tree_growth);
  add(into.seed_synthesis, from.seed_synthesis);
  add(into.optimize, from.optimize);
  add(into.lowering, from.lowering);
  add(into.exec_compile, from.exec_compile);
  add(into.exec_run, from.exec_run);
  add(into.bnb_search, from.bnb_search);
  add(into.bnb_fallback, from.bnb_fallback);
  add(into.xform_saturate, from.xform_saturate);
  add(into.xform_extract, from.xform_extract);
  add(into.xform_fallback, from.xform_fallback);
  add(into.shared_bank, from.shared_bank);
  into.total_ns += from.total_ns;
}

/// Scoped stage stopwatch: records elapsed ns into `sample` on
/// destruction; the caller fills `items` at its convenience.
class StageStopwatch {
 public:
  explicit StageStopwatch(StageSample& sample)
      : sample_(sample), start_(std::chrono::steady_clock::now()) {}
  ~StageStopwatch() {
    sample_.ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }
  StageStopwatch(const StageStopwatch&) = delete;
  StageStopwatch& operator=(const StageStopwatch&) = delete;

 private:
  StageSample& sample_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mrpf::core
