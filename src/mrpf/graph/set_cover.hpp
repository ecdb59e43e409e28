// Greedy weighted minimum set cover.
//
// The core of MRP stage A: covering the coefficient vertices with color
// classes is an instance of weighted minimum set cover (NP-complete), and
// the paper solves it greedily with the benefit function
// f = β·frequency − (1−β)·cost. This module implements the generic greedy
// loop with a pluggable benefit so the classic frequency/cost rule is also
// available (used by tests as a cross-check and by ablations).
//
// Two implementations of the identical selection rule:
//   * greedy_weighted_set_cover — lazy-decrement priority-queue greedy:
//     per-element membership lists keep every set's live frequency exact,
//     and stale heap entries (pushed under a higher frequency) are
//     re-keyed on pop instead of rescanning all sets every round.
//     O(Σ|sets| · log m) overall instead of O(rounds · Σ|sets|).
//   * greedy_weighted_set_cover_reference — the original full-rescan loop,
//     kept for differential testing and as the perf baseline.
#pragma once

#include <functional>
#include <vector>

#include "mrpf/common/bits.hpp"

namespace mrpf {
class ThreadPool;
}

namespace mrpf::graph {

struct CoverSet {
  std::vector<int> elements;  // element ids in [0, num_elements)
  double cost = 0.0;
  /// Final tie-break key: after benefit and cost, the set with the
  /// *smaller* tie_key wins (DESIGN.md: "ties: lower cost, then smaller
  /// value" — MRP passes the color value). Sets still tied on tie_key
  /// fall back to the lower set index.
  i64 tie_key = 0;
};

/// Non-owning variant of CoverSet: the element list is a borrowed slice.
/// MRP builds its cover sets directly over the cover instance's
/// contiguous class_coverable pool, so thousands of sets cost zero
/// allocations instead of one vector copy each.
struct CoverSetView {
  const int* elements = nullptr;  // borrowed; must outlive the call
  int size = 0;
  double cost = 0.0;
  i64 tie_key = 0;
};

/// benefit(live_frequency, cost) — live_frequency counts only elements not
/// yet covered. Larger is better; sets with live_frequency == 0 are never
/// selected. The lazy implementation additionally requires benefit to be
/// non-decreasing in live_frequency for fixed cost (true of both rules
/// below); use the reference implementation for exotic non-monotone rules.
using BenefitFn = std::function<double(int live_frequency, double cost)>;

/// The paper's rule: f = beta·frequency − (1−beta)·cost, 0 ≤ beta ≤ 1.
BenefitFn paper_benefit(double beta);

/// Classic greedy WSC rule: frequency / max(cost, epsilon).
BenefitFn ratio_benefit();

struct SetCoverResult {
  std::vector<int> chosen;         // indices of selected sets, pick order
  std::vector<int> covered_by;     // per element: chosen set, or -1
  bool complete = false;           // all elements covered?
  double total_cost = 0.0;
};

/// Greedy selection loop (lazy-decrement priority-queue implementation).
/// Ties on benefit are broken toward lower cost, then smaller tie_key,
/// then lower set index (deterministic). Elements that belong to no set
/// stay uncovered and make `complete` false. Returns the identical chosen
/// sequence as the reference implementation for any benefit function that
/// is non-decreasing in live_frequency. A benefit that returns a
/// non-finite value (NaN would silently break the heap's strict weak
/// ordering) throws mrpf::Error at scoring time instead.
///
/// With a non-null `pool`, the seeding pass — scoring benefit(freq, cost)
/// for every set, the dominant cost on large instances — fans out over set
/// blocks and the heap is built in one bulk heapify; the selection
/// sequence is identical for every pool size. `benefit` must then be safe
/// to invoke concurrently (both built-in rules are pure).
SetCoverResult greedy_weighted_set_cover(int num_elements,
                                         const std::vector<CoverSet>& sets,
                                         const BenefitFn& benefit,
                                         ThreadPool* pool = nullptr);

/// Same algorithm over borrowed element slices (the allocation-free form
/// used by the MRP hot path). Chosen sequence is identical to the owning
/// overload on the equivalent input.
SetCoverResult greedy_weighted_set_cover(
    int num_elements, const std::vector<CoverSetView>& sets,
    const BenefitFn& benefit, ThreadPool* pool = nullptr);

/// Original O(rounds · Σ|sets|) rescan loop, same selection rule.
SetCoverResult greedy_weighted_set_cover_reference(
    int num_elements, const std::vector<CoverSet>& sets,
    const BenefitFn& benefit);

}  // namespace mrpf::graph
