// RAG-n-style multiple-constant-multiplication heuristic (after Dempster &
// Macleod): an aggressive graph-based MCM baseline beyond plain CSE.
//
// Phase 1 (optimal steps): while any remaining target is reachable from
// the current fundamental set with a single adder (t = ±(u<<i) ± (v<<j)),
// realize it. Phase 2 (heuristic step): when no target is one adder away,
// synthesize the cheapest remaining target through its CSD digits on top
// of the shared graph, adding its partial sums to the fundamental set,
// then return to phase 1. MRP differs by *reordering* computations through
// SIDC colors instead of growing a fundamental set.
//
// The one-adder test takes the first hit of a fixed scan: every available
// fundamental u in the order it became available, each wiring shift k,
// then t − (u << k) before t + (u << k). A target that missed is retried
// only once the set has grown, and the retry scans only pairs that
// involve a value added since the miss: with u among the old values it
// enumerates ±v·2^m over each new value v and solves for u << k, then it
// scans the new values as u. Every pair of old values missed before, so
// the least hit among those pairs is the full scan's first hit, and the
// graph is the one the full rescan builds.
#pragma once

#include <vector>

#include "mrpf/arch/tdf.hpp"
#include "mrpf/number/repr.hpp"

namespace mrpf::baseline {

struct RagnResult {
  arch::MultiplierBlock block;  // verified; graph adders == the cost
  int adders = 0;
  int optimal_steps = 0;   // targets realized with exactly one adder
  int heuristic_steps = 0; // targets that needed a CSD fallback
};

/// Runs the heuristic over the constant bank. `max_shift` bounds the
/// wiring shifts explored in the one-adder test (default: derived from
/// the widest constant). Throws mrpf::Error on a constant wider than 61
/// bits, the CSD conversion's range.
RagnResult ragn_optimize(const std::vector<i64>& constants,
                         number::NumberRep rep = number::NumberRep::kCsd,
                         int max_shift = -1);

}  // namespace mrpf::baseline
