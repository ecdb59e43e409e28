// Differential-coefficient MST transform — the paper's direct predecessor
// (Muhammad & Roy [5], without shift-inclusion or color sharing).
//
// Vertices are the unique tap constants; the undirected complete graph is
// weighted by nonzero_digits(c_j − c_i), and a minimum spanning forest
// picks which coefficient each coefficient is derived from. Every tree
// edge costs nonzero_digits(diff) adders (diff multiplier + one overhead
// add); each root pays its own direct multiplier. MRP improves on this by
// (a) including free shifts in the differences and (b) sharing difference
// values across edges via the color set cover.
#pragma once

#include <vector>

#include "mrpf/arch/tdf.hpp"
#include "mrpf/number/repr.hpp"

namespace mrpf::baseline {

struct DiffMstResult {
  std::vector<i64> uniques;            // vertex values (deduped constants)
  std::vector<int> parent;             // per vertex: parent vertex or -1
  std::vector<int> roots;              // root vertex indices
  int adders = 0;                      // total multiplier-block adders
  int tree_height = 0;
};

/// Runs the transform over the constant bank (zeros skipped, duplicates
/// merged) and reports the analytic adder cost. Throws mrpf::Error on a
/// constant wider than 61 bits, the CSD conversion's range.
DiffMstResult diff_mst_optimize(const std::vector<i64>& constants,
                                number::NumberRep rep);

/// Builds the corresponding multiplier block (verified before return).
arch::MultiplierBlock build_diff_mst_block(
    const std::vector<i64>& constants, number::NumberRep rep);

}  // namespace mrpf::baseline
