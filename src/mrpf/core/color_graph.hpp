// The SIDC color graph (paper §2–3.2).
//
// Vertices are primary coefficients. For every ordered vertex pair (i, j),
// predecessor shift L ∈ [0, l_max] and predecessor sign σ ∈ {+, −} there is
// a directed edge i→j carrying the differential
//     ξ = c_j − σ·(c_i << L)          (so c_j·x = σ·(c_i·x << L) + ξ·x)
// whose *color* is the primary value of ξ. All edges of one color class
// share a single ξ-multiplier (plus free shifts), which is what the
// weighted-minimum-set-cover stage exploits.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mrpf/common/bits.hpp"
#include "mrpf/number/repr.hpp"

namespace mrpf::core {

struct SidcEdge {
  int from = 0;
  int to = 0;
  int l = 0;               // predecessor shift L
  bool pred_negate = false;  // σ == −1
  i64 xi = 0;              // exact differential (never 0)
  i64 color = 0;           // primary of |xi|
  int color_shift = 0;     // xi == ±(color << color_shift)
  bool color_negate = false;
};

/// One color class. Its edge list and coverable-target list are contiguous
/// slices of the owning graph's class_edges / class_coverable pools — with
/// hundreds of thousands of (mostly singleton) classes per graph, per-class
/// vectors were two heap allocations each and dominated construction time.
/// Use edge_ids() / coverable_ids() of the owner to view the slices.
struct ColorClass {
  i64 color = 0;
  int cost = 0;         // nonzero digits of the color under rep
  int edges_begin = 0;  // slice [edges_begin, edges_end) of class_edges
  int edges_end = 0;
  int cov_begin = 0;    // slice [cov_begin, cov_end) of class_coverable
  int cov_end = 0;

  int num_edges() const { return edges_end - edges_begin; }
  int num_coverable() const { return cov_end - cov_begin; }
};

struct ColorGraph {
  std::vector<i64> vertices;       // primary coefficients
  std::vector<SidcEdge> edges;
  std::vector<ColorClass> classes; // sorted by color value
  std::vector<int> class_edges;     // per-class edge ids, enumeration order
  std::vector<int> class_coverable; // per-class distinct targets, sorted
  int l_max = 0;

  /// Indices into `edges` of one class, in enumeration order.
  std::span<const int> edge_ids(const ColorClass& cls) const {
    return {class_edges.data() + cls.edges_begin,
            static_cast<std::size_t>(cls.num_edges())};
  }
  /// Distinct target vertices of one class, sorted ascending.
  std::span<const int> coverable_ids(const ColorClass& cls) const {
    return {class_coverable.data() + cls.cov_begin,
            static_cast<std::size_t>(cls.num_coverable())};
  }
};

struct ColorGraphOptions {
  /// Max predecessor shift; -1 derives it from the widest primary
  /// (the paper's L ≤ W), capped at 24.
  int l_max = -1;
  number::NumberRep rep = number::NumberRep::kSpt;
};

/// The whole color graph: every SIDC edge and every color class with its
/// cost and targets. Edges are enumerated in canonical order (i, then
/// j ≠ i, then L, then σ) and grouped by color with a stable LSD radix
/// sort, so each class lists its edges in enumeration order. The solver
/// does not build it (see build_cover_instance); it serves inspection —
/// the worked example, perfbench and the tests. Field-for-field
/// identical to build_color_graph_reference.
ColorGraph build_color_graph(const std::vector<i64>& primaries,
                             const ColorGraphOptions& options = {});

/// The seed implementation's std::map-based grouping (per-color tree node
/// and dynamically grown edge list), kept as the oracle of the
/// differential tests. Output is field-for-field identical to
/// `build_color_graph`.
ColorGraph build_color_graph_reference(const std::vector<i64>& primaries,
                                       const ColorGraphOptions& options = {});

/// Stage A's set-cover instance (paper §3.2–3.3): the color classes the
/// greedy can still pick, in the slice layout of ColorGraph. Edges are
/// identified by their canonical enumeration index; sidc_edge() rebuilds
/// one from its index.
struct CoverInstance {
  std::vector<ColorClass> classes;  // candidate classes, sorted by color
  std::vector<int> class_edges;     // per-candidate edge ids, enumeration order
  std::vector<int> class_coverable; // per-candidate distinct targets, sorted
  std::size_t num_edges = 0;        // SIDC edges enumerated
  int l_max = 0;

  std::span<const int> edge_ids(const ColorClass& cls) const {
    return {class_edges.data() + cls.edges_begin,
            static_cast<std::size_t>(cls.num_edges())};
  }
  std::span<const int> coverable_ids(const ColorClass& cls) const {
    return {class_coverable.data() + cls.cov_begin,
            static_cast<std::size_t>(cls.num_coverable())};
  }
};

/// The production stage-A instance: every class that reaches two or more
/// targets, plus, per target, only its cheapest one-target class (lowest
/// cost, then smallest color). A one-target class has live frequency 1
/// until its target is covered and 0 after, and at equal frequency the
/// greedy ranks by cost, then by color, for every β — so no other
/// one-target class of that target can ever be picked, and dropping them
/// leaves the greedy's pick sequence unchanged. Every class is still
/// priced, so the inputs that throw are exactly those that throw in
/// build_color_graph.
CoverInstance build_cover_instance(const std::vector<i64>& primaries,
                                   const ColorGraphOptions& options = {});

/// SIDC edge `index` of the canonical enumeration over `primaries` with
/// shifts up to `l_max` — the same edge build_color_graph stores at
/// edges[index]. `index` must be below 2·(l_max+1)·M·(M−1).
SidcEdge sidc_edge(const std::vector<i64>& primaries, int l_max, int index);

}  // namespace mrpf::core
