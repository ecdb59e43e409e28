#include "mrpf/core/color_graph.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <utility>

#include "mrpf/common/error.hpp"
#include "mrpf/core/sidc.hpp"

namespace mrpf::core {

namespace {

/// 2·(l_max+1)·n·(n−1): the SIDC edge count (paper §3.1). prepare()
/// checks that it fits an int.
std::size_t edge_count(int n, int l_max) {
  return n < 2 ? 0
               : 2 * static_cast<std::size_t>(l_max + 1) *
                     static_cast<std::size_t>(n) *
                     static_cast<std::size_t>(n - 1);
}

/// Shared validation + l_max resolution for every builder. Returns l_max.
int prepare(const std::vector<i64>& primaries,
            const ColorGraphOptions& options) {
  const int n = static_cast<int>(primaries.size());
  for (int v = 0; v < n; ++v) {
    MRPF_CHECK(primaries[static_cast<std::size_t>(v)] > 0 &&
                   primaries[static_cast<std::size_t>(v)] % 2 == 1,
               "color graph: vertices must be positive odd primaries");
    MRPF_CHECK(v == 0 || primaries[static_cast<std::size_t>(v)] >
                             primaries[static_cast<std::size_t>(v) - 1],
               "color graph: vertices must be sorted and unique");
  }

  int l_max = options.l_max;
  if (l_max < 0) {
    l_max = 1;
    for (const i64 p : primaries) l_max = std::max(l_max, bit_width_abs(p));
    l_max = std::min(l_max, 24);
  }
  MRPF_CHECK(l_max >= 0 && l_max <= 40, "color graph: l_max out of range");
  // `ci << l` must stay inside i64 (and ξ = cj ± ci·2^l inside 2^63).
  for (const i64 p : primaries) {
    MRPF_CHECK(bit_width_abs(p) + l_max < 63,
               "color graph: primary << l_max would overflow i64");
  }
  // Edge ids are ints: check the count before anything is sized by it.
  const u64 pairs = static_cast<u64>(n) * static_cast<u64>(n > 0 ? n - 1 : 0);
  MRPF_CHECK(pairs <= static_cast<u64>(std::numeric_limits<int>::max()) /
                          (2 * static_cast<u64>(l_max + 1)),
             "color graph: too many SIDC edges for an int edge id");
  return l_max;
}

SidcEdge make_edge(int i, int j, int l, bool pred_negate, i64 xi) {
  const ShiftSign d = decompose(xi);
  SidcEdge e;
  e.from = i;
  e.to = j;
  e.l = l;
  e.pred_negate = pred_negate;
  e.xi = xi;
  e.color = d.primary;
  e.color_shift = d.shift;
  e.color_negate = d.negate;
  return e;
}

/// Visits every SIDC edge in canonical order — i, then j ≠ i, then L, then
/// σ (+ before −) — as fn(i, j, l, pred_negate, xi). An edge's position in
/// this order is its id (sidc_edge inverts it).
template <typename Fn>
void for_each_edge(const std::vector<i64>& primaries, int l_max, Fn&& fn) {
  const int n = static_cast<int>(primaries.size());
  for (int i = 0; i < n; ++i) {
    const i64 ci = primaries[static_cast<std::size_t>(i)];
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const i64 cj = primaries[static_cast<std::size_t>(j)];
      for (int l = 0; l <= l_max; ++l) {
        const i64 shifted = ci << l;
        for (const bool pred_negate : {false, true}) {
          const i64 xi = cj - (pred_negate ? -shifted : shifted);
          // ξ == 0 would mean cj is a shift of ci — impossible between
          // distinct primaries — so every edge carries a real color.
          MRPF_CHECK(xi != 0, "color graph: zero differential");
          fn(i, j, l, pred_negate, xi);
        }
      }
    }
  }
}

/// One SIDC edge as the grouping sees it.
struct KeyedEdge {
  i64 color = 0;
  int edge = 0;  // canonical enumeration index
  int to = 0;    // target vertex
};

/// Steps 1–2 of stage A: enumerate only each edge's color (and target),
/// then group the edges by color with a stable LSD radix sort, so equal
/// colors keep enumeration order. Every color is odd, so bit 0 never
/// orders two of them and the digits start at bit 1.
std::vector<KeyedEdge> edges_by_color(const std::vector<i64>& primaries,
                                      int l_max) {
  std::vector<KeyedEdge> keyed;
  keyed.reserve(edge_count(static_cast<int>(primaries.size()), l_max));
  u64 color_bits = 0;
  for_each_edge(primaries, l_max, [&](int, int j, int, bool, i64 xi) {
    const i64 color = odd_part(xi);
    color_bits |= static_cast<u64>(color);
    keyed.push_back({color, static_cast<int>(keyed.size()), j});
  });

  // One histogram pass counts every digit; each scatter pass then places
  // the edges by one digit, lowest first.
  constexpr int kDigitBits = 11;
  constexpr u64 kDigitMask = (u64{1} << kDigitBits) - 1;
  constexpr std::size_t kBuckets = kDigitMask + 1;
  const int key_bits =
      std::max(0, static_cast<int>(std::bit_width(color_bits)) - 1);
  const int digits = (key_bits + kDigitBits - 1) / kDigitBits;
  std::vector<std::size_t> slots(static_cast<std::size_t>(digits) * kBuckets);
  for (const KeyedEdge& e : keyed) {
    u64 key = static_cast<u64>(e.color) >> 1;
    for (int d = 0; d < digits; ++d, key >>= kDigitBits) {
      ++slots[static_cast<std::size_t>(d) * kBuckets + (key & kDigitMask)];
    }
  }
  std::vector<KeyedEdge> scratch(keyed.size());
  for (int d = 0; d < digits; ++d) {
    const int shift = 1 + d * kDigitBits;
    const auto digit = [shift](const KeyedEdge& e) {
      return static_cast<std::size_t>((static_cast<u64>(e.color) >> shift) &
                                      kDigitMask);
    };
    std::size_t* slot = slots.data() + static_cast<std::size_t>(d) * kBuckets;
    // A digit every color shares cannot reorder anything.
    if (slot[digit(keyed.front())] == keyed.size()) continue;
    std::size_t next = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      next += std::exchange(slot[b], next);
    }
    for (const KeyedEdge& e : keyed) scratch[slot[digit(e)]++] = e;
    keyed.swap(scratch);
  }
  return keyed;
}

/// End of the run of equal colors that starts at keyed[lo].
std::size_t run_end(const std::vector<KeyedEdge>& keyed, std::size_t lo) {
  std::size_t hi = lo + 1;
  while (hi < keyed.size() && keyed[hi].color == keyed[lo].color) ++hi;
  return hi;
}

/// Appends the class of run keyed[lo, hi) to the pools: its edge ids in
/// enumeration order and its distinct targets, sorted.
ColorClass append_class(const std::vector<KeyedEdge>& keyed, std::size_t lo,
                        std::size_t hi, int cost, std::vector<int>& edges,
                        std::vector<int>& coverable) {
  ColorClass cls;
  cls.color = keyed[lo].color;
  cls.cost = cost;
  cls.edges_begin = static_cast<int>(edges.size());
  cls.cov_begin = static_cast<int>(coverable.size());
  for (std::size_t k = lo; k < hi; ++k) {
    edges.push_back(keyed[k].edge);
    coverable.push_back(keyed[k].to);
  }
  const auto first = coverable.begin() + cls.cov_begin;
  std::sort(first, coverable.end());
  coverable.erase(std::unique(first, coverable.end()), coverable.end());
  cls.edges_end = static_cast<int>(edges.size());
  cls.cov_end = static_cast<int>(coverable.size());
  return cls;
}

}  // namespace

ColorGraph build_color_graph(const std::vector<i64>& primaries,
                             const ColorGraphOptions& options) {
  ColorGraph g;
  g.vertices = primaries;
  g.l_max = prepare(primaries, options);
  g.edges.reserve(edge_count(static_cast<int>(primaries.size()), g.l_max));
  for_each_edge(primaries, g.l_max,
                [&g](int i, int j, int l, bool pred_negate, i64 xi) {
                  g.edges.push_back(make_edge(i, j, l, pred_negate, xi));
                });
  const std::vector<KeyedEdge> keyed = edges_by_color(primaries, g.l_max);
  g.class_edges.reserve(keyed.size());
  for (std::size_t lo = 0; lo < keyed.size();) {
    const std::size_t hi = run_end(keyed, lo);
    g.classes.push_back(append_class(
        keyed, lo, hi, number::nonzero_digits(keyed[lo].color, options.rep),
        g.class_edges, g.class_coverable));
    lo = hi;
  }
  return g;
}

CoverInstance build_cover_instance(const std::vector<i64>& primaries,
                                   const ColorGraphOptions& options) {
  CoverInstance inst;
  inst.l_max = prepare(primaries, options);
  const std::vector<KeyedEdge> keyed = edges_by_color(primaries, inst.l_max);
  inst.num_edges = keyed.size();

  // Step 3: classes reaching two or more targets are kept; of the classes
  // whose edges all reach one target, each target keeps only its cheapest
  // as the run [lo, hi). Colors ascend, so the strict `<` keeps the
  // smallest color among equally cheap ones. Every class is priced, even
  // the dropped ones: pricing is where an over-wide color throws.
  struct OneTarget {
    int cost = std::numeric_limits<int>::max();
    std::size_t lo = 0;
    std::size_t hi = 0;
  };
  std::vector<OneTarget> best(primaries.size());
  for (std::size_t lo = 0; lo < keyed.size();) {
    const std::size_t hi = run_end(keyed, lo);
    const int cost = number::nonzero_digits(keyed[lo].color, options.rep);
    const int to = keyed[lo].to;
    const bool one_target =
        std::all_of(keyed.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                    keyed.begin() + static_cast<std::ptrdiff_t>(hi),
                    [to](const KeyedEdge& e) { return e.to == to; });
    if (!one_target) {
      inst.classes.push_back(append_class(keyed, lo, hi, cost,
                                          inst.class_edges,
                                          inst.class_coverable));
    } else if (cost < best[static_cast<std::size_t>(to)].cost) {
      best[static_cast<std::size_t>(to)] = {cost, lo, hi};
    }
    lo = hi;
  }

  // Step 4: the candidates in color order — the multi-target classes
  // merged with at most one one-target class per target.
  const auto multi_end = static_cast<std::ptrdiff_t>(inst.classes.size());
  for (const OneTarget& b : best) {
    if (b.hi == 0) continue;  // target reached by no one-target class
    inst.classes.push_back(append_class(keyed, b.lo, b.hi, b.cost,
                                        inst.class_edges,
                                        inst.class_coverable));
  }
  const auto by_color = [](const ColorClass& a, const ColorClass& b) {
    return a.color < b.color;
  };
  std::sort(inst.classes.begin() + multi_end, inst.classes.end(), by_color);
  std::inplace_merge(inst.classes.begin(), inst.classes.begin() + multi_end,
                     inst.classes.end(), by_color);
  return inst;
}

SidcEdge sidc_edge(const std::vector<i64>& primaries, int l_max, int index) {
  const int n = static_cast<int>(primaries.size());
  MRPF_CHECK(l_max >= 0 && index >= 0 &&
                 static_cast<std::size_t>(index) < edge_count(n, l_max),
             "sidc_edge: edge index out of range");
  const int per_pair = 2 * (l_max + 1);
  const int pair = index / per_pair;
  const int i = pair / (n - 1);
  const int j_skip = pair % (n - 1);  // j counted with i left out
  const int j = j_skip < i ? j_skip : j_skip + 1;
  const int l = index % per_pair / 2;
  const bool pred_negate = index % 2 == 1;
  const i64 shifted = primaries[static_cast<std::size_t>(i)] << l;
  return make_edge(i, j, l, pred_negate,
                   primaries[static_cast<std::size_t>(j)] -
                       (pred_negate ? -shifted : shifted));
}

ColorGraph build_color_graph_reference(const std::vector<i64>& primaries,
                                       const ColorGraphOptions& options) {
  ColorGraph g;
  g.vertices = primaries;
  const int n = static_cast<int>(primaries.size());
  const int l_max = prepare(primaries, options);
  g.l_max = l_max;

  // Enumerate the 2·(l_max+1)·n·(n−1) SIDC edges, grouping by color in a
  // std::map with a dynamically grown edge list per class — the seed
  // scheme, one tree node plus vector per color.
  std::map<i64, std::vector<int>> grouped;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const i64 ci = primaries[static_cast<std::size_t>(i)];
      const i64 cj = primaries[static_cast<std::size_t>(j)];
      for (int l = 0; l <= l_max; ++l) {
        const i64 shifted = ci << l;
        for (const bool pred_negate : {false, true}) {
          const i64 xi = cj - (pred_negate ? -shifted : shifted);
          MRPF_CHECK(xi != 0, "color graph: zero differential");
          const SidcEdge e = make_edge(i, j, l, pred_negate, xi);
          grouped[e.color].push_back(static_cast<int>(g.edges.size()));
          g.edges.push_back(e);
        }
      }
    }
  }

  // Flatten into the slice layout (map iteration is already color-sorted).
  g.classes.reserve(grouped.size());
  for (const auto& [color, edge_ids] : grouped) {
    ColorClass cls;
    cls.color = color;
    cls.cost = number::nonzero_digits(color, options.rep);
    cls.edges_begin = static_cast<int>(g.class_edges.size());
    cls.cov_begin = static_cast<int>(g.class_coverable.size());
    std::vector<int> targets;
    targets.reserve(edge_ids.size());
    for (const int ei : edge_ids) {
      g.class_edges.push_back(ei);
      targets.push_back(g.edges[static_cast<std::size_t>(ei)].to);
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()),
                  targets.end());
    for (const int t : targets) g.class_coverable.push_back(t);
    cls.edges_end = static_cast<int>(g.class_edges.size());
    cls.cov_end = static_cast<int>(g.class_coverable.size());
    g.classes.push_back(cls);
  }
  return g;
}

}  // namespace mrpf::core
