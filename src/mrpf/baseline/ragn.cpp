#include "mrpf/baseline/ragn.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>

#include "mrpf/arch/synth.hpp"
#include "mrpf/common/error.hpp"

namespace mrpf::baseline {

namespace {

// Range argument for every sum below. Constants fit 61 bits (checked at
// entry), so a target t is below 2^61. Available values are odd parts of
// graph fundamentals, below 2^62 (AdderGraph's range check). A shifted
// operand s = u << k is tried only up to kMaxShifted = 2^40, and the last
// one formed, the one that stops a shift loop, is at most 2^41. So t ± s,
// max + t and every ±v·2^m the retry forms (at most 2·(t + 2^40)) stay
// below 2^63.
constexpr int kMaxBits = 61;
constexpr i64 kMaxShifted = i64{1} << 40;

/// The fundamental set: the odd part of every graph node, in the order
/// each became available (a value may repeat), with each value's first
/// position and the largest value.
struct Available {
  std::vector<i64> values{1};
  std::unordered_map<i64, int> first{{1, 0}};
  i64 max = 1;

  void add(i64 v) {
    first.emplace(v, size());
    values.push_back(v);
    max = std::max(max, v);
  }
  int size() const { return static_cast<int>(values.size()); }
  /// First position of `v`, or `size()` when it is not available.
  int index_of(i64 v) const {
    if (v > max) return size();
    const auto it = first.find(v);
    return it == first.end() ? size() : it->second;
  }
  bool contains(i64 v) const { return index_of(v) < size(); }
};

/// One one-adder realization of a target t from u = available[index]:
/// probe 0 is t = (u << shift) + w, probe 1 is t = w − (u << shift), with
/// w's odd part available. Scan order is (index, shift, probe).
struct Hit {
  int index = 0;
  int shift = 0;
  int probe = 0;
  bool operator<(const Hit& o) const {
    return std::tie(index, shift, probe) < std::tie(o.index, o.shift, o.probe);
  }
};

/// The first hit of the scan over every available u, shift k ≤ max_shift
/// (while u << k ≤ kMaxShifted) and probe, for a target (odd, positive)
/// that last missed against available[0, missed).
///
/// A miss against [0, missed) means no u there hit with any w then
/// available, so a hit with u below `missed` needs w = ±v·2^m for a value
/// v added since. Those are enumerated from v's side: each fixes s = t − w
/// (probe 0) or s = w − t (probe 1), and s names u = odd(s) and k = tz(s).
/// The least such hit is the scan's first. Only when there is none does
/// the scan continue from u = available[missed]. A third probe, w = s − t,
/// would have the first's odd part, so it could never hit where the first
/// missed; it is not tried.
std::optional<Hit> find_one_adder(const Available& available, i64 t,
                                  int missed, int max_shift) {
  std::optional<Hit> best;
  const auto consider = [&](i64 s, int probe) {
    if (s <= 0 || s > kMaxShifted) return;
    const int k = trailing_zeros(s);
    if (k > max_shift) return;
    const int index = available.index_of(s >> k);
    if (index >= missed) return;
    const Hit hit{index, k, probe};
    if (!best || hit < *best) best = hit;
  };
  if (missed > 0) {
    for (int j = missed; j < available.size(); ++j) {
      const i64 v = available.values[static_cast<std::size_t>(j)];
      if (available.index_of(v) < missed) continue;  // available at the miss
      for (i64 m = v; m <= t + kMaxShifted; m <<= 1) {
        // For m > v, s is odd, so u = s: past max + t no u is available.
        if (m > v && m > available.max + t) break;
        consider(t + m, 0);  // w = −m
        consider(t - m, 0);  // w = m below t
        consider(m - t, 1);  // w = m above t
      }
    }
    if (best) return best;
  }

  for (int i = missed; i < available.size(); ++i) {
    const i64 u = available.values[static_cast<std::size_t>(i)];
    for (int k = 0; k <= max_shift; ++k) {
      const i64 s = u << k;
      if (s > kMaxShifted) break;
      // For k ≥ 1 both t ± s are odd; past max + t both exceed every
      // available value, and a larger k only widens them.
      if (k >= 1 && s > available.max + t) break;
      if (s != t && available.contains(odd_part(t - s))) return Hit{i, k, 0};
      if (available.contains(odd_part(t + s))) return Hit{i, k, 1};
    }
  }
  return std::nullopt;
}

/// Adds the hit's adder for `target` to the graph.
void realize(arch::AdderGraph& graph, const Available& available,
             const Hit& hit, i64 target) {
  const i64 shifted = available.values[static_cast<std::size_t>(hit.index)]
                      << hit.shift;
  const auto ut = graph.resolve(shifted);
  MRPF_CHECK(ut.has_value(), "ragn: available value not in graph");
  const i64 w = hit.probe == 0 ? target - shifted : target + shifted;
  const auto wt = graph.resolve(w);
  MRPF_CHECK(wt.has_value(), "ragn: one-adder operand not in graph");
  // target = shifted + w  |  target = w − shifted
  const arch::Tap tap =
      hit.probe == 0 ? arch::add_taps(graph, *ut, 0, false, *wt, 0, false)
                     : arch::add_taps(graph, *wt, 0, false, *ut, 0, true);
  MRPF_CHECK(tap.constant == target, "ragn: one-adder step mismatch");
}

/// A target still to realize, and the size of the available set when its
/// one-adder test last missed (0: not tried yet).
struct Pending {
  i64 value = 0;
  int missed = 0;
};

}  // namespace

RagnResult ragn_optimize(const std::vector<i64>& constants,
                         number::NumberRep rep, int max_shift) {
  for (const i64 c : constants) {
    MRPF_CHECK(bit_width_abs(c) <= kMaxBits,
               "ragn: constant exceeds 61 bits");
  }
  RagnResult result;
  result.block.constants = constants;
  arch::AdderGraph& graph = result.block.graph;

  // Odd-positive targets, cheapest (fewest digits) first for determinism.
  std::set<i64> target_set;
  int width = 8;
  for (const i64 c : constants) {
    width = std::max(width, bit_width_abs(c));
    const i64 p = odd_part(c);
    if (p > 1) target_set.insert(p);
  }
  if (max_shift < 0) max_shift = std::min(width + 1, 24);
  std::vector<Pending> targets;
  for (const i64 t : target_set) targets.push_back({t, 0});
  std::stable_sort(targets.begin(), targets.end(),
                   [rep](const Pending& a, const Pending& b) {
                     return number::nonzero_digits(a.value, rep) <
                            number::nonzero_digits(b.value, rep);
                   });

  Available available;
  while (!targets.empty()) {
    // Phase 1: pull in every target reachable with one adder, repeatedly.
    // A target is retried only once the available set has grown.
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (auto it = targets.begin(); it != targets.end();) {
        if (it->missed == available.size()) {
          ++it;
          continue;
        }
        const std::optional<Hit> hit =
            find_one_adder(available, it->value, it->missed, max_shift);
        if (!hit.has_value()) {
          it->missed = available.size();
          ++it;
          continue;
        }
        realize(graph, available, *hit, it->value);
        ++result.optimal_steps;
        available.add(it->value);
        it = targets.erase(it);
        progressed = true;
      }
    }
    if (targets.empty()) break;
    // Phase 2: CSD fallback on the cheapest remaining target; its partial
    // sums enter the graph (and therefore the available set).
    const i64 t = targets.front().value;
    targets.erase(targets.begin());
    const int first_new = graph.num_nodes();
    arch::synthesize_constant(graph, t, rep);
    ++result.heuristic_steps;
    available.add(t);
    // Newly created partial sums become fundamentals too.
    for (int node = first_new; node < graph.num_nodes(); ++node) {
      const i64 f = odd_part(graph.fundamental(node));
      if (!available.contains(f)) available.add(f);
    }
  }

  for (const i64 c : constants) {
    const auto tap = graph.resolve(c);
    MRPF_CHECK(tap.has_value(), "ragn: constant left unrealized");
    arch::Tap fixed = *tap;
    fixed.constant = c;
    result.block.taps.push_back(fixed);
  }
  result.adders = graph.num_adders();
  result.block.verify({1, -1, 5, 301, -999});
  return result;
}

}  // namespace mrpf::baseline
