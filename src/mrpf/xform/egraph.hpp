// E-graph equality saturation over odd shift-add fundamentals (the first
// plan pass; see core/pass_manager.hpp for how it slots between the
// SchemeDrivers and lower_plan).
//
// Every e-class is one odd positive fundamental value, hash-consed: two
// routes to the same value always land in the same class, which is how
// common subterms merge. A class's e-nodes are its known constructions,
// all of the op-emittable odd form
//     v = p + (q << k)      or      v = |p - (q << k)|,   k >= 1
// with p, q odd classes — exactly the shift-add ops lower_plan can replay
// (k = 0 would make the result even, and ops cannot right-shift, so the
// odd-form restriction loses nothing for odd targets: the CSD chain of any
// odd value is expressible, which seeds a finite extraction cost for every
// target).
//
// The graph is seeded from the original plan (its op fundamentals and
// their odd-form constructions where the raw op normalizes to one), the
// tap targets with their CSD chains (factoring/CSD re-expression), and all
// pairwise target sums/differences (the MRPF difference rule). Saturation
// then applies the two forms, deterministically: rounds combine every
// ordered class pair with at least one member admitted since the previous
// round, shifts ascending, add before subtract, under a step budget —
// identical inputs and budget give an identical graph on every platform
// (no hashing order, no timing, no randomness is observable in the
// result). A new value becomes a class only while the class cap is open.
//
// On real banks the class cap, not closure, bounds the class set: seeding
// usually fills it, and once it is full no class can open, so the rest of
// saturation only adds constructions to existing classes. From the first
// pair a round reaches with the cap full, it finishes in one capped pass:
// the remaining pairs' steps are counted in closed form, and class c's
// constructions are read off its differential coefficients |c - p| and
// c + p, which equal q << k exactly when (p, q, k) builds c. Each class
// receives its constructions in the loop's order, so graphs, step counts
// and extractions are bit-identical to probing every candidate
// (docs/architecture.md §2). The class index is one open-addressed table
// of class ids, so lookup and admission are each one short probe.
//
// Extraction finds the cheapest DAG realizing all targets: a Bellman fixed
// point computes exact per-class tree costs, then a memoized greedy emit
// (targets ascending) reuses already-built classes for free, picking among
// strictly-cost-decreasing constructions so emission always terminates.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mrpf/arch/adder_graph.hpp"
#include "mrpf/common/bits.hpp"

namespace mrpf::xform {

/// A cheapest-DAG extraction: replayable ops (node 0 is the input, node
/// k+1 is ops[k]) plus the node realizing each target's odd value.
struct Extraction {
  std::vector<arch::AdderOp> ops;
  /// target odd value -> graph node carrying it (value 1 -> node 0).
  std::unordered_map<i64, int> node_of;
  int adders() const { return static_cast<int>(ops.size()); }
};

class EGraph {
 public:
  /// `plan_ops` is the original plan's op list (seeds proven-useful
  /// intermediates); `targets` are the odd positive values the taps need
  /// (duplicates fine). Seeding consumes no budget.
  EGraph(const std::vector<arch::AdderOp>& plan_ops,
         const std::vector<i64>& targets);

  /// Runs equality saturation under `budget` steps (one step = one
  /// candidate (p, q, shift) combination). Steps are counted as the loop
  /// counts them; past the class cap, only candidates that can reach a
  /// class are looked up. Returns the steps actually spent. Reaching a
  /// fixpoint before the budget runs out sets saturated().
  long long saturate(long long budget);

  bool saturated() const { return saturated_; }
  std::size_t num_classes() const { return values_.size(); }

  /// Cheapest-DAG extraction for the ctor targets. Deterministic; every
  /// target is realized (the CSD seed chain guarantees a finite cost).
  Extraction extract() const;

 private:
  enum class Kind : std::uint8_t {
    kAdd,   // v = p + (q << k)
    kSubP,  // v = p - (q << k)        (p larger)
    kSubQ,  // v = (q << k) - p        (shifted side larger)
  };
  struct Cons {
    int p = 0;
    int q = 0;
    int shift = 0;
    Kind kind = Kind::kAdd;
  };

  /// The index slot holding `value`, or the empty slot where it would go.
  std::size_t probe(u64 value) const;
  int find_class(u64 value) const;  // -1 when absent
  /// Hash-consed admission: returns the class id of `value`, creating it
  /// when new and admissible (odd, within the bit limit, class cap not
  /// hit); -1 when inadmissible. Until the class cap is full, it and
  /// admit_combination run twice per saturation step, so both are inline
  /// (defined in egraph.cpp, their only caller); opening a class is the
  /// out-of-line half.
  inline int add_class(u64 value);
  /// Appends `value` as a new class whose index slot is `slot`.
  int open_class(std::size_t slot, u64 value);
  /// Adds a construction to `cls` unless it is a duplicate or the
  /// per-class cap is hit.
  void add_cons(int cls, const Cons& cons);
  /// Normalizes |±p ± (q << k)| into odd form and admits the resulting
  /// class and construction.
  inline void admit_combination(int p_cls, bool p_neg, int q_cls, int k,
                                bool q_neg);
  /// Finishes a saturation round, from its pair (p0, q0) on, once the
  /// class cap is full: adds the remaining pairs' steps to `steps` and
  /// their constructions to every class, exactly as the loop would, and
  /// returns whether the budget cut the round.
  bool finish_capped_round(std::size_t p0, std::size_t q0, std::size_t fresh,
                           std::size_t old_n, long long budget,
                           long long& steps);
  void seed_from_ops(const std::vector<arch::AdderOp>& plan_ops);
  void seed_csd_chain(u64 target);
  void seed_target_pairs();

  std::vector<u64> values_;                 // class id -> odd value
  std::vector<std::vector<Cons>> cons_;     // class id -> constructions
  std::vector<std::int16_t> index_;         // open-addressed; slot -> id or -1
  std::vector<u64> targets_;                // sorted, unique, odd
  int bit_limit_ = 0;                       // admission: bits(value) <= this
  std::size_t frontier_start_ = 0;          // first class of the next round
  bool saturated_ = false;
};

}  // namespace mrpf::xform
