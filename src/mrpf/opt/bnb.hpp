// Exact branch-and-bound adder-graph search for small coefficient banks.
//
// The search runs over odd-normalized fundamentals (shifts and signs are
// free wiring, exactly as in arch/scm_exact): a state is the set of odd
// values already available (starting from {1}), and one search step picks
// any |a ± (b << k)| of two available values, odd-normalizes it, and adds
// it — one physical adder. A bank is solved when every target is
// available. Iterative deepening over the adder count D turns the DFS
// into an optimality proof: the first depth that admits a solution is the
// minimum (every shallower depth was exhausted first), and exhausting
// every D below the greedy upper bound proves the greedy plan optimal.
//
// Pruning, in order of leverage:
//  - depth + |remaining targets| > D: each missing target still needs its
//    own adder (distinct odd fundamentals never coincide).
//  - zero slack: when depth + |remaining| == D every further step must BE
//    a remaining target — intermediate helpers no longer fit.
//  - dominance memo: an available-value SET reached again at the same or
//    a greater depth spans a subset of the subtree already explored.
//
// Like the ScmTable, intermediates are capped at 2^(bmax+2) and wiring
// shifts at bmax+2 (bmax = widest target) — the standard bounds under
// which minimal chains for constants this size are known to be found; the
// result is exact within that canonical search space.
//
// The budget is counted in deterministic search steps, never wall time:
// a node costs one step plus one per candidate it generates (every
// ordered pair, shift and sign whose odd result is new and within the
// cap, duplicates included), so a budget-limited outcome is
// bit-reproducible across machines and thread counts.
#pragma once

#include <vector>

#include "mrpf/common/bits.hpp"

namespace mrpf::opt {

struct BnbOptions {
  /// Total deterministic step budget for the whole solve (all deepening
  /// iterations combined). Must be >= 1; the driver resolves the 0 =
  /// "unset" MrpOptions convention before calling.
  long long step_budget = 1;
  /// Banks with more distinct odd targets than this are skipped outright
  /// (the greedy plan stands, tagged kSkipped) — the search space grows
  /// too fast for a budget to do useful work.
  int max_targets = 10;
  /// Targets wider than this many bits skip likewise. At most 20: the
  /// search keeps bitsets over the odd values up to 2^(max_bits + 2).
  int max_bits = 20;
};

enum class BnbStatus {
  kOptimal,         ///< Found a plan strictly better than the upper bound.
  kProvedExisting,  ///< Exhausted every depth below it: greedy is optimal.
  kBudget,          ///< Step budget hit before a proof either way.
  kSkipped,         ///< Bank outside max_targets/max_bits; never searched.
};

/// One committed search step: value = odd(|a ± (b << shift)|), a and b
/// previously available odd values. Steps are emitted in search order, so
/// replaying them in sequence rebuilds the adder graph (see emit.hpp).
struct BnbStep {
  i64 value = 0;
  i64 a = 0;
  i64 b = 0;
  int shift = 0;
  bool subtract = false;
};

struct BnbOutcome {
  BnbStatus status = BnbStatus::kSkipped;
  /// Adders of the returned plan: steps.size() on kOptimal, the caller's
  /// upper bound otherwise.
  int adders = 0;
  /// Best proven lower bound on the optimum (== adders when the status
  /// carries a proof; the optimality gap is adders - lower_bound).
  int lower_bound = 0;
  /// Deterministic steps spent across every deepening iteration.
  long long steps_explored = 0;
  /// The optimal chain, kOptimal only (empty otherwise).
  std::vector<BnbStep> steps;
};

/// Searches for an adder chain covering every target with fewer than
/// `upper_bound` adders. `targets` must be sorted, unique, odd and > 1
/// (the primary-vertex form, constants 0/±2^k already excluded).
/// Deterministic: the outcome depends only on (targets, upper_bound,
/// options).
BnbOutcome bnb_solve(const std::vector<i64>& targets, int upper_bound,
                     const BnbOptions& options);

}  // namespace mrpf::opt
