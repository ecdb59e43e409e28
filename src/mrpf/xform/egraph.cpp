#include "mrpf/xform/egraph.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "mrpf/common/error.hpp"
#include "mrpf/number/csd.hpp"

namespace mrpf::xform {

namespace {

/// Class-count cap. With the default MRPF_XFORM_BUDGET a graph this size
/// still closes to a fixpoint (ordered pairs × shifts stays under the
/// budget); admission past the cap is refused deterministically, so a
/// capped graph is still bit-reproducible.
constexpr std::size_t kMaxClasses = 160;
/// Constructions kept per class. Extraction only ever needs the tight
/// ones; the cap bounds memory on dense value ranges.
constexpr std::size_t kMaxCons = 24;

/// Everything the graph admits must sit comfortably below the 62-bit
/// fundamental range lower_plan enforces.
constexpr int kHardBitLimit = 61;

/// The class index: 2^11 = 2048 slots, 12x kMaxClasses, so the table is
/// never more than 8% full and a miss usually ends at its first slot.
constexpr int kIndexBits = 11;
constexpr std::size_t kIndexSlots = std::size_t{1} << kIndexBits;
constexpr std::int16_t kEmptySlot = -1;
static_assert(kMaxClasses * 12 <= kIndexSlots &&
              kMaxClasses <= std::numeric_limits<std::int16_t>::max());

/// Multiplicative (Fibonacci) hash: the top kIndexBits bits of
/// value * 2^64/phi, which spread odd values of every width.
std::size_t home_slot(u64 value) {
  return static_cast<std::size_t>((value * 0x9E3779B97F4A7C15ULL) >>
                                  (64 - kIndexBits));
}

/// Tree cost of a class with no construction built from class 0.
constexpr int kInfCost = std::numeric_limits<int>::max() / 4;

/// The first shifted class a round pairs with unshifted class p: every
/// class when p is fresh, else only the fresh ones (from `fresh` on).
std::size_t first_q(std::size_t p, std::size_t fresh) {
  return p >= fresh ? 0 : fresh;
}

/// Whether every step of the CSD chain EGraph::seed_csd_chain builds for
/// `target` fits the admission limits: each partial sum within
/// `bit_limit` bits, each digit's shift of value 1 within the hard limit.
/// A target with headroom below the limit always fits: its digits sit
/// below the limit and each partial sum stays under twice its top digit.
bool csd_chain_fits(u64 target, int bit_limit) {
  const number::SignedDigitVector digits =
      number::to_csd(static_cast<i64>(target));
  i64 partial = 0;
  for (std::size_t k = 0; k < digits.size(); ++k) {
    if (digits[k] == 0) continue;
    partial += digits[k] * (i64{1} << k);
    if (static_cast<int>(k) + 1 > kHardBitLimit ||
        std::bit_width(abs_u64(partial)) > static_cast<unsigned>(bit_limit)) {
      return false;
    }
  }
  return true;
}

/// The shifts k = 1, 2, ... saturation tries for the class pair (p, q):
/// all k with bit_width(q) + k within the hard bit limit and q << k at
/// most 2^bit_limit + p (past that every result it could admit is too
/// wide). Both bounds grow with k, so this is the largest such k, or 0.
int shift_count(u64 p, u64 q, int bit_limit) {
  const u64 reach = (u64{1} << bit_limit) + p;  // < 2^62
  const int q_bits = static_cast<int>(std::bit_width(q));
  int k = static_cast<int>(std::bit_width(reach)) - q_bits;
  if (k >= 0 && (q << k) > reach) --k;  // q << k has bit_width(reach) bits
  return std::max(0, std::min(k, kHardBitLimit - q_bits));
}

}  // namespace

std::size_t EGraph::probe(u64 value) const {
  std::size_t slot = home_slot(value);
  while (index_[slot] != kEmptySlot &&
         values_[static_cast<std::size_t>(index_[slot])] != value) {
    slot = (slot + 1) & (kIndexSlots - 1);
  }
  return slot;
}

int EGraph::find_class(u64 value) const { return index_[probe(value)]; }

int EGraph::add_class(u64 value) {
  // Every admitted value is odd and within the bit limit, so a value
  // failing either test is never indexed.
  if ((value & 1) == 0) return -1;
  if (std::bit_width(value) > static_cast<unsigned>(bit_limit_)) return -1;
  const std::size_t slot = probe(value);
  // A hit returns its class; a miss returns -1 once the cap is full.
  if (index_[slot] != kEmptySlot || values_.size() >= kMaxClasses) {
    return index_[slot];
  }
  return open_class(slot, value);
}

int EGraph::open_class(std::size_t slot, u64 value) {
  const int id = static_cast<int>(values_.size());
  values_.push_back(value);
  cons_.emplace_back();
  index_[slot] = static_cast<std::int16_t>(id);
  return id;
}

void EGraph::add_cons(int cls, const Cons& cons) {
  if (cls <= 0) return;  // class 0 is the input; it needs no construction
  std::vector<Cons>& list = cons_[static_cast<std::size_t>(cls)];
  if (list.size() >= kMaxCons) return;
  for (const Cons& c : list) {
    if (c.p == cons.p && c.q == cons.q && c.shift == cons.shift &&
        c.kind == cons.kind) {
      return;
    }
  }
  list.push_back(cons);
}

/// Normalizes |sp·p + sq·(q << k)| (p, q odd class values, k >= 1) into an
/// odd-form construction and admits it. The unshifted-vs-shifted roles fix
/// the emitted op exactly:
///   both signs equal     ->  v = p + (q<<k)          (kAdd)
///   signs differ, p big  ->  v = p - (q<<k)          (kSubP)
///   signs differ, q big  ->  v = (q<<k) - p          (kSubQ)
void EGraph::admit_combination(int p_cls, bool p_neg, int q_cls, int k,
                               bool q_neg) {
  const u64 p = values_[static_cast<std::size_t>(p_cls)];
  const u64 q = values_[static_cast<std::size_t>(q_cls)];
  if (k < 1 || k >= 62) return;
  if (std::bit_width(q) + k > kHardBitLimit) return;
  const u64 q2 = q << k;
  Cons cons;
  cons.p = p_cls;
  cons.q = q_cls;
  cons.shift = k;
  u64 value = 0;
  if (p_neg == q_neg) {
    value = p + q2;
    cons.kind = Kind::kAdd;
  } else if (p > q2) {
    value = p - q2;
    cons.kind = Kind::kSubP;
  } else if (q2 > p) {
    value = q2 - p;
    cons.kind = Kind::kSubQ;
  } else {
    return;  // exact cancellation
  }
  const int cls = add_class(value);
  if (cls >= 0) add_cons(cls, cons);
}

void EGraph::seed_from_ops(const std::vector<arch::AdderOp>& plan_ops) {
  // Replay the plan's raw fundamentals (they may be negative or even —
  // lower_plan allows both) and register each node's odd part. When the
  // raw op normalizes to a single odd-form construction (exactly one
  // operand exponent is zero after factoring out the common power of two),
  // register that construction too, so proven-useful intermediates enter
  // the graph with a route to build them.
  std::vector<i64> fundamental(plan_ops.size() + 1, 0);
  fundamental[0] = 1;
  for (std::size_t n = 0; n < plan_ops.size(); ++n) {
    const arch::AdderOp& op = plan_ops[n];
    const i64 a = fundamental[static_cast<std::size_t>(op.a)];
    const i64 b = fundamental[static_cast<std::size_t>(op.b)];
    // Verified plans keep every fundamental within 62 bits, so i128
    // arithmetic never wraps here even on hostile inputs.
    const i64 value = static_cast<i64>(
        i128(a) * (i128(1) << op.shift_a) +
        (op.subtract ? -1 : 1) * i128(b) * (i128(1) << op.shift_b));
    fundamental[n + 1] = value;
    if (value == 0) continue;
    add_class(static_cast<u64>(odd_part(value)));

    const int alpha = trailing_zeros(a) + op.shift_a;
    const int beta = trailing_zeros(b) + op.shift_b;
    if (a == 0 || b == 0 || alpha == beta) continue;
    const bool a_neg = a < 0;
    const bool b_neg = (b < 0) != op.subtract;
    const int p_cls = find_class(static_cast<u64>(
        odd_part(alpha < beta ? a : b)));
    const int q_cls = find_class(static_cast<u64>(
        odd_part(alpha < beta ? b : a)));
    if (p_cls < 0 || q_cls < 0) continue;
    const int k = alpha < beta ? beta - alpha : alpha - beta;
    const bool p_neg = alpha < beta ? a_neg : b_neg;
    const bool q_neg = alpha < beta ? b_neg : a_neg;
    admit_combination(p_cls, p_neg, q_cls, k, q_neg);
  }
}

void EGraph::seed_csd_chain(u64 target) {
  // Partial CSD sums of an odd value are all odd (the LSB digit is
  // nonzero), and each step adds one signed power of two to the previous
  // partial — exactly an odd-form op against class 0 (value 1). This gives
  // a target a finite extraction cost no worse than its CSD multiplier,
  // unless the class cap stops the chain or a step leaves the value range.
  if (target <= 1) return;
  const number::SignedDigitVector digits =
      number::to_csd(static_cast<i64>(target));
  i64 partial = 0;
  bool first = true;
  for (std::size_t k = 0; k < digits.size(); ++k) {
    if (digits[k] == 0) continue;
    if (first) {
      partial = digits[k] * (i64{1} << k);
      first = false;
      continue;
    }
    const i64 prev = partial;
    partial += digits[k] * (i64{1} << k);
    const int p_cls = add_class(abs_u64(prev));
    if (p_cls < 0) return;
    admit_combination(p_cls, prev < 0, /*q_cls=*/0, static_cast<int>(k),
                      digits[k] < 0);
  }
}

void EGraph::seed_target_pairs() {
  // The MRPF difference rule: any two odd targets differ (and sum) by an
  // even value, so t2 = t1 + (d << k) and t2 = (s << k') - t1 are both
  // odd-form ops through the difference/sum odd parts. Seed those odd
  // parts (with their own CSD chains, so they are constructible) and the
  // cross-target constructions.
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    for (std::size_t j = i + 1; j < targets_.size(); ++j) {
      const i64 t1 = static_cast<i64>(targets_[i]);
      const i64 t2 = static_cast<i64>(targets_[j]);
      const int c1 = find_class(targets_[i]);
      const int c2 = find_class(targets_[j]);
      if (c1 < 0 || c2 < 0) continue;

      const i64 diff = t2 - t1;  // > 0, even
      const u64 dv = static_cast<u64>(odd_part(diff));
      seed_csd_chain(dv);
      const int dc = add_class(dv);
      if (dc >= 0) {
        const int k = trailing_zeros(diff);
        admit_combination(c1, false, dc, k, false);  // t2 = t1 + (d<<k)
        admit_combination(c2, false, dc, k, true);   // t1 = t2 - (d<<k)
      }

      const i64 sum = t1 + t2;  // even
      const u64 sv = static_cast<u64>(odd_part(sum));
      seed_csd_chain(sv);
      const int sc = add_class(sv);
      if (sc >= 0) {
        const int k = trailing_zeros(sum);
        admit_combination(c1, true, sc, k, false);  // t2 = (s<<k) - t1
        admit_combination(c2, true, sc, k, false);  // t1 = (s<<k) - t2
      }
    }
  }
}

EGraph::EGraph(const std::vector<arch::AdderOp>& plan_ops,
               const std::vector<i64>& targets) {
  int max_bits = 1;
  for (const i64 t : targets) max_bits = std::max(max_bits, bit_width_abs(t));
  // One bit of headroom over the widest target: standard MCM practice —
  // useful intermediates barely exceed the targets, and the tight bound is
  // what lets saturation reach a fixpoint.
  bit_limit_ = std::min(max_bits + 1, kHardBitLimit);

  index_.assign(kIndexSlots, kEmptySlot);
  values_.reserve(kMaxClasses);
  cons_.reserve(kMaxClasses);
  add_class(1);  // class 0: the input x

  for (const i64 t : targets) {
    MRPF_CHECK(t > 0 && (t & 1) == 1, "egraph: targets must be odd positive");
    targets_.push_back(static_cast<u64>(t));
  }
  std::sort(targets_.begin(), targets_.end());
  targets_.erase(std::unique(targets_.begin(), targets_.end()),
                 targets_.end());
  for (const u64 t : targets_) {
    MRPF_CHECK(add_class(t) >= 0, "egraph: target exceeds the value range");
  }

  for (const u64 t : targets_) seed_csd_chain(t);
  seed_from_ops(plan_ops);
  seed_target_pairs();

  // Only a target without headroom below the bit limit, 61 bits at the
  // hard limit, can have a CSD chain that leaves the value range. Unless
  // another seeded route builds such a target, no budget can be relied
  // on to, so it is refused here rather than in extract(). A chain the
  // class cap cuts short is left to saturation, which can still build
  // its target.
  std::vector<int> cost;
  for (const u64 t : targets_) {
    if (std::bit_width(t) < static_cast<unsigned>(bit_limit_) ||
        csd_chain_fits(t, bit_limit_)) {
      continue;
    }
    if (cost.empty()) cost = class_costs();
    MRPF_CHECK(cost[static_cast<std::size_t>(find_class(t))] < kInfCost,
               "egraph: target exceeds the value range");
  }
}

long long EGraph::saturate(long long budget) {
  long long steps = 0;
  saturated_ = false;
  while (true) {
    if (round_end_ == 0) {
      // Open the next round: every ordered (unshifted p, shifted q) pair
      // of the classes so far with at least one member admitted since
      // the previous round. None admitted: the fixpoint.
      if (frontier_start_ >= values_.size()) {
        saturated_ = true;
        break;
      }
      round_end_ = values_.size();
      next_ = {0, first_q(0, frontier_start_), 1};
    }
    if (!continue_round(budget, steps)) break;  // cut; next_ keeps the place
    frontier_start_ = round_end_;
    round_end_ = 0;
  }
  return steps;
}

bool EGraph::continue_round(long long budget, long long& steps) {
  // Pairs in order, shifts ascending, from next_ on. Once the class cap
  // is full, the capped pass finishes the round.
  const std::size_t p0 = next_.p;
  const std::size_t q0 = next_.q;
  const int k0 = next_.k;
  const std::size_t fresh = frontier_start_;
  const std::size_t old_n = round_end_;
  for (std::size_t p = p0; p < old_n; ++p) {
    for (std::size_t q = p == p0 ? q0 : first_q(p, fresh); q < old_n; ++q) {
      const int k_begin = p == p0 && q == q0 ? k0 : 1;
      if (values_.size() == kMaxClasses) {
        next_ = {p, q, k_begin};
        return finish_capped_round(budget, steps);
      }
      const int shifts = shift_count(values_[p], values_[q], bit_limit_);
      for (int k = k_begin; k <= shifts; ++k) {
        if (steps >= budget) {
          next_ = {p, q, k};
          return false;
        }
        ++steps;
        admit_combination(static_cast<int>(p), false, static_cast<int>(q), k,
                          false);  // p + (q<<k)
        admit_combination(static_cast<int>(p), false, static_cast<int>(q), k,
                          true);   // |p - (q<<k)|
      }
    }
  }
  return true;
}

bool EGraph::finish_capped_round(long long budget, long long& steps) {
  // The round's remaining (p, q, k): from next_ on, pairs in round order.
  const std::size_t p0 = next_.p;
  const std::size_t q0 = next_.q;
  const int k0 = next_.k;
  const std::size_t fresh = frontier_start_;
  const std::size_t old_n = round_end_;
  const auto q_start = [p0, q0, fresh](std::size_t p) {
    return p == p0 ? q0 : first_q(p, fresh);
  };

  // Steps, as the loop counts them: each remaining pair's shift count,
  // up to the first pair the budget cuts, which keeps the shifts it can
  // still pay for. A pair with no shifts never cuts, so a round that
  // spends the budget exactly on its last shift ends uncut. The first
  // pair resumes at shift k0 (at most its shift count): counting it from
  // shift 1 with the steps started k0 - 1 lower charges it the same and
  // cuts it at the same shift.
  std::size_t cut_p = old_n;  // the cut pair, or old_n when none
  std::size_t cut_q = 0;
  int cut_k = 0;              // shifts the cut pair keeps
  steps -= k0 - 1;
  for (std::size_t p = p0; p < old_n && cut_p == old_n; ++p) {
    for (std::size_t q = q_start(p); q < old_n; ++q) {
      const int shifts = shift_count(values_[p], values_[q], bit_limit_);
      const long long room = steps < budget ? budget - steps : 0;
      if (shifts > room) {
        cut_p = p;
        cut_q = q;
        cut_k = static_cast<int>(room);
        steps += room;
        break;
      }
      steps += shifts;
    }
  }

  // Constructions. No class can open, so each class's list depends only
  // on the order its constructions arrive in, which is the loop's pair
  // order. Class c gains one from p exactly when |c - p| (c = p + (q<<k)
  // or p - (q<<k)) or c + p (c = (q<<k) - p) is q << k for a class q, so
  // read (q, k) off those two values instead of probing every shift, and
  // keep the ones the loop reaches in this round from next_ up to the cut.
  const std::size_t p_end = std::min(cut_p + 1, old_n);
  for (std::size_t c = 1; c < values_.size(); ++c) {
    const u64 cv = values_[c];
    for (std::size_t p = p0; p < p_end && cons_[c].size() < kMaxCons; ++p) {
      const u64 pv = values_[p];
      const std::size_t q_lo = q_start(p);
      Cons found[2];
      int n_found = 0;
      const auto derive = [&](u64 s, Kind kind) {
        const int k = std::countr_zero(s);
        const int q = find_class(s >> k);
        if (q < 0) return;
        const std::size_t qi = static_cast<std::size_t>(q);
        if (qi < q_lo || qi >= old_n) return;
        if (k > shift_count(pv, values_[qi], bit_limit_)) return;
        found[n_found++] = {static_cast<int>(p), q, k, kind};
      };
      if (cv != pv) derive(cv > pv ? cv - pv : pv - cv,
                           cv > pv ? Kind::kAdd : Kind::kSubP);
      derive(cv + pv, Kind::kSubQ);
      // Rows p0 and cut_p may hold a pair the round enters past its first
      // shift or leaves before its last one.
      if (p == p0 || p == cut_p) {
        n_found = static_cast<int>(
            std::remove_if(found, found + n_found, [&](const Cons& f) {
              const std::size_t q = static_cast<std::size_t>(f.q);
              return (p == p0 && q == q0 && f.shift < k0) ||
                     (p == cut_p &&
                      (q > cut_q || (q == cut_q && f.shift > cut_k)));
            }) -
            found);
      }
      if (n_found == 2 && (found[1].q < found[0].q ||
                           (found[1].q == found[0].q &&
                            found[1].shift < found[0].shift))) {
        std::swap(found[0], found[1]);
      }
      for (int i = 0; i < n_found; ++i) {
        add_cons(static_cast<int>(c), found[i]);
      }
    }
  }
  if (cut_p == old_n) return true;
  next_ = {cut_p, cut_q, cut_k + 1};
  return false;
}

std::vector<int> EGraph::class_costs() const {
  // Exact per-class tree costs (no sharing), as a Bellman fixed point —
  // constructions can reference classes admitted later, so one pass is not
  // enough and relaxation until quiescence is.
  const std::size_t n = values_.size();
  std::vector<int> cost(n, kInfCost);
  cost[0] = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t c = 1; c < n; ++c) {
      for (const Cons& cn : cons_[c]) {
        const int cp = cost[static_cast<std::size_t>(cn.p)];
        const int cq = cost[static_cast<std::size_t>(cn.q)];
        if (cp >= kInfCost || cq >= kInfCost) continue;
        const int t = 1 + cp + cq;
        if (t < cost[c]) {
          cost[c] = t;
          changed = true;
        }
      }
    }
  }
  return cost;
}

Extraction EGraph::extract() const {
  const std::size_t n = values_.size();
  const std::vector<int> cost = class_costs();

  Extraction out;
  std::vector<int> node_of_class(n, -1);
  node_of_class[0] = 0;

  // Memoized greedy emit: already-built classes cost nothing, and only
  // constructions whose operands are strictly cheaper than the class are
  // eligible (every finite class has a tight one), so recursion always
  // descends in cost and terminates. First-index tie-break keeps the
  // extraction deterministic.
  const auto emit = [&](const auto& self, int c) -> int {
    if (node_of_class[static_cast<std::size_t>(c)] >= 0) {
      return node_of_class[static_cast<std::size_t>(c)];
    }
    const std::vector<Cons>& list = cons_[static_cast<std::size_t>(c)];
    int best = -1;
    int best_marginal = kInfCost;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const Cons& cn = list[i];
      const int cp = cost[static_cast<std::size_t>(cn.p)];
      const int cq = cost[static_cast<std::size_t>(cn.q)];
      if (cp >= cost[static_cast<std::size_t>(c)] ||
          cq >= cost[static_cast<std::size_t>(c)]) {
        continue;
      }
      const int marginal =
          (node_of_class[static_cast<std::size_t>(cn.p)] >= 0 ? 0 : cp) +
          (node_of_class[static_cast<std::size_t>(cn.q)] >= 0 ? 0 : cq);
      if (marginal < best_marginal) {
        best_marginal = marginal;
        best = static_cast<int>(i);
      }
    }
    MRPF_CHECK(best >= 0, "egraph: extraction lost a tight construction");
    const Cons& cn = list[static_cast<std::size_t>(best)];
    const int pn = self(self, cn.p);
    const int qn = self(self, cn.q);
    arch::AdderOp op;
    switch (cn.kind) {
      case Kind::kAdd:   // v = p + (q<<k)
        op = {pn, qn, 0, cn.shift, false};
        break;
      case Kind::kSubP:  // v = p - (q<<k)
        op = {pn, qn, 0, cn.shift, true};
        break;
      case Kind::kSubQ:  // v = (q<<k) - p
        op = {qn, pn, cn.shift, 0, true};
        break;
    }
    out.ops.push_back(op);
    const int node = static_cast<int>(out.ops.size());
    node_of_class[static_cast<std::size_t>(c)] = node;
    return node;
  };

  for (const u64 t : targets_) {
    const int c = find_class(t);
    MRPF_CHECK(c >= 0, "egraph: target class vanished");
    MRPF_CHECK(cost[static_cast<std::size_t>(c)] < kInfCost,
               "egraph: target has no finite-cost construction");
    out.node_of[static_cast<i64>(t)] = emit(emit, c);
  }
  return out;
}

}  // namespace mrpf::xform
