#include "mrpf/opt/bnb.hpp"

#include <algorithm>
#include <unordered_map>

#include "mrpf/common/error.hpp"
#include "mrpf/common/hash.hpp"
#include "mrpf/opt/bounds.hpp"

namespace mrpf::opt {

namespace {

/// Dominance-memo size cap: cleared (deterministically) when exceeded so
/// a pathological bank cannot grow the memo without bound.
constexpr std::size_t kMemoCap = std::size_t{1} << 20;

/// Widest target the search takes: its bitsets span the odd values up to
/// 2^(bits + 2), 256 KB each at 20 bits.
constexpr int kMaxSearchBits = 20;

/// A flat bitset over the odd values below a power-of-two limit (value v
/// is bit v >> 1).
class OddBits {
 public:
  explicit OddBits(i64 limit)
      : words_(static_cast<std::size_t>(limit >> 7) + 1, 0) {}
  bool test(i64 v) const {
    const u64 i = static_cast<u64>(v) >> 1;
    return ((words_[i >> 6] >> (i & 63)) & 1) != 0;
  }
  void set(i64 v) {
    const u64 i = static_cast<u64>(v) >> 1;
    words_[i >> 6] |= u64{1} << (i & 63);
  }
  void reset(i64 v) {
    const u64 i = static_cast<u64>(v) >> 1;
    words_[i >> 6] &= ~(u64{1} << (i & 63));
  }

 private:
  std::vector<u64> words_;
};

struct Candidate {
  BnbStep step;
  bool is_target = false;
};

class Searcher {
 public:
  Searcher(const std::vector<i64>& targets, const BnbOptions& options,
           int max_shift, i64 value_limit)
      : options_(options),
        max_shift_(max_shift),
        value_limit_(value_limit),
        avail_bits_(value_limit),
        target_bits_(value_limit),
        seen_bits_(value_limit),
        remaining_(static_cast<int>(targets.size())) {
    avail_.push_back(1);
    sorted_.push_back(1);
    avail_bits_.set(1);
    for (const i64 t : targets) target_bits_.set(t);
  }

  /// Exhaustive DFS for a chain of exactly <= depth_cap adders. Returns
  /// true when one is found (recorded in steps()); false when the space
  /// is exhausted. aborted() reports a budget stop, which invalidates the
  /// "exhausted" reading.
  bool run(int depth_cap) {
    depth_cap_ = depth_cap;
    memo_.clear();
    if (candidates_.size() < static_cast<std::size_t>(depth_cap)) {
      candidates_.resize(static_cast<std::size_t>(depth_cap));
    }
    return dfs(0);
  }

  bool aborted() const { return aborted_; }
  long long steps_explored() const { return steps_; }
  const std::vector<BnbStep>& steps() const { return chain_; }

 private:
  bool charge(long long units) {
    steps_ += units;
    if (steps_ >= options_.step_budget) aborted_ = true;
    return !aborted_;
  }

  /// Order-independent hash of the current available-value set.
  u64 avail_hash() const {
    u64 h = kFnvOffset;
    for (const i64 v : sorted_) h = fnv1a64_word(static_cast<u64>(v), h);
    return h;
  }

  /// Counts the candidate v = odd(|a ± (b << shift)|), not yet available
  /// and within the value limit, and keeps its first derivation: every
  /// such value when `targets_only` is false, only targets when true.
  void offer(i64 v, i64 a, i64 b, int shift, bool subtract, bool targets_only,
             std::vector<Candidate>& out, long long& generated) {
    if (v > value_limit_ || avail_bits_.test(v)) return;
    ++generated;
    const bool is_target = target_bits_.test(v);
    if ((targets_only && !is_target) || seen_bits_.test(v)) return;
    seen_bits_.set(v);
    out.push_back(Candidate{BnbStep{v, a, b, shift, subtract}, is_target});
  }

  /// Every |a ± (b << k)| for k = 0..max_shift, adds before subtracts.
  void combine(i64 a, i64 b, bool targets_only, std::vector<Candidate>& out,
               long long& generated) {
    // k = 0: a ± b is even (both odd), so the candidate is its odd part.
    offer(odd_part(a + b), a, b, 0, false, targets_only, out, generated);
    if (a != b) {
      offer(odd_part(a > b ? a - b : b - a), a, b, 0, true, targets_only, out,
            generated);
    }
    // k >= 1: a ± (b << k) is odd. Once b << k passes value_limit + a both
    // results exceed the limit, and they only grow with k.
    for (int k = 1; k <= max_shift_; ++k) {
      const i64 shifted = b << k;
      if (shifted > value_limit_ + a) break;
      offer(a + shifted, a, b, k, false, targets_only, out, generated);
      offer(a > shifted ? a - shifted : shifted - a, a, b, k, true,
            targets_only, out, generated);
    }
  }

  bool dfs(int depth) {
    if (remaining_ == 0) return true;
    if (aborted_) return false;
    if (depth + remaining_ > depth_cap_) return false;

    // Dominance: the same available set at the same or a deeper depth
    // spans a subset of an already-explored subtree.
    const u64 h = avail_hash();
    if (memo_.size() > kMemoCap) memo_.clear();
    const auto [it, fresh] = memo_.try_emplace(h, depth);
    if (!fresh) {
      if (it->second <= depth) return false;
      it->second = depth;
    }

    // One step per generated candidate, duplicates included. At zero
    // slack every further step must be a remaining target, so the other
    // candidates are counted but never kept.
    const bool targets_only = depth + remaining_ == depth_cap_;
    std::vector<Candidate>& candidates =
        candidates_[static_cast<std::size_t>(depth)];
    candidates.clear();
    long long generated = 0;
    for (std::size_t i = 0; i < avail_.size(); ++i) {
      for (std::size_t j = i; j < avail_.size(); ++j) {
        combine(avail_[i], avail_[j], targets_only, candidates, generated);
        if (i != j) {
          combine(avail_[j], avail_[i], targets_only, candidates, generated);
        }
      }
    }
    for (const Candidate& c : candidates) seen_bits_.reset(c.step.value);
    if (!charge(generated + 1)) return false;

    // One branch per distinct value, its first derivation (any derivation
    // spans the same subtree); targets first — they shrink `remaining`,
    // tightening the depth prune fastest. Values are distinct, so the
    // order is total and deterministic.
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& x, const Candidate& y) {
                if (x.is_target != y.is_target) return x.is_target;
                return x.step.value < y.step.value;
              });

    for (const Candidate& c : candidates) {
      push(c);
      if (dfs(depth + 1)) return true;
      pop(c);
      if (aborted_) return false;
    }
    return false;
  }

  void push(const Candidate& c) {
    const i64 v = c.step.value;
    avail_.push_back(v);
    sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), v), v);
    avail_bits_.set(v);
    if (c.is_target) --remaining_;
    chain_.push_back(c.step);
  }

  void pop(const Candidate& c) {
    const i64 v = c.step.value;
    chain_.pop_back();
    if (c.is_target) ++remaining_;
    avail_bits_.reset(v);
    sorted_.erase(std::lower_bound(sorted_.begin(), sorted_.end(), v));
    avail_.pop_back();
  }

  const BnbOptions& options_;
  int max_shift_;
  i64 value_limit_;
  int depth_cap_ = 0;

  std::vector<i64> avail_;   // insertion order == chain order, starts at 1
  std::vector<i64> sorted_;  // avail_ ascending, for the memo hash
  OddBits avail_bits_;       // avail_ as a set
  OddBits target_bits_;      // every target, available or not
  OddBits seen_bits_;        // values kept at the node generating now
  int remaining_;            // targets not yet available
  std::vector<std::vector<Candidate>> candidates_;  // one buffer per depth
  std::vector<BnbStep> chain_;
  std::unordered_map<u64, int> memo_;  // avail-set hash -> min depth seen

  long long steps_ = 0;
  bool aborted_ = false;
};

}  // namespace

BnbOutcome bnb_solve(const std::vector<i64>& targets, int upper_bound,
                     const BnbOptions& options) {
  MRPF_CHECK(options.step_budget >= 1, "bnb_solve: step budget must be >= 1");
  MRPF_CHECK(options.max_bits <= kMaxSearchBits,
             "bnb_solve: max_bits above 20 is not supported");
  for (std::size_t i = 0; i < targets.size(); ++i) {
    MRPF_CHECK(targets[i] > 1 && targets[i] % 2 == 1,
               "bnb_solve: targets must be odd and > 1");
    MRPF_CHECK(i == 0 || targets[i - 1] < targets[i],
               "bnb_solve: targets must be sorted and unique");
  }

  BnbOutcome out;
  out.adders = upper_bound;
  if (targets.empty()) {
    // Nothing to synthesize: zero adders, trivially optimal.
    out.status = BnbStatus::kOptimal;
    out.adders = 0;
    return out;
  }

  int bmax = 0;
  for (const i64 t : targets) bmax = std::max(bmax, bit_width_abs(t));
  if (static_cast<int>(targets.size()) > options.max_targets ||
      bmax > options.max_bits) {
    out.status = BnbStatus::kSkipped;
    out.lower_bound = static_cast<int>(targets.size());
    return out;
  }

  // Root lower bound: every distinct odd target needs its own adder, and
  // any solution contains a single-constant chain for each target.
  int lb = static_cast<int>(targets.size());
  for (const i64 t : targets) lb = std::max(lb, scm_lower_bound(t));
  out.lower_bound = lb;

  if (lb >= upper_bound) {
    // The bound alone proves the greedy plan optimal; no search needed.
    out.status = BnbStatus::kProvedExisting;
    out.lower_bound = upper_bound;
    return out;
  }

  const int max_shift = bmax + 2;
  const i64 value_limit = i64{1} << (bmax + 2);
  Searcher search(targets, options, max_shift, value_limit);

  for (int depth_cap = lb; depth_cap < upper_bound; ++depth_cap) {
    const bool found = search.run(depth_cap);
    out.steps_explored = search.steps_explored();
    if (found) {
      out.status = BnbStatus::kOptimal;
      out.adders = depth_cap;
      out.lower_bound = depth_cap;
      out.steps = search.steps();
      return out;
    }
    if (search.aborted()) {
      // Every depth below depth_cap was exhausted; this one was not.
      out.status = BnbStatus::kBudget;
      out.lower_bound = depth_cap;
      return out;
    }
    out.lower_bound = depth_cap + 1;  // depth_cap exhausted: optimum is above
  }
  out.status = BnbStatus::kProvedExisting;
  out.lower_bound = upper_bound;
  return out;
}

}  // namespace mrpf::opt
