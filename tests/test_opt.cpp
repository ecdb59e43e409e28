// The exact branch-and-bound optimizer: admissible bounds (ScmTable
// seeding with its ">3 adders" sentinel, CSD doubling), the search's four
// statuses, determinism, golden outcomes at the budget edges, emission,
// and a full differential sweep pinning the search to the independent
// ScmTable oracle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mrpf/arch/adder_graph.hpp"
#include "mrpf/arch/scm_exact.hpp"
#include "mrpf/common/bits.hpp"
#include "mrpf/common/error.hpp"
#include "mrpf/opt/bnb.hpp"
#include "mrpf/opt/bounds.hpp"
#include "mrpf/opt/emit.hpp"

namespace mrpf::opt {
namespace {

TEST(OptBounds, ScmCostsAreExactBelowTheSentinel) {
  // Powers of two are free; the classic 1-adder values cost 1.
  EXPECT_EQ(scm_lower_bound(1), 0);
  ASSERT_TRUE(scm_exact_cost(1).has_value());
  EXPECT_EQ(*scm_exact_cost(1), 0);
  for (const i64 c : {3, 5, 7, 9, 15, 17, 31, 33}) {
    EXPECT_EQ(scm_lower_bound(c), 1) << c;
    ASSERT_TRUE(scm_exact_cost(c).has_value()) << c;
    EXPECT_EQ(*scm_exact_cost(c), 1) << c;
  }
  // 11 = 8 + 2 + 1 has no 1-adder chain; 45 = 5·9 factors into two.
  EXPECT_EQ(*scm_exact_cost(11), 2);
  EXPECT_EQ(*scm_exact_cost(45), 2);
}

TEST(OptBounds, SentinelMeansMoreThanThreeAddersNotExactlyFour) {
  // Within the table range, cost()==4 is a sentinel for ">3 adders": the
  // enumeration stopped there, so it is an admissible "at least 4" bound
  // but never an exact cost — scm_exact_cost must refuse it.
  const arch::ScmTable table(kBoundTableBits);
  int sentinels = 0;
  for (i64 c = 1; c < (i64{1} << kBoundTableBits); c += 2) {
    const int cost = table.cost(c);
    if (cost <= 3) {
      ASSERT_TRUE(scm_exact_cost(c).has_value()) << c;
      EXPECT_EQ(*scm_exact_cost(c), cost) << c;
      EXPECT_EQ(scm_lower_bound(c), cost) << c;
    } else {
      EXPECT_EQ(cost, 4) << c;  // the sentinel is the only value past 3
      EXPECT_FALSE(scm_exact_cost(c).has_value()) << c;
      EXPECT_EQ(scm_lower_bound(c), 4) << c;
      ++sentinels;
    }
  }
  // 683 is the canonical smallest cost-4 constant, so the 12-bit table
  // must contain sentinels — otherwise this test is vacuous.
  EXPECT_GT(sentinels, 0);
  EXPECT_FALSE(scm_exact_cost(683).has_value());
}

TEST(OptBounds, BeyondTableFallsBackToCsdDoubling) {
  // 13-bit value, outside the 12-bit table: no exact cost, but the CSD
  // doubling bound still applies. 0b1010101010101 has 7 CSD digits, so
  // at least ceil(log2(7)) = 3 adders.
  const i64 wide = 0b1010101010101;
  ASSERT_GE(bit_width_abs(wide), kBoundTableBits + 1);
  EXPECT_FALSE(scm_exact_cost(wide).has_value());
  EXPECT_EQ(scm_lower_bound(wide), 3);
  // A wide power-of-two neighbor needs just one digit-doubling step.
  EXPECT_EQ(scm_lower_bound((i64{1} << 14) + 1), 1);
}

TEST(BnbSolve, FindsOptimalBeatsTheBoundAndIsDeterministic) {
  // 45 = 9·5: two adders (1→9→45), strictly under the 3-adder bound.
  BnbOptions options;
  options.step_budget = 1'000'000;
  const BnbOutcome a = bnb_solve({45}, 3, options);
  EXPECT_EQ(a.status, BnbStatus::kOptimal);
  EXPECT_EQ(a.adders, 2);
  EXPECT_EQ(a.lower_bound, 2);
  ASSERT_EQ(a.steps.size(), 2u);
  EXPECT_EQ(a.steps.back().value, 45);

  const BnbOutcome b = bnb_solve({45}, 3, options);
  EXPECT_EQ(b.steps_explored, a.steps_explored);
  ASSERT_EQ(b.steps.size(), a.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(b.steps[i].value, a.steps[i].value);
    EXPECT_EQ(b.steps[i].a, a.steps[i].a);
    EXPECT_EQ(b.steps[i].b, a.steps[i].b);
    EXPECT_EQ(b.steps[i].shift, a.steps[i].shift);
    EXPECT_EQ(b.steps[i].subtract, a.steps[i].subtract);
  }
}

TEST(BnbSolve, ProvesAnExistingPlanOptimalByExhaustion) {
  // {11, 13}: each costs 2 alone and the pair shares a helper (1→3→11,
  // 3→13), so 3 adders suffice — but the per-target bound is only 2.
  // Proving 3 optimal requires actually exhausting depth 2.
  BnbOptions options;
  options.step_budget = 1'000'000;
  const BnbOutcome r = bnb_solve({11, 13}, 3, options);
  EXPECT_EQ(r.status, BnbStatus::kProvedExisting);
  EXPECT_EQ(r.adders, 3);
  EXPECT_EQ(r.lower_bound, 3);
  EXPECT_GT(r.steps_explored, 0);
  EXPECT_TRUE(r.steps.empty());

  // When the seeded lower bound already meets the upper bound the proof
  // is free: {3} at bound 1 never searches a single step.
  const BnbOutcome free_proof = bnb_solve({3}, 1, options);
  EXPECT_EQ(free_proof.status, BnbStatus::kProvedExisting);
  EXPECT_EQ(free_proof.steps_explored, 0);
  EXPECT_EQ(free_proof.lower_bound, 1);
}

TEST(BnbSolve, BudgetAndSkipOutcomesAreHonest) {
  BnbOptions tiny;
  tiny.step_budget = 1;
  const BnbOutcome starved = bnb_solve({11, 13}, 3, tiny);
  EXPECT_EQ(starved.status, BnbStatus::kBudget);
  EXPECT_EQ(starved.adders, 3);        // the caller's plan stands
  EXPECT_LE(starved.lower_bound, 3);   // no proof was reached
  EXPECT_TRUE(starved.steps.empty());

  BnbOptions options;
  options.step_budget = 1'000'000;
  options.max_targets = 3;
  const BnbOutcome wide_bank = bnb_solve({3, 5, 7, 9}, 4, options);
  EXPECT_EQ(wide_bank.status, BnbStatus::kSkipped);
  EXPECT_EQ(wide_bank.steps_explored, 0);

  BnbOptions narrow;
  narrow.step_budget = 1'000'000;
  narrow.max_bits = 8;
  const BnbOutcome wide_value = bnb_solve({511}, 4, narrow);
  EXPECT_EQ(wide_value.status, BnbStatus::kSkipped);
}

TEST(BnbSolve, RefusesMaxBitsPastItsBitsets) {
  // The search's bitsets span the odd values up to 2^(bmax + 2), so the
  // widest bank it takes is fixed: a wider max_bits is refused up front
  // instead of sizing bitsets past what 20-bit banks need.
  BnbOptions wide;
  wide.step_budget = 1'000;
  wide.max_bits = 21;
  EXPECT_THROW(bnb_solve({3}, 2, wide), Error);
}

/// One pinned bnb_solve call, field by field. `chain` spells the steps as
/// "value=a+b<<shift" (or a-b), value being the odd part of
/// |a ± (b << shift)|.
struct GoldenSolve {
  long long budget;
  BnbStatus status;
  int adders;
  int lower_bound;
  long long steps_explored;
  const char* chain;
};

struct GoldenBank {
  std::vector<i64> targets;
  int upper_bound;
  std::vector<GoldenSolve> solves;
};

std::string chain_text(const std::vector<BnbStep>& steps) {
  std::string text;
  for (const BnbStep& s : steps) {
    if (!text.empty()) text += ' ';
    text += std::to_string(s.value) + "=" + std::to_string(s.a) +
            (s.subtract ? "-" : "+") + std::to_string(s.b) + "<<" +
            std::to_string(s.shift);
  }
  return text;
}

// Captured before the search kept its per-node state in flat bitsets;
// every later change to the search must reproduce these exactly, because
// the steps are the budget's unit and the plan timers record them. The
// banks: the four the perfbench synth workload runs out the whole
// 2,000,000-step budget on (catalog spec 0 and the shared-bank union
// banks of its Nyquist and half-band prototypes); every opt_gap random
// bank the search solves, at budgets 1, 2, its step count S - 1, S and
// S + 1 (the search stops once steps >= budget, so S itself aborts) and
// 2,000,000; and two banks with a 20-bit target, the widest max_bits
// admits and so the widest value range the search covers.
std::vector<GoldenBank> golden_banks() {
  return {
      {{167, 983, 4911, 32767},
       14,
       {
           {2000000, BnbStatus::kBudget, 14, 7, 2000157, ""},
       }},
      {{43, 297, 965, 1277, 2421, 5753, 32767},
       20,
       {
           {2000000, BnbStatus::kBudget, 20, 9, 2000070, ""},
       }},
      {{53, 355, 497, 513, 731, 1629, 1761, 14461, 19263, 32767},
       24,
       {
           {2000000, BnbStatus::kBudget, 24, 12, 2000061, ""},
       }},
      {{1859, 5107, 6431, 9461, 9641, 10991, 11741, 24129, 32767},
       31,
       {
           {2000000, BnbStatus::kBudget, 31, 12, 2000354, ""},
       }},
      // rnd00
      {{3, 87},
       5,
       {
           {1, BnbStatus::kBudget, 5, 3, 17, ""},
           {2, BnbStatus::kBudget, 5, 3, 17, ""},
           {420, BnbStatus::kBudget, 5, 3, 421, ""},
           {421, BnbStatus::kBudget, 5, 3, 421, ""},
           {422, BnbStatus::kOptimal, 3, 3, 421, "3=1+1<<1 9=1+1<<3 87=9-3<<5"},
           {2000000, BnbStatus::kOptimal, 3, 3, 421,
               "3=1+1<<1 9=1+1<<3 87=9-3<<5"},
       }},
      // rnd02
      {{197, 391, 393},
       7,
       {
           {1, BnbStatus::kBudget, 7, 3, 21, ""},
           {2, BnbStatus::kBudget, 7, 3, 21, ""},
           {1941, BnbStatus::kBudget, 7, 5, 1942, ""},
           {1942, BnbStatus::kBudget, 7, 5, 1942, ""},
           {1943, BnbStatus::kOptimal, 5, 5, 1942,
               "3=1+1<<1 5=1+1<<2 197=5+3<<6 391=3-197<<1 393=1-197<<1"},
           {2000000, BnbStatus::kOptimal, 5, 5, 1942,
               "3=1+1<<1 5=1+1<<2 197=5+3<<6 391=3-197<<1 393=1-197<<1"},
       }},
      // rnd03
      {{51, 71, 109},
       6,
       {
           {1, BnbStatus::kBudget, 6, 3, 17, ""},
           {2, BnbStatus::kBudget, 6, 3, 17, ""},
           {1836, BnbStatus::kBudget, 6, 5, 1837, ""},
           {1837, BnbStatus::kBudget, 6, 5, 1837, ""},
           {1838, BnbStatus::kOptimal, 5, 5, 1837,
               "3=1+1<<1 51=3+3<<4 5=1+1<<2 71=51+5<<2 109=51-5<<5"},
           {2000000, BnbStatus::kOptimal, 5, 5, 1837,
               "3=1+1<<1 51=3+3<<4 5=1+1<<2 71=51+5<<2 109=51-5<<5"},
       }},
      // rnd05
      {{11, 55, 97},
       5,
       {
           {1, BnbStatus::kBudget, 5, 3, 17, ""},
           {2, BnbStatus::kBudget, 5, 3, 17, ""},
           {396, BnbStatus::kBudget, 5, 4, 397, ""},
           {397, BnbStatus::kBudget, 5, 4, 397, ""},
           {398, BnbStatus::kOptimal, 4, 4, 397,
               "3=1+1<<1 11=1-3<<2 55=11+11<<2 97=1+3<<5"},
           {2000000, BnbStatus::kOptimal, 4, 4, 397,
               "3=1+1<<1 11=1-3<<2 55=11+11<<2 97=1+3<<5"},
       }},
      // rnd06
      {{13, 163, 167},
       7,
       {
           {1, BnbStatus::kBudget, 7, 3, 19, ""},
           {2, BnbStatus::kBudget, 7, 3, 19, ""},
           {2467, BnbStatus::kBudget, 7, 5, 2468, ""},
           {2468, BnbStatus::kBudget, 7, 5, 2468, ""},
           {2469, BnbStatus::kOptimal, 5, 5, 2468,
               "3=1+1<<1 13=1+3<<2 5=1+1<<2 163=3+5<<5 167=163+1<<2"},
           {2000000, BnbStatus::kOptimal, 5, 5, 2468,
               "3=1+1<<1 13=1+3<<2 5=1+1<<2 163=3+5<<5 167=163+1<<2"},
       }},
      // rnd07
      {{95, 837, 905},
       8,
       {
           {1, BnbStatus::kBudget, 8, 3, 23, ""},
           {2, BnbStatus::kBudget, 8, 3, 23, ""},
           {102431, BnbStatus::kBudget, 8, 5, 102432, ""},
           {102432, BnbStatus::kBudget, 8, 5, 102432, ""},
           {102433, BnbStatus::kOptimal, 5, 5, 102432,
               "17=1+1<<4 111=17-1<<7 95=111-1<<4 905=17+111<<3 837=905-17<<2"},
           {2000000, BnbStatus::kOptimal, 5, 5, 102432,
               "17=1+1<<4 111=17-1<<7 95=111-1<<4 905=17+111<<3 837=905-17<<2"},
       }},
      // rnd08
      {{13, 23},
       4,
       {
           {1, BnbStatus::kBudget, 4, 2, 13, ""},
           {2, BnbStatus::kBudget, 4, 2, 13, ""},
           {147, BnbStatus::kBudget, 4, 3, 148, ""},
           {148, BnbStatus::kBudget, 4, 3, 148, ""},
           {149, BnbStatus::kOptimal, 3, 3, 148,
               "3=1+1<<1 13=1+3<<2 23=1-3<<3"},
           {2000000, BnbStatus::kOptimal, 3, 3, 148,
               "3=1+1<<1 13=1+3<<2 23=1-3<<3"},
       }},
      // rnd09
      {{57, 133, 265, 991},
       9,
       {
           {1, BnbStatus::kBudget, 9, 4, 23, ""},
           {2, BnbStatus::kBudget, 9, 4, 23, ""},
           {14923, BnbStatus::kBudget, 9, 6, 14924, ""},
           {14924, BnbStatus::kBudget, 9, 6, 14924, ""},
           {14925, BnbStatus::kOptimal, 6, 6, 14924,
               "3=1+1<<1 33=1+1<<5 57=33+3<<3 133=1+33<<2 265=1+33<<3 "
               "991=33-1<<10"},
           {2000000, BnbStatus::kOptimal, 6, 6, 14924,
               "3=1+1<<1 33=1+1<<5 57=33+3<<3 133=1+33<<2 265=1+33<<3 "
               "991=33-1<<10"},
       }},
      // rnd10
      {{15, 23, 33, 41},
       5,
       {
           {1, BnbStatus::kBudget, 5, 4, 15, ""},
           {2, BnbStatus::kBudget, 5, 4, 15, ""},
           {289, BnbStatus::kBudget, 5, 4, 290, ""},
           {290, BnbStatus::kBudget, 5, 4, 290, ""},
           {291, BnbStatus::kOptimal, 4, 4, 290,
               "15=1-1<<4 23=15+1<<3 33=1+1<<5 41=23-1<<6"},
           {2000000, BnbStatus::kOptimal, 4, 4, 290,
               "15=1-1<<4 23=15+1<<3 33=1+1<<5 41=23-1<<6"},
       }},
      // rnd11
      {{101, 119, 463, 473},
       10,
       {
           {1, BnbStatus::kBudget, 10, 4, 21, ""},
           {2, BnbStatus::kBudget, 10, 4, 21, ""},
           {31705, BnbStatus::kBudget, 10, 6, 31706, ""},
           {31706, BnbStatus::kBudget, 10, 6, 31706, ""},
           {31707, BnbStatus::kOptimal, 6, 6, 31706,
               "5=1+1<<2 59=5-1<<6 101=59-5<<5 119=1+59<<1 463=59+101<<2 "
               "473=1+59<<3"},
           {2000000, BnbStatus::kOptimal, 6, 6, 31706,
               "5=1+1<<2 59=5-1<<6 101=59-5<<5 119=1+59<<1 463=59+101<<2 "
               "473=1+59<<3"},
       }},
      // rnd12
      {{59, 203, 215, 379, 781},
       12,
       {
           {1, BnbStatus::kBudget, 12, 5, 23, ""},
           {2, BnbStatus::kBudget, 12, 5, 23, ""},
           {402754, BnbStatus::kBudget, 12, 8, 402755, ""},
           {402755, BnbStatus::kBudget, 12, 8, 402755, ""},
           {402756, BnbStatus::kOptimal, 8, 8, 402755,
               "3=1+1<<1 5=1+1<<2 59=5-1<<6 379=5-3<<7 13=1+3<<2 203=5-13<<4 "
               "215=203+3<<2 781=13+3<<8"},
           {2000000, BnbStatus::kOptimal, 8, 8, 402755,
               "3=1+1<<1 5=1+1<<2 59=5-1<<6 379=5-3<<7 13=1+3<<2 203=5-13<<4 "
               "215=203+3<<2 781=13+3<<8"},
       }},
      // rnd13
      {{5, 21, 45, 141, 149},
       7,
       {
           {1, BnbStatus::kBudget, 7, 5, 19, ""},
           {2, BnbStatus::kBudget, 7, 5, 19, ""},
           {710, BnbStatus::kBudget, 7, 5, 711, ""},
           {711, BnbStatus::kBudget, 7, 5, 711, ""},
           {712, BnbStatus::kOptimal, 5, 5, 711,
               "5=1+1<<2 21=1+5<<2 45=5+5<<3 149=21+1<<7 141=149-1<<3"},
           {2000000, BnbStatus::kOptimal, 5, 5, 711,
               "5=1+1<<2 21=1+5<<2 45=5+5<<3 149=21+1<<7 141=149-1<<3"},
       }},
      // rnd14
      {{7, 17, 29},
       4,
       {
           {1, BnbStatus::kBudget, 4, 3, 13, ""},
           {2, BnbStatus::kBudget, 4, 3, 13, ""},
           {130, BnbStatus::kBudget, 4, 3, 131, ""},
           {131, BnbStatus::kBudget, 4, 3, 131, ""},
           {132, BnbStatus::kOptimal, 3, 3, 131,
               "7=1-1<<3 17=1+1<<4 29=1+7<<2"},
           {2000000, BnbStatus::kOptimal, 3, 3, 131,
               "7=1-1<<3 17=1+1<<4 29=1+7<<2"},
       }},
      // rnd15
      {{9, 35, 125},
       7,
       {
           {1, BnbStatus::kBudget, 7, 3, 17, ""},
           {2, BnbStatus::kBudget, 7, 3, 17, ""},
           {522, BnbStatus::kBudget, 7, 4, 523, ""},
           {523, BnbStatus::kBudget, 7, 4, 523, ""},
           {524, BnbStatus::kOptimal, 4, 4, 523,
               "9=1+1<<3 35=1-9<<2 3=1+1<<1 125=3-1<<7"},
           {2000000, BnbStatus::kOptimal, 4, 4, 523,
               "9=1+1<<3 35=1-9<<2 3=1+1<<1 125=3-1<<7"},
       }},
      // rnd17
      {{17, 23, 27},
       5,
       {
           {1, BnbStatus::kBudget, 5, 3, 13, ""},
           {2, BnbStatus::kBudget, 5, 3, 13, ""},
           {300, BnbStatus::kBudget, 5, 4, 301, ""},
           {301, BnbStatus::kBudget, 5, 4, 301, ""},
           {302, BnbStatus::kOptimal, 4, 4, 301,
               "17=1+1<<4 3=1+1<<1 23=1-3<<3 27=23+1<<2"},
           {2000000, BnbStatus::kOptimal, 4, 4, 301,
               "17=1+1<<4 3=1+1<<1 23=1-3<<3 27=23+1<<2"},
       }},
      // rnd18
      {{81, 99, 247},
       8,
       {
           {1, BnbStatus::kBudget, 8, 3, 19, ""},
           {2, BnbStatus::kBudget, 8, 3, 19, ""},
           {827, BnbStatus::kBudget, 8, 4, 828, ""},
           {828, BnbStatus::kBudget, 8, 4, 828, ""},
           {829, BnbStatus::kOptimal, 4, 4, 828,
               "9=1+1<<3 81=9+9<<3 99=81+9<<1 247=9-1<<8"},
           {2000000, BnbStatus::kOptimal, 4, 4, 828,
               "9=1+1<<3 81=9+9<<3 99=81+9<<1 247=9-1<<8"},
       }},
      // rnd19
      {{17, 53, 71},
       6,
       {
           {1, BnbStatus::kBudget, 6, 3, 17, ""},
           {2, BnbStatus::kBudget, 6, 3, 17, ""},
           {1090, BnbStatus::kBudget, 6, 4, 1091, ""},
           {1091, BnbStatus::kBudget, 6, 4, 1091, ""},
           {1092, BnbStatus::kOptimal, 4, 4, 1091,
               "17=1+1<<4 9=1+1<<3 53=17+9<<2 71=1-9<<3"},
           {2000000, BnbStatus::kOptimal, 4, 4, 1091,
               "17=1+1<<4 9=1+1<<3 53=17+9<<2 71=1-9<<3"},
       }},
      // rnd20
      {{41, 177, 255},
       8,
       {
           {1, BnbStatus::kBudget, 8, 3, 19, ""},
           {2, BnbStatus::kBudget, 8, 3, 19, ""},
           {6813, BnbStatus::kBudget, 8, 5, 6814, ""},
           {6814, BnbStatus::kBudget, 8, 5, 6814, ""},
           {6815, BnbStatus::kOptimal, 5, 5, 6814,
               "255=1-1<<8 3=1+1<<1 11=1-3<<2 41=3-11<<2 177=1+11<<4"},
           {2000000, BnbStatus::kOptimal, 5, 5, 6814,
               "255=1-1<<8 3=1+1<<1 11=1-3<<2 41=3-11<<2 177=1+11<<4"},
       }},
      // rnd22
      {{115, 155, 299},
       7,
       {
           {1, BnbStatus::kBudget, 7, 3, 21, ""},
           {2, BnbStatus::kBudget, 7, 3, 21, ""},
           {15923, BnbStatus::kBudget, 7, 5, 15924, ""},
           {15924, BnbStatus::kBudget, 7, 5, 15924, ""},
           {15925, BnbStatus::kOptimal, 5, 5, 15924,
               "5=1+1<<2 155=5-5<<5 115=155-5<<3 9=1+1<<3 299=155+9<<4"},
           {2000000, BnbStatus::kOptimal, 5, 5, 15924,
               "5=1+1<<2 155=5-5<<5 115=155-5<<3 9=1+1<<3 299=155+9<<4"},
       }},
      // rnd23
      {{153, 183, 459},
       8,
       {
           {1, BnbStatus::kBudget, 8, 3, 21, ""},
           {2, BnbStatus::kBudget, 8, 3, 21, ""},
           {2855, BnbStatus::kBudget, 8, 5, 2856, ""},
           {2856, BnbStatus::kBudget, 8, 5, 2856, ""},
           {2857, BnbStatus::kOptimal, 5, 5, 2856,
               "3=1+1<<1 9=1+1<<3 153=9+9<<4 183=9-3<<6 459=153+153<<1"},
           {2000000, BnbStatus::kOptimal, 5, 5, 2856,
               "3=1+1<<1 9=1+1<<3 153=9+9<<4 183=9-3<<6 459=153+153<<1"},
       }},
      // rnd24
      {{21, 27},
       4,
       {
           {1, BnbStatus::kBudget, 4, 2, 13, ""},
           {2, BnbStatus::kBudget, 4, 2, 13, ""},
           {145, BnbStatus::kBudget, 4, 3, 146, ""},
           {146, BnbStatus::kBudget, 4, 3, 146, ""},
           {147, BnbStatus::kOptimal, 3, 3, 146,
               "3=1+1<<1 21=3-3<<3 27=3+3<<3"},
           {2000000, BnbStatus::kOptimal, 3, 3, 146,
               "3=1+1<<1 21=3-3<<3 27=3+3<<3"},
       }},
      // rnd25
      {{107, 149, 249},
       7,
       {
           {1, BnbStatus::kBudget, 7, 3, 19, ""},
           {2, BnbStatus::kBudget, 7, 3, 19, ""},
           {9691, BnbStatus::kBudget, 7, 5, 9692, ""},
           {9692, BnbStatus::kBudget, 7, 5, 9692, ""},
           {9693, BnbStatus::kOptimal, 5, 5, 9692,
               "3=1+1<<1 125=3-1<<7 149=125+3<<3 107=149-1<<8 249=1-125<<1"},
           {2000000, BnbStatus::kOptimal, 5, 5, 9692,
               "3=1+1<<1 125=3-1<<7 149=125+3<<3 107=149-1<<8 249=1-125<<1"},
       }},
      // rnd26
      {{87, 99},
       5,
       {
           {1, BnbStatus::kBudget, 5, 3, 17, ""},
           {2, BnbStatus::kBudget, 5, 3, 17, ""},
           {176, BnbStatus::kBudget, 5, 3, 177, ""},
           {177, BnbStatus::kBudget, 5, 3, 177, ""},
           {178, BnbStatus::kOptimal, 3, 3, 177,
               "3=1+1<<1 99=3+3<<5 87=99-3<<2"},
           {2000000, BnbStatus::kOptimal, 3, 3, 177,
               "3=1+1<<1 99=3+3<<5 87=99-3<<2"},
       }},
      // rnd28
      {{29, 43},
       4,
       {
           {1, BnbStatus::kBudget, 4, 3, 15, ""},
           {2, BnbStatus::kBudget, 4, 3, 15, ""},
           {351, BnbStatus::kBudget, 4, 3, 352, ""},
           {352, BnbStatus::kBudget, 4, 3, 352, ""},
           {353, BnbStatus::kOptimal, 3, 3, 352,
               "7=1-1<<3 29=1+7<<2 43=29+7<<1"},
           {2000000, BnbStatus::kOptimal, 3, 3, 352,
               "7=1-1<<3 29=1+7<<2 43=29+7<<1"},
       }},
      // rnd29
      {{13, 121, 141},
       6,
       {
           {1, BnbStatus::kBudget, 6, 3, 19, ""},
           {2, BnbStatus::kBudget, 6, 3, 19, ""},
           {851, BnbStatus::kBudget, 6, 4, 852, ""},
           {852, BnbStatus::kBudget, 6, 4, 852, ""},
           {853, BnbStatus::kOptimal, 4, 4, 852,
               "5=1+1<<2 13=5+1<<3 141=13+1<<7 121=141-5<<2"},
           {2000000, BnbStatus::kOptimal, 4, 4, 852,
               "5=1+1<<2 13=5+1<<3 141=13+1<<7 121=141-5<<2"},
       }},
      // rnd30
      {{3, 19, 161, 425, 491},
       9,
       {
           {1, BnbStatus::kBudget, 9, 5, 21, ""},
           {2, BnbStatus::kBudget, 9, 5, 21, ""},
           {6977, BnbStatus::kBudget, 9, 6, 6978, ""},
           {6978, BnbStatus::kBudget, 9, 6, 6978, ""},
           {6979, BnbStatus::kOptimal, 6, 6, 6978,
               "3=1+1<<1 19=3+1<<4 33=1+1<<5 161=33+1<<7 425=161+33<<3 "
               "491=425+33<<1"},
           {2000000, BnbStatus::kOptimal, 6, 6, 6978,
               "3=1+1<<1 19=3+1<<4 33=1+1<<5 161=33+1<<7 425=161+33<<3 "
               "491=425+33<<1"},
       }},
      // rnd31
      {{7, 73, 143, 247},
       7,
       {
           {1, BnbStatus::kBudget, 7, 4, 19, ""},
           {2, BnbStatus::kBudget, 7, 4, 19, ""},
           {1573, BnbStatus::kBudget, 7, 5, 1574, ""},
           {1574, BnbStatus::kBudget, 7, 5, 1574, ""},
           {1575, BnbStatus::kOptimal, 5, 5, 1574,
               "7=1-1<<3 9=1+1<<3 73=1+9<<3 143=1-9<<4 247=9-1<<8"},
           {2000000, BnbStatus::kOptimal, 5, 5, 1574,
               "7=1-1<<3 9=1+1<<3 73=1+9<<3 143=1-9<<4 247=9-1<<8"},
       }},
      // rnd33
      {{133, 203},
       6,
       {
           {1, BnbStatus::kBudget, 6, 3, 19, ""},
           {2, BnbStatus::kBudget, 6, 3, 19, ""},
           {11761, BnbStatus::kBudget, 6, 4, 11762, ""},
           {11762, BnbStatus::kBudget, 6, 4, 11762, ""},
           {11763, BnbStatus::kOptimal, 4, 4, 11762,
               "5=1+1<<2 133=5+1<<7 13=5+1<<3 203=5-13<<4"},
           {2000000, BnbStatus::kOptimal, 4, 4, 11762,
               "5=1+1<<2 133=5+1<<7 13=5+1<<3 203=5-13<<4"},
       }},
      // rnd34
      {{23, 25, 49, 119},
       6,
       {
           {1, BnbStatus::kBudget, 6, 4, 17, ""},
           {2, BnbStatus::kBudget, 6, 4, 17, ""},
           {651, BnbStatus::kBudget, 6, 5, 652, ""},
           {652, BnbStatus::kBudget, 6, 5, 652, ""},
           {653, BnbStatus::kOptimal, 5, 5, 652,
               "3=1+1<<1 23=1-3<<3 25=1+3<<3 49=1+3<<4 119=23+3<<5"},
           {2000000, BnbStatus::kOptimal, 5, 5, 652,
               "3=1+1<<1 23=1-3<<3 25=1+3<<3 49=1+3<<4 119=23+3<<5"},
       }},
      // rnd35
      {{13, 15, 37},
       5,
       {
           {1, BnbStatus::kBudget, 5, 3, 15, ""},
           {2, BnbStatus::kBudget, 5, 3, 15, ""},
           {154, BnbStatus::kBudget, 5, 3, 155, ""},
           {155, BnbStatus::kBudget, 5, 3, 155, ""},
           {156, BnbStatus::kOptimal, 3, 3, 155,
               "15=1-1<<4 13=15-1<<1 37=15-13<<2"},
           {2000000, BnbStatus::kOptimal, 3, 3, 155,
               "15=1-1<<4 13=15-1<<1 37=15-13<<2"},
       }},
      // rnd36
      {{47, 107, 155},
       7,
       {
           {1, BnbStatus::kBudget, 7, 3, 19, ""},
           {2, BnbStatus::kBudget, 7, 3, 19, ""},
           {2799, BnbStatus::kBudget, 7, 5, 2800, ""},
           {2800, BnbStatus::kBudget, 7, 5, 2800, ""},
           {2801, BnbStatus::kOptimal, 5, 5, 2800,
               "3=1+1<<1 47=1-3<<4 5=1+1<<2 155=5-5<<5 107=155-3<<4"},
           {2000000, BnbStatus::kOptimal, 5, 5, 2800,
               "3=1+1<<1 47=1-3<<4 5=1+1<<2 155=5-5<<5 107=155-3<<4"},
       }},
      // rnd37
      {{75, 97},
       5,
       {
           {1, BnbStatus::kBudget, 5, 2, 17, ""},
           {2, BnbStatus::kBudget, 5, 2, 17, ""},
           {1691, BnbStatus::kBudget, 5, 4, 1692, ""},
           {1692, BnbStatus::kBudget, 5, 4, 1692, ""},
           {1693, BnbStatus::kOptimal, 4, 4, 1692,
               "3=1+1<<1 97=1+3<<5 5=1+1<<2 75=5-5<<4"},
           {2000000, BnbStatus::kOptimal, 4, 4, 1692,
               "3=1+1<<1 97=1+3<<5 5=1+1<<2 75=5-5<<4"},
       }},
      // rnd38
      {{15, 29, 57},
       5,
       {
           {1, BnbStatus::kBudget, 5, 3, 15, ""},
           {2, BnbStatus::kBudget, 5, 3, 15, ""},
           {146, BnbStatus::kBudget, 5, 3, 147, ""},
           {147, BnbStatus::kBudget, 5, 3, 147, ""},
           {148, BnbStatus::kOptimal, 3, 3, 147,
               "15=1-1<<4 29=1-15<<1 57=1-29<<1"},
           {2000000, BnbStatus::kOptimal, 3, 3, 147,
               "15=1-1<<4 29=1-15<<1 57=1-29<<1"},
       }},
      {{93, 738017},
       5,
       {
           {1, BnbStatus::kBudget, 5, 3, 43, ""},
           {2, BnbStatus::kBudget, 5, 3, 43, ""},
           {99145, BnbStatus::kBudget, 5, 4, 99146, ""},
           {99146, BnbStatus::kBudget, 5, 4, 99146, ""},
           {99147, BnbStatus::kOptimal, 4, 4, 99146,
               "3=1+1<<1 93=3-3<<5 23807=1-93<<8 738017=23807-23807<<5"},
           {2000000, BnbStatus::kOptimal, 4, 4, 99146,
               "3=1+1<<1 93=3-3<<5 23807=1-93<<8 738017=23807-23807<<5"},
       }},
      {{11, 13, 1045877},
       5,
       {
           {1, BnbStatus::kBudget, 5, 3, 43, ""},
           {2, BnbStatus::kBudget, 5, 3, 43, ""},
           {2000000, BnbStatus::kProvedExisting, 5, 5, 12640, ""},
       }},
  };
}

TEST(BnbSolve, GoldenOutcomes) {
  for (const GoldenBank& bank : golden_banks()) {
    for (const GoldenSolve& want : bank.solves) {
      std::string where = "bank";
      for (const i64 t : bank.targets) where += " " + std::to_string(t);
      where += " bound " + std::to_string(bank.upper_bound) + " budget " +
               std::to_string(want.budget);
      BnbOptions options;
      options.step_budget = want.budget;
      const BnbOutcome got =
          bnb_solve(bank.targets, bank.upper_bound, options);
      EXPECT_EQ(got.status, want.status) << where;
      EXPECT_EQ(got.adders, want.adders) << where;
      EXPECT_EQ(got.lower_bound, want.lower_bound) << where;
      EXPECT_EQ(got.steps_explored, want.steps_explored) << where;
      EXPECT_EQ(chain_text(got.steps), want.chain) << where;
    }
  }
}

TEST(BnbEmit, GraphRealizesTheChainAndAllShiftedSignedMultiples) {
  BnbOptions options;
  options.step_budget = 2'000'000;
  const BnbOutcome r = bnb_solve({7, 23, 45, 105}, 5, options);
  ASSERT_EQ(r.status, BnbStatus::kOptimal);
  EXPECT_EQ(r.adders, 4);

  const arch::AdderGraph graph = build_bnb_graph(r.steps);
  EXPECT_EQ(graph.num_adders(), static_cast<int>(r.steps.size()));
  for (const i64 c : {i64{7}, i64{23}, i64{45}, i64{105}}) {
    EXPECT_TRUE(graph.resolve(c).has_value()) << c;
    // Taps are free wiring: shifted and negated multiples resolve too.
    EXPECT_TRUE(graph.resolve(-c).has_value()) << -c;
    EXPECT_TRUE(graph.resolve(c << 3).has_value()) << (c << 3);
  }
}

TEST(BnbDifferential, MatchesTheScmOracleForEveryOddConstantUpTo10Bits) {
  // The strongest correctness pin available: for single constants the
  // ScmTable knows the true optimum (costs 0..3), computed by an entirely
  // independent enumeration. The search must land on it exactly, and on
  // sentinel constants it must prove ">3 adders" is tight from below.
  BnbOptions options;
  options.step_budget = 2'000'000;
  for (i64 c = 3; c < (i64{1} << 10); c += 2) {
    const std::optional<int> exact = scm_exact_cost(c);
    if (exact.has_value()) {
      const BnbOutcome r = bnb_solve({c}, *exact + 1, options);
      ASSERT_EQ(r.status, BnbStatus::kOptimal) << c;
      EXPECT_EQ(r.adders, *exact) << c;
      // Emission must rebuild every one of these optimal chains.
      const arch::AdderGraph graph = build_bnb_graph(r.steps);
      EXPECT_TRUE(graph.resolve(c).has_value()) << c;
    } else {
      // Sentinel: the seeded bound alone proves no 3-adder chain exists.
      const BnbOutcome r = bnb_solve({c}, 4, options);
      EXPECT_EQ(r.status, BnbStatus::kProvedExisting) << c;
      EXPECT_EQ(r.lower_bound, 4) << c;
    }
  }
}

}  // namespace
}  // namespace mrpf::opt
