// Baselines: simple multiplierless TDF, the differential-MST transform,
// and the RAG-n-style MCM heuristic.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "graph_digest.hpp"
#include "mrpf/baseline/decor.hpp"
#include "mrpf/baseline/diff_mst.hpp"
#include "mrpf/cache/fingerprint.hpp"
#include "mrpf/common/error.hpp"
#include "mrpf/baseline/ragn.hpp"
#include "mrpf/baseline/simple.hpp"
#include "mrpf/core/flow.hpp"
#include "mrpf/dsp/convolve.hpp"
#include "mrpf/common/hash.hpp"
#include "mrpf/common/rng.hpp"
#include "mrpf/filter/catalog.hpp"
#include "mrpf/filter/halfband.hpp"
#include "mrpf/filter/nyquist.hpp"
#include "mrpf/number/csd.hpp"
#include "mrpf/number/quantize.hpp"

namespace mrpf::baseline {
namespace {

using number::NumberRep;

TEST(Simple, AnalyticCostKnownValues) {
  // 7 → 2 digits CSD → 1 adder; 45 → 4 digits → 3; 64 → 0; 0 → 0.
  EXPECT_EQ(simple_adder_cost({7, 45, 64, 0}, NumberRep::kCsd), 4);
  EXPECT_EQ(simple_adder_cost({7, 7}, NumberRep::kCsd), 2)
      << "simple implementation never shares";
  EXPECT_EQ(simple_adder_cost({}, NumberRep::kCsd), 0);
}

TEST(Simple, UnsharedBlockMatchesAnalyticCost) {
  const std::vector<i64> bank = {7, 45, -45, 90, 255, 0, 64, 7};
  for (const auto rep : {NumberRep::kCsd, NumberRep::kSignMagnitude}) {
    const arch::MultiplierBlock block =
        build_simple_block(bank, rep, /*share_equal_constants=*/false);
    EXPECT_EQ(block.graph.num_adders(), simple_adder_cost(bank, rep));
  }
}

TEST(Simple, SharedBlockNeverCostsMore) {
  const std::vector<i64> bank = {7, 45, -45, 90, 255, 0, 64, 7};
  const arch::MultiplierBlock shared =
      build_simple_block(bank, NumberRep::kCsd, true);
  EXPECT_LT(shared.graph.num_adders(),
            simple_adder_cost(bank, NumberRep::kCsd));
}

TEST(Simple, BlockIsExactOnRandomBanks) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<i64> bank;
    const int taps = static_cast<int>(rng.next_int(1, 20));
    for (int t = 0; t < taps; ++t) bank.push_back(rng.next_int(-4095, 4095));
    const arch::MultiplierBlock block =
        build_simple_block(bank, NumberRep::kCsd);
    const auto values = block.graph.evaluate(13);
    for (std::size_t i = 0; i < bank.size(); ++i) {
      ASSERT_EQ(block.product(i, values), bank[i] * 13);
    }
  }
}

/// The message of the Error `solve` throws, or "" when it returns.
template <class Solve>
std::string error_of(Solve solve) {
  try {
    solve();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// Constants past 61 bits, whatever their odd part: 2^63 - 3 and its
/// negation, the most negative i64, ±2^61 and 3·2^61.
const i64 kPastCsdRange[] = {9223372036854775805, -9223372036854775805,
                             INT64_MIN, i64{1} << 61, -(i64{1} << 61),
                             3 * (i64{1} << 61)};

TEST(DiffMst, TrivialBanks) {
  const DiffMstResult empty = diff_mst_optimize({0, 0}, NumberRep::kCsd);
  EXPECT_EQ(empty.adders, 0);
  const DiffMstResult one = diff_mst_optimize({12}, NumberRep::kCsd);
  EXPECT_EQ(one.adders, number::multiplier_adders(12, NumberRep::kCsd));
  EXPECT_EQ(one.roots.size(), 1u);
}

TEST(DiffMst, ChainOfCloseValuesIsCheap) {
  // 100, 101, 102, 103: differences of 1 → 1 adder per derived value.
  const DiffMstResult r =
      diff_mst_optimize({100, 101, 102, 103}, NumberRep::kCsd);
  const int root_cost = number::multiplier_adders(
      r.uniques[static_cast<std::size_t>(r.roots[0])], NumberRep::kCsd);
  EXPECT_EQ(r.adders, root_cost + 3);
  EXPECT_LT(r.adders,
            simple_adder_cost({100, 101, 102, 103}, NumberRep::kCsd));
}

TEST(DiffMst, ParentStructureIsForest) {
  const DiffMstResult r =
      diff_mst_optimize({7, 66, 17, 9, 27, 41, 57, 11}, NumberRep::kCsd);
  int roots = 0;
  for (std::size_t v = 0; v < r.uniques.size(); ++v) {
    if (r.parent[v] == -1) {
      ++roots;
    } else {
      ASSERT_GE(r.parent[v], 0);
      ASSERT_LT(r.parent[v], static_cast<int>(r.uniques.size()));
    }
  }
  EXPECT_EQ(roots, static_cast<int>(r.roots.size()));
  EXPECT_EQ(roots, 1);
}

TEST(DiffMst, BlockIsExact) {
  const std::vector<i64> bank = {7, 66, 17, 9, 27, 41, 57, 11, 0, -17};
  const arch::MultiplierBlock block =
      build_diff_mst_block(bank, NumberRep::kCsd);
  const auto values = block.graph.evaluate(-9);
  for (std::size_t i = 0; i < bank.size(); ++i) {
    ASSERT_EQ(block.product(i, values), bank[i] * -9);
  }
}

TEST(DiffMst, RefusesConstantsPastTheCsdRange) {
  // The pairwise differences of ±(2^63 - 3) would overflow i64, so every
  // bank with a constant past 61 bits is refused at entry.
  for (const auto rep : {NumberRep::kCsd, NumberRep::kSignMagnitude}) {
    for (const i64 wide : kPastCsdRange) {
      for (const std::vector<i64>& bank :
           {std::vector<i64>{wide, -9223372036854775805},
            std::vector<i64>{5, 0, wide}}) {
        EXPECT_NE(error_of([&] { return diff_mst_optimize(bank, rep); })
                      .find("diff_mst: constant exceeds 61 bits"),
                  std::string::npos)
            << wide;
      }
    }
    // 61 bits is inside the range.
    const i64 top = (i64{1} << 60) + 1;
    EXPECT_EQ(diff_mst_optimize({top, top + 2, top + 6}, rep).uniques.size(),
              3u);
  }
}

TEST(DiffMst, NeverWorseThanSimpleOnClusteredBanks) {
  Rng rng(5);
  for (int trial = 0; trial < 8; ++trial) {
    // Clustered values: differences are small, MST should win.
    std::vector<i64> bank;
    const i64 base = rng.next_int(500, 2000);
    for (int t = 0; t < 12; ++t) bank.push_back(base + rng.next_int(0, 15));
    const DiffMstResult r = diff_mst_optimize(bank, NumberRep::kCsd);
    EXPECT_LE(r.adders, simple_adder_cost(bank, NumberRep::kCsd));
  }
}

TEST(Ragn, CostOneTargetsNeedOneAdderEach) {
  // 3, 5, 9, 257 are all one adder away from x; 6 and 20 are free shifts
  // of realized values.
  const RagnResult r = ragn_optimize({3, 5, 9, 257, 6, 20});
  EXPECT_EQ(r.adders, 4);
  EXPECT_EQ(r.heuristic_steps, 0)
      << "every cost-1 value is one adder from x alone";
  EXPECT_EQ(r.optimal_steps, 4);
}

TEST(Ragn, ReusesFundamentalsAcrossTargets) {
  // 45 = 5·9: once 5 and 9 exist, 45 = (5<<3) + 5 or 45 = 9 + (9<<2)...
  // either way one more adder, total 3.
  const RagnResult r = ragn_optimize({5, 9, 45});
  EXPECT_EQ(r.adders, 3);
}

TEST(Ragn, NeverWorseThanSimpleOrPlainCsd) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<i64> bank;
    const int taps = static_cast<int>(rng.next_int(2, 20));
    for (int t = 0; t < taps; ++t) bank.push_back(rng.next_int(-4095, 4095));
    const RagnResult r = ragn_optimize(bank);
    EXPECT_LE(r.adders, simple_adder_cost(bank, NumberRep::kCsd));
  }
}

TEST(Ragn, BlockIsExact) {
  const std::vector<i64> bank = {7, 66, 17, 9, 27, 41, 57, 11, 0, -14};
  const RagnResult r = ragn_optimize(bank);
  const auto values = r.block.graph.evaluate(23);
  for (std::size_t i = 0; i < bank.size(); ++i) {
    ASSERT_EQ(r.block.product(i, values), bank[i] * 23);
  }
}

TEST(Ragn, TrivialBanks) {
  EXPECT_EQ(ragn_optimize({}).adders, 0);
  EXPECT_EQ(ragn_optimize({0, 64, -2}).adders, 0);
  EXPECT_EQ(ragn_optimize({3}).adders, 1);
}

TEST(Ragn, RefusesConstantsPastTheCsdRange) {
  // Near 2^63, target + (u << k) would overflow i64, so every bank with
  // a constant past 61 bits is refused at entry.
  for (const i64 wide : kPastCsdRange) {
    for (const std::vector<i64>& bank :
         {std::vector<i64>{wide}, std::vector<i64>{5, 0, wide, 7}}) {
      EXPECT_NE(error_of([&] { return ragn_optimize(bank); })
                    .find("ragn: constant exceeds 61 bits"),
                std::string::npos)
          << wide;
    }
  }
  // A 61-bit constant passes the entry check; its products overflow
  // only in the block's own verification.
  const std::string verify_error =
      error_of([] { return ragn_optimize({(i64{1} << 60) + 1}); });
  EXPECT_EQ(verify_error.find("exceeds 61 bits"), std::string::npos)
      << verify_error;
}

/// One golden RAG-n input: a bank, its number representation and the
/// one-adder test's shift bound (-1: derived from the widest constant).
struct RagnCase {
  std::string name;
  std::vector<i64> bank;
  NumberRep rep = NumberRep::kCsd;
  int max_shift = -1;
};

/// The golden inputs: the folded W=16 maximal and W=12 uniform Table-1
/// banks; the union banks of Nyquist(M) and half-band-cascade prototypes
/// (the banks the shared-bank decimators solve); 40 seeded random banks
/// of 30-130 constants of up to 21 bits, alternating CSD and
/// sign-magnitude; then six of those banks again at explicit shift
/// bounds 0, 1, 3 and 8.
std::vector<RagnCase> ragn_golden_cases() {
  std::vector<RagnCase> cases;
  for (const bool maximal : {true, false}) {
    for (int i = 0; i < 12; ++i) {
      const std::vector<double>& h = filter::catalog_coefficients(i);
      const number::QuantizedCoefficients q =
          maximal ? number::quantize_maximal(h, 16)
                  : number::quantize_uniform(h, 12);
      cases.push_back({(maximal ? "max16/" : "uni12/") + std::to_string(i),
                       core::optimization_bank(q.values())});
    }
  }
  const auto union_bank = [](const std::vector<double>& h, int wordlength) {
    return cache::shared_union_bank(
        {number::quantize_uniform(h, wordlength).values()});
  };
  for (const int m : {2, 3, 4, 6}) {
    cases.push_back(
        {"nyquist-M" + std::to_string(m),
         union_bank(filter::design_nyquist(m, 3, 60.0).analysis, 16)});
  }
  const std::vector<double> cascade =
      filter::design_halfband_cascade(0.34, 2e-3).h;
  cases.push_back({"halfband-cascade/12", union_bank(cascade, 12)});
  cases.push_back({"halfband-cascade/16", union_bank(cascade, 16)});
  Rng rng(2203);
  for (int k = 0; k < 40; ++k) {
    RagnCase c;
    c.name = "random/" + std::to_string(k);
    const i64 size = rng.next_int(30, 130);
    const i64 limit = (i64{1} << rng.next_int(12, 21)) - 1;
    for (i64 j = 0; j < size; ++j) c.bank.push_back(rng.next_int(-limit, limit));
    c.rep = k % 2 == 0 ? NumberRep::kCsd : NumberRep::kSignMagnitude;
    cases.push_back(c);
  }
  const std::size_t first_random = cases.size() - 40;
  for (const int max_shift : {0, 1, 3, 8}) {
    for (const std::size_t i : {std::size_t{11}, std::size_t{12},
                                std::size_t{23}, std::size_t{27},
                                first_random + 3, first_random + 8}) {
      RagnCase c = cases[i];
      c.name += " shift<=" + std::to_string(max_shift);
      c.max_shift = max_shift;
      cases.push_back(c);
    }
  }
  return cases;
}

/// FNV-1a digest of every golden case's inputs, in order.
u64 ragn_inputs_digest(const std::vector<RagnCase>& cases) {
  u64 h = kFnvOffset;
  for (const RagnCase& c : cases) {
    for (const i64 v : c.bank) h = fnv1a64_word(static_cast<u64>(v), h);
    h = fnv1a64_word(static_cast<u64>(c.rep), h);
    h = fnv1a64_word(static_cast<u64>(c.max_shift), h);
  }
  return h;
}

/// ragn_inputs_digest(ragn_golden_cases()) when the rows below were
/// captured, checked first so that a change to the catalog, the
/// quantizers or the designers fails with its own message.
constexpr u64 kRagnInputsDigest = 0xed6ae8e4a5931328ULL;

/// FNV-1a digest of a RAG-n block: every op in node order, then every
/// tap's node, shift, negation and constant in bank order.
u64 ragn_block_digest(const arch::MultiplierBlock& block) {
  std::vector<arch::AdderOp> ops;
  for (int node = 1; node < block.graph.num_nodes(); ++node) {
    ops.push_back(block.graph.op(node));
  }
  u64 h = ops_digest(ops, kFnvOffset);
  for (const arch::Tap& tap : block.taps) {
    h = fnv1a64_word(static_cast<u64>(tap.node), h);
    h = fnv1a64_word(static_cast<u64>(tap.shift), h);
    h = fnv1a64_word(tap.negate ? 1 : 0, h);
    h = fnv1a64_word(static_cast<u64>(tap.constant), h);
  }
  return h;
}

/// One pinned ragn_optimize() outcome.
struct RagnGolden {
  int adders;
  int optimal_steps;
  int heuristic_steps;
  u64 digest;  // ragn_block_digest
};

// Captured from the one-adder search that rescanned every available value
// for every remaining target; every later search must build the same
// graphs. Rows follow ragn_golden_cases().
const RagnGolden kRagnGolden[] = {
    {35, 2, 7, 0x71fa8012bf83ff00ULL},  // max16/0
    {48, 2, 9, 0xbfec045110fe29f1ULL},  // max16/1
    {53, 3, 11, 0x676696c28a601dbcULL},  // max16/2
    {71, 3, 14, 0x7ea78b7a73898c28ULL},  // max16/3
    {76, 5, 16, 0x900ad9729a8b7c59ULL},  // max16/4
    {80, 8, 15, 0xee55cec0e5bd5c78ULL},  // max16/5
    {81, 10, 17, 0xb9b8cbdac6956306ULL},  // max16/6
    {103, 12, 19, 0xa44ca64b4d61f162ULL},  // max16/7
    {100, 15, 19, 0xcfba891cdc807485ULL},  // max16/8
    {104, 18, 20, 0x9b3598ddeee6a177ULL},  // max16/9
    {116, 22, 21, 0x6e58f0432acf8ffdULL},  // max16/10
    {115, 32, 19, 0xd2658d9063b135c7ULL},  // max16/11
    {11, 5, 2, 0x3d4e65792c4fea16ULL},  // uni12/0
    {16, 7, 3, 0xc98d88031127c329ULL},  // uni12/1
    {16, 13, 1, 0xa4668cea67e08861ULL},  // uni12/2
    {14, 14, 0, 0x7f3548c8084aaf89ULL},  // uni12/3
    {15, 15, 0, 0xbda869ea8ee5b348ULL},  // uni12/4
    {15, 15, 0, 0x5d016d43cd2a48ffULL},  // uni12/5
    {18, 18, 0, 0xf85467f92f3e892eULL},  // uni12/6
    {27, 27, 0, 0x57428776f99f7dd3ULL},  // uni12/7
    {20, 20, 0, 0x5bc2c3732f439b8dULL},  // uni12/8
    {33, 30, 1, 0xe40429b277740b12ULL},  // uni12/9
    {25, 22, 1, 0x64ddd1f90b9830a4ULL},  // uni12/10
    {31, 27, 1, 0xaf71a3ca8f454959ULL},  // uni12/11
    {12, 1, 3, 0x5b1745ddeecbc0d1ULL},  // nyquist-M2
    {17, 3, 4, 0x6e80ce8d99da3bfaULL},  // nyquist-M3
    {27, 4, 6, 0xe645f56a391db1a9ULL},  // nyquist-M4
    {35, 9, 7, 0xe26143a1f7f4efa1ULL},  // nyquist-M6
    {10, 6, 1, 0xaf3c51b93ea3e8fbULL},  // halfband-cascade/12
    {21, 2, 5, 0xc84dec1287962a5cULL},  // halfband-cascade/16
    {219, 7, 37, 0x8161820b007c10ceULL},  // random/0
    {258, 10, 30, 0x08ad3b2a21c4e98dULL},  // random/1
    {307, 3, 50, 0x10c290708a09b431ULL},  // random/2
    {112, 112, 0, 0x6f30de9e620541b7ULL},  // random/3
    {104, 102, 1, 0x629dd21aa6a5e775ULL},  // random/4
    {127, 27, 16, 0x04567874a4b0850aULL},  // random/5
    {272, 18, 43, 0x2763f581790e136fULL},  // random/6
    {127, 68, 10, 0xa306f5aa4edff9b6ULL},  // random/7
    {145, 121, 6, 0x995f7afe2bdf8ab9ULL},  // random/8
    {180, 8, 23, 0xcb5c82ece14a48e0ULL},  // random/9
    {317, 19, 51, 0x316f4f8de643a75bULL},  // random/10
    {78, 78, 0, 0x605b3c0318985209ULL},  // random/11
    {99, 75, 7, 0x2aad34951807a3e3ULL},  // random/12
    {175, 9, 22, 0xdfe1d13ea381f0ecULL},  // random/13
    {311, 7, 51, 0xc9d59f8325e09b84ULL},  // random/14
    {125, 52, 12, 0x362625daee639d6cULL},  // random/15
    {57, 57, 0, 0x304ecd8b851648b9ULL},  // random/16
    {300, 8, 37, 0x4d8ddb6a8282c9e0ULL},  // random/17
    {127, 14, 24, 0xd87da8b753bc0a5cULL},  // random/18
    {145, 101, 8, 0xb3acb4c484b1a144ULL},  // random/19
    {387, 5, 60, 0xc79c4d2624f1830cULL},  // random/20
    {143, 119, 4, 0x348e3a35990420ccULL},  // random/21
    {252, 43, 41, 0x4eefc03bff29de04ULL},  // random/22
    {129, 16, 17, 0xf6503e1a0c25dbe2ULL},  // random/23
    {76, 65, 3, 0x0d9b346627e1675eULL},  // random/24
    {73, 34, 8, 0xac32ac8626f26047ULL},  // random/25
    {303, 74, 45, 0x00374e5bda05139cULL},  // random/26
    {460, 12, 49, 0x366cfea0fc2f3710ULL},  // random/27
    {189, 2, 30, 0xc9736b2ee695f68eULL},  // random/28
    {96, 49, 9, 0xe17958bbd9f5a313ULL},  // random/29
    {99, 57, 11, 0xe2493a07def870bdULL},  // random/30
    {778, 26, 84, 0xda54eff73570f82dULL},  // random/31
    {448, 32, 72, 0x22de73be4b2eedb7ULL},  // random/32
    {127, 118, 1, 0x77b158648e547612ULL},  // random/33
    {73, 73, 0, 0x7e0d7536536bc028ULL},  // random/34
    {122, 122, 0, 0xfd9c99ad590350aeULL},  // random/35
    {81, 45, 9, 0xe3ef5ad811b45597ULL},  // random/36
    {170, 116, 10, 0xa65fd10c1a4339b4ULL},  // random/37
    {91, 15, 18, 0x0c660fcc04c4c3c3ULL},  // random/38
    {174, 58, 18, 0x10df767cd2059169ULL},  // random/39
    {115, 32, 19, 0x9b915e265485c042ULL},  // max16/11 shift<=0
    {11, 5, 2, 0x452fc48725ee63f6ULL},  // uni12/0 shift<=0
    {31, 27, 1, 0x6a541f00fb29e6a6ULL},  // uni12/11 shift<=0
    {35, 9, 7, 0x2e62e48f806ba429ULL},  // nyquist-M6 shift<=0
    {112, 112, 0, 0x162353e26c269374ULL},  // random/3 shift<=0
    {145, 121, 6, 0xade28aef00265a14ULL},  // random/8 shift<=0
    {115, 32, 19, 0x15e2c031c1391102ULL},  // max16/11 shift<=1
    {11, 5, 2, 0x452fc48725ee63f6ULL},  // uni12/0 shift<=1
    {31, 27, 1, 0x6a541f00fb29e6a6ULL},  // uni12/11 shift<=1
    {35, 9, 7, 0x2e62e48f806ba429ULL},  // nyquist-M6 shift<=1
    {112, 112, 0, 0x0a6dd27ed6646643ULL},  // random/3 shift<=1
    {145, 121, 6, 0x787edee36c059743ULL},  // random/8 shift<=1
    {115, 32, 19, 0x7fe8c78e6343ef75ULL},  // max16/11 shift<=3
    {11, 5, 2, 0x452fc48725ee63f6ULL},  // uni12/0 shift<=3
    {31, 27, 1, 0x78e91d08bb6086cbULL},  // uni12/11 shift<=3
    {35, 9, 7, 0x22b970e59052eea9ULL},  // nyquist-M6 shift<=3
    {112, 112, 0, 0xa37e771288f08222ULL},  // random/3 shift<=3
    {145, 121, 6, 0x17f47e4ce3ab6802ULL},  // random/8 shift<=3
    {115, 32, 19, 0x0e75398652178c95ULL},  // max16/11 shift<=8
    {11, 5, 2, 0x3d4e65792c4fea16ULL},  // uni12/0 shift<=8
    {31, 27, 1, 0xaf71a3ca8f454959ULL},  // uni12/11 shift<=8
    {35, 9, 7, 0xe26143a1f7f4efa1ULL},  // nyquist-M6 shift<=8
    {112, 112, 0, 0x6cd732c323dd2207ULL},  // random/3 shift<=8
    {145, 121, 6, 0x5029bacceee94610ULL},  // random/8 shift<=8
};

TEST(Ragn, GoldenGraphs) {
  const std::vector<RagnCase> cases = ragn_golden_cases();
  ASSERT_EQ(ragn_inputs_digest(cases), kRagnInputsDigest)
      << "the golden banks changed (catalog, quantizers or designers), not "
         "RAG-n; recapture kRagnGolden from the new banks";
  ASSERT_EQ(std::size(kRagnGolden), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const RagnCase& c = cases[i];
    const RagnResult r = ragn_optimize(c.bank, c.rep, c.max_shift);
    const RagnGolden& want = kRagnGolden[i];
    EXPECT_EQ(r.adders, want.adders) << c.name;
    EXPECT_EQ(r.optimal_steps, want.optimal_steps) << c.name;
    EXPECT_EQ(r.heuristic_steps, want.heuristic_steps) << c.name;
    EXPECT_EQ(ragn_block_digest(r.block), want.digest) << c.name;
  }
}

TEST(Decor, DifferenceCoefficientsAreExactPolynomials) {
  // (1 − z^-1)·(5 + 3z^-1) = 5 − 2z^-1 − 3z^-2.
  EXPECT_EQ(decor_coefficients({5, 3}, 1), (std::vector<i64>{5, -2, -3}));
  // Order 0 is the identity.
  EXPECT_EQ(decor_coefficients({5, 3}, 0), (std::vector<i64>{5, 3}));
  // Second difference of a constant run collapses to the two end spikes.
  EXPECT_EQ(decor_coefficients({4, 4, 4}, 1),
            (std::vector<i64>{4, 0, 0, -4}));
}

TEST(Decor, HelpsOnCorrelatedCoefficientsOnly) {
  using number::NumberRep;
  // Smooth ramp: neighbours differ by 1 → first difference is trivial.
  const std::vector<i64> smooth = {100, 101, 102, 103, 104, 105};
  EXPECT_LT(decor_adder_cost(smooth, 1, NumberRep::kCsd),
            decor_adder_cost(smooth, 0, NumberRep::kCsd));
  EXPECT_EQ(decor_best_order(smooth, 3, NumberRep::kCsd) > 0, true);
  // White-ish coefficients: differencing does not pay (paper §1's point).
  const std::vector<i64> rough = {977, -350, 613, -87, 441, -900};
  EXPECT_EQ(decor_best_order(rough, 3, NumberRep::kCsd), 0);
}

TEST(Decor, FilterIsBitExactAgainstConvolution) {
  Rng rng(21);
  for (const int order : {0, 1, 2, 3}) {
    std::vector<i64> c;
    for (int k = 0; k < 9; ++k) c.push_back(rng.next_int(-255, 255));
    const DecorFilter filter(c, order, number::NumberRep::kCsd);
    std::vector<i64> x;
    for (int i = 0; i < 80; ++i) x.push_back(rng.next_int(-100, 100));
    EXPECT_EQ(filter.run(x), dsp::fir_filter_exact(c, {}, x))
        << "order " << order;
  }
}

TEST(Decor, CostAccountsIntegrators) {
  using number::NumberRep;
  const std::vector<i64> c = {64, 65, 66};
  const DecorFilter f(c, 1, NumberRep::kCsd);
  EXPECT_EQ(f.multiplier_adders(),
            decor_adder_cost(c, 1, NumberRep::kCsd));
  EXPECT_EQ(f.difference_coefficients(),
            decor_coefficients(c, 1));
  EXPECT_THROW(decor_coefficients(c, 99), Error);
}

}  // namespace
}  // namespace mrpf::baseline
