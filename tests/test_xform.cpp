// The e-graph rewrite pass (src/mrpf/xform + core/pass_manager).
//
// Two layers of coverage:
//  - EGraph units: deterministic saturation/extraction, known identities
//    the rewriter must find, the odd-fundamental admission rules, and
//    golden pins of saturate()/extract() on the Table-1 catalog banks, at
//    fixed budgets and at the budget boundaries, and saturation resumed
//    over several calls.
//  - The pass property, the contract everything downstream leans on:
//    for every scheme, over seeded random banks, the pass-optimized plan
//    re-lowers cleanly (every tap realizes its constant), streams
//    bit-identically to the pass-off plan, and never costs more adders.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "graph_digest.hpp"
#include "mrpf/arch/adder_graph.hpp"
#include "mrpf/common/error.hpp"
#include "mrpf/common/hash.hpp"
#include "mrpf/common/rng.hpp"
#include "mrpf/core/flow.hpp"
#include "mrpf/core/pass_manager.hpp"
#include "mrpf/core/plan_equality.hpp"
#include "mrpf/core/scheme.hpp"
#include "mrpf/core/stage_timers.hpp"
#include "mrpf/filter/catalog.hpp"
#include "mrpf/number/quantize.hpp"
#include "mrpf/sim/workload.hpp"
#include "mrpf/xform/egraph.hpp"

namespace mrpf {
namespace {

std::vector<arch::AdderOp> extract_ops(const std::vector<i64>& targets,
                                       long long budget) {
  xform::EGraph graph({}, targets);
  graph.saturate(budget);
  return graph.extract().ops;
}

TEST(EGraph, SingleCsdCheapTargetCostsOneAdder) {
  // 255 = 256 - 1: one subtractor, straight off the CSD seed chain.
  EXPECT_EQ(extract_ops({255}, 10'000).size(), 1u);
}

TEST(EGraph, NeverExceedsTheCsdChainCost) {
  // The CSD seed chain gives every odd target a baseline of
  // (nonzero CSD digits - 1) adders; saturation and extraction may only
  // improve on it. Sweep every odd value below 2^10.
  for (i64 v = 3; v < 1024; v += 2) {
    // Count nonzero digits of the non-adjacent form.
    int nonzero = 0;
    for (i64 r = v; r != 0;) {
      if (r & 1) {
        ++nonzero;
        r -= ((r & 3) == 3) ? -1 : 1;  // digit -1 or +1
      }
      r >>= 1;
    }
    EXPECT_LE(extract_ops({v}, 5'000).size(),
              static_cast<std::size_t>(nonzero - 1))
        << "target " << v;
  }
}

TEST(EGraph, SharedSubtermIsBuiltOnce) {
  // 5 and 45 = 5 * 9 share the 5: the DAG extraction pays for it once.
  EXPECT_EQ(extract_ops({5, 45}, 100'000).size(), 2u);
}

TEST(EGraph, ExtractionIsDeterministic) {
  const std::vector<i64> targets = {7, 66, 17, 9, 27, 41, 57, 11};
  std::vector<i64> odd;
  for (i64 t : targets) odd.push_back(odd_part(t));
  xform::EGraph a({}, odd);
  xform::EGraph b({}, odd);
  EXPECT_EQ(a.saturate(60'000), b.saturate(60'000));
  EXPECT_EQ(a.saturated(), b.saturated());
  EXPECT_EQ(a.num_classes(), b.num_classes());
  const xform::Extraction ea = a.extract();
  const xform::Extraction eb = b.extract();
  ASSERT_EQ(ea.ops.size(), eb.ops.size());
  for (std::size_t i = 0; i < ea.ops.size(); ++i) {
    EXPECT_TRUE(ea.ops[i].a == eb.ops[i].a && ea.ops[i].b == eb.ops[i].b &&
                ea.ops[i].shift_a == eb.ops[i].shift_a &&
                ea.ops[i].shift_b == eb.ops[i].shift_b &&
                ea.ops[i].subtract == eb.ops[i].subtract)
        << "op " << i;
  }
}

TEST(EGraph, ExtractionOpsReplayToTheirValues) {
  const std::vector<i64> targets = {3, 11, 45, 105, 999};
  xform::EGraph graph({}, targets);
  graph.saturate(250'000);
  const xform::Extraction ex = graph.extract();
  // Replay the op list: node 0 carries 1, node k+1 carries ops[k].
  std::vector<i64> value = {1};
  for (const arch::AdderOp& op : ex.ops) {
    const i64 a = value[static_cast<std::size_t>(op.a)] << op.shift_a;
    const i64 b = value[static_cast<std::size_t>(op.b)] << op.shift_b;
    value.push_back(op.subtract ? a - b : a + b);
  }
  for (const i64 t : targets) {
    const auto it = ex.node_of.find(t);
    ASSERT_NE(it, ex.node_of.end()) << "target " << t;
    EXPECT_EQ(value[static_cast<std::size_t>(it->second)], t);
  }
}

TEST(EGraph, BudgetZeroStillRealizesEveryTarget) {
  // The CSD seed chains alone must cover the targets — saturation only
  // improves on them.
  const std::vector<i64> targets = {23, 171, 1001};
  xform::EGraph graph({}, targets);
  EXPECT_EQ(graph.saturate(0), 0);
  EXPECT_FALSE(graph.saturated());
  const xform::Extraction ex = graph.extract();
  for (const i64 t : targets) {
    EXPECT_TRUE(ex.node_of.count(t)) << "target " << t;
  }
}

/// Sorted unique odd parts of a bank's non-zero constants: the targets
/// the pass hands the e-graph (core/pass_manager.cpp).
std::vector<i64> odd_targets(const std::vector<i64>& bank) {
  std::vector<i64> targets;
  for (const i64 c : bank) {
    if (c != 0) targets.push_back(odd_part(c));
  }
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  return targets;
}

/// FNV-1a digest of an extraction: every op field in order, then each
/// target's node in ascending target order.
u64 extraction_digest(const xform::Extraction& ex) {
  u64 h = ops_digest(ex.ops, kFnvOffset);
  std::vector<std::pair<i64, int>> nodes(ex.node_of.begin(), ex.node_of.end());
  std::sort(nodes.begin(), nodes.end());
  for (const auto& [target, node] : nodes) {
    h = fnv1a64_word(static_cast<u64>(target), h);
    h = fnv1a64_word(static_cast<u64>(node), h);
  }
  return h;
}

struct GoldenCase {
  std::string name;
  std::vector<arch::AdderOp> plan_ops;
  std::vector<i64> targets;
};

/// The golden inputs: the folded W=16 maximal and W=12 uniform Table-1
/// banks, each seeded with the mrpf driver's plan ops (seeding fills the
/// class cap on every W=16 bank and on 4 of the W=12 banks; the rest fill
/// it early in the first round), then three target sets with no plan.
/// Those seed far below the cap, so saturation admits classes mid-round
/// over several rounds ({5, 45} never reaches the cap), and the one above
/// 2^40 gives the class index wide keys.
std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  for (const bool maximal : {true, false}) {
    for (int i = 0; i < 12; ++i) {
      const std::vector<double>& h = filter::catalog_coefficients(i);
      const number::QuantizedCoefficients q =
          maximal ? number::quantize_maximal(h, 16)
                  : number::quantize_uniform(h, 12);
      const std::vector<i64> bank = core::optimization_bank(q.values());
      const core::SchemeResult r =
          core::optimize_bank(bank, core::Scheme::kMrp, core::MrpOptions{});
      cases.push_back({(maximal ? "max16/" : "uni12/") + std::to_string(i),
                       r.plan.ops, odd_targets(bank)});
    }
  }
  cases.push_back({"{5,45}", {}, {5, 45}});
  cases.push_back({"{3,11,45,105,999}", {}, {3, 11, 45, 105, 999}});
  cases.push_back({"{2^41+2^17-1}", {}, {(i64{1} << 41) + (i64{1} << 17) - 1}});
  return cases;
}

/// FNV-1a digest of every golden case's inputs: its seed plan ops, then
/// its targets.
u64 inputs_digest(const std::vector<GoldenCase>& cases) {
  u64 h = kFnvOffset;
  for (const GoldenCase& c : cases) {
    h = ops_digest(c.plan_ops, h);
    for (const i64 t : c.targets) h = fnv1a64_word(static_cast<u64>(t), h);
  }
  return h;
}

/// inputs_digest(golden_cases()) when the rows below were captured. The
/// test checks it first, so a change to the mrpf driver's plans (or to
/// the catalog or the quantizers) fails with its own message rather than
/// as e-graph digest mismatches; such a change requires recapturing the
/// rows.
constexpr u64 kGoldenInputsDigest = 0x88a9bc5f6cfbaf38ULL;

/// One pinned saturate()/extract() outcome.
struct GoldenRun {
  long long steps;
  bool saturated;
  std::size_t classes;
  std::size_t ops;
  u64 digest;  // extraction_digest
};

// Captured before the class index became an open-addressed table; every
// later change to the index or the saturation loop must reproduce these
// exactly. Rows follow golden_cases(), budget 10'000 (cuts the first
// round) then 500'000 (reaches the fixpoint).
const GoldenRun kGoldenRuns[] = {
    {10000, false, 160, 28, 0xd02c0dd4261e2128ULL},  // max16/0 @10000
    {166424, true, 160, 22, 0x1121bb9614f1542eULL},  // max16/0 @500000
    {10000, false, 160, 38, 0xce46efacea35506bULL},  // max16/1 @10000
    {157660, true, 160, 28, 0xdf63a114e03e87c2ULL},  // max16/1 @500000
    {10000, false, 160, 38, 0x1bb83c68b3016177ULL},  // max16/2 @10000
    {157005, true, 160, 32, 0xf31416ec3b874b83ULL},  // max16/2 @500000
    {10000, false, 160, 42, 0x256e762b9597ac19ULL},  // max16/3 @10000
    {156874, true, 160, 39, 0x661ab4aa90adbd6eULL},  // max16/3 @500000
    {10000, false, 160, 51, 0x16b323bf010a0ab2ULL},  // max16/4 @10000
    {162271, true, 160, 45, 0xb7052895648af407ULL},  // max16/4 @500000
    {10000, false, 160, 65, 0x2e9baadabfacb0f0ULL},  // max16/5 @10000
    {156278, true, 160, 49, 0xd982e0a611684a66ULL},  // max16/5 @500000
    {10000, false, 160, 68, 0xf4ab7e67bd2010efULL},  // max16/6 @10000
    {161479, true, 160, 54, 0xf61d6358f41c859cULL},  // max16/6 @500000
    {10000, false, 160, 71, 0x2fc007cdd1991e5aULL},  // max16/7 @10000
    {161810, true, 160, 57, 0x556758e571a833dcULL},  // max16/7 @500000
    {10000, false, 160, 77, 0x70de341d7ef2555dULL},  // max16/8 @10000
    {156071, true, 160, 67, 0xf1ce87b360d7c387ULL},  // max16/8 @500000
    {10000, false, 160, 85, 0x8cb102dcc7256428ULL},  // max16/9 @10000
    {158979, true, 160, 68, 0xe5d3ccef40b2f6caULL},  // max16/9 @500000
    {10000, false, 160, 86, 0xfe0af97ffb3688adULL},  // max16/10 @10000
    {150624, true, 160, 76, 0xa7c495352372d58dULL},  // max16/10 @500000
    {10000, false, 160, 100, 0xc86903839815cc7dULL},  // max16/11 @10000
    {144445, true, 160, 80, 0x943d46af94271459ULL},  // max16/11 @500000
    {10000, false, 160, 10, 0x86cf71144e064488ULL},  // uni12/0 @10000
    {89125, true, 160, 10, 0x86cf71144e064488ULL},  // uni12/0 @500000
    {10000, false, 160, 14, 0x89b28b22ad2098faULL},  // uni12/1 @10000
    {101230, true, 160, 14, 0x89b28b22ad2098faULL},  // uni12/1 @500000
    {10000, false, 160, 15, 0x4c23540641549cd0ULL},  // uni12/2 @10000
    {103264, true, 160, 15, 0x4c23540641549cd0ULL},  // uni12/2 @500000
    {10000, false, 160, 14, 0xe78440194a8fba89ULL},  // uni12/3 @10000
    {98083, true, 160, 14, 0xe78440194a8fba89ULL},  // uni12/3 @500000
    {10000, false, 160, 15, 0x287e979128c81cc2ULL},  // uni12/4 @10000
    {103283, true, 160, 15, 0x287e979128c81cc2ULL},  // uni12/4 @500000
    {10000, false, 160, 15, 0x566537344a7e3b38ULL},  // uni12/5 @10000
    {99589, true, 160, 15, 0x566537344a7e3b38ULL},  // uni12/5 @500000
    {10000, false, 160, 18, 0x764b16d42298f562ULL},  // uni12/6 @10000
    {97117, true, 160, 18, 0x764b16d42298f562ULL},  // uni12/6 @500000
    {10000, false, 160, 29, 0x74512e3328aa90aaULL},  // uni12/7 @10000
    {111964, true, 160, 29, 0x74512e3328aa90aaULL},  // uni12/7 @500000
    {10000, false, 160, 20, 0xcc939f27c856eb58ULL},  // uni12/8 @10000
    {103326, true, 160, 20, 0xcc939f27c856eb58ULL},  // uni12/8 @500000
    {10000, false, 160, 33, 0x981642a1190e7832ULL},  // uni12/9 @10000
    {109831, true, 160, 33, 0x981642a1190e7832ULL},  // uni12/9 @500000
    {10000, false, 160, 25, 0x34de92768941c0adULL},  // uni12/10 @10000
    {106828, true, 160, 25, 0x34de92768941c0adULL},  // uni12/10 @500000
    {10000, false, 160, 29, 0xaa1f93eb1eb5b7d8ULL},  // uni12/11 @10000
    {110108, true, 160, 29, 0xaa1f93eb1eb5b7d8ULL},  // uni12/11 @500000
    {6112, true, 64, 2, 0xb5eb30843302d9cfULL},  // {5,45} @10000
    {6112, true, 64, 2, 0xb5eb30843302d9cfULL},  // {5,45} @500000
    {10000, false, 160, 7, 0x4a9861f8b7e6479aULL},  // {3,11,45,105,999} @10000
    {76355, true, 160, 7, 0x4a9861f8b7e6479aULL},  // {3,11,45,105,999} @500000
    {10000, false, 160, 2, 0x544f942590279116ULL},  // {2^41+2^17-1} @10000
    {387147, true, 160, 2, 0x544f942590279116ULL},  // {2^41+2^17-1} @500000
};

/// Runs saturate(budget) on `graph`, then extracts, and checks every
/// field of the outcome against `want`.
void expect_golden_run(xform::EGraph& graph, long long budget,
                       const GoldenRun& want, const std::string& where) {
  EXPECT_EQ(graph.saturate(budget), want.steps) << where;
  EXPECT_EQ(graph.saturated(), want.saturated) << where;
  EXPECT_EQ(graph.num_classes(), want.classes) << where;
  const xform::Extraction ex = graph.extract();
  EXPECT_EQ(ex.ops.size(), want.ops) << where;
  EXPECT_EQ(extraction_digest(ex), want.digest) << where;
}

TEST(EGraph, GoldenOnCatalogBanks) {
  const std::vector<GoldenCase> cases = golden_cases();
  ASSERT_EQ(inputs_digest(cases), kGoldenInputsDigest)
      << "the seed plans changed (mrpf driver, catalog or quantizer), not "
         "the e-graph; recapture kGoldenRuns from the new seeds";
  ASSERT_EQ(std::size(kGoldenRuns), 2 * cases.size());
  std::size_t row = 0;
  for (const GoldenCase& c : cases) {
    for (const long long budget : {10'000LL, 500'000LL}) {
      xform::EGraph graph(c.plan_ops, c.targets);
      expect_golden_run(graph, budget, kGoldenRuns[row++],
                        c.name + " @" + std::to_string(budget));
    }
  }
}

// Captured before saturation finished a round in one capped pass once the
// class cap is full. Rows follow golden_cases(), six per case: budgets
// 1, 1'000 and 60'000; the case's fixpoint step count F (its @500000 row
// in kGoldenRuns) -1, exact and +1, so a budget that ends one step short
// reads exhausted and the exact one saturated. Every case seeded below
// the cap except {5,45} fills it within its first 100 steps, in the
// middle of round one, so these rows cut the loop, the hand-over to the
// capped pass and the capped pass.
const GoldenRun kBoundaryRuns[] = {
    {1, false, 160, 29, 0x91446c3bc977ae73ULL},  // max16/0 @1
    {1000, false, 160, 28, 0xd02c0dd4261e2128ULL},  // max16/0 @1000
    {60000, false, 160, 22, 0x1121bb9614f1542eULL},  // max16/0 @60000
    {166423, false, 160, 22, 0x1121bb9614f1542eULL},  // max16/0 @F-1
    {166424, true, 160, 22, 0x1121bb9614f1542eULL},  // max16/0 @F
    {166424, true, 160, 22, 0x1121bb9614f1542eULL},  // max16/0 @F+1
    {1, false, 160, 40, 0xc3774145daed81cbULL},  // max16/1 @1
    {1000, false, 160, 38, 0xce46efacea35506bULL},  // max16/1 @1000
    {60000, false, 160, 28, 0xdf63a114e03e87c2ULL},  // max16/1 @60000
    {157659, false, 160, 28, 0xdf63a114e03e87c2ULL},  // max16/1 @F-1
    {157660, true, 160, 28, 0xdf63a114e03e87c2ULL},  // max16/1 @F
    {157660, true, 160, 28, 0xdf63a114e03e87c2ULL},  // max16/1 @F+1
    {1, false, 160, 41, 0x71715ea8a8720419ULL},  // max16/2 @1
    {1000, false, 160, 38, 0x1bb83c68b3016177ULL},  // max16/2 @1000
    {60000, false, 160, 32, 0xf31416ec3b874b83ULL},  // max16/2 @60000
    {157004, false, 160, 32, 0xf31416ec3b874b83ULL},  // max16/2 @F-1
    {157005, true, 160, 32, 0xf31416ec3b874b83ULL},  // max16/2 @F
    {157005, true, 160, 32, 0xf31416ec3b874b83ULL},  // max16/2 @F+1
    {1, false, 160, 43, 0x41715550b50e00d8ULL},  // max16/3 @1
    {1000, false, 160, 42, 0x256e762b9597ac19ULL},  // max16/3 @1000
    {60000, false, 160, 40, 0x8727d4dd80b0afaaULL},  // max16/3 @60000
    {156873, false, 160, 39, 0x661ab4aa90adbd6eULL},  // max16/3 @F-1
    {156874, true, 160, 39, 0x661ab4aa90adbd6eULL},  // max16/3 @F
    {156874, true, 160, 39, 0x661ab4aa90adbd6eULL},  // max16/3 @F+1
    {1, false, 160, 55, 0x09491b4d476948e8ULL},  // max16/4 @1
    {1000, false, 160, 52, 0x907276eebdf58fc4ULL},  // max16/4 @1000
    {60000, false, 160, 48, 0x3694f2172800108cULL},  // max16/4 @60000
    {162270, false, 160, 45, 0xb7052895648af407ULL},  // max16/4 @F-1
    {162271, true, 160, 45, 0xb7052895648af407ULL},  // max16/4 @F
    {162271, true, 160, 45, 0xb7052895648af407ULL},  // max16/4 @F+1
    {1, false, 160, 65, 0x99327a098cc61cb4ULL},  // max16/5 @1
    {1000, false, 160, 65, 0xc01360ef56bd2771ULL},  // max16/5 @1000
    {60000, false, 160, 54, 0x753ab7ae9c072ae5ULL},  // max16/5 @60000
    {156277, false, 160, 49, 0xd982e0a611684a66ULL},  // max16/5 @F-1
    {156278, true, 160, 49, 0xd982e0a611684a66ULL},  // max16/5 @F
    {156278, true, 160, 49, 0xd982e0a611684a66ULL},  // max16/5 @F+1
    {1, false, 160, 71, 0x3b0f6f53b8f994e5ULL},  // max16/6 @1
    {1000, false, 160, 69, 0xa9bd6cb9fdbc3981ULL},  // max16/6 @1000
    {60000, false, 160, 58, 0x33b5e1835d759f4cULL},  // max16/6 @60000
    {161478, false, 160, 54, 0xf61d6358f41c859cULL},  // max16/6 @F-1
    {161479, true, 160, 54, 0xf61d6358f41c859cULL},  // max16/6 @F
    {161479, true, 160, 54, 0xf61d6358f41c859cULL},  // max16/6 @F+1
    {1, false, 160, 75, 0x61a15fbec721480dULL},  // max16/7 @1
    {1000, false, 160, 74, 0x6a3f95bdc1355cc7ULL},  // max16/7 @1000
    {60000, false, 160, 60, 0x59ac0dda837d8b33ULL},  // max16/7 @60000
    {161809, false, 160, 57, 0x556758e571a833dcULL},  // max16/7 @F-1
    {161810, true, 160, 57, 0x556758e571a833dcULL},  // max16/7 @F
    {161810, true, 160, 57, 0x556758e571a833dcULL},  // max16/7 @F+1
    {1, false, 160, 83, 0xa55c3028e20b5902ULL},  // max16/8 @1
    {1000, false, 160, 82, 0xb1ab84298e2bdf2cULL},  // max16/8 @1000
    {60000, false, 160, 71, 0x51600a3d3ded67d1ULL},  // max16/8 @60000
    {156070, false, 160, 67, 0xf1ce87b360d7c387ULL},  // max16/8 @F-1
    {156071, true, 160, 67, 0xf1ce87b360d7c387ULL},  // max16/8 @F
    {156071, true, 160, 67, 0xf1ce87b360d7c387ULL},  // max16/8 @F+1
    {1, false, 160, 95, 0xb489809e0661db40ULL},  // max16/9 @1
    {1000, false, 160, 94, 0xabf25eadb8ea1076ULL},  // max16/9 @1000
    {60000, false, 160, 77, 0x8f3fc2cbd952afa0ULL},  // max16/9 @60000
    {158978, false, 160, 68, 0xe5d3ccef40b2f6caULL},  // max16/9 @F-1
    {158979, true, 160, 68, 0xe5d3ccef40b2f6caULL},  // max16/9 @F
    {158979, true, 160, 68, 0xe5d3ccef40b2f6caULL},  // max16/9 @F+1
    {1, false, 160, 97, 0x2a42211415a23bc1ULL},  // max16/10 @1
    {1000, false, 160, 92, 0x3c56cd0af5dcfef8ULL},  // max16/10 @1000
    {60000, false, 160, 77, 0xe523a5b18e0b4bb2ULL},  // max16/10 @60000
    {150623, false, 160, 76, 0xa7c495352372d58dULL},  // max16/10 @F-1
    {150624, true, 160, 76, 0xa7c495352372d58dULL},  // max16/10 @F
    {150624, true, 160, 76, 0xa7c495352372d58dULL},  // max16/10 @F+1
    {1, false, 160, 107, 0xb24af46483f85f0eULL},  // max16/11 @1
    {1000, false, 160, 103, 0xe9aefda0b502d495ULL},  // max16/11 @1000
    {60000, false, 160, 89, 0x24474b1f4d525ea5ULL},  // max16/11 @60000
    {144444, false, 160, 80, 0x943d46af94271459ULL},  // max16/11 @F-1
    {144445, true, 160, 80, 0x943d46af94271459ULL},  // max16/11 @F
    {144445, true, 160, 80, 0x943d46af94271459ULL},  // max16/11 @F+1
    {1, false, 76, 10, 0x86cf71144e064488ULL},  // uni12/0 @1
    {1000, false, 160, 10, 0x86cf71144e064488ULL},  // uni12/0 @1000
    {60000, false, 160, 10, 0x86cf71144e064488ULL},  // uni12/0 @60000
    {89124, false, 160, 10, 0x86cf71144e064488ULL},  // uni12/0 @F-1
    {89125, true, 160, 10, 0x86cf71144e064488ULL},  // uni12/0 @F
    {89125, true, 160, 10, 0x86cf71144e064488ULL},  // uni12/0 @F+1
    {1, false, 119, 16, 0xed224dd76a82ba1dULL},  // uni12/1 @1
    {1000, false, 160, 14, 0x89b28b22ad2098faULL},  // uni12/1 @1000
    {60000, false, 160, 14, 0x89b28b22ad2098faULL},  // uni12/1 @60000
    {101229, false, 160, 14, 0x89b28b22ad2098faULL},  // uni12/1 @F-1
    {101230, true, 160, 14, 0x89b28b22ad2098faULL},  // uni12/1 @F
    {101230, true, 160, 14, 0x89b28b22ad2098faULL},  // uni12/1 @F+1
    {1, false, 120, 15, 0x4c23540641549cd0ULL},  // uni12/2 @1
    {1000, false, 160, 15, 0x4c23540641549cd0ULL},  // uni12/2 @1000
    {60000, false, 160, 15, 0x4c23540641549cd0ULL},  // uni12/2 @60000
    {103263, false, 160, 15, 0x4c23540641549cd0ULL},  // uni12/2 @F-1
    {103264, true, 160, 15, 0x4c23540641549cd0ULL},  // uni12/2 @F
    {103264, true, 160, 15, 0x4c23540641549cd0ULL},  // uni12/2 @F+1
    {1, false, 101, 14, 0xe78440194a8fba89ULL},  // uni12/3 @1
    {1000, false, 160, 14, 0xe78440194a8fba89ULL},  // uni12/3 @1000
    {60000, false, 160, 14, 0xe78440194a8fba89ULL},  // uni12/3 @60000
    {98082, false, 160, 14, 0xe78440194a8fba89ULL},  // uni12/3 @F-1
    {98083, true, 160, 14, 0xe78440194a8fba89ULL},  // uni12/3 @F
    {98083, true, 160, 14, 0xe78440194a8fba89ULL},  // uni12/3 @F+1
    {1, false, 120, 15, 0x287e979128c81cc2ULL},  // uni12/4 @1
    {1000, false, 160, 15, 0x287e979128c81cc2ULL},  // uni12/4 @1000
    {60000, false, 160, 15, 0x287e979128c81cc2ULL},  // uni12/4 @60000
    {103282, false, 160, 15, 0x287e979128c81cc2ULL},  // uni12/4 @F-1
    {103283, true, 160, 15, 0x287e979128c81cc2ULL},  // uni12/4 @F
    {103283, true, 160, 15, 0x287e979128c81cc2ULL},  // uni12/4 @F+1
    {1, false, 104, 15, 0x566537344a7e3b38ULL},  // uni12/5 @1
    {1000, false, 160, 15, 0x566537344a7e3b38ULL},  // uni12/5 @1000
    {60000, false, 160, 15, 0x566537344a7e3b38ULL},  // uni12/5 @60000
    {99588, false, 160, 15, 0x566537344a7e3b38ULL},  // uni12/5 @F-1
    {99589, true, 160, 15, 0x566537344a7e3b38ULL},  // uni12/5 @F
    {99589, true, 160, 15, 0x566537344a7e3b38ULL},  // uni12/5 @F+1
    {1, false, 93, 18, 0x764b16d42298f562ULL},  // uni12/6 @1
    {1000, false, 160, 18, 0x764b16d42298f562ULL},  // uni12/6 @1000
    {60000, false, 160, 18, 0x764b16d42298f562ULL},  // uni12/6 @60000
    {97116, false, 160, 18, 0x764b16d42298f562ULL},  // uni12/6 @F-1
    {97117, true, 160, 18, 0x764b16d42298f562ULL},  // uni12/6 @F
    {97117, true, 160, 18, 0x764b16d42298f562ULL},  // uni12/6 @F+1
    {1, false, 160, 29, 0x74512e3328aa90aaULL},  // uni12/7 @1
    {1000, false, 160, 29, 0x74512e3328aa90aaULL},  // uni12/7 @1000
    {60000, false, 160, 29, 0x74512e3328aa90aaULL},  // uni12/7 @60000
    {111963, false, 160, 29, 0x74512e3328aa90aaULL},  // uni12/7 @F-1
    {111964, true, 160, 29, 0x74512e3328aa90aaULL},  // uni12/7 @F
    {111964, true, 160, 29, 0x74512e3328aa90aaULL},  // uni12/7 @F+1
    {1, false, 119, 20, 0xcc939f27c856eb58ULL},  // uni12/8 @1
    {1000, false, 160, 20, 0xcc939f27c856eb58ULL},  // uni12/8 @1000
    {60000, false, 160, 20, 0xcc939f27c856eb58ULL},  // uni12/8 @60000
    {103325, false, 160, 20, 0xcc939f27c856eb58ULL},  // uni12/8 @F-1
    {103326, true, 160, 20, 0xcc939f27c856eb58ULL},  // uni12/8 @F
    {103326, true, 160, 20, 0xcc939f27c856eb58ULL},  // uni12/8 @F+1
    {1, false, 160, 33, 0x981642a1190e7832ULL},  // uni12/9 @1
    {1000, false, 160, 33, 0x981642a1190e7832ULL},  // uni12/9 @1000
    {60000, false, 160, 33, 0x981642a1190e7832ULL},  // uni12/9 @60000
    {109830, false, 160, 33, 0x981642a1190e7832ULL},  // uni12/9 @F-1
    {109831, true, 160, 33, 0x981642a1190e7832ULL},  // uni12/9 @F
    {109831, true, 160, 33, 0x981642a1190e7832ULL},  // uni12/9 @F+1
    {1, false, 160, 25, 0x34de92768941c0adULL},  // uni12/10 @1
    {1000, false, 160, 25, 0x34de92768941c0adULL},  // uni12/10 @1000
    {60000, false, 160, 25, 0x34de92768941c0adULL},  // uni12/10 @60000
    {106827, false, 160, 25, 0x34de92768941c0adULL},  // uni12/10 @F-1
    {106828, true, 160, 25, 0x34de92768941c0adULL},  // uni12/10 @F
    {106828, true, 160, 25, 0x34de92768941c0adULL},  // uni12/10 @F+1
    {1, false, 160, 29, 0xaa1f93eb1eb5b7d8ULL},  // uni12/11 @1
    {1000, false, 160, 29, 0xaa1f93eb1eb5b7d8ULL},  // uni12/11 @1000
    {60000, false, 160, 29, 0xaa1f93eb1eb5b7d8ULL},  // uni12/11 @60000
    {110107, false, 160, 29, 0xaa1f93eb1eb5b7d8ULL},  // uni12/11 @F-1
    {110108, true, 160, 29, 0xaa1f93eb1eb5b7d8ULL},  // uni12/11 @F
    {110108, true, 160, 29, 0xaa1f93eb1eb5b7d8ULL},  // uni12/11 @F+1
    {1, false, 7, 2, 0xb5eb30843302d9cfULL},  // {5,45} @1
    {1000, false, 64, 2, 0xb5eb30843302d9cfULL},  // {5,45} @1000
    {6112, true, 64, 2, 0xb5eb30843302d9cfULL},  // {5,45} @60000
    {6111, false, 64, 2, 0xb5eb30843302d9cfULL},  // {5,45} @F-1
    {6112, true, 64, 2, 0xb5eb30843302d9cfULL},  // {5,45} @F
    {6112, true, 64, 2, 0xb5eb30843302d9cfULL},  // {5,45} @F+1
    {1, false, 31, 9, 0x9655b0ee1d4d425aULL},  // {3,11,45,105,999} @1
    {1000, false, 160, 7, 0x6da086ae0d1a1097ULL},  // {3,11,45,105,999} @1000
    {60000, false, 160, 7, 0x4a9861f8b7e6479aULL},  // {3,11,45,105,999} @60000
    {76354, false, 160, 7, 0x4a9861f8b7e6479aULL},  // {3,11,45,105,999} @F-1
    {76355, true, 160, 7, 0x4a9861f8b7e6479aULL},  // {3,11,45,105,999} @F
    {76355, true, 160, 7, 0x4a9861f8b7e6479aULL},  // {3,11,45,105,999} @F+1
    {1, false, 4, 2, 0x544f942590279116ULL},  // {2^41+2^17-1} @1
    {1000, false, 160, 2, 0x544f942590279116ULL},  // {2^41+2^17-1} @1000
    {60000, false, 160, 2, 0x544f942590279116ULL},  // {2^41+2^17-1} @60000
    {387146, false, 160, 2, 0x544f942590279116ULL},  // {2^41+2^17-1} @F-1
    {387147, true, 160, 2, 0x544f942590279116ULL},  // {2^41+2^17-1} @F
    {387147, true, 160, 2, 0x544f942590279116ULL},  // {2^41+2^17-1} @F+1
};

TEST(EGraph, GoldenAtBudgetBoundaries) {
  const std::vector<GoldenCase> cases = golden_cases();
  ASSERT_EQ(inputs_digest(cases), kGoldenInputsDigest)
      << "the seed plans changed (mrpf driver, catalog or quantizer), not "
         "the e-graph; recapture kBoundaryRuns from the new seeds";
  ASSERT_EQ(std::size(kBoundaryRuns), 6 * cases.size());
  const GoldenRun* want = kBoundaryRuns;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const GoldenCase& c = cases[i];
    const GoldenRun& fixpoint_run = kGoldenRuns[2 * i + 1];
    ASSERT_TRUE(fixpoint_run.saturated) << c.name;
    const long long fixpoint = fixpoint_run.steps;
    for (const long long budget : {1LL, 1'000LL, 60'000LL, fixpoint - 1,
                                   fixpoint, fixpoint + 1}) {
      xform::EGraph graph(c.plan_ops, c.targets);
      expect_golden_run(graph, budget, *want++,
                        c.name + " @" + std::to_string(budget));
    }
    // A second call resumes where a cut first call stopped, so it ends on
    // the fixpoint graph after the F - N steps the first call left.
    for (const long long first : {1LL, 100LL}) {
      xform::EGraph graph(c.plan_ops, c.targets);
      EXPECT_EQ(graph.saturate(first), first) << c.name;
      GoldenRun rest = fixpoint_run;
      rest.steps = fixpoint - first;
      expect_golden_run(graph, 500'000, rest,
                        c.name + " @" + std::to_string(first) + ";2nd");
    }
  }
}

/// Everything saturate() leaves observable: the steps spent so far, the
/// fixpoint flag, the class count and the extraction.
struct SaturationState {
  long long steps = 0;
  bool saturated = false;
  std::size_t classes = 0;
  u64 digest = 0;
  bool operator==(const SaturationState&) const = default;
};

SaturationState state_after(const xform::EGraph& graph, long long steps) {
  return {steps, graph.saturated(), graph.num_classes(),
          extraction_digest(graph.extract())};
}

TEST(EGraph, SplitSaturationMatchesOneCall) {
  // saturate(a) then saturate(b) must build what saturate(a + b) builds,
  // in the same total steps, wherever the budget cuts the first call:
  // before the cap fills (the loop), at the hand-over, inside the capped
  // pass (every max16 bank fills the cap while seeding), one step short
  // of the fixpoint, and at it.
  const std::vector<GoldenCase> cases = golden_cases();
  ASSERT_EQ(inputs_digest(cases), kGoldenInputsDigest);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const GoldenCase& c = cases[i];
    const long long fixpoint = kGoldenRuns[2 * i + 1].steps;
    for (const long long a : {0LL, 1LL, 37LL, 1'000LL, 60'000LL,
                              fixpoint - 1, fixpoint}) {
      for (const long long b : {1LL, 4'321LL, fixpoint}) {
        xform::EGraph whole(c.plan_ops, c.targets);
        const SaturationState want = state_after(whole, whole.saturate(a + b));
        xform::EGraph split(c.plan_ops, c.targets);
        const long long first = split.saturate(a);
        const SaturationState got =
            state_after(split, first + split.saturate(b));
        EXPECT_TRUE(got == want)
            << c.name << " a=" << a << " b=" << b << ": steps " << got.steps
            << " vs " << want.steps << ", saturated " << got.saturated
            << " vs " << want.saturated << ", classes " << got.classes
            << " vs " << want.classes;
      }
    }
  }
}

TEST(EGraph, RefusesATargetSeedingCannotBuild) {
  // The CSD chain of each of these 61-bit targets stops at a partial sum
  // past the bit limit, so alone it gets no construction and the
  // constructor refuses it. Beside 299 the pairwise seeds build it, and
  // it extracts as it did before the check (rows captured then, at
  // budgets 0, 60'000 and 500'000).
  const i64 wide[] = {1813370438660934841, 2190237510760612465};
  const GoldenRun beside_299[] = {
      {0, false, 78, 29, 0x00ff4673da2138c5ULL},
      {60000, false, 160, 29, 0x00ff4673da2138c5ULL},
      {500000, false, 160, 21, 0xf3b68ef5009a67faULL},
      {0, false, 74, 28, 0xf4d10bbaadc4057eULL},
      {60000, false, 160, 17, 0x13e23a1e2ffc2323ULL},
      {500000, false, 160, 17, 0x13e23a1e2ffc2323ULL},
  };
  const GoldenRun* want = beside_299;
  for (const i64 t : wide) {
    try {
      xform::EGraph alone({}, {t});
      ADD_FAILURE() << t << " alone was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("target exceeds the value range"),
                std::string::npos)
          << e.what();
    }
    for (const long long budget : {0LL, 60'000LL, 500'000LL}) {
      xform::EGraph graph({}, {299, t});
      expect_golden_run(graph, budget, *want++,
                        "{299, " + std::to_string(t) + "} @" +
                            std::to_string(budget));
    }
  }
}

TEST(EGraph, LeavesATargetTheClassCapCutToSaturation) {
  // These 42 targets' CSD chains fill the class cap while seeding, so one
  // target's chain is cut short and only saturation gives it a
  // construction (below its fixpoint, extract() throws). The constructor
  // must accept the set, and the fixpoint extracts as it did before the
  // constructor checked targets (row captured then).
  const std::vector<i64> targets = {
      16575, 16659, 16713, 16957, 17399, 17563, 17777, 18835, 19171,
      19307, 19359, 19457, 19989, 20109, 20571, 20587, 21445, 22109,
      22205, 22393, 22429, 22537, 23713, 23829, 24427, 25279, 25587,
      25619, 25965, 26189, 27111, 27199, 27769, 28139, 28587, 29167,
      29667, 30339, 30401, 31673, 31827, 32305};
  xform::EGraph graph({}, targets);
  expect_golden_run(graph, 500'000,
                    {135071, true, 160, 78, 0x4fc63081ec46fe6fULL},
                    "42 targets @500000");
}

TEST(PassManager, NeverEnabledByEnvAlone) {
  // passes.xform off means no pass runs no matter what the env says; the
  // canonical options of every driver only resolve a budget once on.
  core::MrpOptions opts;
  core::SchemeResult r =
      core::optimize_bank({7, 66, 17}, core::Scheme::kMrp, opts);
  EXPECT_FALSE(r.plan.xform.has_value());
  EXPECT_EQ(r.plan.timers.xform_saturate.items, 0u);
  EXPECT_EQ(r.plan.timers.xform_saturate.ns, 0.0);
}

TEST(PassManager, RecordsProvenanceAndTimers) {
  // simple on this bank is 12 adders, the rewriter reaches 8 — a strict
  // win, so the pass replaces the plan and records its provenance.
  core::MrpOptions opts;
  opts.passes.xform = true;
  opts.passes.xform_budget = 60'000;
  core::SchemeResult r =
      core::optimize_bank({7, 66, 17, 9, 27, 41, 57, 11},
                          core::Scheme::kSimple, opts);
  ASSERT_TRUE(r.plan.xform.has_value());
  EXPECT_LT(r.plan.analytic_adders, r.plan.xform->original_adders);
  EXPECT_GT(r.plan.xform->steps, 0);
  EXPECT_EQ(r.plan.timers.xform_saturate.items,
            static_cast<std::uint64_t>(r.plan.xform->steps));
  EXPECT_EQ(r.plan.timers.xform_extract.items, r.plan.ops.size());
  EXPECT_EQ(r.plan.timers.xform_fallback.items, 0u);
}

TEST(PassManager, KeepsTheDriversPlanOnATie) {
  // mrpf already lands on 8 adders for this bank; the rewriter cannot
  // strictly win, so the plan is kept untouched and no provenance is
  // attached (fallback tag 1 = kept at fixpoint tie, 2 = budget ran out).
  core::MrpOptions off;
  core::MrpOptions on;
  on.passes.xform = true;
  on.passes.xform_budget = 60'000;
  const std::vector<i64> bank = {7, 66, 17, 9, 27, 41, 57, 11};
  core::SchemeResult plain = core::optimize_bank(bank, core::Scheme::kMrp, off);
  core::SchemeResult passed = core::optimize_bank(bank, core::Scheme::kMrp, on);
  EXPECT_FALSE(passed.plan.xform.has_value());
  EXPECT_EQ(passed.plan.analytic_adders, plain.plan.analytic_adders);
  const std::uint64_t tag = passed.plan.timers.xform_fallback.items;
  EXPECT_TRUE(tag == 1u || tag == 2u) << "fallback tag " << tag;
  EXPECT_FALSE(core::plan_mismatch(plain.plan, passed.plan).has_value());
}

// The pass contract, property-tested: every scheme x 3 seeds x random
// banks. The pass-optimized plan must lower cleanly, stream-match the
// pass-off plan on a shared stimulus, and never cost more adders.
TEST(PassProperty, LowersCleanlyStreamsEquallyNeverWorse) {
  for (const core::Scheme scheme : core::all_schemes()) {
    for (const u64 seed : {0x11ULL, 0x22ULL, 0x33ULL}) {
      Rng rng(seed ^ (static_cast<u64>(scheme) << 56));
      const int n = static_cast<int>(rng.next_below(5)) + 2;
      std::vector<i64> bank;
      for (int i = 0; i < n; ++i) {
        i64 v = rng.next_int(-2047, 2047);
        if (v == 0) v = 45;
        bank.push_back(v);
      }

      core::MrpOptions off;
      off.opt_budget = 100'000;  // keep the kBnb rows fast
      core::MrpOptions on = off;
      on.passes.xform = true;
      on.passes.xform_budget = 60'000;
      core::SchemeResult plain = core::optimize_bank(bank, scheme, off);
      core::SchemeResult passed = core::optimize_bank(bank, scheme, on);

      // Never worse; provenance appears exactly when the pass strictly won.
      EXPECT_LE(passed.plan.analytic_adders, plain.plan.analytic_adders)
          << core::to_string(scheme) << " seed " << seed;
      EXPECT_EQ(passed.plan.xform.has_value(),
                passed.plan.analytic_adders < plain.plan.analytic_adders)
          << core::to_string(scheme) << " seed " << seed;

      // Lowering must succeed and every tap must realize its constant.
      arch::MultiplierBlock block = core::lower_plan(bank, passed.plan);
      ASSERT_NO_THROW(block.verify({1, -1, 3, 1005, -4096}));

      // Stream equivalence against the pass-off plan.
      arch::MultiplierBlock plain_block = core::lower_plan(bank, plain.plan);
      const arch::TdfFilter on_tdf =
          core::expand_block_to_tdf(bank, {}, std::move(block));
      const arch::TdfFilter off_tdf =
          core::expand_block_to_tdf(bank, {}, std::move(plain_block));
      Rng srng(seed * 0x9E3779B97F4A7C15ULL + 1);
      const std::vector<i64> x = sim::uniform_stream(srng, 256, 12);
      EXPECT_EQ(on_tdf.run(x), off_tdf.run(x))
          << core::to_string(scheme) << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace mrpf
