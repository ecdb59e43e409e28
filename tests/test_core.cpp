// MRP optimizer tests: the paper's 8-tap worked example (§3.5), structural
// invariants of stage A, tree constraints, SEED accounting, and cost
// dominance over the simple baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

#include "mrpf/baseline/simple.hpp"
#include "mrpf/common/error.hpp"
#include "mrpf/core/build.hpp"
#include "mrpf/core/color_graph.hpp"
#include "mrpf/common/parallel.hpp"
#include "mrpf/common/rng.hpp"
#include "mrpf/core/flow.hpp"
#include "mrpf/core/mrp.hpp"
#include "mrpf/core/scheme_driver.hpp"
#include "mrpf/core/sidc.hpp"
#include "mrpf/core/synth_plan.hpp"
#include "mrpf/filter/catalog.hpp"
#include "mrpf/number/quantize.hpp"

#include "mrp_equality.hpp"

namespace mrpf::core {
namespace {

using number::NumberRep;

// The asymmetric 8-tap example of §3.5.
const std::vector<i64> kPaperExample = {7, 66, 17, 9, 27, 41, 57, 11};

TEST(Sidc, DecomposeRoundTrips) {
  for (const i64 v : {i64{1}, i64{-1}, i64{6}, i64{-40}, i64{1024},
                      i64{12345}, i64{-99}}) {
    const ShiftSign s = decompose(v);
    EXPECT_GT(s.primary, 0);
    EXPECT_EQ(s.primary % 2, 1);
    EXPECT_EQ((s.negate ? -1 : 1) * (s.primary << s.shift), v);
  }
  EXPECT_THROW(decompose(0), Error);
}

TEST(Sidc, ExtractPrimariesMergesShiftClasses) {
  // 7, 14, 56 share the primary 7; 0 maps to no vertex.
  const PrimaryBank bank = extract_primaries({7, 14, -56, 0, 9});
  EXPECT_EQ(bank.primaries, (std::vector<i64>{7, 9}));
  ASSERT_EQ(bank.refs.size(), 5u);
  EXPECT_EQ(bank.refs[0].vertex, bank.refs[1].vertex);
  EXPECT_EQ(bank.refs[1].vertex, bank.refs[2].vertex);
  EXPECT_TRUE(bank.refs[2].negate);
  EXPECT_EQ(bank.refs[2].shift, 3);
  EXPECT_EQ(bank.refs[3].vertex, -1);
  EXPECT_EQ(bank.refs[4].vertex, bank.vertex_of(9));
}

TEST(ColorGraph, EdgeCountMatchesFormula) {
  const std::vector<i64> primaries = {3, 7, 11};
  ColorGraphOptions opts;
  opts.l_max = 4;
  const ColorGraph g = build_color_graph(primaries, opts);
  // 2·(l_max+1)·M·(M−1) directed colored edges (paper §3.1).
  EXPECT_EQ(static_cast<int>(g.edges.size()), 2 * 5 * 3 * 2);
  for (const SidcEdge& e : g.edges) {
    EXPECT_NE(e.xi, 0);
    EXPECT_EQ((e.color_negate ? -1 : 1) * (e.color << e.color_shift), e.xi);
    const i64 cj = primaries[static_cast<std::size_t>(e.to)];
    const i64 ci = primaries[static_cast<std::size_t>(e.from)];
    EXPECT_EQ(cj, (e.pred_negate ? -1 : 1) * (ci << e.l) + e.xi);
  }
}

TEST(ColorGraph, ClassesCoverAllEdges) {
  const ColorGraph g = build_color_graph({7, 9, 17}, {});
  std::size_t edge_total = 0;
  for (const ColorClass& cls : g.classes) {
    EXPECT_GT(cls.cost, 0);
    EXPECT_EQ(cls.color % 2, 1);
    edge_total += g.edge_ids(cls).size();
    for (const int ei : g.edge_ids(cls)) {
      EXPECT_EQ(g.edges[static_cast<std::size_t>(ei)].color, cls.color);
    }
  }
  EXPECT_EQ(edge_total, g.edges.size());
}

TEST(SynthPlanLiveness, MarksReachableOpsAndCountsNonZeroTaps) {
  // A hand-built plan with one dangling op: node 2 is defined but never
  // tapped and never feeds another op, so only ops 0 and 2 are live.
  SynthPlan plan;
  plan.ops.push_back({0, 0, 0, 3, false});   // node 1 = x + 8x
  plan.ops.push_back({1, 0, 0, 0, false});   // node 2 = dangling
  plan.ops.push_back({1, 0, 0, 1, true});    // node 3 = node1 - 2x
  plan.taps.push_back({3, 0, false, 7});
  plan.taps.push_back({-1, 0, false, 0});    // zero coefficient: no hardware
  plan.taps.push_back({0, 2, false, 4});     // input tap keeps no op alive
  const std::vector<bool> live = plan.live_ops();
  ASSERT_EQ(live.size(), 3u);
  EXPECT_TRUE(live[0]);
  EXPECT_FALSE(live[1]);
  EXPECT_TRUE(live[2]);
  EXPECT_EQ(plan.live_tap_count(), 2u);

  // Driver-produced plans never emit dangling ops: everything the
  // optimizer schedules is reachable from some tap.
  const SchemeDriver& driver = scheme_driver(Scheme::kMrp);
  const SynthPlan real =
      driver.optimize(kPaperExample, driver.canonical_options({}));
  const std::vector<bool> real_live = real.live_ops();
  EXPECT_TRUE(std::all_of(real_live.begin(), real_live.end(),
                          [](bool b) { return b; }));
  EXPECT_EQ(real.live_tap_count(), kPaperExample.size());
}

TEST(Mrp, PaperExampleCoversWithSmallColors) {
  MrpOptions opts;
  opts.rep = NumberRep::kSpt;
  const MrpResult r = mrp_optimize(kPaperExample, opts);

  // All eight coefficients are primary in the example.
  EXPECT_EQ(r.vertices.size(), 8u);

  // Every vertex is either a root or derived by exactly one tree edge.
  std::set<int> derived;
  for (const TreeEdge& te : r.tree_edges) derived.insert(te.edge.to);
  EXPECT_EQ(derived.size() + r.roots.size(), r.vertices.size());

  // The combination must beat the simple implementation (§3.5 shows the
  // example collapsing onto the colors {3, 5}).
  const int simple =
      baseline::simple_adder_cost(kPaperExample, NumberRep::kSpt);
  EXPECT_LT(r.total_adders(), simple);
  // Colors are cheap: the greedy picks low-cost high-frequency classes.
  for (const i64 c : r.solution_colors) {
    EXPECT_LE(number::nonzero_digits(c, NumberRep::kSpt), 2);
  }
}

TEST(Mrp, TreeEdgesUseSolutionColorsAndRespectOrder) {
  const MrpResult r = mrp_optimize(kPaperExample, {});
  const std::set<i64> colors(r.solution_colors.begin(),
                             r.solution_colors.end());
  std::set<int> realized(r.roots.begin(), r.roots.end());
  for (const TreeEdge& te : r.tree_edges) {
    EXPECT_TRUE(colors.contains(te.edge.color));
    EXPECT_TRUE(realized.contains(te.edge.from))
        << "child realized before its parent";
    realized.insert(te.edge.to);
  }
  EXPECT_EQ(realized.size(), r.vertices.size());
}

TEST(Mrp, DepthLimitIsHonored) {
  for (const int limit : {1, 2, 3}) {
    MrpOptions opts;
    opts.depth_limit = limit;
    const MrpResult r = mrp_optimize(kPaperExample, opts);
    EXPECT_LE(r.tree_height, limit);
    for (const TreeEdge& te : r.tree_edges) EXPECT_LE(te.depth, limit);
  }
}

TEST(Mrp, TighterDepthNeedsAtLeastAsManySeeds) {
  MrpOptions loose;
  const MrpResult r_loose = mrp_optimize(kPaperExample, loose);
  MrpOptions tight;
  tight.depth_limit = 1;
  const MrpResult r_tight = mrp_optimize(kPaperExample, tight);
  EXPECT_GE(r_tight.seed_roots(), r_loose.seed_roots() > 0 ? 1 : 0);
  EXPECT_GE(static_cast<int>(r_tight.seed_values.size()),
            static_cast<int>(r_loose.solution_colors.size()) > 0 ? 1 : 0);
}

TEST(Mrp, FreeRootsMatchSolutionColors) {
  // Bank containing the value 3 where 3 is an overwhelmingly useful color.
  const MrpResult r = mrp_optimize({3, 7, 11, 19, 35}, {});
  for (std::size_t i = 0; i < r.roots.size(); ++i) {
    if (r.root_is_free[i]) {
      const i64 value =
          r.vertices[static_cast<std::size_t>(r.roots[i])];
      EXPECT_TRUE(std::count(r.solution_colors.begin(),
                             r.solution_colors.end(), value) > 0);
    }
  }
}

TEST(Mrp, SeedValuesAreColorsAndRoots) {
  const MrpResult r = mrp_optimize(kPaperExample, {});
  std::set<i64> expected(r.solution_colors.begin(), r.solution_colors.end());
  for (const int root : r.roots) {
    expected.insert(r.vertices[static_cast<std::size_t>(root)]);
  }
  const std::set<i64> seeds(r.seed_values.begin(), r.seed_values.end());
  EXPECT_EQ(seeds, expected);
}

TEST(Mrp, EmptyAndTrivialBanks) {
  const MrpResult empty = mrp_optimize({0, 0, 0}, {});
  EXPECT_EQ(empty.total_adders(), 0);
  EXPECT_TRUE(empty.vertices.empty());

  const MrpResult single = mrp_optimize({12}, {});
  EXPECT_EQ(single.vertices, (std::vector<i64>{3}));
  EXPECT_EQ(single.roots.size(), 1u);
  EXPECT_EQ(single.overhead_adders, 0);
  EXPECT_EQ(single.seed_adders, number::multiplier_adders(3, NumberRep::kSpt));
}

TEST(MrpBuild, PaperExampleBlockIsExact) {
  MrpOptions opts;
  const MrpResult r = mrp_optimize(kPaperExample, opts);
  const arch::MultiplierBlock block =
      build_mrp_block(kPaperExample, r, opts);
  // verify() ran inside; double-check one input by hand.
  const std::vector<i64> values = block.graph.evaluate(3);
  for (std::size_t i = 0; i < kPaperExample.size(); ++i) {
    EXPECT_EQ(block.product(i, values), kPaperExample[i] * 3);
  }
  // Physical adders never exceed the analytic count.
  EXPECT_LE(block.graph.num_adders(), r.total_adders());
}

TEST(MrpBuild, CseOnSeedStillExact) {
  MrpOptions opts;
  opts.cse_on_seed = true;
  const MrpResult r = mrp_optimize(kPaperExample, opts);
  ASSERT_TRUE(r.seed_cse.has_value());
  const arch::MultiplierBlock block =
      build_mrp_block(kPaperExample, r, opts);
  EXPECT_LE(block.graph.num_adders(), r.total_adders());
}

TEST(MrpBuild, RecursiveSeedStillExact) {
  MrpOptions opts;
  opts.recursive_levels = 2;
  const MrpResult r = mrp_optimize(kPaperExample, opts);
  ASSERT_NE(r.seed_recursive, nullptr);
  const arch::MultiplierBlock block =
      build_mrp_block(kPaperExample, r, opts);
  const std::vector<i64> values = block.graph.evaluate(-5);
  for (std::size_t i = 0; i < kPaperExample.size(); ++i) {
    EXPECT_EQ(block.product(i, values), kPaperExample[i] * -5);
  }
}

TEST(Mrp, LmaxZeroStillCoversViaPlainDifferentials) {
  // l_max = 0 disables shift inclusion: colors degrade to plain
  // differentials (closer to prior work [5]); cover must still complete.
  MrpOptions narrow;
  narrow.l_max = 0;
  const MrpResult r0 = mrp_optimize(kPaperExample, narrow);
  std::set<int> covered(r0.roots.begin(), r0.roots.end());
  for (const TreeEdge& te : r0.tree_edges) covered.insert(te.edge.to);
  EXPECT_EQ(covered.size(), r0.vertices.size());

  // Wider shift ranges can only help (more edges to choose from).
  MrpOptions wide;
  wide.l_max = 16;
  const MrpResult r16 = mrp_optimize(kPaperExample, wide);
  EXPECT_LE(r16.total_adders(), r0.total_adders() + 2);
}

TEST(Mrp, BetaExtremesStillProduceValidCovers) {
  for (const double beta : {0.0, 1.0}) {
    MrpOptions opts;
    opts.beta = beta;
    const MrpResult r = mrp_optimize(kPaperExample, opts);
    std::set<int> covered(r.roots.begin(), r.roots.end());
    for (const TreeEdge& te : r.tree_edges) covered.insert(te.edge.to);
    EXPECT_EQ(covered.size(), r.vertices.size()) << "beta " << beta;
    const arch::MultiplierBlock block =
        build_mrp_block(kPaperExample, r, opts);
    EXPECT_GT(block.graph.num_adders(), 0);
  }
  MrpOptions bad;
  bad.beta = 1.5;
  EXPECT_THROW(mrp_optimize(kPaperExample, bad), Error);
}

TEST(Mrp, VertexDepthsAreConsistentWithTreeEdges) {
  const MrpResult r = mrp_optimize(kPaperExample, {});
  for (const int root : r.roots) {
    EXPECT_EQ(r.vertex_depth[static_cast<std::size_t>(root)], 0);
  }
  for (const TreeEdge& te : r.tree_edges) {
    EXPECT_EQ(r.vertex_depth[static_cast<std::size_t>(te.edge.to)],
              r.vertex_depth[static_cast<std::size_t>(te.edge.from)] + 1);
    EXPECT_EQ(te.depth,
              r.vertex_depth[static_cast<std::size_t>(te.edge.to)]);
  }
}

TEST(Mrp, RecursionNestsAndAccountsSeedCost) {
  MrpOptions opts;
  opts.recursive_levels = 2;
  const MrpResult r = mrp_optimize(kPaperExample, opts);
  ASSERT_NE(r.seed_recursive, nullptr);
  EXPECT_EQ(r.seed_adders, r.seed_recursive->total_adders());
  // The nested level optimizes exactly the SEED values.
  EXPECT_EQ(r.seed_recursive->bank.refs.size(), r.seed_values.size());
  // Recursion must never cost more than direct synthesis.
  MrpOptions flat;
  const MrpResult direct = mrp_optimize(kPaperExample, flat);
  EXPECT_LE(r.total_adders(), direct.total_adders());
}

TEST(Mrp, SignMagnitudeModeMatchesItsCostModel) {
  MrpOptions opts;
  opts.rep = number::NumberRep::kSignMagnitude;
  const MrpResult r = mrp_optimize(kPaperExample, opts);
  int expected_seed = 0;
  for (const i64 s : r.seed_values) {
    expected_seed += number::multiplier_adders(s, opts.rep);
  }
  EXPECT_EQ(r.seed_adders, expected_seed);
}

TEST(Mrp, CseOnSeedNeverBeatenByDirectSeed) {
  for (const int i : {0, 3, 6}) {
    Rng rng(static_cast<std::uint64_t>(i) + 500);
    std::vector<i64> bank;
    for (int t = 0; t < 14; ++t) bank.push_back(rng.next_int(-8191, 8191));
    MrpOptions direct;
    const int plain = mrp_optimize(bank, direct).total_adders();
    MrpOptions with_cse;
    with_cse.cse_on_seed = true;
    const int cse = mrp_optimize(bank, with_cse).total_adders();
    EXPECT_LE(cse, plain) << "CSE on the SEED network must never hurt";
  }
}

// Property sweep: random banks at several wordlengths must always produce
// exact blocks that never cost more than the simple implementation.
TEST(ColorGraph, RejectsShiftThatWouldOverflow) {
  // bit_width(primary) + l_max must stay below 63 so ci << l (and the
  // differential) cannot overflow i64.
  ColorGraphOptions opts;
  opts.l_max = 30;
  EXPECT_THROW(build_color_graph({3, (i64{1} << 40) + 1}, opts), Error);
  EXPECT_THROW(build_color_graph_reference({3, (i64{1} << 40) + 1}, opts),
               Error);
  opts.l_max = 10;
  EXPECT_NO_THROW(build_color_graph({3, (i64{1} << 40) + 1}, opts));
}

/// Random sorted unique odd primaries, the invariant build_color_graph
/// requires of its input.
std::vector<i64> random_primaries(Rng& rng, int count, int wordlength) {
  std::set<i64> vals;
  const i64 limit = (i64{1} << wordlength) - 1;
  while (static_cast<int>(vals.size()) < count) {
    vals.insert(rng.next_int(1, limit) | 1);
  }
  return {vals.begin(), vals.end()};
}

bool same_edge(const SidcEdge& x, const SidcEdge& y) {
  return x.from == y.from && x.to == y.to && x.l == y.l &&
         x.pred_negate == y.pred_negate && x.xi == y.xi &&
         x.color == y.color && x.color_shift == y.color_shift &&
         x.color_negate == y.color_negate;
}

/// Field-for-field equality of two color graphs (every edge, class, and
/// pool entry).
void expect_same_color_graph(const ColorGraph& a, const ColorGraph& b) {
  ASSERT_EQ(a.vertices, b.vertices);
  ASSERT_EQ(a.l_max, b.l_max);
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (std::size_t e = 0; e < a.edges.size(); ++e) {
    ASSERT_TRUE(same_edge(a.edges[e], b.edges[e])) << "edge " << e;
  }
  ASSERT_EQ(a.class_edges, b.class_edges);
  ASSERT_EQ(a.class_coverable, b.class_coverable);
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (std::size_t c = 0; c < a.classes.size(); ++c) {
    const ColorClass& x = a.classes[c];
    const ColorClass& y = b.classes[c];
    ASSERT_TRUE(x.color == y.color && x.cost == y.cost &&
                x.edges_begin == y.edges_begin && x.edges_end == y.edges_end &&
                x.cov_begin == y.cov_begin && x.cov_end == y.cov_end)
        << "class " << c;
  }
}

TEST(ColorGraph, FlatMatchesMapReferenceFieldForField) {
  Rng rng(0x51DC);
  for (int trial = 0; trial < 24; ++trial) {
    const int count = static_cast<int>(rng.next_int(1, 14));
    const int wordlength = static_cast<int>(rng.next_int(4, 16));
    const std::vector<i64> primaries =
        random_primaries(rng, count, wordlength);
    ColorGraphOptions opts;
    opts.rep = trial % 2 == 0 ? NumberRep::kSpt : NumberRep::kSignMagnitude;
    expect_same_color_graph(build_color_graph(primaries, opts),
                            build_color_graph_reference(primaries, opts));
  }
}

TEST(ColorGraph, CoverInstanceKeepsExactlyTheClassesThatCanBePicked) {
  // Against the whole graph: every class reaching two or more targets is
  // kept as it is, and of each target's one-target classes only the
  // cheapest (then the smallest color) is. Edge ids name the same edges.
  Rng rng(0xC0DE);
  for (int trial = 0; trial < 24; ++trial) {
    const int wordlength = static_cast<int>(rng.next_int(4, 16));
    // At most as many primaries as there are odd values below 2^wordlength.
    const int count = static_cast<int>(
        rng.next_int(1, std::min(14, 1 << (wordlength - 1))));
    const std::vector<i64> primaries =
        random_primaries(rng, count, wordlength);
    ColorGraphOptions opts;
    opts.rep = trial % 2 == 0 ? NumberRep::kSpt : NumberRep::kSignMagnitude;
    const ColorGraph g = build_color_graph(primaries, opts);
    const CoverInstance inst = build_cover_instance(primaries, opts);
    ASSERT_EQ(inst.l_max, g.l_max);
    ASSERT_EQ(inst.num_edges, g.edges.size());
    for (std::size_t e = 0; e < g.edges.size(); ++e) {
      ASSERT_TRUE(same_edge(
          sidc_edge(primaries, g.l_max, static_cast<int>(e)), g.edges[e]))
          << "edge " << e;
    }

    std::vector<const ColorClass*> expected;
    std::map<int, const ColorClass*> cheapest;  // per target
    for (const ColorClass& cls : g.classes) {   // ascending color
      if (cls.num_coverable() > 1) {
        expected.push_back(&cls);
        continue;
      }
      const ColorClass*& best = cheapest[g.coverable_ids(cls)[0]];
      if (best == nullptr || cls.cost < best->cost) best = &cls;
    }
    for (const auto& [target, cls] : cheapest) expected.push_back(cls);
    std::sort(expected.begin(), expected.end(),
              [](const ColorClass* a, const ColorClass* b) {
                return a->color < b->color;
              });
    ASSERT_EQ(inst.classes.size(), expected.size());
    for (std::size_t c = 0; c < expected.size(); ++c) {
      const ColorClass& got = inst.classes[c];
      const ColorClass& want = *expected[c];
      EXPECT_EQ(got.color, want.color) << "class " << c;
      EXPECT_EQ(got.cost, want.cost) << "class " << c;
      EXPECT_TRUE(std::ranges::equal(inst.edge_ids(got), g.edge_ids(want)))
          << "class " << c;
      EXPECT_TRUE(std::ranges::equal(inst.coverable_ids(got),
                                     g.coverable_ids(want)))
          << "class " << c;
    }
  }
}

TEST(Mrp, OptimizedEngineMatchesReferenceEngine) {
  // The flat color graph + lazy cover + incremental root selection must
  // reproduce the seed engine's solution exactly, not just its cost.
  Rng rng(0xE2E);
  std::vector<std::vector<i64>> banks = {kPaperExample};
  for (int trial = 0; trial < 10; ++trial) {
    const int taps = static_cast<int>(rng.next_int(2, 20));
    const i64 limit = (i64{1} << 12) - 1;
    std::vector<i64> bank;
    for (int t = 0; t < taps; ++t) bank.push_back(rng.next_int(-limit, limit));
    banks.push_back(std::move(bank));
  }
  for (const std::vector<i64>& bank : banks) {
    MrpOptions opts;
    opts.rep = NumberRep::kSpt;
    MrpOptions ref_opts = opts;
    ref_opts.use_reference_engine = true;
    expect_same_mrp_result(mrp_optimize(bank, opts),
                           mrp_optimize(bank, ref_opts));
  }
}

TEST(Mrp, OptimizedEngineMatchesReferenceOverTheOptionSpace) {
  // Stage A hands set cover only the classes that can still be picked.
  // Which classes those are depends on every option that reaches the
  // greedy (rep prices the classes, β weighs price against frequency) or
  // shapes the graph (l_max), so the solve is pinned field for field
  // against the reference engine over all of them, on the catalog banks
  // (up to 51 primaries) and on random banks down to one tap.
  std::vector<std::vector<i64>> banks;
  for (int i = 0; i < filter::catalog_size(); ++i) {
    const std::vector<double>& h = filter::catalog_coefficients(i);
    banks.push_back(
        optimization_bank(number::quantize_maximal(h, 16).values()));
    banks.push_back(
        optimization_bank(number::quantize_uniform(h, 12).values()));
  }
  Rng rng(0x0A11);
  for (int trial = 0; trial < 96; ++trial) {
    const int taps = static_cast<int>(rng.next_int(1, 40));
    const int wordlength = static_cast<int>(rng.next_int(2, 18));
    const i64 limit = (i64{1} << (wordlength - 1)) - 1;
    std::vector<i64> bank;
    for (int t = 0; t < taps; ++t) bank.push_back(rng.next_int(-limit, limit));
    banks.push_back(std::move(bank));
  }
  const double betas[] = {0.0, 0.25, 0.5, 1.0};
  for (std::size_t b = 0; b < banks.size(); ++b) {
    for (const NumberRep rep :
         {NumberRep::kSpt, NumberRep::kCsd, NumberRep::kSignMagnitude}) {
      MrpOptions opts;
      opts.rep = rep;
      opts.beta = betas[rng.next_below(4)];
      opts.depth_limit = static_cast<int>(rng.next_int(0, 3));
      opts.l_max = rng.next_below(2) == 0 ? -1
                                          : static_cast<int>(rng.next_int(0, 6));
      opts.recursive_levels = static_cast<int>(rng.next_int(0, 2));
      opts.cse_on_seed = rng.next_below(2) == 0;
      MrpOptions ref_opts = opts;
      ref_opts.use_reference_engine = true;
      SCOPED_TRACE(testing::Message()
                   << "bank " << b << " rep " << number::to_string(rep)
                   << " beta " << opts.beta << " depth " << opts.depth_limit
                   << " l_max " << opts.l_max << " recursive "
                   << opts.recursive_levels << " cse " << opts.cse_on_seed);
      expect_same_mrp_result(mrp_optimize(banks[b], opts),
                             mrp_optimize(banks[b], ref_opts));
    }
  }
}

TEST(Mrp, SolverThrowsWhereTheReferenceEngineThrows) {
  // The solver must reject exactly the inputs the reference engine
  // rejects, with the same error, even where stage A never builds the
  // full color graph. Every class of this two-primary bank has one target,
  // so the CSD case also pins that dropped classes are still priced.
  const std::vector<i64> bank = {3, (i64{1} << 57) + 1};  // bit widths 2, 58
  const auto solve_error = [&bank](MrpOptions opts) -> std::string {
    try {
      mrp_optimize(bank, opts);
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  MrpOptions opts;
  opts.rep = NumberRep::kSignMagnitude;
  opts.l_max = 4;  // 58 + 4 == 62: the widest legal shift
  MrpOptions ref_opts = opts;
  ref_opts.use_reference_engine = true;
  expect_same_mrp_result(mrp_optimize(bank, opts),
                         mrp_optimize(bank, ref_opts));

  // Under SPT a differential past 2^61 is too wide to price in CSD.
  opts.rep = ref_opts.rep = NumberRep::kSpt;
  const std::string csd_error = solve_error(opts);
  EXPECT_NE(csd_error.find("CSD conversion operand too large"),
            std::string::npos)
      << csd_error;
  EXPECT_EQ(csd_error, solve_error(ref_opts));

  // 58 + 5 == 63: the shift itself would overflow, under any rep.
  for (const NumberRep rep : {NumberRep::kSpt, NumberRep::kSignMagnitude}) {
    opts.rep = ref_opts.rep = rep;
    opts.l_max = ref_opts.l_max = 5;
    const std::string shift_error = solve_error(opts);
    EXPECT_NE(shift_error.find("primary << l_max would overflow i64"),
              std::string::npos)
        << shift_error;
    EXPECT_EQ(shift_error, solve_error(ref_opts));
  }
}

TEST(Mrp, BatchIsDeterministicAcrossThreadCounts) {
  // mrp_optimize_batch reads MRPF_THREADS through the pool: the results
  // must be bit-identical for 1 and 4 threads (deterministic ordering).
  std::vector<std::vector<i64>> banks;
  Rng rng(0xBA7C);
  for (int trial = 0; trial < 6; ++trial) {
    const int taps = static_cast<int>(rng.next_int(3, 16));
    std::vector<i64> bank;
    for (int t = 0; t < taps; ++t) bank.push_back(rng.next_int(-2047, 2047));
    banks.push_back(std::move(bank));
  }
  MrpOptions opts;
  ::setenv("MRPF_THREADS", "1", 1);
  const std::vector<MrpResult> one = mrp_optimize_batch(banks, opts);
  ::setenv("MRPF_THREADS", "4", 1);
  const std::vector<MrpResult> four = mrp_optimize_batch(banks, opts);
  ::unsetenv("MRPF_THREADS");
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    expect_same_mrp_result(one[i], four[i]);
  }
}

TEST(ColorGraph, OverflowBoundaryIsExact) {
  // bit_width_abs(p) + l_max == 62 is the largest legal configuration
  // (ci << l_max still fits i64, and ξ = cj − σ·(ci << l) stays inside
  // 2^63 — here with large *negative* differentials, since cj is tiny
  // against ci << l). == 63 must trip the MRPF_CHECK in both builders.
  const i64 wide = (i64{1} << 57) + 1;  // bit width 58
  ColorGraphOptions opts;
  // Sign-magnitude cost is a plain popcount with no range limit; the
  // CSD/SPT digit recoding additionally requires |color| < 2^61, which a
  // 62-bit differential exceeds — the boundary under test here is the
  // graph's own shift-overflow check, so pick the rep that reaches it.
  opts.rep = NumberRep::kSignMagnitude;
  opts.l_max = 4;  // 58 + 4 == 62: legal
  const ColorGraph flat = build_color_graph({3, wide}, opts);
  const ColorGraph ref = build_color_graph_reference({3, wide}, opts);
  expect_same_color_graph(flat, ref);
  // The extreme edge exists and its differential is the expected huge
  // negative value 3 − (wide << 4), decomposed without overflow.
  const i64 extreme = 3 - (wide << 4);
  bool found = false;
  for (const SidcEdge& e : flat.edges) found = found || e.xi == extreme;
  EXPECT_TRUE(found);

  opts.l_max = 5;  // 58 + 5 == 63: must throw, in both builders
  EXPECT_THROW(build_color_graph({3, wide}, opts), Error);
  EXPECT_THROW(build_color_graph_reference({3, wide}, opts), Error);

  // Negative (and even) primaries are rejected outright — the overflow
  // check never sees them.
  opts.l_max = 1;
  EXPECT_THROW(build_color_graph({-3, 5}, opts), Error);
  EXPECT_THROW(build_color_graph_reference({-3, 5}, opts), Error);
}

TEST(Mrp, PooledSolveMatchesSerialAndRecordsStageTimers) {
  // An intra-solve pool must not change a single field of the result, and
  // every solve must carry its per-stage breakdown (ns can be 0 on a
  // coarse clock, items are exact).
  ThreadPool pool(4);
  Rng rng(0x7001);
  std::vector<std::vector<i64>> banks = {kPaperExample};
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<i64> bank;
    for (int t = 0; t < 40; ++t) bank.push_back(rng.next_int(-32767, 32767));
    banks.push_back(std::move(bank));
  }
  for (const std::vector<i64>& bank : banks) {
    MrpOptions serial_opts;
    MrpOptions pooled_opts;
    pooled_opts.pool = &pool;
    const MrpResult serial = mrp_optimize(bank, serial_opts);
    const MrpResult pooled = mrp_optimize(bank, pooled_opts);
    expect_same_mrp_result(serial, pooled);
    for (const MrpResult* r : {&serial, &pooled}) {
      EXPECT_GT(r->timers.primaries.items, 0u);
      EXPECT_GT(r->timers.color_graph.items, 0u);
      EXPECT_GT(r->timers.set_cover.items, 0u);
      EXPECT_GT(r->timers.total_ns, 0.0);
    }
    // The two runs carry identical item counts stage for stage — timing
    // differs, the measured work does not.
    EXPECT_EQ(serial.timers.primaries.items, pooled.timers.primaries.items);
    EXPECT_EQ(serial.timers.color_graph.items, pooled.timers.color_graph.items);
    EXPECT_EQ(serial.timers.set_cover.items, pooled.timers.set_cover.items);
    EXPECT_EQ(serial.timers.tree_growth.items, pooled.timers.tree_growth.items);
    EXPECT_EQ(serial.timers.seed_synthesis.items,
              pooled.timers.seed_synthesis.items);
  }
}

class MrpRandomBank : public ::testing::TestWithParam<int> {};

TEST_P(MrpRandomBank, ExactAndNeverWorseThanSimple) {
  const int wordlength = GetParam();
  Rng rng(0xC0FFEE + static_cast<std::uint64_t>(wordlength));
  for (int trial = 0; trial < 8; ++trial) {
    const int taps = static_cast<int>(rng.next_int(2, 24));
    std::vector<i64> bank;
    const i64 limit = (i64{1} << (wordlength - 1)) - 1;
    for (int t = 0; t < taps; ++t) {
      bank.push_back(rng.next_int(-limit, limit));
    }
    MrpOptions opts;
    const MrpResult r = mrp_optimize(bank, opts);
    EXPECT_LE(r.total_adders(),
              baseline::simple_adder_cost(bank, opts.rep) +
                  static_cast<int>(r.vertices.size()))
        << "MRP cost wildly above simple for wordlength " << wordlength;
    const arch::MultiplierBlock block = build_mrp_block(bank, r, opts);
    const std::vector<i64> values = block.graph.evaluate(7);
    for (std::size_t i = 0; i < bank.size(); ++i) {
      ASSERT_EQ(block.product(i, values), bank[i] * 7);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Wordlengths, MrpRandomBank,
                         ::testing::Values(6, 8, 10, 12, 14, 16));

}  // namespace
}  // namespace mrpf::core
