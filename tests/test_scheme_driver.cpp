// SchemeDriver pipeline tests: scheme-name round-trips, the randomized
// differential property (every scheme's lowered block multiplies
// bit-exactly), the Table-1 golden adder-cost regression across every
// registered scheme, and the unified-cache acceptance criterion — for every scheme a
// cached result (warm in-memory and disk-rehydrated) is field-for-field
// identical to a fresh solve at 1, 2 and 8 threads.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "mrpf/cache/persist.hpp"
#include "mrpf/cache/solve_cache.hpp"
#include "mrpf/common/error.hpp"
#include "mrpf/common/rng.hpp"
#include "mrpf/core/flow.hpp"
#include "mrpf/core/scheme.hpp"
#include "mrpf/arch/verilog.hpp"
#include "mrpf/filter/catalog.hpp"
#include "mrpf/number/quantize.hpp"
#include "mrpf/rtl/parser.hpp"
#include "mrpf/rtl/simulator.hpp"
#include "mrpf/sim/equivalence.hpp"
#include "mrpf/sim/workload.hpp"

#include "mrp_equality.hpp"

namespace mrpf::core {
namespace {

TEST(SchemeNames, RoundTripThroughParse) {
  EXPECT_EQ(all_schemes().size(), static_cast<std::size_t>(kNumSchemes));
  for (const Scheme s : all_schemes()) {
    const std::optional<Scheme> parsed = parse_scheme(to_string(s));
    ASSERT_TRUE(parsed.has_value()) << to_string(s);
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(parse_scheme("bogus").has_value());
  EXPECT_FALSE(parse_scheme("").has_value());
  EXPECT_FALSE(parse_scheme("MRPF").has_value());  // names are exact
}

TEST(SchemeDriver, LoweredBlocksMultiplyBitExactly) {
  // The differential property: for every scheme, the lowered block's
  // product at every tap equals direct c·x for random banks and inputs.
  Rng rng(0x5EED);
  for (const Scheme scheme : all_schemes()) {
    for (int trial = 0; trial < 5; ++trial) {
      const std::size_t taps = static_cast<std::size_t>(rng.next_int(2, 14));
      std::vector<i64> bank;
      for (std::size_t t = 0; t < taps; ++t) {
        bank.push_back(rng.next_int(-2047, 2047));
      }
      bank[0] = bank[0] == 0 ? 1 : bank[0];  // keep one nonzero value
      const SchemeResult r = optimize_bank(bank, scheme);
      for (const i64 x : {i64{1}, i64{-1}, i64{3}, i64{7}, i64{-255},
                          i64{1023}}) {
        const std::vector<i64> values = r.block.graph.evaluate(x);
        for (std::size_t i = 0; i < bank.size(); ++i) {
          ASSERT_EQ(r.block.product(i, values), bank[i] * x)
              << to_string(scheme) << " trial " << trial << " tap " << i
              << " x " << x;
        }
      }
    }
  }
}

TEST(SchemeDriver, LoweredFiltersPassEquivalenceSuiteAndRtlRoundTrip) {
  // End-to-end per scheme: the full TDF filter (not just the multiplier
  // block) must match the exact convolution on the stimulus suite, and the
  // emitted Verilog, re-parsed and executed in the RTL simulator, must
  // match the C++ model sample for sample.
  const std::vector<i64> coefficients = {9, -44, 127, 255, 127, -44, 9};
  const std::vector<int> align = {1, 0, 0, 0, 0, 0, 1};
  const int input_bits = 10;
  Rng rng(0xD1FF);
  const std::vector<i64> x = sim::uniform_stream(rng, 64, input_bits);
  for (const Scheme scheme : all_schemes()) {
    const arch::TdfFilter filter =
        build_tdf(coefficients, align, scheme);

    const sim::EquivalenceReport eq =
        sim::check_equivalence_suite(filter, input_bits, 128, 0xABCD);
    EXPECT_TRUE(eq.equivalent)
        << to_string(scheme) << ": " << eq.to_string();

    const std::string verilog =
        arch::emit_tdf_filter(filter, input_bits, "dut");
    rtl::Simulator rtl_sim(rtl::parse_module(verilog));
    const sim::EquivalenceReport round_trip =
        sim::compare_streams(filter.run(x), rtl_sim.run_filter(x));
    EXPECT_TRUE(round_trip.equivalent)
        << to_string(scheme) << " RTL: " << round_trip.to_string();
  }
}

/// Folded (unique-half) integer bank of catalog filter `i` — the same
/// helper the benches use (bench/bench_util.hpp), replicated so the test
/// does not reach outside the tests tree.
std::vector<i64> folded_bank(int i, int wordlength, bool maximal) {
  const auto& h = filter::catalog_coefficients(i);
  const number::QuantizedCoefficients q =
      maximal ? number::quantize_maximal(h, wordlength)
              : number::quantize_uniform(h, wordlength);
  return optimization_bank(q.values());
}

// Golden multiplier-block adder counts over the first 12 catalog filters,
// captured from the pre-refactor pipeline (depth_limit = 3, defaults
// otherwise). Column order follows all_schemes(): simple, cse, diff-mst,
// rag-n, mrpf, mrpf+cse, bnb. Any drift here means a scheme's optimize
// path changed behavior, not just shape. The bnb column equals mrpf on
// every W=16 maximal bank (too many primary targets — the search skips
// and the greedy plan stands) and is <= mrpf on the W=12 uniform banks
// (the exact search is depth-unconstrained, so it can beat a depth-
// limited greedy solve, e.g. filter 1: 18 -> 11).
constexpr int kGoldenMaximal16[12][kNumSchemes] = {
    {38, 24, 38, 35, 31, 22, 31},   {53, 28, 43, 48, 42, 25, 42},
    {62, 32, 56, 53, 48, 34, 48},   {76, 39, 54, 71, 50, 35, 50},
    {90, 47, 68, 76, 65, 44, 65},   {112, 52, 79, 80, 84, 51, 84},
    {118, 58, 91, 81, 74, 54, 74},  {147, 62, 101, 103, 89, 60, 89},
    {157, 71, 97, 100, 87, 62, 87}, {179, 73, 116, 104, 107, 68, 107},
    {202, 87, 126, 116, 118, 75, 118},
    {240, 96, 149, 115, 103, 78, 103},
};
constexpr int kGoldenUniform12[12][kNumSchemes] = {
    {17, 10, 18, 11, 9, 9, 8},      {27, 16, 30, 16, 18, 15, 11},
    {32, 19, 30, 16, 15, 15, 15},   {31, 14, 27, 14, 14, 14, 14},
    {34, 16, 35, 15, 15, 15, 15},   {37, 17, 30, 15, 15, 15, 15},
    {39, 18, 38, 18, 20, 19, 20},   {74, 32, 55, 27, 31, 30, 31},
    {46, 22, 36, 20, 24, 23, 24},   {87, 36, 66, 33, 32, 32, 32},
    {68, 28, 59, 25, 26, 26, 26},   {77, 29, 60, 31, 31, 30, 31},
};

TEST(SchemeDriver, Table1GoldenAdderCostsAreStable) {
  MrpOptions opts;
  opts.depth_limit = 3;
  for (int i = 0; i < 12; ++i) {
    const std::vector<i64> maximal16 = folded_bank(i, 16, true);
    const std::vector<i64> uniform12 = folded_bank(i, 12, false);
    for (int s = 0; s < kNumSchemes; ++s) {
      const Scheme scheme = all_schemes()[static_cast<std::size_t>(s)];
      EXPECT_EQ(optimize_bank(maximal16, scheme, opts).multiplier_adders,
                kGoldenMaximal16[i][s])
          << "filter " << i << " W=16 maximal " << to_string(scheme);
      EXPECT_EQ(optimize_bank(uniform12, scheme, opts).multiplier_adders,
                kGoldenUniform12[i][s])
          << "filter " << i << " W=12 uniform " << to_string(scheme);
    }
  }
}

std::string temp_store(const std::string& name) {
  const std::string path = ::testing::TempDir() + "mrpf_" + name + ".mrpc";
  std::remove(path.c_str());
  return path;
}

TEST(SchemeDriver, SixtyOneBitConstantHasOneOutcomeForEitherSign) {
  // c = 2^61 - 1 sits on the 61-bit limit the CSD conversion shares with
  // RAG-n, diff-MST and the e-graph, so whether a scheme solves {c} or
  // throws cannot depend on the sign of c.
  const i64 c = (i64{1} << 61) - 1;
  const auto outcome = [](const std::vector<i64>& bank, core::Scheme s) {
    try {
      return "adders " +
             std::to_string(core::optimize_bank(bank, s).multiplier_adders);
    } catch (const Error& e) {
      return std::string("error: ") + e.what();
    }
  };
  for (const core::Scheme s : core::all_schemes()) {
    EXPECT_EQ(outcome({c}, s), outcome({-c}, s)) << core::to_string(s);
  }
}

TEST(SchemeDriver, CachedEqualsFreshForEverySchemeAndThreadCount) {
  // The acceptance criterion of the unified cache: for every scheme, a
  // cached result — both a warm in-memory hit and a disk-rehydrated hit —
  // is field-for-field identical to a fresh (uncached) solve, at 1, 2 and
  // 8 threads, and the warm pass makes no live solve. The banks include
  // catalog filters 0-3, uniformly scaled at W=12.
  std::vector<std::vector<i64>> banks = {
      {7, 66, 17, 9, 27, 41, 57, 11},
      {3, 5, 19, 21},
      {693, 693, 1, -44, 120},
      {0, 7, 0, -7, 14, 0},
  };
  for (int i = 0; i < 4; ++i) {
    banks.push_back(optimization_bank(
        number::quantize_uniform(filter::catalog_coefficients(i), 12)
            .values()));
  }
  for (const Scheme scheme : all_schemes()) {
    const std::size_t si = static_cast<std::size_t>(scheme);
    std::vector<SchemeResult> fresh;
    for (const auto& bank : banks) {
      fresh.push_back(optimize_bank(bank, scheme));
    }
    for (const char* threads : {"1", "2", "8"}) {
      ::setenv("MRPF_THREADS", threads, 1);
      cache::SolveCache live;
      MrpOptions opts;
      opts.cache = &live;
      // Populate, then re-solve the whole batch: every bank must hit.
      (void)optimize_bank_batch(banks, scheme, opts);
      const cache::CacheStats after_populate = live.stats();
      const std::vector<SchemeResult> warm =
          optimize_bank_batch(banks, scheme, opts);
      const cache::CacheStats after_warm = live.stats();
      EXPECT_EQ(after_warm.misses, after_populate.misses)
          << to_string(scheme) << " threads " << threads;
      EXPECT_GE(after_warm.scheme_hits[si],
                after_populate.scheme_hits[si] + banks.size() - 1)
          << to_string(scheme) << " threads " << threads;

      // Disk round-trip: a brand-new cache rehydrated from the store must
      // serve every solve without a single live miss.
      const std::string path = temp_store("driver_" + std::to_string(si));
      ASSERT_TRUE(cache::save_solve_cache(live, path));
      cache::SolveCache rehydrated;
      ASSERT_TRUE(cache::load_solve_cache(rehydrated, path));
      MrpOptions disk_opts;
      disk_opts.cache = &rehydrated;
      const std::vector<SchemeResult> from_disk =
          optimize_bank_batch(banks, scheme, disk_opts);
      EXPECT_EQ(rehydrated.stats().misses, 0u)
          << to_string(scheme) << " threads " << threads;
      ::unsetenv("MRPF_THREADS");
      std::remove(path.c_str());

      ASSERT_EQ(warm.size(), fresh.size());
      ASSERT_EQ(from_disk.size(), fresh.size());
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        expect_same_plan(warm[i].plan, fresh[i].plan);
        expect_same_block(warm[i].block, fresh[i].block);
        EXPECT_EQ(warm[i].multiplier_adders, fresh[i].multiplier_adders);
        expect_same_plan(from_disk[i].plan, fresh[i].plan);
        expect_same_block(from_disk[i].block, fresh[i].block);
        EXPECT_EQ(from_disk[i].multiplier_adders,
                  fresh[i].multiplier_adders);
      }
    }
  }
}

TEST(SchemeDriver, IrrelevantKnobsDoNotFragmentTheCache) {
  // Each driver canonicalizes its options, so knobs a scheme ignores
  // (e.g. beta for simple/cse) must map to the same cache entry.
  for (const Scheme scheme :
       {Scheme::kSimple, Scheme::kCse, Scheme::kDiffMst, Scheme::kRagn}) {
    cache::SolveCache live;
    MrpOptions a;
    a.cache = &live;
    a.beta = 0.25;
    a.depth_limit = 7;
    MrpOptions b;
    b.cache = &live;
    b.beta = 0.75;
    b.recursive_levels = 2;
    const std::vector<i64> bank = {7, 66, 17, 9};
    (void)optimize_bank(bank, scheme, a);
    (void)optimize_bank(bank, scheme, b);
    const cache::CacheStats s = live.stats();
    EXPECT_EQ(s.misses, 1u) << to_string(scheme);
    EXPECT_EQ(s.hits, 1u) << to_string(scheme);
    EXPECT_EQ(s.entries, 1u) << to_string(scheme);
  }
}

}  // namespace
}  // namespace mrpf::core
