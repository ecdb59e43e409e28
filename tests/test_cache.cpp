// Solve-cache subsystem tests: canonical fingerprint invariance under the
// MRP equivalence group, field-for-field rehydration identity, batch
// dedup and thread-count determinism, LRU accounting, binary result
// serde round-trips, and trust-nothing persistence.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "mrpf/cache/fingerprint.hpp"
#include "mrpf/cache/persist.hpp"
#include "mrpf/cache/session.hpp"
#include "mrpf/cache/solve_cache.hpp"
#include "mrpf/common/error.hpp"
#include "mrpf/common/hash.hpp"
#include "mrpf/common/rng.hpp"
#include "mrpf/core/flow.hpp"
#include "mrpf/core/mrp.hpp"
#include "mrpf/io/result_serde.hpp"

#include "mrp_equality.hpp"

namespace mrpf::cache {
namespace {

using core::MrpOptions;
using core::MrpResult;

// The asymmetric 8-tap example of §3.5.
const std::vector<i64> kPaperExample = {7, 66, 17, 9, 27, 41, 57, 11};

/// A bank equivalent to `bank` under the MRP group: per-value power-of-two
/// shifts and sign flips, injected zeros and shift-class duplicates, and a
/// random permutation. Canonicalization must be invariant under all of it.
std::vector<i64> equivalent_variant(const std::vector<i64>& bank, Rng& rng) {
  std::vector<i64> out;
  for (const i64 v : bank) {
    const int shift = static_cast<int>(rng.next_int(0, 3));
    i64 t = v * (i64{1} << shift);
    if (rng.next_int(0, 1) == 1) t = -t;
    out.push_back(t);
    if (rng.next_int(0, 3) == 0) out.push_back(0);
    if (rng.next_int(0, 3) == 0) out.push_back(v);
  }
  for (std::size_t i = out.size(); i > 1; --i) {
    const std::size_t j =
        static_cast<std::size_t>(rng.next_int(0, static_cast<i64>(i) - 1));
    std::swap(out[i - 1], out[j]);
  }
  return out;
}

/// Mostly 12-bit values with a sprinkle of wide (~2^big_log2) ones. The
/// fingerprint tests push big_log2 to 40; solver-driven tests stay at 30
/// so primary width + auto l_max (≤ 24) clears the i64 overflow guard.
std::vector<i64> random_bank(Rng& rng, int big_log2, int min_taps = 2,
                             int max_taps = 14) {
  const int taps = static_cast<int>(rng.next_int(min_taps, max_taps));
  std::vector<i64> bank;
  for (int t = 0; t < taps; ++t) {
    if (rng.next_int(0, 7) == 0) {
      bank.push_back(
          rng.next_int(-(i64{1} << big_log2), i64{1} << big_log2));
    } else {
      bank.push_back(rng.next_int(-2047, 2047));
    }
  }
  return bank;
}

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "mrpf_" + name + ".mrpc";
  std::remove(path.c_str());
  return path;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(static_cast<bool>(out)) << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(Fingerprint, CanonicalizationInvariantUnderEquivalence) {
  Rng rng(0xCAFE);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<i64> bank = random_bank(rng, 40);
    const CanonicalBank base = canonicalize(bank);
    for (int variant = 0; variant < 4; ++variant) {
      const std::vector<i64> equiv = equivalent_variant(bank, rng);
      const CanonicalBank cb = canonicalize(equiv);
      ASSERT_EQ(cb.values, base.values);
      ASSERT_EQ(cb.content_hash, base.content_hash);
      ASSERT_EQ(cache::solve_key(cb, MrpOptions{}),
                cache::solve_key(base, MrpOptions{}));
      // The back-transform must reconstruct every original coefficient
      // from its canonical primary.
      ASSERT_EQ(cb.refs.size(), equiv.size());
      for (std::size_t i = 0; i < equiv.size(); ++i) {
        const core::PrimaryBank::Ref& ref = cb.refs[i];
        if (equiv[i] == 0) {
          EXPECT_EQ(ref.vertex, -1);
          continue;
        }
        const i64 primary = cb.values[static_cast<std::size_t>(ref.vertex)];
        const i64 rebuilt =
            (ref.negate ? -1 : 1) * (primary << ref.shift);
        EXPECT_EQ(rebuilt, equiv[i]) << "position " << i;
      }
    }
  }
}

TEST(Fingerprint, OptionsChangeTheSolveKey) {
  const CanonicalBank cb = canonicalize(kPaperExample);
  const MrpOptions base;
  const u64 key = cache::solve_key(cb, base);

  MrpOptions opts = base;
  opts.l_max = base.l_max + 1;
  EXPECT_NE(cache::solve_key(cb, opts), key);

  opts = base;
  opts.beta = base.beta + 0.125;
  EXPECT_NE(cache::solve_key(cb, opts), key);

  opts = base;
  opts.cse_on_seed = !base.cse_on_seed;
  EXPECT_NE(cache::solve_key(cb, opts), key);

  opts = base;
  opts.recursive_levels = base.recursive_levels + 1;
  EXPECT_NE(cache::solve_key(cb, opts), key);

  // The bnb step budget is result-relevant (a larger budget can turn a
  // fallback into an exact win), so it is part of the fingerprint.
  opts = base;
  opts.opt_budget = 12345;
  EXPECT_NE(cache::solve_key(cb, opts), key);

  // Execution-strategy knobs are excluded: they do not change the result.
  opts = base;
  opts.use_reference_engine = true;
  opts.cache_path = "ignored";
  EXPECT_EQ(cache::solve_key(cb, opts), key);
}

TEST(SolveCacheTest, HitRehydratesFieldForField) {
  Rng rng(0xF00D);
  std::vector<MrpOptions> variants(4);
  variants[1].cse_on_seed = true;
  variants[2].recursive_levels = 2;
  variants[3].depth_limit = 3;
  for (MrpOptions& opts : variants) {
    SolveCache cache;
    opts.cache = &cache;
    for (int trial = 0; trial < 8; ++trial) {
      const std::vector<i64> bank =
          trial == 0 ? kPaperExample : random_bank(rng, 30);
      const std::vector<i64> equiv = equivalent_variant(bank, rng);
      const MrpResult warmup = core::mrp_optimize(bank, opts);  // miss+put
      const MrpResult cached = core::mrp_optimize(equiv, opts);  // hit

      MrpOptions fresh_opts = opts;
      fresh_opts.cache = nullptr;
      const MrpResult fresh = core::mrp_optimize(equiv, fresh_opts);
      expect_same_mrp_result(cached, fresh);
    }
    const CacheStats s = cache.stats();
    // Exactly one hit per equivalent re-solve. Misses can exceed the
    // trial count: recursive SEED levels consult the cache too, and each
    // inner level is its own fingerprint.
    EXPECT_EQ(s.hits, 8u);
    EXPECT_GE(s.misses, 8u);
    EXPECT_EQ(s.inserts, s.misses);
  }
}

TEST(SolveCacheTest, DifferentOptionsTagIsAMiss) {
  SolveCache cache;
  MrpOptions opts;
  opts.cache = &cache;
  (void)core::mrp_optimize(kPaperExample, opts);
  MrpOptions other = opts;
  other.l_max = opts.l_max + 1;
  (void)core::mrp_optimize(kPaperExample, other);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(SolveCacheTest, EmptyAndAllZeroBanksBypassTheCache) {
  SolveCache cache;
  MrpOptions opts;
  opts.cache = &cache;
  (void)core::mrp_optimize({}, opts);
  (void)core::mrp_optimize({0, 0, 0}, opts);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.entries, 0u);
  // Bypassed, not unaccounted: each trivial-bank lookup shows up in the
  // dedicated counter so hits + misses + trivial == lookup count.
  EXPECT_GE(s.trivial, 2u);
}

TEST(SolveCacheTest, LruEvictsOldestUnderTinyBudget) {
  SolveCacheConfig config;
  config.max_bytes = 1;  // far below one entry: every insert evicts
  config.shards = 1;
  SolveCache cache(config);
  MrpOptions opts;
  opts.cache = &cache;
  (void)core::mrp_optimize({7, 66, 17}, opts);
  (void)core::mrp_optimize({9, 27, 41}, opts);
  (void)core::mrp_optimize({57, 11}, opts);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.inserts, 3u);
  EXPECT_EQ(s.evictions, 2u);  // each insert displaces the previous entry
  EXPECT_EQ(s.entries, 1u);    // the budget floor: always keep one
  // The survivor is the most recent solve.
  MrpResult out;
  EXPECT_TRUE(cache.try_get({57, 11}, MrpOptions{}, out));
  EXPECT_FALSE(cache.try_get({7, 66, 17}, MrpOptions{}, out));
}

TEST(SolveCacheTest, BnbPlansRoundTripBothWinAndFallbackShapes) {
  SolveCache cache;
  MrpOptions opts;
  opts.cache = &cache;
  opts.opt_budget = 200'000;

  // Win shape: the exact search beats greedy, so the cached plan carries
  // no MRP provenance — the cache must accept and rehydrate it anyway.
  const std::vector<i64> winnable = {7, 23, 45, 105};
  const core::SchemeResult cold =
      core::optimize_bank(winnable, core::Scheme::kBnb, opts);
  ASSERT_FALSE(cold.plan.mrp.has_value());
  const core::SchemeResult warm =
      core::optimize_bank(winnable, core::Scheme::kBnb, opts);
  expect_same_plan(warm.plan, cold.plan);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Fallback shape: past max_targets the search skips and the greedy MRP
  // plan — provenance intact — is cached under the bnb scheme.
  const std::vector<i64> wide = {3,  5,  7,  9,  11, 13,
                                 17, 19, 21, 23, 25, 27};
  const core::SchemeResult cold_wide =
      core::optimize_bank(wide, core::Scheme::kBnb, opts);
  ASSERT_TRUE(cold_wide.plan.mrp.has_value());
  const core::SchemeResult warm_wide =
      core::optimize_bank(wide, core::Scheme::kBnb, opts);
  expect_same_plan(warm_wide.plan, cold_wide.plan);

  // A different budget is a different fingerprint: the plan is solved
  // fresh, never served from the smaller-budget entry. (Total hit counts
  // can still move — the driver's internal greedy upper-bound solve
  // shares the cache under the plain-MRP slot, by design.)
  MrpOptions bigger = opts;
  bigger.opt_budget = 400'000;
  core::SolveInfo info;
  (void)core::optimize_bank(winnable, core::Scheme::kBnb, bigger, &info);
  EXPECT_FALSE(info.cache_hit);
  core::SolveInfo again;
  (void)core::optimize_bank(winnable, core::Scheme::kBnb, bigger, &again);
  EXPECT_TRUE(again.cache_hit);
}

TEST(SolveCacheTest, BatchDedupsEquivalentBanksToOneLiveSolve) {
  Rng rng(0xDEDU);
  const std::vector<i64> bank_a = kPaperExample;
  const std::vector<i64> bank_b = {3, 5, 19, 21};
  std::vector<std::vector<i64>> banks = {
      bank_a, equivalent_variant(bank_a, rng), bank_b,
      equivalent_variant(bank_a, rng), equivalent_variant(bank_b, rng)};

  MrpOptions plain;
  std::vector<MrpResult> expected;
  for (const auto& bank : banks) {
    expected.push_back(core::mrp_optimize(bank, plain));
  }

  SolveCache cache;
  MrpOptions opts;
  opts.cache = &cache;
  const std::vector<MrpResult> got = core::mrp_optimize_batch(banks, opts);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same_mrp_result(got[i], expected[i]);
  }
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 2u);  // one live solve per equivalence class
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.inserts, 2u);
}

TEST(SolveCacheTest, CachedBatchIsDeterministicAcrossThreadCounts) {
  Rng rng(0xBEEF);
  std::vector<std::vector<i64>> banks;
  for (int trial = 0; trial < 4; ++trial) {
    banks.push_back(random_bank(rng, 30));
    banks.push_back(equivalent_variant(banks.back(), rng));
  }
  MrpOptions plain;
  std::vector<MrpResult> expected;
  for (const auto& bank : banks) {
    expected.push_back(core::mrp_optimize(bank, plain));
  }
  for (const char* threads : {"1", "2", "8"}) {
    ::setenv("MRPF_THREADS", threads, 1);
    SolveCache cache;
    MrpOptions opts;
    opts.cache = &cache;
    const std::vector<MrpResult> got = core::mrp_optimize_batch(banks, opts);
    ::unsetenv("MRPF_THREADS");
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_same_mrp_result(got[i], expected[i]);
    }
  }
}

core::SynthPlan rich_plan() {
  // mrpf+cse (cse_on_seed) plus recursive levels populates plan.mrp with
  // its optional SEED CSE plan and a nested recursive level, so the
  // round-trip covers every branch of the serializer.
  MrpOptions opts;
  opts.recursive_levels = 2;
  return core::optimize_bank(kPaperExample, core::Scheme::kMrpCse, opts)
      .plan;
}

void expect_same_timers(const core::StageTimers& a,
                        const core::StageTimers& b) {
  const auto same = [](const core::StageSample& x,
                       const core::StageSample& y) {
    return x.ns == y.ns && x.items == y.items;
  };
  EXPECT_TRUE(same(a.primaries, b.primaries));
  EXPECT_TRUE(same(a.color_graph, b.color_graph));
  EXPECT_TRUE(same(a.set_cover, b.set_cover));
  EXPECT_TRUE(same(a.tree_growth, b.tree_growth));
  EXPECT_TRUE(same(a.seed_synthesis, b.seed_synthesis));
  EXPECT_TRUE(same(a.optimize, b.optimize));
  EXPECT_TRUE(same(a.lowering, b.lowering));
  EXPECT_TRUE(same(a.exec_compile, b.exec_compile));
  EXPECT_TRUE(same(a.exec_run, b.exec_run));
  EXPECT_TRUE(same(a.bnb_search, b.bnb_search));
  EXPECT_TRUE(same(a.bnb_fallback, b.bnb_fallback));
  EXPECT_EQ(a.total_ns, b.total_ns);
}

TEST(ResultSerde, RoundTripIsExactForEveryPlanShape) {
  // One plan per optional-field shape: bare ops+taps (simple), plan.cse
  // (Hartley CSE), the rich MRP plan with recursive SEED provenance, and
  // the bnb-exact shape (ops+taps under a non-simple scheme, no
  // provenance at all, bnb timer samples populated).
  std::vector<core::SynthPlan> plans;
  plans.push_back(
      core::optimize_bank(kPaperExample, core::Scheme::kSimple).plan);
  plans.push_back(
      core::optimize_bank(kPaperExample, core::Scheme::kCse).plan);
  plans.push_back(rich_plan());
  core::MrpOptions bnb_opts;
  bnb_opts.opt_budget = 2'000'000;
  plans.push_back(
      core::optimize_bank({7, 23, 45, 105}, core::Scheme::kBnb, bnb_opts)
          .plan);
  ASSERT_FALSE(plans.back().mrp.has_value());  // the exact plan won
  for (const core::SynthPlan& original : plans) {
    std::vector<std::uint8_t> bytes;
    io::serialize_plan(original, bytes);
    std::size_t pos = 0;
    const core::SynthPlan restored =
        io::deserialize_plan(bytes.data(), bytes.size(), pos);
    EXPECT_EQ(pos, bytes.size());
    expect_same_plan(restored, original);
    expect_same_timers(restored.timers, original.timers);
  }
}

TEST(ResultSerde, RejectsCorruptionEverywhere) {
  const core::SynthPlan original = rich_plan();
  std::vector<std::uint8_t> bytes;
  io::serialize_plan(original, bytes);

  // Flip one byte at a spread of positions: header, lengths, checksum,
  // payload. Every corruption must throw, never mis-decode.
  for (std::size_t at = 0; at < bytes.size();
       at += 1 + bytes.size() / 97) {
    std::vector<std::uint8_t> bad = bytes;
    bad[at] ^= 0x5A;
    std::size_t pos = 0;
    EXPECT_THROW((void)io::deserialize_plan(bad.data(), bad.size(), pos),
                 Error)
        << "flipped byte " << at;
  }
  // Truncations, including mid-header.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{10}, std::size_t{24},
        bytes.size() / 2, bytes.size() - 1}) {
    std::size_t pos = 0;
    EXPECT_THROW((void)io::deserialize_plan(bytes.data(), keep, pos),
                 Error)
        << "truncated to " << keep;
  }
}

TEST(ResultSerde, RejectsVersionBump) {
  const core::SynthPlan original =
      core::optimize_bank(kPaperExample, core::Scheme::kMrp).plan;
  std::vector<std::uint8_t> bytes;
  io::serialize_plan(original, bytes);
  bytes[4] ^= 0x10;  // version field, directly after the magic
  std::size_t pos = 0;
  EXPECT_THROW((void)io::deserialize_plan(bytes.data(), bytes.size(), pos),
               Error);
  // The previous on-disk version (v1, MrpResult frames) must reject
  // cleanly too, not mis-decode: set the version field to 1 exactly.
  bytes[4] = 1;
  pos = 0;
  EXPECT_THROW((void)io::deserialize_plan(bytes.data(), bytes.size(), pos),
               Error);
}

TEST(ResultSerde, RejectsPreXformFrameVersion) {
  // Version 4 frames predate the xform timers and provenance; a v5 reader
  // must fail closed on them, never decode the old layout as the new one.
  static_assert(io::kResultSerdeVersion == 5,
                "update this regression when the serde version moves");
  const core::SynthPlan original =
      core::optimize_bank(kPaperExample, core::Scheme::kMrp).plan;
  std::vector<std::uint8_t> bytes;
  io::serialize_plan(original, bytes);
  bytes[4] = 4;  // the pre-xform frame version, exactly
  std::size_t pos = 0;
  EXPECT_THROW((void)io::deserialize_plan(bytes.data(), bytes.size(), pos),
               Error);
}

TEST(ResultSerde, XformProvenanceRoundTrips) {
  core::MrpOptions opts;
  opts.passes.xform = true;
  opts.passes.xform_budget = 60'000;
  const core::SynthPlan original =
      core::optimize_bank(kPaperExample, core::Scheme::kSimple, opts).plan;
  ASSERT_TRUE(original.xform.has_value());  // simple: 12 -> 8, a strict win
  std::vector<std::uint8_t> bytes;
  io::serialize_plan(original, bytes);
  std::size_t pos = 0;
  const core::SynthPlan round =
      io::deserialize_plan(bytes.data(), bytes.size(), pos);
  expect_same_plan(original, round);
  // The new stage-timer samples ride along (timers are serialized even
  // though plan comparisons exclude them).
  EXPECT_EQ(round.timers.xform_saturate.items,
            original.timers.xform_saturate.items);
  EXPECT_EQ(round.timers.xform_fallback.items,
            original.timers.xform_fallback.items);
}

TEST(Persist, SaveLoadRoundTripServesHits) {
  const std::string path = temp_path("roundtrip");
  MrpOptions opts;
  {
    SolveCache cache;
    opts.cache = &cache;
    (void)core::mrp_optimize(kPaperExample, opts);
    (void)core::mrp_optimize({3, 5, 19, 21}, opts);
    ASSERT_TRUE(save_solve_cache(cache, path));
  }
  SolveCache warm;
  ASSERT_TRUE(load_solve_cache(warm, path));
  EXPECT_EQ(warm.stats().entries, 2u);

  opts.cache = &warm;
  const MrpResult cached = core::mrp_optimize(kPaperExample, opts);
  EXPECT_EQ(warm.stats().hits, 1u);
  EXPECT_EQ(warm.stats().misses, 0u);
  MrpOptions plain;
  expect_same_mrp_result(cached, core::mrp_optimize(kPaperExample, plain));
  std::remove(path.c_str());
}

TEST(Persist, BnbWinShapePlanSurvivesSaveLoad) {
  // The provenance-free bnb plan shape must round-trip through the store
  // and serve warm hits identical to a fresh exact solve.
  const std::string path = temp_path("bnbshape");
  MrpOptions opts;
  opts.opt_budget = 200'000;
  {
    SolveCache cache;
    opts.cache = &cache;
    const core::SchemeResult cold =
        core::optimize_bank({7, 23, 45, 105}, core::Scheme::kBnb, opts);
    ASSERT_FALSE(cold.plan.mrp.has_value());
    ASSERT_TRUE(save_solve_cache(cache, path));
  }
  SolveCache warm;
  ASSERT_TRUE(load_solve_cache(warm, path));
  // Two entries: the exact bnb plan plus the driver's internal greedy
  // upper-bound solve, which shares the store under the plain-MRP slot.
  EXPECT_EQ(warm.stats().entries, 2u);
  opts.cache = &warm;
  const core::SchemeResult cached =
      core::optimize_bank({7, 23, 45, 105}, core::Scheme::kBnb, opts);
  EXPECT_EQ(warm.stats().hits, 1u);
  MrpOptions plain;
  plain.opt_budget = 200'000;
  expect_same_plan(
      cached.plan,
      core::optimize_bank({7, 23, 45, 105}, core::Scheme::kBnb, plain).plan);
  std::remove(path.c_str());
}

TEST(Persist, RejectsCorruptFilesWholesale) {
  const std::string path = temp_path("corrupt");
  {
    SolveCache cache;
    MrpOptions opts;
    opts.cache = &cache;
    (void)core::mrp_optimize(kPaperExample, opts);
    (void)core::mrp_optimize({3, 5, 19, 21}, opts);
    ASSERT_TRUE(save_solve_cache(cache, path));
  }
  const std::vector<std::uint8_t> good = read_bytes(path);
  for (std::size_t at = 0; at < good.size(); at += 1 + good.size() / 61) {
    std::vector<std::uint8_t> bad = good;
    bad[at] ^= 0xA5;
    write_bytes(path, bad);
    SolveCache cache;
    EXPECT_FALSE(load_solve_cache(cache, path)) << "flipped byte " << at;
    EXPECT_EQ(cache.stats().entries, 0u) << "flipped byte " << at;
  }
  // Truncated file.
  write_bytes(path, std::vector<std::uint8_t>(good.begin(),
                                              good.begin() + 16));
  SolveCache cache;
  EXPECT_FALSE(load_solve_cache(cache, path));
  // Missing file.
  std::remove(path.c_str());
  EXPECT_FALSE(load_solve_cache(cache, path));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(Persist, RejectsChecksumValidTruncations) {
  // A truncated store whose checksum is recomputed over the shorter file is
  // internally consistent, so rejection must come from the loader's bounds
  // checks alone. Sweep prefix lengths, pinning the options-tag boundary
  // (header + 36 of the 37 tag bytes — 28 before the e-graph pass fields)
  // that once underflowed ByteReader::need into out-of-bounds reads and an
  // unbounded resize.
  const std::string path = temp_path("truncate");
  {
    SolveCache cache;
    MrpOptions opts;
    opts.cache = &cache;
    (void)core::mrp_optimize(kPaperExample, opts);
    (void)core::mrp_optimize({3, 5, 19, 21}, opts);
    ASSERT_TRUE(save_solve_cache(cache, path));
  }
  const std::vector<std::uint8_t> good = read_bytes(path);
  const std::size_t payload = good.size() - 8;  // sans trailing checksum
  const std::size_t header = 24;  // magic + version + reserved + count
  std::vector<std::size_t> keeps = {header + 35, header + 36, header + 37,
                                    header + 38};
  for (std::size_t keep = 0; keep < payload; keep += 1 + payload / 73) {
    keeps.push_back(keep);
  }
  for (const std::size_t keep : keeps) {
    std::vector<std::uint8_t> bad(
        good.begin(), good.begin() + static_cast<std::ptrdiff_t>(keep));
    const u64 checksum = fnv1a64(bad.data(), bad.size());
    for (int b = 0; b < 8; ++b) {
      bad.push_back(static_cast<std::uint8_t>(checksum >> (8 * b)));
    }
    write_bytes(path, bad);
    SolveCache cache;
    EXPECT_FALSE(load_solve_cache(cache, path)) << "kept " << keep;
    EXPECT_EQ(cache.stats().entries, 0u) << "kept " << keep;
  }
  std::remove(path.c_str());
}

TEST(Persist, RejectsPreXformFileVersion) {
  // Version 3 stores carry 28-byte options tags without the e-graph pass
  // fields; a version-4 loader must reject them wholesale (cold solve and
  // re-save), never shift-decode the shorter tag.
  static_assert(kCacheFileVersion == 4,
                "update this regression when the file version moves");
  const std::string path = temp_path("prexform");
  {
    SolveCache cache;
    MrpOptions opts;
    opts.cache = &cache;
    (void)core::mrp_optimize(kPaperExample, opts);
    ASSERT_TRUE(save_solve_cache(cache, path));
  }
  std::vector<std::uint8_t> bytes = read_bytes(path);
  bytes[8] = 3;  // the pre-xform file version, exactly
  const u64 checksum = fnv1a64(bytes.data(), bytes.size() - 8);
  for (int b = 0; b < 8; ++b) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(checksum >> (8 * b));
  }
  write_bytes(path, bytes);
  SolveCache cache;
  EXPECT_FALSE(load_solve_cache(cache, path));
  EXPECT_EQ(cache.stats().entries, 0u);
  std::remove(path.c_str());
}

TEST(Fingerprint, PassConfigSplitsTheKeySpace) {
  const CanonicalBank cb = canonicalize(kPaperExample);
  MrpOptions off;
  MrpOptions on;
  on.passes.xform = true;
  on.passes.xform_budget = 60'000;
  MrpOptions other_budget = on;
  other_budget.passes.xform_budget = 250'000;
  // Pass-on and pass-off solves must never share an entry, and the budget
  // is part of the pass-on key (different budgets can extract different
  // DAGs).
  EXPECT_NE(solve_key(cb, off), solve_key(cb, on));
  EXPECT_NE(solve_key(cb, on), solve_key(cb, other_budget));
}

TEST(SolveCache, PassNamespacesServeDisjointHits) {
  SolveCache cache;
  MrpOptions off;
  off.cache = &cache;
  MrpOptions on = off;
  on.passes.xform = true;
  on.passes.xform_budget = 60'000;

  // simple on the paper bank: pass-off is 12 adders, pass-on is 8 — the
  // two namespaces cache genuinely different plans.
  const core::SchemeResult cold_off =
      core::optimize_bank(kPaperExample, core::Scheme::kSimple, off);
  const core::SchemeResult cold_on =
      core::optimize_bank(kPaperExample, core::Scheme::kSimple, on);
  EXPECT_LT(cold_on.plan.analytic_adders, cold_off.plan.analytic_adders);
  EXPECT_EQ(cache.stats().hits, 0u);

  // Each warm replay hits its own namespace and rehydrates its own plan,
  // including the post-pass ops/taps and xform provenance.
  const core::SchemeResult warm_off =
      core::optimize_bank(kPaperExample, core::Scheme::kSimple, off);
  const core::SchemeResult warm_on =
      core::optimize_bank(kPaperExample, core::Scheme::kSimple, on);
  EXPECT_EQ(cache.stats().hits, 2u);
  expect_same_plan(cold_off.plan, warm_off.plan);
  expect_same_plan(cold_on.plan, warm_on.plan);
  ASSERT_TRUE(warm_on.plan.xform.has_value());
  EXPECT_FALSE(warm_off.plan.xform.has_value());
}

TEST(Persist, RejectsVersionBumpEvenWithRecomputedChecksum) {
  const std::string path = temp_path("version");
  {
    SolveCache cache;
    MrpOptions opts;
    opts.cache = &cache;
    (void)core::mrp_optimize(kPaperExample, opts);
    ASSERT_TRUE(save_solve_cache(cache, path));
  }
  std::vector<std::uint8_t> bytes = read_bytes(path);
  bytes[8] += 1;  // file-format version, directly after the u64 magic
  const u64 checksum = fnv1a64(bytes.data(), bytes.size() - 8);
  for (int b = 0; b < 8; ++b) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(checksum >> (8 * b));
  }
  write_bytes(path, bytes);
  SolveCache cache;
  EXPECT_FALSE(load_solve_cache(cache, path));
  EXPECT_EQ(cache.stats().entries, 0u);
  std::remove(path.c_str());
}

TEST(Session, HonorsMrpfCacheEnv) {
  bool malformed = false;
  EXPECT_TRUE(parse_cache_env("0", &malformed).disabled);
  EXPECT_TRUE(parse_cache_env("off", &malformed).disabled);
  EXPECT_TRUE(parse_cache_env("OFF", &malformed).disabled);
  EXPECT_FALSE(malformed);
  EXPECT_EQ(parse_cache_env("8", &malformed).max_bytes,
            std::size_t{8} << 20);
  EXPECT_FALSE(malformed);
  EXPECT_EQ(parse_cache_env("999999999", &malformed).max_bytes,
            std::size_t{65536} << 20);  // clamped
  EXPECT_FALSE(malformed);
  EXPECT_EQ(parse_cache_env(nullptr, &malformed).max_bytes, 0u);
  EXPECT_FALSE(malformed);
  (void)parse_cache_env("banana", &malformed);
  EXPECT_TRUE(malformed);
  (void)parse_cache_env("-3", &malformed);
  EXPECT_TRUE(malformed);

  ::setenv("MRPF_CACHE", "off", 1);
  SolveCacheSession disabled("");
  EXPECT_EQ(disabled.cache(), nullptr);
  EXPECT_TRUE(disabled.save());

  ::setenv("MRPF_CACHE", "4", 1);
  SolveCacheSession sized("");
  ASSERT_NE(sized.cache(), nullptr);
  EXPECT_EQ(sized.cache()->max_bytes(), std::size_t{4} << 20);
  ::unsetenv("MRPF_CACHE");
}

TEST(Flow, CachePathWiresWarmSolves) {
  const std::string path = temp_path("flow");
  MrpOptions opts;
  opts.cache_path = path;

  const core::SchemeResult cold =
      core::optimize_bank(kPaperExample, core::Scheme::kMrpCse, opts);
  ASSERT_TRUE(std::ifstream(path).good()) << "store not written";

  const core::SchemeResult warm =
      core::optimize_bank(kPaperExample, core::Scheme::kMrpCse, opts);
  ASSERT_TRUE(warm.plan.mrp.has_value());
  expect_same_plan(warm.plan, cold.plan);
  EXPECT_EQ(warm.multiplier_adders, cold.multiplier_adders);

  // Corrupting the store degrades to a cold (fresh) solve, same result.
  std::vector<std::uint8_t> bytes = read_bytes(path);
  bytes[bytes.size() / 2] ^= 0xFF;
  write_bytes(path, bytes);
  const core::SchemeResult recovered =
      core::optimize_bank(kPaperExample, core::Scheme::kMrpCse, opts);
  expect_same_plan(recovered.plan, cold.plan);

  // Batch front-end with MRPF_CACHE disabled: cache_path is a no-op.
  ::setenv("MRPF_CACHE", "off", 1);
  const auto batch = core::optimize_bank_batch(
      {kPaperExample, {3, 5, 19, 21}}, core::Scheme::kMrp, opts);
  ::unsetenv("MRPF_CACHE");
  ASSERT_EQ(batch.size(), 2u);
  MrpOptions plain;
  ASSERT_TRUE(batch[0].plan.mrp.has_value());
  expect_same_mrp_result(*batch[0].plan.mrp,
                         core::mrp_optimize(kPaperExample, plain));
  std::remove(path.c_str());
}

TEST(Persist, ConcurrentSaversNeverCorruptTheSurvivingStore) {
  // Two writers racing save_solve_cache on ONE path. Each save stages
  // into a writer-unique temp file (pid + counter) and renames atomically,
  // so whichever rename lands last, the store at `path` is always one
  // writer's complete, checksum-valid file. The old fixed `path + ".tmp"`
  // staging name made the writers scribble into the same temp file and
  // rename torn bytes into place — this test fails on that code.
  const std::string path = temp_path("two_writers");

  SolveCache a;
  SolveCache b;
  {
    MrpOptions opts;
    opts.cache = &a;
    (void)core::mrp_optimize(kPaperExample, opts);
    (void)core::mrp_optimize({3, 5, 19, 21}, opts);
    // b is much larger than a: its longer write keeps the racy window
    // (truncate-to-rename on a SHARED temp name) open long enough that
    // the unfixed code tears within a few hundred rounds.
    opts.cache = &b;
    (void)core::mrp_optimize({23, 81, 5}, opts);
    Rng rng(0xB0B);
    for (int i = 0; i < 40; ++i) {
      (void)core::mrp_optimize(random_bank(rng, 30, 8, 14), opts);
    }
  }
  const u64 entries_a = a.stats().entries;
  const u64 entries_b = b.stats().entries;
  ASSERT_NE(entries_a, entries_b);  // so the loaded store is attributable
  // Put a complete store in place before the race: otherwise a sample
  // taken before any writer's first rename loads a missing file and
  // counts it as torn.
  ASSERT_TRUE(save_solve_cache(a, path));

  // Four writers hammer the path continuously (no lockstep — the whole
  // save IS the racy window), while the main thread samples the store.
  // Rename is atomic, so every save must succeed and every sampled load
  // must see one writer's complete file. On the old fixed `path + ".tmp"`
  // staging name this fails two ways, dozens of times per run: a writer's
  // rename steals another's temp file (save returns false), and a rename
  // publishes a temp the other writer was mid-write in (load rejects the
  // torn store).
  constexpr int kWriters = 4;
  constexpr int kSaves = 1200;
  std::atomic<int> ready{0};
  std::atomic<int> finished{0};
  std::atomic<int> save_failures{0};
  auto racer = [&](const SolveCache& cache) {
    ready.fetch_add(1);
    while (ready.load() < kWriters) {
    }
    for (int i = 0; i < kSaves; ++i) {
      if (!save_solve_cache(cache, path)) save_failures.fetch_add(1);
    }
    finished.fetch_add(1);
  };
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back(racer, std::cref(w % 2 == 0 ? a : b));
  }
  while (ready.load() < kWriters) {
  }
  int sampled = 0;
  int bad = 0;
  while (finished.load() < kWriters) {
    SolveCache loaded;
    if (!load_solve_cache(loaded, path)) {
      ++bad;
    } else {
      const u64 entries = loaded.stats().entries;
      if (entries != entries_a && entries != entries_b) ++bad;
    }
    ++sampled;
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(save_failures.load(), 0)
      << "a racing writer lost its temp file mid-save";
  EXPECT_EQ(bad, 0) << bad << " of " << sampled
                    << " concurrent loads saw a torn store";

  // And the state left behind once the dust settles must load cleanly.
  SolveCache loaded;
  ASSERT_TRUE(load_solve_cache(loaded, path));
  const u64 entries = loaded.stats().entries;
  EXPECT_TRUE(entries == entries_a || entries == entries_b)
      << "final store has " << entries << " entries, want " << entries_a
      << " or " << entries_b;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mrpf::cache
