// The exec module: plan compilation (dead-op elimination, slot reuse,
// shift/negate fusion, width analysis), lane-blocked engine execution,
// bit-identity against naive convolution on the catalog, streaming
// push/reset semantics, batch channels, the MRPF_EXEC knob, and stage
// timer accumulation.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <vector>

#include "mrpf/common/env.hpp"
#include "mrpf/common/rng.hpp"
#include "mrpf/core/flow.hpp"
#include "mrpf/core/plan_equality.hpp"
#include "mrpf/core/stage_timers.hpp"
#include "mrpf/dsp/convolve.hpp"
#include "mrpf/exec/compile.hpp"
#include "mrpf/exec/engine.hpp"
#include "mrpf/exec/streaming.hpp"
#include "mrpf/filter/catalog.hpp"
#include "mrpf/number/quantize.hpp"
#include "mrpf/sim/workload.hpp"

namespace mrpf::exec {
namespace {

const std::vector<i64> kBank = {7, -66, 17, 0, 27, 41, -57, 11};

arch::TdfFilter make_filter(core::Scheme scheme = core::Scheme::kMrp,
                            const std::vector<i64>& coeffs = kBank,
                            const std::vector<int>& align = {}) {
  return core::build_tdf(coeffs, align, scheme);
}

TEST(ExecCompile, ProgramShapeAndWidthAnalysis) {
  const arch::TdfFilter f = make_filter();
  const ExecProgram p = compile(f);
  EXPECT_EQ(p.n_taps, kBank.size());
  // The zero coefficient contributes no fused tap.
  EXPECT_EQ(p.taps.size(), kBank.size() - 1);
  EXPECT_GT(p.ops.size(), 0u);
  EXPECT_LE(static_cast<int>(p.ops.size()), p.source_ops);
  // Lifetime reuse can never need more slots than nodes (input + ops).
  EXPECT_GE(p.n_slots, 1);
  EXPECT_LE(p.n_slots, static_cast<int>(p.ops.size()) + 1);
  // max coefficient magnitude 66 < 2^7, so inputs up to at least 40 bits
  // must be provably exact (64 - bits(sum |c|) is far above 40 here).
  EXPECT_GE(p.max_input_bits, 40);
  EXPECT_LE(p.max_input_bits, 63);
  // Compile timing was recorded with the kept-op count as items.
  EXPECT_GT(p.timers.exec_compile.ns, 0.0);
  EXPECT_EQ(p.timers.exec_compile.items, p.ops.size());
}

TEST(ExecCompile, DeadOpsAreEliminated) {
  // A plan lowered for one bank reused for a program compiled off a
  // filter is always fully live; instead check the reported source-op
  // bound holds across schemes (elimination can only shrink).
  for (const core::Scheme s : core::all_schemes()) {
    const arch::TdfFilter f = make_filter(s);
    const ExecProgram p = compile(f);
    EXPECT_LE(p.ops.size(), static_cast<std::size_t>(p.source_ops))
        << core::to_string(s);
    // Every fused tap reads an allocated slot inside the file.
    for (const ExecTap& t : p.taps) {
      EXPECT_GE(t.slot, 0);
      EXPECT_LT(t.slot, p.n_slots);
      EXPECT_LT(t.position, p.n_taps);
    }
    for (const ExecOp& op : p.ops) {
      EXPECT_GE(op.dst, 0);
      EXPECT_LT(op.dst, p.n_slots);
      EXPECT_LT(op.a, p.n_slots);
      EXPECT_LT(op.b, p.n_slots);
    }
  }
}

TEST(ExecCompile, FusesAlignmentIntoTapShift) {
  const std::vector<int> align = {1, 2, 0, 3, 1, 0, 2, 1};
  const arch::TdfFilter plain = make_filter(core::Scheme::kSimple);
  const arch::TdfFilter aligned =
      make_filter(core::Scheme::kSimple, kBank, align);
  const ExecProgram pp = compile(plain);
  const ExecProgram pa = compile(aligned);
  ASSERT_EQ(pp.taps.size(), pa.taps.size());
  // Same multiplier block, so the only difference is the fused shift.
  for (std::size_t i = 0; i < pp.taps.size(); ++i) {
    const int k = static_cast<int>(pa.taps[i].position);
    EXPECT_EQ(pa.taps[i].shift - pp.taps[i].shift, align[k]) << i;
  }
}

TEST(ExecEngine, MatchesInterpreterForEverySchemeAndLaneWidth) {
  Rng rng(0xE1);
  const std::vector<i64> x = sim::uniform_stream(rng, 257, 12);
  for (const core::Scheme s : core::all_schemes()) {
    const arch::TdfFilter f = make_filter(s);
    const std::vector<i64> expect = f.run(x);
    const ExecProgram p = compile(f);
    // 0 resolves to the default width; odd widths end mid-vector.
    for (const int lanes : {0, 1, 2, 3, 8, 16, 63, 64}) {
      ExecEngine engine(p, lanes);
      EXPECT_EQ(engine.lanes(), lanes > 0 ? lanes : default_lane_width(p));
      std::vector<i64> y(x.size());
      engine.run(x.data(), y.data(), x.size());
      EXPECT_EQ(y, expect) << core::to_string(s) << " lanes=" << lanes;
    }
  }
}

TEST(ExecEngine, DefaultLaneWidthHalvesPastTheL1Budget) {
  ExecProgram p;
  // 64 lanes while the slot file fits 32 KiB (64 slots x 64 lanes x 8 B).
  for (const int slots : {0, 1, 51, 64}) {
    p.n_slots = slots;
    EXPECT_EQ(default_lane_width(p), 64) << slots;
  }
  p.n_slots = 65;
  EXPECT_EQ(default_lane_width(p), 32);
  p.n_slots = 1000;
  EXPECT_EQ(default_lane_width(p), 4);
  // Never narrower than one vector (four lanes).
  p.n_slots = 1 << 20;
  EXPECT_EQ(default_lane_width(p), 4);
  // Every catalog filter keeps the full default width.
  for (int i = 0; i < filter::catalog_size(); ++i) {
    const ExecProgram c = compile(core::build_tdf(
        number::quantize_maximal(filter::catalog_coefficients(i), 16),
        core::Scheme::kMrp));
    EXPECT_EQ(default_lane_width(c), 64) << "catalog filter " << i;
  }
}

TEST(ExecEngine, NegativeFusedShiftsMatchInterpreterOnNegativeInputs) {
  // One adder with an even fundamental, 6x = (x << 2) + (x << 1). Taps
  // 3 and -3 read it shifted right by one (a negative fused shift, which
  // no catalog filter produces), 6 reads it as is and 12 shifted left.
  arch::MultiplierBlock block;
  const int six = block.graph.add_op(0, 2, 0, 1, false);
  ASSERT_EQ(block.graph.fundamental(six), 6);
  const std::vector<i64> coeffs = {3, -3, 6, 0, 12};
  block.constants = coeffs;
  for (const i64 c : coeffs) {
    const std::optional<arch::Tap> tap = block.graph.resolve(c);
    ASSERT_TRUE(tap.has_value()) << c;
    block.taps.push_back(*tap);
  }
  const arch::TdfFilter f(coeffs, {}, std::move(block));
  const ExecProgram p = compile(f);
  int negative_shifts = 0;
  for (const ExecTap& t : p.taps) negative_shifts += t.shift < 0 ? 1 : 0;
  EXPECT_EQ(negative_shifts, 2);

  Rng rng(0xE7);
  std::vector<i64> x = sim::uniform_stream(rng, 301, 16);
  for (i64& v : x) v = -std::abs(v) - 1;  // strictly negative
  const std::vector<i64> expect = f.run(x);
  for (const int lanes : {1, 2, 3, 63, 64}) {
    ExecEngine engine(p, lanes);
    std::vector<i64> y(x.size());
    // Two calls, so one block ends part-way through the lanes.
    engine.run(x.data(), y.data(), 37);
    engine.run(x.data() + 37, y.data() + 37, x.size() - 37);
    EXPECT_EQ(y, expect) << "lanes=" << lanes;
  }
}

TEST(ExecEngine, StateCarriesAcrossRunCallsAndResets) {
  const arch::TdfFilter f = make_filter();
  const ExecProgram p = compile(f);
  Rng rng(0xE2);
  const std::vector<i64> x = sim::uniform_stream(rng, 100, 10);
  const std::vector<i64> expect = f.run(x);

  ExecEngine engine(p, 7);
  std::vector<i64> y(x.size());
  // Uneven split: 1 + 13 + 86 samples through one persistent engine.
  engine.run(x.data(), y.data(), 1);
  engine.run(x.data() + 1, y.data() + 1, 13);
  engine.run(x.data() + 14, y.data() + 14, x.size() - 14);
  EXPECT_EQ(y, expect);

  // reset() must restore the fresh state exactly.
  engine.reset();
  std::vector<i64> replay(x.size());
  engine.run(x.data(), replay.data(), x.size());
  EXPECT_EQ(replay, expect);
  // exec_run accounting is monotone: ns grows, items count every sample.
  EXPECT_EQ(engine.timers().exec_run.items, 2 * x.size());
  EXPECT_GT(engine.timers().exec_run.ns, 0.0);
}

TEST(ExecEngine, ZeroAndTinyRunsAreSafe) {
  const arch::TdfFilter f = make_filter();
  const ExecProgram p = compile(f);
  ExecEngine engine(p);
  engine.run(nullptr, nullptr, 0);
  i64 x = 3, y = 0;
  engine.run(&x, &y, 1);
  EXPECT_EQ(y, f.run({3})[0]);
}

TEST(ExecEngine, RunBatchMatchesSerialPerChannel) {
  const arch::TdfFilter f = make_filter();
  const ExecProgram p = compile(f);
  Rng rng(0xE3);
  std::vector<std::vector<i64>> inputs;
  for (int c = 0; c < 9; ++c) {
    inputs.push_back(sim::uniform_stream(rng, 40 + 17 * c, 11));
  }
  const std::vector<std::vector<i64>> outputs = run_batch(p, inputs);
  ASSERT_EQ(outputs.size(), inputs.size());
  for (std::size_t c = 0; c < inputs.size(); ++c) {
    EXPECT_EQ(outputs[c], f.run(inputs[c])) << "channel " << c;
  }
}

TEST(ExecEngine, CatalogStreamsEqualNaiveConvolutionInEveryRunMode) {
  // Catalog filters 0-3 (W=16, maximally scaled) under mrpf, and filter 0
  // under every other scheme: 8192 samples at the widest input the
  // compiled path proves exact, capped at 16 bits. The interpreter, the
  // compiled engine, a randomly chunked StreamingFilter on the vector
  // engine and four run_batch channels all reproduce naive convolution.
  std::vector<std::pair<int, core::Scheme>> rows;
  for (int i = 0; i < 4; ++i) rows.emplace_back(i, core::Scheme::kMrp);
  for (const core::Scheme s : core::all_schemes()) {
    if (s != core::Scheme::kMrp) rows.emplace_back(0, s);
  }
  for (const auto& [idx, scheme] : rows) {
    SCOPED_TRACE(testing::Message()
                 << "filter " << idx << " " << core::to_string(scheme));
    const arch::TdfFilter f = core::build_tdf(
        number::quantize_maximal(filter::catalog_coefficients(idx), 16),
        scheme);
    const ExecProgram p = compile(f);
    const int input_bits = std::min(16, p.max_input_bits);
    Rng rng(0x7B1u + static_cast<u64>(idx) * 131u + static_cast<u64>(scheme));
    const std::vector<i64> x = sim::uniform_stream(rng, 1 << 13, input_bits);
    const std::vector<i64> naive =
        dsp::fir_filter_exact(f.coefficients(), f.alignment(), x);
    EXPECT_EQ(core::stream_mismatch(naive, f.run(x), "interpreted"),
              std::nullopt);

    ExecEngine engine(p);
    std::vector<i64> compiled(x.size());
    engine.run(x.data(), compiled.data(), x.size());
    EXPECT_EQ(core::stream_mismatch(naive, compiled, "compiled"),
              std::nullopt);

    ExecConfig config;
    config.input_bits = input_bits;
    StreamingFilter sf(f, config);
    EXPECT_EQ(sf.mode(), ExecMode::kVector);
    std::vector<i64> chunked;
    for (std::size_t at = 0; at < x.size();) {
      const std::size_t take =
          std::min<std::size_t>(x.size() - at, 1 + rng.next_below(37));
      const std::vector<i64> out = sf.push(std::vector<i64>(
          x.begin() + static_cast<std::ptrdiff_t>(at),
          x.begin() + static_cast<std::ptrdiff_t>(at + take)));
      chunked.insert(chunked.end(), out.begin(), out.end());
      at += take;
    }
    EXPECT_EQ(core::stream_mismatch(naive, chunked, "chunked"), std::nullopt);

    for (const std::vector<i64>& channel :
         run_batch(p, std::vector<std::vector<i64>>(4, x))) {
      EXPECT_EQ(core::stream_mismatch(naive, channel, "run_batch"),
                std::nullopt);
    }
  }
}

TEST(StreamingFilter, ChunkedPushesEqualOneRun) {
  const arch::TdfFilter f = make_filter();
  Rng rng(0xE4);
  const std::vector<i64> x = sim::uniform_stream(rng, 150, 12);
  const std::vector<i64> expect = f.run(x);

  StreamingFilter sf(f);
  EXPECT_EQ(sf.mode(), ExecMode::kVector);
  std::vector<i64> got;
  std::size_t at = 0;
  while (at < x.size()) {
    const std::size_t take = std::min<std::size_t>(x.size() - at,
                                                   1 + rng.next_below(9));
    const std::vector<i64> out = sf.push(std::vector<i64>(
        x.begin() + static_cast<std::ptrdiff_t>(at),
        x.begin() + static_cast<std::ptrdiff_t>(at + take)));
    got.insert(got.end(), out.begin(), out.end());
    at += take;
  }
  EXPECT_EQ(got, expect);

  // reset == fresh: replay the stream whole.
  sf.reset();
  EXPECT_EQ(sf.push(x), expect);
  // Lifetime timers carry both stages.
  const core::StageTimers t = sf.timers();
  EXPECT_GT(t.exec_compile.ns, 0.0);
  EXPECT_EQ(t.exec_run.items, 2 * x.size());
}

TEST(StreamingFilter, WideInputFallsBackToCheckedInterpreter) {
  const arch::TdfFilter f = make_filter();
  ExecConfig config;
  config.input_bits = 63;  // beyond any provable unchecked width
  StreamingFilter sf(f, config);
  EXPECT_EQ(sf.mode(), ExecMode::kInterp);
  Rng rng(0xE5);
  const std::vector<i64> x = sim::uniform_stream(rng, 64, 12);
  EXPECT_EQ(sf.push(x), f.run(x));
}

TEST(StreamingFilter, ExplicitModesAreHonored) {
  const arch::TdfFilter f = make_filter();
  Rng rng(0xE6);
  const std::vector<i64> x = sim::uniform_stream(rng, 64, 12);
  const std::vector<i64> expect = f.run(x);
  for (const ExecMode m :
       {ExecMode::kOff, ExecMode::kInterp, ExecMode::kVector}) {
    ExecConfig config;
    config.mode = m;
    config.lanes = 5;
    StreamingFilter sf(f, config);
    EXPECT_EQ(sf.mode(), m);
    EXPECT_EQ(sf.lanes(), m == ExecMode::kVector ? 5 : 0);
    EXPECT_EQ(sf.push(x), expect) << to_string(m);
  }
}

TEST(ExecEnv, KnobParsesAndMalformedValuesFallBackWithOneWarning) {
  ::unsetenv("MRPF_EXEC");
  EXPECT_EQ(exec_config_from_env().mode, ExecMode::kVector);
  EXPECT_EQ(exec_config_from_env().lanes, 0);

  ::setenv("MRPF_EXEC", "off", 1);
  EXPECT_EQ(exec_config_from_env().mode, ExecMode::kOff);
  ::setenv("MRPF_EXEC", "INTERP", 1);  // words are case-insensitive
  EXPECT_EQ(exec_config_from_env().mode, ExecMode::kInterp);
  ::setenv("MRPF_EXEC", "vector:12", 1);
  EXPECT_EQ(exec_config_from_env().mode, ExecMode::kVector);
  EXPECT_EQ(exec_config_from_env().lanes, 12);
  ::setenv("MRPF_EXEC", "vector:9999", 1);  // clamps to 64 lanes
  EXPECT_EQ(exec_config_from_env().lanes, 64);

  // Malformed values warn once and keep the default.
  ::setenv("MRPF_EXEC", "turbo", 1);
  const ExecConfig bad = exec_config_from_env();
  EXPECT_EQ(bad.mode, ExecMode::kVector);
  EXPECT_EQ(bad.lanes, 0);
  EXPECT_TRUE(env::warning_fired("MRPF_EXEC"));
  ::unsetenv("MRPF_EXEC");
}

TEST(ExecTimers, AccumulateIsMonotone) {
  core::StageTimers a;
  a.exec_compile.ns = 10;
  a.exec_compile.items = 2;
  a.optimize.ns = 5;
  core::StageTimers b;
  b.exec_compile.ns = 7;
  b.exec_compile.items = 3;
  b.exec_run.ns = 20;
  b.exec_run.items = 100;
  b.total_ns = 40;
  core::accumulate(a, b);
  EXPECT_DOUBLE_EQ(a.exec_compile.ns, 17.0);
  EXPECT_EQ(a.exec_compile.items, 5u);
  EXPECT_DOUBLE_EQ(a.exec_run.ns, 20.0);
  EXPECT_EQ(a.exec_run.items, 100u);
  EXPECT_DOUBLE_EQ(a.optimize.ns, 5.0);
  EXPECT_DOUBLE_EQ(a.total_ns, 40.0);
  // Repeated accumulation only grows.
  const double before = a.exec_run.ns;
  core::accumulate(a, b);
  EXPECT_GT(a.exec_run.ns, before);
}

}  // namespace
}  // namespace mrpf::exec
