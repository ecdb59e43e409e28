// The fuzz-verification harness: case generation, the five oracles, fault
// injection, shrinking, replay commands, report accounting.
#include <gtest/gtest.h>

#include <cstdlib>

#include "mrpf/common/error.hpp"
#include "mrpf/core/plan_equality.hpp"
#include "mrpf/core/scheme_driver.hpp"
#include "mrpf/verify/fuzz.hpp"

namespace mrpf::verify {
namespace {

TEST(FuzzNames, OracleAndFaultSpellingsRoundTrip) {
  for (const Oracle o : all_oracles()) {
    const auto parsed = parse_oracle(to_string(o));
    ASSERT_TRUE(parsed.has_value()) << to_string(o);
    EXPECT_EQ(*parsed, o);
  }
  for (const FaultKind k :
       {FaultKind::kOpShift, FaultKind::kOpSubtract, FaultKind::kTapNegate,
        FaultKind::kAnalyticCost, FaultKind::kNone}) {
    const auto parsed = parse_fault(to_string(k));
    ASSERT_TRUE(parsed.has_value()) << to_string(k);
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_EQ(parse_fault("1"), FaultKind::kOpShift);  // env-hook alias
  EXPECT_FALSE(parse_oracle("bogus").has_value());
  EXPECT_FALSE(parse_fault("bogus").has_value());
}

TEST(FuzzGenerate, DeterministicAndRoundRobinOverSchemes) {
  for (std::size_t i = 0; i < 24; ++i) {
    const FuzzCase a = generate_case(42, i, {});
    const FuzzCase b = generate_case(42, i, {});
    EXPECT_EQ(a.coefficients, b.coefficients);
    EXPECT_EQ(a.align, b.align);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.input_bits, b.input_bits);
    // Round-robin: case i exercises scheme i mod kNumSchemes.
    EXPECT_EQ(a.scheme, core::all_schemes()[i % core::kNumSchemes]);
    ASSERT_FALSE(a.coefficients.empty());
    bool any_nonzero = false;
    for (const i64 v : a.coefficients) any_nonzero |= v != 0;
    EXPECT_TRUE(any_nonzero) << "case " << i;
  }
  // A different seed must actually change the stream.
  const FuzzCase a = generate_case(42, 0, {});
  const FuzzCase c = generate_case(43, 0, {});
  EXPECT_NE(a.coefficients, c.coefficients);
  // A restricted pool cycles within the pool.
  const std::vector<core::Scheme> pool = {core::Scheme::kMrp};
  EXPECT_EQ(generate_case(1, 5, pool).scheme, core::Scheme::kMrp);
}

TEST(FuzzRunCase, HonestCasesPassEveryOracleForEveryScheme) {
  FuzzConfig config;
  for (std::size_t i = 0; i < 12; ++i) {
    const FuzzCase c = generate_case(7, i, {});
    const CaseResult r = run_case(c, config);
    EXPECT_TRUE(r.passed)
        << "case " << i << " [" << core::to_string(c.scheme)
        << "]: " << to_string(r.failure->oracle) << ": " << r.failure->detail;
  }
}

TEST(FuzzInject, EveryFaultKindIsDetected) {
  FuzzConfig config;
  for (const FaultKind kind :
       {FaultKind::kOpShift, FaultKind::kOpSubtract, FaultKind::kTapNegate,
        FaultKind::kAnalyticCost}) {
    FuzzCase c = generate_case(11, 3, {});  // multi-tap rag-n case
    c.inject = kind;
    const CaseResult r = run_case(c, config);
    EXPECT_FALSE(r.passed) << "fault " << to_string(kind) << " escaped";
  }
}

TEST(FuzzInject, CostFaultIsInvisibleOutsideTheCostOracle) {
  // kAnalyticCost corrupts only the claimed cost — the lowered hardware is
  // untouched, so sim/rtl/serde all pass and only the cost oracle objects.
  FuzzCase c = generate_case(11, 3, {});
  c.inject = FaultKind::kAnalyticCost;
  FuzzConfig cost_only;
  cost_only.oracles = {true, false, false, false, false};
  EXPECT_FALSE(run_case(c, cost_only).passed);
  FuzzConfig others;
  others.oracles = {false, true, true, true, true};
  EXPECT_TRUE(run_case(c, others).passed);
}

TEST(FuzzInject, FallsBackWhenRequestedSiteIsAbsent) {
  // A bank of one power of two lowers to zero ops, so an op fault has no
  // site; injection must still corrupt something detectable.
  core::SynthPlan plan;
  {
    const core::SchemeDriver& driver =
        core::scheme_driver(core::Scheme::kSimple);
    plan = driver.optimize({4}, driver.canonical_options({}));
  }
  ASSERT_TRUE(plan.ops.empty());
  inject_fault(plan, FaultKind::kOpShift);
  // The fallback flipped the tap negation: lowering must notice.
  EXPECT_THROW(core::lower_plan({4}, plan), Error);
}

TEST(FuzzShrink, MinimizesInjectedFaultToOneCoefficient) {
  FuzzConfig config;
  FuzzCase c = generate_case(11, 3, {});
  c.inject = FaultKind::kOpShift;
  ASSERT_FALSE(run_case(c, config).passed);
  std::size_t evals = 0;
  const FuzzCase shrunk = shrink_case(c, config, &evals);
  EXPECT_LE(shrunk.coefficients.size(), 2u);
  EXPECT_GT(evals, 0u);
  EXPECT_LE(evals, config.shrink_budget);
  // The reproducer still fails, and its replay command names the bank.
  EXPECT_FALSE(run_case(shrunk, config).passed);
  const std::string replay = replay_command(shrunk);
  EXPECT_NE(replay.find("mrpf_fuzz --bank "), std::string::npos);
  EXPECT_NE(replay.find("--inject shift"), std::string::npos);
}

TEST(FuzzPlanMismatch, DetectsEveryCorruptionRunCaseRestsOn) {
  const core::SchemeDriver& driver = core::scheme_driver(core::Scheme::kMrp);
  const std::vector<i64> bank = {7, 66, 17, 9};
  const core::SynthPlan plan =
      driver.optimize(bank, driver.canonical_options({}));
  EXPECT_EQ(core::plan_mismatch(plan, plan.clone()), std::nullopt);

  core::SynthPlan cost = plan.clone();
  cost.analytic_adders += 1;
  EXPECT_TRUE(core::plan_mismatch(plan, cost).has_value());

  core::SynthPlan op = plan.clone();
  ASSERT_FALSE(op.ops.empty());
  op.ops[0].subtract = !op.ops[0].subtract;
  EXPECT_TRUE(core::plan_mismatch(plan, op).has_value());

  core::SynthPlan tap = plan.clone();
  tap.taps[0].shift += 1;
  EXPECT_TRUE(core::plan_mismatch(plan, tap).has_value());

  core::SynthPlan prov = plan.clone();
  ASSERT_TRUE(prov.mrp.has_value());
  prov.mrp->seed_adders += 1;
  EXPECT_TRUE(core::plan_mismatch(plan, prov).has_value());

  // Timers are observability, never part of equality.
  core::SynthPlan timed = plan.clone();
  timed.timers.optimize.ns += 12345;
  EXPECT_EQ(core::plan_mismatch(plan, timed), std::nullopt);
}

TEST(FuzzRun, ReportAccountingAndInjectedFailureDetail) {
  FuzzConfig config;
  config.seed = 5;
  config.cases = static_cast<std::size_t>(core::kNumSchemes);
  config.inject = FaultKind::kOpShift;
  const FuzzReport report = run_fuzz(config);
  EXPECT_EQ(report.cases_run, config.cases);
  EXPECT_EQ(report.failures, config.cases);
  EXPECT_EQ(report.failure_detail.size(), config.cases);
  for (int s = 0; s < core::kNumSchemes; ++s) {
    EXPECT_EQ(report.per_scheme[static_cast<std::size_t>(s)].cases, 1u);
  }
  for (const FuzzFailure& f : report.failure_detail) {
    EXPECT_FALSE(f.replay.empty());
    EXPECT_LE(f.shrunk.coefficients.size(), f.original.coefficients.size());
  }
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"failures\": " + std::to_string(config.cases)),
            std::string::npos);
  EXPECT_NE(json.find("\"per_oracle\""), std::string::npos);
  EXPECT_NE(json.find("\"replay\""), std::string::npos);
}

TEST(FuzzRun, HonestSmokeRunIsClean) {
  FuzzConfig config;
  config.seed = 2;
  config.cases = 18;
  const FuzzReport report = run_fuzz(config);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.cases_run, 18u);
  for (const Oracle o : all_oracles()) {
    EXPECT_EQ(report.per_oracle[static_cast<std::size_t>(o)].runs, 18u);
  }
}

TEST(FuzzEnv, InjectHookParsesAndRejectsSafely) {
  ::setenv("MRPF_FUZZ_INJECT", "subtract", 1);
  EXPECT_EQ(fault_from_env(), FaultKind::kOpSubtract);
  ::setenv("MRPF_FUZZ_INJECT", "definitely-not-a-fault", 1);
  EXPECT_EQ(fault_from_env(), FaultKind::kNone);
  ::unsetenv("MRPF_FUZZ_INJECT");
  EXPECT_EQ(fault_from_env(), FaultKind::kNone);
}

}  // namespace
}  // namespace mrpf::verify
