// Deep-equality assertions over MrpResult, SynthPlan, CSE results and
// lowered multiplier blocks, for the determinism tests (test_core) and the
// cache tests (test_cache, test_scheme_driver), where "cached == fresh"
// must mean field for field, not just cost. Each one asserts that the
// library checker of core/plan_equality.hpp finds no difference, so the
// tests, the fuzz oracles and the benches share one definition of "the
// same plan"; a failure prints the first differing field.
#pragma once

#include <gtest/gtest.h>

#include <optional>

#include "mrpf/core/plan_equality.hpp"

namespace mrpf {

inline void expect_same_cse_result(const cse::CseResult& a,
                                   const cse::CseResult& b) {
  EXPECT_EQ(core::cse_mismatch(a, b), std::nullopt);
}

inline void expect_same_mrp_result(const core::MrpResult& a,
                                   const core::MrpResult& b) {
  EXPECT_EQ(core::mrp_mismatch(a, b), std::nullopt);
}

inline void expect_same_block(const arch::MultiplierBlock& a,
                              const arch::MultiplierBlock& b) {
  EXPECT_EQ(core::block_mismatch(a, b), std::nullopt);
}

/// Stage timers are excluded: a cached plan carries the timings of the
/// solve that filled the entry.
inline void expect_same_plan(const core::SynthPlan& a,
                             const core::SynthPlan& b) {
  EXPECT_EQ(core::plan_mismatch(a, b), std::nullopt);
}

}  // namespace mrpf
