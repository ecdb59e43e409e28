// Field-for-field deep-equality checks over the synthesis IR, shared by
// the fuzz oracles (src/mrpf/verify), the benches (bench/perf_mrp_sweep,
// perfbench) and the gtest helpers (tests/mrp_equality.hpp, one-line
// wrappers) — one definition of what "the same plan" means, so a field
// added to the IR is compared everywhere by updating one place.
//
// Every checker returns a one-line description of the first difference, or
// nullopt when the two values are equal. Stage timers are deliberately
// excluded from plan comparisons — they are wall-clock observability, so a
// cached plan carries the original solve's timings while a fresh solve
// records its own.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "mrpf/core/synth_plan.hpp"

namespace mrpf::core {

/// Deep equality over a Hartley CSE result: subexpressions, expressions,
/// and constants.
std::optional<std::string> cse_mismatch(const cse::CseResult& a,
                                        const cse::CseResult& b);

/// Deep equality over everything MrpResult records about a solve,
/// including the primary-bank back-references, the full per-edge color
/// data, the optional SEED CSE plan, and recursive SEED levels.
std::optional<std::string> mrp_mismatch(const MrpResult& a,
                                        const MrpResult& b);

/// Deep equality over a lowered multiplier block: graph ops, taps, and
/// constants (the full physical architecture, not just the adder count).
std::optional<std::string> block_mismatch(const arch::MultiplierBlock& a,
                                          const arch::MultiplierBlock& b);

/// First index where two equally-long sample streams differ (`what` labels
/// the stream in the message); nullopt when identical.
std::optional<std::string> stream_mismatch(const std::vector<i64>& expect,
                                           const std::vector<i64>& got,
                                           const char* what);

/// Deep equality over a SynthPlan: scheme, analytic cost, the full op and
/// tap lists, and the optional MRP/CSE/xform provenance. Timers excluded.
std::optional<std::string> plan_mismatch(const SynthPlan& a,
                                         const SynthPlan& b);

}  // namespace mrpf::core
