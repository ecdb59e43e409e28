// Every knob the measured work depends on, pinned in code, so that no
// MRPF_* variable in the caller's environment can change what is measured.
#pragma once

#include "mrpf/core/mrp.hpp"
#include "mrpf/exec/streaming.hpp"

namespace perfbench {

/// Solve options with the library defaults written out: the bnb and
/// e-graph budgets resolved here (0 would make the drivers read
/// MRPF_OPT_BUDGET / MRPF_XFORM_BUDGET), no cache hook and no store path.
inline mrpf::core::MrpOptions solve_options(bool xform) {
  mrpf::core::MrpOptions o;
  o.opt_budget = mrpf::core::kDefaultOptBudget;
  o.passes.xform = xform;
  o.passes.xform_budget = xform ? mrpf::core::kDefaultXformBudget : 0;
  return o;
}

/// The vector engine at its default lane width, for 16-bit input samples
/// (the default constructor argument would read MRPF_EXEC).
inline mrpf::exec::ExecConfig exec_config() {
  return {mrpf::exec::ExecMode::kVector, 0, 16};
}

}  // namespace perfbench
