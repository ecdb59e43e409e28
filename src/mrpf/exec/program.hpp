// The compiled execution IR: a SynthPlan lowered for *software* instead of
// hardware. Where lower_plan replays adder ops into an arch::AdderGraph to
// be walked node by node per sample, the exec compiler flattens the same
// ops into a register-slot program an inner loop can stream a block of up
// to 64 samples through at once:
//
//   * dead-op elimination — ops no tap reaches are dropped entirely;
//   * shift/negate fusion — each tap's wiring shift, output negation and
//     per-tap alignment shift collapse into one fused ExecTap descriptor;
//   * contiguous register-slot allocation — SSA node ids remap to a small
//     slot file with lifetime-based reuse, so the working set stays inside
//     L1 no matter how many nodes the plan held.
//
// The program is pure data (no graph pointers), so one compile serves any
// number of concurrent streams — each ExecEngine owns only its slot file
// and carry window.
#pragma once

#include <cstddef>
#include <vector>

#include "mrpf/common/bits.hpp"
#include "mrpf/core/stage_timers.hpp"

namespace mrpf::exec {

/// One fused shift-add over register slots, evaluated lane-parallel:
///   slot[dst] = (slot[a] << shift_a)  ±  (slot[b] << shift_b)
/// dst may alias a or b (lanes are independent, read-then-write per lane).
struct ExecOp {
  int dst = 0;
  int a = 0;
  int b = 0;
  int shift_a = 0;
  int shift_b = 0;
  bool subtract = false;
};

/// One fused output-tap descriptor: the contribution of tap `position` is
///   p = (negate ? - : +) (slot value << shift)
/// with `shift` the tap wiring shift plus the per-tap alignment shift
/// (negative means dropping always-zero LSBs — exact by graph invariant).
/// Zero taps never appear here: they contribute nothing and are elided at
/// compile time.
struct ExecTap {
  int slot = 0;
  int shift = 0;
  bool negate = false;
  std::size_t position = 0;  ///< Output delay index (0 = current sample).
};

/// Lanes in one 64-byte row: the widest vector the engine runs. Each slot
/// of an engine's slot file is a whole number of rows, and compile()
/// orders the taps by position mod kRowLanes.
inline constexpr std::size_t kRowLanes = 8;

/// A compiled, topologically scheduled execution program over int64 lanes.
struct ExecProgram {
  std::size_t n_taps = 0;  ///< Total tap positions, including zero taps.
  int n_slots = 0;         ///< Register-slot file size after lifetime reuse.
  int input_slot = 0;      ///< Slot the input sample block is loaded into.
  std::vector<ExecOp> ops;   ///< Dead-op-free, in dependency order.
  /// Live taps, ordered by (position mod kRowLanes, position). Within one
  /// residue the positions differ by whole rows, so each vector the engine
  /// loads from the output window is exactly one vector the tap before
  /// stored, and the store forwards to the load.
  std::vector<ExecTap> taps;

  /// Source-graph op count before dead-op elimination (observability).
  int source_ops = 0;

  /// Largest signed input width (bits) for which every intermediate —
  /// node value, fused tap product, output partial sum — provably fits in
  /// int64, so the engine's unchecked wrap arithmetic is exact. Inputs
  /// wider than this must take the checked interpreter instead.
  int max_input_bits = 0;

  /// exec_compile filled by compile(); engines account exec_run locally.
  core::StageTimers timers;
};

}  // namespace mrpf::exec
