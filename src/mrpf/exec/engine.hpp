// Lane-blocked execution of a compiled ExecProgram.
//
// One engine owns the per-stream state: a register-slot file of
// `n_slots × lanes` int64 values and a sliding output-accumulation window
// (the block-FIR equivalent of the TDF chain registers). A block step is
//   load W input samples  ->  run the fused ops lane-parallel  ->  add each
//   fused tap's W products into the window at its delay offset  ->  emit W
//   outputs and slide the carry.
// Every inner loop steps through the lanes in explicit vectors (the
// GCC/Clang vector extension), so it runs vector code at -O2 without
// relying on the loop vectorizer. One kernel template serves two widths:
// 512-bit vectors where the CPU has AVX-512F (x86-64), 256-bit ones
// elsewhere, with an AVX2 clone and a baseline one that runs each vector
// as two SSE2 halves. The engine picks the width once, at construction
// (kernel.hpp). Each slot is padded to whole 64-byte rows and the slot
// file starts on a cache line, so no vector access to a slot crosses one;
// a short block of m samples runs ⌈m/V⌉ vectors of V lanes. Each op
// branches once on its kind (self-op, zero shifts, subtract), so a
// self-op loads its operand once and a zero shift costs no instruction.
// The taps arrive in forwarding order (program.hpp), so each vector a tap
// loads from the window is one vector an earlier tap stored.
// All arithmetic is unsigned 64-bit wrap, which the compiler proved exact
// for inputs up to program.max_input_bits (see compile.cpp's width
// analysis). Outputs are bit-identical to arch::TdfFilter::run sample for
// sample, across any split of the stream into run() calls.
#pragma once

#include <cstddef>
#include <vector>

#include "mrpf/exec/kernel.hpp"
#include "mrpf/exec/program.hpp"

namespace mrpf::exec {

/// Lane width used when the caller passes 0: 64, halved while the slot
/// file would outgrow a 32 KiB L1 data cache, but never below one 256-bit
/// vector (4 lanes).
int default_lane_width(const ExecProgram& program);

class ExecEngine {
 public:
  /// The program must outlive the engine (the engine keeps a pointer —
  /// one compiled program serves many engines). lanes <= 0 resolves via
  /// default_lane_width; lanes are clamped to [1, 64].
  explicit ExecEngine(const ExecProgram& program, int lanes = 0);

  /// Zeroes the carry window — identical to a freshly constructed engine.
  void reset();

  /// Streams n samples: y[i] is the filter output for x[i], continuing
  /// from the state previous run() calls left behind. Any n (including 0
  /// and non-multiples of the lane width) is exact.
  void run(const i64* x, i64* y, std::size_t n);

  int lanes() const { return static_cast<int>(state_.lanes); }
  /// Width in bits of the vectors the engine's kernel runs: 512 where the
  /// CPU has AVX-512F, else 256.
  int vector_bits() const { return vector_bits_; }
  const ExecProgram& program() const { return *state_.program; }
  /// Accumulated exec_run time (items = samples processed).
  const core::StageTimers& timers() const { return timers_; }

 private:
  detail::BlockState state_;
  detail::BlockKernel kernel_;
  int vector_bits_;
  core::StageTimers timers_;
};

/// Batch-channel execution: one compiled program, many independent
/// streams. Channels fan out over the nesting-safe shared ThreadPool
/// (threads <= 0 — the default — routes through MRPF_THREADS); each
/// channel gets its own engine, so outputs are bit-identical to a serial
/// loop regardless of thread count.
std::vector<std::vector<i64>> run_batch(
    const ExecProgram& program, const std::vector<std::vector<i64>>& inputs,
    int lanes = 0, int threads = 0);

}  // namespace mrpf::exec
