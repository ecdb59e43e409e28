// The exec engine's block kernel, one instantiation per vector width, and
// the per-stream state it runs on. ExecEngine picks the widest
// instantiation the CPU supports once, at construction; the declarations
// are here so that tests can run every width the host supports.
#pragma once

#include <cstddef>
#include <vector>

#include "mrpf/exec/program.hpp"

namespace mrpf::exec::detail {

/// One 64-byte row of kRowLanes lanes. std::allocator honours the
/// alignment, so a vector of rows starts on a cache-line boundary.
struct alignas(64) Row {
  i64 lane[kRowLanes];
};

/// One stream's state: the slot file, slot-major with each slot `stride`
/// lanes, and the sliding output window of `carry` pending outputs plus
/// one block.
struct BlockState {
  /// lanes <= 0 resolves via default_lane_width; lanes are clamped to
  /// [1, 64].
  BlockState(const ExecProgram& program, int lanes);

  /// Zeroes the output window: the state of a fresh stream.
  void reset();

  i64* slot_file() { return reinterpret_cast<i64*>(regs.data()); }
  i64* window() { return reinterpret_cast<i64*>(acc.data()); }

  const ExecProgram* program;
  std::size_t lanes;   // samples per block
  std::size_t stride;  // lanes per slot: `lanes` rounded up to whole rows
  std::size_t carry;   // pending outputs: n_taps - 1 (or 0)
  std::vector<Row> regs;
  std::vector<Row> acc;
};

/// Runs one block of m <= state.lanes samples: y[i] is the output for x[i].
using BlockKernel = void (*)(BlockState& state, const i64* x, i64* y,
                             std::size_t m);

/// 256-bit vectors. On x86-64 it has an AVX2 clone and a baseline one that
/// runs each vector as two SSE2 halves; elsewhere the compiler splits the
/// vectors to the target's width.
void run_block_256(BlockState& state, const i64* x, i64* y, std::size_t m);

#if defined(__x86_64__)
/// 512-bit vectors, built for AVX-512F: call it only where
/// __builtin_cpu_supports("avx512f") holds.
void run_block_512(BlockState& state, const i64* x, i64* y, std::size_t m);
#endif

/// Streams n samples through `kernel`, in blocks of state.lanes samples.
void run_blocks(BlockKernel kernel, BlockState& state, const i64* x, i64* y,
                std::size_t n);

}  // namespace mrpf::exec::detail
