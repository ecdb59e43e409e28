#include "mrpf/exec/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "mrpf/common/parallel.hpp"

namespace mrpf::exec {

namespace {

constexpr int kMaxLanes = 64;
constexpr int kMinLanes = 4;  // one 256-bit vector
constexpr std::size_t kSlotFileBudgetBytes = 32 * 1024;

// Vectors of kBytes / 8 u64 lanes, written with the GCC/Clang vector
// extension so the kernel runs vector ops at any optimization level
// instead of relying on the loop vectorizer, which leaves these loops
// scalar at -O2. Where the target lacks registers that wide the compiler
// splits each operation into narrower ones, so one source serves every
// target.
template <std::size_t kBytes>
struct Vec {
  typedef u64 U __attribute__((vector_size(kBytes)));
  typedef i64 S __attribute__((vector_size(kBytes)));
  static constexpr std::size_t kLanes = kBytes / sizeof(u64);
};

// On x86-64 the 256-bit instantiation is compiled twice, for AVX2 and for
// the baseline, and the loader picks the clone the CPU supports.
#if defined(__x86_64__)
#define MRPF_EXEC_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define MRPF_EXEC_CLONES
#endif

// Everything below is inlined into the instantiations, so it compiles
// for each one's target and no vector crosses a call.
#define MRPF_EXEC_INLINE inline __attribute__((always_inline))

// Slots and the output window are i64 arrays read at arbitrary lane
// offsets, so vectors move through memcpy (alias-safe, and unaligned for
// the window). They pass by reference: a vector passed or returned by
// value would take a different calling convention in each clone.
template <class V>
MRPF_EXEC_INLINE void load(V& v, const i64* p) {
  std::memcpy(&v, p, sizeof v);
}
template <class V>
MRPF_EXEC_INLINE void store(i64* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

// One op over n lanes, its kind fixed at compile time:
//   d = (a << sa) ± (b << sb)
// A self-op (a == b) loads its operand once; a zero shift is skipped.
// Wrap (unsigned) arithmetic: the compile-time width analysis guarantees
// every true value fits int64, and mod-2^64 arithmetic agrees with exact
// arithmetic on values that fit. d may alias a or b: each vector is read
// before it is written.
template <std::size_t kBytes, bool kSub, bool kSelf, bool kShiftA,
          bool kShiftB>
MRPF_EXEC_INLINE void op_rows(i64* d, const i64* a, const i64* b, int sa,
                              int sb, std::size_t n) {
  using V = typename Vec<kBytes>::U;
  for (std::size_t l = 0; l < n; l += Vec<kBytes>::kLanes) {
    V va{}, vb{};
    load(va, a + l);
    if constexpr (kSelf) {
      vb = va;
    } else {
      load(vb, b + l);
    }
    if constexpr (kShiftA) va <<= sa;
    if constexpr (kShiftB) vb <<= sb;
    if constexpr (kSub) {
      va -= vb;
    } else {
      va += vb;
    }
    store(d + l, va);
  }
}

// Lifts the op's kind into op_rows' template arguments one flag at a time,
// so the op pays for its kind with branches outside the lane loop.
template <std::size_t kBytes, bool... kKind>
MRPF_EXEC_INLINE void run_op(const ExecOp& op, i64* d, const i64* a,
                             const i64* b, std::size_t n) {
  constexpr std::size_t kDepth = sizeof...(kKind);
  if constexpr (kDepth == 4) {
    op_rows<kBytes, kKind...>(d, a, b, op.shift_a, op.shift_b, n);
  } else {
    const bool flag[4] = {op.subtract, op.a == op.b, op.shift_a != 0,
                          op.shift_b != 0};
    if (flag[kDepth]) {
      run_op<kBytes, kKind..., true>(op, d, a, b, n);
    } else {
      run_op<kBytes, kKind..., false>(op, d, a, b, n);
    }
  }
}

// One tap's n products added into the window at its delay offset: sample
// l's product lands on output (base + l + position). A negative fused
// shift only drops always-zero LSBs (graph invariant), so the arithmetic
// right shift is exact division.
template <std::size_t kBytes, bool kNegate, bool kRight>
MRPF_EXEC_INLINE void tap_rows(i64* dst, const i64* src, int sh,
                               std::size_t n) {
  using V = typename Vec<kBytes>::U;
  using S = typename Vec<kBytes>::S;
  for (std::size_t l = 0; l < n; l += Vec<kBytes>::kLanes) {
    V acc{}, v{};
    load(acc, dst + l);
    load(v, src + l);
    if constexpr (kRight) {
      v = reinterpret_cast<V>(reinterpret_cast<S>(v) >> -sh);
    } else {
      v <<= sh;
    }
    if constexpr (kNegate) {
      acc -= v;
    } else {
      acc += v;
    }
    store(dst + l, acc);
  }
}

template <std::size_t kBytes>
MRPF_EXEC_INLINE void run_block(detail::BlockState& st, const i64* x, i64* y,
                                std::size_t m) {
  constexpr std::size_t kLanes = Vec<kBytes>::kLanes;
  // A block of m samples runs ceil(m / kLanes) vectors; n is that many
  // lanes, at most m + kLanes - 1 <= stride.
  const std::size_t n = (m + kLanes - 1) / kLanes * kLanes;
  const ExecProgram& prog = *st.program;
  // Slot addresses from locals: as far as the compiler knows, every store
  // the kernel makes could change st's fields, so reading them through st
  // would reload them for every op and tap.
  const auto slot = [regs = st.slot_file(), stride = st.stride](int s) {
    return regs + static_cast<std::size_t>(s) * stride;
  };

  // Load the input block. The padding lanes of a short block carry zero,
  // so the ops compute a zero contribution for them (0 in, 0 out).
  i64* in = slot(prog.input_slot);
  std::memcpy(in, x, m * sizeof(i64));
  std::fill(in + m, in + n, 0);

  for (const ExecOp& op : prog.ops) {
    run_op<kBytes>(op, slot(op.dst), slot(op.a), slot(op.b), n);
  }

  // Clear the window's new region; window[0, carry) holds partial sums
  // pending from previous blocks.
  i64* window = st.window();
  std::fill_n(window + st.carry, n, 0);

  for (const ExecTap& tap : prog.taps) {
    i64* dst = window + tap.position;
    const i64* src = slot(tap.slot);
    const int sh = tap.shift;
    if (tap.negate) {
      if (sh < 0) {
        tap_rows<kBytes, true, true>(dst, src, sh, n);
      } else {
        tap_rows<kBytes, true, false>(dst, src, sh, n);
      }
    } else {
      if (sh < 0) {
        tap_rows<kBytes, false, true>(dst, src, sh, n);
      } else {
        tap_rows<kBytes, false, false>(dst, src, sh, n);
      }
    }
  }

  // Emit the m completed outputs and slide the carry window forward.
  std::memcpy(y, window, m * sizeof(i64));
  std::memmove(window, window + m, st.carry * sizeof(i64));
}

std::size_t rows_for(std::size_t lanes) {
  return (lanes + kRowLanes - 1) / kRowLanes;
}

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

namespace detail {

BlockState::BlockState(const ExecProgram& p, int requested_lanes)
    : program(&p) {
  const int l =
      requested_lanes > 0 ? requested_lanes : default_lane_width(p);
  lanes = static_cast<std::size_t>(std::min(std::max(l, 1), kMaxLanes));
  stride = rows_for(lanes) * kRowLanes;
  carry = p.n_taps > 0 ? p.n_taps - 1 : 0;
  regs.resize(static_cast<std::size_t>(std::max(1, p.n_slots)) *
              rows_for(lanes));
  acc.resize(rows_for(carry + stride));
}

void BlockState::reset() { std::fill(acc.begin(), acc.end(), Row{}); }

MRPF_EXEC_CLONES
void run_block_256(BlockState& state, const i64* x, i64* y, std::size_t m) {
  run_block<32>(state, x, y, m);
}

#if defined(__x86_64__)
__attribute__((target("avx512f")))
void run_block_512(BlockState& state, const i64* x, i64* y, std::size_t m) {
  run_block<64>(state, x, y, m);
}
#endif

void run_blocks(BlockKernel kernel, BlockState& state, const i64* x, i64* y,
                std::size_t n) {
  while (n > 0) {
    const std::size_t m = std::min(n, state.lanes);
    kernel(state, x, y, m);
    x += m;
    y += m;
    n -= m;
  }
}

}  // namespace detail

int default_lane_width(const ExecProgram& program) {
  // The widest block amortizes each op's and tap's fixed cost over the
  // most vectors; halve it while the slot file would outgrow a 32 KiB L1
  // data cache.
  const std::size_t slots =
      static_cast<std::size_t>(std::max(1, program.n_slots));
  int lanes = kMaxLanes;
  while (lanes > kMinLanes &&
         slots * static_cast<std::size_t>(lanes) * sizeof(i64) >
             kSlotFileBudgetBytes) {
    lanes /= 2;
  }
  return lanes;
}

ExecEngine::ExecEngine(const ExecProgram& program, int lanes)
    : state_(program, lanes), kernel_(detail::run_block_256),
      vector_bits_(256) {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) {
    kernel_ = detail::run_block_512;
    vector_bits_ = 512;
  }
#endif
}

void ExecEngine::reset() { state_.reset(); }

void ExecEngine::run(const i64* x, i64* y, std::size_t n) {
  const double t0 = now_ns();
  timers_.exec_run.items += n;
  detail::run_blocks(kernel_, state_, x, y, n);
  timers_.exec_run.ns += now_ns() - t0;
}

std::vector<std::vector<i64>> run_batch(
    const ExecProgram& program, const std::vector<std::vector<i64>>& inputs,
    int lanes, int threads) {
  std::vector<std::vector<i64>> outputs(inputs.size());
  parallel_for(
      inputs.size(),
      [&](std::size_t i) {
        ExecEngine engine(program, lanes);
        outputs[i].resize(inputs[i].size());
        engine.run(inputs[i].data(), outputs[i].data(), inputs[i].size());
      },
      threads);
  return outputs;
}

}  // namespace mrpf::exec
