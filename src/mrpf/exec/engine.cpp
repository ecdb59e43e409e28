#include "mrpf/exec/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "mrpf/common/error.hpp"
#include "mrpf/common/parallel.hpp"

namespace mrpf::exec {

namespace {

constexpr int kMaxLanes = 64;
constexpr std::size_t kSlotFileBudgetBytes = 32 * 1024;

// One 128-bit vector of lanes (SSE2 on baseline x86-64, NEON on AArch64).
// Written with the GCC/Clang vector extension so the kernel runs vector
// ops at any optimization level instead of relying on the loop
// vectorizer, which leaves these loops scalar at -O2.
typedef u64 V __attribute__((vector_size(16)));
typedef i64 SV __attribute__((vector_size(16)));
constexpr std::size_t kVecLanes = sizeof(V) / sizeof(u64);

// Slots and the output window are i64 arrays read at arbitrary lane
// offsets, so vectors move through memcpy (unaligned, alias-safe).
V load(const i64* p) {
  V v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(i64* p, V v) { std::memcpy(p, &v, sizeof v); }

// Arithmetic right shift of every lane.
V shift_right(V v, int s) {
  return reinterpret_cast<V>(reinterpret_cast<SV>(v) >> s);
}

std::size_t round_up_to_vector(std::size_t lanes) {
  return (lanes + kVecLanes - 1) / kVecLanes * kVecLanes;
}

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

int default_lane_width(const ExecProgram& program) {
  // The widest block amortizes each op's loop overhead over 32 vectors;
  // halve it while the slot file would outgrow a 32 KiB L1 data cache.
  const std::size_t slots =
      static_cast<std::size_t>(std::max(1, program.n_slots));
  int lanes = kMaxLanes;
  while (lanes > static_cast<int>(kVecLanes) &&
         slots * static_cast<std::size_t>(lanes) * sizeof(i64) >
             kSlotFileBudgetBytes) {
    lanes /= 2;
  }
  return lanes;
}

ExecEngine::ExecEngine(const ExecProgram& program, int lanes)
    : program_(&program) {
  lanes_ = lanes > 0 ? lanes : default_lane_width(program);
  lanes_ = std::min(std::max(lanes_, 1), kMaxLanes);
  stride_ = round_up_to_vector(static_cast<std::size_t>(lanes_));
  carry_ = program.n_taps > 0 ? program.n_taps - 1 : 0;
  regs_.assign(
      static_cast<std::size_t>(std::max(1, program.n_slots)) * stride_, 0);
  acc_.assign(carry_ + stride_, 0);
}

void ExecEngine::reset() { std::fill(acc_.begin(), acc_.end(), 0); }

void ExecEngine::run_block(const i64* x, i64* y, std::size_t m) {
  // A block of m samples runs ceil(m / kVecLanes) vectors; n is that many
  // lanes, m or m + 1 (<= stride_).
  const std::size_t n = round_up_to_vector(m);
  const auto slot = [regs = regs_.data(), stride = stride_](int s) {
    return regs + static_cast<std::size_t>(s) * stride;
  };

  // Load the input block. A padding lane of an odd block carries zero, so
  // the ops compute a zero contribution for it (0 in, 0 out).
  i64* in = slot(program_->input_slot);
  std::memcpy(in, x, m * sizeof(i64));
  if (n > m) in[m] = 0;

  // Fused ops, lane-parallel. Wrap (unsigned) arithmetic: the compile-time
  // width analysis guarantees every true value fits int64, and mod-2^64
  // arithmetic agrees with exact arithmetic on values that fit. dst may
  // alias a or b: each vector is read before it is written.
  for (const ExecOp& op : program_->ops) {
    i64* d = slot(op.dst);
    const i64* a = slot(op.a);
    const i64* b = slot(op.b);
    const int sa = op.shift_a;
    const int sb = op.shift_b;
    if (op.subtract) {
      for (std::size_t l = 0; l < n; l += kVecLanes) {
        store(d + l, (load(a + l) << sa) - (load(b + l) << sb));
      }
    } else {
      for (std::size_t l = 0; l < n; l += kVecLanes) {
        store(d + l, (load(a + l) << sa) + (load(b + l) << sb));
      }
    }
  }

  // Clear the window's new region; acc_[0, carry_) holds partial sums
  // pending from previous blocks.
  std::fill_n(acc_.begin() + static_cast<std::ptrdiff_t>(carry_), n, 0);

  // Each fused tap adds its n products into the window at its delay
  // offset: sample l's product for tap k lands on output (base + l + k).
  for (const ExecTap& tap : program_->taps) {
    i64* dst = acc_.data() + tap.position;
    const i64* src = slot(tap.slot);
    const int sh = tap.shift;
    if (sh >= 0) {
      if (tap.negate) {
        for (std::size_t l = 0; l < n; l += kVecLanes) {
          store(dst + l, load(dst + l) - (load(src + l) << sh));
        }
      } else {
        for (std::size_t l = 0; l < n; l += kVecLanes) {
          store(dst + l, load(dst + l) + (load(src + l) << sh));
        }
      }
    } else {
      // Negative fused shift only drops always-zero LSBs (graph
      // invariant), so the arithmetic right shift is exact division.
      if (tap.negate) {
        for (std::size_t l = 0; l < n; l += kVecLanes) {
          store(dst + l, load(dst + l) - shift_right(load(src + l), -sh));
        }
      } else {
        for (std::size_t l = 0; l < n; l += kVecLanes) {
          store(dst + l, load(dst + l) + shift_right(load(src + l), -sh));
        }
      }
    }
  }

  // Emit the m completed outputs and slide the carry window forward.
  std::memcpy(y, acc_.data(), m * sizeof(i64));
  std::memmove(acc_.data(), acc_.data() + m, carry_ * sizeof(i64));
}

void ExecEngine::run(const i64* x, i64* y, std::size_t n) {
  const double t0 = now_ns();
  timers_.exec_run.items += n;
  const std::size_t lanes = static_cast<std::size_t>(lanes_);
  while (n > 0) {
    const std::size_t m = std::min(n, lanes);
    run_block(x, y, m);
    x += m;
    y += m;
    n -= m;
  }
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
