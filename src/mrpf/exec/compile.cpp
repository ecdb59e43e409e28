#include "mrpf/exec/compile.hpp"

#include <algorithm>
#include <climits>

#include "mrpf/common/error.hpp"

namespace mrpf::exec {

namespace {

/// Bits needed to represent the non-negative 128-bit magnitude `v`.
int bit_width_i128(i128 v) {
  int bits = 0;
  while (v > 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

}  // namespace

ExecProgram compile(const arch::TdfFilter& filter) {
  ExecProgram prog;
  {
    core::StageStopwatch watch(prog.timers.exec_compile);
    const arch::AdderGraph& graph = filter.block().graph;
    const std::vector<arch::Tap>& taps = filter.block().taps;
    const std::vector<int>& align = filter.alignment();
    const int n_nodes = graph.num_nodes();
    prog.n_taps = taps.size();
    prog.source_ops = graph.num_adders();

    // --- Dead-op elimination: mark nodes reachable from some tap. Ops are
    // in dependency order (node k's operands are < k), so one reverse sweep
    // closes the reachable set.
    std::vector<bool> live(static_cast<std::size_t>(n_nodes), false);
    live[0] = true;  // the input is always loaded
    for (const arch::Tap& tap : taps) {
      if (tap.node >= 1) live[static_cast<std::size_t>(tap.node)] = true;
    }
    for (int node = n_nodes - 1; node >= 1; --node) {
      if (!live[static_cast<std::size_t>(node)]) continue;
      const arch::AdderOp& op = graph.op(node);
      live[static_cast<std::size_t>(op.a)] = true;
      live[static_cast<std::size_t>(op.b)] = true;
    }

    // --- Schedule: live ops keep their dependency order; emit_pos[node]
    // is the program position of the op defining `node`.
    constexpr int kPinned = INT_MAX;  // read by a tap after every op
    std::vector<int> emit_pos(static_cast<std::size_t>(n_nodes), -1);
    int pos = 0;
    for (int node = 1; node < n_nodes; ++node) {
      if (live[static_cast<std::size_t>(node)]) {
        emit_pos[static_cast<std::size_t>(node)] = pos++;
      }
    }
    // Last read of each node: the latest reading op's position, or pinned
    // to the end of the program when a tap reads it.
    std::vector<int> last_use(static_cast<std::size_t>(n_nodes), -1);
    for (int node = 1; node < n_nodes; ++node) {
      if (!live[static_cast<std::size_t>(node)]) continue;
      const arch::AdderOp& op = graph.op(node);
      const int p = emit_pos[static_cast<std::size_t>(node)];
      std::size_t a = static_cast<std::size_t>(op.a);
      std::size_t b = static_cast<std::size_t>(op.b);
      last_use[a] = std::max(last_use[a], p);
      last_use[b] = std::max(last_use[b], p);
    }
    for (const arch::Tap& tap : taps) {
      if (tap.node >= 0) last_use[static_cast<std::size_t>(tap.node)] = kPinned;
    }

    // --- Register-slot allocation with lifetime-based reuse: a slot frees
    // the moment its node's final reader executes. dst may take a freed
    // operand slot — the engine evaluates lanes element-wise, so in-place
    // is exact.
    std::vector<int> slot_of(static_cast<std::size_t>(n_nodes), -1);
    std::vector<int> free_slots;
    int n_slots = 0;
    const auto alloc_slot = [&free_slots, &n_slots]() {
      if (!free_slots.empty()) {
        const int s = free_slots.back();
        free_slots.pop_back();
        return s;
      }
      return n_slots++;
    };
    slot_of[0] = alloc_slot();
    prog.input_slot = slot_of[0];
    prog.ops.reserve(static_cast<std::size_t>(pos));
    for (int node = 1; node < n_nodes; ++node) {
      if (!live[static_cast<std::size_t>(node)]) continue;
      const arch::AdderOp& op = graph.op(node);
      const int p = emit_pos[static_cast<std::size_t>(node)];
      ExecOp e;
      e.a = slot_of[static_cast<std::size_t>(op.a)];
      e.b = slot_of[static_cast<std::size_t>(op.b)];
      e.shift_a = op.shift_a;
      e.shift_b = op.shift_b;
      e.subtract = op.subtract;
      if (last_use[static_cast<std::size_t>(op.a)] == p) {
        free_slots.push_back(slot_of[static_cast<std::size_t>(op.a)]);
      }
      if (op.b != op.a && last_use[static_cast<std::size_t>(op.b)] == p) {
        free_slots.push_back(slot_of[static_cast<std::size_t>(op.b)]);
      }
      e.dst = alloc_slot();
      slot_of[static_cast<std::size_t>(node)] = e.dst;
      prog.ops.push_back(e);
    }
    prog.n_slots = n_slots;

    // --- Shift/negate fusion: tap wiring shift + alignment shift + output
    // negation collapse into one descriptor; zero taps vanish.
    prog.taps.reserve(taps.size());
    for (std::size_t k = 0; k < taps.size(); ++k) {
      const arch::Tap& tap = taps[k];
      if (tap.node < 0) continue;
      ExecTap t;
      t.slot = slot_of[static_cast<std::size_t>(tap.node)];
      t.shift = tap.shift + (align.empty() ? 0 : align[k]);
      t.negate = tap.negate;
      t.position = k;
      MRPF_CHECK(t.slot >= 0, "exec: tap reads an unallocated slot");
      prog.taps.push_back(t);
    }

    // --- Width analysis: find the widest signed input for which every
    // intermediate provably fits int64, so the engine's wrap arithmetic is
    // exact without per-sample checks. Bounds (|x| <= 2^(B-1)):
    //   node values:       |fundamental| * |x|
    //   fused tap product: |c[k] << align[k]| * |x|
    //   output partials:   sum over taps of the product bound (any partial
    //                      sum of same-sample products is dominated by it)
    i128 bound = 1;  // the input value itself
    for (int node = 1; node < n_nodes; ++node) {
      if (!live[static_cast<std::size_t>(node)]) continue;
      const i128 f = static_cast<i128>(abs_u64(graph.fundamental(node)));
      bound = std::max(bound, f);
    }
    i128 tap_sum = 0;
    const std::vector<i64>& coeffs = filter.coefficients();
    for (std::size_t k = 0; k < coeffs.size(); ++k) {
      const int sh = align.empty() ? 0 : align[k];
      tap_sum += static_cast<i128>(abs_u64(coeffs[k])) << sh;
    }
    bound = std::max(bound, tap_sum);
    // bound < 2^bits, so bound * 2^(B-1) < 2^63 whenever B <= 64 - bits.
    prog.max_input_bits = std::min(63, 64 - bit_width_i128(bound));
  }
  prog.timers.exec_compile.items = prog.ops.size();
  return prog;
}

}  // namespace mrpf::exec
