// FNV-1a digests of adder-graph ops for the golden tests (test_xform,
// test_baseline): a pinned digest moves when any field of any op does,
// so a golden row pins a whole graph in one 64-bit word.
#pragma once

#include <vector>

#include "mrpf/arch/adder_graph.hpp"
#include "mrpf/common/hash.hpp"

namespace mrpf {

/// Folds every field of `ops`, in order, into the FNV-1a digest `h`.
inline u64 ops_digest(const std::vector<arch::AdderOp>& ops, u64 h) {
  for (const arch::AdderOp& op : ops) {
    h = fnv1a64_word(static_cast<u64>(op.a), h);
    h = fnv1a64_word(static_cast<u64>(op.b), h);
    h = fnv1a64_word(static_cast<u64>(op.shift_a), h);
    h = fnv1a64_word(static_cast<u64>(op.shift_b), h);
    h = fnv1a64_word(op.subtract ? 1 : 0, h);
  }
  return h;
}

}  // namespace mrpf
