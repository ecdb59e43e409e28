// Canonical signed digit (CSD) conversion.
//
// CSD is the unique signed-digit representation with no two adjacent
// nonzero digits; among all signed-digit representations of a value it has
// the minimum number of nonzero digits, which is why the paper uses it as
// the cost of the signed-powers-of-two (SPT) multiplier of a constant.
#pragma once

#include "mrpf/common/bits.hpp"
#include "mrpf/number/digits.hpp"

namespace mrpf::number {

/// CSD digits of v (LSB first, trimmed). to_csd(0) is the empty vector.
/// Throws mrpf::Error unless |v| <= 2^61 - 1.
SignedDigitVector to_csd(i64 v);

/// Number of nonzero CSD digits of v — the minimal signed-power-of-two
/// term count. csd_weight(0) == 0. Same range as to_csd.
int csd_weight(i64 v);

}  // namespace mrpf::number
