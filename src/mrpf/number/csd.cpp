#include "mrpf/number/csd.hpp"

#include <bit>

#include "mrpf/common/error.hpp"

namespace mrpf::number {

namespace {

// |v| <= 2^61 - 1 for either sign: the 61-bit limit RAG-n, diff-MST and
// the e-graph check too. It also keeps 3|v| in csd_weight inside u64.
constexpr int kMaxCsdBits = 61;

void check_csd_range(i64 v) {
  MRPF_CHECK(bit_width_abs(v) <= kMaxCsdBits,
             "CSD conversion operand too large");
}

}  // namespace

SignedDigitVector to_csd(i64 v) {
  check_csd_range(v);
  std::vector<SignedDigit> digits;
  // Classic recoding: examine v mod 4 to decide each digit; appending -1
  // when v ≡ 3 (mod 4) guarantees the next digit is 0 (canonical property).
  i64 x = v;
  while (x != 0) {
    if ((x & 1) == 0) {
      digits.push_back(0);
    } else {
      const i64 rem4 = ((x % 4) + 4) % 4;
      const SignedDigit d = rem4 == 1 ? SignedDigit{1} : SignedDigit{-1};
      digits.push_back(d);
      x -= d;
    }
    x /= 2;
  }
  SignedDigitVector out(std::move(digits));
  out.trim();
  return out;
}

int csd_weight(i64 v) {
  check_csd_range(v);
  // Closed form instead of materializing the digit vector: the CSD (NAF)
  // of u has a nonzero digit exactly at the positions where u XOR 3u has a
  // set bit, so the weight is one popcount. This runs once per color class
  // in the color-graph builder, where to_csd()'s heap allocation dominated
  // the profile. to_csd() remains the oracle in the unit tests.
  const u64 u = abs_u64(v);
  return std::popcount(u ^ (3 * u));
}

}  // namespace mrpf::number
