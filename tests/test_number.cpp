// Number systems: CSD canonicality/minimality, sign-magnitude, MSD
// enumeration, representation costs, and the two quantization regimes.
#include <gtest/gtest.h>

#include <cmath>

#include "mrpf/common/error.hpp"
#include "mrpf/common/rng.hpp"
#include "mrpf/number/csd.hpp"
#include "mrpf/number/digits.hpp"
#include "mrpf/number/msd.hpp"
#include "mrpf/number/quantize.hpp"
#include "mrpf/number/repr.hpp"

namespace mrpf::number {
namespace {

TEST(Csd, KnownValues) {
  EXPECT_EQ(to_csd(0).to_string(), "0");
  EXPECT_EQ(to_csd(1).to_string(), "+");
  EXPECT_EQ(to_csd(3).to_string(), "+0-");   // 4 - 1
  EXPECT_EQ(to_csd(7).to_string(), "+00-");  // 8 - 1
  EXPECT_EQ(to_csd(-7).to_string(), "-00+");
  EXPECT_EQ(csd_weight(5), 2);
  EXPECT_EQ(csd_weight(255), 2);  // 256 - 1
  EXPECT_EQ(csd_weight(693), 6);  // 1024 − 256 − 64 − 16 + 4 + 1
}

TEST(Csd, ExhaustiveRoundTripAndCanonical) {
  for (i64 v = -70000; v <= 70000; v += 7) {
    const SignedDigitVector d = to_csd(v);
    EXPECT_EQ(d.value(), v);
    EXPECT_TRUE(d.is_canonical()) << v;
  }
}

TEST(Csd, WeightIsMinimalAmongSignedDigitForms) {
  // CSD weight must be ≤ binary popcount for every value (it is the
  // minimal signed-digit weight).
  for (i64 v = 1; v <= 4096; ++v) {
    EXPECT_LE(csd_weight(v), popcount_abs(v)) << v;
  }
}

TEST(Csd, WeightSymmetricUnderNegationAndShift) {
  for (i64 v = 1; v <= 2048; v += 3) {
    EXPECT_EQ(csd_weight(v), csd_weight(-v));
    EXPECT_EQ(csd_weight(v), csd_weight(v * 8));
  }
}

TEST(SignMagnitude, MatchesPopcount) {
  for (i64 v = -3000; v <= 3000; v += 11) {
    const SignedDigitVector d = to_sign_magnitude(v);
    EXPECT_EQ(d.value(), v);
    EXPECT_EQ(d.nonzero_count(), popcount_abs(v));
  }
}

TEST(TwosComplement, RoundTripsInWidth) {
  for (i64 v = -128; v <= 127; ++v) {
    EXPECT_EQ(to_twos_complement(v, 8).value(), v) << v;
  }
  EXPECT_THROW(to_twos_complement(128, 8), Error);
  EXPECT_THROW(to_twos_complement(-129, 8), Error);
}

TEST(Msd, EnumeratesAllMinimalForms) {
  // 3 = 2+1 = 4-1: two minimal forms of weight 2.
  const auto forms = enumerate_msd(3, 4);
  EXPECT_EQ(forms.size(), 2u);
  for (const auto& f : forms) {
    EXPECT_EQ(f.value(), 3);
    EXPECT_EQ(f.nonzero_count(), csd_weight(3));
  }
}

TEST(Msd, CsdFormAlwaysPresent) {
  for (const i64 v : {i64{5}, i64{11}, i64{45}, i64{-23}, i64{99}}) {
    const SignedDigitVector csd = to_csd(v);
    const auto forms = enumerate_msd(v, csd.degree() + 1);
    EXPECT_FALSE(forms.empty());
    bool found = false;
    for (const auto& f : forms) {
      if (f == csd) found = true;
      EXPECT_EQ(f.value(), v);
    }
    EXPECT_TRUE(found) << "CSD form missing for " << v;
  }
}

TEST(Repr, CostsByRepresentation) {
  // 45 = 101101b (popcount 4); CSD: +0-0-0+? 45 = 32+8+4+1 → CSD weight 4?
  // 45 = 64-16-4+1 → weight 4; either way SPT == CSD weight.
  EXPECT_EQ(nonzero_digits(45, NumberRep::kSignMagnitude), 4);
  EXPECT_EQ(nonzero_digits(45, NumberRep::kCsd),
            nonzero_digits(45, NumberRep::kSpt));
  EXPECT_EQ(multiplier_adders(0, NumberRep::kCsd), 0);
  EXPECT_EQ(multiplier_adders(64, NumberRep::kCsd), 0);  // pure shift
  EXPECT_EQ(multiplier_adders(7, NumberRep::kCsd), 1);
  EXPECT_EQ(multiplier_adders(7, NumberRep::kSignMagnitude), 2);
}

TEST(Quantize, UniformHitsFullScale) {
  const std::vector<double> h = {0.5, -1.0, 0.25, 0.125};
  const QuantizedCoefficients q = quantize_uniform(h, 8);
  EXPECT_EQ(q.coeffs[1].value, -127);
  for (const auto& c : q.coeffs) {
    EXPECT_EQ(c.scale_log2, 0);
    EXPECT_LE(std::llabs(c.value), 127);
  }
  EXPECT_LT(q.max_abs_error(h), 1.0 / 127.0);
}

TEST(Quantize, MaximalUsesFullWordlengthPerTap) {
  const std::vector<double> h = {0.5, -1.0, 0.25, 0.0, 0.001953125};
  const int w = 10;
  const QuantizedCoefficients q = quantize_maximal(h, w);
  const i64 lo = i64{1} << (w - 2);
  const i64 hi = (i64{1} << (w - 1)) - 1;
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (h[i] == 0.0) {
      EXPECT_EQ(q.coeffs[i].value, 0);
      continue;
    }
    EXPECT_GE(std::llabs(q.coeffs[i].value), lo) << i;
    EXPECT_LE(std::llabs(q.coeffs[i].value), hi) << i;
  }
  // Small coefficients get large per-tap scales.
  EXPECT_GT(q.coeffs[4].scale_log2, q.coeffs[0].scale_log2);
}

TEST(Quantize, MaximalIsMoreAccurateThanUniform) {
  std::vector<double> h;
  for (int i = 0; i < 16; ++i) {
    h.push_back(std::pow(0.5, i) * (i % 2 == 0 ? 1.0 : -1.0));
  }
  const auto uni = quantize_uniform(h, 10);
  const auto max = quantize_maximal(h, 10);
  EXPECT_LT(max.max_abs_error(h), uni.max_abs_error(h));
}

TEST(Quantize, RealizedValuesTrackOriginals) {
  const std::vector<double> h = {0.9, -0.3, 0.05, 0.7};
  for (const int w : {8, 12, 16}) {
    const auto q = quantize_maximal(h, w);
    for (std::size_t i = 0; i < h.size(); ++i) {
      EXPECT_NEAR(q.realized(i), h[i], std::ldexp(1.0, -w + 2)) << w;
    }
  }
}

TEST(Quantize, MaximalPostconditionEveryNonzeroInTargetOctave) {
  // The documented postcondition: every realized magnitude is either
  // exactly zero (with scale 0) or lands in [2^(W-2), 2^(W-1)).
  const std::vector<double> h = {0.9,    -0.5,  0.25,     1e-3, -1e-7,
                                 0.4999, 0.501, -0.24999, 1e-12, 0.125};
  for (const int w : {2, 4, 8, 14, 24}) {
    const QuantizedCoefficients q = quantize_maximal(h, w);
    const i64 lo = i64{1} << (w - 2);
    const i64 hi = i64{1} << (w - 1);
    for (std::size_t i = 0; i < q.coeffs.size(); ++i) {
      const auto& c = q.coeffs[i];
      if (c.value == 0) {
        EXPECT_EQ(c.scale_log2, 0) << "w=" << w << " i=" << i;
        continue;
      }
      EXPECT_GE(std::llabs(c.value), lo) << "w=" << w << " i=" << i;
      EXPECT_LT(std::llabs(c.value), hi) << "w=" << w << " i=" << i;
      EXPECT_GE(c.scale_log2, 0) << "w=" << w << " i=" << i;
      EXPECT_LE(c.scale_log2, 62) << "w=" << w << " i=" << i;
    }
  }
}

TEST(Quantize, MaximalCapsVanishinglySmallCoefficientsToZero) {
  // 1e-300 sits ~996 binary orders below the max: far beyond the 62-shift
  // budget, so it must quantize to the explicit zero, not to a coefficient
  // with an absurd alignment shift (which would poison alignment_of).
  const std::vector<double> h = {1.0, 1e-300, -4.9e-324};
  const QuantizedCoefficients q = quantize_maximal(h, 12);
  EXPECT_NE(q.coeffs[0].value, 0);
  EXPECT_EQ(q.coeffs[1].value, 0);
  EXPECT_EQ(q.coeffs[1].scale_log2, 0);
  EXPECT_EQ(q.coeffs[2].value, 0);
  EXPECT_EQ(q.coeffs[2].scale_log2, 0);
}

TEST(Quantize, RejectsBadInput) {
  EXPECT_THROW(quantize_uniform({}, 8), Error);
  EXPECT_THROW(quantize_uniform({0.0, 0.0}, 8), Error);
  EXPECT_THROW(quantize_uniform({1.0}, 1), Error);
  EXPECT_THROW(quantize_uniform({1.0}, 30), Error);
  EXPECT_THROW(quantize_maximal({std::nan("")}, 8), Error);
}

TEST(Digits, VectorOperations) {
  SignedDigitVector v({1, 0, -1, 0, 0});  // -4 + 1 = -3
  EXPECT_EQ(v.value(), -3);
  EXPECT_EQ(v.degree(), 2);
  EXPECT_EQ(v.nonzero_count(), 2);
  EXPECT_EQ(v.to_string(), "00-0+");
  v.trim();
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.to_string(), "-0+");
  EXPECT_TRUE(v.is_canonical());
  EXPECT_THROW(SignedDigitVector({2}), Error);
  const SignedDigitVector empty;
  EXPECT_EQ(empty.value(), 0);
  EXPECT_EQ(empty.degree(), -1);
  EXPECT_EQ(empty.to_string(), "0");
}

TEST(Digits, NonCanonicalDetection) {
  // +1 +1 at adjacent positions: value 3, not canonical.
  EXPECT_FALSE(SignedDigitVector({1, 1}).is_canonical());
  EXPECT_TRUE(SignedDigitVector({1, 0, 1}).is_canonical());
}

TEST(Msd, ResultCapIsHonored) {
  // A dense value has many minimal forms; the cap must bound the output.
  const auto forms = enumerate_msd(0b10101010101, 14, 5);
  EXPECT_LE(forms.size(), 5u);
  EXPECT_FALSE(forms.empty());
  EXPECT_THROW(enumerate_msd(5, -1), Error);
}

TEST(Repr, NamesAreStable) {
  EXPECT_EQ(to_string(NumberRep::kSignMagnitude), "SM");
  EXPECT_EQ(to_string(NumberRep::kCsd), "CSD");
  EXPECT_EQ(to_string(NumberRep::kSpt), "SPT");
}

// Parameterized property: quantization error bound per wordlength.
class QuantizeErrorBound : public ::testing::TestWithParam<int> {};

TEST_P(QuantizeErrorBound, UniformErrorWithinHalfLsb) {
  const int w = GetParam();
  std::vector<double> h;
  for (int i = 0; i < 33; ++i) h.push_back(std::sin(0.37 * i) * 0.83);
  const auto q = quantize_uniform(h, w);
  // Half an LSB of the uniform grid (plus fp slack).
  const double lsb = 0.83 / static_cast<double>((i64{1} << (w - 1)) - 1);
  EXPECT_LE(q.max_abs_error(h), lsb * 0.5 + 1e-12);
}

TEST(Csd, WeightClosedFormMatchesDigitVector) {
  // csd_weight uses the popcount closed form; the digit expansion stays
  // the oracle. Exhaustive near zero, randomized across the full domain.
  for (i64 v = -5000; v <= 5000; ++v) {
    EXPECT_EQ(csd_weight(v), to_csd(v).nonzero_count()) << v;
  }
  Rng rng(0xc5d2026u);
  for (int it = 0; it < 5000; ++it) {
    const int width = static_cast<int>(rng.next_below(60)) + 1;
    i64 v = static_cast<i64>(rng.next_u64() &
                             ((u64{1} << width) - 1));
    if (rng.next_below(2) == 1) v = -v;
    EXPECT_EQ(csd_weight(v), to_csd(v).nonzero_count()) << v;
  }
}

TEST(Csd, RangeIsSymmetricAtSixtyOneBits) {
  // |v| <= 2^61 - 1 converts for either sign, and 2^61 throws for either.
  const i64 max = (i64{1} << 61) - 1;
  for (const i64 v : {max, -max}) {
    const SignedDigitVector d = to_csd(v);
    i128 sum = 0;
    for (std::size_t k = 0; k < d.size(); ++k) {
      sum += static_cast<i128>(d[k]) << k;
    }
    EXPECT_EQ(sum, static_cast<i128>(v)) << v;
    EXPECT_TRUE(d.is_canonical()) << v;
    EXPECT_EQ(csd_weight(v), d.nonzero_count()) << v;
  }
  for (const i64 v : {max + 1, -(max + 1)}) {
    EXPECT_THROW(to_csd(v), Error) << v;
    EXPECT_THROW(csd_weight(v), Error) << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Wordlengths, QuantizeErrorBound,
                         ::testing::Values(8, 10, 12, 14, 16, 20));

}  // namespace
}  // namespace mrpf::number
