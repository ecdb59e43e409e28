// Filter design: Remez equiripple behaviour, least-squares optimality
// against perturbations, Butterworth magnitude/FIR, Kaiser designs, spec
// measurement, symmetry utilities, and the Table-1 catalog.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "mrpf/common/error.hpp"
#include "mrpf/common/hash.hpp"
#include "mrpf/dsp/freq_response.hpp"
#include "mrpf/filter/butterworth.hpp"
#include "mrpf/filter/catalog.hpp"
#include "mrpf/filter/design.hpp"
#include "mrpf/filter/halfband.hpp"
#include "mrpf/filter/kaiser.hpp"
#include "mrpf/filter/least_squares.hpp"
#include "mrpf/filter/measure.hpp"
#include "mrpf/filter/nyquist.hpp"
#include "mrpf/filter/polyphase.hpp"
#include "mrpf/filter/remez.hpp"
#include "mrpf/filter/symmetric.hpp"
#include "mrpf/number/quantize.hpp"

namespace mrpf::filter {
namespace {

FilterSpec lowpass_spec(int taps, double fp = 0.2, double fs = 0.35) {
  FilterSpec s;
  s.name = "test-lp";
  s.method = DesignMethod::kParksMcClellan;
  s.band = BandType::kLowPass;
  s.edges = {fp, fs};
  s.passband_ripple_db = 1.0;
  s.stopband_atten_db = 40.0;
  s.num_taps = taps;
  return s;
}

TEST(Spec, ValidationCatchesBadInput) {
  FilterSpec s = lowpass_spec(21);
  s.edges = {0.5, 0.4};
  EXPECT_THROW(s.validate(), Error);
  s = lowpass_spec(20);  // even length
  EXPECT_THROW(s.validate(), Error);
  s = lowpass_spec(21);
  s.edges = {0.2, 0.3, 0.4};
  EXPECT_THROW(s.validate(), Error);
  s = lowpass_spec(21);
  EXPECT_NO_THROW(s.validate());
}

TEST(Spec, BandsCarryRippleWeights) {
  const FilterSpec s = lowpass_spec(21);
  const auto bands = s.bands();
  ASSERT_EQ(bands.size(), 2u);
  EXPECT_DOUBLE_EQ(bands[0].desired, 1.0);
  EXPECT_DOUBLE_EQ(bands[1].desired, 0.0);
  EXPECT_GT(bands[1].weight, bands[0].weight)
      << "40 dB stopband must be weighted above 1 dB passband";
}

TEST(Remez, LowpassMeetsReasonableSpec) {
  const FilterSpec s = lowpass_spec(31);
  const RemezResult r = design_remez(s.bands(), s.num_taps);
  EXPECT_TRUE(r.converged);
  const Measurement m = measure(r.h, s);
  EXPECT_GT(m.stopband_atten_db, 30.0);
  EXPECT_LT(m.passband_ripple_db, 1.5);
}

TEST(Remez, ProducesSymmetricImpulseResponse) {
  const RemezResult r = design_remez(lowpass_spec(25).bands(), 25);
  EXPECT_TRUE(is_symmetric(r.h, 1e-9));
}

TEST(Remez, EquirippleInStopband) {
  // The optimal filter's stopband error touches ±δ repeatedly; verify the
  // measured stopband peak matches the reported delta within tolerance.
  const FilterSpec s = lowpass_spec(33);
  const RemezResult r = design_remez(s.bands(), s.num_taps);
  ASSERT_TRUE(r.converged);
  const auto bands = s.bands();
  double peak = 0.0;
  for (double f = bands[1].f_lo; f <= 1.0; f += 0.0005) {
    peak = std::max(peak, std::fabs(dsp::amplitude_response_at(r.h, f)));
  }
  EXPECT_NEAR(peak * bands[1].weight, r.delta, r.delta * 0.15);
}

TEST(Remez, MoreTapsMeansSmallerRipple) {
  const auto bands = lowpass_spec(21).bands();
  const double d21 = design_remez(bands, 21).delta;
  const double d41 = design_remez(bands, 41).delta;
  EXPECT_LT(d41, d21 * 0.5);
}

TEST(Remez, BandpassAndBandstopConverge) {
  FilterSpec bp;
  bp.method = DesignMethod::kParksMcClellan;
  bp.band = BandType::kBandPass;
  bp.edges = {0.2, 0.3, 0.5, 0.6};
  bp.num_taps = 41;
  bp.passband_ripple_db = 1.0;
  bp.stopband_atten_db = 40.0;
  const RemezResult r = design_remez(bp.bands(), bp.num_taps);
  EXPECT_TRUE(r.converged);
  const Measurement m = measure(r.h, bp);
  EXPECT_GT(m.stopband_atten_db, 25.0);

  FilterSpec bs = bp;
  bs.band = BandType::kBandStop;
  const RemezResult r2 = design_remez(bs.bands(), bs.num_taps);
  EXPECT_TRUE(r2.converged);
  EXPECT_GT(measure(r2.h, bs).stopband_atten_db, 25.0);
}

TEST(Remez, RejectsBadArguments) {
  const auto bands = lowpass_spec(21).bands();
  EXPECT_THROW(design_remez(bands, 2), Error);
  EXPECT_THROW(design_remez({}, 21), Error);
}

TEST(RemezTypeII, EvenLengthLowpassConverges) {
  const FilterSpec s = lowpass_spec(21);  // spec object for measurement only
  const RemezResult r = design_remez(s.bands(), 30);
  EXPECT_TRUE(r.converged);
  ASSERT_EQ(r.h.size(), 30u);
  EXPECT_TRUE(is_symmetric(r.h, 1e-9));
  const Measurement m = measure(r.h, s);
  EXPECT_GT(m.stopband_atten_db, 30.0);
  EXPECT_LT(m.passband_ripple_db, 1.0);
}

TEST(RemezTypeII, HasStructuralNyquistZero) {
  const RemezResult r = design_remez(lowpass_spec(21).bands(), 24);
  EXPECT_LT(std::abs(dsp::freq_response_at(r.h, 1.0)), 1e-9)
      << "type-II filters are zero at f = 1 by construction";
}

TEST(RemezTypeII, RefusesToPassNyquist) {
  // A highpass passband reaching f = 1 is impossible for type II.
  FilterSpec hp;
  hp.method = DesignMethod::kParksMcClellan;
  hp.band = BandType::kHighPass;
  hp.edges = {0.4, 0.5};
  hp.num_taps = 25;  // validate() wants odd; build bands directly
  const std::vector<Band> bands = {{0.0, 0.4, 0.0, 10.0},
                                   {0.5, 1.0, 1.0, 1.0}};
  EXPECT_THROW(design_remez(bands, 24), Error);
  EXPECT_NO_THROW(design_remez(bands, 25));
}

TEST(RemezTypeII, MatchesTypeIQuality) {
  // Adjacent lengths should deliver comparable ripple.
  const auto bands = lowpass_spec(21, 0.2, 0.4).bands();
  const double d31 = design_remez(bands, 31).delta;
  const double d32 = design_remez(bands, 32).delta;
  EXPECT_LT(d32, d31 * 1.3);
  EXPECT_GT(d32, d31 * 0.3);
}

TEST(LeastSquares, BeatsPerturbationsInWeightedL2) {
  const FilterSpec s = lowpass_spec(25);
  const auto bands = s.bands();
  const auto h = design_least_squares(bands, s.num_taps);

  const auto l2 = [&bands](const std::vector<double>& hh) {
    double acc = 0.0;
    for (const Band& b : bands) {
      const int n = 400;
      for (int i = 0; i <= n; ++i) {
        const double f =
            b.f_lo + (b.f_hi - b.f_lo) * static_cast<double>(i) / n;
        const double e = dsp::amplitude_response_at(hh, f) - b.desired;
        acc += b.weight * e * e * (b.f_hi - b.f_lo) / n;
      }
    }
    return acc;
  };

  const double base = l2(h);
  for (std::size_t k = 0; k < h.size(); k += 3) {
    std::vector<double> hp = h;
    hp[k] += 1e-3;
    hp[h.size() - 1 - k] += 1e-3;  // keep symmetric
    EXPECT_GT(l2(hp), base) << "perturbation improved the LS optimum";
  }
}

TEST(LeastSquares, DesignIsSymmetricAndReasonable) {
  const FilterSpec s = lowpass_spec(33, 0.15, 0.3);
  const auto h = design_least_squares(s.bands(), s.num_taps);
  EXPECT_TRUE(is_symmetric(h, 1e-10));
  const Measurement m = measure(h, s);
  EXPECT_GT(m.stopband_atten_db, 25.0);
  EXPECT_NEAR(std::abs(dsp::freq_response_at(h, 0.05)), 1.0, 0.05);
}

TEST(Butterworth, MagnitudeShapeLP) {
  EXPECT_NEAR(butterworth_magnitude(BandType::kLowPass, {0.3}, 5, 0.0), 1.0,
              1e-12);
  EXPECT_NEAR(butterworth_magnitude(BandType::kLowPass, {0.3}, 5, 0.3),
              1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_LT(butterworth_magnitude(BandType::kLowPass, {0.3}, 5, 0.6), 0.05);
  // Monotone decreasing.
  double prev = 2.0;
  for (double f = 0.0; f <= 1.0; f += 0.01) {
    const double m = butterworth_magnitude(BandType::kLowPass, {0.3}, 5, f);
    EXPECT_LE(m, prev + 1e-12);
    prev = m;
  }
}

TEST(Butterworth, BandTransformsHitCenterAndEdges) {
  // BP: unity near center, -3 dB at the mapped edges.
  const std::vector<double> edges = {0.3, 0.5};
  const double f0 = std::sqrt(0.3 * 0.5);
  EXPECT_NEAR(butterworth_magnitude(BandType::kBandPass, edges, 4, f0), 1.0,
              1e-9);
  EXPECT_NEAR(butterworth_magnitude(BandType::kBandPass, edges, 4, 0.3),
              1.0 / std::sqrt(2.0), 1e-9);
  // BS: notch at center.
  EXPECT_NEAR(butterworth_magnitude(BandType::kBandStop, edges, 4, f0), 0.0,
              1e-9);
  EXPECT_NEAR(butterworth_magnitude(BandType::kBandStop, edges, 4, 0.05),
              1.0, 0.01);
}

TEST(Butterworth, FirTracksAnalogMagnitude) {
  const auto h = design_butterworth_fir(BandType::kLowPass, {0.3}, 5, 41);
  EXPECT_TRUE(is_symmetric(h, 1e-10));
  for (double f = 0.05; f <= 0.95; f += 0.1) {
    const double want =
        butterworth_magnitude(BandType::kLowPass, {0.3}, 5, f);
    const double got = std::abs(dsp::freq_response_at(h, f));
    EXPECT_NEAR(got, want, 0.08) << f;
  }
}

TEST(Kaiser, MeetsItsOwnSpec) {
  const auto h = design_kaiser(BandType::kLowPass, {0.2, 0.3}, 50.0);
  FilterSpec s = lowpass_spec(static_cast<int>(h.size()), 0.2, 0.3);
  s.stopband_atten_db = 50.0;
  const Measurement m = measure(h, s);
  EXPECT_GT(m.stopband_atten_db, 45.0);
  EXPECT_TRUE(is_symmetric(h, 1e-10));
}

TEST(Kaiser, BandstopKeepsPassbandsAndNotches) {
  const auto h =
      design_kaiser(BandType::kBandStop, {0.2, 0.3, 0.5, 0.6}, 45.0);
  EXPECT_NEAR(std::abs(dsp::freq_response_at(h, 0.05)), 1.0, 0.05);
  EXPECT_NEAR(std::abs(dsp::freq_response_at(h, 0.9)), 1.0, 0.05);
  EXPECT_LT(std::abs(dsp::freq_response_at(h, 0.4)), 0.02);
}

TEST(Kaiser, RejectsAttenuationItCannotCompute) {
  // Above about 123,000 dB the Kaiser window's I0(beta) overflows a
  // double; the designer must throw, not return NaN taps.
  EXPECT_THROW(design_kaiser(BandType::kLowPass, {0.2, 0.3}, 1e6, 31), Error);
  EXPECT_THROW(design_kaiser(BandType::kLowPass, {0.2, 0.3}, INFINITY, 31),
               Error);
  // With num_taps = 0 the length estimate (about 1.4e12) overflows first.
  EXPECT_THROW(design_kaiser(BandType::kLowPass, {0.2, 0.3}, 1e12), Error);
  FilterSpec s = lowpass_spec(31, 0.2, 0.3);
  s.method = DesignMethod::kKaiserWindow;
  s.stopband_atten_db = 1e6;
  EXPECT_THROW(design(s), Error);
}

TEST(Halfband, StructureAndResponse) {
  const auto h = design_halfband(31, 60.0);
  EXPECT_TRUE(is_halfband(h));
  // Exact zeros at even offsets from the centre, centre = 0.5.
  const int m = 15;
  EXPECT_DOUBLE_EQ(h[static_cast<std::size_t>(m)], 0.5);
  for (int q = 2; q <= m; q += 2) {
    EXPECT_EQ(h[static_cast<std::size_t>(m + q)], 0.0);
    EXPECT_EQ(h[static_cast<std::size_t>(m - q)], 0.0);
  }
  // Half-band amplitude complementarity: A(f) + A(1−f) = 1 exactly (the
  // odd taps cancel between the two evaluations; the centre gives 2·0.5).
  for (double f = 0.05; f <= 0.45; f += 0.05) {
    const double a = dsp::amplitude_response_at(h, f);
    const double b = dsp::amplitude_response_at(h, 1.0 - f);
    EXPECT_NEAR(a + b, 1.0, 1e-9) << f;
  }
  EXPECT_NEAR(std::abs(dsp::freq_response_at(h, 0.5)), 0.5, 1e-6);
}

TEST(Halfband, ZerosHalveTheMultiplierBank) {
  const auto h = design_halfband(43, 50.0);
  int zero_taps = 0;
  for (const double v : h) zero_taps += (v == 0.0);
  // (N−3)/2 even-offset zeros for a canonical half-band.
  EXPECT_EQ(zero_taps, (43 - 3) / 2);
  EXPECT_THROW(design_halfband(21, 50.0), Error);  // 21 % 4 != 3
  // Length 3 is the degenerate half-band: no even offsets exist besides
  // the centre, so any symmetric 3-tap filter has the structure.
  EXPECT_TRUE(is_halfband({1.0, 2.0, 1.0}));
  EXPECT_FALSE(is_halfband({1.0, 2.0, 3.0}));
}

TEST(Halfband, DesignPreconditionsAreChecked) {
  // The full N % 4 == 3 family is accepted down to the minimum length 3…
  const auto tiny = design_halfband(3, 60.0);
  EXPECT_TRUE(is_halfband(tiny));
  EXPECT_DOUBLE_EQ(tiny[1], 0.5);
  // …and everything outside it is rejected loudly, not mis-designed.
  EXPECT_THROW(design_halfband(1, 60.0), Error);
  EXPECT_THROW(design_halfband(-3, 60.0), Error);
  EXPECT_THROW(design_halfband(5, 60.0), Error);
  EXPECT_THROW(design_halfband(4, 60.0), Error);
  EXPECT_THROW(design_halfband(7, 0.0), Error);
  EXPECT_THROW(design_halfband(7, -40.0), Error);
  EXPECT_THROW(design_halfband(7, std::nan("")), Error);
  EXPECT_THROW(design_halfband(7, INFINITY), Error);
  // The Kaiser window cannot compute 1e6 dB (I0(beta) overflows); just
  // below its limit of about 123,000 dB the taps are still finite.
  EXPECT_THROW(design_halfband(7, 1e6), Error);
  for (const double v : design_halfband(7, 1.2e5)) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Halfband, IsHalfbandIgnoresMatchedZeroPadding) {
  std::vector<double> h = design_halfband(11, 50.0);
  // Polyphase utilities pad short filters with zeros when the factor
  // exceeds the tap count; matched padding must not change the verdict.
  for (int pairs = 0; pairs < 3; ++pairs) {
    EXPECT_TRUE(is_halfband(h)) << "pad pairs: " << pairs;
    h.insert(h.begin(), 0.0);
    h.push_back(0.0);
  }
  // Unmatched padding shifts the centre and must fail.
  h.push_back(0.0);
  EXPECT_FALSE(is_halfband(h));
}

TEST(Halfband, ComposeWithIdentityPrototypeReturnsSubfilter) {
  // P(x) = x gives H = 0.5 + 0.5·F2 = G exactly — all scalings are
  // powers of two, so the identity holds bit for bit.
  const auto g = design_halfband(19, 55.0);
  EXPECT_EQ(compose_halfband({1.0}, g), g);
  EXPECT_THROW(compose_halfband({}, g), Error);
  EXPECT_THROW(compose_halfband({1.0}, {1.0, 2.0, 3.0}), Error);
}

TEST(Halfband, ComposedCascadeIsStructurallyHalfband) {
  const auto g = design_halfband(11, 45.0);
  const std::vector<double> f1 = {1.5, -0.5};  // order-2 sharpening
  const auto h = compose_halfband(f1, g);
  EXPECT_EQ(h.size(), 3u * 10u + 1u);  // (2·2−1)(11−1)+1
  EXPECT_TRUE(is_halfband(h));
  const std::size_t centre = (h.size() - 1) / 2;
  EXPECT_DOUBLE_EQ(h[centre], 0.5);
  // Even offsets are exactly zero — structural, not floating-point luck —
  // so maximal quantization keeps them as explicit {0, 0} taps.
  const auto q = number::quantize_maximal(h, 12);
  for (std::size_t k = 0; k < h.size(); ++k) {
    if (h[k] == 0.0) {
      EXPECT_EQ(q.coeffs[k].value, 0);
    }
  }
}

TEST(Halfband, CascadeDesignerMeetsSpec) {
  const HalfbandCascadeDesign d = design_halfband_cascade(0.4, 1e-3);
  EXPECT_GE(d.n1, 1);
  EXPECT_LE(d.n1, 4);
  EXPECT_TRUE(is_halfband(d.subfilter));
  EXPECT_TRUE(is_halfband(d.h));
  EXPECT_LE(d.passband_deviation, 1e-3);
  EXPECT_LE(d.stopband_deviation, 1e-3);
  // The designer verifies on a grid; spot-check the spec independently.
  for (double f = 0.0; f <= 0.4; f += 0.04) {
    EXPECT_NEAR(dsp::amplitude_response_at(d.h, f), 1.0, 1.5e-3) << f;
    EXPECT_NEAR(dsp::amplitude_response_at(d.h, 1.0 - f), 0.0, 1.5e-3) << f;
  }
  EXPECT_THROW(design_halfband_cascade(0.0, 1e-3), Error);
  EXPECT_THROW(design_halfband_cascade(0.5, 1e-3), Error);
  EXPECT_THROW(design_halfband_cascade(0.4, 0.0), Error);
  EXPECT_THROW(design_halfband_cascade(0.4, std::nan("")), Error);
  // Unreachable spec on the sweep grid: fail loudly, never return a
  // filter that silently misses.
  EXPECT_THROW(design_halfband_cascade(0.49, 1e-9), Error);
}

/// FNV-1a digest of a coefficient vector: each double's bit pattern, in
/// order.
u64 coeff_digest(const std::vector<double>& v) {
  u64 h = kFnvOffset;
  for (const double x : v) h = fnv1a64_word(std::bit_cast<u64>(x), h);
  return h;
}

/// One pinned design_halfband_cascade outcome.
struct CascadeGolden {
  double fp;
  double delta;
  int n1;
  int n2;
  int nonzero_taps;
  double passband_deviation;
  double stopband_deviation;
  u64 h;          // coeff_digest of each vector
  u64 subfilter;
  u64 f1;
};

// Captured before candidates that cannot win were skipped; every later
// change to the designer must reproduce these exactly. (0.34, 2e-3) is
// the benchmark's spec and (0.4, 1e-3) the filter-bank study's. At
// (0.29, 5e-3) and (0.33, 1e-2) n1=2/n2=7 ties n1=1/n2=19 at 11 taps, and
// at (0.41, 2e-4) n1=3/n2=19 ties n1=2/n2=31 at 47: the earlier candidate
// wins. The last two winners are not the first feasible candidate.
const CascadeGolden kCascadeGoldens[] = {
    {0.34, 2e-3, 1, 23, 13, 0x1.a1f85dd982cp-10, 0x1.a1f85dd982e22p-10,
     0xf323278a67abb62cULL, 0xf323278a67abb62cULL, 0xaab1693229ba1db8ULL},
    {0.4, 1e-3, 1, 47, 25, 0x1.35113202eap-11, 0x1.35113202ea08fp-11,
     0x416b591dd4255db8ULL, 0x416b591dd4255db8ULL, 0xaab1693229ba1db8ULL},
    {0.29, 5e-3, 1, 19, 11, 0x1.39d27753fdap-9, 0x1.39d27753fd6efp-9,
     0x2c7f361507d644d8ULL, 0x2c7f361507d644d8ULL, 0xaab1693229ba1db8ULL},
    {0.33, 1e-2, 1, 19, 11, 0x1.fd5696905ccp-9, 0x1.fd5696905ce2fp-9,
     0x19246f7fab4a87f8ULL, 0x19246f7fab4a87f8ULL, 0xaab1693229ba1db8ULL},
    {0.41, 2e-4, 2, 31, 47, 0x1.a4a8e515dcp-14, 0x1.a4a8e515dc546p-14,
     0xe524d5deb5df6e94ULL, 0x643c8505cfcb0fecULL, 0x5842668f91137f2dULL},
    {0.35, 1e-6, 3, 19, 47, 0x1.3cd52da8p-21, 0x1.3cd52da5ef21ep-21,
     0x066b97bc47469530ULL, 0x19246f7fab4a87f8ULL, 0x3ca746a6fc259f3eULL},
    {0.33, 1e-8, 4, 19, 65, 0x1.14c9d4cp-27, 0x1.14c9d48d85358p-27,
     0xd96c43a396b9d31cULL, 0x19246f7fab4a87f8ULL, 0xbe2743d9d2d62e3cULL},
};

TEST(Halfband, CascadeGolden) {
  for (const CascadeGolden& g : kCascadeGoldens) {
    SCOPED_TRACE(testing::Message() << "fp " << g.fp << ", delta " << g.delta);
    const HalfbandCascadeDesign d = design_halfband_cascade(g.fp, g.delta);
    EXPECT_EQ(d.n1, g.n1);
    EXPECT_EQ(d.n2, g.n2);
    EXPECT_EQ(d.nonzero_taps, g.nonzero_taps);
    EXPECT_EQ(d.passband_deviation, g.passband_deviation);
    EXPECT_EQ(d.stopband_deviation, g.stopband_deviation);
    EXPECT_EQ(coeff_digest(d.h), g.h);
    EXPECT_EQ(coeff_digest(d.subfilter), g.subfilter);
    EXPECT_EQ(coeff_digest(d.f1), g.f1);
  }
  // No candidate meets these.
  EXPECT_THROW(design_halfband_cascade(0.47, 2e-3), Error);
  EXPECT_THROW(design_halfband_cascade(0.49, 0.05), Error);
}

TEST(Nyquist, StructuralZerosAndScaling) {
  const NyquistDesign d = design_nyquist(4, 3, 60.0);
  EXPECT_EQ(d.factor, 4);
  ASSERT_EQ(d.analysis.size(), 25u);  // 2·span·M + 1
  EXPECT_TRUE(is_nyquist(d.analysis, 4));
  const int m = 12;
  EXPECT_DOUBLE_EQ(d.analysis[static_cast<std::size_t>(m)], 0.25);
  for (int q = 4; q <= m; q += 4) {
    EXPECT_EQ(d.analysis[static_cast<std::size_t>(m + q)], 0.0);
    EXPECT_EQ(d.analysis[static_cast<std::size_t>(m - q)], 0.0);
  }
  // Synthesis prototype is exactly M·analysis.
  ASSERT_EQ(d.synthesis.size(), d.analysis.size());
  for (std::size_t k = 0; k < d.analysis.size(); ++k) {
    EXPECT_DOUBLE_EQ(d.synthesis[k], 4.0 * d.analysis[k]);
  }
  // The Nyquist property in polyphase terms: the centre branch of the
  // synthesis prototype is a pure unit tap — zero intersymbol
  // interference when interpolating.
  const auto branches = polyphase_decompose(d.synthesis, 4);
  int pure_delay_branches = 0;
  for (const auto& b : branches) {
    int nonzero = 0;
    for (const double v : b) nonzero += (v != 0.0);
    if (nonzero == 1) ++pure_delay_branches;
  }
  EXPECT_EQ(pure_delay_branches, 1);
}

TEST(Nyquist, FactorTwoIsHalfband) {
  // Nyquist(2) and the half-band designer share the same ideal kernel;
  // the M = 2 analysis prototype must carry the half-band structure
  // (its endpoints are structural zeros, which the padding-robust
  // is_halfband strips).
  const NyquistDesign d = design_nyquist(2, 4, 60.0);
  EXPECT_TRUE(is_halfband(d.analysis));
  EXPECT_TRUE(is_nyquist(d.analysis, 2));
}

TEST(Nyquist, PreconditionsAndNegativeCases) {
  EXPECT_THROW(design_nyquist(1, 3, 60.0), Error);
  EXPECT_THROW(design_nyquist(4, 0, 60.0), Error);
  EXPECT_THROW(design_nyquist(4, 3, 0.0), Error);
  EXPECT_THROW(design_nyquist(4, 3, std::nan("")), Error);
  EXPECT_THROW(design_nyquist(4, 3, INFINITY), Error);
  EXPECT_THROW(design_nyquist(4, 3, 1e6), Error);  // I0(beta) overflows
  EXPECT_FALSE(is_nyquist({1.0, 2.0, 3.0}, 2));        // asymmetric
  EXPECT_FALSE(is_nyquist({}, 2));                     // empty
  EXPECT_FALSE(is_nyquist({0.1, 0.2, 0.1}, 1));        // factor < 2
  // Offset ±3 taps must be zero for M = 3.
  std::vector<double> bad(9, 0.1);
  bad[4] = 0.5;
  EXPECT_FALSE(is_nyquist(bad, 3));
}

TEST(Symmetric, FoldAndCheck) {
  EXPECT_TRUE(is_symmetric(std::vector<double>{1, 2, 3, 2, 1}));
  EXPECT_FALSE(is_symmetric(std::vector<double>{1, 2, 3, 2, 5}));
  EXPECT_TRUE(is_symmetric(std::vector<i64>{4, -2, 4}));
  const auto folded = folded_half(std::vector<i64>{1, 2, 3, 2, 1});
  EXPECT_EQ(folded, (std::vector<i64>{1, 2, 3}));
  const auto sym = symmetrize({1.0, 2.0, 3.0, 2.5, 0.5});
  EXPECT_TRUE(is_symmetric(sym));
}

// Remez spec grid: every (taps, edge-pair) combination must converge,
// stay symmetric, and exhibit the optimal-filter monotonicity (delta
// shrinks with more taps and wider transitions).
struct RemezCase {
  int taps;
  double fp;
  double fs;
};

class RemezGrid : public ::testing::TestWithParam<RemezCase> {};

TEST_P(RemezGrid, ConvergesSymmetricAndSane) {
  const RemezCase c = GetParam();
  const FilterSpec s = lowpass_spec(c.taps, c.fp, c.fs);
  const RemezResult r = design_remez(s.bands(), c.taps);
  EXPECT_TRUE(r.converged) << c.taps << " " << c.fp << " " << c.fs;
  EXPECT_TRUE(is_symmetric(r.h, 1e-9));
  EXPECT_GT(r.delta, 0.0);
  EXPECT_LT(r.delta, 0.5);
  // DC gain near unity for a lowpass.
  EXPECT_NEAR(dsp::amplitude_response_at(r.h, 0.0), 1.0, 10.0 * r.delta);
}

INSTANTIATE_TEST_SUITE_P(
    SpecGrid, RemezGrid,
    ::testing::Values(RemezCase{15, 0.2, 0.4}, RemezCase{21, 0.2, 0.4},
                      RemezCase{31, 0.2, 0.4}, RemezCase{21, 0.1, 0.25},
                      RemezCase{41, 0.1, 0.25}, RemezCase{31, 0.3, 0.45},
                      RemezCase{51, 0.05, 0.15}, RemezCase{61, 0.4, 0.55},
                      RemezCase{81, 0.2, 0.28}),
    [](const ::testing::TestParamInfo<RemezCase>& info) {
      return "t" + std::to_string(info.param.taps) + "_fp" +
             std::to_string(static_cast<int>(info.param.fp * 100)) + "_fs" +
             std::to_string(static_cast<int>(info.param.fs * 100));
    });

TEST(RemezGridExtra, WiderTransitionMeansSmallerDelta) {
  const double d_narrow =
      design_remez(lowpass_spec(31, 0.2, 0.3).bands(), 31).delta;
  const double d_wide =
      design_remez(lowpass_spec(31, 0.2, 0.45).bands(), 31).delta;
  EXPECT_LT(d_wide, d_narrow);
}

TEST(Catalog, MatchesTableOneLayout) {
  ASSERT_EQ(catalog_size(), 12);
  // Method row: BW PM LS BW PM LS PM PM LS LS PM LS.
  const DesignMethod methods[] = {
      DesignMethod::kButterworthFir, DesignMethod::kParksMcClellan,
      DesignMethod::kLeastSquares,   DesignMethod::kButterworthFir,
      DesignMethod::kParksMcClellan, DesignMethod::kLeastSquares,
      DesignMethod::kParksMcClellan, DesignMethod::kParksMcClellan,
      DesignMethod::kLeastSquares,   DesignMethod::kLeastSquares,
      DesignMethod::kParksMcClellan, DesignMethod::kLeastSquares};
  // Band row: LP LP LP LP BS BS BS LP BS LP BP BP.
  const BandType bands[] = {
      BandType::kLowPass,  BandType::kLowPass,  BandType::kLowPass,
      BandType::kLowPass,  BandType::kBandStop, BandType::kBandStop,
      BandType::kBandStop, BandType::kLowPass,  BandType::kBandStop,
      BandType::kLowPass,  BandType::kBandPass, BandType::kBandPass};
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(catalog_spec(i).method, methods[i]) << i;
    EXPECT_EQ(catalog_spec(i).band, bands[i]) << i;
    EXPECT_NO_THROW(catalog_spec(i).validate());
  }
  // Orders strictly increase (the paper's examples grow in size).
  for (int i = 1; i < 12; ++i) {
    EXPECT_GT(catalog_spec(i).num_taps, catalog_spec(i - 1).num_taps);
  }
}

TEST(Catalog, AllDesignsAreSymmetricAndSane) {
  for (int i = 0; i < catalog_size(); ++i) {
    const auto& h = catalog_coefficients(i);
    ASSERT_EQ(static_cast<int>(h.size()), catalog_spec(i).num_taps) << i;
    EXPECT_TRUE(is_symmetric(h, 1e-8)) << catalog_spec(i).name;
    const Measurement m = measure(h, catalog_spec(i));
    EXPECT_GT(m.stopband_atten_db, 18.0) << catalog_spec(i).name;
    EXPECT_GT(m.min_passband_gain, 0.7) << catalog_spec(i).name;
  }
}

}  // namespace
}  // namespace mrpf::filter
