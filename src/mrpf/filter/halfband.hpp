// Half-band FIR design: cutoff at f = 0.5 makes every even-offset tap
// (except the centre) exactly zero — the workhorse of decimate-by-2
// chains, and a structural gift to multiplierless synthesis (half the
// multiplier bank disappears before any optimizer runs).
//
// Beyond the windowed-sinc designer this module grows the classic
// prototype/sub-filter *cascade* (designHBF lineage): a short half-band
// sub-filter g is pushed through an odd sharpening polynomial
// P(x) = Σ f1[i]·x^{2i+1}, giving H = 0.5 + 0.5·P(2G − 1). Because odd
// convolution powers of an odd-offset kernel stay odd-offset, the
// composition is *structurally* half-band — no floating-point luck
// involved — while P's flatness at ±1 squeezes the sub-filter's ripple
// down by a power of the sharpening order.
#pragma once

#include <vector>

namespace mrpf::filter {

/// Kaiser-windowed half-band low-pass of length `num_taps` (must satisfy
/// num_taps ≥ 3 and num_taps % 4 == 3, the canonical half-band lengths).
/// `atten_db` must be finite and positive. Zero taps are exact (set
/// structurally, not left to floating point).
std::vector<double> design_halfband(int num_taps, double atten_db);

/// True when h has the half-band structure: odd length, symmetric, all
/// even-offset taps from the centre exactly zero (except the centre).
/// Matched zero padding at both ends is ignored first, so half-band
/// branches that polyphase utilities padded with zeros (factor >
/// num_taps) are still recognized. Minimum unpadded length is 3.
bool is_halfband(const std::vector<double>& h);

/// Compose the sharpening prototype f1 with the half-band sub-filter g:
///   h = 0.5·δ + 0.5·Σ_i f1[i] · F2^{*(2i+1)},   F2 = 2g − δ.
/// f1[i] is the coefficient of x^{2i+1} in the odd prototype polynomial;
/// g must satisfy is_halfband. The result is exactly half-band by
/// construction (even offsets are zeroed structurally, symmetry is
/// enforced exactly) with length (2·f1.size() − 1)·(|g| − 1) + 1.
std::vector<double> compose_halfband(const std::vector<double>& f1,
                                     const std::vector<double>& g);

/// One prototype/sub-filter cascade design picked by
/// design_halfband_cascade.
struct HalfbandCascadeDesign {
  std::vector<double> f1;         ///< sharpening coefficients (x, x³, …)
  std::vector<double> subfilter;  ///< the half-band sub-filter g
  std::vector<double> h;          ///< composed half-band filter
  int n1 = 0;                     ///< sharpening order (f1.size())
  int n2 = 0;                     ///< sub-filter length
  double passband_deviation = 0.0;  ///< max |A − 1| on [0, fp]
  double stopband_deviation = 0.0;  ///< max |A| on [1 − fp, 1]
  int nonzero_taps = 0;             ///< multiplier taps of the composed h
};

/// Design a half-band cascade meeting |A − 1| ≤ delta on [0, fp] and
/// |A| ≤ delta on [1 − fp, 1] (frequencies in the repo's f ∈ [0, 1],
/// Nyquist = 1 convention, so the half-band symmetry pins the stopband
/// edge at 1 − fp). Sweeps Kaiser–Hamming sharpening orders 1–4 against
/// a grid of sub-filter lengths and returns the feasible design with the
/// fewest nonzero taps. Ties go to the earlier candidate in sweep order:
/// lower n1, then shorter n2. The reported deviations are the winner's
/// maxima over its 513-point passband and stopband grids; a candidate
/// that cannot win is never verified. Throws when no candidate meets the
/// spec (loosen delta or fp).
HalfbandCascadeDesign design_halfband_cascade(double fp, double delta);

}  // namespace mrpf::filter
