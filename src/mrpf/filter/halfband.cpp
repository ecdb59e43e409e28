#include "mrpf/filter/halfband.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "mrpf/common/error.hpp"
#include "mrpf/dsp/freq_response.hpp"
#include "mrpf/dsp/window.hpp"

namespace mrpf::filter {

std::vector<double> design_halfband(int num_taps, double atten_db) {
  MRPF_CHECK(num_taps >= 3, "design_halfband: length must be at least 3");
  MRPF_CHECK(num_taps % 4 == 3,
             "design_halfband: length must satisfy N % 4 == 3 (the "
             "canonical half-band lengths 3, 7, 11, …)");
  MRPF_CHECK(std::isfinite(atten_db) && atten_db > 0.0,
             "design_halfband: attenuation must be finite and positive");

  const int m = (num_taps - 1) / 2;
  const std::vector<double> w =
      dsp::window_kaiser(num_taps, dsp::kaiser_beta_for_attenuation(atten_db));

  std::vector<double> h(static_cast<std::size_t>(num_taps), 0.0);
  for (int n = 0; n < num_taps; ++n) {
    const int q = n - m;
    if (q == 0) {
      h[static_cast<std::size_t>(n)] = 0.5;
    } else if (q % 2 != 0) {
      // Ideal fc = 0.5 lowpass: h(q) = sin(πq/2)/(πq), an even function
      // equal to ±1/(π|q|) for odd q (+ when |q| ≡ 1 mod 4).
      const double sign = (std::abs(q) % 4 == 1) ? 1.0 : -1.0;
      h[static_cast<std::size_t>(n)] =
          sign / (M_PI * std::abs(static_cast<double>(q))) *
          w[static_cast<std::size_t>(n)];
    }
    // Even q ≠ 0: structurally zero.
  }
  return h;
}

bool is_halfband(const std::vector<double>& h) {
  // Strip matched zero padding first: polyphase utilities pad short
  // filters with zeros (factor > num_taps), and symmetric padding must
  // not change the verdict. Pairs only — unmatched padding breaks the
  // symmetry and fails below anyway.
  std::size_t lo = 0;
  std::size_t hi = h.size();
  while (hi - lo > 2 && h[lo] == 0.0 && h[hi - 1] == 0.0) {
    ++lo;
    --hi;
  }
  const std::size_t n = hi - lo;
  if (n < 3 || n % 2 == 0) return false;
  const int m = static_cast<int>(n - 1) / 2;
  for (int k = 0; k < static_cast<int>(n); ++k) {
    const std::size_t a = lo + static_cast<std::size_t>(k);
    const std::size_t b = hi - 1 - static_cast<std::size_t>(k);
    const int q = k - m;
    if (q != 0 && q % 2 == 0 && h[a] != 0.0) return false;
    if (h[a] != h[b]) return false;
  }
  return true;
}

namespace {

/// Full linear convolution a ⊛ b.
std::vector<double> convolve(const std::vector<double>& a,
                             const std::vector<double>& b) {
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] += a[i] * b[j];
    }
  }
  return out;
}

/// Centre `v` (odd length) inside a length-`n` (odd) zero vector and add
/// it, scaled, into `acc`.
void add_centered(std::vector<double>& acc, const std::vector<double>& v,
                  double scale) {
  const std::size_t off = (acc.size() - v.size()) / 2;
  for (std::size_t i = 0; i < v.size(); ++i) {
    acc[off + i] += scale * v[i];
  }
}

/// Kaiser–Hamming sharpening coefficients for order n1 = 1..4: the odd
/// polynomial P_n(x) = x·Σ_{k<n} (C(2k,k)/4^k)(1−x²)^k expanded in odd
/// powers of x. P_n(±1) = ±1 and the first n−1 derivatives vanish at ±1,
/// which is what compresses the sub-filter ripple to O(ε^n).
const std::vector<double>& sharpening_coefficients(int n1) {
  static const std::vector<double> kTable[4] = {
      {1.0},
      {1.5, -0.5},
      {15.0 / 8.0, -10.0 / 8.0, 3.0 / 8.0},
      {35.0 / 16.0, -35.0 / 16.0, 21.0 / 16.0, -5.0 / 16.0},
  };
  MRPF_CHECK(n1 >= 1 && n1 <= 4,
             "sharpening_coefficients: order must be in 1..4");
  return kTable[n1 - 1];
}

}  // namespace

std::vector<double> compose_halfband(const std::vector<double>& f1,
                                     const std::vector<double>& g) {
  MRPF_CHECK(!f1.empty(), "compose_halfband: empty prototype");
  MRPF_CHECK(is_halfband(g),
             "compose_halfband: sub-filter must be half-band");

  // F2 = 2g − δ: supported on odd offsets only, so every odd convolution
  // power of it is too, and the sum below is structurally half-band.
  std::vector<double> f2 = g;
  for (double& v : f2) v *= 2.0;
  f2[(f2.size() - 1) / 2] -= 1.0;

  const std::size_t n1 = f1.size();
  const std::size_t out_len = (2 * n1 - 1) * (g.size() - 1) + 1;
  std::vector<double> h(out_len, 0.0);
  h[(out_len - 1) / 2] = 0.5;

  std::vector<double> power = f2;  // F2^{*(2i+1)}, built incrementally
  const std::vector<double> f2_sq = convolve(f2, f2);
  for (std::size_t i = 0; i < n1; ++i) {
    if (i > 0) power = convolve(power, f2_sq);
    add_centered(h, power, 0.5 * f1[i]);
  }

  // The odd-offset structure and the symmetry are exact mathematically;
  // make them exact in floating point too so downstream structural
  // consumers (polyphase split, is_halfband) see clean zeros.
  const std::size_t centre = (out_len - 1) / 2;
  for (std::size_t k = 0; k < out_len; ++k) {
    const std::ptrdiff_t q =
        static_cast<std::ptrdiff_t>(k) - static_cast<std::ptrdiff_t>(centre);
    if (q != 0 && q % 2 == 0) h[k] = 0.0;
  }
  for (std::size_t k = 0; k < out_len / 2; ++k) {
    const double avg = 0.5 * (h[k] + h[out_len - 1 - k]);
    h[k] = avg;
    h[out_len - 1 - k] = avg;
  }
  return h;
}

HalfbandCascadeDesign design_halfband_cascade(double fp, double delta) {
  MRPF_CHECK(std::isfinite(fp) && fp > 0.0 && fp < 0.5,
             "design_halfband_cascade: passband edge must lie in (0, 0.5) "
             "— half-band symmetry pins the stopband edge at 1 − fp");
  MRPF_CHECK(std::isfinite(delta) && delta > 0.0 && delta < 0.5,
             "design_halfband_cascade: deviation must lie in (0, 0.5)");

  constexpr int kGrid = 512;
  static const int kSubLengths[] = {7, 11, 15, 19, 23, 27, 31, 39, 47, 55};

  HalfbandCascadeDesign best;
  bool found = false;
  for (int n1 = 1; n1 <= 4; ++n1) {
    // Sharpening compresses sub-filter ripple ε to ~ε^n1, so the
    // sub-filter only needs a 1/n1 share of the dB budget (plus margin
    // for the polynomial's leading constant).
    const double sub_atten =
        std::max(10.0, -20.0 * std::log10(delta) / n1 + 5.0);
    const std::vector<double>& f1 = sharpening_coefficients(n1);
    for (const int n2 : kSubLengths) {
      const std::vector<double> g = design_halfband(n2, sub_atten);
      const std::vector<double> h = compose_halfband(f1, g);

      int nonzero = 0;
      for (const double v : h) {
        if (v != 0.0) ++nonzero;
      }
      // Ties go to the earlier candidate, so one with no fewer taps than
      // the best feasible design so far can never win: skip verifying it.
      if (found && nonzero >= best.nonzero_taps) continue;

      // Walk the grid from the band edge inward, where a candidate's error
      // peaks, and stop at the first point out of spec: most losers fail
      // within a few points. A feasible candidate is checked at every
      // point, and a max over a fixed set of points does not depend on
      // their order, so its deviations are the full-grid maxima.
      double pb = 0.0;
      double sb = 0.0;
      bool feasible = true;
      for (int i = kGrid; i >= 0 && feasible; --i) {
        const double f = fp * static_cast<double>(i) / kGrid;
        pb = std::max(pb, std::abs(dsp::amplitude_response_at(h, f) - 1.0));
        sb = std::max(sb,
                      std::abs(dsp::amplitude_response_at(h, 1.0 - f)));
        feasible = std::max(pb, sb) <= delta;
      }
      if (!feasible) continue;

      best.f1 = f1;
      best.subfilter = g;
      best.h = h;
      best.n1 = n1;
      best.n2 = n2;
      best.passband_deviation = pb;
      best.stopband_deviation = sb;
      best.nonzero_taps = nonzero;
      found = true;
    }
  }
  MRPF_CHECK(found,
             "design_halfband_cascade: no feasible design on the sweep "
             "grid — loosen delta or move fp away from 0.5");
  return best;
}

}  // namespace mrpf::filter
