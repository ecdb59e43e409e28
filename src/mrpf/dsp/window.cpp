#include "mrpf/dsp/window.hpp"

#include <climits>
#include <cmath>

#include "mrpf/common/error.hpp"

namespace mrpf::dsp {

namespace {

std::vector<double> make_window(int n, double (*shape)(double)) {
  MRPF_CHECK(n >= 1, "window: length must be positive");
  std::vector<double> w(static_cast<std::size_t>(n));
  if (n == 1) {
    w[0] = 1.0;
    return w;
  }
  for (int k = 0; k < n; ++k) {
    w[static_cast<std::size_t>(k)] =
        shape(static_cast<double>(k) / static_cast<double>(n - 1));
  }
  return w;
}

}  // namespace

std::vector<double> window_rectangular(int n) {
  return make_window(n, [](double) { return 1.0; });
}

std::vector<double> window_hamming(int n) {
  return make_window(
      n, [](double t) { return 0.54 - 0.46 * std::cos(2.0 * M_PI * t); });
}

std::vector<double> window_hann(int n) {
  return make_window(
      n, [](double t) { return 0.5 - 0.5 * std::cos(2.0 * M_PI * t); });
}

std::vector<double> window_blackman(int n) {
  return make_window(n, [](double t) {
    return 0.42 - 0.5 * std::cos(2.0 * M_PI * t) +
           0.08 * std::cos(4.0 * M_PI * t);
  });
}

double bessel_i0(double x) {
  // Power series Σ (x/2)^{2k} / (k!)², converges quickly for |x| < ~20.
  const double half = x / 2.0;
  double term = 1.0;
  double sum = 1.0;
  for (int k = 1; k < 64; ++k) {
    term *= (half / static_cast<double>(k)) * (half / static_cast<double>(k));
    sum += term;
    if (term < 1e-18 * sum) break;
  }
  return sum;
}

std::vector<double> window_kaiser(int n, double beta) {
  MRPF_CHECK(n >= 1, "window_kaiser: length must be positive");
  MRPF_CHECK(beta >= 0.0, "window_kaiser: beta must be non-negative");
  const double denom = bessel_i0(beta);
  MRPF_CHECK(std::isfinite(denom),
             "window_kaiser: beta too large, I0(beta) overflows a double");
  std::vector<double> w(static_cast<std::size_t>(n));
  const double mid = static_cast<double>(n - 1) / 2.0;
  for (int k = 0; k < n; ++k) {
    const double r = mid > 0.0 ? (static_cast<double>(k) - mid) / mid : 0.0;
    w[static_cast<std::size_t>(k)] =
        bessel_i0(beta * std::sqrt(std::max(0.0, 1.0 - r * r))) / denom;
  }
  return w;
}

double kaiser_beta_for_attenuation(double atten_db) {
  if (atten_db > 50.0) return 0.1102 * (atten_db - 8.7);
  if (atten_db >= 21.0) {
    return 0.5842 * std::pow(atten_db - 21.0, 0.4) +
           0.07886 * (atten_db - 21.0);
  }
  return 0.0;
}

int kaiser_length_for_spec(double atten_db, double delta_f) {
  MRPF_CHECK(delta_f > 0.0 && delta_f < 1.0,
             "kaiser_length_for_spec: transition width outside (0,1)");
  // Kaiser: N ≈ (A - 7.95) / (2.285·Δω), Δω = π·delta_f.
  const double n = (atten_db - 7.95) / (2.285 * M_PI * delta_f) + 1.0;
  MRPF_CHECK(std::isfinite(n) && n <= static_cast<double>(INT_MAX),
             "kaiser_length_for_spec: length estimate is not finite or "
             "exceeds INT_MAX");
  return n <= 3.0 ? 3 : static_cast<int>(std::ceil(n));
}

}  // namespace mrpf::dsp
