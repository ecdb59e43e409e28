// Window functions for FIR design (frequency-sampling smoothing and the
// Kaiser design path).
#pragma once

#include <vector>

namespace mrpf::dsp {

std::vector<double> window_rectangular(int n);
std::vector<double> window_hamming(int n);
std::vector<double> window_hann(int n);
std::vector<double> window_blackman(int n);

/// Kaiser window with shape parameter beta. Throws when I0(beta)
/// overflows a double (beta above about 13,600), where the window would
/// be NaN.
std::vector<double> window_kaiser(int n, double beta);

/// Zeroth-order modified Bessel function of the first kind (series form).
double bessel_i0(double x);

/// Kaiser's empirical beta for a given stopband attenuation in dB.
double kaiser_beta_for_attenuation(double atten_db);

/// Kaiser's estimate of the filter length for attenuation `atten_db` and a
/// normalized transition width `delta_f` (in the f ∈ [0,1] convention),
/// at least 3. Throws when the estimate is not finite or exceeds INT_MAX.
int kaiser_length_for_spec(double atten_db, double delta_f);

}  // namespace mrpf::dsp
