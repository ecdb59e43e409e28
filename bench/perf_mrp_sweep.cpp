// Parallel-scaling gate for the MRP engine: catalog filters 0-3 (W=16,
// maximally scaled, SPT) solved one by one and as one mrp_optimize_batch.
// The two must be bit-identical (core::mrp_mismatch), and on a host with
// at least two hardware threads the batch must be at least as fast as the
// serial loop, read from alternating medians (see alternating_medians_ns).
// It is the repository's one wall-clock gate; the engine's deterministic
// gates run in ctest, and its speed is measured by perfbench. Run it with
// MRPF_THREADS set to the pool size under test (CI uses 4).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "mrpf/common/parallel.hpp"
#include "mrpf/core/mrp.hpp"
#include "mrpf/core/plan_equality.hpp"

namespace {

using namespace mrpf;
using Clock = std::chrono::steady_clock;

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Median per-call wall times of several functions, sampled alternately
/// (f0, f1, ..., f0, f1, ...) so that every side sees the same host state.
/// A sample repeats its function until it spans at least 5 ms: a solve
/// batch of under a millisecond timed once, or as a best of two, measures
/// the scheduler more than the batch.
std::vector<double> alternating_medians_ns(
    const std::vector<std::function<void()>>& fns) {
  constexpr int kSamples = 7;
  constexpr double kMinSampleNs = 5e6;
  std::vector<std::vector<double>> samples(fns.size());
  for (int s = 0; s < kSamples; ++s) {
    for (std::size_t f = 0; f < fns.size(); ++f) {
      int calls = 0;
      const double t0 = now_ns();
      double t1 = t0;
      while (calls == 0 || t1 - t0 < kMinSampleNs) {
        fns[f]();
        ++calls;
        t1 = now_ns();
      }
      samples[f].push_back((t1 - t0) / calls);
    }
  }
  std::vector<double> medians;
  for (std::vector<double>& v : samples) {
    std::nth_element(v.begin(), v.begin() + kSamples / 2, v.end());
    medians.push_back(v[kSamples / 2]);
  }
  return medians;
}

}  // namespace

int main() {
  bench::print_header(
      "MRP batch scaling gate — catalog filters 0-3, W=16, maximal "
      "scaling, SPT");

  core::MrpOptions opts;
  opts.rep = number::NumberRep::kSpt;
  std::vector<std::vector<i64>> banks;
  for (int i = 0; i < std::min(4, filter::catalog_size()); ++i) {
    banks.push_back(bench::folded_bank(i, 16, /*maximal=*/true));
  }

  std::vector<core::MrpResult> serial;
  std::vector<core::MrpResult> parallel;
  const std::vector<double> ns = alternating_medians_ns({
      [&] {
        serial.clear();
        for (const auto& bank : banks) {
          serial.push_back(core::mrp_optimize(bank, opts));
        }
      },
      [&] { parallel = core::mrp_optimize_batch(banks, opts); },
  });
  const double scaling = ns[0] / ns[1];
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("solves      : %zu banks, %d pool threads, %u hardware "
              "thread%s\n",
              banks.size(), default_thread_count(), hw, hw == 1 ? "" : "s");
  std::printf("median      : serial %.0f ns | parallel %.0f ns | %.2fx "
              "batch scaling\n",
              ns[0], ns[1], scaling);

  bool ok = true;
  for (std::size_t i = 0; i < banks.size(); ++i) {
    const std::optional<std::string> m =
        core::mrp_mismatch(serial[i], parallel[i]);
    if (m.has_value()) {
      std::fprintf(stderr, "GATE: bank %zu: parallel batch differs from "
                           "serial: %s\n",
                   i, m->c_str());
      ok = false;
    }
  }
  // On a single hardware thread extra workers only time-slice, so a ratio
  // below 1.0 is scheduler noise, not a parallelism regression.
  if (hw < 2) {
    std::printf("GATE: single hardware thread, scaling gate skipped\n");
  } else if (scaling < 1.0) {
    std::fprintf(stderr, "GATE: parallel batch slower than serial (%.3fx) "
                         "on a %u-thread host\n",
                 scaling, hw);
    ok = false;
  }
  if (ok) std::printf("GATE: pass\n");
  return ok ? 0 : 1;
}
