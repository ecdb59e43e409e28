// `stream`: one thread pushes a long seeded 16-bit stream through the 12
// compiled catalog filters, once in large blocks and once in 32-sample
// pushes, then through shared-bank polyphase decimators. Set-up does all
// of the synthesis, so exec and the TDF interpreter each decimator branch
// runs do all of the timed work.
#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "knobs.hpp"
#include "mrpf/core/flow.hpp"
#include "mrpf/core/polyphase_decimator.hpp"
#include "mrpf/dsp/convolve.hpp"
#include "mrpf/exec/engine.hpp"
#include "mrpf/exec/streaming.hpp"
#include "mrpf/filter/catalog.hpp"
#include "mrpf/filter/design.hpp"
#include "mrpf/filter/polyphase.hpp"
#include "mrpf/number/quantize.hpp"

namespace perfbench {
namespace {

using mrpf::i64;
namespace core = mrpf::core;
namespace exec = mrpf::exec;

constexpr std::size_t kStreamLen = std::size_t{1} << 16;
constexpr std::size_t kBlock = 4096;
constexpr std::size_t kSmall = 32;
// Every 16th small push is timed on its own: the latency sample, at a
// clock-read cost too small to move the small-push throughput.
constexpr std::size_t kLatencyEvery = 16;
constexpr int kFactors[] = {2, 4, 8};
constexpr int kReplays = 3;

struct Fir {
  std::vector<i64> coefficients;
  std::vector<int> align;
  std::unique_ptr<exec::StreamingFilter> sf;  // holds its engine's program
};

struct Decim {
  std::vector<i64> coefficients;
  int factor = 0;
  std::unique_ptr<core::PolyphaseDecimator> dec;
};

struct State {
  std::vector<i64> stream;
  std::vector<std::vector<i64>> blocks;  // the stream in kBlock pieces
  std::vector<std::vector<i64>> chunks;  // the stream in kSmall pieces
  std::vector<Fir> firs;
  std::vector<Decim> decims;
  double adders = 0.0;
  std::string digest;
};

std::vector<std::vector<i64>> split(const std::vector<i64>& x, std::size_t n) {
  std::vector<std::vector<i64>> out;
  for (std::size_t i = 0; i < x.size(); i += n) {
    out.emplace_back(x.begin() + static_cast<std::ptrdiff_t>(i),
                     x.begin() + static_cast<std::ptrdiff_t>(std::min(i + n, x.size())));
  }
  return out;
}

/// Catalog filters at W = 16 with maximal scaling through `mrpf`, and each
/// filter's uniform-scaled image as a shared-bank decimator, M cycling
/// through 2, 4, 8.
std::unique_ptr<State> build(std::uint64_t seed) {
  auto st = std::make_unique<State>();
  InputRng rng(seed, 2);
  st->stream.resize(kStreamLen);
  for (i64& x : st->stream) x = rng.range(-32768, 32767);
  st->blocks = split(st->stream, kBlock);
  st->chunks = split(st->stream, kSmall);
  const core::MrpOptions opts = solve_options(false);
  for (int i = 0; i < mrpf::filter::catalog_size(); ++i) {
    const std::vector<double> h = mrpf::filter::design(mrpf::filter::catalog_spec(i));
    const auto q = mrpf::number::quantize_maximal(h, 16);
    Fir f;
    f.coefficients = q.values();
    f.align = core::alignment_of(q);
    mrpf::arch::TdfFilter tdf = core::build_tdf(q, core::Scheme::kMrp, opts);
    st->adders += tdf.block().graph.num_adders();
    f.sf = std::make_unique<exec::StreamingFilter>(std::move(tdf), exec_config());
    st->firs.push_back(std::move(f));
    Decim d;
    d.coefficients = mrpf::number::quantize_uniform(h, 16).values();
    d.factor = kFactors[i % 3];
    d.dec = std::make_unique<core::PolyphaseDecimator>(
        d.coefficients, d.factor, core::Scheme::kMrp, opts,
        core::BankSharing::kShared);
    st->adders += d.dec->multiplier_adders();
    st->decims.push_back(std::move(d));
  }
  Digest dg;
  dg.ints(st->stream);
  for (const Fir& f : st->firs) dg.ints(f.coefficients);
  for (const Decim& d : st->decims) dg.ints(d.coefficients);
  st->digest = dg.hex();
  return st;
}

std::uint64_t digest_of(const std::vector<std::vector<i64>>& pieces) {
  Digest d;
  for (const auto& p : pieces) d.bytes(p.data(), p.size() * sizeof(i64));
  return d.value();
}

std::uint64_t digest_of(const std::vector<i64>& v) {
  Digest d;
  d.bytes(v.data(), v.size() * sizeof(i64));
  return d.value();
}

struct Phase {
  // Per pass, from calibrated times (see Calibration).
  std::vector<double> large_sps, small_sps, decim_sps;
  std::vector<double> large_wall_sps;  // per pass, wall clock, for the report
  std::vector<double> push_ms;         // sampled small pushes, calibrated
  std::vector<double> push_wall_ms;    // the same samples, wall clock
  std::vector<double> pass_tail_ms;
  double pass_tail_percentile = 0.0;
  // Output digests of every pass, checked against the references later.
  std::vector<std::uint64_t> fir_out, decim_out;
  std::vector<double> fir_large_ns;  // per filter, wall clock, summed over passes
  double vector_pushes = 0.0;
  double pushes = 0.0;
  int passes = 0;
  std::string calibration;  // describe() of the phase's calibration
};

Phase run_phase(State& st, int seconds, Tracer* t) {
  Phase ph;
  ph.fir_large_ns.assign(st.firs.size(), 0.0);
  const double samples = static_cast<double>(st.firs.size() * kStreamLen);
  std::vector<std::vector<i64>> outs(st.blocks.size());
  std::vector<std::vector<i64>> small_outs(st.chunks.size());
  const int push_name = t ? t->name_id("exec.push") : 0;
  const int large_name = t ? t->name_id("exec.push_block") : 0;
  const int decim_name = t ? t->name_id("core.decim_run") : 0;
  Calibration cal;
  const auto start = Clock::now();
  while (ns_between(start, Clock::now()) < seconds * 1e9 || ph.passes == 0) {
    rotate_cpu(ph.passes);
    double large_ns = 0.0, large_wall_ns = 0.0, small_ns = 0.0, decim_ns = 0.0;
    std::vector<double> pass_ms;
    for (std::size_t f = 0; f < st.firs.size(); ++f) {
      exec::StreamingFilter& sf = *st.firs[f].sf;
      const auto id = static_cast<std::int64_t>(f);
      sf.reset();
      auto a = Clock::now();
      for (std::size_t k = 0; k < st.blocks.size(); ++k) {
        const Scope span(t, large_name, id);
        outs[k] = sf.push(st.blocks[k]);
      }
      const double ns = ns_between(a, Clock::now());
      large_ns += ns * cal.next();
      large_wall_ns += ns;
      ph.fir_large_ns[f] += ns;
      ph.fir_out.push_back(digest_of(outs));

      sf.reset();
      std::vector<double> wall_ms;
      a = Clock::now();
      for (std::size_t k = 0; k < st.chunks.size(); ++k) {
        if (k % kLatencyEvery != 0) {
          small_outs[k] = sf.push(st.chunks[k]);
          continue;
        }
        const Scope span(t, push_name, id);
        const auto p0 = Clock::now();
        small_outs[k] = sf.push(st.chunks[k]);
        wall_ms.push_back(ns_between(p0, Clock::now()) * 1e-6);
      }
      const double small_wall_ns = ns_between(a, Clock::now());
      // The latency samples take the factor of the loop they sit in.
      const double factor = cal.next();
      small_ns += small_wall_ns * factor;
      for (const double ms : wall_ms) pass_ms.push_back(ms * factor);
      ph.push_wall_ms.insert(ph.push_wall_ms.end(), wall_ms.begin(), wall_ms.end());
      ph.fir_out.push_back(digest_of(small_outs));
      const double n_push = static_cast<double>(st.blocks.size() + st.chunks.size());
      ph.pushes += n_push;
      if (sf.mode() == exec::ExecMode::kVector) ph.vector_pushes += n_push;
    }
    for (std::size_t d = 0; d < st.decims.size(); ++d) {
      const auto a = Clock::now();
      std::vector<i64> y;
      {
        const Scope span(t, decim_name, static_cast<std::int64_t>(d));
        y = st.decims[d].dec->run(st.stream);
      }
      const double ns = ns_between(a, Clock::now());
      decim_ns += ns * cal.next();
      ph.decim_out.push_back(digest_of(y));
    }
    ph.large_sps.push_back(samples / (large_ns * 1e-9));
    ph.large_wall_sps.push_back(samples / (large_wall_ns * 1e-9));
    ph.small_sps.push_back(samples / (small_ns * 1e-9));
    ph.decim_sps.push_back(samples / (decim_ns * 1e-9));
    const Tail pass_tail = tail_of(pass_ms);
    ph.pass_tail_ms.push_back(pass_tail.value);
    ph.pass_tail_percentile = pass_tail.percentile;
    ph.push_ms.insert(ph.push_ms.end(), pass_ms.begin(), pass_ms.end());
    ++ph.passes;
  }
  ph.calibration = describe(cal);
  return ph;
}

/// Compares every pass's outputs with the exact references, after timing.
void verify(const State& st, const Phase& ph, Result& r) {
  std::vector<std::uint64_t> fir_ref, decim_ref;
  for (const Fir& f : st.firs) {
    fir_ref.push_back(digest_of(
        mrpf::dsp::fir_filter_exact(f.coefficients, f.align, st.stream)));
  }
  for (const Decim& d : st.decims) {
    decim_ref.push_back(digest_of(
        mrpf::filter::decimate_exact(d.coefficients, d.factor, st.stream)));
  }
  for (std::size_t i = 0; i < ph.fir_out.size(); ++i) {
    const std::size_t f = (i / 2) % st.firs.size();
    ++r.attempted;
    if (ph.fir_out[i] != fir_ref[f]) {
      r.fail(mrpf::filter::catalog_spec(static_cast<int>(f)).name +
             (i % 2 == 0 ? " large-block" : " 32-sample") +
             " stream differs from fir_filter_exact");
    }
  }
  for (std::size_t i = 0; i < ph.decim_out.size(); ++i) {
    const std::size_t d = i % st.decims.size();
    ++r.attempted;
    if (ph.decim_out[i] != decim_ref[d]) {
      r.fail("decimator " + std::to_string(d) + " differs from decimate_exact");
    }
  }
}

/// Replays, in the traced run only: the bare engine, the TDF interpreter
/// and naive convolution over the same stream, per filter.
void replay_layers(State& st, Tracer& t, std::vector<double>& naive_ns) {
  const int run_name = t.name_id("exec.run");
  const int interp_name = t.name_id("arch.interp");
  const int naive_name = t.name_id("dsp.naive");
  std::vector<i64> y(kBlock);
  for (std::size_t f = 0; f < st.firs.size(); ++f) {
    const Fir& fir = st.firs[f];
    const auto id = static_cast<std::int64_t>(f);
    if (fir.sf->mode() == exec::ExecMode::kVector) {
      exec::ExecEngine engine(fir.sf->program(), fir.sf->lanes());
      for (const std::vector<i64>& b : st.blocks) {
        const Scope span(t, run_name, id);
        engine.run(b.data(), y.data(), b.size());
      }
      t.count("exec.run_samples", static_cast<double>(kStreamLen));
    }
    {
      const Scope span(t, interp_name, id);
      (void)fir.sf->filter().run(st.stream);
    }
    const auto a = Clock::now();
    {
      const Scope span(t, naive_name, id);
      (void)mrpf::dsp::fir_filter_exact(fir.coefficients, fir.align, st.stream);
    }
    naive_ns[f] += ns_between(a, Clock::now());
  }
}

}  // namespace

Result run_stream(const Args& args, Tracer& tracer) {
  Result r;
  std::unique_ptr<State> st;
  const double setup_s = setup(args, st, [&] { return build(args.seed); });
  if (args.setup_only) return r;
  r.digest = st->digest;

  const Phase plain = run_phase(*st, args.seconds, nullptr);
  verify(*st, plain, r);
  r.passes = plain.passes;
  const double msps = median(plain.large_sps) * 1e-6;
  const double small_msps = median(plain.small_sps) * 1e-6;
  const double decim_msps = median(plain.decim_sps) * 1e-6;
  const double push_p50_ms = median(plain.push_ms);
  r.line("stream: " + std::to_string(st->firs.size()) + " filters, " +
         std::to_string(st->decims.size()) + " decimators, " +
         std::to_string(kStreamLen) + " samples, " + std::to_string(r.passes) +
         " passes; times calibrated, " + plain.calibration);
  r.line("stream_msps = " + fmt(msps) + " Msamples/s (wall clock: " +
         fmt(median(plain.large_wall_sps) * 1e-6) + ")");
  r.line("stream_small_msps = " + fmt(small_msps) + " Msamples/s");
  r.line("decim_msps = " + fmt(decim_msps) + " Msamples/s");
  r.line("push_p50_ms = " + fmt(push_p50_ms) + " ms (n = " +
         std::to_string(plain.push_ms.size()) + "; wall clock: " +
         fmt(median(plain.push_wall_ms)) + " ms)");
  r.line("push_tail_ms = " + fmt(median(plain.pass_tail_ms)) +
         " ms (median over passes of each pass's p" +
         fmt(plain.pass_tail_percentile) + ")");
  r.line("adders_total = " + fmt(st->adders) + " count");
  r.line("setup_s = " + fmt(setup_s) + " s");

  if (!tracer.on()) {
    r.metrics["setup_s"] = setup_s;
    r.metrics["adders_total"] = st->adders;
    r.metrics["p50_ms"] = push_p50_ms;
    r.metrics["throughput_per_s"] = msps * 1e6;
    return r;
  }

  const Phase traced = run_phase(*st, args.seconds, &tracer);
  verify(*st, traced, r);
  std::vector<double> naive_ns(st->firs.size(), 0.0);
  // The replays repeat a few times, not every pass: the interpreter is the
  // slow one, and a few replays give a steady mean.
  const int replays = std::min(traced.passes, kReplays);
  for (int p = 0; p < replays; ++p) replay_layers(*st, tracer, naive_ns);

  auto& m = r.metrics;
  m["trace.overhead_ratio"] = median(plain.large_sps) / median(traced.large_sps);
  const Tracer::Total run = tracer.total("exec.run");
  const double run_samples = tracer.counted("exec.run_samples");
  m["exec.run_ns_per_sample"] = run_samples > 0 ? run.ns / run_samples : 0.0;
  const Tracer::Total push = tracer.total("exec.push");
  m["exec.push_ns"] = push.calls ? push.ns / static_cast<double>(push.calls) : 0.0;
  double ops = 0.0;
  for (const Fir& f : st->firs) ops += static_cast<double>(f.sf->program().ops.size());
  m["exec.ops_per_sample"] = ops;
  m["exec.vector_ratio"] = traced.vector_pushes / traced.pushes;
  const double stream_len = static_cast<double>(kStreamLen);
  const auto per_sample = [&](const std::string& name) {
    const Tracer::Total tot = tracer.total(name);
    return tot.calls ? tot.ns / (static_cast<double>(tot.calls) * stream_len) : 0.0;
  };
  m["core.decim_ns_per_sample"] = per_sample("core.decim_run");
  m["arch.interp_ns_per_sample"] = per_sample("arch.interp");
  m["dsp.naive_ns_per_sample"] = per_sample("dsp.naive");
  double log_sum = 0.0;
  for (std::size_t f = 0; f < st->firs.size(); ++f) {
    log_sum += std::log((naive_ns[f] / replays) / (traced.fir_large_ns[f] / traced.passes));
  }
  m["exec.speedup_vs_naive"] = std::exp(log_sum / static_cast<double>(st->firs.size()));
  r.line("traced stream_msps = " + fmt(median(traced.large_sps) * 1e-6) +
         " Msamples/s (overhead ratio " + fmt(m["trace.overhead_ratio"]) + ")");
  return r;
}

}  // namespace perfbench
