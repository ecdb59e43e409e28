// `synth`: a closed loop on one thread over (spec, scheme, e-graph pass)
// jobs with the solve cache off. A job designs, quantizes, synthesizes and
// streams a verification signal through the result, so the solver layers
// (core, cse, baseline, opt, xform) do almost all of the work.
#include <algorithm>
#include <optional>

#include "bench.hpp"
#include "knobs.hpp"
#include "mrpf/core/color_graph.hpp"
#include "mrpf/core/flow.hpp"
#include "mrpf/core/pass_manager.hpp"
#include "mrpf/core/plan_equality.hpp"
#include "mrpf/core/polyphase_decimator.hpp"
#include "mrpf/core/scheme_driver.hpp"
#include "mrpf/dsp/convolve.hpp"
#include "mrpf/exec/streaming.hpp"
#include "mrpf/filter/catalog.hpp"
#include "mrpf/filter/design.hpp"
#include "mrpf/filter/halfband.hpp"
#include "mrpf/filter/nyquist.hpp"
#include "mrpf/filter/polyphase.hpp"
#include "mrpf/graph/set_cover.hpp"
#include "mrpf/number/quantize.hpp"

namespace perfbench {
namespace {

using mrpf::i64;
namespace core = mrpf::core;
namespace filter = mrpf::filter;
namespace number = mrpf::number;

constexpr int kRandomSpecs = 12;
constexpr int kVerifyLen = 2048;
constexpr int kFactors[] = {2, 4, 8};

enum class Kind { kFir, kNyquist, kHalfband };

struct SpecInput {
  std::string label;
  Kind kind = Kind::kFir;
  filter::FilterSpec spec;  // kFir
  int wordlength = 16;
  bool maximal = true;
  int factor = 0;          // prototypes: decimation factor M
  int span = 0;            // kNyquist
  double atten_db = 0.0;   // kNyquist
  double fp = 0.0;         // kHalfband
  double delta = 0.0;      // kHalfband
};

struct Job {
  int spec = 0;
  core::Scheme scheme = core::Scheme::kSimple;
  bool xform = false;
};

struct Inputs {
  std::vector<SpecInput> specs;
  std::vector<Job> jobs;  // one pass, in the seeded order it runs
  std::vector<i64> stream;
  std::string digest;
};

/// Band edges for a random spec: the transition width follows the tap
/// count (Kaiser's estimate at ~40 dB), so every draw is designable.
std::vector<double> draw_edges(InputRng& rng, filter::BandType band, int taps) {
  const double tw = std::clamp(4.0 / taps, 0.04, 0.2) * rng.uniform(0.8, 1.2);
  const auto start = [&](double used) {
    return rng.uniform(0.05, std::max(0.06, 0.92 - used));
  };
  switch (band) {
    case filter::BandType::kLowPass: {
      const double fp = start(tw);
      return {fp, fp + tw};
    }
    case filter::BandType::kHighPass: {
      const double fs = start(tw);
      return {fs, fs + tw};
    }
    case filter::BandType::kBandPass:
    case filter::BandType::kBandStop: {
      const double w = rng.uniform(0.1, 0.25);
      const double a = start(2 * tw + w);
      return {a, a + tw, a + tw + w, a + 2 * tw + w};
    }
  }
  return {};
}

Inputs make_inputs(std::uint64_t seed) {
  InputRng rng(seed, 1);
  Inputs in;
  for (int i = 0; i < filter::catalog_size(); ++i) {
    SpecInput s;
    s.spec = filter::catalog_spec(i);
    s.label = s.spec.name;
    in.specs.push_back(s);  // W = 16, maximal scaling
  }
  // Random specs, one per tap-count stratum. Band, method and the (W,
  // scaling) pair are fixed per stratum and cycle out of step, so all
  // twelve band/method pairs appear, each band meets three (W, scaling)
  // pairs and each pair covers short, middle and long filters. The seed draws the tap count inside
  // the stratum, the band edges and the ripple specs: it changes which
  // filters run but not the shape of the mix.
  const filter::BandType kBands[] = {
      filter::BandType::kLowPass, filter::BandType::kHighPass,
      filter::BandType::kBandPass, filter::BandType::kBandStop};
  const filter::DesignMethod kMethods[] = {filter::DesignMethod::kParksMcClellan,
                                           filter::DesignMethod::kLeastSquares,
                                           filter::DesignMethod::kKaiserWindow};
  const int width = (121 - 17) / kRandomSpecs;
  for (int k = 0; k < kRandomSpecs; ++k) {
    SpecInput s;
    const int lo = 17 + k * width;
    s.spec.num_taps = static_cast<int>(rng.range(lo, lo + width - 1)) | 1;
    s.spec.band = kBands[k % 4];
    s.spec.method = kMethods[k % 3];
    s.spec.edges = draw_edges(rng, s.spec.band, s.spec.num_taps);
    s.spec.passband_ripple_db = rng.uniform(0.3, 1.0);
    s.spec.stopband_atten_db = rng.uniform(35.0, 60.0);
    const int combo = (k + k / 4) % 4;
    s.wordlength = combo < 2 ? 12 : 16;
    s.maximal = combo % 2 == 1;
    s.spec.name = "rand" + std::to_string(k);
    s.label = s.spec.name;
    in.specs.push_back(s);
  }
  for (const int m : kFactors) {
    SpecInput ny;
    ny.kind = Kind::kNyquist;
    ny.factor = m;
    ny.span = 3;
    ny.atten_db = rng.uniform(50.0, 70.0);
    ny.maximal = false;
    ny.label = "nyquist-M" + std::to_string(m);
    in.specs.push_back(ny);
  }
  // One half-band cascade, at its own factor and a fixed spec: its
  // designer sweeps a grid of candidate cascades (~70 ms a design) and the
  // winner's length swings with the spec, so more of them, or a drawn
  // spec, would make design and that one filter the bulk of every pass.
  SpecInput hb;
  hb.kind = Kind::kHalfband;
  hb.factor = 2;
  hb.fp = 0.34;
  hb.delta = 2e-3;
  hb.maximal = false;
  hb.label = "halfband-cascade-M2";
  in.specs.push_back(hb);
  for (int s = 0; s < static_cast<int>(in.specs.size()); ++s) {
    for (const core::Scheme scheme : core::all_schemes()) {
      in.jobs.push_back({s, scheme, false});
      in.jobs.push_back({s, scheme, true});
    }
  }
  rng.shuffle(in.jobs);
  in.stream.resize(kVerifyLen);
  for (i64& x : in.stream) x = rng.range(-32768, 32767);

  Digest d;
  for (const SpecInput& s : in.specs) {
    d.str(s.label);
    d.i64(static_cast<int>(s.kind));
    d.i64(static_cast<int>(s.spec.method));
    d.i64(static_cast<int>(s.spec.band));
    for (const double e : s.spec.edges) d.f64(e);
    d.f64(s.spec.passband_ripple_db);
    d.f64(s.spec.stopband_atten_db);
    d.i64(s.spec.num_taps);
    d.i64(s.wordlength);
    d.i64(s.maximal);
    d.i64(s.factor);
    d.i64(s.span);
    d.f64(s.atten_db);
    d.f64(s.fp);
    d.f64(s.delta);
  }
  for (const Job& j : in.jobs) {
    d.i64(j.spec);
    d.i64(static_cast<int>(j.scheme));
    d.i64(j.xform);
  }
  d.ints(in.stream);
  in.digest = d.hex();
  return in;
}

std::vector<double> design_of(const SpecInput& s) {
  switch (s.kind) {
    case Kind::kNyquist:
      return filter::design_nyquist(s.factor, s.span, s.atten_db).analysis;
    case Kind::kHalfband:
      return filter::design_halfband_cascade(s.fp, s.delta).h;
    case Kind::kFir:
      break;
  }
  return filter::design(s.spec);
}

number::QuantizedCoefficients quantize_of(const SpecInput& s,
                                          const std::vector<double>& h) {
  return s.maximal ? number::quantize_maximal(h, s.wordlength)
                   : number::quantize_uniform(h, s.wordlength);
}

/// What one execution of a job produced; coefficients and alignment are
/// kept so the reference output can be computed after timing stops.
struct JobOutput {
  std::vector<i64> coefficients;
  std::vector<int> align;
  std::vector<i64> y;
  int adders = 0;
};

JobOutput run_job(const Inputs& in, const Job& job) {
  const SpecInput& s = in.specs[static_cast<std::size_t>(job.spec)];
  const std::vector<double> h = design_of(s);
  const number::QuantizedCoefficients q = quantize_of(s, h);
  JobOutput o;
  o.coefficients = q.values();
  const core::MrpOptions opts = solve_options(job.xform);
  if (s.kind == Kind::kFir) {
    o.align = core::alignment_of(q);
    mrpf::arch::TdfFilter tdf = core::build_tdf(q, job.scheme, opts);
    o.adders = tdf.block().graph.num_adders();
    mrpf::exec::StreamingFilter sf(std::move(tdf), exec_config());
    o.y = sf.push(in.stream);
  } else {
    const core::PolyphaseDecimator dec(o.coefficients, s.factor, job.scheme,
                                       opts, core::BankSharing::kShared);
    o.adders = dec.multiplier_adders();
    o.y = dec.run(in.stream);
  }
  return o;
}

std::string metric_scheme(core::Scheme s) {
  std::string name = core::to_string(s);
  std::replace(name.begin(), name.end(), '+', '-');
  return name;
}

/// The traced job: the same computation as build_tdf, composed from the
/// layers' public calls so each gets its own span. `plan` receives the
/// synthesized plan (FIR jobs) for the composition check.
JobOutput run_job_traced(const Inputs& in, const Job& job, std::int64_t id,
                         Tracer& t, std::optional<core::SynthPlan>& plan,
                         core::MrpOptions& eff) {
  const SpecInput& s = in.specs[static_cast<std::size_t>(job.spec)];
  const Scope job_span(t, t.name_id("synth.job"), id);
  const int parent = job_span.index();
  std::vector<double> h;
  {
    const Scope span(t, t.name_id("filter.design"), id, parent);
    h = design_of(s);
  }
  number::QuantizedCoefficients q;
  {
    const Scope span(t, t.name_id("number.quantize"), id, parent);
    q = quantize_of(s, h);
  }
  JobOutput o;
  o.coefficients = q.values();
  const core::MrpOptions opts = solve_options(job.xform);
  if (s.kind != Kind::kFir) {
    std::optional<core::PolyphaseDecimator> dec;
    {
      const Scope span(t, t.name_id("core.decim_build"), id, parent);
      dec.emplace(o.coefficients, s.factor, job.scheme, opts,
                  core::BankSharing::kShared);
    }
    o.adders = dec->multiplier_adders();
    const Scope span(t, t.name_id("core.decim_run"), id, parent);
    o.y = dec->run(in.stream);
    return o;
  }
  o.align = core::alignment_of(q);
  const std::vector<i64> bank = core::optimization_bank(o.coefficients);
  const core::SchemeDriver& driver = core::scheme_driver(job.scheme);
  eff = driver.canonical_options(opts);
  {
    const Scope span(t, t.name_id("core.optimize." + metric_scheme(job.scheme)),
                     id, parent);
    plan = driver.optimize(bank, eff);
  }
  if (eff.passes.xform) {
    const int before = plan->analytic_adders;
    bool won = false;
    {
      const Scope span(t, t.name_id("xform.pass"), id, parent);
      won = core::apply_plan_passes(bank, eff, *plan);
    }
    t.count("xform.runs", 1);
    if (won) {
      t.count("xform.wins", 1);
      t.count("xform.adders_saved", before - plan->analytic_adders);
    }
  }
  mrpf::arch::MultiplierBlock block;
  {
    const Scope span(t, t.name_id("arch.lower"), id, parent);
    block = core::lower_plan(bank, *plan);
  }
  t.count("arch.plan_ops", static_cast<double>(plan->ops.size()));
  mrpf::arch::TdfFilter tdf =
      core::expand_block_to_tdf(o.coefficients, o.align, std::move(block));
  o.adders = tdf.block().graph.num_adders();
  std::optional<mrpf::exec::StreamingFilter> sf;
  {
    const Scope span(t, t.name_id("exec.compile"), id, parent);
    sf.emplace(std::move(tdf), exec_config());
  }
  t.count("exec.fused_ops", static_cast<double>(sf->program().ops.size()));
  const Scope span(t, t.name_id("exec.verify_stream"), id, parent);
  o.y = sf->push(in.stream);
  return o;
}

/// Replays stage A of an MRP plan — color graph, then greedy set cover —
/// on the plan's primaries. Returns false when the replayed cover picks
/// other colors than the plan records.
bool replay_stage_a(const core::MrpResult& mrp, const core::MrpOptions& eff,
                    std::int64_t id, Tracer& t) {
  core::ColorGraph cg;
  {
    const Scope span(t, t.name_id("core.color_graph"), id);
    cg = core::build_color_graph(mrp.vertices, {eff.l_max, eff.rep});
  }
  t.count("core.color_graph_edges", static_cast<double>(cg.edges.size()));
  std::vector<mrpf::graph::CoverSetView> sets;
  sets.reserve(cg.classes.size());
  for (const core::ColorClass& cls : cg.classes) {
    sets.push_back({cg.class_coverable.data() + cls.cov_begin,
                    cls.num_coverable(), static_cast<double>(cls.cost),
                    cls.color});
  }
  mrpf::graph::SetCoverResult cover;
  {
    const Scope span(t, t.name_id("core.set_cover"), id);
    cover = mrpf::graph::greedy_weighted_set_cover(
        static_cast<int>(mrp.vertices.size()), sets,
        mrpf::graph::paper_benefit(eff.beta));
  }
  t.count("core.set_cover_sets", static_cast<double>(sets.size()));
  std::vector<i64> colors;
  for (const int si : cover.chosen) {
    colors.push_back(cg.classes[static_cast<std::size_t>(si)].color);
  }
  return colors == mrp.solution_colors;
}

struct Execution {
  int job = 0;
  int pass = 0;
  double ns = 0.0;       // calibrated (see Calibration)
  double wall_ns = 0.0;
  std::uint64_t out_digest = 0;
  std::uint64_t coeff_digest = 0;
};

std::uint64_t digest_of(const std::vector<i64>& v) {
  Digest d;
  d.ints(v);
  return d.value();
}

struct Phase {
  std::vector<Execution> runs;
  std::vector<double> pass_jobs_per_s;       // over calibrated job times
  std::vector<double> pass_wall_jobs_per_s;  // over the pass's wall time
  std::vector<int> adders;  // per job, from its first execution
  std::int64_t exceptions = 0;
  std::vector<JobOutput> first;  // per job: coefficients and alignment
  double elapsed_s = 0.0;
  std::string calibration;  // describe() of the phase's calibration
};

/// Runs whole passes over the job list until `seconds` have elapsed.
Phase run_phase(const Inputs& in, int seconds, Tracer* tracer, Result& r) {
  Phase ph;
  ph.adders.assign(in.jobs.size(), -1);
  ph.first.resize(in.jobs.size());
  const auto start = Clock::now();
  std::int64_t next_id = 0;
  bool first_pass = true;
  Calibration cal;
  while (ns_between(start, Clock::now()) < seconds * 1e9 || first_pass) {
    rotate_cpu(static_cast<int>(ph.pass_jobs_per_s.size()));
    const auto pass_start = Clock::now();
    double pass_ns = 0.0;  // calibrated time of the jobs that completed
    double done = 0.0;
    for (std::size_t j = 0; j < in.jobs.size(); ++j) {
      const Job& job = in.jobs[j];
      Execution e;
      e.job = static_cast<int>(j);
      e.pass = static_cast<int>(ph.pass_jobs_per_s.size());
      JobOutput o;
      std::optional<core::SynthPlan> plan;
      core::MrpOptions eff;
      const std::int64_t id = next_id++;
      try {
        const auto t0 = Clock::now();
        o = tracer != nullptr ? run_job_traced(in, job, id, *tracer, plan, eff)
                              : run_job(in, job);
        e.wall_ns = ns_between(t0, Clock::now());
      } catch (const std::exception& ex) {
        ++ph.exceptions;
        r.fail("job " + in.specs[static_cast<std::size_t>(job.spec)].label +
               "/" + mrpf::core::to_string(job.scheme) + ": " + ex.what());
        continue;
      }
      e.ns = e.wall_ns * cal.next();
      pass_ns += e.ns;
      ++done;
      e.out_digest = digest_of(o.y);
      e.coeff_digest = digest_of(o.coefficients);
      ph.runs.push_back(e);
      if (!first_pass) continue;
      ph.adders[j] = o.adders;
      o.y.clear();
      ph.first[j] = std::move(o);
      if (tracer == nullptr || !plan.has_value()) continue;
      // Composition checks, outside every job span: the layer-by-layer
      // path must reproduce optimize_bank's plan, and a replayed stage A
      // must reproduce the plan's color choice.
      const std::vector<i64> bank =
          core::optimization_bank(ph.first[j].coefficients);
      const core::SchemeResult ref =
          core::optimize_bank(bank, job.scheme, solve_options(job.xform));
      if (const auto diff = core::plan_mismatch(ref.plan, *plan)) {
        r.fail("traced plan differs from optimize_bank: " + *diff);
      }
      if (plan->mrp.has_value() && !plan->mrp->vertices.empty() &&
          !replay_stage_a(*plan->mrp, eff, id, *tracer)) {
        r.fail("replayed set cover differs from the plan's solution colors");
      }
    }
    ph.pass_wall_jobs_per_s.push_back(
        done / (ns_between(pass_start, Clock::now()) * 1e-9));
    ph.pass_jobs_per_s.push_back(done > 0 ? done / (pass_ns * 1e-9) : 0.0);
    first_pass = false;
  }
  ph.elapsed_s = ns_between(start, Clock::now()) * 1e-9;
  ph.calibration = describe(cal);
  return ph;
}

/// Checks every execution against the exact reference, after timing.
void verify(const Inputs& in, const Phase& ph, Result& r) {
  std::vector<std::uint64_t> ref(in.jobs.size(), 0);
  std::vector<std::uint64_t> coeffs(in.jobs.size(), 0);
  for (std::size_t j = 0; j < in.jobs.size(); ++j) {
    const JobOutput& o = ph.first[j];
    if (o.coefficients.empty()) continue;  // the job threw on its first pass
    const SpecInput& s = in.specs[static_cast<std::size_t>(in.jobs[j].spec)];
    ref[j] = digest_of(s.kind == Kind::kFir
                           ? mrpf::dsp::fir_filter_exact(o.coefficients,
                                                         o.align, in.stream)
                           : filter::decimate_exact(o.coefficients, s.factor,
                                                    in.stream));
    coeffs[j] = digest_of(o.coefficients);
  }
  for (const Execution& e : ph.runs) {
    const std::size_t j = static_cast<std::size_t>(e.job);
    if (e.out_digest != ref[j] || e.coeff_digest != coeffs[j]) {
      r.fail("job " +
             in.specs[static_cast<std::size_t>(in.jobs[j].spec)].label + "/" +
             core::to_string(in.jobs[j].scheme) +
             (in.jobs[j].xform ? "+xform" : "") +
             ": output differs from the exact reference");
    }
  }
}

/// Every time is calibrated; the wall-clock p50 and pass rate are for the
/// report.
struct Figures {
  double p50_ms = 0.0;
  double wall_p50_ms = 0.0;
  Tail tail;            // over the whole run
  double tail_ms = 0.0;  // median over passes of each pass's tail
  double pass_percentile = 0.0;
  double jobs_per_s = 0.0;
  double wall_jobs_per_s = 0.0;
  double adders = 0.0;
};

Figures figures_of(const Phase& ph) {
  Figures f;
  std::vector<double> ms, wall_ms;
  std::vector<std::vector<double>> passes(ph.pass_jobs_per_s.size());
  ms.reserve(ph.runs.size());
  for (const Execution& e : ph.runs) {
    ms.push_back(e.ns * 1e-6);
    wall_ms.push_back(e.wall_ns * 1e-6);
    passes[static_cast<std::size_t>(e.pass)].push_back(e.ns * 1e-6);
  }
  f.p50_ms = median(ms);
  f.wall_p50_ms = median(wall_ms);
  f.tail = tail_of(ms);
  std::vector<double> tails;
  for (const auto& p : passes) {
    const Tail t = tail_of(p);
    tails.push_back(t.value);
    f.pass_percentile = t.percentile;
  }
  f.tail_ms = median(tails);
  f.jobs_per_s = median(ph.pass_jobs_per_s);
  f.wall_jobs_per_s = median(ph.pass_wall_jobs_per_s);
  for (const int a : ph.adders) f.adders += std::max(a, 0);
  return f;
}

double mean_ms(const Tracer& t, const std::string& name) {
  const Tracer::Total tot = t.total(name);
  return tot.calls == 0 ? 0.0 : tot.ns * 1e-6 / static_cast<double>(tot.calls);
}

double per_call(const Tracer& t, const std::string& count,
                const std::string& span) {
  const std::size_t calls = t.total(span).calls;
  return calls == 0 ? 0.0 : t.counted(count) / static_cast<double>(calls);
}

}  // namespace

Result run_synth(const Args& args, Tracer& tracer) {
  Result r;
  std::unique_ptr<Inputs> in;
  // Set-up: the seeded inputs plus one untimed job per (scheme, pass) on
  // the first catalog spec, so lazily built tables exist before timing.
  const double setup_s = setup(args, in, [&] {
    auto fresh = std::make_unique<Inputs>(make_inputs(args.seed));
    for (const core::Scheme scheme : core::all_schemes()) {
      for (const bool x : {false, true}) run_job(*fresh, {0, scheme, x});
    }
    return fresh;
  });
  if (args.setup_only) return r;
  r.digest = in->digest;

  const Phase plain = run_phase(*in, args.seconds, nullptr, r);
  verify(*in, plain, r);
  const Figures f = figures_of(plain);
  r.attempted = static_cast<std::int64_t>(plain.runs.size()) + plain.exceptions;
  r.passes = static_cast<int>(plain.pass_jobs_per_s.size());

  r.line("synth: " + std::to_string(in->specs.size()) + " specs, " +
         std::to_string(in->jobs.size()) + " jobs per pass, " +
         std::to_string(r.passes) + " passes in " + fmt(plain.elapsed_s) + " s");
  r.line("times calibrated, " + plain.calibration);
  r.line("synth_p50_ms = " + fmt(f.p50_ms) + " ms (wall clock: " + fmt(f.wall_p50_ms) +
         " ms)");
  r.line("synth_tail_ms = " + fmt(f.tail_ms) + " ms (median over passes of each pass's p" +
         fmt(f.pass_percentile) + "; whole-run p" + fmt(f.tail.percentile) + " = " +
         fmt(f.tail.value) + " ms, n = " + std::to_string(f.tail.n) + ")");
  r.line("synth_jobs_per_s = " + fmt(f.jobs_per_s) +
         " 1/s (median over passes of jobs over their summed times; wall clock: " +
         fmt(f.wall_jobs_per_s) + " 1/s)");
  r.line("adders_total = " + fmt(f.adders) + " count");
  r.line("setup_s = " + fmt(setup_s) + " s");

  if (!tracer.on()) {
    r.metrics["setup_s"] = setup_s;
    r.metrics["adders_total"] = f.adders;
    r.metrics["p50_ms"] = f.p50_ms;
    r.metrics["throughput_per_s"] = f.jobs_per_s;
    return r;
  }

  const Phase traced = run_phase(*in, args.seconds, &tracer, r);
  verify(*in, traced, r);
  r.attempted += static_cast<std::int64_t>(traced.runs.size()) + traced.exceptions;
  const Figures ft = figures_of(traced);
  auto& m = r.metrics;
  m["trace.overhead_ratio"] = ft.p50_ms / f.p50_ms;
  m["filter.design_ms"] = mean_ms(tracer, "filter.design");
  m["number.quantize_ms"] = mean_ms(tracer, "number.quantize");
  for (const core::Scheme s : core::all_schemes()) {
    const std::string span = "core.optimize." + metric_scheme(s);
    m["core.optimize_ms." + metric_scheme(s)] = mean_ms(tracer, span);
    m["core.optimize_calls." + metric_scheme(s)] =
        static_cast<double>(tracer.total(span).calls);
  }
  m["core.color_graph_ms"] = mean_ms(tracer, "core.color_graph");
  m["core.color_graph_edges"] =
      per_call(tracer, "core.color_graph_edges", "core.color_graph");
  m["core.set_cover_ms"] = mean_ms(tracer, "core.set_cover");
  m["core.set_cover_sets"] =
      per_call(tracer, "core.set_cover_sets", "core.set_cover");
  m["xform.pass_ms"] = mean_ms(tracer, "xform.pass");
  const double runs = tracer.counted("xform.runs");
  m["xform.win_ratio"] = runs > 0 ? tracer.counted("xform.wins") / runs : 0.0;
  // Adders saved per pass over the job list (each job runs once a pass).
  m["xform.adders_saved"] =
      tracer.counted("xform.adders_saved") /
      static_cast<double>(traced.pass_jobs_per_s.size());
  m["core.decim_build_ms"] = mean_ms(tracer, "core.decim_build");
  m["arch.lower_ms"] = mean_ms(tracer, "arch.lower");
  m["arch.plan_ops"] = per_call(tracer, "arch.plan_ops", "arch.lower");
  m["exec.compile_ms"] = mean_ms(tracer, "exec.compile");
  m["exec.fused_ops"] = per_call(tracer, "exec.fused_ops", "exec.compile");
  m["exec.verify_stream_ms"] = mean_ms(tracer, "exec.verify_stream");
  r.line("traced synth_p50_ms = " + fmt(ft.p50_ms) + " ms over " +
         std::to_string(traced.runs.size()) + " jobs (overhead ratio " +
         fmt(m["trace.overhead_ratio"]) + ")");
  return r;
}

}  // namespace perfbench
