// mrpf_synth — command-line filter synthesizer.
//
// Designs a linear-phase FIR from a spec, quantizes it, runs the chosen
// optimization scheme, verifies the architecture bit-exactly and emits a
// report and (optionally) Verilog.
//
//   mrpf_synth --band lp --edges 0.2,0.3 --taps 31 --wordlength 14
//              --scheme mrpf+cse --method pm [--maximal] [--beta 0.5]
//              [--depth 3] [--verilog out.v]
//
// Or optimize an explicit coefficient bank:
//
//   mrpf_synth --coeffs 7,66,17,9,27,41,57,11 --scheme mrpf
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "mrpf/arch/cost_model.hpp"
#include "mrpf/arch/verilog.hpp"
#include "mrpf/common/error.hpp"
#include "mrpf/common/rng.hpp"
#include "mrpf/core/flow.hpp"
#include "mrpf/core/polyphase_decimator.hpp"
#include "mrpf/core/report.hpp"
#include "mrpf/filter/polyphase.hpp"
#include "mrpf/exec/compile.hpp"
#include "mrpf/exec/streaming.hpp"
#include "mrpf/filter/design.hpp"
#include "mrpf/io/coeff_file.hpp"
#include "mrpf/io/json_report.hpp"
#include "mrpf/filter/measure.hpp"
#include "mrpf/number/quantize.hpp"
#include "mrpf/sim/equivalence.hpp"
#include "mrpf/sim/workload.hpp"

namespace {

using namespace mrpf;

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: mrpf_synth [options]\n"
               "  --band lp|hp|bp|bs          band type (default lp)\n"
               "  --method pm|ls|bw|kw        design method (default pm)\n"
               "  --edges f1,f2[,f3,f4]       normalized band edges\n"
               "  --taps N                    odd filter length\n"
               "  --ripple dB --atten dB      spec targets\n"
               "  --wordlength W              coefficient bits (default 14)\n"
               "  --maximal                   maximal (per-tap) scaling\n"
               "  --scheme NAME               see --list-schemes\n"
               "  --list-schemes              print scheme names and exit\n"
               "  --beta B --depth D          MRP options\n"
               "  --rep spt|sm                MRP number representation\n"
               "  --xform                     run the e-graph rewrite pass\n"
               "                              (MRPF_XFORM_BUDGET sizes it)\n"
               "  --xform-budget N            pass saturation budget\n"
               "                              (implies --xform)\n"
               "  --decimate M                synthesize a polyphase\n"
               "                              decimate-by-M structure\n"
               "  --shared-bank               share one multiplier block\n"
               "                              across the polyphase branches\n"
               "                              (requires --decimate)\n"
               "  --coeffs c0,c1,...          skip design, optimize bank\n"
               "  --coeffs-file FILE          read an integer bank from FILE\n"
               "  --cache FILE                persistent solve cache store\n"
               "  --json FILE                 write a JSON report to FILE\n"
               "  --verilog FILE              write Verilog to FILE\n"
               "  --input-bits N              data width (default 12)\n"
               "  --exec-bench                compile the plan for the exec\n"
               "                              engine and smoke-time it\n");
  std::exit(2);
}

std::vector<double> parse_doubles(const std::string& s) {
  std::vector<double> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
  return out;
}

std::vector<i64> parse_ints(const std::string& s) {
  std::vector<i64> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stoll(item));
  return out;
}

/// Reports the e-graph pass: one line for each outcome the xform_fallback
/// tag records (core/stage_timers.hpp), with the steps spent and the
/// saturate and extract times. A cache hit rehydrates the plan with the
/// timers of the solve that filled the entry, so the times are left out.
void print_xform_pass(const core::SynthPlan& plan, bool cache_hit) {
  const core::StageTimers& t = plan.timers;
  char times[80] = "cached";
  if (!cache_hit) {
    std::snprintf(times, sizeof times, "saturate %.3f ms, extract %.3f ms",
                  t.xform_saturate.ns * 1e-6, t.xform_extract.ns * 1e-6);
  }
  if (plan.xform.has_value()) {
    std::printf("xform pass  : %d -> %d adders (%lld steps%s; %s)\n",
                plan.xform->original_adders, plan.analytic_adders,
                plan.xform->steps, plan.xform->saturated ? ", saturated" : "",
                times);
    return;
  }
  const char* outcome = nullptr;
  switch (t.xform_fallback.items) {
    case 1: outcome = "no win at the fixpoint"; break;
    case 2: outcome = "budget exhausted"; break;
    case 3: outcome = "rewrite failed to build or re-lower"; break;
    default:
      std::printf("xform pass  : did not run\n");
      return;
  }
  std::printf("xform pass  : kept %d adders, %s (%llu steps; %s)\n",
              plan.analytic_adders, outcome,
              static_cast<unsigned long long>(t.xform_saturate.items), times);
}

}  // namespace

int main(int argc, char** argv) {
  filter::FilterSpec spec;
  spec.name = "cli";
  spec.num_taps = 31;
  spec.edges = {0.2, 0.3};
  int wordlength = 14;
  int input_bits = 12;
  bool maximal = false;
  core::Scheme scheme = core::Scheme::kMrpCse;
  core::MrpOptions mrp_opts;
  std::optional<std::vector<i64>> explicit_coeffs;
  std::string verilog_path;
  std::string json_path;
  bool exec_bench = false;
  int decimate_factor = 0;
  bool shared_bank = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--band") {
      const std::string b = value();
      if (b == "lp") spec.band = filter::BandType::kLowPass;
      else if (b == "hp") spec.band = filter::BandType::kHighPass;
      else if (b == "bp") spec.band = filter::BandType::kBandPass;
      else if (b == "bs") spec.band = filter::BandType::kBandStop;
      else usage("unknown band");
    } else if (arg == "--method") {
      const std::string m = value();
      if (m == "pm") spec.method = filter::DesignMethod::kParksMcClellan;
      else if (m == "ls") spec.method = filter::DesignMethod::kLeastSquares;
      else if (m == "bw") spec.method = filter::DesignMethod::kButterworthFir;
      else if (m == "kw") spec.method = filter::DesignMethod::kKaiserWindow;
      else usage("unknown method");
    } else if (arg == "--edges") {
      spec.edges = parse_doubles(value());
    } else if (arg == "--taps") {
      spec.num_taps = std::atoi(value().c_str());
    } else if (arg == "--ripple") {
      spec.passband_ripple_db = std::atof(value().c_str());
    } else if (arg == "--atten") {
      spec.stopband_atten_db = std::atof(value().c_str());
    } else if (arg == "--wordlength") {
      wordlength = std::atoi(value().c_str());
    } else if (arg == "--input-bits") {
      input_bits = std::atoi(value().c_str());
    } else if (arg == "--maximal") {
      maximal = true;
    } else if (arg == "--scheme") {
      const std::string name = value();
      const std::optional<core::Scheme> parsed = core::parse_scheme(name);
      if (!parsed.has_value()) usage("unknown scheme (try --list-schemes)");
      scheme = *parsed;
    } else if (arg == "--list-schemes") {
      for (const core::Scheme s : core::all_schemes()) {
        std::printf("%s\n", core::to_string(s).c_str());
      }
      return 0;
    } else if (arg == "--beta") {
      mrp_opts.beta = std::atof(value().c_str());
    } else if (arg == "--depth") {
      mrp_opts.depth_limit = std::atoi(value().c_str());
    } else if (arg == "--rep") {
      const std::string r = value();
      if (r == "spt") mrp_opts.rep = number::NumberRep::kSpt;
      else if (r == "sm") mrp_opts.rep = number::NumberRep::kSignMagnitude;
      else usage("unknown representation");
    } else if (arg == "--xform") {
      mrp_opts.passes.xform = true;
    } else if (arg == "--xform-budget") {
      mrp_opts.passes.xform = true;
      mrp_opts.passes.xform_budget = std::atoll(value().c_str());
    } else if (arg == "--decimate") {
      decimate_factor = std::atoi(value().c_str());
      if (decimate_factor < 1) usage("--decimate needs a factor >= 1");
    } else if (arg == "--shared-bank") {
      shared_bank = true;
    } else if (arg == "--coeffs") {
      explicit_coeffs = parse_ints(value());
    } else if (arg == "--coeffs-file") {
      explicit_coeffs = io::read_integer_coefficients(value());
    } else if (arg == "--cache") {
      mrp_opts.cache_path = value();
    } else if (arg == "--json") {
      json_path = value();
    } else if (arg == "--verilog") {
      verilog_path = value();
    } else if (arg == "--exec-bench") {
      exec_bench = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(nullptr);
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (shared_bank && decimate_factor == 0) {
    usage("--shared-bank requires --decimate");
  }

  try {
    std::vector<i64> coefficients;
    std::vector<int> align;
    if (explicit_coeffs.has_value()) {
      coefficients = *explicit_coeffs;
      std::printf("Optimizing explicit %zu-coefficient bank\n",
                  coefficients.size());
    } else {
      const std::vector<double> h = filter::design(spec);
      const filter::Measurement m = filter::measure(h, spec);
      std::printf("Designed %d-tap %s %s: ripple %.3f dB, atten %.1f dB\n",
                  spec.num_taps, filter::to_string(spec.method).c_str(),
                  filter::to_string(spec.band).c_str(),
                  m.passband_ripple_db, m.stopband_atten_db);
      const number::QuantizedCoefficients q =
          maximal ? number::quantize_maximal(h, wordlength)
                  : number::quantize_uniform(h, wordlength);
      std::printf("Quantized to %d bits (%s), max error %.3e\n", wordlength,
                  maximal ? "maximal" : "uniform", q.max_abs_error(h));
      coefficients = q.values();
      align = core::alignment_of(q);
    }

    if (decimate_factor > 0) {
      // Multirate flow: synthesize the polyphase structure in both bank
      // modes so the report shows what sharing buys, then verify the
      // requested one bit-exactly against the reference decimator.
      const core::PolyphaseDecimator per_branch(
          coefficients, decimate_factor, scheme, mrp_opts,
          core::BankSharing::kPerBranch);
      const core::PolyphaseDecimator shared(
          coefficients, decimate_factor, scheme, mrp_opts,
          core::BankSharing::kShared);
      std::printf(
          "polyphase M=%d: per-branch %d adders, shared bank %d adders "
          "(synthesizing %s)\n",
          decimate_factor, per_branch.analytic_adders(),
          shared.analytic_adders(),
          shared_bank ? "shared" : "per-branch");
      const core::PolyphaseDecimator& dec = shared_bank ? shared : per_branch;
      Rng rng(0xDEC1);
      std::vector<i64> x;
      const i64 range = (i64{1} << (input_bits - 1)) - 1;
      for (int n = 0; n < 4096; ++n) x.push_back(rng.next_int(-range, range));
      const bool same =
          dec.run(x) == filter::decimate_exact(coefficients,
                                               decimate_factor, x);
      std::printf("verification: decimator %s over %zu samples\n",
                  same ? "bit-exact" : "MISMATCH", x.size());
      return same ? 0 : 1;
    }

    const std::vector<i64> bank = core::optimization_bank(coefficients);
    core::SolveInfo solve_info;
    const core::SchemeResult opt =
        core::optimize_bank(bank, scheme, mrp_opts, &solve_info);
    std::printf("%s\n", core::describe(opt, input_bits).c_str());
    if (mrp_opts.passes.xform) {
      print_xform_pass(opt.plan, solve_info.cache_hit);
    }
    if (opt.plan.mrp.has_value()) {
      std::fputs(core::describe(*opt.plan.mrp).c_str(), stdout);
    }
    if (!json_path.empty()) {
      std::ofstream json_out(json_path);
      if (!json_out) {
        std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
        return 1;
      }
      json_out << io::to_json(opt, input_bits) << "\n";
      std::printf("wrote JSON report to %s\n", json_path.c_str());
    }

    const arch::TdfFilter tdf =
        core::build_tdf(coefficients, align, scheme, mrp_opts);
    const sim::EquivalenceReport eq =
        sim::check_equivalence_suite(tdf, input_bits);
    std::printf("verification: %s\n", eq.to_string().c_str());
    if (!eq.equivalent) return 1;

    if (exec_bench) {
      const exec::ExecProgram program = exec::compile(tdf);
      const int bits = std::min(input_bits, program.max_input_bits);
      Rng rng(0x5EED);
      const std::vector<i64> x = sim::uniform_stream(rng, 1u << 14, bits);
      const auto wall_ns = [](auto&& fn) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        return static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
      };
      std::vector<i64> expect;
      const double interp_ns = wall_ns([&] { expect = tdf.run(x); });
      // Streaming path so the MRPF_EXEC knob (mode / lane pin) is honored.
      exec::ExecConfig config = exec::exec_config_from_env();
      config.input_bits = bits;
      exec::StreamingFilter sf(tdf, config);
      std::vector<i64> y;
      const double compiled_ns = wall_ns([&] { y = sf.push(x); });
      const bool same = y == expect;
      std::printf(
          "exec bench  : %d->%zu ops, %d slots, %s x%d, %d-bit vectors, "
          "B<=%d | %zu samples: interp %.0f ns, compiled %.0f ns (%.2fx) | "
          "%s\n",
          program.source_ops, program.ops.size(), program.n_slots,
          exec::to_string(sf.mode()), sf.lanes(), sf.vector_bits(),
          program.max_input_bits,
          x.size(), interp_ns, compiled_ns, interp_ns / compiled_ns,
          same ? "bit-identical" : "MISMATCH");
      if (!same) return 1;
    }

    if (!verilog_path.empty()) {
      std::ofstream out(verilog_path);
      if (!out) {
        std::fprintf(stderr, "cannot open %s\n", verilog_path.c_str());
        return 1;
      }
      out << arch::emit_tdf_filter(tdf, input_bits, "mrpf_synth_filter");
      std::printf("wrote Verilog to %s\n", verilog_path.c_str());
    }
  } catch (const mrpf::Error& e) {
    std::fprintf(stderr, "mrpf error: %s\n", e.what());
    return 1;
  }
  return 0;
}
