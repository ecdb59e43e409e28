// The repository benchmark: one seeded workload per invocation.
//
//   perfbench --workload synth|stream|serve --seed N --seconds S --trace 0|1
//
// With --setup-only 1 it runs the workload's set-up once, prints when it
// ended and exits; the untraced run starts itself that way a few times to
// time set-up from process start (see fresh_setup_times).
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1
// first repeats that untraced phase, then runs the same phase again with
// spans around every call into a layer, reports the per-layer metrics and
// the tracing overhead, and writes the spans to <out-dir>/trace-*.jsonl.
// The last line of standard output is the result object.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <string>

#include "bench.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload reports each of these; see perfbench/README.md for what
// each one means on each workload.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"},         {"adders_total", "count"},
    {"p50_ms", "ms"},  {"throughput_per_s", "1/s"},
};

// Layers a workload never calls report 0.
constexpr MetricDef kPerLayer[] = {
    {"filter.design_ms", "ms"},
    {"number.quantize_ms", "ms"},
    {"core.optimize_ms.simple", "ms"},
    {"core.optimize_ms.cse", "ms"},
    {"core.optimize_ms.diff-mst", "ms"},
    {"core.optimize_ms.rag-n", "ms"},
    {"core.optimize_ms.mrpf", "ms"},
    {"core.optimize_ms.mrpf-cse", "ms"},
    {"core.optimize_ms.bnb", "ms"},
    {"core.optimize_calls.simple", "count"},
    {"core.optimize_calls.cse", "count"},
    {"core.optimize_calls.diff-mst", "count"},
    {"core.optimize_calls.rag-n", "count"},
    {"core.optimize_calls.mrpf", "count"},
    {"core.optimize_calls.mrpf-cse", "count"},
    {"core.optimize_calls.bnb", "count"},
    {"core.color_graph_ms", "ms"},
    {"core.color_graph_edges", "count"},
    {"core.set_cover_ms", "ms"},
    {"core.set_cover_sets", "count"},
    {"xform.pass_ms", "ms"},
    {"xform.win_ratio", "ratio"},
    {"xform.adders_saved", "count"},
    {"core.decim_build_ms", "ms"},
    {"arch.lower_ms", "ms"},
    {"arch.plan_ops", "count"},
    {"exec.compile_ms", "ms"},
    {"exec.fused_ops", "count"},
    {"exec.verify_stream_ms", "ms"},
    {"exec.run_ns_per_sample", "ns"},
    {"exec.push_ns", "ns"},
    {"exec.ops_per_sample", "count"},
    {"exec.vector_ratio", "ratio"},
    {"core.decim_ns_per_sample", "ns"},
    {"arch.interp_ns_per_sample", "ns"},
    {"dsp.naive_ns_per_sample", "ns"},
    {"exec.speedup_vs_naive", "x"},
    {"serve.connect_us", "us"},
    {"io.encode_us", "us"},
    {"io.decode_us", "us"},
    {"io.reply_bytes", "B"},
    {"cache.probe_us", "us"},
    {"io.serialize_us", "us"},
    {"serve.server_p50_us", "us"},
    {"serve.server_p99_us", "us"},
    {"serve.queue_high_water", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.coalesced", "count"},
    {"serve.fresh_solves", "count"},
    {"serve.gen_late_us", "us"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans", "count"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload synth|stream|serve --seed N "
               "--seconds S --trace 0|1 [--source-id ID] [--out-dir DIR]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string v = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = v;
      } else if (key == "--seed") {
        a.seed = std::stoull(v);
      } else if (key == "--seconds") {
        a.seconds = std::stoi(v);
      } else if (key == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else if (key == "--source-id") {
        a.source_id = v;
      } else if (key == "--out-dir") {
        a.out_dir = v;
      } else if (key == "--setup-only") {
        a.setup_only = std::stoi(v) != 0;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + v);
    }
  }
  if (a.workload != "synth" && a.workload != "stream" && a.workload != "serve") {
    usage("unknown workload '" + a.workload + "'");
  }
  if (a.seconds < 1) usage("--seconds must be at least 1");
  return a;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// MRPF_* variables present in the environment, as a JSON object. The
/// benchmark pins every knob in code, so they are recorded, not obeyed.
std::string mrpf_env_json(std::string& names) {
  std::string out = "{";
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("MRPF_", 0) != 0) continue;
    const auto eq = kv.find('=');
    if (out.size() > 1) out += ",";
    out += quoted(kv.substr(0, eq)) + ":" + quoted(kv.substr(eq + 1));
    names += (names.empty() ? "" : " ") + kv.substr(0, eq);
  }
  return out + "}";
}

std::string provenance(const Args& a, const Result& r, const std::string& env) {
  return std::string("{\"provenance\":{") +
         "\"workload\":" + quoted(a.workload) +
         ",\"seed\":" + std::to_string(a.seed) +
         ",\"seconds\":" + std::to_string(a.seconds) +
         ",\"trace\":" + (a.trace ? "1" : "0") +
         ",\"passes\":" + std::to_string(r.passes) +
         ",\"inputs_digest\":" + quoted(r.digest) +
         ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"cpu_model\":" + quoted(cpu_model()) +
         ",\"compiler\":" + quoted(PERFBENCH_COMPILER) +
         ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE) +
         ",\"cxx_flags\":" + quoted(PERFBENCH_CXX_FLAGS) +
         ",\"source\":" + quoted(a.source_id) + ",\"mrpf_env\":" + env + "}}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  std::string env_names;
  const std::string env = mrpf_env_json(env_names);
  if (!env_names.empty()) {
    std::cout << "note: ignoring " << env_names
              << " (every knob is pinned in code)\n";
  }

  Tracer tracer(args.trace);
  Result r;
  try {
    if (args.workload == "synth") {
      r = run_synth(args, tracer);
    } else if (args.workload == "stream") {
      r = run_stream(args, tracer);
    } else {
      r = run_serve(args, tracer);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  if (args.setup_only) return 0;  // the parent only wanted the set-up time
  if (args.trace) {
    r.metrics["trace.spans"] = static_cast<double>(tracer.spans());
  } else {
    r.metrics["peak_rss_mb"] = peak_rss_mb();
  }

  const std::string header = provenance(args, r, env);
  if (args.trace) {
    const std::string path = (args.out_dir.empty() ? std::string(".") : args.out_dir) +
                             "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    tracer.write(path, header);
    std::cout << "spans written to " << path << "\n";
  }
  for (const std::string& line : r.report) std::cout << line << "\n";
  for (const std::string& e : r.errors) std::cout << "FAILED: " << e << "\n";
  std::cout << header << "\n";

  // The result line: exactly the metrics of this mode, in the fixed order.
  const MetricDef* defs = args.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricDef* defs_end = args.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  std::set<std::string> listed;
  std::string metrics;
  for (const MetricDef* d = defs; d != defs_end; ++d) {
    listed.insert(d->name);
    const auto it = r.metrics.find(d->name);
    if (it == r.metrics.end() && !args.trace) {
      std::cerr << "perfbench: end-to-end metric " << d->name << " missing\n";
      return 1;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += quoted(d->name) + ": {\"value\": " +
               fmt(it == r.metrics.end() ? 0.0 : it->second) +
               ", \"unit\": " + quoted(d->unit) + "}";
  }
  for (const auto& kv : r.metrics) {
    if (listed.count(kv.first) == 0) {
      std::cerr << "perfbench: metric " << kv.first << " is not listed\n";
      return 1;
    }
  }
  std::cout << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": {" << metrics << "}}" << std::endl;
  return 0;
}
