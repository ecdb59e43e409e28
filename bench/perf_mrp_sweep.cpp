// Perf trajectory bench for the MRP engine. Times the three stage-A
// kernels (color-graph build, greedy set cover, tree construction) and
// end-to-end batch throughput on the full catalog (W=16, maximally
// scaled, SPT — the Table-1/Fig-7 workload), comparing the optimized
// engine against the in-tree reference kernels (the seed implementation:
// std::map color graph, full-rescan set cover and root selection), a
// parallel batch against the serial one, and the intra-solve pooled path
// (opts.pool) against the unpooled one. The color-graph and set-cover rows
// time the whole graph (build_color_graph) and a cover over all of its
// classes; the solver itself builds only the classes that can be picked
// (build_cover_instance), which the end-to-end rows and the per-solve
// timers include. Writes BENCH_mrp.json — including
// the per-stage wall/items breakdown of every solve from MrpResult::timers
// — so the perf trajectory is machine-readable PR-over-PR, and verifies
// that serial, parallel, pooled and reference solves are bit-identical.
//
// `--ci` runs a reduced-catalog smoke: fewer filters and reps, output to
// BENCH_mrp_ci.json, and a hard gate on bit-identity plus (on hosts with
// >= 2 hardware threads) on parallel-vs-serial speedup >= 1.0, read from
// alternating medians (see alternating_medians_ns).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "mrpf/cache/persist.hpp"
#include "mrpf/cache/solve_cache.hpp"
#include "mrpf/common/parallel.hpp"
#include "mrpf/core/color_graph.hpp"
#include "mrpf/core/mrp.hpp"
#include "mrpf/core/sidc.hpp"
#include "mrpf/graph/set_cover.hpp"

namespace {

using namespace mrpf;
using Clock = std::chrono::steady_clock;

constexpr int kWordlength = 16;
int g_reps = 5;  // --ci lowers this

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Best-of-g_reps wall time of fn() in nanoseconds.
template <typename Fn>
double time_ns(Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < g_reps; ++rep) {
    const double t0 = now_ns();
    fn();
    const double t1 = now_ns();
    if (rep == 0 || t1 - t0 < best) best = t1 - t0;
  }
  return best;
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

bool same_result(const core::MrpResult& a, const core::MrpResult& b) {
  if (a.bank.primaries != b.bank.primaries ||
      a.bank.refs.size() != b.bank.refs.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.bank.refs.size(); ++i) {
    const core::PrimaryBank::Ref& x = a.bank.refs[i];
    const core::PrimaryBank::Ref& y = b.bank.refs[i];
    if (x.vertex != y.vertex || x.shift != y.shift || x.negate != y.negate) {
      return false;
    }
  }
  if (a.vertices != b.vertices || a.solution_colors != b.solution_colors ||
      a.roots != b.roots || a.root_is_free != b.root_is_free ||
      a.vertex_depth != b.vertex_depth || a.tree_height != b.tree_height ||
      a.seed_values != b.seed_values || a.seed_adders != b.seed_adders ||
      a.overhead_adders != b.overhead_adders ||
      a.tree_edges.size() != b.tree_edges.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.tree_edges.size(); ++i) {
    const core::TreeEdge& x = a.tree_edges[i];
    const core::TreeEdge& y = b.tree_edges[i];
    if (x.depth != y.depth || x.edge.from != y.edge.from ||
        x.edge.to != y.edge.to || x.edge.l != y.edge.l ||
        x.edge.pred_negate != y.edge.pred_negate || x.edge.xi != y.edge.xi ||
        x.edge.color != y.edge.color ||
        x.edge.color_shift != y.edge.color_shift ||
        x.edge.color_negate != y.edge.color_negate) {
      return false;
    }
  }
  return true;
}

bool all_same(const std::vector<core::MrpResult>& a,
              const std::vector<core::MrpResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_result(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool ci_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--ci") ci_mode = true;
  }
  const int catalog =
      ci_mode ? std::min(4, filter::catalog_size()) : filter::catalog_size();
  if (ci_mode) g_reps = 2;

  bench::print_header(
      ci_mode ? "MRP engine perf smoke (--ci) — reduced catalog, W=16, SPT"
              : "MRP engine perf sweep — full catalog, W=16, maximal "
                "scaling, SPT");

  core::MrpOptions opts;
  opts.rep = number::NumberRep::kSpt;
  core::MrpOptions ref_opts = opts;
  ref_opts.use_reference_engine = true;

  std::vector<std::vector<i64>> banks;
  std::vector<std::vector<i64>> primaries;
  for (int i = 0; i < catalog; ++i) {
    banks.push_back(bench::folded_bank(i, kWordlength, /*maximal=*/true));
    primaries.push_back(core::extract_primaries(banks.back()).primaries);
  }
  const std::size_t solves = banks.size();

  // --- Stage: color-graph construction. ---
  const core::ColorGraphOptions cg_opts{-1, opts.rep};
  const double cg_flat_ns = time_ns([&] {
    for (const auto& p : primaries) {
      const core::ColorGraph g = core::build_color_graph(p, cg_opts);
      if (g.classes.empty() && !p.empty()) std::abort();
    }
  });
  const double cg_ref_ns = time_ns([&] {
    for (const auto& p : primaries) {
      const core::ColorGraph g = core::build_color_graph_reference(p, cg_opts);
      if (g.classes.empty() && !p.empty()) std::abort();
    }
  });

  // --- Stage: greedy weighted set cover over the real cover instances.
  // The lazy pass runs the production form (views borrowed from the color
  // graph's contiguous pools); the reference pass runs the seed form
  // (owning CoverSets, as the seed engine built them). Graphs are kept
  // alive to back the views.
  std::vector<core::ColorGraph> graphs;
  std::vector<int> cover_n;
  std::vector<std::vector<graph::CoverSetView>> cover_views;
  std::vector<std::vector<graph::CoverSet>> cover_sets;
  for (const auto& p : primaries) {
    graphs.push_back(core::build_color_graph(p, cg_opts));
    cover_n.push_back(static_cast<int>(p.size()));
  }
  for (const core::ColorGraph& g : graphs) {
    std::vector<graph::CoverSetView> views;
    std::vector<graph::CoverSet> sets;
    views.reserve(g.classes.size());
    sets.reserve(g.classes.size());
    for (const core::ColorClass& cls : g.classes) {
      const auto cov = g.coverable_ids(cls);
      views.push_back({cov.data(), cls.num_coverable(),
                       static_cast<double>(cls.cost), cls.color});
      sets.push_back({{cov.begin(), cov.end()}, static_cast<double>(cls.cost),
                      cls.color});
    }
    cover_views.push_back(std::move(views));
    cover_sets.push_back(std::move(sets));
  }
  const auto benefit = graph::paper_benefit(opts.beta);
  const double sc_lazy_ns = time_ns([&] {
    for (std::size_t i = 0; i < cover_views.size(); ++i) {
      const auto r =
          graph::greedy_weighted_set_cover(cover_n[i], cover_views[i], benefit);
      if (!r.complete && cover_n[i] > 0) std::abort();
    }
  });
  const double sc_ref_ns = time_ns([&] {
    for (std::size_t i = 0; i < cover_sets.size(); ++i) {
      const auto r = graph::greedy_weighted_set_cover_reference(
          cover_n[i], cover_sets[i], benefit);
      if (!r.complete && cover_n[i] > 0) std::abort();
    }
  });

  // --- End-to-end: serial, intra-solve pooled, parallel batch, reference.
  // The first three feed the parallel-scaling gate and its neighbours, so
  // they share one estimator: alternating medians (see above).
  std::vector<core::MrpResult> serial_results;
  const int threads = default_thread_count();
  // Solve-level serial, stage-level parallel: the same pool the batch
  // hands down, but with no outer fan-out competing for workers. This is
  // the critical-path view (one big solve at a time).
  ThreadPool intra_pool(threads);
  core::MrpOptions pooled_opts = opts;
  pooled_opts.pool = &intra_pool;
  std::vector<core::MrpResult> pooled_results;
  // Outer fan-out across solves + inner stage sharding on one pool.
  std::vector<core::MrpResult> parallel_results;
  const std::vector<double> e2e_ns = alternating_medians_ns({
      [&] {
        serial_results.clear();
        for (const auto& bank : banks) {
          serial_results.push_back(core::mrp_optimize(bank, opts));
        }
      },
      [&] {
        pooled_results.clear();
        for (const auto& bank : banks) {
          pooled_results.push_back(core::mrp_optimize(bank, pooled_opts));
        }
      },
      [&] { parallel_results = core::mrp_optimize_batch(banks, opts); },
  });
  const double e2e_serial_ns = e2e_ns[0];
  const double e2e_intra_ns = e2e_ns[1];
  const double e2e_parallel_ns = e2e_ns[2];
  const double e2e_ref_ns = time_ns([&] {
    for (const auto& bank : banks) {
      const core::MrpResult r = core::mrp_optimize(bank, ref_opts);
      if (r.total_adders() <= 0) std::abort();
    }
  });

  // --- Solve cache: a cold batch populates the cache, a warm batch must
  // be all hits; both must stay bit-identical to the uncached solves, and
  // the same must hold after a save/load round-trip through the persistent
  // store. Cold is one-shot (a second rep would be warm); warm gets the
  // usual best-of-reps.
  cache::SolveCache solve_cache;
  core::MrpOptions cached_opts = opts;
  cached_opts.cache = &solve_cache;
  std::vector<core::MrpResult> cache_cold_results;
  const double cache_cold_t0 = now_ns();
  cache_cold_results = core::mrp_optimize_batch(banks, cached_opts);
  const double cache_cold_ns = now_ns() - cache_cold_t0;
  const u64 misses_after_cold = solve_cache.stats().misses;
  std::vector<core::MrpResult> cache_warm_results;
  const double cache_warm_ns = time_ns([&] {
    cache_warm_results = core::mrp_optimize_batch(banks, cached_opts);
  });
  const cache::CacheStats cache_stats = solve_cache.stats();
  const bool warm_all_hits = cache_stats.misses == misses_after_cold;
  const double warm_speedup = cache_warm_ns > 0
                                  ? cache_cold_ns / cache_warm_ns
                                  : 0.0;

  const std::string store_path =
      ci_mode ? "BENCH_mrp_ci.cache.mrpc" : "BENCH_mrp.cache.mrpc";
  bool persist_ok = cache::save_solve_cache(solve_cache, store_path);
  cache::SolveCache reloaded;
  persist_ok = persist_ok && cache::load_solve_cache(reloaded, store_path);
  core::MrpOptions reloaded_opts = opts;
  reloaded_opts.cache = &reloaded;
  const std::vector<core::MrpResult> persisted_results =
      core::mrp_optimize_batch(banks, reloaded_opts);
  const bool persisted_all_hits = reloaded.stats().misses == 0;
  std::remove(store_path.c_str());

  // --- Bit-identical: serial vs pooled vs parallel vs reference engine.
  const bool identical = all_same(serial_results, parallel_results);
  const bool intra_identical = all_same(serial_results, pooled_results);
  const bool cache_identical = all_same(serial_results, cache_cold_results) &&
                               all_same(serial_results, cache_warm_results) &&
                               all_same(serial_results, persisted_results);
  bool ref_identical = true;
  for (std::size_t i = 0; ref_identical && i < banks.size(); ++i) {
    ref_identical =
        same_result(serial_results[i], core::mrp_optimize(banks[i], ref_opts));
  }

  // Aggregate the per-solve stage timers (from the last serial rep) into
  // a whole-catalog breakdown.
  core::StageTimers agg;
  for (const core::MrpResult& r : serial_results) {
    agg.primaries.ns += r.timers.primaries.ns;
    agg.primaries.items += r.timers.primaries.items;
    agg.color_graph.ns += r.timers.color_graph.ns;
    agg.color_graph.items += r.timers.color_graph.items;
    agg.set_cover.ns += r.timers.set_cover.ns;
    agg.set_cover.items += r.timers.set_cover.items;
    agg.tree_growth.ns += r.timers.tree_growth.ns;
    agg.tree_growth.items += r.timers.tree_growth.items;
    agg.seed_synthesis.ns += r.timers.seed_synthesis.ns;
    agg.seed_synthesis.items += r.timers.seed_synthesis.items;
    agg.total_ns += r.timers.total_ns;
  }

  const double cg_speedup = cg_ref_ns / cg_flat_ns;
  const double sc_speedup = sc_ref_ns / sc_lazy_ns;
  const double algo_speedup =
      (cg_ref_ns + sc_ref_ns) / (cg_flat_ns + sc_lazy_ns);
  const double e2e_speedup_vs_ref = e2e_ref_ns / e2e_parallel_ns;
  const double e2e_speedup_serial_vs_ref = e2e_ref_ns / e2e_serial_ns;
  const double thread_speedup = e2e_serial_ns / e2e_parallel_ns;
  const double intra_speedup = e2e_serial_ns / e2e_intra_ns;
  const double solves_per_sec = 1e9 * static_cast<double>(solves) /
                                e2e_parallel_ns;
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("solves: %zu banks (catalog, W=%d maximal), %u hardware "
              "thread%s\n",
              solves, kWordlength, hw, hw == 1 ? "" : "s");
  std::printf("color graph : flat %10.0f ns | reference %10.0f ns | %.2fx\n",
              cg_flat_ns, cg_ref_ns, cg_speedup);
  std::printf("set cover   : lazy %10.0f ns | reference %10.0f ns | %.2fx\n",
              sc_lazy_ns, sc_ref_ns, sc_speedup);
  std::printf(
      "solve stages: primaries %.0f | color graph %.0f | set cover %.0f | "
      "tree %.0f | seed %.0f ns (per-solve timers, serial)\n",
      agg.primaries.ns, agg.color_graph.ns, agg.set_cover.ns,
      agg.tree_growth.ns, agg.seed_synthesis.ns);
  std::printf(
      "end-to-end  : serial %10.0f ns | intra(%d) %10.0f ns | "
      "parallel(%d) %10.0f ns | reference %10.0f ns\n",
      e2e_serial_ns, threads, e2e_intra_ns, threads, e2e_parallel_ns,
      e2e_ref_ns);
  std::printf("throughput  : %.1f solves/sec, %.2fx vs reference engine "
              "(%.2fx serial-only), %.2fx batch scaling, %.2fx intra-solve\n",
              solves_per_sec, e2e_speedup_vs_ref, e2e_speedup_serial_vs_ref,
              thread_speedup, intra_speedup);
  std::printf("identical   : serial==parallel %s, serial==intra %s, "
              "new==reference %s, cached==fresh %s\n",
              identical ? "yes" : "NO", intra_identical ? "yes" : "NO",
              ref_identical ? "yes" : "NO", cache_identical ? "yes" : "NO");
  std::printf(
      "solve cache : cold %10.0f ns | warm %10.0f ns | %.2fx warm speedup | "
      "%llu hits / %llu misses / %llu entries (%.1f KiB) | warm all-hits %s "
      "| persisted round-trip %s\n",
      cache_cold_ns, cache_warm_ns, warm_speedup,
      static_cast<unsigned long long>(cache_stats.hits),
      static_cast<unsigned long long>(cache_stats.misses),
      static_cast<unsigned long long>(cache_stats.entries),
      static_cast<double>(cache_stats.bytes) / 1024.0,
      warm_all_hits ? "yes" : "NO",
      persist_ok && persisted_all_hits ? "yes" : "NO");
  std::printf("targets     : cg+cover algorithmic %.2fx (>=1.5 wanted), "
              "end-to-end %.2fx (>=3 wanted)\n",
              algo_speedup, e2e_speedup_vs_ref);

  const char* json_name = ci_mode ? "BENCH_mrp_ci.json" : "BENCH_mrp.json";
  FILE* out = std::fopen(json_name, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_name);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"perf_mrp_sweep\",\n"
               "  \"workload\": {\"catalog_filters\": %d, \"wordlength\": %d,"
               " \"scaling\": \"maximal\", \"rep\": \"spt\", \"solves\": %zu},\n"
               "  \"threads\": %d,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"ci_mode\": %s,\n"
               "  \"stages\": {\n"
               "    \"color_graph\": {\"flat_ns\": %.0f, \"reference_ns\": "
               "%.0f, \"speedup\": %.3f},\n"
               "    \"set_cover\": {\"lazy_ns\": %.0f, \"reference_ns\": "
               "%.0f, \"speedup\": %.3f}\n"
               "  },\n",
               catalog, kWordlength, solves, threads, hw,
               ci_mode ? "true" : "false", cg_flat_ns, cg_ref_ns, cg_speedup,
               sc_lazy_ns, sc_ref_ns, sc_speedup);
  // Per-solve stage breakdown from MrpResult::timers (serial run): each
  // stage is [wall_ns, item_count].
  std::fprintf(out, "  \"per_solve\": [\n");
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    const core::StageTimers& t = serial_results[i].timers;
    std::fprintf(
        out,
        "    {\"solve\": %zu, \"primaries\": [%.0f, %llu], "
        "\"color_graph\": [%.0f, %llu], \"set_cover\": [%.0f, %llu], "
        "\"tree_growth\": [%.0f, %llu], \"seed_synthesis\": [%.0f, %llu], "
        "\"total_ns\": %.0f}%s\n",
        i, t.primaries.ns,
        static_cast<unsigned long long>(t.primaries.items), t.color_graph.ns,
        static_cast<unsigned long long>(t.color_graph.items), t.set_cover.ns,
        static_cast<unsigned long long>(t.set_cover.items), t.tree_growth.ns,
        static_cast<unsigned long long>(t.tree_growth.items),
        t.seed_synthesis.ns,
        static_cast<unsigned long long>(t.seed_synthesis.items), t.total_ns,
        i + 1 < serial_results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(
      out,
      "  \"cache\": {\n"
      "    \"hits\": %llu,\n"
      "    \"misses\": %llu,\n"
      "    \"inserts\": %llu,\n"
      "    \"evictions\": %llu,\n"
      "    \"entries\": %llu,\n"
      "    \"bytes\": %llu,\n"
      "    \"lookup_ns\": %.0f,\n"
      "    \"insert_ns\": %.0f,\n"
      "    \"cold_ns\": %.0f,\n"
      "    \"warm_ns\": %.0f,\n"
      "    \"warm_speedup\": %.3f,\n"
      "    \"second_pass_hit_rate\": %.3f,\n"
      "    \"persist_round_trip\": %s,\n"
      "    \"bit_identical_cached_fresh\": %s\n"
      "  },\n",
      static_cast<unsigned long long>(cache_stats.hits),
      static_cast<unsigned long long>(cache_stats.misses),
      static_cast<unsigned long long>(cache_stats.inserts),
      static_cast<unsigned long long>(cache_stats.evictions),
      static_cast<unsigned long long>(cache_stats.entries),
      static_cast<unsigned long long>(cache_stats.bytes),
      cache_stats.lookup_ns, cache_stats.insert_ns, cache_cold_ns,
      cache_warm_ns, warm_speedup, warm_all_hits ? 1.0 : 0.0,
      persist_ok && persisted_all_hits ? "true" : "false",
      cache_identical ? "true" : "false");
  std::fprintf(out,
               "  \"end_to_end\": {\n"
               "    \"serial_ns\": %.0f,\n"
               "    \"intra_solve_parallel_ns\": %.0f,\n"
               "    \"parallel_ns\": %.0f,\n"
               "    \"reference_serial_ns\": %.0f,\n"
               "    \"solves_per_sec\": %.1f,\n"
               "    \"speedup_parallel_vs_serial\": %.3f,\n"
               "    \"speedup_intra_vs_serial\": %.3f,\n"
               "    \"speedup_vs_reference\": %.3f,\n"
               "    \"speedup_serial_vs_reference\": %.3f,\n"
               "    \"algorithmic_speedup_cg_plus_cover\": %.3f,\n"
               "    \"bit_identical_serial_parallel\": %s,\n"
               "    \"bit_identical_serial_intra\": %s,\n"
               "    \"bit_identical_new_reference\": %s\n"
               "  }\n"
               "}\n",
               e2e_serial_ns, e2e_intra_ns, e2e_parallel_ns, e2e_ref_ns,
               solves_per_sec, thread_speedup, intra_speedup,
               e2e_speedup_vs_ref, e2e_speedup_serial_vs_ref, algo_speedup,
               identical ? "true" : "false",
               intra_identical ? "true" : "false",
               ref_identical ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", json_name);

  bool ok = identical && intra_identical && ref_identical && cache_identical;
  if (ci_mode) {
    // Cache gates: the second (warm) pass must be 100% hits, and the
    // persisted store must reload and serve the whole catalog from cache.
    if (!warm_all_hits) {
      std::fprintf(stderr, "CI gate: warm cache pass was not 100%% hits\n");
      ok = false;
    }
    if (!persist_ok || !persisted_all_hits) {
      std::fprintf(stderr,
                   "CI gate: persisted cache store failed to round-trip\n");
      ok = false;
    }
  }
  if (ci_mode) {
    // Bit-identity is gated unconditionally (checked above). The speedup
    // gate needs real cores: on a single-hardware-thread host extra
    // threads only time-slice, so a < 1.0 ratio is scheduler noise, not a
    // parallelism regression.
    if (hw >= 2 && thread_speedup < 1.0) {
      std::fprintf(stderr,
                   "CI gate: parallel batch slower than serial (%.3fx) on a "
                   "%u-thread host\n",
                   thread_speedup, hw);
      ok = false;
    } else if (hw < 2) {
      std::printf("CI gate: single hardware thread — speedup gate skipped "
                  "(measured %.3fx)\n",
                  thread_speedup);
    }
  }
  return ok ? 0 : 1;
}
