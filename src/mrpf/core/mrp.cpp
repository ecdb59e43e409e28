#include "mrpf/core/mrp.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "mrpf/common/error.hpp"
#include "mrpf/common/parallel.hpp"
#include "mrpf/graph/digraph.hpp"
#include "mrpf/graph/set_cover.hpp"

namespace mrpf::core {

namespace {

/// Claims every vertex reachable from the already-claimed set within the
/// depth budget, recording parent edges. `depth` uses -1 for unclaimed.
void expand_trees(const graph::Digraph& sub, int depth_limit,
                  std::vector<int>& depth, std::vector<int>& parent_edge) {
  // Process claimed vertices in ascending depth (unit edge weights keep
  // the frontier sorted, exactly as in BFS).
  std::vector<int> order;
  for (int v = 0; v < sub.num_vertices(); ++v) {
    if (depth[static_cast<std::size_t>(v)] >= 0) order.push_back(v);
  }
  std::sort(order.begin(), order.end(), [&depth](int a, int b) {
    return depth[static_cast<std::size_t>(a)] <
           depth[static_cast<std::size_t>(b)];
  });
  for (std::size_t head = 0; head < order.size(); ++head) {
    const int u = order[head];
    if (depth[static_cast<std::size_t>(u)] >= depth_limit) continue;
    for (const int ei : sub.out_edges(u)) {
      const graph::Edge& e = sub.edge(ei);
      if (depth[static_cast<std::size_t>(e.to)] == -1) {
        depth[static_cast<std::size_t>(e.to)] =
            depth[static_cast<std::size_t>(u)] + 1;
        parent_edge[static_cast<std::size_t>(e.to)] =
            static_cast<int>(e.label);
        order.push_back(e.to);
      }
    }
  }
}

/// (#unclaimed vertices reachable from `source` within depth_limit hops
/// using only unclaimed vertices, eccentricity of that reach).
std::pair<int, int> root_score(const graph::Digraph& sub,
                               const std::vector<int>& depth, int source,
                               int depth_limit) {
  std::vector<int> local(static_cast<std::size_t>(sub.num_vertices()), -1);
  local[static_cast<std::size_t>(source)] = 0;
  std::vector<int> order{source};
  int count = 1;
  int ecc = 0;
  for (std::size_t head = 0; head < order.size(); ++head) {
    const int u = order[head];
    if (local[static_cast<std::size_t>(u)] >= depth_limit) continue;
    for (const int ei : sub.out_edges(u)) {
      const int to = sub.edge(ei).to;
      if (depth[static_cast<std::size_t>(to)] != -1) continue;  // claimed
      if (local[static_cast<std::size_t>(to)] != -1) continue;
      local[static_cast<std::size_t>(to)] =
          local[static_cast<std::size_t>(u)] + 1;
      ecc = std::max(ecc, local[static_cast<std::size_t>(to)]);
      ++count;
      order.push_back(to);
    }
  }
  return {count, ecc};
}

/// Root selection tie-break (paper §3.4): most claimed vertices, then
/// smaller tree height, then cheaper vertex value.
bool score_better(const std::pair<int, int>& score, i64 value,
                  const std::pair<int, int>& best_score, i64 best_value) {
  return score.first > best_score.first ||
         (score.first == best_score.first &&
          (score.second < best_score.second ||
           (score.second == best_score.second && value < best_value)));
}

/// Original root-selection loop: a fresh depth-limited BFS from every
/// uncovered vertex each round. Kept as the perf/differential baseline.
void grow_trees_reference(const graph::Digraph& sub,
                          const std::vector<i64>& vertices, int depth_limit,
                          std::vector<int>& depth,
                          std::vector<int>& parent_edge,
                          std::vector<int>& roots,
                          std::vector<bool>& root_is_free) {
  const int n = sub.num_vertices();
  expand_trees(sub, depth_limit, depth, parent_edge);
  while (true) {
    int best = -1;
    std::pair<int, int> best_score{0, 0};
    for (int v = 0; v < n; ++v) {
      if (depth[static_cast<std::size_t>(v)] != -1) continue;
      const auto score = root_score(sub, depth, v, depth_limit);
      if (best == -1 ||
          score_better(score, vertices[static_cast<std::size_t>(v)],
                       best_score,
                       vertices[static_cast<std::size_t>(best)])) {
        best = v;
        best_score = score;
      }
    }
    if (best == -1) break;  // every vertex claimed
    depth[static_cast<std::size_t>(best)] = 0;
    roots.push_back(best);
    root_is_free.push_back(false);
    expand_trees(sub, depth_limit, depth, parent_edge);
  }
}

/// Incremental root selection: per-candidate (reach count, eccentricity)
/// scores are cached and only recomputed for vertices whose depth-limited
/// unclaimed-reach was invalidated by the last claimed tree. Invalidation
/// is exact — a reverse BFS from the newly claimed vertices through the
/// vertices that were unclaimed before the round finds precisely the
/// candidates whose reach contained a newly claimed vertex; all other
/// cached scores are provably unchanged (their BFS never visits a vertex
/// outside their own reach). Selection order is identical to the
/// reference loop.
void grow_trees_incremental(const graph::Digraph& sub,
                            const std::vector<i64>& vertices, int depth_limit,
                            std::vector<int>& depth,
                            std::vector<int>& parent_edge,
                            std::vector<int>& roots,
                            std::vector<bool>& root_is_free) {
  const int n = sub.num_vertices();
  expand_trees(sub, depth_limit, depth, parent_edge);

  // Deduplicated reverse adjacency (parallel SIDC edges collapse).
  std::vector<std::vector<int>> radj(static_cast<std::size_t>(n));
  for (const graph::Edge& e : sub.edges()) {
    radj[static_cast<std::size_t>(e.to)].push_back(e.from);
  }
  for (auto& preds : radj) {
    std::sort(preds.begin(), preds.end());
    preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
  }

  std::vector<std::pair<int, int>> score(static_cast<std::size_t>(n));
  std::vector<char> valid(static_cast<std::size_t>(n), 0);
  std::vector<char> pre_unclaimed(static_cast<std::size_t>(n));
  std::vector<int> rdist(static_cast<std::size_t>(n));
  std::vector<int> queue;
  while (true) {
    int best = -1;
    std::pair<int, int> best_score{0, 0};
    for (int v = 0; v < n; ++v) {
      if (depth[static_cast<std::size_t>(v)] != -1) continue;
      if (!valid[static_cast<std::size_t>(v)]) {
        score[static_cast<std::size_t>(v)] =
            root_score(sub, depth, v, depth_limit);
        valid[static_cast<std::size_t>(v)] = 1;
      }
      if (best == -1 ||
          score_better(score[static_cast<std::size_t>(v)],
                       vertices[static_cast<std::size_t>(v)], best_score,
                       vertices[static_cast<std::size_t>(best)])) {
        best = v;
        best_score = score[static_cast<std::size_t>(v)];
      }
    }
    if (best == -1) break;  // every vertex claimed
    for (int v = 0; v < n; ++v) {
      pre_unclaimed[static_cast<std::size_t>(v)] =
          (depth[static_cast<std::size_t>(v)] == -1);
    }
    depth[static_cast<std::size_t>(best)] = 0;
    roots.push_back(best);
    root_is_free.push_back(false);
    expand_trees(sub, depth_limit, depth, parent_edge);

    // Reverse BFS (≤ depth_limit hops) from the newly claimed vertices
    // through pre-round-unclaimed vertices: every still-unclaimed vertex
    // reached could reach a newly claimed one, so its score is stale.
    rdist.assign(static_cast<std::size_t>(n), -1);
    queue.clear();
    for (int v = 0; v < n; ++v) {
      if (pre_unclaimed[static_cast<std::size_t>(v)] &&
          depth[static_cast<std::size_t>(v)] != -1) {
        rdist[static_cast<std::size_t>(v)] = 0;
        queue.push_back(v);
      }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int u = queue[head];
      if (rdist[static_cast<std::size_t>(u)] >= depth_limit) continue;
      for (const int w : radj[static_cast<std::size_t>(u)]) {
        if (!pre_unclaimed[static_cast<std::size_t>(w)]) continue;
        if (rdist[static_cast<std::size_t>(w)] != -1) continue;
        rdist[static_cast<std::size_t>(w)] =
            rdist[static_cast<std::size_t>(u)] + 1;
        queue.push_back(w);
      }
    }
    for (const int v : queue) {
      if (depth[static_cast<std::size_t>(v)] == -1) {
        valid[static_cast<std::size_t>(v)] = 0;
      }
    }
  }
}

}  // namespace

MrpResult MrpResult::clone() const {
  MrpResult c;
  c.bank = bank;
  c.vertices = vertices;
  c.solution_colors = solution_colors;
  c.roots = roots;
  c.root_is_free = root_is_free;
  c.tree_edges = tree_edges;
  c.vertex_depth = vertex_depth;
  c.tree_height = tree_height;
  c.seed_values = seed_values;
  c.seed_adders = seed_adders;
  c.overhead_adders = overhead_adders;
  c.seed_cse = seed_cse;
  if (seed_recursive != nullptr) {
    c.seed_recursive = std::make_unique<MrpResult>(seed_recursive->clone());
  }
  c.timers = timers;
  return c;
}

MrpResult mrp_optimize(const std::vector<i64>& constants,
                       const MrpOptions& options) {
  MRPF_CHECK(options.beta >= 0.0 && options.beta <= 1.0,
             "mrp: beta outside [0,1]");
  MRPF_CHECK(options.depth_limit >= 0, "mrp: negative depth limit");
  MRPF_CHECK(options.recursive_levels >= 0 && options.recursive_levels <= 8,
             "mrp: recursive_levels out of range");

  // A hit is a rehydrated deep copy of an equivalent canonical solve —
  // field-for-field identical to the fresh solve below, so the cache can
  // never change a result, only skip recomputing it. Recursive SEED
  // solves inherit `cache` through the nested options and memoize too
  // (under their own key: recursive_levels differs).
  if (options.cache != nullptr) {
    MrpResult cached;
    if (options.cache->try_get(constants, options, cached)) return cached;
  }

  MrpResult r;
  const auto t_begin = std::chrono::steady_clock::now();
  const auto finish_total = [&r, t_begin] {
    r.timers.total_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t_begin)
            .count());
  };
  {
    const StageStopwatch watch(r.timers.primaries);
    r.bank = extract_primaries(constants);
    r.vertices = r.bank.primaries;
  }
  const int n = static_cast<int>(r.vertices.size());
  r.timers.primaries.items = static_cast<std::uint64_t>(n);
  r.vertex_depth.assign(static_cast<std::size_t>(n), -1);
  if (n == 0) {  // all-zero bank: nothing to compute
    finish_total();
    return r;
  }

  // --- Stage A steps 3–5: color graph and greedy WMSC. ---
  // The production engine builds only the classes the greedy can still
  // pick (color_graph.hpp: build_cover_instance) and rebuilds an edge from
  // its id; the reference engine builds the whole graph the seed way.
  const ColorGraphOptions cg_opts{options.l_max, options.rep};
  ColorGraph cg;
  CoverInstance inst;
  {
    const StageStopwatch watch(r.timers.color_graph);
    if (options.use_reference_engine) {
      cg = build_color_graph_reference(r.vertices, cg_opts);
    } else {
      inst = build_cover_instance(r.vertices, cg_opts);
    }
  }
  r.timers.color_graph.items = static_cast<std::uint64_t>(
      options.use_reference_engine ? cg.edges.size() : inst.num_edges);
  const std::vector<ColorClass>& classes =
      options.use_reference_engine ? cg.classes : inst.classes;
  const std::vector<int>& class_edges =
      options.use_reference_engine ? cg.class_edges : inst.class_edges;
  const auto edge_at = [&](int ei) {
    return options.use_reference_engine
               ? cg.edges[static_cast<std::size_t>(ei)]
               : sidc_edge(r.vertices, inst.l_max, ei);
  };
  // tie_key = color value: DESIGN.md's "ties: lower cost, then smaller
  // value" rule, explicit instead of leaning on class ordering. The hot
  // path borrows each class's coverable slice straight out of the
  // instance (zero per-set allocations); the reference engine keeps the
  // seed scheme of copying every element list into an owning CoverSet.
  graph::SetCoverResult cover;
  {
    const StageStopwatch watch(r.timers.set_cover);
    if (options.use_reference_engine) {
      std::vector<graph::CoverSet> sets;
      sets.reserve(cg.classes.size());
      for (const ColorClass& cls : cg.classes) {
        const auto cov = cg.coverable_ids(cls);
        sets.push_back({{cov.begin(), cov.end()},
                        static_cast<double>(cls.cost),
                        cls.color});
      }
      cover = graph::greedy_weighted_set_cover_reference(
          n, sets, graph::paper_benefit(options.beta));
    } else {
      std::vector<graph::CoverSetView> sets;
      sets.reserve(inst.classes.size());
      for (const ColorClass& cls : inst.classes) {
        sets.push_back({inst.class_coverable.data() + cls.cov_begin,
                        cls.num_coverable(), static_cast<double>(cls.cost),
                        cls.color});
      }
      cover = graph::greedy_weighted_set_cover(
          n, sets, graph::paper_benefit(options.beta), options.pool);
    }
  }
  r.timers.set_cover.items = static_cast<std::uint64_t>(classes.size());
  for (const int si : cover.chosen) {
    r.solution_colors.push_back(classes[static_cast<std::size_t>(si)].color);
  }

  // --- Cover sub-graph: all edges of the selected color classes. ---
  graph::Digraph sub(n);
  for (const int si : cover.chosen) {
    const ColorClass& cls = classes[static_cast<std::size_t>(si)];
    for (int k = cls.edges_begin; k < cls.edges_end; ++k) {
      const int ei = class_edges[static_cast<std::size_t>(k)];
      const SidcEdge e = edge_at(ei);
      sub.add_edge(e.from, e.to, 1.0, ei);
    }
  }

  // --- Step 6: vertices equal to a solution color are free roots. ---
  std::vector<int>& depth = r.vertex_depth;
  std::vector<int> parent_edge(static_cast<std::size_t>(n), -1);
  const std::set<i64> color_set(r.solution_colors.begin(),
                                r.solution_colors.end());
  for (int v = 0; v < n; ++v) {
    if (color_set.contains(r.vertices[static_cast<std::size_t>(v)])) {
      depth[static_cast<std::size_t>(v)] = 0;
      r.roots.push_back(v);
      r.root_is_free.push_back(true);
    }
  }

  // --- Tree construction: grow minimum-height arborescences. ---
  const int depth_limit = options.depth_limit > 0
                              ? options.depth_limit
                              : std::numeric_limits<int>::max() - 1;
  {
    const StageStopwatch watch(r.timers.tree_growth);
    if (options.use_reference_engine) {
      grow_trees_reference(sub, r.vertices, depth_limit, depth, parent_edge,
                           r.roots, r.root_is_free);
    } else {
      grow_trees_incremental(sub, r.vertices, depth_limit, depth,
                             parent_edge, r.roots, r.root_is_free);
    }
  }
  r.timers.tree_growth.items = static_cast<std::uint64_t>(r.roots.size());

  // --- Record tree edges, parents before children. ---
  std::vector<int> by_depth;
  for (int v = 0; v < n; ++v) {
    MRPF_CHECK(depth[static_cast<std::size_t>(v)] >= 0,
               "mrp: vertex left uncovered");
    r.tree_height =
        std::max(r.tree_height, depth[static_cast<std::size_t>(v)]);
    if (parent_edge[static_cast<std::size_t>(v)] >= 0) by_depth.push_back(v);
  }
  std::sort(by_depth.begin(), by_depth.end(), [&depth](int a, int b) {
    return depth[static_cast<std::size_t>(a)] <
           depth[static_cast<std::size_t>(b)];
  });
  for (const int v : by_depth) {
    r.tree_edges.push_back({edge_at(parent_edge[static_cast<std::size_t>(v)]),
                            depth[static_cast<std::size_t>(v)]});
  }
  r.overhead_adders = static_cast<int>(r.tree_edges.size());

  // --- SEED set and its network cost. ---
  {
    const StageStopwatch watch(r.timers.seed_synthesis);
    std::vector<i64> seed = r.solution_colors;
    for (const int root : r.roots) {
      seed.push_back(r.vertices[static_cast<std::size_t>(root)]);
    }
    std::sort(seed.begin(), seed.end());
    seed.erase(std::unique(seed.begin(), seed.end()), seed.end());
    r.seed_values = std::move(seed);

    if (options.recursive_levels > 0 && !r.seed_values.empty()) {
      MrpOptions nested = options;
      nested.recursive_levels = options.recursive_levels - 1;
      r.seed_recursive = std::make_unique<MrpResult>(
          mrp_optimize(r.seed_values, nested));
      r.seed_adders = r.seed_recursive->total_adders();
    } else if (options.cse_on_seed) {
      cse::CseOptions cse_opts;
      cse_opts.rep = number::NumberRep::kCsd;
      r.seed_cse = cse::hartley_cse(r.seed_values, cse_opts);
      r.seed_adders = r.seed_cse->adder_count();
    } else {
      for (const i64 v : r.seed_values) {
        r.seed_adders += number::multiplier_adders(v, options.rep);
      }
    }
  }
  r.timers.seed_synthesis.items =
      static_cast<std::uint64_t>(r.seed_values.size());
  finish_total();
  if (options.cache != nullptr) options.cache->put(constants, options, r);
  return r;
}

namespace {

/// Partitions batch indices into solve groups. Without a cache every index
/// is its own group (the PR-2 grain). With a cache, indices whose
/// (bank, options) share a canonical solve key — shift/sign/permutation-
/// equivalent banks under identical solve options — land in one group, in
/// first-appearance order. The batch runners execute a group sequentially
/// on whichever worker claims it, so each equivalence class performs
/// exactly one live solve per batch; every later member rehydrates the hit
/// just inserted. Cached hits are field-for-field identical to fresh
/// solves, so grouping (like thread count) never changes results[i].
std::vector<std::vector<std::size_t>> solve_groups(
    std::size_t n, const std::vector<i64>* const* banks,
    const MrpOptions* const* options) {
  std::vector<std::vector<std::size_t>> groups;
  groups.reserve(n);
  std::map<std::pair<const void*, u64>, std::size_t> group_of;
  for (std::size_t i = 0; i < n; ++i) {
    const MrpOptions& opts = *options[i];
    if (opts.cache == nullptr) {
      groups.push_back({i});
      continue;
    }
    // Keyed per cache instance: keys from different caches (different
    // hash seeds or option spaces are still one namespace per object)
    // never alias across jobs that use distinct caches.
    const std::pair<const void*, u64> key{
        static_cast<const void*>(opts.cache),
        opts.cache->solve_key(*banks[i], opts)};
    const auto [it, inserted] = group_of.try_emplace(key, groups.size());
    if (inserted) {
      groups.push_back({i});
    } else {
      groups[it->second].push_back(i);
    }
  }
  return groups;
}

}  // namespace

std::vector<MrpResult> mrp_optimize_batch(const std::vector<MrpBatchJob>& jobs) {
  // Outer grain: one index group per solve (see solve_groups). Inner
  // grain: every solve hands the same pool down through options.pool, so
  // the sharded set-cover seeding of a large solve is stolen by workers
  // that have run out of solves — the pool is nesting-safe and never
  // oversubscribed. Each worker writes only the results[i] of the group it
  // claimed, and the seeding is shard-count-independent, so the batch
  // stays bit-identical to a serial loop for every thread count, with or
  // without a cache.
  std::vector<MrpResult> results(jobs.size());
  ThreadPool pool;
  std::vector<MrpOptions> opts(jobs.size());
  std::vector<const std::vector<i64>*> banks(jobs.size());
  std::vector<const MrpOptions*> opt_ptrs(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    opts[i] = jobs[i].options;
    opts[i].pool = &pool;
    banks[i] = &jobs[i].bank;
    opt_ptrs[i] = &opts[i];
  }
  const auto groups = solve_groups(jobs.size(), banks.data(), opt_ptrs.data());
  pool.parallel_for(groups.size(), [&](std::size_t g) {
    for (const std::size_t i : groups[g]) {
      results[i] = mrp_optimize(jobs[i].bank, opts[i]);
    }
  });
  return results;
}

std::vector<MrpResult> mrp_optimize_batch(
    const std::vector<std::vector<i64>>& banks, const MrpOptions& options) {
  std::vector<MrpResult> results(banks.size());
  std::optional<ThreadPool> local_pool;
  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : local_pool.emplace();
  MrpOptions opts = options;
  opts.pool = &pool;
  std::vector<const std::vector<i64>*> bank_ptrs(banks.size());
  std::vector<const MrpOptions*> opt_ptrs(banks.size());
  for (std::size_t i = 0; i < banks.size(); ++i) {
    bank_ptrs[i] = &banks[i];
    opt_ptrs[i] = &opts;
  }
  const auto groups =
      solve_groups(banks.size(), bank_ptrs.data(), opt_ptrs.data());
  pool.parallel_for(groups.size(), [&](std::size_t g) {
    for (const std::size_t i : groups[g]) {
      results[i] = mrp_optimize(banks[i], opts);
    }
  });
  return results;
}

}  // namespace mrpf::core
