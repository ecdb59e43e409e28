#include "mrpf/baseline/diff_mst.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "mrpf/arch/synth.hpp"
#include "mrpf/common/error.hpp"
#include "mrpf/graph/mst.hpp"

namespace mrpf::baseline {

namespace {

std::vector<i64> unique_nonzero(const std::vector<i64>& constants) {
  std::vector<i64> u;
  for (const i64 c : constants) {
    if (c != 0) u.push_back(c);
  }
  std::sort(u.begin(), u.end());
  u.erase(std::unique(u.begin(), u.end()), u.end());
  return u;
}

/// Tree adjacency from MST edges; returns (height, parent vector) when the
/// tree is rooted at `root` (BFS).
std::pair<int, std::vector<int>> root_tree(
    const std::vector<std::vector<int>>& adj, int root) {
  const int n = static_cast<int>(adj.size());
  std::vector<int> parent(static_cast<std::size_t>(n), -2);  // -2 = unseen
  std::vector<int> order{root};
  parent[static_cast<std::size_t>(root)] = -1;
  std::vector<int> depth(static_cast<std::size_t>(n), 0);
  int height = 0;
  for (std::size_t head = 0; head < order.size(); ++head) {
    const int u = order[head];
    for (const int v : adj[static_cast<std::size_t>(u)]) {
      if (parent[static_cast<std::size_t>(v)] == -2) {
        parent[static_cast<std::size_t>(v)] = u;
        depth[static_cast<std::size_t>(v)] =
            depth[static_cast<std::size_t>(u)] + 1;
        height = std::max(height, depth[static_cast<std::size_t>(v)]);
        order.push_back(v);
      }
    }
  }
  return {height, parent};
}

}  // namespace

DiffMstResult diff_mst_optimize(const std::vector<i64>& constants,
                                number::NumberRep rep) {
  // Constants that fit 61 bits keep every pairwise difference inside i64.
  for (const i64 c : constants) {
    MRPF_CHECK(bit_width_abs(c) <= 61, "diff_mst: constant exceeds 61 bits");
  }
  DiffMstResult r;
  r.uniques = unique_nonzero(constants);
  const int n = static_cast<int>(r.uniques.size());
  if (n == 0) return r;
  if (n == 1) {
    r.parent = {-1};
    r.roots = {0};
    r.adders = number::multiplier_adders(r.uniques[0], rep);
    return r;
  }

  // Dense symmetric cost matrix: nonzero digits of the difference.
  std::vector<std::vector<double>> w(
      static_cast<std::size_t>(n),
      std::vector<double>(static_cast<std::size_t>(n), 0.0));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double cost = static_cast<double>(number::nonzero_digits(
          r.uniques[static_cast<std::size_t>(j)] -
              r.uniques[static_cast<std::size_t>(i)],
          rep));
      w[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = cost;
      w[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = cost;
    }
  }
  const graph::MstResult mst = graph::mst_prim_dense(w);
  MRPF_CHECK(mst.num_components == 1,
             "diff_mst: complete graph must yield one tree");

  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (const graph::WeightedEdge& e : mst.edges) {
    adj[static_cast<std::size_t>(e.u)].push_back(e.v);
    adj[static_cast<std::size_t>(e.v)].push_back(e.u);
  }

  // Root choice: minimize tree height (the paper's small-delay criterion);
  // ties go to the cheaper direct multiplier.
  int best_root = 0;
  int best_height = std::numeric_limits<int>::max();
  for (int v = 0; v < n; ++v) {
    const int h = root_tree(adj, v).first;
    const bool better =
        h < best_height ||
        (h == best_height &&
         number::multiplier_adders(r.uniques[static_cast<std::size_t>(v)],
                                   rep) <
             number::multiplier_adders(
                 r.uniques[static_cast<std::size_t>(best_root)], rep));
    if (better) {
      best_root = v;
      best_height = h;
    }
  }
  auto [height, parent] = root_tree(adj, best_root);
  r.parent = std::move(parent);
  r.roots = {best_root};
  r.tree_height = height;

  r.adders = number::multiplier_adders(
      r.uniques[static_cast<std::size_t>(best_root)], rep);
  for (int v = 0; v < n; ++v) {
    const int p = r.parent[static_cast<std::size_t>(v)];
    if (p < 0) continue;
    r.adders += number::nonzero_digits(
        r.uniques[static_cast<std::size_t>(v)] -
            r.uniques[static_cast<std::size_t>(p)],
        rep);
  }
  return r;
}

arch::MultiplierBlock build_diff_mst_block(const std::vector<i64>& constants,
                                           number::NumberRep rep) {
  const DiffMstResult plan = diff_mst_optimize(constants, rep);
  arch::MultiplierBlock block;
  block.constants = constants;

  const int n = static_cast<int>(plan.uniques.size());
  std::vector<arch::Tap> vertex_tap(static_cast<std::size_t>(n));
  std::map<i64, std::size_t> index_of;
  for (int v = 0; v < n; ++v) {
    index_of.emplace(plan.uniques[static_cast<std::size_t>(v)],
                     static_cast<std::size_t>(v));
  }

  // Topological order: parents before children (BFS order from roots).
  std::vector<int> order;
  for (const int root : plan.roots) order.push_back(root);
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (int v = 0; v < n; ++v) {
      if (plan.parent[static_cast<std::size_t>(v)] == order[head]) {
        order.push_back(v);
      }
    }
  }
  MRPF_CHECK(static_cast<int>(order.size()) == n,
             "diff_mst build: tree order incomplete");

  for (const int v : order) {
    const int p = plan.parent[static_cast<std::size_t>(v)];
    const i64 value = plan.uniques[static_cast<std::size_t>(v)];
    if (p < 0) {
      vertex_tap[static_cast<std::size_t>(v)] =
          arch::synthesize_constant(block.graph, value, rep);
      continue;
    }
    const i64 diff = value - plan.uniques[static_cast<std::size_t>(p)];
    const arch::Tap diff_tap =
        arch::synthesize_constant(block.graph, diff, rep);
    vertex_tap[static_cast<std::size_t>(v)] =
        arch::add_taps(block.graph, vertex_tap[static_cast<std::size_t>(p)],
                       0, false, diff_tap, 0, false);
    MRPF_CHECK(vertex_tap[static_cast<std::size_t>(v)].constant == value,
               "diff_mst build: vertex value mismatch");
  }

  for (const i64 c : constants) {
    if (c == 0) {
      block.taps.push_back({-1, 0, false, 0});
    } else {
      block.taps.push_back(vertex_tap[index_of.at(c)]);
    }
  }
  block.verify({1, -1, 7, 513, -1000});
  return block;
}

}  // namespace mrpf::baseline
