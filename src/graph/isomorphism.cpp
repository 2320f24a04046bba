#include "graph/isomorphism.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"

namespace cwgl::graph {

namespace {

/// Invariant per vertex used for pruning: (label, in-degree, out-degree).
struct Signature {
  int label;
  int in_degree;
  int out_degree;
  friend bool operator==(const Signature&, const Signature&) = default;
  friend auto operator<=>(const Signature&, const Signature&) = default;
};

std::vector<Signature> signatures(const Digraph& g, std::span<const int> labels) {
  std::vector<Signature> out;
  out.reserve(g.num_vertices());
  for (int v = 0; v < g.num_vertices(); ++v) {
    out.push_back({labels.empty() ? 0 : labels[v], g.in_degree(v), g.out_degree(v)});
  }
  return out;
}

/// Matching order for `g`: breadth-first over the undirected adjacency, one
/// component at a time, so every vertex after the first of its component
/// already has a matched neighbour. Candidates are then pruned by edge
/// consistency from the second vertex on; matching in index order instead
/// lets unconnected sources (numbered first in most jobs) be permuted
/// freely before any edge rules a choice out.
std::vector<int> bfs_order(const Digraph& g) {
  const int n = g.num_vertices();
  std::vector<int> order;
  order.reserve(n);
  std::vector<bool> seen(n, false);
  for (int root = 0; root < n; ++root) {
    if (seen[root]) continue;
    seen[root] = true;
    order.push_back(root);
    for (std::size_t head = order.size() - 1; head < order.size(); ++head) {
      const int v = order[head];
      for (const auto neighbours : {g.successors(v), g.predecessors(v)}) {
        for (int w : neighbours) {
          if (!seen[w]) {
            seen[w] = true;
            order.push_back(w);
          }
        }
      }
    }
  }
  return order;
}

/// Backtracking mapper: assigns vertices of `a` in `order`; a candidate must
/// match the signature and be edge-consistent with every assigned vertex.
bool extend(const Digraph& a, const Digraph& b,
            const std::vector<Signature>& sig_a,
            const std::vector<Signature>& sig_b, const std::vector<int>& order,
            std::vector<int>& map, std::vector<bool>& used, std::size_t depth) {
  if (depth == order.size()) return true;
  const int v = order[depth];
  for (int w = 0; w < b.num_vertices(); ++w) {
    if (used[w] || sig_a[v] != sig_b[w]) continue;
    bool consistent = a.has_edge(v, v) == b.has_edge(w, w);
    for (std::size_t i = 0; i < depth && consistent; ++i) {
      const int u = order[i];
      consistent = a.has_edge(u, v) == b.has_edge(map[u], w) &&
                   a.has_edge(v, u) == b.has_edge(w, map[u]);
    }
    if (!consistent) continue;
    map[v] = w;
    used[w] = true;
    if (extend(a, b, sig_a, sig_b, order, map, used, depth + 1)) return true;
    used[w] = false;
  }
  return false;
}

}  // namespace

bool are_isomorphic(const Digraph& a, std::span<const int> labels_a,
                    const Digraph& b, std::span<const int> labels_b) {
  if (!labels_a.empty() && static_cast<int>(labels_a.size()) != a.num_vertices()) {
    throw util::InvalidArgument("are_isomorphic: labels_a size mismatch");
  }
  if (!labels_b.empty() && static_cast<int>(labels_b.size()) != b.num_vertices()) {
    throw util::InvalidArgument("are_isomorphic: labels_b size mismatch");
  }
  if (a.num_vertices() > 32 || b.num_vertices() > 32) {
    throw util::InvalidArgument("are_isomorphic: graphs too large (>32 vertices)");
  }
  if (a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges()) {
    return false;
  }
  auto sig_a = signatures(a, labels_a);
  auto sig_b = signatures(b, labels_b);
  // Multiset invariant check before searching.
  auto sorted_a = sig_a;
  auto sorted_b = sig_b;
  std::sort(sorted_a.begin(), sorted_a.end());
  std::sort(sorted_b.begin(), sorted_b.end());
  if (sorted_a != sorted_b) return false;

  std::vector<int> map(a.num_vertices(), -1);
  std::vector<bool> used(a.num_vertices(), false);
  return extend(a, b, sig_a, sig_b, bfs_order(a), map, used, 0);
}

}  // namespace cwgl::graph
