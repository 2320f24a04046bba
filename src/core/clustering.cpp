#include "core/clustering.hpp"

#include <algorithm>
#include <numeric>

#include "cluster/metrics.hpp"
#include "cluster/spectral.hpp"
#include "graph/algorithms.hpp"
#include "graph/patterns.hpp"
#include "kernel/gram.hpp"
#include "util/error.hpp"

namespace cwgl::core {

std::vector<int> relabel_by_mass(std::span<const int> raw_labels,
                                 std::span<const std::uint64_t> counts) {
  if (raw_labels.size() != counts.size()) {
    throw util::InvalidArgument("relabel_by_mass: labels/counts size mismatch");
  }
  const std::size_t m = raw_labels.size();
  std::size_t raw_clusters = 0;
  for (int l : raw_labels) {
    if (l < 0) throw util::InvalidArgument("relabel_by_mass: negative label");
    raw_clusters = std::max(raw_clusters, static_cast<std::size_t>(l) + 1);
  }
  std::vector<std::uint64_t> mass(raw_clusters, 0);
  std::vector<std::size_t> first(raw_clusters, m);
  for (std::size_t t = 0; t < m; ++t) {
    const auto c = static_cast<std::size_t>(raw_labels[t]);
    mass[c] += counts[t];
    first[c] = std::min(first[c], t);
  }
  std::vector<int> order(raw_clusters);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (mass[a] != mass[b]) return mass[a] > mass[b];
    if (first[a] != first[b]) return first[a] < first[b];
    return a < b;  // only ids no item carries
  });
  std::vector<int> relabel(raw_clusters);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    relabel[order[rank]] = static_cast<int>(rank);
  }
  std::vector<int> out(m);
  for (std::size_t t = 0; t < m; ++t) out[t] = relabel[raw_labels[t]];
  return out;
}

ClusterGroupStats describe_group(int group, std::span<const JobDag> items,
                                 std::span<const std::uint64_t> counts,
                                 std::span<const int> labels) {
  ClusterGroupStats stats;
  stats.group = group;
  std::vector<double> sizes, depths, widths;
  std::vector<std::uint64_t> member_counts;
  std::uint64_t chains = 0, shorts = 0, total = 0;
  for (std::size_t t = 0; t < items.size(); ++t) {
    total += counts[t];
    if (labels[t] != group) continue;
    stats.population += counts[t];
    sizes.push_back(items[t].size());
    depths.push_back(graph::critical_path_length(items[t].dag));
    widths.push_back(graph::max_width(items[t].dag));
    member_counts.push_back(counts[t]);
    if (graph::classify_shape(items[t].dag) ==
        graph::ShapePattern::StraightChain) {
      chains += counts[t];
    }
    if (items[t].size() < 3) shorts += counts[t];
  }
  stats.population_fraction =
      total == 0 ? 0.0
                 : static_cast<double>(stats.population) /
                       static_cast<double>(total);
  stats.size = util::describe_weighted(sizes, member_counts);
  stats.critical_path = util::describe_weighted(depths, member_counts);
  stats.parallelism = util::describe_weighted(widths, member_counts);
  stats.chain_fraction =
      stats.population ? static_cast<double>(chains) /
                             static_cast<double>(stats.population)
                       : 0.0;
  stats.short_job_fraction =
      stats.population ? static_cast<double>(shorts) /
                             static_cast<double>(stats.population)
                       : 0.0;
  return stats;
}

ClusteringAnalysis ClusteringAnalysis::compute(
    const linalg::Matrix& similarity, std::span<const JobDag> items,
    std::span<const std::uint64_t> counts, const ClusteringOptions& options) {
  const std::size_t m = items.size();
  if (similarity.rows() != m || counts.size() != m) {
    throw util::InvalidArgument(
        "ClusteringAnalysis: similarity/items/counts size mismatch");
  }
  std::uint64_t total = 0;
  std::vector<double> weights;
  weights.reserve(m);
  for (std::uint64_t c : counts) {
    if (c == 0) throw util::InvalidArgument("ClusteringAnalysis: zero count");
    total += c;
    weights.push_back(static_cast<double>(c));
  }

  cluster::SpectralOptions spectral_options;
  spectral_options.kmeans.seed = options.seed;
  const int k = std::min(options.clusters, static_cast<int>(m));
  const auto spectral = cluster::spectral_cluster_weighted(
      similarity, weights, k, spectral_options);

  ClusteringAnalysis out;
  out.labels = relabel_by_mass(spectral.labels, counts);
  // The expanded sample's spectrum is the weighted spectrum plus one
  // eigenvalue-1 direction per duplicated item (see
  // cluster::spectral_cluster_weighted); reconstruct it so the eigengap
  // heuristic sees the whole sample.
  out.eigenvalues = spectral.eigenvalues;
  if (total > m) {
    out.eigenvalues.insert(out.eigenvalues.end(),
                           static_cast<std::size_t>(total - m), 1.0);
    std::sort(out.eigenvalues.begin(), out.eigenvalues.end());
  }
  out.suggested_k = cluster::eigengap_k(out.eigenvalues, 10);

  const linalg::Matrix distances = kernel::kernel_to_distance(similarity);
  out.silhouette =
      cluster::silhouette_score_weighted(distances, weights, out.labels);

  out.groups.reserve(static_cast<std::size_t>(options.clusters));
  for (int g = 0; g < options.clusters; ++g) {
    ClusterGroupStats& stats =
        out.groups.emplace_back(describe_group(g, items, counts, out.labels));
    // Medoid: the member most similar to the rest of its group. Every copy
    // of item t has the same centrality — the count-weighted similarity
    // mass of its group minus itself — and a strict max over items in
    // order keeps the earliest on ties.
    double best_centrality = -1.0;
    for (std::size_t t = 0; t < m; ++t) {
      if (out.labels[t] != g) continue;
      double centrality = -similarity(t, t);
      for (std::size_t u = 0; u < m; ++u) {
        if (out.labels[u] == g) {
          centrality += static_cast<double>(counts[u]) * similarity(t, u);
        }
      }
      if (centrality > best_centrality) {
        best_centrality = centrality;
        stats.medoid = t;
      }
    }
  }
  return out;
}

}  // namespace cwgl::core
