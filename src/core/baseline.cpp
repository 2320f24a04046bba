#include "core/baseline.hpp"

#include <algorithm>
#include <cmath>

#include "core/clustering.hpp"
#include "graph/algorithms.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace cwgl::core {

linalg::Matrix resource_features(std::span<const JobDag> jobs, bool standardize) {
  constexpr std::size_t kFeatures = 5;
  linalg::Matrix features(jobs.size(), kFeatures);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobDag& job = jobs[i];
    double cpu = 0.0, mem = 0.0, duration = 0.0, instances = 0.0;
    for (const TaskMeta& t : job.tasks) {
      cpu += t.plan_cpu * std::max(1, t.instance_num);
      mem += t.plan_mem;
      duration += static_cast<double>(t.duration());
      instances += std::max(1, t.instance_num);
    }
    features(i, 0) = static_cast<double>(job.size());
    features(i, 1) = cpu;
    features(i, 2) = mem;
    features(i, 3) = job.tasks.empty()
                         ? 0.0
                         : duration / static_cast<double>(job.tasks.size());
    features(i, 4) = instances;
  }
  if (standardize) {
    for (std::size_t c = 0; c < kFeatures; ++c) {
      util::RunningSummary column;
      for (std::size_t r = 0; r < features.rows(); ++r) column.add(features(r, c));
      const double mean = column.mean();
      const double sd = column.stddev();
      for (std::size_t r = 0; r < features.rows(); ++r) {
        features(r, c) = sd > 0.0 ? (features(r, c) - mean) / sd : 0.0;
      }
    }
  }
  return features;
}

ResourceClusteringBaseline resource_kmeans(std::span<const JobDag> jobs, int k,
                                           std::uint64_t seed) {
  if (jobs.empty()) return {};
  const linalg::Matrix features = resource_features(jobs);
  cluster::KMeansOptions options;
  options.seed = seed;
  const std::vector<double> weights(jobs.size(), 1.0);
  const auto km = cluster::kmeans_weighted(features, weights, k, options);
  ResourceClusteringBaseline out;
  out.inertia = km.inertia;
  // Relabel by descending population, matching ClusteringAnalysis.
  out.labels = relabel_by_mass(
      km.labels, std::vector<std::uint64_t>(jobs.size(), 1));
  return out;
}

double structural_dispersion(std::span<const JobDag> jobs,
                             std::span<const int> labels, bool use_width) {
  if (jobs.size() != labels.size()) {
    throw util::InvalidArgument("structural_dispersion: size mismatch");
  }
  if (jobs.empty()) return 0.0;
  for (int l : labels) {
    if (l < 0) {
      throw util::InvalidArgument("structural_dispersion: negative label");
    }
  }
  const auto metric = [&](const JobDag& job) {
    return use_width ? static_cast<double>(graph::max_width(job.dag))
                     : static_cast<double>(graph::critical_path_length(job.dag));
  };
  util::RunningSummary global;
  for (const JobDag& job : jobs) global.add(metric(job));
  const double global_sd = global.stddev();
  if (global_sd == 0.0) return 0.0;

  int max_label = 0;
  for (int l : labels) max_label = std::max(max_label, l);
  std::vector<util::RunningSummary> groups(max_label + 1);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    groups[labels[i]].add(metric(jobs[i]));
  }
  double weighted = 0.0;
  for (const auto& g : groups) {
    weighted += g.stddev() * static_cast<double>(g.count());
  }
  return weighted / (static_cast<double>(jobs.size()) * global_sd);
}

}  // namespace cwgl::core
