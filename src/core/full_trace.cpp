#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "cluster/minibatch_kmeans.hpp"
#include "cluster/spectral.hpp"
#include "core/pipeline.hpp"
#include "graph/algorithms.hpp"
#include "graph/patterns.hpp"
#include "kernel/wl.hpp"
#include "obs/tracer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::core {

std::vector<int> FullTraceResult::job_labels() const {
  std::vector<int> out;
  out.reserve(shape_of.size());
  for (std::uint32_t s : shape_of) out.push_back(shape_labels[s]);
  return out;
}

FullTraceResult CharacterizationPipeline::run_full(const trace::Trace& trace,
                                                   util::ThreadPool* pool,
                                                   FittedFeatures* fitted) const {
  obs::Span span("pipeline.run_full");
  ShapeStore store;
  std::vector<const ShapeStore::Node*> handles;
  {
    obs::Span intern_span("pipeline.full_intern");
    const trace::TraceIndex index(trace);
    const auto eligible = trace::select_jobs(index, config_.criteria);
    handles.reserve(eligible.size());
    std::uint64_t seq = 0;
    // One JobDag in flight at a time: each build is interned immediately,
    // so live memory stays bounded by distinct shapes even when every job
    // of the trace is eligible.
    for (std::size_t g : eligible) {
      const trace::JobGroup& group = index.jobs()[g];
      std::vector<trace::TaskRecord> records;
      records.reserve(group.tasks.size());
      for (std::size_t i : group.tasks) records.push_back(trace.tasks[i]);
      if (auto job = build_job_dag(group.job_name, records)) {
        handles.push_back(store.intern(std::move(*job), seq++));
      }
    }
    intern_span.arg("jobs", handles.size());
  }
  ShapeStore::FrozenView view = store.freeze_with_ids();
  std::vector<std::uint32_t> shape_of;
  shape_of.reserve(handles.size());
  for (const ShapeStore::Node* node : handles) {
    shape_of.push_back(view.id_of.at(node));
  }
  return run_full_table(std::move(view.table), std::move(shape_of),
                        store.stats(), pool, fitted);
}

FullTraceResult CharacterizationPipeline::run_full(std::istream& task_csv,
                                                   util::ThreadPool* pool,
                                                   FittedFeatures* fitted,
                                                   IngestStats* stats) const {
  obs::Span span("pipeline.run_full");
  IngestOptions options;
  options.criteria = config_.criteria;
  InternedIngest ingest = stream_shape_jobs(task_csv, options, pool);
  if (stats != nullptr) *stats = ingest.stats;
  return run_full_table(std::move(ingest.table), std::move(ingest.shape_of),
                        ingest.intern, pool, fitted);
}

FullTraceResult CharacterizationPipeline::run_full_table(
    ShapeTable table, std::vector<std::uint32_t> shape_of,
    ShapeStore::Stats stats, util::ThreadPool* pool,
    FittedFeatures* fitted) const {
  FullTraceResult result;
  result.table = std::move(table);
  result.shape_of = std::move(shape_of);
  result.stats = stats;
  const std::size_t m = result.table.size();
  if (m == 0) {
    throw util::InvalidArgument("run_full: no eligible DAG jobs in trace");
  }

  const std::vector<JobDag>& exemplars = result.table.exemplars;
  std::vector<JobDag> conflated;
  if (config_.analyze_conflated) {
    conflated.resize(m);
    const auto conflate_range = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        conflated[i] = conflate_job(exemplars[i]);
      }
    };
    if (pool != nullptr) {
      util::parallel_for_chunked(*pool, 0, m, 16, conflate_range);
    } else {
      conflate_range(0, m);
    }
  }
  const std::vector<JobDag>& analysis_shapes =
      config_.analyze_conflated ? conflated : exemplars;

  // Featurize once per distinct shape, serially, so dictionary ids land in
  // dense first-seen order — the same deterministic fitted state the
  // sampled export path produces (see SimilarityAnalysis::compute).
  FittedFeatures local_features;
  FittedFeatures& features = fitted != nullptr ? *fitted : local_features;
  {
    obs::Span span("pipeline.full_featurize");
    span.arg("shapes", m);
    kernel::WlSubtreeFeaturizer featurizer(config_.similarity.wl);
    features.vectors.clear();
    features.vectors.reserve(m);
    for (const JobDag& job : analysis_shapes) {
      kernel::LabeledGraph g;
      g.graph = job.dag;
      if (config_.similarity.use_type_labels) g.labels = job.type_labels();
      features.vectors.push_back(featurizer.featurize(g));
    }
    features.dictionary.clear();
    features.dictionary.reserve(featurizer.dictionary_size());
    for (auto& [signature, id] : featurizer.dictionary_entries()) {
      (void)id;  // serial ids are dense and sorted
      features.dictionary.push_back(std::move(signature));
    }
  }
  const std::size_t dims = features.dictionary.size();

  // Cosine-normalized copies: mini-batch k-means clusters on the unit
  // sphere, where squared distance is 2 - 2 * (normalized kernel value) —
  // the same geometry the exact pipeline's normalized Gram encodes.
  std::vector<kernel::SparseVector> normalized = features.vectors;
  for (kernel::SparseVector& v : normalized) {
    const double norm = v.norm();
    if (norm > 0.0) {
      for (auto& [id, value] : v.items) value /= norm;
    }
  }

  const std::vector<double> weights = result.table.weights();
  const int k_eff =
      static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(std::max(1, config_.clustering.clusters)),
          m));

  // Count-weighted mini-batch k-means on the sparse features: no n x n
  // Gram, so memory stays bounded by distinct shapes.
  cluster::MiniBatchOptions minibatch;
  minibatch.seed =
      util::hash_combine(config_.clustering.seed, 0x6d696e69ULL);  // "mini"
  cluster::MiniBatchResult clustered;
  {
    obs::Span span("cluster.scale");
    span.arg("points", m);
    span.arg("k", static_cast<std::uint64_t>(k_eff));
    clustered =
        cluster::minibatch_kmeans(normalized, weights, dims, k_eff, minibatch);
  }
  result.inertia = clustered.inertia;

  // Relabel by descending weighted mass (ties to the lower raw id), the
  // paper's group-'A'-is-largest convention.
  const std::vector<std::uint64_t> counts = result.table.counts();
  std::size_t raw_clusters = 0;
  for (int l : clustered.labels) {
    raw_clusters = std::max(raw_clusters, static_cast<std::size_t>(l) + 1);
  }
  std::vector<std::uint64_t> raw_mass(raw_clusters, 0);
  for (std::size_t t = 0; t < m; ++t) {
    raw_mass[clustered.labels[t]] += counts[t];
  }
  std::vector<int> order(raw_clusters);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return raw_mass[a] != raw_mass[b] ? raw_mass[a] > raw_mass[b] : a < b;
  });
  std::vector<int> relabel(raw_clusters);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    relabel[order[rank]] = static_cast<int>(rank);
  }
  result.shape_labels.resize(m);
  for (std::size_t t = 0; t < m; ++t) {
    result.shape_labels[t] = relabel[clustered.labels[t]];
  }

  // Count-weighted per-group statistics, mirroring the interned sampled
  // path; the medoid is the member shape nearest the group's weighted
  // feature mean (no m x m kernel needed).
  result.groups.resize(static_cast<std::size_t>(k_eff));
  std::vector<double> point_sq(m);
  for (std::size_t t = 0; t < m; ++t) {
    const double norm = normalized[t].norm();
    point_sq[t] = norm * norm;
  }
  for (int g = 0; g < k_eff; ++g) {
    ClusterGroupStats& group_stats = result.groups[static_cast<std::size_t>(g)];
    group_stats.group = g;
    std::vector<double> sizes, depths, widths;
    std::vector<std::uint64_t> member_counts;
    std::uint64_t chains = 0, shorts = 0;
    std::vector<double> center(dims, 0.0);
    double mass = 0.0;
    for (std::size_t t = 0; t < m; ++t) {
      if (result.shape_labels[t] != g) continue;
      group_stats.population += counts[t];
      sizes.push_back(exemplars[t].size());
      depths.push_back(graph::critical_path_length(exemplars[t].dag));
      widths.push_back(graph::max_width(exemplars[t].dag));
      member_counts.push_back(counts[t]);
      if (graph::classify_shape(exemplars[t].dag) ==
          graph::ShapePattern::StraightChain) {
        chains += counts[t];
      }
      if (exemplars[t].size() < 3) shorts += counts[t];
      const double w = weights[t];
      mass += w;
      for (const auto& [id, value] : normalized[t].items) {
        center[static_cast<std::size_t>(id)] += w * value;
      }
    }
    if (mass > 0.0) {
      for (double& v : center) v /= mass;
    }
    double center_sq = 0.0;
    for (double v : center) center_sq += v * v;
    double best = std::numeric_limits<double>::max();
    std::size_t medoid = m;
    for (std::size_t t = 0; t < m; ++t) {
      if (result.shape_labels[t] != g) continue;
      double dot = 0.0;
      for (const auto& [id, value] : normalized[t].items) {
        dot += value * center[static_cast<std::size_t>(id)];
      }
      const double d = point_sq[t] + center_sq - 2.0 * dot;
      if (d < best) {  // strict: ties keep the first-seen (lower-id) shape
        best = d;
        medoid = t;
      }
    }
    if (medoid < m) group_stats.medoid = medoid;
    group_stats.population_fraction =
        result.table.total_jobs == 0
            ? 0.0
            : static_cast<double>(group_stats.population) /
                  static_cast<double>(result.table.total_jobs);
    group_stats.size = util::describe_weighted(sizes, member_counts);
    group_stats.critical_path = util::describe_weighted(depths, member_counts);
    group_stats.parallelism = util::describe_weighted(widths, member_counts);
    group_stats.chain_fraction =
        group_stats.population ? static_cast<double>(chains) /
                                     static_cast<double>(group_stats.population)
                               : 0.0;
    group_stats.short_job_fraction =
        group_stats.population ? static_cast<double>(shorts) /
                                     static_cast<double>(group_stats.population)
                               : 0.0;
  }

  // Validation: the exact spectral pipeline on a shared uniform job
  // subsample. Same-shape jobs have bitwise-identical feature vectors, so
  // the v x v Gram is assembled from shape-level dots — exactly what the
  // sampled pipeline would compute on those jobs.
  std::size_t v = std::min<std::size_t>(
      config_.full_validation_sample,
      static_cast<std::size_t>(result.table.total_jobs));
  v = std::min<std::size_t>(v, cluster::SpectralOptions{}.max_dense_items);
  if (v >= 2 && static_cast<std::size_t>(k_eff) <= v) {
    obs::Span span("pipeline.full_validate");
    span.arg("jobs", v);
    util::Xoshiro256StarStar rng(
        util::hash_combine(config_.sample_seed, 0x66756c6cULL));  // "full"
    std::vector<std::size_t> positions = rng.sample_without_replacement(
        static_cast<std::size_t>(result.table.total_jobs), v);
    std::sort(positions.begin(), positions.end());
    // Map expanded job positions to shapes via cumulative counts: position
    // p belongs to the shape whose cumulative range contains p.
    std::vector<std::uint64_t> cumulative(m);
    std::uint64_t acc = 0;
    for (std::size_t t = 0; t < m; ++t) {
      acc += counts[t];
      cumulative[t] = acc;
    }
    std::vector<std::size_t> sample_shape(v);
    for (std::size_t i = 0; i < v; ++i) {
      const auto it = std::upper_bound(cumulative.begin(), cumulative.end(),
                                       static_cast<std::uint64_t>(positions[i]));
      sample_shape[i] = static_cast<std::size_t>(it - cumulative.begin());
    }
    linalg::Matrix gram(v, v);
    for (std::size_t i = 0; i < v; ++i) {
      gram(i, i) = 1.0;
      for (std::size_t j = i + 1; j < v; ++j) {
        const double value =
            normalized[sample_shape[i]].dot(normalized[sample_shape[j]]);
        gram(i, j) = value;
        gram(j, i) = value;
      }
    }
    cluster::SpectralOptions spectral_options;
    spectral_options.kmeans.seed = config_.clustering.seed;
    const cluster::SpectralResult exact =
        cluster::spectral_cluster(gram, k_eff, spectral_options);
    std::vector<int> full_labels(v);
    for (std::size_t i = 0; i < v; ++i) {
      full_labels[i] = result.shape_labels[sample_shape[i]];
    }
    result.agreement = cluster::measure_agreement(full_labels, exact.labels);
  }
  return result;
}

}  // namespace cwgl::core
