#include "model/fit.hpp"

#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace cwgl::model {

namespace {

ClusterProfile make_profile(const core::ClusterGroupStats& g) {
  ClusterProfile p;
  p.population = g.population;
  p.population_fraction = g.population_fraction;
  p.mean_size = g.size.mean;
  p.median_size = g.size.median;
  p.mean_critical_path = g.critical_path.mean;
  p.median_critical_path = g.critical_path.median;
  p.mean_width = g.parallelism.mean;
  p.median_width = g.parallelism.median;
  p.chain_fraction = g.chain_fraction;
  p.short_job_fraction = g.short_job_fraction;
  return p;
}

/// One representative per distinct shape of `table`: shape t joins cluster
/// `shape_labels[t]` under fit-time sequence number `training_index[t]`,
/// carrying the shape's multiplicity. Group medoids are given in the same
/// sequence and remapped to positions inside their cluster's list.
FittedModel assemble(const core::ShapeTable& table,
                     std::span<const int> shape_labels,
                     std::span<const std::uint64_t> training_index,
                     std::span<const core::ClusterGroupStats> groups,
                     core::FittedFeatures fitted,
                     const core::PipelineConfig& config) {
  FittedModel m;
  m.wl = config.similarity.wl;
  m.use_type_labels = config.similarity.use_type_labels;
  m.normalize = config.similarity.normalize;
  m.conflated = config.analyze_conflated;
  m.dictionary = std::move(fitted.dictionary);

  m.profiles.reserve(groups.size());
  for (const core::ClusterGroupStats& g : groups) {
    m.profiles.push_back(make_profile(g));
  }
  m.representatives.resize(m.profiles.size());

  for (std::size_t t = 0; t < table.size(); ++t) {
    const int group = shape_labels[t];
    if (group < 0 || static_cast<std::size_t>(group) >= m.profiles.size()) {
      throw ModelError("model: cluster label out of range for shape " +
                       std::to_string(t));
    }
    Representative rep;
    rep.job_name = table.exemplars[t].job_name;
    rep.training_index = training_index[t];
    rep.count = table.shapes[t].count;
    rep.features = std::move(fitted.vectors[t]);
    rep.self_norm = rep.features.norm();
    m.representatives[static_cast<std::size_t>(group)].push_back(
        std::move(rep));
  }

  for (std::size_t c = 0; c < groups.size(); ++c) {
    const std::size_t medoid = groups[c].medoid;
    const auto& reps = m.representatives[c];
    for (std::size_t r = 0; r < reps.size(); ++r) {
      if (reps[r].training_index == medoid) {
        m.profiles[c].medoid = r;
        break;
      }
    }
  }

  m.validate();
  return m;
}

}  // namespace

FittedModel build_model(const core::PipelineResult& result,
                        core::FittedFeatures fitted,
                        const core::PipelineConfig& config) {
  const auto& clustering = result.clustering;
  const core::InternedAnalysis& interned = result.interned;
  const std::size_t shapes = interned.table.size();
  if (shapes == 0) {
    throw ModelError("model: cannot fit on an empty analysis set");
  }
  if (fitted.vectors.size() != shapes ||
      clustering.labels.size() != interned.shape_of.size()) {
    throw ModelError(
        "model: fitted features, clustering labels, and the shape table "
        "disagree on the analysis-set size — results from different runs?");
  }

  // The fitted vectors are per distinct shape, the clustering labels per
  // job. Each shape's exemplar is a literal copy of its first sampled job,
  // so that job's index is the shape's training index, and group medoids
  // (first-job indices of medoid shapes) resolve in the same sequence.
  constexpr std::uint64_t kUnseen = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> first_job(shapes, kUnseen);
  std::vector<int> shape_label(shapes, -1);
  for (std::size_t i = 0; i < interned.shape_of.size(); ++i) {
    const std::uint32_t t = interned.shape_of[i];
    if (t >= shapes) {
      throw ModelError("model: shape id out of range in interned result");
    }
    if (first_job[t] == kUnseen) {
      first_job[t] = i;
      shape_label[t] = clustering.labels[i];
    }
  }
  return assemble(interned.table, shape_label, first_job, clustering.groups,
                  std::move(fitted), config);
}

FittedModel build_model_full(const core::FullTraceResult& result,
                             core::FittedFeatures fitted,
                             const core::PipelineConfig& config) {
  const std::size_t shapes = result.table.size();
  if (shapes == 0) {
    throw ModelError("model: cannot fit on an empty full-trace result");
  }
  if (fitted.vectors.size() != shapes ||
      result.shape_labels.size() != shapes) {
    throw ModelError(
        "model: fitted features, shape labels, and the shape table disagree "
        "on the distinct-shape count — results from different runs?");
  }
  // Training indices address the fit-time sequence; on a full-trace fit
  // that sequence is the shape table itself, so the shape id works (dense,
  // unique, < training_weight()), and group medoids are shape ids already.
  std::vector<std::uint64_t> shape_ids(shapes);
  std::iota(shape_ids.begin(), shape_ids.end(), std::uint64_t{0});
  return assemble(result.table, result.shape_labels, shape_ids, result.groups,
                  std::move(fitted), config);
}

}  // namespace cwgl::model
