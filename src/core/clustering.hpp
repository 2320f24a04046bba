#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/job_dag.hpp"
#include "linalg/matrix.hpp"
#include "util/stats.hpp"

namespace cwgl::core {

/// Per-group statistics behind Figure 9 and the Fig. 8 representatives.
struct ClusterGroupStats {
  int group = 0;                  ///< 0 = 'A' (largest), 1 = 'B', ...
  std::size_t population = 0;     ///< Fig. 9(a)
  double population_fraction = 0.0;
  util::Distribution size;        ///< Fig. 9(b)
  util::Distribution critical_path;  ///< Fig. 9(c)
  util::Distribution parallelism;    ///< Fig. 9(d)
  double chain_fraction = 0.0;       ///< share of straight-chain jobs
  double short_job_fraction = 0.0;   ///< share of jobs with < 3 tasks
  /// Index of the most central member (Fig. 8): an item index from
  /// ClusteringAnalysis::compute, a job index in PipelineResult, a shape id
  /// in FullTraceResult.
  std::size_t medoid = 0;

  /// Letter name used in the paper ('A'..).
  char letter() const noexcept { return static_cast<char>('A' + group); }
};

/// Options for the clustering stage.
struct ClusteringOptions {
  int clusters = 5;           ///< the paper finds five groups
  std::uint64_t seed = 11;    ///< k-means seeding
};

/// Spectral clustering of the similarity map plus group characterization
/// (Section VI). Groups are relabeled by descending population so that
/// group 0 ('A') is always the most populous, matching the paper's naming.
struct ClusteringAnalysis {
  std::vector<int> labels;             ///< group per item (relabeled)
  std::vector<ClusterGroupStats> groups;
  /// Ascending spectrum of L_sym over the expanded sample: the weighted
  /// spectrum plus one eigenvalue 1 per duplicated item.
  std::vector<double> eigenvalues;
  double silhouette = 0.0;             ///< quality in feature-space distance
  int suggested_k = 1;                 ///< eigengap heuristic (max 10)

  /// Clusters `items` (e.g. the distinct shapes of a sample) where item t
  /// stands for `counts[t]` identical jobs and `similarity` is the m x m
  /// kernel over the items. Everything is count-weighted — group masses,
  /// statistics (util::describe_weighted), silhouette, spectrum — so the
  /// result is the analysis of the expanded sample; a plain job list is the
  /// case of unit counts. Labels and medoids are per item. The cluster count
  /// is clamped to the number of items; `groups` always holds
  /// options.clusters entries and unfilled groups report population 0.
  static ClusteringAnalysis compute(const linalg::Matrix& similarity,
                                    std::span<const JobDag> items,
                                    std::span<const std::uint64_t> counts,
                                    const ClusteringOptions& options = {});
};

/// Relabels raw cluster ids (one per item, item t weighing counts[t]) by
/// descending mass, so group 0 ('A') is the most populous. Equal masses
/// order by their earliest member (lowest item index), so the letters
/// depend on the partition alone, not on the ids k-means happened to give.
std::vector<int> relabel_by_mass(std::span<const int> raw_labels,
                                 std::span<const std::uint64_t> counts);

/// Count-weighted statistics of group `group` under per-item `labels`:
/// population, share, size/critical-path/width distributions, chain and
/// short-job fractions. `medoid` is left to the caller.
ClusterGroupStats describe_group(int group, std::span<const JobDag> items,
                                 std::span<const std::uint64_t> counts,
                                 std::span<const int> labels);

}  // namespace cwgl::core
