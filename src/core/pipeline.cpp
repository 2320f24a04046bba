#include "core/pipeline.hpp"

#include <utility>

#include "obs/tracer.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::core {

namespace {

std::vector<JobDag> build_jobs_from_groups(
    const trace::Trace& trace, const trace::TraceIndex& index,
    std::span<const std::size_t> group_indices) {
  std::vector<JobDag> jobs;
  jobs.reserve(group_indices.size());
  for (std::size_t g : group_indices) {
    const trace::JobGroup& group = index.jobs()[g];
    std::vector<trace::TaskRecord> records;
    records.reserve(group.tasks.size());
    for (std::size_t i : group.tasks) records.push_back(trace.tasks[i]);
    if (auto job = build_job_dag(group.job_name, records)) {
      jobs.push_back(std::move(*job));
    }
  }
  return jobs;
}

}  // namespace

CharacterizationPipeline::CharacterizationPipeline(PipelineConfig config)
    : config_(std::move(config)) {}

std::vector<JobDag> CharacterizationPipeline::build_sample(
    const trace::Trace& trace) const {
  const trace::TraceIndex index(trace);
  const auto eligible = trace::select_jobs(index, config_.criteria);
  const auto picked =
      config_.sampling == SamplingMode::Natural
          ? trace::natural_sample(eligible, config_.sample_size,
                                  config_.sample_seed)
          : trace::variability_sample(index, eligible, config_.sample_size,
                                      config_.sample_seed);
  return build_jobs_from_groups(trace, index, picked);
}

PipelineResult CharacterizationPipeline::run(const trace::Trace& trace,
                                             util::ThreadPool* pool,
                                             FittedFeatures* fitted) const {
  obs::Span pipeline_span("pipeline.run");
  PipelineResult result;
  {
    obs::Span span("pipeline.census");
    result.census = TraceCensus::compute(trace);
  }
  {
    obs::Span span("pipeline.sample");
    result.sample = build_sample(trace);
    span.arg("jobs", result.sample.size());
  }

  // Everything after sampling runs once per distinct shape, count-weighted;
  // per-job outputs (Fig. 6 rows, the Gram matrix, labels) are expanded back.
  InternedAnalysis& interned = result.interned;
  {
    obs::Span span("pipeline.intern");
    ShapeStore store;
    std::vector<const ShapeStore::Node*> handles;
    handles.reserve(result.sample.size());
    for (std::size_t i = 0; i < result.sample.size(); ++i) {
      handles.push_back(store.intern(result.sample[i], i));
    }
    ShapeStore::FrozenView view = store.freeze_with_ids();
    interned.table = std::move(view.table);
    interned.shape_of.reserve(handles.size());
    for (const ShapeStore::Node* node : handles) {
      interned.shape_of.push_back(view.id_of.at(node));
    }
    interned.stats = store.stats();
    span.arg("jobs", result.sample.size());
    span.arg("shapes", interned.table.size());
  }
  const std::vector<JobDag>& exemplars = interned.table.exemplars;
  const std::vector<std::uint64_t> counts = interned.table.counts();

  {
    obs::Span span("pipeline.structure");
    result.conflation = ConflationReport::compute(exemplars, counts);
    result.structure_before = StructuralReport::compute(exemplars, counts);
  }

  std::vector<JobDag> conflated(exemplars.size());
  {
    obs::Span span("pipeline.conflation");
    span.arg("shapes", conflated.size());
    const auto conflate_range = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        conflated[i] = conflate_job(exemplars[i]);
      }
    };
    if (pool != nullptr) {
      util::parallel_for_chunked(*pool, 0, conflated.size(), 16, conflate_range);
    } else {
      conflate_range(0, conflated.size());
    }
    result.structure_after = StructuralReport::compute(conflated, counts);
  }

  {
    obs::Span span("pipeline.task_types");
    result.task_types = TaskTypeReport::compute(exemplars, counts);
    result.patterns = PatternCensus::compute(exemplars, counts);
    // Fig. 6 lists every sampled job: its shape's row under its own name.
    const std::vector<TaskTypeRow> shape_rows =
        std::move(result.task_types.rows);
    result.task_types.rows.clear();
    result.task_types.rows.reserve(result.sample.size());
    for (std::size_t i = 0; i < result.sample.size(); ++i) {
      TaskTypeRow& row = result.task_types.rows.emplace_back(
          shape_rows[interned.shape_of[i]]);
      row.job_name = result.sample[i].job_name;
    }
  }

  const std::vector<JobDag>& analysis_shapes =
      config_.analyze_conflated ? conflated : exemplars;
  {
    obs::Span span("pipeline.similarity");
    span.arg("shapes", analysis_shapes.size());
    interned.shape_gram = SimilarityAnalysis::compute(
        analysis_shapes, config_.similarity, pool, fitted).gram;
  }

  {
    obs::Span span("pipeline.clustering");
    result.clustering = ClusteringAnalysis::compute(
        interned.shape_gram, analysis_shapes, counts, config_.clustering);
  }
  // Map the per-shape clustering back to jobs: a job's label is its shape's
  // label, and a group's medoid is the first job of its medoid shape (the
  // shape's first sequence number, since job i was interned as sequence i).
  {
    const std::vector<int> shape_labels =
        std::exchange(result.clustering.labels, {});
    result.clustering.labels.reserve(result.sample.size());
    for (std::uint32_t t : interned.shape_of) {
      result.clustering.labels.push_back(shape_labels[t]);
    }
    for (ClusterGroupStats& group : result.clustering.groups) {
      group.medoid = static_cast<std::size_t>(
          interned.table.shapes[group.medoid].first_seq);
    }
  }

  // Expand the shape kernel back to the per-job Gram: same-shape jobs have
  // bitwise-identical WL feature vectors, so this is the matrix a per-job
  // kernel would compute.
  const std::size_t n = result.sample.size();
  result.similarity.gram = linalg::Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      result.similarity.gram(i, j) =
          interned.shape_gram(interned.shape_of[i], interned.shape_of[j]);
    }
  }
  result.similarity.job_names.reserve(n);
  for (const JobDag& job : result.sample) {
    result.similarity.job_names.push_back(job.job_name);
  }
  pipeline_span.arg("sampled_jobs", n);
  pipeline_span.arg("distinct_shapes", interned.table.size());
  return result;
}

std::vector<JobDag> CharacterizationPipeline::build_all_dags(
    std::istream& task_csv, util::ThreadPool* pool, IngestStats* stats) const {
  return build_all_dag_jobs(task_csv, config_.criteria, pool, stats);
}

std::vector<JobDag> build_all_dag_jobs(const trace::Trace& trace,
                                       const trace::SamplingCriteria& criteria) {
  const trace::TraceIndex index(trace);
  const auto eligible = trace::select_jobs(index, criteria);
  return build_jobs_from_groups(trace, index, eligible);
}

std::vector<JobDag> build_all_dag_jobs(std::istream& task_csv,
                                       const trace::SamplingCriteria& criteria,
                                       util::ThreadPool* pool,
                                       IngestStats* stats) {
  IngestOptions options;
  options.criteria = criteria;
  return stream_dag_jobs(task_csv, options, pool, stats);
}

}  // namespace cwgl::core
