// The paper's motivating use case (Sections I and VIII): use topology-based
// job groups to foresee the resource demands and execution shape of INCOMING
// jobs before they run.
//
// Workflow:
//   1. Characterize a "historical" trace: sample, similarity map, spectral
//      clustering into groups, per-group scheduling profile (parallelism,
//      depth, instance volume).
//   2. A stream of new jobs arrives (different generator seed). Each is
//      classified to the most WL-similar group medoid, and the group profile
//      becomes the scheduling hint.
//   3. Report how close the hinted parallelism/depth are to the ground
//      truth of each incoming job.
//
//   ./scheduler_hints [history_jobs] [incoming_jobs]

#include <cmath>
#include <cstdlib>
#include <iostream>

#include "core/pipeline.hpp"
#include "graph/algorithms.hpp"
#include "kernel/wl.hpp"
#include "sched/simulator.hpp"
#include "trace/generator.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

using namespace cwgl;

namespace {

struct GroupProfile {
  char letter;
  double mean_width;
  double mean_depth;
  double mean_instances;
  core::JobDag medoid;
};

double mean_instances_of(const core::JobDag& job) {
  double total = 0.0;
  for (const auto& t : job.tasks) total += t.instance_num;
  return job.tasks.empty() ? 0.0 : total / static_cast<double>(job.tasks.size());
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t history_jobs =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 10000;
  const std::size_t incoming_jobs =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 200;

  // --- 1. learn groups from history -------------------------------------
  trace::GeneratorConfig hist_cfg;
  hist_cfg.seed = 42;
  hist_cfg.num_jobs = history_jobs;
  hist_cfg.emit_instances = false;
  const trace::Trace history = trace::TraceGenerator(hist_cfg).generate();

  core::PipelineConfig cfg;
  cfg.sample_size = 100;
  cfg.clustering.clusters = 5;
  const core::CharacterizationPipeline pipeline(cfg);
  util::ThreadPool pool;
  const core::PipelineResult result = pipeline.run(history, &pool);
  const std::vector<core::JobDag>& sample = result.sample;
  const core::ClusteringAnalysis& clustering = result.clustering;

  std::vector<GroupProfile> profiles;
  for (const auto& g : clustering.groups) {
    if (g.population == 0) continue;
    profiles.push_back({g.letter(), g.parallelism.mean, g.critical_path.mean,
                        mean_instances_of(sample[g.medoid]), sample[g.medoid]});
    std::cout << "group " << g.letter() << ": " << g.population
              << " jobs, hint = {parallel slots " << util::format_double(g.parallelism.mean, 1)
              << ", pipeline depth " << util::format_double(g.critical_path.mean, 1)
              << "}\n";
  }

  // --- 2. classify incoming jobs against the medoids --------------------
  trace::GeneratorConfig inc_cfg = hist_cfg;
  inc_cfg.seed = 4242;  // unseen stream
  inc_cfg.num_jobs = incoming_jobs * 3;  // some are non-DAG / filtered
  const trace::Trace incoming_trace = trace::TraceGenerator(inc_cfg).generate();
  core::PipelineConfig inc_pipe_cfg;
  inc_pipe_cfg.sample_size = incoming_jobs;
  const auto incoming =
      core::CharacterizationPipeline(inc_pipe_cfg).build_sample(incoming_trace);

  util::RunningSummary width_error, depth_error;
  std::vector<std::size_t> assigned(profiles.size(), 0);
  for (const auto& job : incoming) {
    double best = -1.0;
    std::size_t best_group = 0;
    for (std::size_t g = 0; g < profiles.size(); ++g) {
      const double s = kernel::wl_subtree_similarity(
          job.to_labeled(), profiles[g].medoid.to_labeled());
      if (s > best) {
        best = s;
        best_group = g;
      }
    }
    ++assigned[best_group];
    const auto& hint = profiles[best_group];
    width_error.add(std::abs(hint.mean_width - graph::max_width(job.dag)));
    depth_error.add(
        std::abs(hint.mean_depth - graph::critical_path_length(job.dag)));
  }

  // --- 3. report hint quality -------------------------------------------
  std::cout << "\nclassified " << incoming.size() << " incoming jobs:\n";
  for (std::size_t g = 0; g < profiles.size(); ++g) {
    std::cout << "  -> group " << profiles[g].letter << ": " << assigned[g]
              << "\n";
  }
  std::cout << "hint error, parallelism: mean "
            << util::format_double(width_error.mean(), 2) << " slots (max "
            << util::format_double(width_error.max(), 0) << ")\n";
  std::cout << "hint error, depth:       mean "
            << util::format_double(depth_error.mean(), 2) << " levels (max "
            << util::format_double(depth_error.max(), 0) << ")\n";

  // Baseline for context: hint everyone with the global mean.
  util::RunningSummary global_width, global_depth;
  for (const auto& job : incoming) {
    global_width.add(graph::max_width(job.dag));
    global_depth.add(graph::critical_path_length(job.dag));
  }
  util::RunningSummary naive_width_error, naive_depth_error;
  for (const auto& job : incoming) {
    naive_width_error.add(std::abs(global_width.mean() - graph::max_width(job.dag)));
    naive_depth_error.add(
        std::abs(global_depth.mean() - graph::critical_path_length(job.dag)));
  }
  std::cout << "naive (global-mean) baseline: parallelism "
            << util::format_double(naive_width_error.mean(), 2) << ", depth "
            << util::format_double(naive_depth_error.mean(), 2) << "\n";

  // --- 4. feed the hints into the cluster simulator ----------------------
  // The classified incoming jobs now run on a contended simulated cluster;
  // the group-hint policy orders them by predicted group work.
  std::vector<int> incoming_labels;
  incoming_labels.reserve(incoming.size());
  for (const auto& job : incoming) {
    double best = -1.0;
    int best_group = 0;
    for (std::size_t g = 0; g < profiles.size(); ++g) {
      const double s = kernel::wl_subtree_similarity(
          job.to_labeled(), profiles[g].medoid.to_labeled());
      if (s > best) {
        best = s;
        best_group = static_cast<int>(g);
      }
    }
    incoming_labels.push_back(best_group);
  }
  auto sim_jobs = sched::jobs_from_dags(incoming, /*inter_arrival=*/0.5);
  sched::attach_hints(sim_jobs, incoming_labels);
  const auto sim_profiles = sched::profiles_from_groups(
      sample, clustering.labels, static_cast<int>(clustering.groups.size()));

  sched::SimulatorConfig sim_cfg;
  sim_cfg.machines = 2;
  const sched::Simulator simulator(sim_cfg);
  const sched::FifoPolicy fifo;
  const sched::GroupHintPolicy hint_policy;
  const auto fifo_run = simulator.run(sim_jobs, fifo, sim_profiles);
  const auto hint_run = simulator.run(sim_jobs, hint_policy, sim_profiles);
  std::cout << "\nsimulated contended cluster (" << sim_cfg.machines
            << " machines):\n";
  std::cout << "  fifo       mean JCT " << util::format_double(fifo_run.mean_jct, 1)
            << "s, makespan " << util::format_double(fifo_run.makespan, 0)
            << "s\n";
  std::cout << "  group-hint mean JCT " << util::format_double(hint_run.mean_jct, 1)
            << "s, makespan " << util::format_double(hint_run.makespan, 0)
            << "s\n";
  return 0;
}
