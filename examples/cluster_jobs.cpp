// Reproduces the paper's Section VI workflow in isolation: sample N jobs,
// build the WL similarity map, spectral-cluster into k groups, and write one
// GraphViz file per group medoid (the Fig. 8 representatives).
//
//   ./cluster_jobs [num_jobs_in_trace] [sample_size] [k] [out_dir]
//
// Render the medoids with: for f in group_*.dot; do dot -Tpng $f -o $f.png; done

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/pipeline.hpp"
#include "core/report_text.hpp"
#include "graph/dot.hpp"
#include "trace/generator.hpp"

using namespace cwgl;

int main(int argc, char** argv) {
  const std::size_t num_jobs = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  const std::size_t sample_size = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 100;
  const int k = argc > 3 ? std::atoi(argv[3]) : 5;
  const std::filesystem::path out_dir = argc > 4 ? argv[4] : ".";

  trace::GeneratorConfig gen_cfg;
  gen_cfg.seed = 42;
  gen_cfg.num_jobs = num_jobs;
  gen_cfg.emit_instances = false;
  const trace::Trace data = trace::TraceGenerator(gen_cfg).generate();

  core::PipelineConfig cfg;
  cfg.sample_size = sample_size;
  cfg.clustering.clusters = k;
  const core::CharacterizationPipeline pipeline(cfg);

  util::ThreadPool pool;
  const core::PipelineResult result = pipeline.run(data, &pool);
  const std::vector<core::JobDag>& sample = result.sample;
  const core::ClusteringAnalysis& clustering = result.clustering;
  std::cout << "experiment set: " << sample.size() << " jobs ("
            << result.interned.table.size() << " distinct shapes)\n";

  core::print_clustering_analysis(std::cout, clustering);

  std::filesystem::create_directories(out_dir);
  for (const auto& group : clustering.groups) {
    if (group.population == 0) continue;
    const core::JobDag& medoid = sample[group.medoid];
    const auto path =
        out_dir / ("group_" + std::string(1, group.letter()) + ".dot");
    std::ofstream out(path);
    out << graph::to_dot(medoid.dag, medoid.vertex_names(),
                         "group " + std::string(1, group.letter()) + " — " +
                             medoid.job_name);
    std::cout << "wrote representative of group " << group.letter() << " ("
              << medoid.job_name << ", " << medoid.size() << " tasks) to "
              << path.string() << "\n";
  }
  return 0;
}
