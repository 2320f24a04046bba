// Golden-output pin for CharacterizationPipeline::run. Each file under
// tests/data/pipeline_golden/ was recorded from the earlier per-job
// pipeline, which ran every stage once per sampled job: the whole report
// of write_json (every figure, with the cluster labels and group statistics
// under "fig9") plus the Laplacian spectrum under "eigenvalues". run()
// interns the sample and runs each stage once per distinct shape,
// count-weighted; it must reproduce those recordings exactly, apart from
// the "intern" member it adds and eigensolver round-off in the spectrum.
// The three configurations cover both sampling modes, different cluster
// counts and WL depths, and the conflated ablation. The suite keeps its
// name: it is still the interned-vs-per-job differential, with the per-job
// side replayed from its recordings.

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>

#include "core/pipeline.hpp"
#include "core/report_json.hpp"
#include "trace/generator.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::core {
namespace {

trace::Trace make_trace(std::size_t jobs, std::uint64_t seed) {
  trace::GeneratorConfig cfg;
  cfg.num_jobs = jobs;
  cfg.seed = seed;
  cfg.emit_instances = false;
  return trace::TraceGenerator(cfg).generate();
}

util::JsonValue recording(const std::string& name) {
  std::ifstream in(std::string(CWGL_TEST_DATA_DIR) + "/pipeline_golden/" +
                   name);
  EXPECT_TRUE(in.is_open()) << name;
  std::ostringstream text;
  text << in.rdbuf();
  return util::parse_json(text.str());
}

void expect_matches_recording(const PipelineConfig& cfg,
                              const trace::Trace& data,
                              const std::string& name) {
  SCOPED_TRACE(name);
  util::ThreadPool pool;
  const PipelineResult result = CharacterizationPipeline(cfg).run(data, &pool);
  std::ostringstream out;
  write_json(out, result);
  const util::JsonValue report = util::parse_json(out.str());
  const util::JsonValue golden = recording(name);

  // Every recorded member, compared as re-serialized JSON so numbers are
  // held to the precision the report prints them at.
  const util::JsonValue::Object& recorded = golden.at("report").as_object();
  for (const auto& [key, value] : recorded) {
    ASSERT_TRUE(report.contains(key)) << key;
    EXPECT_EQ(util::to_json_string(report.at(key)),
              util::to_json_string(value))
        << key;
  }
  // The one member the recordings lack: the sample's shape-table stats.
  EXPECT_EQ(report.as_object().size(), recorded.size() + 1);
  EXPECT_EQ(report.at("intern").at("total_jobs").as_number(),
            static_cast<double>(result.sample.size()));
  EXPECT_LE(result.interned.table.size(), result.sample.size());

  const util::JsonValue::Array& eigenvalues =
      golden.at("eigenvalues").as_array();
  ASSERT_EQ(result.clustering.eigenvalues.size(), eigenvalues.size());
  for (std::size_t i = 0; i < eigenvalues.size(); ++i) {
    EXPECT_NEAR(result.clustering.eigenvalues[i], eigenvalues[i].as_number(),
                1e-8)
        << "eigenvalue " << i;
  }
}

TEST(InternDifferential, PaperMixVariabilitySample) {
  PipelineConfig cfg;
  cfg.sample_size = 60;
  cfg.clustering.clusters = 5;
  expect_matches_recording(cfg, make_trace(1200, 42),
                           "paper_mix_variability.json");
}

TEST(InternDifferential, NaturalSamplingDifferentSeedAndK) {
  PipelineConfig cfg;
  cfg.sample_size = 50;
  cfg.sampling = SamplingMode::Natural;
  cfg.clustering.clusters = 3;
  cfg.similarity.wl.iterations = 2;
  expect_matches_recording(cfg, make_trace(900, 1234),
                           "natural_seed1234.json");
}

TEST(InternDifferential, ConflatedAblation) {
  PipelineConfig cfg;
  cfg.sample_size = 50;
  cfg.clustering.clusters = 4;
  cfg.analyze_conflated = true;
  expect_matches_recording(cfg, make_trace(1000, 7),
                           "conflated_ablation.json");
}

}  // namespace
}  // namespace cwgl::core
