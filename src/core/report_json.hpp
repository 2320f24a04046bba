#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/resource_report.hpp"
#include "core/topology_census.hpp"

namespace cwgl::core {

/// JSON serializers for every report — machine-readable counterparts of
/// report_text.hpp, intended for external plotting of the figures
/// (similarity matrix included). Each emits one self-contained JSON value.

void write_json(std::ostream& out, const TraceCensus& census);
void write_json(std::ostream& out, const ConflationReport& report);
void write_json(std::ostream& out, const StructuralReport& report);
void write_json(std::ostream& out, const TaskTypeReport& report);
void write_json(std::ostream& out, const PatternCensus& census);
void write_json(std::ostream& out, const SimilarityAnalysis& analysis);
void write_json(std::ostream& out, const ClusteringAnalysis& analysis);
void write_json(std::ostream& out, const TopologyCensus& census);
void write_json(std::ostream& out, const ResourceUsageReport& report);

/// The whole pipeline result as one JSON object keyed by figure
/// ("census", "fig3", "fig4", "fig5", "fig6", "patterns", "fig7", "fig9"),
/// plus "intern" with the sample's shape-table statistics.
void write_json(std::ostream& out, const PipelineResult& result);

/// Observability extras appended to the pipeline report by the CLI.
struct ReportExtras {
  /// Stage name → elapsed milliseconds, emitted in the given order under
  /// the "timings" key. Empty = key omitted.
  std::vector<std::pair<std::string, double>> timings_ms;
  /// Pre-serialized metrics snapshot (MetricsSnapshot::write_json output),
  /// embedded verbatim under the "metrics" key. Empty = key omitted.
  std::string metrics_json;
};

/// Same figure-keyed object with "timings" and "metrics" members appended.
void write_json(std::ostream& out, const PipelineResult& result,
                const ReportExtras& extras);

}  // namespace cwgl::core
