// Machine-readable exposition over MetricsRegistry snapshots:
// Prometheus text format (scrapeable, validated by
// tools/check_metrics.py) and a JSON mirror of the same snapshot for
// ad-hoc tooling.  Pure functions over FamilySnapshot vectors — no
// locking here, callers pass a snapshot() result.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"

namespace topk::telemetry {

/// Escapes `\`, `"`, and control characters for a JSON string literal.
[[nodiscard]] std::string json_escape(const std::string& text);

/// Prometheus text format, version 0.0.4: per family a `# HELP` (when
/// non-empty) and `# TYPE` line, then one sample line per series.
/// Histograms expand into cumulative `_bucket{le="..."}` lines ending
/// with `le="+Inf"`, plus `_sum` and `_count`.
void write_prometheus(std::ostream& out,
                      const std::vector<FamilySnapshot>& families);

/// JSON mirror: {"metrics":[{"name","type","help","series":[{"labels":
/// {...},"value":...}|{"labels":{...},"count","sum","buckets":[{"le",
/// "count"}...]}]}]}.  Bucket counts here are per-bucket (NOT
/// cumulative) — the raw snapshot, not the scrape encoding.
void write_json(std::ostream& out,
                const std::vector<FamilySnapshot>& families);

}  // namespace topk::telemetry
