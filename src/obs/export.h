#ifndef NEBULA_OBS_EXPORT_H_
#define NEBULA_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"

namespace nebula {
namespace obs {

enum class ExportFormat { kPrometheus, kJson };

/// Prometheus text exposition format (v0.0.4): `# HELP` / `# TYPE`
/// headers per family, cumulative `_bucket{le=...}` series plus `_sum` /
/// `_count` for histograms. Output is deterministic: families sorted by
/// name, samples by label set.
std::string ExportPrometheus(const MetricsRegistry& registry);

/// The same snapshot as a JSON document:
///   {"metrics":[{"name":...,"type":...,"help":...,"samples":[...]}]}
/// Histogram samples carry non-cumulative per-bucket counts with their
/// upper bounds (the last bucket's bound is null = +Inf).
std::string ExportJson(const MetricsRegistry& registry);

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string JsonEscape(const std::string& s);

/// Prometheus label-value escaping: backslash, double quote, newline get
/// their exposition-format escapes; any other control byte (< 0x20) is
/// rendered as a visible \xNN token so it cannot corrupt the line
/// protocol.
std::string PromEscape(const std::string& s);

}  // namespace obs
}  // namespace nebula

#endif  // NEBULA_OBS_EXPORT_H_
