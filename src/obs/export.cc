#include "obs/export.h"

#include <cinttypes>
#include <cstdio>

#include "obs/metrics.h"

namespace nebula {
namespace obs {

namespace {

void AppendU64(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

void AppendI64(std::string* out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  *out += buf;
}

}  // namespace

std::string PromEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        // Other control bytes have no escape in the exposition format; a
        // raw one would corrupt the line protocol, so render it as a
        // visible \xNN token instead.
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\x%02x",
                        static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// `{a="x",b="y"}` (or empty), with `le` appended for histogram buckets.
std::string PromLabels(const Labels& labels, const std::string& le = "") {
  if (labels.empty() && le.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += name;
    out += "=\"";
    out += PromEscape(value);
    out += '"';
  }
  if (!le.empty()) {
    if (!first) out += ',';
    out += "le=\"";
    out += le;
    out += '"';
  }
  out += '}';
  return out;
}

void AppendJsonLabels(std::string* out, const Labels& labels) {
  *out += "\"labels\":{";
  bool first = true;
  for (const auto& [name, value] : labels) {
    if (!first) *out += ',';
    first = false;
    *out += '"';
    *out += JsonEscape(name);
    *out += "\":\"";
    *out += JsonEscape(value);
    *out += '"';
  }
  *out += '}';
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ExportPrometheus(const MetricsRegistry& registry) {
  std::string out;
  for (const auto& family : registry.Snapshot()) {
    if (!family.help.empty()) {
      out += "# HELP " + family.name + " " + family.help + "\n";
    }
    out += "# TYPE " + family.name + " ";
    out += MetricTypeName(family.type);
    out += '\n';
    for (const auto& sample : family.samples) {
      switch (family.type) {
        case MetricType::kCounter:
          out += family.name + PromLabels(sample.labels) + " ";
          AppendU64(&out, sample.counter_value);
          out += '\n';
          break;
        case MetricType::kGauge:
          out += family.name + PromLabels(sample.labels) + " ";
          AppendI64(&out, sample.gauge_value);
          out += '\n';
          break;
        case MetricType::kHistogram: {
          uint64_t cumulative = 0;
          for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
            cumulative += sample.histogram.buckets[b];
            std::string le = "+Inf";
            if (b < Histogram::kNumFinite) {
              le.clear();
              AppendU64(&le, Histogram::BucketUpperBound(b));
            }
            out += family.name + "_bucket" + PromLabels(sample.labels, le) +
                   " ";
            AppendU64(&out, cumulative);
            out += '\n';
          }
          out += family.name + "_sum" + PromLabels(sample.labels) + " ";
          AppendU64(&out, sample.histogram.sum);
          out += '\n';
          out += family.name + "_count" + PromLabels(sample.labels) + " ";
          AppendU64(&out, sample.histogram.count);
          out += '\n';
          // Estimated quantiles as sibling untyped series (histogram
          // families may only carry _bucket/_sum/_count, so the ladder
          // gets its own suffixed names).
          for (const auto& spec : Histogram::kStandardQuantiles) {
            out += family.name + "_" + spec.name +
                   PromLabels(sample.labels) + " ";
            AppendU64(&out, sample.histogram.Quantile(spec.q));
            out += '\n';
          }
          break;
        }
      }
    }
  }
  return out;
}

std::string ExportJson(const MetricsRegistry& registry) {
  std::string out = "{\"metrics\":[";
  bool first_family = true;
  for (const auto& family : registry.Snapshot()) {
    if (!first_family) out += ',';
    first_family = false;
    out += "{\"name\":\"" + JsonEscape(family.name) + "\",\"type\":\"";
    out += MetricTypeName(family.type);
    out += "\",\"help\":\"" + JsonEscape(family.help) + "\",\"samples\":[";
    bool first_sample = true;
    for (const auto& sample : family.samples) {
      if (!first_sample) out += ',';
      first_sample = false;
      out += '{';
      AppendJsonLabels(&out, sample.labels);
      switch (family.type) {
        case MetricType::kCounter:
          out += ",\"value\":";
          AppendU64(&out, sample.counter_value);
          break;
        case MetricType::kGauge:
          out += ",\"value\":";
          AppendI64(&out, sample.gauge_value);
          break;
        case MetricType::kHistogram:
          out += ",\"count\":";
          AppendU64(&out, sample.histogram.count);
          out += ",\"sum\":";
          AppendU64(&out, sample.histogram.sum);
          out += ",\"buckets\":[";
          for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
            if (b > 0) out += ',';
            out += "{\"le\":";
            if (b < Histogram::kNumFinite) {
              AppendU64(&out, Histogram::BucketUpperBound(b));
            } else {
              out += "null";
            }
            out += ",\"count\":";
            AppendU64(&out, sample.histogram.buckets[b]);
            out += '}';
          }
          out += "],\"quantiles\":{";
          bool first_quantile = true;
          for (const auto& spec : Histogram::kStandardQuantiles) {
            if (!first_quantile) out += ',';
            first_quantile = false;
            out += '"';
            out += spec.name;
            out += "\":";
            AppendU64(&out, sample.histogram.Quantile(spec.q));
          }
          out += '}';
          break;
      }
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace nebula
