#include "obs/export.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/json.hpp"

namespace aed {

namespace {

/// Prometheus metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string sanitizeName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

std::string formatDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  char buffer[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(v));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  }
  return buffer;
}

const char* kindName(MetricsRegistry::Kind kind) {
  switch (kind) {
    case MetricsRegistry::Kind::kCounter: return "counter";
    case MetricsRegistry::Kind::kHistogram: return "histogram";
  }
  return "counter";
}

}  // namespace

std::string metricsToPrometheus(
    const std::vector<MetricsRegistry::Sample>& samples) {
  std::string out;
  for (const MetricsRegistry::Sample& sample : samples) {
    const std::string name = sanitizeName(sample.name);
    out += "# TYPE " + name + " " + kindName(sample.kind) + "\n";
    if (sample.kind != MetricsRegistry::Kind::kHistogram) {
      out += name + " " + formatDouble(sample.value) + "\n";
      continue;
    }
    // Cumulative buckets: emit a series for every non-empty bucket (its
    // upper edge as `le`) and always the +Inf bucket, per the exposition
    // format's requirement that le="+Inf" equals `_count`.
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < sample.buckets.size(); ++i) {
      if (sample.buckets[i] == 0) continue;
      cumulative += sample.buckets[i];
      const double edge = MetricsRegistry::bucketUpperBound(i);
      if (std::isinf(edge)) continue;  // folded into +Inf below
      out += name + "_bucket{le=\"" + formatDouble(edge) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(sample.count) +
           "\n";
    out += name + "_sum " + formatDouble(sample.sum) + "\n";
    out += name + "_count " + std::to_string(sample.count) + "\n";
  }
  return out;
}

std::string metricsToJson(
    const std::vector<MetricsRegistry::Sample>& samples) {
  std::string out = "{\n  \"metrics\": ";
  out += metricsToJsonArray(samples);
  out += "\n}\n";
  return out;
}

std::string metricsToJsonArray(
    const std::vector<MetricsRegistry::Sample>& samples) {
  std::string out = "[";
  bool first = true;
  for (const MetricsRegistry::Sample& sample : samples) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"" + jsonEscape(sample.name) + "\", \"kind\": \"";
    out += kindName(sample.kind);
    out += "\"";
    if (sample.kind != MetricsRegistry::Kind::kHistogram) {
      out += ", \"value\": " + formatDouble(sample.value) + "}";
      continue;
    }
    out += ", \"count\": " + std::to_string(sample.count);
    out += ", \"sum\": " + formatDouble(sample.sum);
    out += ", \"p50\": " + formatDouble(MetricsRegistry::quantile(sample, 0.50));
    out += ", \"p90\": " + formatDouble(MetricsRegistry::quantile(sample, 0.90));
    out += ", \"p99\": " + formatDouble(MetricsRegistry::quantile(sample, 0.99));
    out += ", \"buckets\": [";
    bool firstBucket = true;
    for (std::size_t i = 0; i < sample.buckets.size(); ++i) {
      if (sample.buckets[i] == 0) continue;
      if (!firstBucket) out += ", ";
      firstBucket = false;
      const double hi = MetricsRegistry::bucketUpperBound(i);
      out += "[";
      out += formatDouble(MetricsRegistry::bucketLowerBound(i));
      out += ", ";
      out += std::isinf(hi) ? "null" : formatDouble(hi);
      out += ", ";
      out += std::to_string(sample.buckets[i]);
      out += "]";
    }
    out += "]}";
  }
  out += "\n  ]";
  return out;
}

bool exportMetricsFile(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<MetricsRegistry::Sample> samples =
      MetricsRegistry::global().snapshot();
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  out << (json ? metricsToJson(samples) : metricsToPrometheus(samples));
  return static_cast<bool>(out);
}

}  // namespace aed
