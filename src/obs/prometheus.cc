#include "src/obs/prometheus.h"

#include <cmath>
#include <cstdio>

namespace pipelsm::obs {

namespace {

// Sample values: integers render without an exponent so counters stay
// exact; everything else gets shortest-round-trip-ish %.17g trimmed to
// %g precision (quantiles are estimates anyway).
void AppendValue(double v, std::string* out) {
  if (std::isnan(v)) {
    out->append("NaN");
    return;
  }
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out->append(buf);
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out->append(buf);
}

// HELP text escaping: backslash and newline (the format's only two).
void AppendHelpEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    if (c == '\\') {
      out->append("\\\\");
    } else if (c == '\n') {
      out->append("\\n");
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

std::string PrometheusMetricName(const std::string& dotted) {
  std::string out;
  out.reserve(dotted.size() + 1);
  for (char c : dotted) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') {
    out.insert(out.begin(), '_');
  }
  return out;
}

void AppendPrometheusLabelValue(const std::string& value, std::string* out) {
  for (char c : value) {
    switch (c) {
      case '\\':
        out->append("\\\\");
        break;
      case '"':
        out->append("\\\"");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        out->push_back(c);
    }
  }
}

PrometheusExposition::Family* PrometheusExposition::Upsert(
    const std::string& family_name, const std::string& help,
    const char* type) {
  Family& f = families_[family_name];
  if (f.help.empty()) f.help = help;
  f.type = type;
  return &f;
}

void PrometheusExposition::AddSample(Family* family,
                                     const std::string& family_name,
                                     const PrometheusLabels& labels,
                                     const char* extra_key,
                                     const std::string& extra_value,
                                     const char* suffix, double value) {
  std::string line = family_name;
  line.append(suffix);
  const bool has_extra = extra_key != nullptr;
  if (!labels.empty() || has_extra) {
    line.push_back('{');
    bool first = true;
    for (const auto& [k, v] : labels) {
      if (!first) line.push_back(',');
      first = false;
      line.append(PrometheusMetricName(k));
      line.append("=\"");
      AppendPrometheusLabelValue(v, &line);
      line.push_back('"');
    }
    if (has_extra) {
      if (!first) line.push_back(',');
      line.append(extra_key);
      line.append("=\"");
      AppendPrometheusLabelValue(extra_value, &line);
      line.push_back('"');
    }
    line.push_back('}');
  }
  line.push_back(' ');
  AppendValue(value, &line);
  family->lines.push_back(std::move(line));
}

void PrometheusExposition::AddRegistry(const MetricsRegistry& registry,
                                       const PrometheusLabels& labels) {
  for (const MetricSample& s : registry.Snapshot()) {
    const std::string family = "pipelsm_" + PrometheusMetricName(s.name);
    switch (s.kind) {
      case MetricSample::Kind::kCounter: {
        Family* f = Upsert(family, s.help, "counter");
        AddSample(f, family, labels, nullptr, "", "",
                  static_cast<double>(s.counter));
        break;
      }
      case MetricSample::Kind::kGauge: {
        Family* f = Upsert(family, s.help, "gauge");
        AddSample(f, family, labels, nullptr, "", "",
                  static_cast<double>(s.gauge));
        break;
      }
      case MetricSample::Kind::kHistogram: {
        Family* f = Upsert(family, s.help, "summary");
        const Histogram& h = s.histogram;
        // Percentile() returns 0 on an empty histogram; never emit a
        // literal `nan`, which breaks strict exposition parsers.
        AddSample(f, family, labels, "quantile", "0.5", "",
                  h.Median());
        AddSample(f, family, labels, "quantile", "0.95", "",
                  h.Percentile(95));
        AddSample(f, family, labels, "quantile", "0.99", "",
                  h.Percentile(99));
        AddSample(f, family, labels, nullptr, "", "_sum", h.Sum());
        AddSample(f, family, labels, nullptr, "", "_count", h.Num());
        break;
      }
    }
  }
}

std::string PrometheusExposition::Render() const {
  std::string out;
  for (const auto& [name, family] : families_) {
    out.append("# HELP ");
    out.append(name);
    out.push_back(' ');
    AppendHelpEscaped(family.help, &out);
    out.push_back('\n');
    out.append("# TYPE ");
    out.append(name);
    out.push_back(' ');
    out.append(family.type);
    out.push_back('\n');
    for (const std::string& line : family.lines) {
      out.append(line);
      out.push_back('\n');
    }
  }
  return out;
}

}  // namespace pipelsm::obs
