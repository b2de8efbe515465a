#include "src/obs/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "src/util/json_writer.h"

namespace pipelsm::obs {

Counter* MetricsRegistry::RegisterCounter(const std::string& name,
                                          const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second.kind != Kind::kCounter) return nullptr;
    return &counters_[it->second.index];
  }
  counters_.emplace_back();
  entries_.emplace(name, Entry{Kind::kCounter, counters_.size() - 1, help});
  return &counters_.back();
}

Gauge* MetricsRegistry::RegisterGauge(const std::string& name,
                                      const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second.kind != Kind::kGauge) return nullptr;
    return &gauges_[it->second.index];
  }
  gauges_.emplace_back();
  entries_.emplace(name, Entry{Kind::kGauge, gauges_.size() - 1, help});
  return &gauges_.back();
}

HistogramMetric* MetricsRegistry::RegisterHistogram(const std::string& name,
                                                    const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second.kind != Kind::kHistogram) return nullptr;
    return &histograms_[it->second.index];
  }
  histograms_.emplace_back();
  entries_.emplace(name, Entry{Kind::kHistogram, histograms_.size() - 1, help});
  return &histograms_.back();
}

std::string MetricsRegistry::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char buf[160];
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        std::snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n", name.c_str(),
                      counters_[entry.index].value());
        out.append(buf);
        break;
      case Kind::kGauge:
        std::snprintf(buf, sizeof(buf), "%s %" PRId64 "\n", name.c_str(),
                      gauges_[entry.index].value());
        out.append(buf);
        break;
      case Kind::kHistogram: {
        const Histogram h = histograms_[entry.index].Snapshot();
        std::snprintf(buf, sizeof(buf),
                      "%s count=%.0f avg=%.1f p50=%.1f p95=%.1f p99=%.1f "
                      "max=%.1f\n",
                      name.c_str(), h.Num(), h.Average(), h.Median(),
                      h.Percentile(95), h.Percentile(99), h.Max());
        out.append(buf);
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  static constexpr std::pair<Kind, const char*> kSections[] = {
      {Kind::kCounter, "counters"},
      {Kind::kGauge, "gauges"},
      {Kind::kHistogram, "histograms"}};
  for (const auto& [kind, section] : kSections) {
    w.Key(section).BeginObject();
    for (const auto& [name, entry] : entries_) {
      if (entry.kind != kind) continue;
      w.Key(name);
      if (kind == Kind::kCounter) {
        w.Uint(counters_[entry.index].value());
      } else if (kind == Kind::kGauge) {
        w.Int(gauges_[entry.index].value());
      } else {
        // Summary format and percentile math live in util::Histogram, so
        // the registry and the bench reports can never disagree.
        std::string summary;
        histograms_[entry.index].Snapshot().SummaryToJson(&summary);
        w.Raw(summary);
      }
    }
    w.EndObject();
  }
  w.EndObject();
  return out;
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    MetricSample s;
    s.name = name;
    s.help = entry.help;
    switch (entry.kind) {
      case Kind::kCounter:
        s.kind = MetricSample::Kind::kCounter;
        s.counter = counters_[entry.index].value();
        break;
      case Kind::kGauge:
        s.kind = MetricSample::Kind::kGauge;
        s.gauge = gauges_[entry.index].value();
        break;
      case Kind::kHistogram:
        s.kind = MetricSample::Kind::kHistogram;
        s.histogram = histograms_[entry.index].Snapshot();
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace pipelsm::obs
