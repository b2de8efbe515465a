// Prometheus text exposition (version 0.0.4) for the metrics registry —
// the /metrics payload of the admin HTTP endpoint (docs/OBSERVABILITY.md
// "Admin endpoint & Prometheus exposition").
//
// The registry's dotted instrument names ("server.conns_total") become
// prometheus metric families ("pipelsm_server_conns_total"); an
// exposition is built from one or more registries, each tagged with a
// label set — the fleet observability plane renders every shard engine's
// registry with {shard="N"} plus the fleet registry (arbiter + server
// instruments) unlabeled, so one scrape carries per-shard granularity.
//
// Instrument mapping:
//   Counter    -> `counter` family, one sample per label set
//   Gauge      -> `gauge` family
//   Histogram  -> `summary` family: quantile-labeled samples at
//                 quantile="0.5"/"0.95"/"0.99" plus `_sum` and `_count`
// Every series is a registry instrument: a per-shard total is an
// engine's own instrument under its {shard="N"} label, and an
// enum-valued state is a numeric gauge (db.write_stall_state,
// advisor.regime).
//
// Families are emitted sorted by name, each preceded by exactly one
// # HELP / # TYPE pair; label values are escaped per the exposition
// format (backslash, double-quote, newline). A scrape therefore passes
// promtool-style conformance checks (the CI obs-smoke job runs one).
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

namespace pipelsm::obs {

// "db.write_group_size" -> "pipelsm_db_write_group_size".
// Any byte outside [a-zA-Z0-9_:] becomes '_'; a leading digit gets a '_'
// prefix. Names are already prefixed "pipelsm_" by the exposition.
std::string PrometheusMetricName(const std::string& dotted);

// Escapes `value` for use inside a label value: \ -> \\, " -> \", and
// newline -> \n.
void AppendPrometheusLabelValue(const std::string& value, std::string* out);

// A label set, ordered as given (e.g. {{"shard", "0"}}).
using PrometheusLabels = std::vector<std::pair<std::string, std::string>>;

class PrometheusExposition {
 public:
  PrometheusExposition() = default;

  // Adds every instrument of `registry`, with `labels` on each sample.
  void AddRegistry(const MetricsRegistry& registry,
                   const PrometheusLabels& labels);

  // The exposition document: families sorted by name, one HELP/TYPE pair
  // per family, then its samples in insertion order. Text ends with a
  // newline (required by the format).
  std::string Render() const;

 private:
  struct Family {
    std::string help;
    const char* type = "gauge";
    std::vector<std::string> lines;  // complete sample lines, no '\n'
  };

  Family* Upsert(const std::string& family_name, const std::string& help,
                 const char* type);
  void AddSample(Family* family, const std::string& family_name,
                 const PrometheusLabels& labels, const char* extra_key,
                 const std::string& extra_value, const char* suffix,
                 double value);

  std::map<std::string, Family> families_;
};

}  // namespace pipelsm::obs
