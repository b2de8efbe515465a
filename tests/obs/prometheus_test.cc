// Conformance tests for the Prometheus text exposition renderer: the
// contract is "a scraper that implements the 0.0.4 text format parses
// this", so the tests parse rendered output line by line rather than
// substring-matching whole documents.
#include "src/obs/prometheus.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/obs/metrics.h"

namespace pipelsm::obs {
namespace {

struct ParsedSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0;
  bool is_nan = false;
};

struct ParsedExposition {
  std::map<std::string, std::string> help;  // family -> HELP text
  std::map<std::string, std::string> type;  // family -> TYPE
  std::vector<ParsedSample> samples;
};

// Strict single-purpose parser for the subset of the exposition format
// the renderer can emit. Fails the test on any malformed line; call via
// ASSERT_NO_FATAL_FAILURE (ASSERT_* needs a void function).
void ParseExpositionInto(const std::string& text, ParsedExposition* outp) {
  ParsedExposition& out = *outp;
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n') << "exposition must end with a newline";
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0) {
      const size_t sp = line.find(' ', 7);
      ASSERT_NE(sp, std::string::npos) << line;
      out.help[line.substr(7, sp - 7)] = line.substr(sp + 1);
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const size_t sp = line.find(' ', 7);
      ASSERT_NE(sp, std::string::npos) << line;
      out.type[line.substr(7, sp - 7)] = line.substr(sp + 1);
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment line: " << line;
    ParsedSample sample;
    size_t pos = 0;
    while (pos < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[pos])) ||
            line[pos] == '_' || line[pos] == ':')) {
      pos++;
    }
    ASSERT_GT(pos, 0u) << line;
    sample.name = line.substr(0, pos);
    if (pos < line.size() && line[pos] == '{') {
      pos++;
      while (line[pos] != '}') {
        size_t eq = line.find('=', pos);
        ASSERT_NE(eq, std::string::npos) << line;
        const std::string key = line.substr(pos, eq - pos);
        ASSERT_EQ(line[eq + 1], '"') << line;
        pos = eq + 2;
        std::string value;
        while (line[pos] != '"') {
          if (line[pos] == '\\') {
            pos++;
            ASSERT_LT(pos, line.size()) << line;
            if (line[pos] == 'n') {
              value.push_back('\n');
            } else {
              value.push_back(line[pos]);  // \\ and \"
            }
          } else {
            value.push_back(line[pos]);
          }
          pos++;
          ASSERT_LT(pos, line.size()) << "unterminated label value: " << line;
        }
        pos++;  // closing quote
        sample.labels[key] = value;
        if (line[pos] == ',') pos++;
      }
      pos++;  // closing brace
    }
    ASSERT_EQ(line[pos], ' ') << line;
    const std::string value_text = line.substr(pos + 1);
    ASSERT_FALSE(value_text.empty()) << line;
    if (value_text == "NaN") {
      sample.is_nan = true;
    } else {
      char* end = nullptr;
      sample.value = std::strtod(value_text.c_str(), &end);
      ASSERT_EQ(*end, '\0') << "trailing junk in value: " << line;
    }
    out.samples.push_back(std::move(sample));
  }
}

std::vector<ParsedSample> SamplesNamed(const ParsedExposition& exp,
                                       const std::string& name) {
  std::vector<ParsedSample> out;
  for (const ParsedSample& s : exp.samples) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

TEST(PrometheusNameTest, SanitizesDottedNames) {
  EXPECT_EQ(PrometheusMetricName("server.conns_total"), "server_conns_total");
  EXPECT_EQ(PrometheusMetricName("db.get.micros"), "db_get_micros");
  EXPECT_EQ(PrometheusMetricName("weird-name!x"), "weird_name_x");
  EXPECT_EQ(PrometheusMetricName("9lives"), "_9lives");
  EXPECT_EQ(PrometheusMetricName("a:b"), "a:b");
}

TEST(PrometheusNameTest, LabelValueEscaping) {
  std::string out;
  AppendPrometheusLabelValue("plain", &out);
  EXPECT_EQ(out, "plain");
  out.clear();
  AppendPrometheusLabelValue("a\\b\"c\nd", &out);
  EXPECT_EQ(out, "a\\\\b\\\"c\\nd");
}

TEST(PrometheusExpositionTest, CountersAndGaugesRenderWithHelpAndType) {
  MetricsRegistry registry;
  registry.RegisterCounter("server.requests", "Requests served")->Add(42);
  registry.RegisterGauge("server.conns_active", "Open connections")->Set(-3);

  PrometheusExposition exp;
  exp.AddRegistry(registry, {});
  ParsedExposition parsed;
  ASSERT_NO_FATAL_FAILURE(ParseExpositionInto(exp.Render(), &parsed));

  EXPECT_EQ(parsed.type.at("pipelsm_server_requests"), "counter");
  EXPECT_EQ(parsed.help.at("pipelsm_server_requests"), "Requests served");
  EXPECT_EQ(parsed.type.at("pipelsm_server_conns_active"), "gauge");

  auto requests = SamplesNamed(parsed, "pipelsm_server_requests");
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].value, 42);
  EXPECT_TRUE(requests[0].labels.empty());

  auto conns = SamplesNamed(parsed, "pipelsm_server_conns_active");
  ASSERT_EQ(conns.size(), 1u);
  EXPECT_EQ(conns[0].value, -3);
}

TEST(PrometheusExpositionTest, HistogramsRenderAsSummaries) {
  MetricsRegistry registry;
  HistogramMetric* h =
      registry.RegisterHistogram("db.get_micros", "Get latency");
  for (int i = 1; i <= 100; i++) h->Observe(i);

  PrometheusExposition exp;
  exp.AddRegistry(registry, {});
  ParsedExposition parsed;
  ASSERT_NO_FATAL_FAILURE(ParseExpositionInto(exp.Render(), &parsed));

  EXPECT_EQ(parsed.type.at("pipelsm_db_get_micros"), "summary");
  auto quantiles = SamplesNamed(parsed, "pipelsm_db_get_micros");
  ASSERT_EQ(quantiles.size(), 3u);
  std::set<std::string> seen;
  for (const ParsedSample& q : quantiles) {
    ASSERT_EQ(q.labels.count("quantile"), 1u);
    seen.insert(q.labels.at("quantile"));
    EXPECT_FALSE(q.is_nan);
    EXPECT_GT(q.value, 0);
  }
  EXPECT_EQ(seen, (std::set<std::string>{"0.5", "0.95", "0.99"}));

  auto count = SamplesNamed(parsed, "pipelsm_db_get_micros_count");
  ASSERT_EQ(count.size(), 1u);
  EXPECT_EQ(count[0].value, 100);
  auto sum = SamplesNamed(parsed, "pipelsm_db_get_micros_sum");
  ASSERT_EQ(sum.size(), 1u);
  EXPECT_EQ(sum[0].value, 5050);
  // _sum/_count belong to the summary family: no own HELP/TYPE lines.
  EXPECT_EQ(parsed.type.count("pipelsm_db_get_micros_count"), 0u);
  EXPECT_EQ(parsed.type.count("pipelsm_db_get_micros_sum"), 0u);
}

// Regression: empty-histogram quantiles used to render as literal NaN,
// which strict exposition parsers reject. They must be 0, and no
// quantile line (or any line) may carry nan in any casing.
TEST(PrometheusExpositionTest, EmptyHistogramQuantilesAreZeroNeverNaN) {
  MetricsRegistry registry;
  registry.RegisterHistogram("db.get_micros", "Get latency");
  PrometheusExposition exp;
  exp.AddRegistry(registry, {});
  const std::string text = exp.Render();
  std::string lowered = text;
  for (char& c : lowered) c = static_cast<char>(std::tolower(c));
  EXPECT_EQ(std::string::npos, lowered.find("nan")) << text;

  ParsedExposition parsed;
  ASSERT_NO_FATAL_FAILURE(ParseExpositionInto(text, &parsed));
  auto quantiles = SamplesNamed(parsed, "pipelsm_db_get_micros");
  ASSERT_EQ(quantiles.size(), 3u);
  for (const ParsedSample& q : quantiles) {
    EXPECT_FALSE(q.is_nan);
    EXPECT_EQ(q.value, 0);
  }
  auto count = SamplesNamed(parsed, "pipelsm_db_get_micros_count");
  ASSERT_EQ(count.size(), 1u);
  EXPECT_EQ(count[0].value, 0);
}

TEST(PrometheusExpositionTest, ShardLabelsDistinguishRegistries) {
  MetricsRegistry shard0, shard1;
  shard0.RegisterCounter("db.writes", "Writes")->Add(10);
  shard1.RegisterCounter("db.writes", "Writes")->Add(20);

  PrometheusExposition exp;
  exp.AddRegistry(shard0, {{"shard", "0"}});
  exp.AddRegistry(shard1, {{"shard", "1"}});
  ParsedExposition parsed;
  ASSERT_NO_FATAL_FAILURE(ParseExpositionInto(exp.Render(), &parsed));

  auto writes = SamplesNamed(parsed, "pipelsm_db_writes");
  ASSERT_EQ(writes.size(), 2u);
  std::map<std::string, double> by_shard;
  for (const ParsedSample& s : writes) {
    by_shard[s.labels.at("shard")] = s.value;
  }
  EXPECT_EQ(by_shard.at("0"), 10);
  EXPECT_EQ(by_shard.at("1"), 20);
  // One family, one HELP/TYPE pair, both samples under it.
  EXPECT_EQ(parsed.type.count("pipelsm_db_writes"), 1u);
}

TEST(PrometheusExpositionTest, SyntheticSeriesAndEscaping) {
  MetricsRegistry registry;
  registry.RegisterGauge("advisor.regime", "Active advisor regime")->Set(1);
  PrometheusExposition exp;
  exp.AddRegistry(registry, {{"shard", "0"}, {"host", "io\"bound\\now"}});
  ParsedExposition parsed;
  ASSERT_NO_FATAL_FAILURE(ParseExpositionInto(exp.Render(), &parsed));
  auto regime = SamplesNamed(parsed, "pipelsm_advisor_regime");
  ASSERT_EQ(regime.size(), 1u);
  EXPECT_EQ(regime[0].labels.at("shard"), "0");
  EXPECT_EQ(regime[0].labels.at("host"), "io\"bound\\now");
  EXPECT_EQ(regime[0].value, 1);
}

TEST(PrometheusExpositionTest, CountersMonotoneAcrossRenders) {
  MetricsRegistry registry;
  Counter* c = registry.RegisterCounter("server.requests", "Requests");
  c->Add(5);
  PrometheusExposition exp1;
  exp1.AddRegistry(registry, {});
  ParsedExposition first;
  ASSERT_NO_FATAL_FAILURE(ParseExpositionInto(exp1.Render(), &first));
  c->Add(3);
  PrometheusExposition exp2;
  exp2.AddRegistry(registry, {});
  ParsedExposition second;
  ASSERT_NO_FATAL_FAILURE(ParseExpositionInto(exp2.Render(), &second));
  const double v1 = SamplesNamed(first, "pipelsm_server_requests")[0].value;
  const double v2 = SamplesNamed(second, "pipelsm_server_requests")[0].value;
  EXPECT_EQ(v1, 5);
  EXPECT_EQ(v2, 8);
  EXPECT_GE(v2, v1);
}

TEST(PrometheusExpositionTest, FamiliesSortedAndContiguous) {
  MetricsRegistry a, b;
  a.RegisterCounter("zeta.ops", "Z")->Add(1);
  a.RegisterCounter("alpha.ops", "A")->Add(1);
  b.RegisterCounter("zeta.ops", "Z")->Add(2);
  b.RegisterCounter("mid.ops", "M")->Add(2);

  PrometheusExposition exp;
  exp.AddRegistry(a, {{"shard", "0"}});
  exp.AddRegistry(b, {{"shard", "1"}});
  const std::string text = exp.Render();

  // Each family name appears in exactly one HELP line, and all of a
  // family's samples sit between its TYPE line and the next comment.
  std::istringstream in(text);
  std::string line, current_family;
  std::set<std::string> closed_families;
  while (std::getline(in, line)) {
    if (line.rfind("# HELP ", 0) == 0) {
      const std::string family = line.substr(7, line.find(' ', 7) - 7);
      if (!current_family.empty()) {
        EXPECT_LT(current_family, family) << "families not sorted";
        closed_families.insert(current_family);
      }
      EXPECT_EQ(closed_families.count(family), 0u)
          << "family " << family << " split across the document";
      current_family = family;
    }
  }
}

}  // namespace
}  // namespace pipelsm::obs
