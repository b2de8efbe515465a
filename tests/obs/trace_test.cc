// TraceCollector golden-format tests. The trace file's whole purpose is
// to be loaded by external viewers (chrome://tracing, Perfetto), so these
// tests parse the emitted JSON and check the Chrome trace_event contract:
// metadata naming events, complete ("X") spans with ts/dur, and — for a
// real PCP run — one full {S1 read, S2–S6 compute, S7 write} span set per
// sub-task, joined by the seq arg. Also covers the acceptance criterion
// that an I/O-bound run reports nonzero queue stall time in the metrics
// registry (the measured form of the paper's Eq. 2 bottleneck argument).
#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/compaction/executor.h"
#include "src/compaction/types.h"
#include "src/env/sim_env.h"
#include "src/obs/metrics.h"
#include "src/workload/table_gen.h"
#include "tests/obs/json_check.h"

namespace pipelsm {
namespace {

using obs::MetricsRegistry;
using obs::TraceCollector;
using obs::TraceSpan;
using testjson::JsonValue;
using testjson::ParseJson;

TEST(TraceCollector, NullCollectorSpanIsNoOp) {
  // Call sites are unconditional; a null collector must be safe.
  TraceSpan span(nullptr, 1, 0, "S1 read", "read", 7);
}

TEST(TraceCollector, EmptyTraceIsValidJson) {
  TraceCollector trace;
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(trace.ToJson(), &root, &error)) << error;
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(nullptr, events);
  EXPECT_EQ(JsonValue::kArray, events->type);
  EXPECT_TRUE(events->array.empty());
  const JsonValue* unit = root.Find("displayTimeUnit");
  ASSERT_NE(nullptr, unit);
  EXPECT_EQ("ms", unit->string_value);
}

TEST(TraceCollector, SpanAndMetadataRoundTrip) {
  TraceCollector trace;
  const uint32_t pid = trace.BeginJob("PCP compaction (2 sub-tasks)");
  EXPECT_GE(pid, 1u);
  trace.SetLaneName(pid, 0, "S7 write");
  // 1234567 ns = 1234.567 µs: the emitter must keep ns precision.
  trace.AddSpan(pid, 0, "S7 write", "write", 1234567, 2234567, 42);
  trace.AddSpan(pid, 0, "S7 finish file", "write", 3000000, 3100000,
                TraceCollector::kNoSeq);
  EXPECT_EQ(2u, trace.span_count());

  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(trace.ToJson(), &root, &error)) << error;
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(nullptr, events);
  ASSERT_EQ(4u, events->array.size());  // 2 metadata + 2 spans

  bool saw_process_name = false, saw_thread_name = false;
  const JsonValue* write_span = nullptr;
  const JsonValue* finish_span = nullptr;
  for (const JsonValue& ev : events->array) {
    const JsonValue* ph = ev.Find("ph");
    ASSERT_NE(nullptr, ph);
    if (ph->string_value == "M") {
      const std::string& what = ev.Find("name")->string_value;
      const JsonValue* args = ev.Find("args");
      ASSERT_NE(nullptr, args);
      if (what == "process_name") {
        saw_process_name = true;
        EXPECT_EQ("PCP compaction (2 sub-tasks)",
                  args->Find("name")->string_value);
      } else if (what == "thread_name") {
        saw_thread_name = true;
        EXPECT_EQ("S7 write", args->Find("name")->string_value);
      }
    } else if (ph->string_value == "X") {
      const std::string& name = ev.Find("name")->string_value;
      if (name == "S7 write") write_span = &ev;
      if (name == "S7 finish file") finish_span = &ev;
    }
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_thread_name);

  ASSERT_NE(nullptr, write_span);
  EXPECT_DOUBLE_EQ(1234.567, write_span->Find("ts")->number_value);
  EXPECT_DOUBLE_EQ(1000.0, write_span->Find("dur")->number_value);
  EXPECT_EQ("write", write_span->Find("cat")->string_value);
  const JsonValue* args = write_span->Find("args");
  ASSERT_NE(nullptr, args);
  EXPECT_DOUBLE_EQ(42.0, args->Find("seq")->number_value);

  ASSERT_NE(nullptr, finish_span);
  EXPECT_EQ(nullptr, finish_span->Find("args"));  // kNoSeq: no args
}

TEST(TraceCollector, WriteFileProducesParseableJson) {
  TraceCollector trace;
  const uint32_t pid = trace.BeginJob("job");
  trace.AddSpan(pid, 0, "S1 read", "read", 0, 1000, 0);
  const std::string path = "trace_test_out.json";  // test CWD (build dir)
  ASSERT_TRUE(trace.WriteFile(path).ok());

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(nullptr, f);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(content, &root, &error)) << error;
  EXPECT_EQ(1u + 1u, root.Find("traceEvents")->array.size());
}

// Shared harness: one compaction through the chosen executor on a
// simulated device, with the observability hooks attached.
struct TracedRun {
  MetricsRegistry registry;
  TraceCollector trace;
  StepProfile profile;
};

void RunTracedCompaction(CompactionMode mode, DeviceProfile device,
                         TracedRun* out) {
  SimEnv env(device);
  InternalKeyComparator icmp(BytewiseComparator());

  TableGenOptions gen;
  gen.env = &env;
  gen.icmp = &icmp;
  gen.upper_bytes = 256 << 10;
  gen.lower_bytes = 512 << 10;
  CompactionInputs inputs;
  ASSERT_TRUE(GenerateCompactionInputs(gen, &inputs).ok());

  CompactionJobOptions job;
  job.icmp = &icmp;
  job.subtask_bytes = 64 << 10;
  job.table.block_size = 4 << 10;
  job.max_output_file_size = 256 << 10;
  job.read_parallelism = 2;
  job.compute_parallelism = 2;
  job.metrics = &out->registry;
  job.trace = &out->trace;

  auto executor = NewCompactionExecutor(mode);
  CountingSink sink(&env, "/out");
  ASSERT_TRUE(executor->Run(job, inputs.tables, &sink, &out->profile).ok());
}

// Every sub-task a PCP run processes must leave one complete span set in
// the trace: S1 read, S2–S6 compute and S7 write spans sharing a seq.
TEST(TraceCollector, PcpRunEmitsCompleteSpanSetPerSubtask) {
  TracedRun run;
  RunTracedCompaction(CompactionMode::kPCP, DeviceProfile::Null(), &run);
  ASSERT_GT(run.trace.span_count(), 0u);

  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(run.trace.ToJson(), &root, &error)) << error;
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(nullptr, events);

  std::map<std::string, std::set<uint64_t>> seqs_by_span;  // name -> seqs
  std::set<uint64_t> lanes;
  bool saw_process_name = false;
  for (const JsonValue& ev : events->array) {
    const JsonValue* ph = ev.Find("ph");
    ASSERT_NE(nullptr, ph) << "event missing ph";
    if (ph->string_value == "M") {
      if (ev.Find("name")->string_value == "process_name") {
        saw_process_name = true;
      }
      continue;
    }
    ASSERT_EQ("X", ph->string_value) << "only M and X events are emitted";
    // Complete events must carry the full timestamp contract.
    for (const char* field : {"pid", "tid", "ts", "dur"}) {
      const JsonValue* v = ev.Find(field);
      ASSERT_NE(nullptr, v) << "span missing " << field;
      ASSERT_EQ(JsonValue::kNumber, v->type);
    }
    lanes.insert(static_cast<uint64_t>(ev.Find("tid")->number_value));
    const JsonValue* args = ev.Find("args");
    if (args != nullptr && args->Find("seq") != nullptr) {
      seqs_by_span[ev.Find("name")->string_value].insert(
          static_cast<uint64_t>(args->Find("seq")->number_value));
    }
  }
  EXPECT_TRUE(saw_process_name);
  // PCP lanes: write lane + 2 readers + 2 compute workers.
  EXPECT_GE(lanes.size(), 4u);

  const std::set<uint64_t>& reads = seqs_by_span["S1 read"];
  const std::set<uint64_t>& computes = seqs_by_span["S2-S6 compute"];
  const std::set<uint64_t>& writes = seqs_by_span["S7 write"];
  ASSERT_FALSE(reads.empty());
  EXPECT_EQ(reads, computes) << "every read sub-task must reach compute";
  EXPECT_EQ(reads, writes) << "every read sub-task must reach write";
  // seq numbers are dense 0..N-1 (the reorder buffer needs them so).
  EXPECT_EQ(*reads.rbegin() + 1, reads.size());
}

TEST(TraceCollector, ScpRunTracesSequentialLane) {
  TracedRun run;
  RunTracedCompaction(CompactionMode::kSCP, DeviceProfile::Null(), &run);
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(run.trace.ToJson(), &root, &error)) << error;

  std::set<std::string> span_names;
  for (const JsonValue& ev : root.Find("traceEvents")->array) {
    if (ev.Find("ph")->string_value == "X") {
      span_names.insert(ev.Find("name")->string_value);
    }
  }
  EXPECT_EQ(1u, span_names.count("S1 read"));
  EXPECT_EQ(1u, span_names.count("S2-S6 compute"));
  EXPECT_EQ(1u, span_names.count("S7 write"));

  // SCP starts no stage threads: one lane, whose S1, S2-S6 and S7 spans
  // follow one another in sub-task order without overlapping.
  struct StepSpan {
    uint64_t start_ns;
    uint64_t end_ns;
    std::string name;
    uint64_t seq;
  };
  std::vector<StepSpan> steps;
  std::set<uint64_t> lanes;
  int lane_names = 0;
  for (const JsonValue& ev : root.Find("traceEvents")->array) {
    const std::string& ph = ev.Find("ph")->string_value;
    const std::string& name = ev.Find("name")->string_value;
    if (ph == "M") {
      if (name == "thread_name") lane_names++;
      continue;
    }
    lanes.insert(static_cast<uint64_t>(ev.Find("tid")->number_value));
    if (name != "S1 read" && name != "S2-S6 compute" && name != "S7 write") {
      continue;  // "S7 finish file" / "S7 open output" nest inside S7
    }
    // ts and dur are microseconds printed to the nanosecond.
    const uint64_t start = std::llround(ev.Find("ts")->number_value * 1e3);
    const uint64_t dur = std::llround(ev.Find("dur")->number_value * 1e3);
    steps.push_back(StepSpan{
        start, start + dur, name,
        static_cast<uint64_t>(ev.Find("args")->Find("seq")->number_value)});
  }
  EXPECT_EQ(1, lane_names);
  EXPECT_EQ(std::set<uint64_t>{0}, lanes);

  std::sort(steps.begin(), steps.end(),
            [](const StepSpan& a, const StepSpan& b) {
              return a.start_ns < b.start_ns;
            });
  const char* const kOrder[] = {"S1 read", "S2-S6 compute", "S7 write"};
  ASSERT_GE(steps.size(), 6u);  // at least two sub-tasks
  ASSERT_EQ(0u, steps.size() % 3);
  for (size_t i = 0; i < steps.size(); i++) {
    EXPECT_EQ(kOrder[i % 3], steps[i].name) << "span " << i;
    EXPECT_EQ(i / 3, steps[i].seq) << "span " << i;
    if (i > 0) {
      EXPECT_LE(steps[i - 1].end_ns, steps[i].start_ns)
          << steps[i - 1].name << " " << steps[i - 1].seq << " overlaps "
          << steps[i].name << " " << steps[i].seq;
    }
  }

  // No queues, so no queue instruments.
  for (const obs::MetricSample& sample : run.registry.Snapshot()) {
    EXPECT_NE(0u, sample.name.rfind("compaction.queue.", 0)) << sample.name;
  }
}

// Acceptance: on an I/O-bound device profile the metrics registry must
// report nonzero queue stall time — the pipeline's measured bottleneck
// signal (paper Eq. 2: throughput = max over stages; the stalled side of
// each queue names the slow stage).
TEST(PipelineMetrics, IoBoundRunReportsQueueStalls) {
  TracedRun run;
  RunTracedCompaction(CompactionMode::kPCP, DeviceProfile::Hdd(), &run);

  uint64_t total_stall_nanos = 0;
  for (const char* name :
       {"compaction.queue.read.push_stall_nanos",
        "compaction.queue.read.pop_stall_nanos",
        "compaction.queue.write.push_stall_nanos",
        "compaction.queue.write.pop_stall_nanos"}) {
    obs::Counter* c = run.registry.RegisterCounter(name, "");
    ASSERT_NE(nullptr, c) << name << " registered as a different kind";
    total_stall_nanos += c->value();
  }
  EXPECT_GT(total_stall_nanos, 0u);

  // Step metrics published from the same run.
  EXPECT_EQ(1u, run.registry.RegisterCounter("compaction.runs", "")->value());
  EXPECT_GT(
      run.registry.RegisterCounter("compaction.step.S1.read.nanos", "")
          ->value(),
      0u);
  EXPECT_GT(
      run.registry.RegisterCounter("compaction.step.S7.write.bytes", "")
          ->value(),
      0u);
  obs::Gauge* hw =
      run.registry.RegisterGauge("compaction.queue.read.depth_highwater", "");
  ASSERT_NE(nullptr, hw);
  EXPECT_GT(hw->value(), 0);

  // The whole registry must still round-trip as JSON (this is what
  // GetProperty("pipelsm.metrics") returns).
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(run.registry.ToJson(), &root, &error)) << error;
}

}  // namespace
}  // namespace pipelsm
