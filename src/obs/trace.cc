#include "src/obs/trace.h"

#include <cstdio>

#include "src/util/json_writer.h"

namespace pipelsm::obs {

TraceCollector::TraceCollector() = default;

uint64_t TraceCollector::NowNanos() const { return epoch_.ElapsedNanos(); }

uint32_t TraceCollector::BeginJob(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t pid = next_pid_++;
  job_names_[pid] = name;
  return pid;
}

void TraceCollector::SetLaneName(uint32_t pid, uint32_t lane,
                                 const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  lane_names_[{pid, lane}] = name;
}

void TraceCollector::AddSpan(uint32_t pid, uint32_t lane, const char* name,
                             const char* category, uint64_t start_ns,
                             uint64_t end_ns, uint64_t seq) {
  const uint64_t dur = end_ns > start_ns ? end_ns - start_ns : 0;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, category, pid, lane, start_ns, dur, seq});
}

size_t TraceCollector::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string TraceCollector::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray();
  const auto metadata = [&w](uint32_t pid, uint32_t tid, const char* kind,
                             const std::string& name) {
    w.BeginObject().Key("ph").String("M").Key("pid").Uint(pid);
    w.Key("tid").Uint(tid).Key("name").String(kind);
    w.Key("args").BeginObject().Key("name").String(name).EndObject();
    w.EndObject();
  };
  for (const auto& [pid, name] : job_names_) {
    metadata(pid, 0, "process_name", name);
  }
  for (const auto& [key, name] : lane_names_) {
    metadata(key.first, key.second, "thread_name", name);
  }
  // trace_event timestamps are microseconds; keep nanosecond precision
  // as a 3-decimal fraction (both chrome://tracing and Perfetto accept
  // it). A double resolves 0.001 us exactly below 2^43 us (~100 days).
  for (const Span& span : spans_) {
    w.BeginObject().Key("ph").String("X").Key("pid").Uint(span.pid);
    w.Key("tid").Uint(span.lane).Key("name").String(span.name);
    w.Key("cat").String(span.category);
    w.Key("ts").Double(span.start_ns / 1e3, 3);
    w.Key("dur").Double(span.dur_ns / 1e3, 3);
    if (span.seq != kNoSeq) {
      w.Key("args").BeginObject().Key("seq").Uint(span.seq).EndObject();
    }
    w.EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

Status TraceCollector::WriteFile(const std::string& path) const {
  const std::string json = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return Status::IOError("short write to trace file " + path);
  }
  return Status::OK();
}

}  // namespace pipelsm::obs
