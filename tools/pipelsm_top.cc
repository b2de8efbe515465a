// pipelsm_top: terminal dashboard for a live pipelsm_server, driven
// entirely by the admin endpoint's GET /metrics Prometheus exposition
// (docs/OBSERVABILITY.md). No server-side support beyond --admin_port is
// needed, and anything this tool shows a Prometheus scraper sees too.
//
//   pipelsm_top --port=ADMIN_PORT [--host=ADDR] [--interval_ms=N]
//               [--iterations=N] [--once]
//
// Flags: the table in main(), one help line each.
//
// The dashboard shows fleet request throughput (rates are deltas between
// polls), per-shard write throughput and stall state, arbiter lane/worker
// occupancy, the bottleneck-advisor regime, and drain state.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "tools/flags.h"

namespace {

struct Sample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0;
};

struct Snapshot {
  std::vector<Sample> samples;
  std::chrono::steady_clock::time_point taken;
  bool ok = false;

  const Sample* Find(const std::string& name,
                     const std::map<std::string, std::string>& labels = {})
      const {
    for (const Sample& s : samples) {
      if (s.name != name) continue;
      bool match = true;
      for (const auto& [k, v] : labels) {
        auto it = s.labels.find(k);
        if (it == s.labels.end() || it->second != v) {
          match = false;
          break;
        }
      }
      if (match) return &s;
    }
    return nullptr;
  }

  double Value(const std::string& name,
               const std::map<std::string, std::string>& labels = {},
               double fallback = 0) const {
    const Sample* s = Find(name, labels);
    return s != nullptr ? s->value : fallback;
  }

  // Sum across every label set — fleet totals for per-shard families.
  // Returns -1 when the family is absent so callers can gate display.
  double Sum(const std::string& name) const {
    double total = 0;
    bool any = false;
    for (const Sample& s : samples) {
      if (s.name != name) continue;
      total += s.value;
      any = true;
    }
    return any ? total : -1;
  }

  // shard label -> value, for families exported per shard.
  std::map<int, double> PerShard(const std::string& name) const {
    std::map<int, double> out;
    for (const Sample& s : samples) {
      if (s.name != name) continue;
      auto it = s.labels.find("shard");
      if (it != s.labels.end()) out[std::atoi(it->second.c_str())] = s.value;
    }
    return out;
  }
};

// ---------------------------------------------------------------------
// HTTP GET /metrics (HTTP/1.0, Connection: close — read to EOF).

bool FetchBody(const std::string& host, int port, const std::string& path,
               std::string* body) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  size_t off = 0;
  while (off < request.size()) {
    ssize_t n = ::send(fd, request.data() + off, request.size() - off,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    off += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[8192];
  while (true) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (raw.rfind("HTTP/1.0 200", 0) != 0) return false;
  const size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  *body = raw.substr(head_end + 4);
  return true;
}

// ---------------------------------------------------------------------
// Prometheus text-exposition parsing (the subset the server emits).

void ParseLabels(const std::string& text, Sample* out) {
  // text is the inside of {...}: k="v",k2="v2" with \" \\ \n escapes.
  size_t i = 0;
  while (i < text.size()) {
    const size_t eq = text.find('=', i);
    if (eq == std::string::npos || eq + 1 >= text.size() ||
        text[eq + 1] != '"') {
      return;
    }
    const std::string key = text.substr(i, eq - i);
    std::string value;
    size_t j = eq + 2;
    while (j < text.size() && text[j] != '"') {
      if (text[j] == '\\' && j + 1 < text.size()) {
        j++;
        value.push_back(text[j] == 'n' ? '\n' : text[j]);
      } else {
        value.push_back(text[j]);
      }
      j++;
    }
    out->labels[key] = value;
    i = j + 1;
    if (i < text.size() && text[i] == ',') i++;
  }
}

Snapshot ParseExposition(const std::string& text) {
  Snapshot snap;
  snap.taken = std::chrono::steady_clock::now();
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    Sample s;
    const size_t brace = line.find('{');
    const size_t space = line.find(' ');
    if (brace != std::string::npos && brace < space) {
      const size_t close = line.rfind('}');
      if (close == std::string::npos) continue;
      s.name = line.substr(0, brace);
      ParseLabels(line.substr(brace + 1, close - brace - 1), &s);
      s.value = std::strtod(line.c_str() + close + 1, nullptr);
    } else {
      if (space == std::string::npos) continue;
      s.name = line.substr(0, space);
      s.value = std::strtod(line.c_str() + space + 1, nullptr);
    }
    if (!std::isnan(s.value)) snap.samples.push_back(std::move(s));
  }
  snap.ok = !snap.samples.empty();
  return snap;
}

Snapshot Poll(const std::string& host, int port) {
  std::string body;
  if (!FetchBody(host, port, "/metrics", &body)) return Snapshot{};
  return ParseExposition(body);
}

// ---------------------------------------------------------------------
// Rendering.

const char* StallName(double state) {
  if (state >= 2) return "STOPPED";
  if (state >= 1) return "delayed";
  return "normal";
}

// The advisor.regime gauge's codes (src/compaction/scheduler.h).
const char* RegimeName(double code) {
  if (code >= 2) return "cpu-bound";
  if (code >= 1) return "io-bound";
  return "none";
}

// One engine row per shard label, or one unlabeled row for an unsharded
// server; every per-engine series is read with the row's labels.
struct EngineRow {
  int shard = -1;
  std::map<std::string, std::string> labels;
};

std::vector<EngineRow> EngineRows(const Snapshot& snap) {
  std::vector<EngineRow> rows;
  for (const auto& [shard, stall] :
       snap.PerShard("pipelsm_db_write_stall_state")) {
    rows.push_back({shard, {{"shard", std::to_string(shard)}}});
  }
  if (rows.empty()) rows.push_back({});
  return rows;
}

double Rate(const Snapshot& cur, const Snapshot& prev,
            const std::string& name,
            const std::map<std::string, std::string>& labels = {}) {
  if (!prev.ok) return 0;
  const double dt =
      std::chrono::duration<double>(cur.taken - prev.taken).count();
  if (dt <= 0) return 0;
  return (cur.Value(name, labels) - prev.Value(name, labels)) / dt;
}

double TotalRequests(const Snapshot& snap) {
  double total = 0;
  for (const char* op : {"ping", "get", "put", "del", "batch", "stats",
                         "scan_open", "scan_next", "scan_close"}) {
    total += snap.Value(std::string("pipelsm_server_req_") + op);
  }
  return total;
}

void RenderDashboard(const Snapshot& cur, const Snapshot& prev,
                     const std::string& host, int port) {
  std::printf("\x1b[H\x1b[2J");  // home + clear
  std::printf("pipelsm_top — %s:%d\n\n", host.c_str(), port);

  const double req_rate = prev.ok ? (TotalRequests(cur) - TotalRequests(prev)) /
                                        std::chrono::duration<double>(
                                            cur.taken - prev.taken)
                                            .count()
                                  : 0;
  std::printf("requests  %8.0f/s   (put %.0f/s  get %.0f/s  scan %.0f/s)\n",
              req_rate, Rate(cur, prev, "pipelsm_server_req_put"),
              Rate(cur, prev, "pipelsm_server_req_get"),
              Rate(cur, prev, "pipelsm_server_req_scan_open"));
  std::printf("bytes     in %8.0f/s   out %8.0f/s\n",
              Rate(cur, prev, "pipelsm_server_bytes_in"),
              Rate(cur, prev, "pipelsm_server_bytes_out"));
  std::printf("conns     %.0f client   %.0f admin   inflight %.0f   "
              "slow_total %.0f\n",
              cur.Value("pipelsm_server_conns_active"),
              cur.Value("pipelsm_server_admin_conns_active"),
              cur.Value("pipelsm_server_requests_inflight"),
              cur.Value("pipelsm_server_slow_requests"));
  std::printf("draining  %s\n",
              cur.Value("pipelsm_server_draining") > 0 ? "YES" : "no");

  if (cur.Find("pipelsm_arbiter_compute_workers_in_use") != nullptr) {
    std::printf("arbiter   compute %.0f in use   waiting %.0f\n",
                cur.Value("pipelsm_arbiter_compute_workers_in_use"),
                cur.Value("pipelsm_arbiter_waiting"));
  }

  // Block-cache + cursor line, present when the server exports the read
  // path metrics (docs/READ_PATH.md). Sums across shards: the fleet
  // shares one block cache, but each sample family gates on presence.
  if (cur.Sum("pipelsm_cache_block_hits") >= 0) {
    const double hits = Rate(cur, prev, "pipelsm_cache_block_hits");
    const double misses = Rate(cur, prev, "pipelsm_cache_block_misses");
    const double lookups = hits + misses;
    std::printf("cache     %5.1f%% hit   %8.0f lookups/s   "
                "%.1f MiB used   evict %.0f/s\n",
                lookups > 0 ? 100.0 * hits / lookups : 0.0, lookups,
                cur.Sum("pipelsm_cache_block_usage_bytes") / (1 << 20),
                Rate(cur, prev, "pipelsm_cache_block_evictions"));
  }
  if (cur.Sum("pipelsm_cursor_opened") >= 0) {
    std::printf("cursors   %.0f open   opened %.0f   expired %.0f   "
                "batches %.0f/s\n",
                cur.Sum("pipelsm_cursor_active"),
                cur.Sum("pipelsm_cursor_opened"),
                cur.Sum("pipelsm_cursor_expired"),
                Rate(cur, prev, "pipelsm_cursor_batches"));
  }

  // Value-log line, present only when key-value separation is on
  // (--value_threshold). Sums across shards.
  if (cur.Sum("pipelsm_vlog_segments") >= 0) {
    const double bytes = cur.Sum("pipelsm_vlog_bytes");
    const double dead = cur.Sum("pipelsm_vlog_dead_bytes");
    const double resolves = cur.Sum("pipelsm_vlog_resolves");
    // A server that predates the hit counter reports -1 for it.
    const double hits = cur.Sum("pipelsm_vlog_resolve_cache_hits");
    std::printf("vlog      %.0f segs  %.1f MiB (%.0f%% dead)   "
                "gc %.0f runs   reclaimed %.1f MiB   "
                "resolves %.1f%% cached\n",
                cur.Sum("pipelsm_vlog_segments"), bytes / (1 << 20),
                bytes > 0 ? 100.0 * dead / bytes : 0.0,
                cur.Sum("pipelsm_vlog_gc_runs"),
                cur.Sum("pipelsm_vlog_gc_bytes_reclaimed") / (1 << 20),
                hits >= 0 && resolves > 0 ? 100.0 * hits / resolves : 0.0);
  }

  std::printf("\n%-6s %12s %10s %-10s\n", "shard", "writes/s", "stall",
              "regime");
  for (const EngineRow& row : EngineRows(cur)) {
    std::printf("%-6s %12.0f %10s %-10s\n",
                row.shard >= 0 ? std::to_string(row.shard).c_str() : "-",
                Rate(cur, prev, "pipelsm_db_write_ops", row.labels),
                StallName(cur.Value("pipelsm_db_write_stall_state",
                                    row.labels)),
                RegimeName(cur.Value("pipelsm_advisor_regime", row.labels)));
  }
  std::fflush(stdout);
}

// One-line machine-readable snapshot for scripts/CI: TOP {json}.
void RenderOnce(const Snapshot& snap) {
  std::string out = "TOP {";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"requests_total\":%.0f,\"conns\":%.0f,\"admin_conns\":%.0f,"
                "\"inflight\":%.0f,\"slow_requests\":%.0f,\"draining\":%d",
                TotalRequests(snap),
                snap.Value("pipelsm_server_conns_active"),
                snap.Value("pipelsm_server_admin_conns_active"),
                snap.Value("pipelsm_server_requests_inflight"),
                snap.Value("pipelsm_server_slow_requests"),
                snap.Value("pipelsm_server_draining") > 0 ? 1 : 0);
  out += buf;
  if (snap.Find("pipelsm_arbiter_compute_workers_in_use") != nullptr) {
    std::snprintf(buf, sizeof(buf),
                  ",\"arbiter\":{\"compute_workers_in_use\":%.0f,"
                  "\"waiting\":%.0f}",
                  snap.Value("pipelsm_arbiter_compute_workers_in_use"),
                  snap.Value("pipelsm_arbiter_waiting"));
    out += buf;
  }
  if (snap.Sum("pipelsm_cache_block_hits") >= 0) {
    std::snprintf(buf, sizeof(buf),
                  ",\"cache\":{\"block_hits\":%.0f,\"block_misses\":%.0f,"
                  "\"block_evictions\":%.0f,\"block_usage\":%.0f}",
                  snap.Sum("pipelsm_cache_block_hits"),
                  snap.Sum("pipelsm_cache_block_misses"),
                  snap.Sum("pipelsm_cache_block_evictions"),
                  snap.Sum("pipelsm_cache_block_usage_bytes"));
    out += buf;
  }
  if (snap.Sum("pipelsm_cursor_opened") >= 0) {
    std::snprintf(buf, sizeof(buf),
                  ",\"cursors\":{\"active\":%.0f,\"opened\":%.0f,"
                  "\"closed\":%.0f,\"expired\":%.0f,\"batches\":%.0f}",
                  snap.Sum("pipelsm_cursor_active"),
                  snap.Sum("pipelsm_cursor_opened"),
                  snap.Sum("pipelsm_cursor_closed"),
                  snap.Sum("pipelsm_cursor_expired"),
                  snap.Sum("pipelsm_cursor_batches"));
    out += buf;
  }
  if (snap.Sum("pipelsm_vlog_segments") >= 0) {
    std::snprintf(buf, sizeof(buf),
                  ",\"vlog\":{\"segments\":%.0f,\"bytes\":%.0f,"
                  "\"dead_bytes\":%.0f,\"gc_runs\":%.0f,"
                  "\"gc_bytes_reclaimed\":%.0f}",
                  snap.Sum("pipelsm_vlog_segments"),
                  snap.Sum("pipelsm_vlog_bytes"),
                  snap.Sum("pipelsm_vlog_dead_bytes"),
                  snap.Sum("pipelsm_vlog_gc_runs"),
                  snap.Sum("pipelsm_vlog_gc_bytes_reclaimed"));
    out += buf;
  }
  out += ",\"shards\":[";
  bool first = true;
  for (const EngineRow& row : EngineRows(snap)) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"shard\":%d,\"stall_state\":%.0f,"
                  "\"write_ops\":%.0f,\"regime\":\"%s\"}",
                  first ? "" : ",", row.shard,
                  snap.Value("pipelsm_db_write_stall_state", row.labels),
                  snap.Value("pipelsm_db_write_ops", row.labels),
                  RegimeName(
                      snap.Value("pipelsm_advisor_regime", row.labels)));
    out += buf;
    first = false;
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = -1;
  int interval_ms = 1000;
  int iterations = 0;
  bool once = false;
  pipelsm::flags::FlagSet set(
      "pipelsm_top --port=ADMIN_PORT [--host=ADDR] [--interval_ms=N] "
      "[--iterations=N] [--once]");
  set.Add("port", &port, "the server's --admin_port (required)");
  set.Add("host", &host, "the server's address");
  set.Add("interval_ms", &interval_ms, "poll period");
  set.Add("iterations", &iterations, "exit after N refreshes (0 = until ^C)");
  set.Switch("once", &once,
             "one poll, one machine-readable TOP {json} line, exit 0");
  set.ParseFlags(argc, argv);
  if (port <= 0) set.Fail("--port is required");
  if (interval_ms < 10) interval_ms = 10;

  if (once) {
    const Snapshot snap = Poll(host, port);
    if (!snap.ok) {
      std::fprintf(stderr, "no /metrics from %s:%d\n", host.c_str(), port);
      return 1;
    }
    RenderOnce(snap);
    return 0;
  }

  Snapshot prev;
  for (int i = 0; iterations == 0 || i < iterations; i++) {
    const Snapshot cur = Poll(host, port);
    if (!cur.ok) {
      std::fprintf(stderr, "no /metrics from %s:%d (server gone?)\n",
                   host.c_str(), port);
      return 1;
    }
    RenderDashboard(cur, prev, host, port);
    prev = cur;
    if (iterations == 0 || i + 1 < iterations) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  return 0;
}
