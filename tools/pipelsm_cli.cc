// pipelsm_cli: command-line client for a running pipelsm_server.
//
//   pipelsm_cli [--host=H] [--port=N] COMMAND [args...]
//
// Commands:
//   ping
//   put KEY VALUE
//   get KEY
//   del KEY
//   batch [put KEY VALUE | del KEY]...   one atomic WRITE_BATCH
//   scan [START_KEY [LIMIT]]             first cursor batch only
//   stream [START_KEY [LIMIT]]           every cursor batch
//   stats [PROPERTY]                     default pipelsm.stats
//
// Both scan through a pinned-snapshot server cursor (docs/READ_PATH.md):
// `scan` prints its first bounded batch and closes it, `stream` iterates
// every batch; the global
// --pause_ms=N flag sleeps between entries, which CI uses to hold a
// cursor open across a server drain.
//
// Exit status: 0 on OK, 1 on any error (NotFound included, so scripts
// can test key presence).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/client/client.h"

namespace {

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: pipelsm_cli [--host=H] [--port=N] COMMAND [args...]\n"
               "commands: ping | put K V | get K | del K |\n"
               "          batch [put K V | del K]... | scan [START [LIMIT]] |"
               " stream [START [LIMIT]] | stats [PROP]\n");
  std::exit(2);
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *out = arg + prefix.size();
    return true;
  }
  return false;
}

int Finish(const pipelsm::Status& s) {
  if (s.ok()) return 0;
  std::fprintf(stderr, "%s\n", s.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  pipelsm::client::ClientOptions copts;
  int pause_ms = 0;
  int i = 1;
  for (; i < argc; i++) {
    std::string v;
    if (ParseFlag(argv[i], "host", &copts.host)) continue;
    if (ParseFlag(argv[i], "port", &v)) {
      copts.port = std::atoi(v.c_str());
      continue;
    }
    if (ParseFlag(argv[i], "pause_ms", &v)) {
      pause_ms = std::atoi(v.c_str());
      continue;
    }
    break;  // first non-flag = command
  }
  if (i >= argc) Usage();
  const std::string cmd = argv[i++];

  pipelsm::client::Client client(copts);

  if (cmd == "ping") {
    const pipelsm::Status s = client.Ping();
    if (s.ok()) std::printf("PONG\n");
    return Finish(s);
  }
  if (cmd == "put") {
    if (i + 2 != argc) Usage();
    return Finish(client.Put(argv[i], argv[i + 1]));
  }
  if (cmd == "get") {
    if (i + 1 != argc) Usage();
    std::string value;
    const pipelsm::Status s = client.Get(argv[i], &value);
    if (s.ok()) std::printf("%s\n", value.c_str());
    return Finish(s);
  }
  if (cmd == "del") {
    if (i + 1 != argc) Usage();
    return Finish(client.Delete(argv[i]));
  }
  if (cmd == "batch") {
    std::vector<pipelsm::server::BatchOp> ops;
    while (i < argc) {
      pipelsm::server::BatchOp op;
      if (std::strcmp(argv[i], "put") == 0 && i + 2 < argc) {
        op.key = argv[i + 1];
        op.value = argv[i + 2];
        i += 3;
      } else if (std::strcmp(argv[i], "del") == 0 && i + 1 < argc) {
        op.is_delete = true;
        op.key = argv[i + 1];
        i += 2;
      } else {
        Usage();
      }
      ops.push_back(std::move(op));
    }
    if (ops.empty()) Usage();
    const pipelsm::Status s = client.WriteBatch(ops);
    if (s.ok()) std::printf("OK (%zu ops)\n", ops.size());
    return Finish(s);
  }
  if (cmd == "scan") {
    std::string start;
    uint32_t limit = 0;
    if (i < argc) start = argv[i++];
    if (i < argc) limit = static_cast<uint32_t>(std::atoi(argv[i++]));
    if (i != argc) Usage();
    std::vector<std::pair<std::string, std::string>> entries;
    const pipelsm::Status s = client.Scan(start, limit, &entries);
    if (s.ok()) {
      for (const auto& [k, v] : entries) {
        std::printf("%s\t%s\n", k.c_str(), v.c_str());
      }
      std::fprintf(stderr, "(%zu entries)\n", entries.size());
    }
    return Finish(s);
  }
  if (cmd == "stream") {
    std::string start;
    uint32_t limit = 0;
    if (i < argc) start = argv[i++];
    if (i < argc) limit = static_cast<uint32_t>(std::atoi(argv[i++]));
    if (i != argc) Usage();
    std::unique_ptr<pipelsm::client::ScanStream> stream =
        client.NewScanStream(start, limit);
    size_t count = 0;
    for (; stream->Valid(); stream->Next()) {
      std::printf("%s\t%s\n", stream->key().c_str(), stream->value().c_str());
      count++;
      if (pause_ms > 0) ::usleep(static_cast<useconds_t>(pause_ms) * 1000);
    }
    std::fprintf(stderr, "(%zu entries streamed)\n", count);
    return Finish(stream->status());
  }
  if (cmd == "stats") {
    std::string property;
    if (i < argc) property = argv[i++];
    if (i != argc) Usage();
    std::string value;
    const pipelsm::Status s = client.Stats(property, &value);
    if (s.ok()) std::printf("%s\n", value.c_str());
    return Finish(s);
  }
  Usage();
}
