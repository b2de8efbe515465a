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
// every batch. Flags (the table in main()) come before COMMAND; the
// arguments after it are taken verbatim, so a key may start with "--".
//
// Exit status: 0 on OK, 1 on any error (NotFound included, so scripts
// can test key presence), 2 on a malformed command line.
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/client/client.h"
#include "tools/flags.h"

namespace {

int Finish(const pipelsm::Status& s) {
  if (s.ok()) return 0;
  std::fprintf(stderr, "%s\n", s.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  pipelsm::client::ClientOptions copts;
  int pause_ms = 0;
  pipelsm::flags::FlagSet set(
      "pipelsm_cli [--flag=value ...] COMMAND [args...]\n"
      "commands: ping | put K V | get K | del K |\n"
      "          batch [put K V | del K]... | scan [START [LIMIT]] |"
      " stream [START [LIMIT]] | stats [PROP]");
  set.Add("host", &copts.host, "server address");
  set.Add("port", &copts.port, "server port");
  set.Add("pause_ms", &pause_ms,
          "stream: sleep between entries (holds a cursor open)");
  const std::vector<std::string> args = set.Parse(argc, argv);
  auto usage = [&]() { set.Fail("bad command line"); };
  if (args.empty()) usage();
  const std::string& cmd = args[0];
  const size_t n = args.size() - 1;  // the command's own arguments

  pipelsm::client::Client client(copts);

  if (cmd == "ping") {
    const pipelsm::Status s = client.Ping();
    if (s.ok()) std::printf("PONG\n");
    return Finish(s);
  }
  if (cmd == "put") {
    if (n != 2) usage();
    return Finish(client.Put(args[1], args[2]));
  }
  if (cmd == "get") {
    if (n != 1) usage();
    std::string value;
    const pipelsm::Status s = client.Get(args[1], &value);
    if (s.ok()) std::printf("%s\n", value.c_str());
    return Finish(s);
  }
  if (cmd == "del") {
    if (n != 1) usage();
    return Finish(client.Delete(args[1]));
  }
  if (cmd == "batch") {
    std::vector<pipelsm::server::BatchOp> ops;
    for (size_t i = 1; i < args.size();) {
      pipelsm::server::BatchOp op;
      if (args[i] == "put" && i + 2 < args.size()) {
        op.key = args[i + 1];
        op.value = args[i + 2];
        i += 3;
      } else if (args[i] == "del" && i + 1 < args.size()) {
        op.is_delete = true;
        op.key = args[i + 1];
        i += 2;
      } else {
        usage();
      }
      ops.push_back(std::move(op));
    }
    if (ops.empty()) usage();
    const pipelsm::Status s = client.WriteBatch(ops);
    if (s.ok()) std::printf("OK (%zu ops)\n", ops.size());
    return Finish(s);
  }
  if (cmd == "scan" || cmd == "stream") {
    if (n > 2) usage();
    const std::string start = n >= 1 ? args[1] : "";
    const uint32_t limit =
        n == 2 ? set.Number<uint32_t>("LIMIT", args[2]) : 0;
    if (cmd == "scan") {
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
    if (n > 1) usage();
    std::string value;
    const pipelsm::Status s = client.Stats(n == 1 ? args[1] : "", &value);
    if (s.ok()) std::printf("%s\n", value.c_str());
    return Finish(s);
  }
  set.Fail("unknown command '" + cmd + "'");
}
