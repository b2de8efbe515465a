// sstable_inspect: a dump/verification tool built on the table-layer API
// (what a downstream user would write to debug their data files).
//
// Walks a DB directory on the real filesystem, opens every SSTable, and
// prints per-file statistics: entry count, key range, data-block count,
// compression ratio — verifying every block checksum along the way (the
// compaction procedure's S2 as a standalone audit).
//
//   ./sstable_inspect <db_path>
#include <cstdio>
#include <memory>

#include "src/db/dbformat.h"
#include "src/db/filename.h"
#include "src/env/env.h"
#include "src/table/block.h"
#include "src/table/format.h"
#include "src/table/table.h"

using namespace pipelsm;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <db_path>\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  Env* env = Env::Posix();

  std::vector<std::string> children;
  Status s = env->GetChildren(dir, &children);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  InternalKeyComparator icmp(BytewiseComparator());
  TableOptions topt;
  topt.comparator = &icmp;

  std::printf("%-14s %10s %10s %8s %8s  %s\n", "file", "bytes", "entries",
              "blocks", "ratio", "key range");
  int tables = 0;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(child, &number, &type) || type != kTableFile) {
      continue;
    }
    const std::string fname = dir + "/" + child;
    uint64_t size = 0;
    env->GetFileSize(fname, &size);

    std::unique_ptr<RandomAccessFile> file;
    s = env->NewRandomAccessFile(fname, &file);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: %s\n", child.c_str(), s.ToString().c_str());
      continue;
    }
    std::unique_ptr<Table> table;
    s = Table::Open(topt, std::move(file), size, &table);
    if (!s.ok()) {
      std::printf("%-14s CORRUPT: %s\n", child.c_str(),
                  s.ToString().c_str());
      continue;
    }

    // Walk the index; verify every data block's checksum (S2) and count
    // raw bytes to compute the compression ratio.
    uint64_t blocks = 0, compressed = 0, raw_bytes = 0, entries = 0;
    std::string first_key, last_key;
    std::unique_ptr<Iterator> idx(table->NewIndexIterator());
    bool healthy = true;
    for (idx->SeekToFirst(); idx->Valid(); idx->Next()) {
      BlockHandle handle;
      Slice v = idx->value();
      if (!handle.DecodeFrom(&v).ok()) {
        healthy = false;
        break;
      }
      RawBlock rawb;
      if (!table->ReadRaw(handle, &rawb).ok() ||
          !VerifyRawBlock(rawb).ok()) {
        healthy = false;
        break;
      }
      BlockContents contents;
      if (!DecodeBlock(rawb.payload, &contents).ok()) {
        healthy = false;
        break;
      }
      blocks++;
      compressed += rawb.payload.size();
      raw_bytes += contents.data.size();
      Block release(contents);  // frees a decoded buffer
    }
    if (!healthy) {
      std::printf("%-14s CORRUPT BLOCK (checksum/decode failed)\n",
                  child.c_str());
      continue;
    }

    std::unique_ptr<Iterator> it(table->NewIterator());
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      ParsedInternalKey parsed;
      if (ParseInternalKey(it->key(), &parsed)) {
        if (entries == 0) first_key = parsed.user_key.ToString();
        last_key = parsed.user_key.ToString();
      }
      entries++;
    }

    std::printf("%-14s %10llu %10llu %8llu %7.2fx  ['%.24s' .. '%.24s']\n",
                child.c_str(), static_cast<unsigned long long>(size),
                static_cast<unsigned long long>(entries),
                static_cast<unsigned long long>(blocks),
                compressed > 0 ? double(raw_bytes) / compressed : 0.0,
                first_key.c_str(), last_key.c_str());
    tables++;
  }
  std::printf("%d table file(s) inspected, all checksums verified.\n",
              tables);
  return 0;
}
