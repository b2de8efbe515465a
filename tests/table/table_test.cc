#include "src/table/table.h"

#include <gtest/gtest.h>

#include <map>

#include "src/env/sim_env.h"
#include "src/read/cache.h"
#include "src/table/block.h"
#include "src/table/block_builder.h"
#include "src/table/filter_policy.h"
#include "src/table/format.h"
#include "src/table/table_builder.h"
#include "src/util/coding.h"
#include "src/util/random.h"

namespace pipelsm {
namespace {

struct TableFixture {
  SimEnv env;
  std::string fname = "/t.pst";
  std::unique_ptr<Table> table;

  Status Build(const std::map<std::string, std::string>& kv,
               TableOptions opt = TableOptions()) {
    std::unique_ptr<WritableFile> file;
    Status s = env.NewWritableFile(fname, &file);
    if (!s.ok()) return s;
    TableBuilder builder(opt, file.get());
    for (const auto& [k, v] : kv) {
      builder.Add(k, v);
    }
    s = builder.Finish();
    if (!s.ok()) return s;
    s = file->Close();
    if (!s.ok()) return s;

    uint64_t size;
    s = env.GetFileSize(fname, &size);
    if (!s.ok()) return s;
    std::unique_ptr<RandomAccessFile> raf;
    s = env.NewRandomAccessFile(fname, &raf);
    if (!s.ok()) return s;
    return Table::Open(opt, std::move(raf), size, &table);
  }
};

std::map<std::string, std::string> MakeKv(int n, uint32_t seed = 301) {
  Random rnd(seed);
  std::map<std::string, std::string> kv;
  for (int i = 0; i < n; i++) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%08d", i);
    kv[key] = std::string(10 + rnd.Uniform(90), static_cast<char>('a' + i % 26));
  }
  return kv;
}

TEST(Table, EmptyTable) {
  TableFixture f;
  ASSERT_TRUE(f.Build({}).ok());
  std::unique_ptr<Iterator> it(f.table->NewIterator());
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
}

TEST(Table, FullScanRoundTrip) {
  TableFixture f;
  auto kv = MakeKv(2000);
  ASSERT_TRUE(f.Build(kv).ok());

  std::unique_ptr<Iterator> it(f.table->NewIterator());
  auto expected = kv.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expected) {
    ASSERT_NE(kv.end(), expected);
    EXPECT_EQ(expected->first, it->key().ToString());
    EXPECT_EQ(expected->second, it->value().ToString());
  }
  EXPECT_EQ(kv.end(), expected);
  EXPECT_TRUE(it->status().ok());
}

TEST(Table, SeekAcrossBlocks) {
  TableFixture f;
  TableOptions opt;
  opt.block_size = 256;  // force many data blocks
  auto kv = MakeKv(500);
  ASSERT_TRUE(f.Build(kv, opt).ok());

  std::unique_ptr<Iterator> it(f.table->NewIterator());
  for (int i = 0; i < 500; i += 37) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%08d", i);
    it->Seek(key);
    ASSERT_TRUE(it->Valid()) << key;
    EXPECT_EQ(key, it->key().ToString());
  }
  it->Seek("zzz");
  EXPECT_FALSE(it->Valid());
}

TEST(Table, BackwardScan) {
  TableFixture f;
  TableOptions opt;
  opt.block_size = 128;
  auto kv = MakeKv(300);
  ASSERT_TRUE(f.Build(kv, opt).ok());
  std::unique_ptr<Iterator> it(f.table->NewIterator());
  auto expected = kv.rbegin();
  for (it->SeekToLast(); it->Valid(); it->Prev(), ++expected) {
    ASSERT_NE(kv.rend(), expected);
    EXPECT_EQ(expected->first, it->key().ToString());
  }
  EXPECT_EQ(kv.rend(), expected);
}

TEST(Table, InternalGetFindsEntries) {
  TableFixture f;
  auto kv = MakeKv(400);
  ASSERT_TRUE(f.Build(kv).ok());

  for (const auto& [k, v] : kv) {
    bool found = false;
    std::string got;
    ASSERT_TRUE(f.table
                    ->InternalGet({}, k,
                                  [&](const Slice& fk, const Slice& fv) {
                                    if (fk == Slice(k)) {
                                      found = true;
                                      got = fv.ToString();
                                    }
                                  })
                    .ok());
    EXPECT_TRUE(found) << k;
    EXPECT_EQ(v, got);
  }
}

TEST(Table, WithBloomFilter) {
  TableFixture f;
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  TableOptions opt;
  opt.filter_policy = policy.get();
  auto kv = MakeKv(500);
  ASSERT_TRUE(f.Build(kv, opt).ok());

  int hits = 0;
  for (const auto& [k, v] : kv) {
    f.table->InternalGet({}, k, [&](const Slice&, const Slice&) { hits++; });
  }
  EXPECT_EQ(500, hits);
}

TEST(Table, NoCompressionOption) {
  TableFixture f;
  TableOptions opt;
  opt.compression = CompressionType::kNoCompression;
  auto kv = MakeKv(100);
  ASSERT_TRUE(f.Build(kv, opt).ok());
  std::unique_ptr<Iterator> it(f.table->NewIterator());
  int n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
  EXPECT_EQ(100, n);
}

TEST(Table, ChecksumCatchesCorruption) {
  TableFixture f;
  TableOptions opt;
  opt.block_size = 512;
  auto kv = MakeKv(400);
  ASSERT_TRUE(f.Build(kv, opt).ok());

  // Flip bytes early in the file (inside the first data block).
  ASSERT_TRUE(f.env.CorruptFile(f.fname, 10, 8).ok());

  // Reopen: index block is at the end, likely intact; reading the first
  // data block must fail the checksum.
  uint64_t size;
  ASSERT_TRUE(f.env.GetFileSize(f.fname, &size).ok());
  std::unique_ptr<RandomAccessFile> raf;
  ASSERT_TRUE(f.env.NewRandomAccessFile(f.fname, &raf).ok());
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Open(opt, std::move(raf), size, &table).ok());

  std::unique_ptr<Iterator> it(table->NewIterator());
  it->SeekToFirst();
  // Either the iterator is immediately invalid or a scan hits the error.
  while (it->Valid()) it->Next();
  EXPECT_FALSE(it->status().ok());
  EXPECT_TRUE(it->status().IsCorruption());
}

TEST(Table, ApproximateOffsetMonotone) {
  TableFixture f;
  TableOptions opt;
  opt.block_size = 256;
  auto kv = MakeKv(1000);
  ASSERT_TRUE(f.Build(kv, opt).ok());

  uint64_t prev = 0;
  for (int i = 0; i < 1000; i += 100) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%08d", i);
    uint64_t off = f.table->ApproximateOffsetOf(key);
    EXPECT_GE(off, prev);
    prev = off;
  }
}

TEST(Table, IndexIteratorEnumeratesBlocks) {
  TableFixture f;
  TableOptions opt;
  opt.block_size = 256;
  auto kv = MakeKv(500);
  ASSERT_TRUE(f.Build(kv, opt).ok());

  std::unique_ptr<Iterator> idx(f.table->NewIndexIterator());
  int blocks = 0;
  std::string prev_key;
  for (idx->SeekToFirst(); idx->Valid(); idx->Next()) {
    blocks++;
    if (!prev_key.empty()) {
      EXPECT_GT(idx->key().ToString(), prev_key);
    }
    prev_key = idx->key().ToString();

    // Every index value decodes into a readable raw block.
    BlockHandle handle;
    Slice v = idx->value();
    ASSERT_TRUE(handle.DecodeFrom(&v).ok());
    RawBlock raw;
    ASSERT_TRUE(f.table->ReadRaw(handle, &raw).ok());
    ASSERT_TRUE(VerifyRawBlock(raw).ok());
    BlockContents contents;
    ASSERT_TRUE(DecodeBlock(raw.payload, &contents).ok());
    Block block(contents);
    EXPECT_GT(block.size(), 0u);
  }
  EXPECT_GT(blocks, 10);
}


// ---- the block cache holds each data block as stored: payload plus
// trailer, verified when it was read, charged at that size ----

struct BlockSizes {
  int blocks = 0;
  uint64_t stored = 0;   // payload + trailer, as on disk
  uint64_t decoded = 0;  // what a Block parses
};

BlockSizes SumBlockSizes(const Table& table) {
  BlockSizes sizes;
  std::unique_ptr<Iterator> idx(table.NewIndexIterator());
  for (idx->SeekToFirst(); idx->Valid(); idx->Next()) {
    BlockHandle handle;
    Slice v = idx->value();
    EXPECT_TRUE(handle.DecodeFrom(&v).ok());
    RawBlock raw;
    EXPECT_TRUE(table.ReadRaw(handle, &raw).ok());
    BlockContents contents;
    EXPECT_TRUE(DecodeBlock(raw.payload, &contents).ok());
    Block block(contents);
    sizes.blocks++;
    sizes.stored += raw.payload.size();
    sizes.decoded += block.size();
  }
  return sizes;
}

TEST(Table, CacheChargesStoredBlockSizes) {
  TableFixture f;
  auto cache = read::NewShardedLRUCache(64 << 20, 1);
  TableOptions opt;
  opt.block_size = 1024;
  opt.block_cache = cache.get();
  auto kv = MakeKv(600);
  ASSERT_TRUE(f.Build(kv, opt).ok());
  const BlockSizes sizes = SumBlockSizes(*f.table);
  ASSERT_GT(sizes.blocks, 10);
  // The values are runs, so the blocks compress: the two sums differ.
  ASSERT_LT(sizes.stored, sizes.decoded);

  std::unique_ptr<Iterator> it(f.table->NewIterator());
  size_t n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
  ASSERT_TRUE(it->status().ok());
  EXPECT_EQ(kv.size(), n);
  EXPECT_EQ(sizes.stored, cache->usage());
  EXPECT_EQ(0u, cache->hits());
  EXPECT_EQ(static_cast<uint64_t>(sizes.blocks), cache->misses());

  // A second scan and a point read decode from the cache: no new
  // charge, one hit per block.
  it.reset(f.table->NewIterator());
  n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
  EXPECT_EQ(kv.size(), n);
  std::string got;
  ASSERT_TRUE(f.table
                  ->InternalGet({}, kv.begin()->first,
                                [&](const Slice&, const Slice& v) {
                                  got = v.ToString();
                                })
                  .ok());
  EXPECT_EQ(kv.begin()->second, got);
  EXPECT_EQ(sizes.stored, cache->usage());
  EXPECT_EQ(static_cast<uint64_t>(sizes.blocks) + 1, cache->hits());
}

TEST(Table, CorruptBlockNeverEntersTheCache) {
  TableFixture f;
  auto cache = read::NewShardedLRUCache(64 << 20, 1);
  TableOptions opt;
  opt.block_size = 512;
  opt.block_cache = cache.get();
  auto kv = MakeKv(400);
  ASSERT_TRUE(f.Build(kv, opt).ok());
  const BlockSizes all = SumBlockSizes(*f.table);
  ASSERT_TRUE(f.env.CorruptFile(f.fname, 10, 8).ok());  // first data block
  uint64_t size;
  ASSERT_TRUE(f.env.GetFileSize(f.fname, &size).ok());
  std::unique_ptr<RandomAccessFile> raf;
  ASSERT_TRUE(f.env.NewRandomAccessFile(f.fname, &raf).ok());
  std::unique_ptr<Table> table;
  ASSERT_TRUE(Table::Open(opt, std::move(raf), size, &table).ok());

  // A point read of the corrupt block fails, every time, and leaves
  // nothing in the cache.
  for (int attempt = 0; attempt < 2; attempt++) {
    SCOPED_TRACE(attempt);
    const Status s = table->InternalGet(
        {}, kv.begin()->first, [](const Slice&, const Slice&) {});
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_EQ(0u, cache->usage());
    EXPECT_EQ(0u, cache->hits());
  }

  // A scan reports it and caches every other block, at its stored size.
  RawBlock first;
  std::unique_ptr<Iterator> idx(table->NewIndexIterator());
  idx->SeekToFirst();
  ASSERT_TRUE(idx->Valid());
  BlockHandle first_handle;
  Slice v = idx->value();
  ASSERT_TRUE(first_handle.DecodeFrom(&v).ok());
  ASSERT_TRUE(table->ReadRaw(first_handle, &first).ok());
  ASSERT_TRUE(VerifyRawBlock(first).IsCorruption());
  for (int attempt = 0; attempt < 2; attempt++) {
    SCOPED_TRACE(attempt);
    std::unique_ptr<Iterator> it(table->NewIterator());
    size_t n = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
    EXPECT_LT(n, kv.size());
    EXPECT_TRUE(it->status().IsCorruption()) << it->status().ToString();
    EXPECT_EQ(all.stored - first.payload.size(), cache->usage());
  }
}

// An uncompressed block is parsed in place, out of the cached bytes: the
// iterator over it keeps those bytes alive after the cache drops them.
TEST(Table, UncompressedBlockPinsItsCacheEntry) {
  TableFixture f;
  auto cache = read::NewShardedLRUCache(64 << 20, 1);
  TableOptions opt;
  opt.block_size = 1024;
  opt.block_cache = cache.get();
  opt.compression = CompressionType::kNoCompression;
  auto kv = MakeKv(200);
  ASSERT_TRUE(f.Build(kv, opt).ok());

  std::unique_ptr<Iterator> it(f.table->NewIterator());
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  ASSERT_GT(cache->ErasePrefix(Slice()), 0u);
  ASSERT_EQ(0u, cache->usage());
  auto expected = kv.begin();
  for (; it->Valid(); it->Next(), ++expected) {
    ASSERT_NE(kv.end(), expected);
    EXPECT_EQ(expected->first, it->key().ToString());
    EXPECT_EQ(expected->second, it->value().ToString());
  }
  EXPECT_TRUE(it->status().ok());
  EXPECT_EQ(kv.end(), expected);
}

// ---- hostile handles: the footer has no CRC, so one flipped varint byte
// can make a handle lie. Each lie must be Corruption from Table::Open,
// found before any buffer is sized from it. ----

// Writes `bytes` as a table file and opens it into *table.
Status OpenTable(SimEnv* env, const std::string& bytes,
                 const TableOptions& opt, std::unique_ptr<Table>* table) {
  const std::string fname = "/hostile.pst";
  Status s = WriteStringToFile(env, bytes, fname);
  if (!s.ok()) return s;
  std::unique_ptr<RandomAccessFile> raf;
  s = env->NewRandomAccessFile(fname, &raf);
  if (!s.ok()) return s;
  return Table::Open(opt, std::move(raf), bytes.size(), table);
}

Status OpenBytes(SimEnv* env, const std::string& bytes,
                 const TableOptions& opt) {
  std::unique_ptr<Table> table;
  return OpenTable(env, bytes, opt, &table);
}

Footer DecodeFooter(const std::string& file) {
  Footer footer;
  Slice input(file.data() + file.size() - Footer::kEncodedLength,
              Footer::kEncodedLength);
  EXPECT_TRUE(footer.DecodeFrom(&input).ok());
  return footer;
}

// A handle that cannot fit in a file of `file_size` bytes; `kind` picks
// the lie: a huge size, an offset past EOF, or an offset whose end
// overflows 64 bits.
BlockHandle HostileHandle(int kind, uint64_t file_size, Random* rnd) {
  BlockHandle h;
  switch (kind % 3) {
    case 0:
      h.set_offset(rnd->Uniform(static_cast<int>(file_size)));
      h.set_size((uint64_t{1} << 62) + rnd->Next());
      break;
    case 1:
      h.set_offset(file_size + rnd->Uniform(1 << 20));
      h.set_size(rnd->Uniform(4096));
      break;
    default:
      h.set_offset(~uint64_t{0} - rnd->Uniform(64));
      h.set_size(rnd->Uniform(4096));
      break;
  }
  return h;
}

TEST(Table, HostileFooterHandlesAreCorruption) {
  TableFixture f;
  ASSERT_TRUE(f.Build(MakeKv(300)).ok());
  std::string file;
  ASSERT_TRUE(ReadFileToString(&f.env, f.fname, &file).ok());
  const Footer good = DecodeFooter(file);
  const std::string body = file.substr(0, file.size() - Footer::kEncodedLength);

  // The unmodified bytes open, so each failure below is the handle's.
  ASSERT_TRUE(OpenBytes(&f.env, file, TableOptions()).ok());

  Random rnd(1401);
  for (int i = 0; i < 30; i++) {
    for (bool index : {true, false}) {
      Footer footer = good;
      const BlockHandle bad = HostileHandle(i, file.size(), &rnd);
      if (index) {
        footer.set_index_handle(bad);
      } else {
        footer.set_metaindex_handle(bad);
      }
      std::string bytes = body;
      footer.EncodeTo(&bytes);
      const Status s = OpenBytes(&f.env, bytes, TableOptions());
      EXPECT_TRUE(s.IsCorruption())
          << (index ? "index" : "metaindex") << " offset=" << bad.offset()
          << " size=" << bad.size() << ": " << s.ToString();
    }
  }
}

// The filter handle in the metaindex of the table file `fname`.
BlockHandle FilterHandle(SimEnv* env, const std::string& fname,
                         const Footer& footer) {
  BlockHandle handle;
  std::unique_ptr<RandomAccessFile> raf;
  EXPECT_TRUE(env->NewRandomAccessFile(fname, &raf).ok());
  BlockContents contents;
  EXPECT_TRUE(ReadBlock(raf.get(), footer.metaindex_handle(), &contents).ok());
  Block meta(contents);
  std::unique_ptr<Iterator> it(meta.NewIterator(BytewiseComparator()));
  it->SeekToFirst();
  EXPECT_TRUE(it->Valid());
  if (!it->Valid()) return handle;
  Slice v = it->value();
  EXPECT_TRUE(handle.DecodeFrom(&v).ok());
  return handle;
}

// Rebuilds `file` (whose footer is `good`) with a metaindex (valid CRC)
// whose filter handle is `filter`, followed by the original index block
// and a new footer.
std::string WithFilterHandle(const std::string& file, const Footer& good,
                             const FilterPolicy& policy,
                             const BlockHandle& filter) {
  const BlockHandle index = good.index_handle();
  std::string encoding;
  filter.EncodeTo(&encoding);
  BlockBuilder meta(16);
  meta.Add(std::string("filter.") + policy.Name(), encoding);
  std::string meta_block = meta.Finish().ToString();
  AppendBlockTrailer(CompressionType::kNoCompression, &meta_block);

  std::string bytes = file.substr(0, good.metaindex_handle().offset());
  BlockHandle meta_handle, index_handle;
  meta_handle.set_offset(bytes.size());
  meta_handle.set_size(meta_block.size() - kBlockTrailerSize);
  bytes += meta_block;
  index_handle.set_offset(bytes.size());
  index_handle.set_size(index.size());
  bytes.append(file, index.offset(), index.size() + kBlockTrailerSize);
  Footer footer;
  footer.set_metaindex_handle(meta_handle);
  footer.set_index_handle(index_handle);
  footer.EncodeTo(&bytes);
  return bytes;
}

TEST(Table, HostileFilterHandleIsCorruption) {
  TableFixture f;
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  TableOptions opt;
  opt.filter_policy = policy.get();
  ASSERT_TRUE(f.Build(MakeKv(300), opt).ok());
  std::string file;
  ASSERT_TRUE(ReadFileToString(&f.env, f.fname, &file).ok());
  const Footer good = DecodeFooter(file);
  auto with_filter_handle = [&](const BlockHandle& filter) {
    return WithFilterHandle(file, good, *policy, filter);
  };

  // The rebuild itself is sound: the real filter handle opens.
  const BlockHandle real = FilterHandle(&f.env, f.fname, good);
  ASSERT_TRUE(OpenBytes(&f.env, with_filter_handle(real), opt).ok());

  Random rnd(1402);
  for (int i = 0; i < 30; i++) {
    const BlockHandle bad = HostileHandle(i, file.size(), &rnd);
    const Status s = OpenBytes(&f.env, with_filter_handle(bad), opt);
    EXPECT_TRUE(s.IsCorruption()) << "offset=" << bad.offset()
                                  << " size=" << bad.size() << ": "
                                  << s.ToString();
  }
}

// ---- hostile filter block contents: Table::ReadFilter reads only the
// tail words and the top index, and each probe loads one partition, so
// no trailer CRC covers what they decode. Damage there must leave the
// table without a filter or make a probe answer may-match: every key
// stays readable. ----
TEST(Table, HostileFilterBlockNeverHidesAKey) {
  TableFixture f;
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  TableOptions opt;
  opt.filter_policy = policy.get();
  // Uncompressed 2 KiB blocks give one block per filter window, so each
  // window has a selective filter rather than a shared match-all one.
  opt.block_size = 2048;
  opt.compression = CompressionType::kNoCompression;
  opt.filter_partition_bytes = 64;  // many partitions
  const std::map<std::string, std::string> kv = MakeKv(1500);
  ASSERT_TRUE(f.Build(kv, opt).ok());
  std::string file;
  ASSERT_TRUE(ReadFileToString(&f.env, f.fname, &file).ok());
  const Footer good = DecodeFooter(file);
  const BlockHandle filter = FilterHandle(&f.env, f.fname, good);
  ASSERT_GT(filter.size(), 64u * 4);
  const uint64_t num_partitions =
      DecodeFixed32(file.data() + filter.offset() + filter.size() - 5);
  ASSERT_GT(num_partitions, 4u);
  const uint64_t index_bytes = num_partitions * 16 + 9;

  // Opens `bytes` with and without a block cache (the cached and the
  // pinned partition paths) and reads every fifth key back.
  auto expect_every_key = [&](const std::string& bytes,
                              const std::string& what) {
    for (bool cached : {false, true}) {
      std::unique_ptr<read::Cache> cache = read::NewShardedLRUCache(1 << 20, 1);
      TableOptions o = opt;
      if (cached) o.block_cache = cache.get();
      std::unique_ptr<Table> table;
      const Status s = OpenTable(&f.env, bytes, o, &table);
      ASSERT_TRUE(s.ok()) << what << ": " << s.ToString();
      int i = 0;
      for (const auto& [k, v] : kv) {
        if (i++ % 5 != 0) continue;
        bool found = false;
        ASSERT_TRUE(table
                        ->InternalGet({}, k,
                                      [&](const Slice& fk, const Slice&) {
                                        found = found || fk == Slice(k);
                                      })
                        .ok())
            << what;
        ASSERT_TRUE(found) << what << " cached=" << cached << " " << k;
      }
    }
  };

  expect_every_key(file, "intact");
  Random rnd(3702);
  for (int i = 0; i < 400 && !testing::Test::HasFatalFailure(); i++) {
    // Half the flips land in the top index and tail words.
    const uint64_t lo = i % 2 == 0 ? filter.size() - index_bytes : 0;
    const uint64_t pos = filter.offset() + lo +
                         rnd.Uniform(static_cast<int>(filter.size() - lo));
    std::string bytes = file;
    bytes[pos] ^= static_cast<char>(1 << rnd.Uniform(8));
    expect_every_key(bytes, "flip@" + std::to_string(pos));
  }
  // A filter handle that claims fewer bytes makes ReadFilter's tail read
  // land early (the block is cut at its end) or lie about every offset
  // (the block starts late).
  for (uint64_t d : {uint64_t{1}, uint64_t{4}, uint64_t{5}, uint64_t{9},
                     uint64_t{16}, uint64_t{17}, index_bytes - 1, index_bytes,
                     index_bytes + 1, filter.size() / 2, filter.size() - 9,
                     filter.size() - 1}) {
    if (testing::Test::HasFatalFailure()) break;
    BlockHandle cut = filter;
    cut.set_size(filter.size() - d);
    expect_every_key(WithFilterHandle(file, good, *policy, cut),
                     "cut " + std::to_string(d));
    BlockHandle late = filter;
    late.set_offset(filter.offset() + d);
    late.set_size(filter.size() - d);
    expect_every_key(WithFilterHandle(file, good, *policy, late),
                     "late " + std::to_string(d));
  }
}

}  // namespace
}  // namespace pipelsm
