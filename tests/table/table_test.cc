#include "src/table/table.h"

#include <gtest/gtest.h>

#include <map>

#include "src/env/sim_env.h"
#include "src/table/block.h"
#include "src/table/block_builder.h"
#include "src/table/filter_policy.h"
#include "src/table/format.h"
#include "src/table/table_builder.h"
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


// ---- hostile handles: the footer has no CRC, so one flipped varint byte
// can make a handle lie. Each lie must be Corruption from Table::Open,
// found before any buffer is sized from it. ----

// Writes `bytes` as a table file and opens it.
Status OpenBytes(SimEnv* env, const std::string& bytes,
                 const TableOptions& opt) {
  const std::string fname = "/hostile.pst";
  Status s = WriteStringToFile(env, bytes, fname);
  if (!s.ok()) return s;
  std::unique_ptr<RandomAccessFile> raf;
  s = env->NewRandomAccessFile(fname, &raf);
  if (!s.ok()) return s;
  std::unique_ptr<Table> table;
  return Table::Open(opt, std::move(raf), bytes.size(), &table);
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

TEST(Table, HostileFilterHandleIsCorruption) {
  TableFixture f;
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  TableOptions opt;
  opt.filter_policy = policy.get();
  ASSERT_TRUE(f.Build(MakeKv(300), opt).ok());
  std::string file;
  ASSERT_TRUE(ReadFileToString(&f.env, f.fname, &file).ok());
  const Footer good = DecodeFooter(file);
  const BlockHandle index = good.index_handle();

  // Rebuilds the file with a metaindex (valid CRC) whose filter handle
  // is `filter`, followed by the original index block and a new footer.
  auto with_filter_handle = [&](const BlockHandle& filter) {
    std::string encoding;
    filter.EncodeTo(&encoding);
    BlockBuilder meta(16);
    meta.Add(std::string("filter.") + policy->Name(), encoding);
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
  };

  // The rebuild itself is sound: the real filter handle opens.
  {
    std::unique_ptr<RandomAccessFile> raf;
    ASSERT_TRUE(f.env.NewRandomAccessFile(f.fname, &raf).ok());
    BlockContents contents;
    ASSERT_TRUE(ReadBlock(raf.get(), good.metaindex_handle(), &contents).ok());
    Block meta(contents);
    std::unique_ptr<Iterator> it(meta.NewIterator(BytewiseComparator()));
    it->SeekToFirst();
    ASSERT_TRUE(it->Valid());
    Slice v = it->value();
    BlockHandle real;
    ASSERT_TRUE(real.DecodeFrom(&v).ok());
    ASSERT_TRUE(OpenBytes(&f.env, with_filter_handle(real), opt).ok());
  }

  Random rnd(1402);
  for (int i = 0; i < 30; i++) {
    const BlockHandle bad = HostileHandle(i, file.size(), &rnd);
    const Status s = OpenBytes(&f.env, with_filter_handle(bad), opt);
    EXPECT_TRUE(s.IsCorruption()) << "offset=" << bad.offset()
                                  << " size=" << bad.size() << ": "
                                  << s.ToString();
  }
}

}  // namespace
}  // namespace pipelsm
