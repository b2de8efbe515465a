#include "src/table/table.h"

#include <map>
#include <mutex>
#include <string>

#include "src/read/cache.h"
#include "src/table/block.h"
#include "src/table/comparator.h"
#include "src/table/filter_block.h"
#include "src/table/filter_policy.h"
#include "src/table/format.h"
#include "src/table/two_level_iterator.h"
#include "src/util/coding.h"

namespace pipelsm {

namespace {

// Handles come from the file itself (the footer has no checksum), so one
// that points outside the file is Corruption, found before a read sizes a
// buffer from it.
Status CheckExtent(uint64_t offset, uint64_t size, uint64_t file_size) {
  if (size > file_size || offset > file_size - size) {
    return Status::Corruption("block handle points outside the file");
  }
  return Status::OK();
}

// A block's stored extent is its payload plus the trailer.
Status CheckBlock(const BlockHandle& handle, uint64_t file_size) {
  const uint64_t stored = handle.size() + kBlockTrailerSize;
  if (stored < handle.size()) {
    return Status::Corruption("block handle points outside the file");
  }
  return CheckExtent(handle.offset(), stored, file_size);
}

}  // namespace

struct Table::Rep {
  TableOptions options;
  Status status;
  std::unique_ptr<RandomAccessFile> file;
  uint64_t file_size = 0;
  uint64_t cache_id = 0;

  // Partitioned filter: only the top-level index lives in memory;
  // partitions are loaded on demand (through the block cache when one
  // is configured).
  bool has_filter = false;
  FilterIndex filter_index;
  BlockHandle filter_handle;

  // Cache-less fallback: with no shared block cache, loaded partitions
  // pin here for the table's lifetime (bounded by the filter block
  // size — the same footprint the old eager whole-block load had),
  // instead of re-reading the device on every probe.
  std::mutex filter_mu;
  std::map<uint32_t, std::shared_ptr<std::string>> pinned_partitions;

  BlockHandle metaindex_handle;
  std::unique_ptr<Block> index_block;
};

Table::Table(Rep* rep) : rep_(rep) {}

Table::~Table() = default;

const TableOptions& Table::options() const { return rep_->options; }

uint64_t Table::cache_id() const { return rep_->cache_id; }

Status Table::Open(const TableOptions& options,
                   std::unique_ptr<RandomAccessFile> file, uint64_t size,
                   std::unique_ptr<Table>* table) {
  table->reset();
  if (size < Footer::kEncodedLength) {
    return Status::Corruption("file is too short to be an sstable");
  }

  char footer_space[Footer::kEncodedLength];
  Slice footer_input;
  Status s = file->Read(size - Footer::kEncodedLength, Footer::kEncodedLength,
                        &footer_input, footer_space);
  if (!s.ok()) return s;

  Footer footer;
  s = footer.DecodeFrom(&footer_input);
  if (s.ok()) s = CheckBlock(footer.metaindex_handle(), size);
  if (s.ok()) s = CheckBlock(footer.index_handle(), size);
  if (!s.ok()) return s;

  // Read the index block.
  BlockContents index_block_contents;
  s = ReadBlock(file.get(), footer.index_handle(), &index_block_contents);
  if (!s.ok()) return s;

  auto* rep = new Rep;
  rep->options = options;
  rep->file = std::move(file);
  rep->file_size = size;
  rep->metaindex_handle = footer.metaindex_handle();
  rep->index_block.reset(new Block(index_block_contents));
  rep->cache_id =
      options.block_cache != nullptr ? options.block_cache->NewId() : 0;
  table->reset(new Table(rep));
  s = (*table)->ReadMeta(footer);
  if (!s.ok()) table->reset();
  return s;
}

Status Table::ReadMeta(const Footer& footer) {
  if (rep_->options.filter_policy == nullptr) {
    return Status::OK();  // Do not need any metadata
  }

  BlockContents contents;
  if (!ReadBlock(rep_->file.get(), footer.metaindex_handle(), &contents).ok()) {
    // The filter is optional: without it every probe may match.
    return Status::OK();
  }
  Block meta(contents);

  std::unique_ptr<Iterator> iter(meta.NewIterator(BytewiseComparator()));
  std::string key = "filter.";
  key.append(rep_->options.filter_policy->Name());
  iter->Seek(key);
  if (iter->Valid() && iter->key() == Slice(key)) {
    return ReadFilter(iter->value());
  }
  return Status::OK();
}

Status Table::ReadFilter(const Slice& filter_handle_value) {
  Slice v = filter_handle_value;
  BlockHandle filter_handle;
  Status s = filter_handle.DecodeFrom(&v);
  if (s.ok()) s = CheckBlock(filter_handle, rep_->file_size);
  if (!s.ok()) return s;

  // Read only the trailing tail + top index; partitions stay on disk
  // until a probe needs them. The filter block is written uncompressed
  // (see TableWriter::Finish), so partial raw reads are valid. A tail
  // that fails to load or parse leaves the table without a filter.
  const uint64_t block_size = filter_handle.size();
  constexpr uint64_t kTailBytes = 9;  // index offset + count + base_lg
  if (block_size < kTailBytes) return Status::OK();
  char tail_space[kTailBytes];
  Slice tail;
  if (!rep_->file
           ->Read(filter_handle.offset() + block_size - kTailBytes,
                  kTailBytes, &tail, tail_space)
           .ok() ||
      tail.size() != kTailBytes) {
    return Status::OK();
  }
  const uint64_t num_partitions = DecodeFixed32(tail.data() + 4);
  const uint64_t index_bytes = num_partitions * 16;
  if (index_bytes + kTailBytes > block_size) return Status::OK();
  std::string index_buf;
  index_buf.resize(index_bytes + kTailBytes);
  Slice index_region;
  if (!rep_->file
           ->Read(filter_handle.offset() + block_size - kTailBytes -
                      index_bytes,
                  index_bytes + kTailBytes, &index_region, index_buf.data())
           .ok()) {
    return Status::OK();
  }
  if (rep_->filter_index.ParseTail(index_region, block_size)) {
    rep_->filter_handle = filter_handle;
    rep_->has_filter = true;
  }
  return Status::OK();
}

// Consults the partitioned filter for `block_offset`, loading the
// covering partition through the block cache (17-byte key: cache id,
// partition file offset, 'f' tag — the tag keeps the id prefix shared
// with data blocks so one ErasePrefix drops both). Any failure returns
// true: the filter only ever skips reads it can prove useless.
bool Table::FilterKeyMayMatch(const TableReadOptions& read_options,
                              uint64_t block_offset, const Slice& key) const {
  if (!rep_->has_filter) return true;
  const uint64_t window = block_offset >> rep_->filter_index.base_lg();
  FilterPartitionInfo part;
  if (!rep_->filter_index.Lookup(window, &part)) return true;

  read::Cache* cache = rep_->options.block_cache;
  char cache_key_buffer[17];
  Slice cache_key;
  std::shared_ptr<std::string> partition;
  if (cache != nullptr) {
    EncodeFixed64(cache_key_buffer, rep_->cache_id);
    EncodeFixed64(cache_key_buffer + 8,
                  rep_->filter_handle.offset() + part.offset);
    cache_key_buffer[16] = 'f';
    cache_key = Slice(cache_key_buffer, sizeof(cache_key_buffer));
    partition = cache->LookupAs<std::string>(cache_key);
  } else {
    std::lock_guard<std::mutex> lock(rep_->filter_mu);
    auto it = rep_->pinned_partitions.find(part.offset);
    if (it != rep_->pinned_partitions.end()) partition = it->second;
  }
  if (partition == nullptr) {
    auto loaded = std::make_shared<std::string>();
    if (!ReadExtent(rep_->filter_handle.offset() + part.offset, part.size,
                    loaded.get())
             .ok()) {
      return true;
    }
    if (!FilterPartitionCrcOk(Slice(*loaded))) return true;
    partition = std::move(loaded);
    if (cache != nullptr) {
      if (read_options.fill_cache) {
        cache->Insert(cache_key, partition, partition->size());
      }
    } else {
      std::lock_guard<std::mutex> lock(rep_->filter_mu);
      rep_->pinned_partitions.emplace(part.offset, partition);
    }
  }
  return FilterPartitionKeyMayMatch(
      rep_->options.filter_policy, Slice(*partition), part.num_windows,
      static_cast<uint32_t>(window - part.first_window), key);
}

// Converts an index-block value (encoded BlockHandle) into an iterator over
// the corresponding data block, consulting the shared cache first.
Iterator* Table::ReadBlockIterator(const TableReadOptions& read_options,
                                   const Slice& index_value) const {
  read::Cache* cache = rep_->options.block_cache;
  Slice input = index_value;
  BlockHandle handle;
  Status s = handle.DecodeFrom(&input);
  if (s.ok()) s = CheckBlock(handle, rep_->file_size);
  if (!s.ok()) {
    return NewErrorIterator(s);
  }

  std::shared_ptr<Block> block;
  char cache_key_buffer[16];
  if (cache != nullptr) {
    EncodeFixed64(cache_key_buffer, rep_->cache_id);
    EncodeFixed64(cache_key_buffer + 8, handle.offset());
    Slice key(cache_key_buffer, sizeof(cache_key_buffer));
    block = cache->LookupAs<Block>(key);
    if (block == nullptr) {
      BlockContents contents;
      s = ReadBlock(rep_->file.get(), handle, &contents);
      if (!s.ok()) return NewErrorIterator(s);
      block = std::make_shared<Block>(contents);
      if (contents.cachable && read_options.fill_cache) {
        cache->Insert(key, block, block->size());
      }
    }
  } else {
    BlockContents contents;
    s = ReadBlock(rep_->file.get(), handle, &contents);
    if (!s.ok()) return NewErrorIterator(s);
    block = std::make_shared<Block>(contents);
  }

  Iterator* iter = block->NewIterator(rep_->options.comparator);
  // Pin the block for the iterator's lifetime.
  iter->RegisterCleanup([block]() mutable { block.reset(); });
  return iter;
}

Iterator* Table::NewIterator(const TableReadOptions& read_options) const {
  return NewTwoLevelIterator(
      rep_->index_block->NewIterator(rep_->options.comparator),
      [this, read_options](const Slice& index_value) {
        return ReadBlockIterator(read_options, index_value);
      });
}

Iterator* Table::NewIndexIterator() const {
  return rep_->index_block->NewIterator(rep_->options.comparator);
}

Status Table::ReadRaw(const BlockHandle& handle, RawBlock* out) const {
  Status s = CheckBlock(handle, rep_->file_size);
  if (!s.ok()) return s;
  return ReadRawBlock(rep_->file.get(), handle, out);
}

Status Table::ReadExtent(uint64_t offset, uint64_t size,
                         std::string* out) const {
  Status s = CheckExtent(offset, size, rep_->file_size);
  if (!s.ok()) return s;
  out->resize(size);
  Slice contents;
  s = rep_->file->Read(offset, size, &contents, out->data());
  if (!s.ok()) return s;
  if (contents.size() != size) {
    return Status::Corruption("truncated extent read");
  }
  if (contents.data() != out->data()) {
    out->assign(contents.data(), contents.size());
  }
  return Status::OK();
}

Status Table::InternalGet(
    const TableReadOptions& read_options, const Slice& k,
    const std::function<void(const Slice&, const Slice&)>& handle_result)
    const {
  Status s;
  std::unique_ptr<Iterator> iiter(
      rep_->index_block->NewIterator(rep_->options.comparator));
  iiter->Seek(k);
  if (iiter->Valid()) {
    Slice handle_value = iiter->value();
    BlockHandle handle;
    Slice hv = handle_value;
    if (rep_->has_filter && handle.DecodeFrom(&hv).ok() &&
        !FilterKeyMayMatch(read_options, handle.offset(), k)) {
      // Not found: filter says the key is definitely absent.
    } else {
      std::unique_ptr<Iterator> block_iter(
          ReadBlockIterator(read_options, handle_value));
      block_iter->Seek(k);
      if (block_iter->Valid()) {
        handle_result(block_iter->key(), block_iter->value());
      }
      s = block_iter->status();
    }
  }
  if (s.ok()) {
    s = iiter->status();
  }
  return s;
}

uint64_t Table::ApproximateOffsetOf(const Slice& key) const {
  std::unique_ptr<Iterator> index_iter(
      rep_->index_block->NewIterator(rep_->options.comparator));
  index_iter->Seek(key);
  uint64_t result;
  if (index_iter->Valid()) {
    BlockHandle handle;
    Slice input = index_iter->value();
    Status s = handle.DecodeFrom(&input);
    if (s.ok()) {
      result = handle.offset();
    } else {
      // Strange: we can't decode the block handle in the index block.
      // We'll just return the offset of the metaindex block.
      result = rep_->metaindex_handle.offset();
    }
  } else {
    // key is past the last key in the file; approximate by the metaindex
    // offset (close to the whole file size).
    result = rep_->metaindex_handle.offset();
  }
  return result;
}

}  // namespace pipelsm
