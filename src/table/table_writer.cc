#include "src/table/table_writer.h"

#include "src/table/filter_policy.h"
#include "src/table/format.h"

namespace pipelsm {

namespace {

// Keys between restart points in data and metaindex blocks.
constexpr int kBlockRestartInterval = 16;

}  // namespace

BlockEncoder::BlockEncoder(const TableOptions& options)
    : options_(options), block_(kBlockRestartInterval) {}

void BlockEncoder::Add(const Slice& key, const Slice& value) {
  if (block_.empty()) {
    first_key_.assign(key.data(), key.size());
  }
  block_.Add(key, value);
  last_key_.assign(key.data(), key.size());
  entries_++;
  if (options_.filter_policy != nullptr) {
    key_starts_.push_back(keys_.size());
    keys_.append(key.data(), key.size());
  }
}

void BlockEncoder::Finish(EncodedBlock* out, StepProfile* profile) {
  Stopwatch sw;
  const Slice raw = block_.Finish();
  out->first_key = first_key_;
  out->last_key = last_key_;
  out->entries = entries_;
  out->raw_size = raw.size();
  out->filter.clear();
  if (options_.filter_policy != nullptr) {
    std::vector<Slice> keys(key_starts_.size());
    for (size_t i = 0; i < keys.size(); i++) {
      const size_t end =
          i + 1 < key_starts_.size() ? key_starts_[i + 1] : keys_.size();
      keys[i] = Slice(keys_.data() + key_starts_[i], end - key_starts_[i]);
    }
    options_.filter_policy->CreateFilter(keys.data(), keys.size(),
                                         &out->filter);
  }
  if (profile != nullptr) {
    // Closing the block and building its filter finish the merge's work.
    profile->AddStep(kStepSort, sw.ElapsedNanos(), 0);
  }

  sw.Restart();
  const CompressionType type =
      CompressBlock(options_.compression, raw, &out->payload);
  if (profile != nullptr) {
    profile->AddStep(kStepCompress, sw.ElapsedNanos(), raw.size());
  }
  sw.Restart();
  AppendBlockTrailer(type, &out->payload);
  if (profile != nullptr) {
    profile->AddStep(kStepRechecksum, sw.ElapsedNanos(), out->payload.size());
  }

  block_.Reset();
  entries_ = 0;
  keys_.clear();
  key_starts_.clear();
}

TableWriter::TableWriter(const TableOptions& options, WritableFile* file)
    : options_(options),
      file_(file),
      index_block_(1),
      filter_(options.filter_policy == nullptr
                  ? nullptr
                  : new FilterBlockBuilder(options.filter_partition_bytes)) {}

Status TableWriter::Append(const std::string& block, BlockHandle* handle) {
  handle->set_offset(offset_);
  handle->set_size(block.size() - kBlockTrailerSize);
  Status s = file_->Append(block);
  if (s.ok()) offset_ += block.size();
  return s;
}

Status TableWriter::AppendCompressed(const Slice& raw, BlockHandle* handle) {
  std::string block;
  const CompressionType type = CompressBlock(options_.compression, raw, &block);
  AppendBlockTrailer(type, &block);
  return Append(block, handle);
}

Status TableWriter::AddBlock(const EncodedBlock& block) {
  if (filter_ != nullptr) {
    filter_->AddBlockFilter(offset_, block.filter);
  }
  BlockHandle handle;
  Status s = Append(block.payload, &handle);
  if (!s.ok()) return s;
  std::string handle_encoding;
  handle.EncodeTo(&handle_encoding);
  index_block_.Add(block.last_key, handle_encoding);
  return Status::OK();
}

Status TableWriter::Finish() {
  BlockBuilder metaindex(kBlockRestartInterval);
  if (filter_ != nullptr) {
    // Uncompressed, so Table::ReadFilter can read its tail and partitions
    // in place.
    std::string block = filter_->Finish().ToString();
    AppendBlockTrailer(CompressionType::kNoCompression, &block);
    BlockHandle handle;
    Status s = Append(block, &handle);
    if (!s.ok()) return s;
    std::string handle_encoding;
    handle.EncodeTo(&handle_encoding);
    metaindex.Add(std::string("filter.") + options_.filter_policy->Name(),
                  handle_encoding);
  }

  BlockHandle metaindex_handle, index_handle;
  Status s = AppendCompressed(metaindex.Finish(), &metaindex_handle);
  if (s.ok()) s = AppendCompressed(index_block_.Finish(), &index_handle);
  if (!s.ok()) return s;

  Footer footer;
  footer.set_metaindex_handle(metaindex_handle);
  footer.set_index_handle(index_handle);
  std::string footer_encoding;
  footer.EncodeTo(&footer_encoding);
  s = file_->Append(footer_encoding);
  if (!s.ok()) return s;
  offset_ += footer_encoding.size();
  return file_->Flush();
}

}  // namespace pipelsm
