#include "src/table/table_builder.h"

namespace pipelsm {

TableBuilder::TableBuilder(const TableOptions& options, WritableFile* file)
    : encoder_(options), writer_(options, file) {}

void TableBuilder::Add(const Slice& key, const Slice& value) {
  if (!status_.ok()) return;
  encoder_.Add(key, value);
  if (encoder_.full()) WriteBlock();
}

void TableBuilder::WriteBlock() {
  encoder_.Finish(&block_);
  status_ = writer_.AddBlock(block_);
}

Status TableBuilder::Finish() {
  if (status_.ok() && !encoder_.empty()) WriteBlock();
  if (status_.ok()) status_ = writer_.Finish();
  return status_;
}

}  // namespace pipelsm
