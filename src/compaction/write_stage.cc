#include "src/compaction/write_stage.h"

#include <cassert>

#include "src/obs/trace.h"

namespace pipelsm {

WriteStage::WriteStage(const CompactionJobOptions& options,
                       CompactionSink* sink)
    : options_(options), sink_(sink) {}

WriteStage::~WriteStage() {
  // A failed compaction may abandon an open output; drop it quietly (the
  // driver deletes orphaned files).
  if (file_ != nullptr) {
    file_->Close();
  }
}

Status WriteStage::PushReordered(ComputedSubTask task) {
  pending_.emplace(task.seq, std::move(task));
  Status s;
  while (s.ok()) {
    auto it = pending_.find(next_seq_);
    if (it == pending_.end()) break;
    ComputedSubTask next = std::move(it->second);
    pending_.erase(it);
    s = WriteOrdered(next);
    next_seq_++;
  }
  return s;
}

Status WriteStage::WriteOrdered(ComputedSubTask& task) {
  // The span covers the real device writes of this sub-task; a sub-task
  // that sat in the reorder buffer gets its span only now, when S7
  // actually consumes it (so traces show true write-lane occupancy).
  obs::TraceSpan span(options_.trace, options_.trace_pid, /*lane=*/0,
                      "S7 write", "write", task.seq);
  for (EncodedBlock& block : task.blocks) {
    Status s = RotateIfNeeded();
    if (!s.ok()) return s;

    if (!have_current_) {
      uint64_t number;
      s = sink_->NewOutputFile(&number, &file_);
      if (!s.ok()) return s;
      writer_.reset(new TableWriter(options_.table, file_.get()));
      current_ = OutputMeta{};
      current_.file_number = number;
      have_current_ = true;
    }

    if (current_.entries == 0) {
      // First block of this output file: its first key is the file's
      // smallest key.
      current_.smallest.DecodeFrom(block.first_key);
    }
    Stopwatch sw;
    s = writer_->AddBlock(block);
    profile_.AddStep(kStepWrite, sw.ElapsedNanos(), block.payload.size());
    if (!s.ok()) return s;
    current_.entries += block.entries;
    current_.largest.DecodeFrom(block.last_key);
  }
  profile_.subtasks += 1;
  return Status::OK();
}

Status WriteStage::RotateIfNeeded() {
  if (have_current_ && writer_ != nullptr &&
      writer_->FileSize() >= options_.max_output_file_size) {
    return FinishCurrentFile();
  }
  return Status::OK();
}

Status WriteStage::FinishCurrentFile() {
  if (!have_current_) return Status::OK();
  Status s;
  {
    obs::TraceSpan span(options_.trace, options_.trace_pid,
                        /*lane=*/0, "S7 finish file", "write");
    Stopwatch sw;
    s = writer_->Finish();
    if (s.ok()) {
      s = file_->Sync();
    }
    if (s.ok()) {
      s = file_->Close();
    }
    profile_.AddStep(kStepWrite, sw.ElapsedNanos(), 0);
  }
  if (!s.ok()) return s;
  current_.file_size = writer_->FileSize();
  writer_.reset();
  file_.reset();
  have_current_ = false;
  // The sink may read the closed table back (the DB opens it through its
  // table cache). That read is not the paper's write step, so it stays
  // out of t_S7 and gets a span of its own.
  obs::TraceSpan span(options_.trace, options_.trace_pid,
                      /*lane=*/0, "S7 open output", "write");
  return sink_->OutputFinished(current_);
}

Status WriteStage::Close() {
  assert(!closed_);
  closed_ = true;
  if (!pending_.empty()) {
    return Status::Corruption("write stage closed with reordering gaps");
  }
  return FinishCurrentFile();
}

}  // namespace pipelsm
