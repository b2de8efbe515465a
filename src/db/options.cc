#include "src/db/options.h"

namespace pipelsm {

const char* CompactionModeName(CompactionMode mode) {
  switch (mode) {
    case CompactionMode::kSCP:
      return "SCP";
    case CompactionMode::kPCP:
      return "PCP";
    case CompactionMode::kSPPCP:
      return "S-PPCP";
    case CompactionMode::kCPPCP:
      return "C-PPCP";
  }
  return "unknown";
}

Status ParseCompactionMode(const std::string& name, CompactionMode* mode) {
  if (name == "scp") {
    *mode = CompactionMode::kSCP;
  } else if (name == "pcp") {
    *mode = CompactionMode::kPCP;
  } else if (name == "cppcp") {
    *mode = CompactionMode::kCPPCP;
  } else if (name == "sppcp") {
    return Status::InvalidArgument(
        "compaction mode 'sppcp'",
        "DB::Open refuses S-PPCP; run --compaction=pcp on a striped device");
  } else {
    return Status::InvalidArgument("compaction mode '" + name + "'",
                                   "expected scp|pcp|cppcp");
  }
  return Status::OK();
}

const char* CompactionStyleName(CompactionStyle style) {
  switch (style) {
    case CompactionStyle::kLeveled:
      return "leveled";
    case CompactionStyle::kTiered:
      return "tiered";
    case CompactionStyle::kLazyLeveling:
      return "lazy_leveling";
  }
  return "unknown";
}

Status ParseCompactionStyle(const std::string& name, CompactionStyle* style) {
  if (name == "leveled") {
    *style = CompactionStyle::kLeveled;
  } else if (name == "tiered") {
    *style = CompactionStyle::kTiered;
  } else if (name == "lazy") {
    *style = CompactionStyle::kLazyLeveling;
  } else {
    return Status::InvalidArgument("compaction style '" + name + "'",
                                   "expected leveled|tiered|lazy");
  }
  return Status::OK();
}

}  // namespace pipelsm
