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

}  // namespace pipelsm
