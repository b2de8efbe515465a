// RepairDB: best-effort reconstruction of a database whose metadata
// (CURRENT / MANIFEST) is lost or corrupt.
//
// Every WAL found is converted into a table; every readable table is
// scanned for its key range and maximum sequence number; a fresh MANIFEST
// registers them all at level 0 (overlap is legal there — the next
// compactions re-sort the tree). Unreadable tables are dropped. Every
// step is reported to Options::info_log, or else to the directory's LOG.
// Some data may be lost (that is the nature of repair), but everything
// readable is preserved and the DB opens again.
#pragma once

#include <string>

#include "src/db/options.h"
#include "src/util/status.h"

namespace pipelsm {

Status RepairDB(const std::string& dbname, const Options& options);

}  // namespace pipelsm
