// CLaMPI — a Caching Layer for MPI-3 RMA.
//
// Umbrella header for the public API. Reproduction of:
//   S. Di Girolamo, F. Vella, T. Hoefler,
//   "Transparent Caching for RMA Systems", IPDPS 2017.
//
// Quickstart:
//
//   clampi::Config cfg;
//   cfg.mode = clampi::Mode::kAlwaysCache;   // window data is read-only
//   cfg.index_entries = 1 << 14;             // |I_w|
//   cfg.storage_bytes = 8 << 20;             // |S_w|
//   cfg.adaptive = true;                     // let CLaMPI tune both
//
//   void* base = nullptr;
//   auto win = clampi::CachedWindow::allocate(process, bytes, &base, cfg);
//   win.lock_all();
//   win.get(buf, n, target, disp);   // get_c: served from cache on a hit
//   win.flush_all();                 // completes the epoch
//   ...
//   clampi_invalidate(win);          // user-defined mode only
//   win.unlock_all();
#pragma once

#include "clampi/adaptive.h"   // IWYU pragma: export
#include "clampi/cache.h"      // IWYU pragma: export
#include "clampi/checksum.h"   // IWYU pragma: export
#include "clampi/config.h"     // IWYU pragma: export
#include "clampi/health.h"     // IWYU pragma: export
#include "clampi/info.h"       // IWYU pragma: export
#include "clampi/stats.h"      // IWYU pragma: export
#include "clampi/trace.h"      // IWYU pragma: export
#include "clampi/window.h"     // IWYU pragma: export
