#include "clampi/trace.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "util/error.h"

namespace clampi::trace {

std::size_t Trace::num_gets() const {
  std::size_t n = 0;
  for (const Event& e : events) n += e.kind == Event::Kind::kGet;
  return n;
}

std::size_t Trace::distinct_keys() const {
  std::unordered_set<std::uint64_t> keys;
  for (const Event& e : events) {
    if (e.kind != Event::Kind::kGet) continue;
    keys.insert((static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.target)) << 48) ^
                e.disp);
  }
  return keys.size();
}

std::uint64_t Trace::total_bytes() const {
  std::uint64_t n = 0;
  for (const Event& e : events) {
    if (e.kind == Event::Kind::kGet) n += e.bytes;
  }
  return n;
}

std::uint64_t Trace::max_bytes() const {
  std::uint64_t n = 0;
  for (const Event& e : events) {
    if (e.kind == Event::Kind::kGet) n = std::max(n, e.bytes);
  }
  return n;
}

void Trace::save(std::ostream& os) const {
  for (const Event& e : events) {
    switch (e.kind) {
      case Event::Kind::kGet:
        os << "g " << e.target << ' ' << e.disp << ' ' << e.bytes << '\n';
        break;
      case Event::Kind::kFlush:
        os << "f " << e.target << '\n';
        break;
      case Event::Kind::kFlushAll:
        os << "F\n";
        break;
      case Event::Kind::kInvalidate:
        os << "I\n";
        break;
      case Event::Kind::kFault:
        os << "x " << e.target << ' ' << e.disp << ' ' << e.bytes << '\n';
        break;
      case Event::Kind::kRetry:
        os << "r " << e.target << ' ' << e.disp << ' ' << e.bytes << '\n';
        break;
      case Event::Kind::kCorruption:
        os << "c " << e.target << ' ' << e.disp << ' ' << e.bytes << '\n';
        break;
      case Event::Kind::kHealth:
        os << "h " << e.target << ' ' << e.disp << '\n';
        break;
    }
  }
}

Trace Trace::load(std::istream& is) {
  Trace t;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    char tag = 0;
    ls >> tag;
    Event e;
    switch (tag) {
      case 'g':
        e.kind = Event::Kind::kGet;
        ls >> e.target >> e.disp >> e.bytes;
        break;
      case 'f':
        e.kind = Event::Kind::kFlush;
        ls >> e.target;
        break;
      case 'F':
        e.kind = Event::Kind::kFlushAll;
        break;
      case 'I':
        e.kind = Event::Kind::kInvalidate;
        break;
      case 'x':
        e.kind = Event::Kind::kFault;
        ls >> e.target >> e.disp >> e.bytes;
        break;
      case 'r':
        e.kind = Event::Kind::kRetry;
        ls >> e.target >> e.disp >> e.bytes;
        break;
      case 'c':
        e.kind = Event::Kind::kCorruption;
        ls >> e.target >> e.disp >> e.bytes;
        break;
      case 'h':
        e.kind = Event::Kind::kHealth;
        ls >> e.target >> e.disp;
        break;
      default:
        CLAMPI_REQUIRE(false,
                       "trace: bad tag at line " + std::to_string(lineno) + ": " + line);
    }
    CLAMPI_REQUIRE(!ls.fail(),
                   "trace: malformed line " + std::to_string(lineno) + ": " + line);
    t.events.push_back(e);
  }
  return t;
}

Stats replay_core(const Trace& t, CacheCore& core) {
  // Pending inserts are "materialized" (marked cached) at the next flush
  // that covers their target, mirroring the CachedWindow machinery.
  std::vector<std::pair<int, std::uint32_t>> pending;  // (target, entry)
  const auto complete = [&](int target) {
    std::size_t kept = 0;
    for (auto& [tgt, entry] : pending) {
      if (target >= 0 && tgt != target) {
        pending[kept++] = {tgt, entry};
        continue;
      }
      core.mark_cached(entry);
    }
    pending.resize(kept);
  };

  for (const Event& e : t.events) {
    switch (e.kind) {
      case Event::Kind::kGet: {
        const auto r = core.access({e.target, e.disp}, e.bytes);
        if (r.entry != kNoEntry && core.entry_pending(r.entry) &&
            (r.inserted || r.extended)) {
          pending.emplace_back(e.target, r.entry);
        }
        break;
      }
      case Event::Kind::kFlush:
        complete(e.target);
        break;
      case Event::Kind::kFlushAll:
        complete(-1);
        // Epoch close: run the scrub slice the window layer would run
        // (docs/INTEGRITY.md), so offline replay reports the same
        // integrity work a live deployment pays.
        if (core.config().scrub_entries_per_epoch > 0) {
          core.scrub(core.config().scrub_entries_per_epoch);
        }
        break;
      case Event::Kind::kInvalidate:
        complete(-1);
        core.invalidate();
        break;
      case Event::Kind::kFault:
      case Event::Kind::kRetry:
      case Event::Kind::kCorruption:
      case Event::Kind::kHealth:
        break;  // annotations: no cache effect
    }
  }
  return core.stats();
}

double replay_window(const Trace& t, CachedWindow& win) {
  std::vector<std::byte> scratch(std::max<std::uint64_t>(t.max_bytes(), 1));
  auto& p = win.process();
  const double t0 = p.now_us();
  for (const Event& e : t.events) {
    switch (e.kind) {
      case Event::Kind::kGet:
        win.get(scratch.data(), e.bytes, e.target, e.disp);
        break;
      case Event::Kind::kFlush:
        win.flush(e.target);
        break;
      case Event::Kind::kFlushAll:
        win.flush_all();
        break;
      case Event::Kind::kInvalidate:
        win.invalidate();
        break;
      case Event::Kind::kFault:
      case Event::Kind::kRetry:
      case Event::Kind::kCorruption:
      case Event::Kind::kHealth:
        break;  // annotations: the installed injector (if any) re-faults
    }
  }
  win.flush_all();
  return p.now_us() - t0;
}

}  // namespace clampi::trace
