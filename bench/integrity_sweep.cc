// Integrity sweep: corruption rate, with escape detection
// (docs/INTEGRITY.md).
//
// One reader cycles a 32-key x 512 B hot set on rank 1 while the fault
// plan flips cached bits at a swept per-byte-per-epoch rate. Hit-time
// verification and a small scrub budget are on for every cell. Every
// served byte is checked against the known remote pattern — a mismatch is
// a *corruption escape*, i.e. rotted bytes that reached the application.
// With verification on, escapes must be zero at every swept rate; the
// binary exits nonzero otherwise so CI can gate on it.
//
// Output is a single JSON document:
//   {"bench":"integrity_sweep","results":[
//     {"bitflip_prob":1e-4,"gets":...,"hit_ratio":...,"bitflips":...,
//      "detected":...,"self_heals":...,"scrub_scanned":...,
//      "scrub_corruptions":...,"corruption_escapes":0,"avg_get_us":...},
//     ...]}
//
// Everything is virtual-time modelled, so the numbers are deterministic
// across runs and machines.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "clampi/clampi.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "rt/engine.h"

namespace {

using namespace clampi;
using rmasim::Process;

constexpr int kKeys = 32;            // hot-set size
constexpr std::size_t kBytes = 512;  // per key
constexpr int kRounds = 30;          // passes over the hot set

struct Cell {
  long gets = 0;
  long escapes = 0;
  double total_get_us = 0.0;
  Stats stats;

  double hit_ratio() const {
    return gets > 0 ? static_cast<double>(stats.hits_full) / static_cast<double>(gets)
                    : 0.0;
  }
  double avg_get_us() const {
    return gets > 0 ? total_get_us / static_cast<double>(gets) : 0.0;
  }
};

std::uint8_t pattern_at(std::size_t i, int rank) {
  return static_cast<std::uint8_t>((i * 7 + static_cast<std::size_t>(rank) * 13) & 0xff);
}

Cell run_cell(double bitflip_prob) {
  fault::Plan plan;
  plan.corrupt_storage(bitflip_prob);
  rmasim::Engine::Config ecfg = benchx::modeled_engine(2);
  ecfg.injector = std::make_shared<fault::Injector>(plan);

  Config ccfg;
  ccfg.mode = Mode::kAlwaysCache;
  ccfg.index_entries = 512;
  ccfg.storage_bytes = 256 * 1024;
  ccfg.verify_every_n = 1;          // verify every hit: escapes must be zero
  ccfg.scrub_entries_per_epoch = 4;

  rmasim::Engine e(ecfg);
  auto cell = std::make_shared<Cell>();
  e.run([ccfg, cell](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, kKeys * kBytes, &base, ccfg);
    auto* bytes = static_cast<std::uint8_t*>(base);
    for (std::size_t i = 0; i < kKeys * kBytes; ++i) bytes[i] = pattern_at(i, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(kBytes);
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < kKeys; ++k) {
          const std::size_t disp = static_cast<std::size_t>(k) * kBytes;
          const double t0 = p.now_us();
          win.get(buf.data(), kBytes, 1, disp);
          win.flush_all();
          cell->total_get_us += p.now_us() - t0;
          ++cell->gets;
          for (std::size_t j = 0; j < kBytes; ++j) {
            if (buf[j] != pattern_at(disp + j, 1)) {
              ++cell->escapes;
              break;  // count escaped gets, not escaped bytes
            }
          }
        }
      }
      cell->stats = win.stats();
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
  return *cell;
}

void emit(bool first, double bitflip_prob, const Cell& c) {
  const Stats& s = c.stats;
  std::printf(
      "%s\n    {\"bitflip_prob\":%g,\"gets\":%ld,"
      "\"hit_ratio\":%.3f,\"bitflips\":%llu,\"detected\":%llu,"
      "\"self_heals\":%llu,\"scrub_scanned\":%llu,\"scrub_corruptions\":%llu,"
      "\"corruption_escapes\":%ld,\"avg_get_us\":%.3f}",
      first ? "" : ",", bitflip_prob, c.gets, c.hit_ratio(),
      static_cast<unsigned long long>(s.storage_bitflips),
      static_cast<unsigned long long>(s.corruption_detected),
      static_cast<unsigned long long>(s.self_heals),
      static_cast<unsigned long long>(s.scrub_entries_scanned),
      static_cast<unsigned long long>(s.scrub_corruptions), c.escapes,
      c.avg_get_us());
}

}  // namespace

int main() {
  const double bitflip_probs[] = {0.0, 1e-5, 1e-4, 1e-3};

  long escapes = 0;
  std::printf("{\"bench\":\"integrity_sweep\",\"results\":[");
  bool first = true;
  for (const double bp : bitflip_probs) {
    const Cell c = run_cell(bp);
    emit(first, bp, c);
    first = false;
    escapes += c.escapes;
  }
  std::printf("\n]}\n");
  if (escapes > 0) {
    std::fprintf(stderr, "integrity_sweep: %ld corrupted gets escaped verification\n",
                 escapes);
    return 1;
  }
  return 0;
}
