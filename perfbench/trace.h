// Span recorder of the benchmark's traced run.
//
// Spans are taken only around the calls the benchmark itself makes into a
// layer's public functions (kv::Store, DistributedLcc, the R-MAT
// generator). Storage stays bounded however long the run is: every span
// feeds per-name log-linear histograms, and only the first `sample_cap`
// spans are kept raw for the Chrome trace-event timeline.
//
// Self time. rmasim runs one rank at a time and switches ranks only at
// blocking calls (barriers, window creation, exclusive locks); the timed
// loop of a client makes none, so a client's spans never contain another
// rank's work and a span's self time is its wall duration minus that of
// its children on the same thread.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Log-linear histogram of non-negative integers: exact below 128, then
/// 64 linear sub-buckets per power of two (relative error below 1/64).
class LogHist {
 public:
  void add(std::uint64_t v) {
    ++counts_[index(v)];
    ++n_;
  }
  std::uint64_t count() const { return n_; }
  /// Value at quantile q in [0, 1] (the midpoint of its bucket); 0 if empty.
  double quantile(double q) const {
    if (n_ == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen > rank) return midpoint(i);
    }
    return midpoint(counts_.size() - 1);
  }

 private:
  static constexpr int kSubBits = 6;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits) * kSub + 2 * kSub;

  static std::size_t index(std::uint64_t v) {
    if (v < 2 * kSub) return static_cast<std::size_t>(v);
    const int shift = std::bit_width(v) - 1 - kSubBits;  // >= 1
    return static_cast<std::size_t>(shift) * kSub + static_cast<std::size_t>(v >> shift);
  }
  static double midpoint(std::size_t i) {
    if (i < 2 * kSub) return static_cast<double>(i);
    const std::size_t shift = i / kSub - 1;
    const std::size_t top = i - shift * kSub;  // in [kSub, 2 kSub)
    const double lo = static_cast<double>(top << shift);
    return lo + static_cast<double>((std::uint64_t{1} << shift) - 1) / 2.0;
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t n_ = 0;
};

struct Span {
  const char* name = "";
  std::uint64_t wall0_ns = 0, wall1_ns = 0;
  double virt0_us = 0.0, virt1_us = 0.0;
  std::int64_t id = -1;
  std::int64_t parent = -1;  ///< id of the enclosing span, -1 for roots
  std::int64_t op = -1;      ///< op index in the client's stream, -1 if none
  int client = -1;           ///< client (or rank) that issued the call
};

/// Per-name aggregates. `self_ns` excludes child spans on the same thread.
struct SpanStats {
  LogHist self_ns;
  std::uint64_t total_self_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t sample_cap) : sample_cap_(sample_cap) {}

  /// Id for a parent span, taken before its children are recorded.
  std::int64_t reserve_id() { return next_id_++; }

  /// Record a finished span; `child_ns` is the wall time its children
  /// covered. A span without a reserved id gets the next one. Callers
  /// serialise (one rank runs at a time, and the engine hands the baton
  /// over under a mutex). `s.name` must be a string with static storage.
  void record(Span s, std::uint64_t child_ns = 0) {
    if (s.id < 0) s.id = next_id_++;
    const std::uint64_t dur = s.wall1_ns - s.wall0_ns;
    const std::uint64_t self = dur > child_ns ? dur - child_ns : 0;
    SpanStats& st = by_name(s.name);
    st.self_ns.add(self);
    st.total_self_ns += self;
    if (sample_.size() < sample_cap_) sample_.push_back(s);
  }

  const SpanStats* find(const std::string& name) const {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return &stats_[i];
    }
    return nullptr;
  }

  /// Chrome trace-event JSON of the raw sample (load in chrome://tracing
  /// or Perfetto). Returns false if the file cannot be written.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::uint64_t t0 = ~std::uint64_t{0};
    for (const Span& s : sample_) t0 = std::min(t0, s.wall0_ns);
    std::fputs("{\"traceEvents\":[", f);
    for (std::size_t i = 0; i < sample_.size(); ++i) {
      const Span& s = sample_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld,"
                   "\"op\":%lld,\"virt_start_us\":%.3f,\"virt_end_us\":%.3f}}",
                   i == 0 ? "" : ",", s.name, s.client,
                   static_cast<double>(s.wall0_ns - t0) / 1e3,
                   static_cast<double>(s.wall1_ns - s.wall0_ns) / 1e3,
                   static_cast<long long>(s.id), static_cast<long long>(s.parent),
                   static_cast<long long>(s.op), s.virt0_us, s.virt1_us);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  // Names are compared by address first: the hot path records a handful
  // of static names.
  SpanStats& by_name(const char* name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i].data() == name || names_[i] == name) return stats_[i];
    }
    names_.emplace_back(name);
    stats_.emplace_back();
    return stats_.back();
  }

  std::size_t sample_cap_;
  std::int64_t next_id_ = 0;
  std::vector<std::string_view> names_;
  std::vector<SpanStats> stats_;
  std::vector<Span> sample_;
};

}  // namespace perfbench
