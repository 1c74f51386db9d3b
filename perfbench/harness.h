// Measurement plumbing for the store benchmark: latency histograms, the
// raw-result report, key/payload functions, a timing page-store decorator,
// span recording into obs::Tracer, and the range-query oracle.
//
// Everything here lives in the benchmark; the library is only called
// through its public headers.  Derived numbers (percentiles, ratios, self
// times) are computed by analysis.py from what this file records.

#ifndef BMEH_PERFBENCH_HARNESS_H_
#define BMEH_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/logging.h"
#include "src/encoding/encoders.h"
#include "src/hashdir/query.h"
#include "src/obs/stopwatch.h"
#include "src/obs/trace.h"
#include "src/pagestore/page_store.h"

namespace perfbench {

using bmeh::PseudoKey;
using bmeh::RangePredicate;
using bmeh::Status;

inline uint64_t NowNs() { return bmeh::obs::MonotonicNanos(); }

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// SplitMix64 finalizer: the benchmark's only hash.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Small deterministic generator for op streams (one per thread).
class Rand {
 public:
  explicit Rand(uint64_t seed) : state_(Mix(seed)) {}
  uint64_t Next() { return Mix(state_++); }
  /// Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1p-53; }

 private:
  uint64_t state_;
};

// ---------------------------------------------------------------------------
// Latency histogram: log-linear buckets, 64 linear sub-buckets per power of
// two (1.6% relative resolution).  Values below 64 get exact buckets.

class LatencyHist {
 public:
  static constexpr int kSubBits = 6;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = kSub + (64 - kSubBits) * kSub;

  LatencyHist() : counts_(kBuckets, 0) {}

  void Record(uint64_t v) {
    ++counts_[Index(v)];
    ++n_;
  }
  void Merge(const LatencyHist& o) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }

  static int Index(uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    const int e = 63 - std::countl_zero(v);
    return kSub + (e - kSubBits) * kSub +
           static_cast<int>((v >> (e - kSubBits)) & (kSub - 1));
  }
  static uint64_t Lower(int i) {
    if (i < kSub) return static_cast<uint64_t>(i);
    const int e = (i - kSub) / kSub + kSubBits;
    const uint64_t sub = static_cast<uint64_t>((i - kSub) % kSub);
    return (kSub + sub) << (e - kSubBits);
  }
  static uint64_t Width(int i) {
    if (i < kSub) return 1;
    return uint64_t{1} << ((i - kSub) / kSub);
  }

  /// {"n": N, "b": [[lower, width, count], ...]} over non-empty buckets.
  std::string ToJson() const {
    std::string out = "{\"n\": " + std::to_string(n_) + ", \"b\": [";
    bool first = true;
    for (int i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      out += first ? "" : ", ";
      first = false;
      out += "[" + std::to_string(Lower(i)) + ", " + std::to_string(Width(i)) +
             ", " + std::to_string(counts_[i]) + "]";
    }
    return out + "]}";
  }

 private:
  std::vector<uint64_t> counts_;
  uint64_t n_ = 0;
};

// ---------------------------------------------------------------------------
// Latency histograms per fixed window of a phase: a run reports the median
// over windows of each statistic, which a short burst of machine noise
// cannot move.

constexpr uint64_t kWindowNs = 500000000;

class WindowedHist {
 public:
  explicit WindowedHist(uint64_t start_ns = 0) : start_(start_ns) {}

  /// One operation that ran from t0 to t1 (window of its completion).
  void Record(uint64_t t0, uint64_t t1) {
    const size_t w = static_cast<size_t>((t1 - start_) / kWindowNs);
    if (w >= windows_.size()) windows_.resize(w + 1);
    windows_[w].Record(t1 - t0);
  }
  /// Folds in another thread's windows of the same phase, keeping only
  /// the windows that ended within the phase's `elapsed_s`.
  void Merge(const WindowedHist& o, double elapsed_s) {
    const size_t keep = static_cast<size_t>(elapsed_s * 1e9 / kWindowNs);
    if (windows_.size() < keep) windows_.resize(keep);
    for (size_t w = 0; w < std::min(keep, o.windows_.size()); ++w) {
      windows_[w].Merge(o.windows_[w]);
    }
  }
  const std::vector<LatencyHist>& windows() const { return windows_; }

 private:
  uint64_t start_;
  std::vector<LatencyHist> windows_;
};

// ---------------------------------------------------------------------------
// Raw results of one run.  Workers keep private histograms and counters and
// fold them in after joining; Fail() is the only call made concurrently.

class Report {
 public:
  void Num(const std::string& name, double v) { num_[name] = v; }
  void List(const std::string& name, double v) { lists_[name].push_back(v); }
  LatencyHist& Hist(const std::string& name) { return hist_[name]; }
  /// Appends one phase's complete windows to the named series.
  void AddWindows(const std::string& name, const WindowedHist& phase) {
    auto& series = windows_[name];
    series.insert(series.end(), phase.windows().begin(), phase.windows().end());
  }

  void Attempted(uint64_t n) {
    attempted_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Counts one failed or wrong operation; keeps the first few messages.
  void Fail(const std::string& what) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (samples_.size() < 8) samples_.push_back(what);
  }

  std::string ToJson() const;

 private:
  std::map<std::string, double> num_;
  std::map<std::string, std::vector<double>> lists_;
  std::map<std::string, LatencyHist> hist_;
  std::map<std::string, std::vector<LatencyHist>> windows_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex mu_;
  std::vector<std::string> samples_;
};

inline std::string JsonString(const std::string& s) {
  return "\"" + bmeh::JsonEscape(s) + "\"";
}

inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

inline std::string Report::ToJson() const {
  std::string out = "{\"attempted\": " + std::to_string(attempted_.load()) +
                    ", \"failed\": " + std::to_string(failed_.load()) +
                    ", \"failure_samples\": [";
  for (size_t i = 0; i < samples_.size(); ++i) {
    out += (i ? ", " : "") + JsonString(samples_[i]);
  }
  out += "], \"num\": {";
  bool first = true;
  for (const auto& [k, v] : num_) {
    out += (first ? "" : ", ") + JsonString(k) + ": " + JsonNumber(v);
    first = false;
  }
  out += "}, \"lists\": {";
  first = true;
  for (const auto& [k, vs] : lists_) {
    out += (first ? "" : ", ") + JsonString(k) + ": [";
    for (size_t i = 0; i < vs.size(); ++i) {
      out += (i ? ", " : "") + JsonNumber(vs[i]);
    }
    out += "]";
    first = false;
  }
  out += "}, \"hist\": {";
  first = true;
  for (const auto& [k, h] : hist_) {
    out += (first ? "" : ", ") + JsonString(k) + ": " + h.ToJson();
    first = false;
  }
  out += "}, \"window_s\": " + JsonNumber(kWindowNs / 1e9) + ", \"windows\": {";
  first = true;
  for (const auto& [k, series] : windows_) {
    out += (first ? "" : ", ") + JsonString(k) + ": [";
    for (size_t w = 0; w < series.size(); ++w) {
      out += (w ? ", " : "") + series[w].ToJson();
    }
    out += "]";
    first = false;
  }
  return out + "}}";
}

// ---------------------------------------------------------------------------
// Spans.  A span is recorded only while a tracer is installed; every span
// of one operation carries the operation's trace id (device calls run on
// the thread that issued the operation, so they inherit it too).

inline std::atomic<bmeh::obs::Tracer*> g_tracer{nullptr};
inline std::atomic<uint64_t> g_next_trace_id{1};
inline thread_local uint64_t tl_trace_id = 0;

class Span {
 public:
  explicit Span(const char* name)
      : tracer_(g_tracer.load(std::memory_order_relaxed)),
        name_(name),
        start_(tracer_ != nullptr ? NowNs() : 0) {}
  ~Span() {
    if (tracer_ == nullptr) return;
    tracer_->RecordComplete(name_, "perfbench", start_, NowNs() - start_,
                            tl_trace_id);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bmeh::obs::Tracer* tracer_;
  const char* name_;
  uint64_t start_;
};

/// Root span of one benchmark operation: mints the trace id its child
/// spans inherit on this thread, and records "bench.op" around them.
class OpSpan {
 public:
  OpSpan() : tracing_(g_tracer.load(std::memory_order_relaxed) != nullptr) {
    if (!tracing_) return;
    tl_trace_id = g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
    span_.emplace("bench.op");
  }
  ~OpSpan() {
    if (!tracing_) return;
    span_.reset();
    tl_trace_id = 0;
  }
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

 private:
  bool tracing_;
  std::optional<Span> span_;
};

// ---------------------------------------------------------------------------
// Keys.  Point keys are (longitude, latitude) pairs drawn uniformly from
// (seed, index) and ψ-encoded with the library's scaled-double encoder;
// the payload of every record is a function of its key plus one origin
// bit (0 = preloaded, 1 = written during the run).

inline uint64_t PayloadOf(const PseudoKey& k, uint64_t origin) {
  uint64_t packed = 0;
  for (int j = 0; j < k.dims(); ++j) packed = packed * 0x100000001b3ull + k.component(j);
  return (Mix(packed) & ~uint64_t{1}) | (origin & 1);
}

inline bool PayloadMatches(const PseudoKey& k, uint64_t payload) {
  return (payload & ~uint64_t{1}) == (PayloadOf(k, 0) & ~uint64_t{1});
}

class GeoKeys {
 public:
  explicit GeoKeys(uint64_t seed) : seed_(Mix(seed ^ 0x67656f6b657973ull)) {}

  /// What a caller holds for key i before encoding: 64 random bits that
  /// stand for a longitude/latitude pair (computed, nothing fetched).
  PseudoKey Input(uint64_t i) const {
    const uint64_t h = Mix(seed_ ^ Mix(i));
    return PseudoKey({static_cast<uint32_t>(h >> 32), static_cast<uint32_t>(h)});
  }

  /// ψ-encodes an input: the longitude and latitude it stands for, through
  /// the library's scaled-double encoder.
  static PseudoKey Encode(const PseudoKey& in) {
    const double lon = -180.0 + 360.0 * in.component(0) * 0x1p-32;
    const double lat = -90.0 + 180.0 * in.component(1) * 0x1p-32;
    Span span("encoding.encode");
    return PseudoKey({bmeh::encoding::EncodeScaledDouble(lon, -180.0, 180.0),
                      bmeh::encoding::EncodeScaledDouble(lat, -90.0, 90.0)});
  }

  PseudoKey Key(uint64_t i) const { return Encode(Input(i)); }

 private:
  uint64_t seed_;
};

/// The range_mixed keys are integer pseudo-keys already; their encoding
/// step is the library's identity encoder, traced the same way.
inline PseudoKey EncodeIntKey(const PseudoKey& raw) {
  Span span("encoding.encode");
  return PseudoKey({bmeh::encoding::EncodeUint32(raw.component(0)),
                    bmeh::encoding::EncodeUint32(raw.component(1))});
}

// ---------------------------------------------------------------------------
// Timing page-store decorator: forwards to the file, counts page traffic
// and syncs, times syncs, and records pagestore.* spans.
//
// The device it stands for flushes in a fixed time.  The file's own fsync
// is turned off by the caller; Sync() still writes the file header and
// then waits out kModeledFlushNs from its start, so a durable write costs
// the program's work plus one modeled device flush instead of whatever the
// shared host disk takes at that minute.

/// About the median fdatasync of a 4 KiB write on the reference box's
/// ext4, whose real flush times swing several-fold from minute to minute.
constexpr uint64_t kModeledFlushNs = 100000;

class TimingPageStore : public bmeh::PageStore {
 public:
  explicit TimingPageStore(std::unique_ptr<bmeh::PageStore> inner)
      : inner_(std::move(inner)) {}

  int page_size() const override { return inner_->page_size(); }
  bmeh::Result<bmeh::PageId> Allocate() override { return inner_->Allocate(); }
  Status Free(bmeh::PageId id) override { return inner_->Free(id); }
  Status Read(bmeh::PageId id, std::span<uint8_t> out) override {
    Span span("pagestore.read");
    reads_.fetch_add(1, std::memory_order_relaxed);
    return inner_->Read(id, out);
  }
  Status Write(bmeh::PageId id, std::span<const uint8_t> data) override {
    Span span("pagestore.write");
    writes_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(data.size(), std::memory_order_relaxed);
    return inner_->Write(id, data);
  }
  uint64_t live_page_count() const override {
    return inner_->live_page_count();
  }
  uint64_t total_page_count() const override {
    return inner_->total_page_count();
  }
  Status Sync() override {
    Span span("pagestore.sync");
    const uint64_t start = NowNs();
    Status st = inner_->Sync();
    WaitUntil(start + kModeledFlushNs);
    const uint64_t dur = NowNs() - start;
    syncs_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    sync_ns_.Record(dur);
    return st;
  }
  bmeh::PageId first_data_page() const override {
    return inner_->first_data_page();
  }

  struct Counts {
    uint64_t reads = 0, writes = 0, bytes_written = 0, syncs = 0;
  };
  Counts counts() const {
    return {reads_.load(), writes_.load(), bytes_written_.load(),
            syncs_.load()};
  }
  /// Fsync latencies since the last call (moved out).
  LatencyHist TakeSyncHist() {
    std::lock_guard<std::mutex> lock(mu_);
    LatencyHist out = std::move(sync_ns_);
    sync_ns_ = LatencyHist();
    return out;
  }

 private:
  /// Sleeps to shortly before `deadline_ns`, then spins, so the modeled
  /// flush does not stretch by the scheduler's wake-up delay.
  static void WaitUntil(uint64_t deadline_ns) {
    constexpr uint64_t kSpinNs = 20000;
    const uint64_t now = NowNs();
    if (deadline_ns > now + kSpinNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(deadline_ns - now - kSpinNs));
    }
    while (NowNs() < deadline_ns) {
    }
  }

  std::unique_ptr<bmeh::PageStore> inner_;
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> syncs_{0};
  std::mutex mu_;
  LatencyHist sync_ns_;
};

inline TimingPageStore::Counts operator-(const TimingPageStore::Counts& a,
                                         const TimingPageStore::Counts& b) {
  return {a.reads - b.reads, a.writes - b.writes,
          a.bytes_written - b.bytes_written, a.syncs - b.syncs};
}

// ---------------------------------------------------------------------------
// Range oracle over a fixed key set: exact counts of keys inside a
// predicate, and generation of queries sized to a target row count.

class RangeOracle {
 public:
  explicit RangeOracle(std::vector<std::pair<uint32_t, uint32_t>> pts)
      : by_x_(std::move(pts)) {
    by_y_ = by_x_;
    std::sort(by_x_.begin(), by_x_.end());
    std::sort(by_y_.begin(), by_y_.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second < b.second : a.first < b.first;
    });
    for (size_t i = 0; i < by_x_.size(); i += kStride) {
      sample_x_.push_back(by_x_[i]);
    }
  }

  size_t size() const { return by_x_.size(); }

  /// Keys inside [xlo, xhi] x [ylo, yhi].
  uint64_t Count(uint32_t xlo, uint32_t xhi, uint32_t ylo, uint32_t yhi) const {
    auto lo = std::lower_bound(by_x_.begin(), by_x_.end(),
                               std::make_pair(xlo, uint32_t{0}));
    auto hi = std::upper_bound(by_x_.begin(), by_x_.end(),
                               std::make_pair(xhi, UINT32_MAX));
    uint64_t n = 0;
    for (auto it = lo; it < hi; ++it) n += it->second >= ylo && it->second <= yhi;
    return n;
  }

  struct Query {
    uint32_t lo[2], hi[2];
    uint64_t expected;  // oracle keys inside the predicate
  };

  /// A query holding about `target` oracle keys, the target drawn
  /// log-uniformly from [min_rows, max_rows].  `partial_dim` >= 0 asks for
  /// a 1-d partial match (that dimension constrained, the other free — the
  /// paper's PRG search); -1 for a 2-d box grown around a random key.
  Query Make(Rand* rng, int partial_dim, uint64_t min_rows,
             uint64_t max_rows) const {
    const double t = std::exp(std::log(static_cast<double>(min_rows)) +
                              rng->Unit() * std::log(static_cast<double>(max_rows) /
                                                     static_cast<double>(min_rows)));
    const uint64_t target = std::min<uint64_t>(static_cast<uint64_t>(t), size());
    Query q{{0, 0}, {UINT32_MAX, UINT32_MAX}, 0};
    if (partial_dim >= 0) {
      const int dim = partial_dim;
      const auto& sorted = dim == 0 ? by_x_ : by_y_;
      const uint64_t first = rng->Below(size() - target + 1);
      auto comp = [dim](const std::pair<uint32_t, uint32_t>& p) {
        return dim == 0 ? p.first : p.second;
      };
      q.lo[dim] = comp(sorted[first]);
      q.hi[dim] = comp(sorted[first + target - 1]);
    } else {
      // Bisect the half-width geometrically on a 1-in-kStride sample of
      // the keys; the exact count of the final box is what gets checked.
      const auto& c = by_x_[rng->Below(size())];
      double lo_w = 1.0, hi_w = 4294967296.0;
      for (int step = 0; step < 12; ++step) {
        const double w = std::sqrt(lo_w * hi_w);
        Box(c, w, &q);
        if (SampleCount(q) * kStride < target) {
          lo_w = w;
        } else {
          hi_w = w;
        }
      }
      Box(c, hi_w, &q);
    }
    q.expected = Count(q.lo[0], q.hi[0], q.lo[1], q.hi[1]);
    return q;
  }

 private:
  static constexpr uint64_t kStride = 16;

  uint64_t SampleCount(const Query& q) const {
    auto lo = std::lower_bound(sample_x_.begin(), sample_x_.end(),
                               std::make_pair(q.lo[0], uint32_t{0}));
    auto hi = std::upper_bound(sample_x_.begin(), sample_x_.end(),
                               std::make_pair(q.hi[0], UINT32_MAX));
    uint64_t n = 0;
    for (auto it = lo; it < hi; ++it) {
      n += it->second >= q.lo[1] && it->second <= q.hi[1];
    }
    return n;
  }

  static void Box(const std::pair<uint32_t, uint32_t>& c, double w,
                  Query* q) {
    auto clamp = [](int64_t v) {
      return static_cast<uint32_t>(std::clamp<int64_t>(v, 0, UINT32_MAX));
    };
    const int64_t half = static_cast<int64_t>(w);
    q->lo[0] = clamp(int64_t{c.first} - half);
    q->hi[0] = clamp(int64_t{c.first} + half);
    q->lo[1] = clamp(int64_t{c.second} - half);
    q->hi[1] = clamp(int64_t{c.second} + half);
  }

  std::vector<std::pair<uint32_t, uint32_t>> by_x_;
  std::vector<std::pair<uint32_t, uint32_t>> by_y_;
  std::vector<std::pair<uint32_t, uint32_t>> sample_x_;
};

inline RangePredicate ToPredicate(const bmeh::KeySchema& schema,
                                  const RangeOracle::Query& q) {
  RangePredicate pred(schema);
  for (int j = 0; j < 2; ++j) {
    const uint32_t top = schema.width(j) >= 32
                             ? UINT32_MAX
                             : (uint32_t{1} << schema.width(j)) - 1;
    pred.Constrain(j, std::min(q.lo[j], top), std::min(q.hi[j], top));
  }
  return pred;
}

}  // namespace perfbench

#endif  // BMEH_PERFBENCH_HARNESS_H_
