// OptimisticReadPlane: the one version-validated read path shared by
// BmehStore and ConcurrentIndex.
//
// An owner holds one plane and routes every lock acquisition and every
// read through it.  The plane has two halves:
//
//  * The write-preferring gate.  A std::shared_mutex guards the owner's
//    locked path.  glibc's rwlock prefers readers, so a stream of locked
//    readers can starve a mutator indefinitely (observed: single-digit
//    writes/sec under 16 spinning readers).  Mutators therefore raise
//    `writers_pending_` for their whole exclusive tenure — acquisition
//    wait *and* hold — and locked readers back off on capped timed sleeps
//    while it is up.  The writer's wait is then bounded by in-flight
//    readers rather than by reader arrival rate, and readers never pile
//    up parked on the rwlock futex, so a release is not a 16-thread wake
//    that hands the core to sleeper-boosted readers before the writer can
//    continue.  No livelock: the gate drops the moment the last pending
//    mutator releases.
//
//  * The optimistic loop.  Once Enable()d over a BmehTree, Search, Range
//    and the metrics sample descend the published structure under an
//    epoch::Guard, validating version words (see bmeh_olc_read.cc).  A
//    conflict means a writer published mid-descent, which lasts
//    microseconds, so the loop retries kReadAttempts times with 1–100 µs
//    jittered backoff (1 ms budget) and then falls back to the gate's
//    shared lock — the correctness anchor.  An unpinned guard (every epoch
//    reader slot taken) falls back at once.  The conflict-free pass reads
//    no clock and writes no shared cache line; retry bookkeeping
//    materializes on the first conflict.  Optimistic readers never
//    consult the gate.
//
// Observability: AttachMetrics(registry, prefix) charges
// `<prefix>read_retries_total` and `<prefix>read_fallbacks_total`, plus
// `search_retried_latency_ns` / `range_retried_latency_ns` for reads that
// conflicted at least once and still finished optimistically.  The
// metrics sample charges none of them.  See DESIGN.md §13.

#ifndef BMEH_STORE_READ_PLANE_H_
#define BMEH_STORE_READ_PLANE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/backoff.h"
#include "src/common/epoch.h"
#include "src/core/bmeh_tree.h"
#include "src/obs/metrics.h"
#include "src/obs/stopwatch.h"

namespace bmeh {

/// \brief Write-preferring gate plus optimistic read loop (see file
/// comment).
class OptimisticReadPlane {
 public:
  /// Optimistic tries per read before surrendering to the shared lock.
  static constexpr int kReadAttempts = 4;

  OptimisticReadPlane() = default;
  OptimisticReadPlane(const OptimisticReadPlane&) = delete;
  OptimisticReadPlane& operator=(const OptimisticReadPlane&) = delete;

  /// RAII exclusive hold of the gate that keeps writers_pending_ raised
  /// until release.  Only ever constructed as a prvalue from
  /// LockExclusive(), hence no move support.
  class ExclusiveLock {
   public:
    explicit ExclusiveLock(const OptimisticReadPlane* p) : p_(p) {
      p_->writers_pending_.fetch_add(1, std::memory_order_acquire);
      lock_ = std::unique_lock<std::shared_mutex>(p_->mutex_);
    }
    ~ExclusiveLock() {
      lock_.unlock();
      p_->writers_pending_.fetch_sub(1, std::memory_order_release);
    }
    ExclusiveLock(ExclusiveLock&&) = delete;

   private:
    const OptimisticReadPlane* p_;
    std::unique_lock<std::shared_mutex> lock_;
  };

  ExclusiveLock LockExclusive() const { return ExclusiveLock(this); }

  /// Write-preferring shared acquisition: backs off on capped timed
  /// sleeps (10 µs doubling to 1 ms) while any mutator waits or holds.
  std::shared_lock<std::shared_mutex> LockShared() const {
    uint64_t park_us = 10;
    while (writers_pending_.load(std::memory_order_acquire) > 0) {
      SleepUs(park_us);
      park_us = std::min<uint64_t>(park_us * 2, 1000);
    }
    return std::shared_lock<std::shared_mutex>(mutex_);
  }

  /// The raw mutex, for PageStore::AttachMetrics only: the page store's
  /// single sampler thread takes it shared, bypassing the gate.
  std::shared_mutex* sample_guard() const { return &mutex_; }

  /// \brief Turns lock-free reads on over `tree`.  A degraded tree keeps
  /// the locked path.  Call while the owner is quiescent, before it
  /// escapes to any other thread.
  void Enable(BmehTree* tree) {
    if (tree->degraded()) return;
    epoch_ = epoch::EpochManager::Global();
    if (!tree->concurrent_reads_enabled()) tree->EnableConcurrentReads(epoch_);
    tree_ = tree;
  }

  bool enabled() const { return tree_ != nullptr; }

  /// The reclamation domain readers pin (null until Enable()).
  epoch::EpochManager* epoch() const { return epoch_; }

  /// \brief Registers the read-path counters as `<prefix>read_*_total`
  /// and the unprefixed retried-latency histograms.  `registry` must
  /// outlive the plane.
  void AttachMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix) {
    obs::Counter* retries =
        registry->GetCounter(prefix + "read_retries_total");
    obs::Counter* fallbacks =
        registry->GetCounter(prefix + "read_fallbacks_total");
    search_ = {retries, fallbacks,
               registry->GetHistogram("search_retried_latency_ns")};
    range_ = {retries, fallbacks,
              registry->GetHistogram("range_retried_latency_ns")};
  }

  /// \brief Exact-match read: optimistic when enabled, else (or after
  /// the retries run out) `locked()` under the shared gate.
  template <typename Locked>
  Result<uint64_t> Search(const PseudoKey& key, const Locked& locked) const {
    return Read(
        [&](bool* conflict) { return tree_->SearchOptimistic(key, conflict); },
        search_, locked);
  }

  /// \brief Range read; same contract as Search.
  template <typename Locked>
  Status Range(const RangePredicate& pred, std::vector<Record>* out,
               const Locked& locked) const {
    return Read(
        [&](bool* conflict) {
          return tree_->RangeSearchOptimistic(pred, out, conflict);
        },
        range_, locked);
  }

  /// \brief Structure sample for a metrics source, taken from the
  /// published structure — never through the writer-view accessors, which
  /// a concurrent mutation's copy-on-write scope would race.  Returns
  /// false when the caller must sample through its locked path instead.
  bool SampleStats(IndexStructureStats* out) const {
    if (tree_ == nullptr) return false;
    return TryOptimistic(
               [&](bool* conflict) {
                 *conflict = !tree_->SampleStatsOptimistic(out);
                 return true;
               },
               Charges{})
        .has_value();
  }

 private:
  /// Where one kind of read charges its retries (all null = uncharged).
  struct Charges {
    obs::Counter* retries = nullptr;
    obs::Counter* fallbacks = nullptr;
    obs::Histogram* retried_latency = nullptr;
  };

  template <typename Attempt, typename Locked>
  auto Read(const Attempt& attempt, const Charges& charges,
            const Locked& locked) const -> decltype(locked()) {
    if (tree_ != nullptr) {
      if (auto r = TryOptimistic(attempt, charges)) return std::move(*r);
    }
    auto lock = LockShared();
    return locked();
  }

  /// Pins the epoch guard and runs `attempt(&conflict)`, retrying on
  /// conflict; nullopt means fall back to the locked path.
  template <typename Attempt>
  auto TryOptimistic(const Attempt& attempt, const Charges& charges) const
      -> std::optional<decltype(attempt(static_cast<bool*>(nullptr)))> {
    std::optional<Backoff> backoff;
    uint64_t t0 = 0;
    for (int tries = 0;;) {
      bool conflict = false;
      std::optional<decltype(attempt(&conflict))> r;
      {
        epoch::Guard guard(epoch_);
        // Unpinned: no reclamation protection, so the descent is unsafe.
        if (!guard.pinned()) break;
        r.emplace(attempt(&conflict));
      }
      if (!conflict) {
        if (tries > 0 && charges.retried_latency != nullptr) {
          charges.retried_latency->Record(obs::MonotonicNanos() - t0);
        }
        return r;
      }
      if (charges.retries != nullptr) charges.retries->Inc();
      if (++tries >= kReadAttempts) break;
      if (!backoff.has_value()) {
        if (charges.retried_latency != nullptr) t0 = obs::MonotonicNanos();
        backoff.emplace(RetryPolicy(),
                        backoff_seed_.fetch_add(1, std::memory_order_relaxed));
      }
      SleepUs(backoff->NextDelayUs());  // Outside the guard.
    }
    if (charges.fallbacks != nullptr) charges.fallbacks->Inc();
    return std::nullopt;
  }

  static BackoffPolicy RetryPolicy() {
    BackoffPolicy p;
    p.max_attempts = kReadAttempts;
    p.base_delay_us = 1;
    p.max_delay_us = 100;
    p.total_budget_us = 1000;
    return p;
  }

  mutable std::shared_mutex mutex_;
  mutable std::atomic<int> writers_pending_{0};
  BmehTree* tree_ = nullptr;  // Non-null once lock-free reads are on.
  epoch::EpochManager* epoch_ = nullptr;
  mutable std::atomic<uint64_t> backoff_seed_{0x9e3779b97f4a7c15ull};
  Charges search_;
  Charges range_;
};

}  // namespace bmeh

#endif  // BMEH_STORE_READ_PLANE_H_
