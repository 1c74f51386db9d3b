// ConcurrentIndex: a thread-safe facade over any MultiKeyIndex.
//
// The 1986 structures are single-writer by design; this wrapper makes
// them usable from threaded services.  Writers serialize on the
// exclusive lock of an OptimisticReadPlane (src/store/read_plane.h),
// which also owns the read protocol: a BmehTree index reads lock-free
// unless it is degraded, and any other index reads under the plane's
// write-preferring shared lock.
//
// Observability: construct with a MetricsRegistry to get per-operation
// counters (`index_*_total`, plus the plane's `index_read_retries_total`
// and `index_read_fallbacks_total`) and latency histograms
// (`search_latency_ns`, `insert_latency_ns`, `delete_latency_ns`,
// `range_latency_ns`, and the plane's retried-read splits) charged
// around every call, plus a sampled source for the structure stats and
// the logical I/O counters.

#ifndef BMEH_STORE_CONCURRENT_INDEX_H_
#define BMEH_STORE_CONCURRENT_INDEX_H_

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/core/bmeh_tree.h"
#include "src/hashdir/multikey_index.h"
#include "src/obs/metrics.h"
#include "src/store/read_plane.h"

namespace bmeh {

/// \brief Thread-safe wrapper around a MultiKeyIndex (see file comment).
class ConcurrentIndex {
 public:
  /// \brief Takes ownership of `index`.  `metrics` (optional) must
  /// outlive this object.
  explicit ConcurrentIndex(std::unique_ptr<MultiKeyIndex> index,
                           obs::MetricsRegistry* metrics = nullptr)
      : index_(std::move(index)) {
    BMEH_CHECK(index_ != nullptr);
    if (auto* tree = dynamic_cast<BmehTree*>(index_.get())) {
      plane_.Enable(tree);
    }
    if (metrics != nullptr) {
      metrics_ = metrics;
      inserts_ = metrics->GetCounter("index_inserts_total");
      searches_ = metrics->GetCounter("index_searches_total");
      deletes_ = metrics->GetCounter("index_deletes_total");
      ranges_ = metrics->GetCounter("index_ranges_total");
      insert_latency_ = metrics->GetHistogram("insert_latency_ns");
      search_latency_ = metrics->GetHistogram("search_latency_ns");
      delete_latency_ = metrics->GetHistogram("delete_latency_ns");
      range_latency_ = metrics->GetHistogram("range_latency_ns");
      plane_.AttachMetrics(metrics, "index_");
      metrics_source_ = metrics->AddSource([this](obs::RegistrySnapshot* s) {
        IndexStructureStats stats;
        if (!plane_.SampleStats(&stats)) stats = Stats();
        s->gauges["index_records"] = static_cast<int64_t>(stats.records);
        s->gauges["index_data_pages"] =
            static_cast<int64_t>(stats.data_pages);
        s->gauges["index_directory_nodes"] =
            static_cast<int64_t>(stats.directory_nodes);
        s->gauges["index_directory_entries"] =
            static_cast<int64_t>(stats.directory_entries);
        s->gauges["index_directory_levels"] =
            static_cast<int64_t>(stats.directory_levels);
        const IoStats io = index_->io()->stats();
        s->counters["logical_dir_reads_total"] = io.dir_reads;
        s->counters["logical_dir_writes_total"] = io.dir_writes;
        s->counters["logical_data_reads_total"] = io.data_reads;
        s->counters["logical_data_writes_total"] = io.data_writes;
      });
    }
  }

  ~ConcurrentIndex() {
    if (metrics_ != nullptr) metrics_->RemoveSource(metrics_source_);
  }

  ConcurrentIndex(const ConcurrentIndex&) = delete;
  ConcurrentIndex& operator=(const ConcurrentIndex&) = delete;

  Status Insert(const PseudoKey& key, uint64_t payload) {
    if (inserts_ != nullptr) inserts_->Inc();
    obs::ScopedLatency timer(insert_latency_);
    auto lock = plane_.LockExclusive();
    return index_->Insert(key, payload);
  }

  /// \brief Inserts every record under ONE exclusive-lock acquisition —
  /// the batched write path's answer to paying per-record lock traffic.
  /// Records are attempted in order and all of them are tried; the first
  /// non-OK status (e.g. AlreadyExists on a duplicate) is returned.  No
  /// rollback: like N consecutive Insert() calls, minus N-1 lock round
  /// trips and with no other writer interleaved inside the batch.
  Status InsertBatch(std::span<const Record> records) {
    if (inserts_ != nullptr) inserts_->Inc(records.size());
    obs::ScopedLatency timer(insert_latency_);
    auto lock = plane_.LockExclusive();
    Status first;
    for (const Record& rec : records) {
      Status st = index_->Insert(rec.key, rec.payload);
      if (!st.ok() && first.ok()) first = std::move(st);
    }
    return first;
  }

  Result<uint64_t> Search(const PseudoKey& key) {
    if (searches_ != nullptr) searches_->Inc();
    obs::ScopedLatency timer(search_latency_);
    return plane_.Search(key, [&] { return index_->Search(key); });
  }

  Status Delete(const PseudoKey& key) {
    if (deletes_ != nullptr) deletes_->Inc();
    obs::ScopedLatency timer(delete_latency_);
    auto lock = plane_.LockExclusive();
    return index_->Delete(key);
  }

  /// \brief Deletes every key under one exclusive-lock acquisition.  Same
  /// contract as InsertBatch: all keys attempted in order, first non-OK
  /// status (e.g. KeyError on a missing key) returned, no rollback.
  Status DeleteBatch(std::span<const PseudoKey> keys) {
    if (deletes_ != nullptr) deletes_->Inc(keys.size());
    obs::ScopedLatency timer(delete_latency_);
    auto lock = plane_.LockExclusive();
    Status first;
    for (const PseudoKey& key : keys) {
      Status st = index_->Delete(key);
      if (!st.ok() && first.ok()) first = std::move(st);
    }
    return first;
  }

  Status RangeSearch(const RangePredicate& pred, std::vector<Record>* out) {
    if (ranges_ != nullptr) ranges_->Inc();
    obs::ScopedLatency timer(range_latency_);
    return plane_.Range(pred, out,
                        [&] { return index_->RangeSearch(pred, out); });
  }

  IndexStructureStats Stats() const {
    auto lock = plane_.LockShared();
    return index_->Stats();
  }

  Status Validate() const {
    auto lock = plane_.LockShared();
    return index_->Validate();
  }

  const KeySchema& schema() const { return index_->schema(); }

  /// \brief True when reads go through the lock-free path.
  bool optimistic_reads_enabled() const { return plane_.enabled(); }

 private:
  // Note: Search() mutates the underlying I/O counters, which is benign
  // from any thread because IoCounter is atomic; the registry source
  // above snapshots them likewise.
  OptimisticReadPlane plane_;
  std::unique_ptr<MultiKeyIndex> index_;
  obs::MetricsRegistry* metrics_ = nullptr;
  uint64_t metrics_source_ = 0;
  obs::Counter* inserts_ = nullptr;
  obs::Counter* searches_ = nullptr;
  obs::Counter* deletes_ = nullptr;
  obs::Counter* ranges_ = nullptr;
  obs::Histogram* insert_latency_ = nullptr;
  obs::Histogram* search_latency_ = nullptr;
  obs::Histogram* delete_latency_ = nullptr;
  obs::Histogram* range_latency_ = nullptr;
};

}  // namespace bmeh

#endif  // BMEH_STORE_CONCURRENT_INDEX_H_
