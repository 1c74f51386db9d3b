// Optimistic (lock-free) reads for the BMEH-tree.  Point lookups run the
// shared descent core over hashdir::PublishedView (hand-over-hand slot
// versions, src/hashdir/descent.h).  Range walks and stat samples touch
// many slots, so they validate against the publication seqlock instead.
// Either way instability is a conflict for the caller to retry.

#include "src/core/bmeh_tree.h"
#include "src/hashdir/range_walk.h"

namespace bmeh {

using hashdir::DirNode;

Result<uint64_t> BmehTree::SearchOptimistic(const PseudoKey& key,
                                            bool* conflict) {
  *conflict = false;
  BMEH_RETURN_NOT_OK(schema_.Validate(key));
  hashdir::PublishedView view(
      nodes_, pages_, published_root_.load(std::memory_order_acquire), &io_,
      &quarantined_);
  Result<uint64_t> found = hashdir::PointLookup(schema_, view, key);
  *conflict = view.conflicted();
  return found;
}

Status BmehTree::RangeSearchOptimistic(const RangePredicate& pred,
                                       std::vector<Record>* out,
                                       bool* conflict) {
  *conflict = false;
  const size_t base = out->size();
  // Range walks touch many slots, so instead of per-slot hand-over-hand
  // validation they run under the tree-level sequence lock: any commit
  // overlapping the walk invalidates the whole result.
  const uint64_t s1 = pub_seq_.load(std::memory_order_acquire);
  if ((s1 & 1) != 0) {
    *conflict = true;
    return hashdir::ConflictStatus();
  }
  const uint32_t root = published_root_.load(std::memory_order_acquire);
  const int max_level = schema_.total_bits() + 2;
  bool torn = false;
  hashdir::RangeWalkCallbacks cbs;
  cbs.get_node = [this, root, max_level,
                  &torn](uint32_t id, int level) -> const DirNode* {
    if (level > max_level) {  // Stale chain; bail before walking a cycle.
      torn = true;
      return nullptr;
    }
    const hashdir::Arena<DirNode>::Snapshot ns = nodes_.Acquire(id);
    if (ns.ptr == nullptr || (ns.version & 1) != 0) {
      torn = true;
      return nullptr;
    }
    if (id != root) io_.CountDirRead();
    return ns.ptr;
  };
  uint64_t lost_buckets = 0;
  cbs.visit_page = [this, &torn, &lost_buckets](uint32_t page_id,
                                                const RangePredicate& p,
                                                std::vector<Record>* o) {
    if (quarantined_.count(page_id) != 0) {
      ++lost_buckets;
      return;
    }
    const hashdir::Arena<DataPage>::Snapshot ps = pages_.Acquire(page_id);
    if (ps.ptr == nullptr || (ps.version & 1) != 0) {
      torn = true;
      return;
    }
    io_.CountDataRead();
    for (const Record& rec : ps.ptr->records()) {
      if (p.Matches(rec.key)) o->push_back(rec);
    }
  };
  hashdir::RangeWalkStats stats;
  const Status st = hashdir::RangeWalk(schema_, pred,
                                       hashdir::Ref::Node(root), cbs, out,
                                       &stats);
  if (torn || pub_seq_.load(std::memory_order_acquire) != s1) {
    out->resize(base);  // Discard the partial walk.
    *conflict = true;
    return hashdir::ConflictStatus();
  }
  BMEH_RETURN_NOT_OK(st);
  if (lost_buckets > 0) {
    return Status::DataLoss("range result is partial: " +
                            std::to_string(lost_buckets) +
                            " overlapping bucket(s) lost to corruption");
  }
  return Status::OK();
}

bool BmehTree::SampleStatsOptimistic(IndexStructureStats* out) const {
  const uint64_t s1 = pub_seq_.load(std::memory_order_acquire);
  if ((s1 & 1) != 0) return false;
  IndexStructureStats s;
  s.directory_nodes = nodes_.live_count_published();
  s.directory_entries =
      s.directory_nodes * options_.node_block_entries(schema_.dims());
  uint64_t used = 0;
  nodes_.ForEachPublished(
      [&used](uint32_t, const DirNode& n) { used += n.entry_count(); });
  s.directory_entries_used = used;
  s.directory_levels = published_levels_.load(std::memory_order_relaxed);
  s.data_pages = pages_.live_count_published();
  s.records = published_records_.load(std::memory_order_relaxed);
  if (pub_seq_.load(std::memory_order_acquire) != s1) return false;
  *out = s;
  return true;
}

}  // namespace bmeh
