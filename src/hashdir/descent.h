// The one root-to-leaf descent of the paper's EXM_Search (§3.1), also the
// descent half of BMEH_Insert: at each node, index by the node's global
// depths, read the entry, strip the entry's local depths h_j, descend.
//
// The loop is a template over a node source, a *view*:
//   WriterView     NodeArena::Get (sees copy-on-write shadows); a dead id
//                  is Corruption.  Search, Insert and Delete of both trees.
//   PublishedView  Acquire + hand-over-hand VersionOf re-checks (the
//                  root re-checks the root slot); any instability is a
//                  conflict.  BmehTree::SearchOptimistic.
//   frozen view    buffer-pool fetch + DecodeNode; errors propagate.
//                  FrozenBmehTree::Search (src/store/frozen_tree.cc).
// A view provides root(); Visit(id, is_root), which makes `id` the current
// node() and charges a directory read unless it is the pinned root;
// Malformed(what), the status for an over-deep or cyclic path; Validate(),
// OK while an entry just read from node() is still current; Quarantined();
// and Page(page_id), which charges a data read.

#ifndef BMEH_HASHDIR_DESCENT_H_
#define BMEH_HASHDIR_DESCENT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/bit_util.h"
#include "src/common/result.h"
#include "src/encoding/key_schema.h"
#include "src/encoding/pseudo_key.h"
#include "src/hashdir/arena.h"
#include "src/pagestore/io_stats.h"

namespace bmeh {
namespace hashdir {

/// \brief One level of a root-to-leaf path (the paper's STACK frames).
struct PathStep {
  uint32_t node_id = 0;
  /// Index tuple of the key within this node.
  IndexTuple tuple{};
  /// Bits of each dimension consumed by the ancestors of this node.
  std::array<uint16_t, kMaxDims> consumed{};
};

/// \brief Index tuple of `key` in `node` below `consumed` bits; false when
/// the node would address bits past the key width.
inline bool TupleInNode(const KeySchema& schema, const DirNode& node,
                        const PseudoKey& key,
                        const std::array<uint16_t, kMaxDims>& consumed,
                        IndexTuple* out) {
  for (int j = 0; j < schema.dims(); ++j) {
    if (consumed[j] + node.depth(j) > schema.width(j)) return false;
    (*out)[j] = static_cast<uint32_t>(bit_util::ExtractBits(
        key.component(j), schema.width(j), consumed[j], node.depth(j)));
  }
  return true;
}

/// \brief Walks from `view.root()` to the page-level entry for `key` and
/// returns the last step, whose entry in `view.node()` is a page or NIL.
/// A non-null `path` gets every step, root first.
template <typename View>
Result<PathStep> Descend(const KeySchema& schema, View& view,
                         const PseudoKey& key,
                         std::vector<PathStep>* path = nullptr) {
  PathStep step{view.root()};
  // A path cannot be longer than the total number of addressing bits plus
  // one (a chain of zero-depth nodes would violate structure invariants).
  const int max_levels = schema.total_bits() + 2;
  for (int level = 0; level < max_levels; ++level) {
    BMEH_RETURN_NOT_OK(view.Visit(step.node_id, level == 0));
    if (!TupleInNode(schema, view.node(), key, step.consumed, &step.tuple)) {
      return view.Malformed("directory path deeper than key width");
    }
    if (path != nullptr) path->push_back(step);
    const Entry& e = view.node().at(step.tuple);
    if (!e.ref.is_node()) return step;
    for (int j = 0; j < schema.dims(); ++j) {
      step.consumed[j] = static_cast<uint16_t>(step.consumed[j] + e.h[j]);
    }
    step.node_id = e.ref.id;
  }
  return view.Malformed("directory tree deeper than total key bits");
}

/// \brief A miss.  It names no key: misses are ordinary on the hot path.
inline Status KeyNotFound() { return Status::KeyError("key not found"); }

/// \brief Exact-match search: descend, then resolve the leaf entry.  A
/// non-null `path` gets the steps, as from Descend (Delete uses it).
template <typename View>
Result<uint64_t> PointLookup(const KeySchema& schema, View& view,
                             const PseudoKey& key,
                             std::vector<PathStep>* path = nullptr) {
  BMEH_ASSIGN_OR_RETURN(const PathStep leaf, Descend(schema, view, key, path));
  const Ref ref = view.node().at(leaf.tuple).ref;
  if (ref.is_nil()) {
    BMEH_RETURN_NOT_OK(view.Validate());
    return KeyNotFound();
  }
  if (view.Quarantined(ref.id)) {
    BMEH_RETURN_NOT_OK(view.Validate());
    // "Not found" would be a silent wrong answer: the key may well have
    // been in the lost bucket.
    return Status::DataLoss("bucket for " + key.ToString() +
                            " was lost to corruption");
  }
  BMEH_ASSIGN_OR_RETURN(const DataPage* page, view.Page(ref.id));
  const std::optional<uint64_t> payload = page->Lookup(key);
  if (!payload) return KeyNotFound();
  return *payload;
}

/// \brief The status of an optimistic read that must be retried.
inline Status ConflictStatus() {
  return Status::Unavailable("optimistic read conflict");
}

/// \brief State of the writer and published views; `quarantined` may be
/// null.
class ArenaView {
 public:
  ArenaView(const NodeArena& nodes, const PageArena& pages, uint32_t root,
            IoCounter* io, const std::unordered_set<uint32_t>* quarantined)
      : nodes_(nodes),
        pages_(pages),
        root_(root),
        io_(io),
        quarantined_(quarantined) {}

  uint32_t root() const { return root_; }
  const DirNode& node() const { return *node_; }
  bool Quarantined(uint32_t page_id) const {
    return quarantined_ != nullptr && quarantined_->count(page_id) != 0;
  }

 protected:
  const NodeArena& nodes_;
  const PageArena& pages_;
  const uint32_t root_;
  IoCounter* const io_;
  const std::unordered_set<uint32_t>* const quarantined_;
  const DirNode* node_ = nullptr;
};

/// \brief The current structure, read by the (single) writer.
class WriterView : public ArenaView {
 public:
  using ArenaView::ArenaView;

  Status Visit(uint32_t id, bool is_root) {
    if (!nodes_.Alive(id)) {
      return Status::Corruption("descent through dead node " +
                                std::to_string(id));
    }
    if (!is_root) io_->CountDirRead();
    node_ = nodes_.Get(id);
    return Status::OK();
  }
  Status Malformed(const char* what) const { return Status::Corruption(what); }
  Status Validate() const { return Status::OK(); }
  Result<const DataPage*> Page(uint32_t page_id) {
    io_->CountDataRead();
    return pages_.Get(page_id);
  }
};

/// \brief The published structure, read lock-free under an epoch::Guard
/// (writers retire replaced objects, so stale ones stay readable).
///
/// Hand-over-hand: an entry read from a node is trusted only after the
/// node's slot version re-checks unchanged, and the validated child
/// snapshot is carried down, so a republished parent/child pair is never
/// mixed.  Any instability sets conflicted() for the caller to retry.
class PublishedView : public ArenaView {
 public:
  /// The descent starts at the id `published_root` (the tree's published
  /// root slot) holds now.
  PublishedView(const NodeArena& nodes, const PageArena& pages,
                const std::atomic<uint32_t>& published_root, IoCounter* io,
                const std::unordered_set<uint32_t>* quarantined)
      : ArenaView(nodes, pages,
                  published_root.load(std::memory_order_acquire), io,
                  quarantined),
        published_root_(published_root) {}

  bool conflicted() const { return conflicted_; }

  Status Visit(uint32_t id, bool is_root) {
    const Arena<DirNode>::Snapshot s = nodes_.Acquire(id);
    // Re-checking the parent proves that the entry, and so this snapshot,
    // was current a moment ago; published objects are immutable.  The
    // root has no parent, so it re-checks the root slot instead: a reader
    // that stalled after loading the root id may find that id freed and
    // recycled for a node deeper in the tree.
    if (is_root) {
      if (published_root_.load(std::memory_order_acquire) != id) {
        return Conflict();
      }
    } else {
      BMEH_RETURN_NOT_OK(Validate());
    }
    if (s.ptr == nullptr || (s.version & 1) != 0) return Conflict();
    if (!is_root) io_->CountDirRead();
    id_ = id;
    node_ = s.ptr;
    version_ = s.version;
    return Status::OK();
  }
  /// A stale snapshot can pair bit depths inconsistently, so a malformed
  /// path is a conflict here rather than corruption.
  Status Malformed(const char*) { return Conflict(); }
  Status Validate() {
    return nodes_.VersionOf(id_) == version_ ? Status::OK() : Conflict();
  }
  Result<const DataPage*> Page(uint32_t page_id) {
    const Arena<DataPage>::Snapshot ps = pages_.Acquire(page_id);
    // If the node is unchanged, its entry still addresses this page for
    // this key's region, and the page object was current when its pointer
    // loaded (the linearization point of this lookup).
    BMEH_RETURN_NOT_OK(Validate());
    if (ps.ptr == nullptr || (ps.version & 1) != 0) return Conflict();
    io_->CountDataRead();
    return ps.ptr;
  }

 private:
  Status Conflict() {
    conflicted_ = true;
    return ConflictStatus();
  }

  const std::atomic<uint32_t>& published_root_;
  uint32_t id_ = 0;
  uint64_t version_ = 1;
  bool conflicted_ = false;
};

}  // namespace hashdir
}  // namespace bmeh

#endif  // BMEH_HASHDIR_DESCENT_H_
