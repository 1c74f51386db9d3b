// Arenas: id-addressed object pools for directory nodes and data pages.
//
// Ids are dense, recycled via a free list, and stable for the lifetime of
// the object — they are what Ref::id stores.
//
// Concurrency model.  Each id maps to a slot holding an atomic object
// pointer plus an atomic version word (even = stable, odd = publication
// in progress).  Slots live in doubling-size segments that are allocated
// once and never move, so lock-free readers can address any slot without
// racing a table reallocation.  Slot versions are monotonic per id across
// object incarnations, which makes version validation immune to id
// recycling (no ABA).
//
// Writers are serialized externally (the store's op mutex).  While the
// optimistic read path is enabled, every mutation runs inside a *shadow
// scope*: the first mutable access to an object clones it into a private
// shadow map (copy-on-write), creations and destructions are recorded but
// not published, and PublishScope atomically swings each touched slot to
// its final object with an odd/even version bump around the store.
// Published objects are therefore immutable — a reader can never observe
// a torn node — and replaced originals are handed to the caller for
// epoch-based retirement instead of being freed in place.  Ids destroyed
// inside a scope re-enter the free list only when the scope publishes, so
// the same scope can never republish such a slot with an object for an
// unrelated region while a stale parent that still routes to it awaits
// its own republish.

#ifndef BMEH_HASHDIR_ARENA_H_
#define BMEH_HASHDIR_ARENA_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/bit_util.h"
#include "src/common/logging.h"
#include "src/hashdir/node.h"
#include "src/pagestore/data_page.h"

namespace bmeh {
namespace hashdir {

/// \brief An object replaced or destroyed by a published mutation, to be
/// retired through the epoch manager by the tree-level commit.
struct RetiredObject {
  void* obj;
  void (*deleter)(void*);
};

/// \brief Object pool with recycled uint32 ids and lock-free snapshots.
template <typename T>
class Arena {
 public:
  /// \brief A version-stamped view of one slot for optimistic readers.
  /// `ptr` is safe to dereference under an epoch guard whenever non-null;
  /// the read is consistent only if VersionOf(id) still equals `version`
  /// (and `version` is even) at validation time.
  struct Snapshot {
    const T* ptr;
    uint64_t version;
  };

  Arena() = default;
  ~Arena() {
    for (uint32_t id = 0; id < cap_.load(std::memory_order_relaxed); ++id) {
      Cell* c = CellOrNull(id);
      if (c != nullptr) delete c->ptr.load(std::memory_order_relaxed);
    }
    for (std::atomic<Cell*>& seg : segments_) {
      delete[] seg.load(std::memory_order_relaxed);
    }
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// \brief Creates an object via `make(id)` and returns its id.
  uint32_t Create(const std::function<std::unique_ptr<T>(uint32_t)>& make) {
    uint32_t id;
    if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
      // Gap ids minted by a far-ahead CreateAt may sit in a segment that
      // was never materialized.
      EnsureSegment(id);
    } else {
      id = cap_.load(std::memory_order_relaxed);
      EnsureSegment(id);
      cap_.store(id + 1, std::memory_order_release);
    }
    Install(id, make(id));
    return id;
  }

  /// \brief Creates an object at a specific id (deserialization path).
  /// The id must not be alive.
  void CreateAt(uint32_t id,
                const std::function<std::unique_ptr<T>(uint32_t)>& make) {
    BMEH_CHECK(!Alive(id)) << "CreateAt of live id " << id;
    const uint32_t cap = cap_.load(std::memory_order_relaxed);
    if (id >= cap) {
      for (uint32_t gap = cap; gap < id; ++gap) free_.push_back(gap);
      EnsureSegment(id);
      cap_.store(id + 1, std::memory_order_release);
    } else {
      // Remove the id from the free list (load-time only; O(n) is fine).
      for (size_t i = 0; i < free_.size(); ++i) {
        if (free_[i] == id) {
          free_[i] = free_.back();
          free_.pop_back();
          break;
        }
      }
      EnsureSegment(id);  // The id may be a never-materialized gap.
    }
    Install(id, make(id));
  }

  void Destroy(uint32_t id) {
    if (scope_active_) {
      // Ids whose slot was ever published must NOT be recycled within the
      // same scope: a later Create would republish the slot with an object
      // for an unrelated region, and a reader pairing a stale (not yet
      // republished) parent with that slot would validate cleanly and read
      // the wrong region.  Park them until PublishScope, when the
      // tombstone (null pointer + version bump) lands first.
      auto it = shadow_.find(id);
      if (it != shadow_.end()) {
        BMEH_CHECK(it->second != nullptr) << "Destroy of dead id " << id;
        if (originals_.count(id) > 0) {
          it->second.reset();  // Published original exists: tombstone it.
          scope_freed_.push_back(id);
        } else {
          shadow_.erase(it);  // Created this scope: never published.
          free_.push_back(id);
        }
      } else {
        T* pub = Cell_(id).ptr.load(std::memory_order_relaxed);
        BMEH_CHECK(pub != nullptr) << "Destroy of dead id " << id;
        originals_.emplace(id, pub);
        shadow_.emplace(id, nullptr);
        scope_freed_.push_back(id);
      }
      --scope_live_delta_;
      return;
    }
    Cell& c = Cell_(id);
    T* pub = c.ptr.load(std::memory_order_relaxed);
    BMEH_CHECK(pub != nullptr) << "Destroy of dead id " << id;
    c.ptr.store(nullptr, std::memory_order_release);
    c.ver.fetch_add(2, std::memory_order_release);
    delete pub;
    free_.push_back(id);
    live_.fetch_sub(1, std::memory_order_relaxed);
  }

  bool Alive(uint32_t id) const {
    if (scope_active_) {
      auto it = shadow_.find(id);
      if (it != shadow_.end()) return it->second != nullptr;
    }
    if (id >= cap_.load(std::memory_order_relaxed)) return false;
    const Cell* c = CellOrNull(id);
    return c != nullptr && c->ptr.load(std::memory_order_relaxed) != nullptr;
  }

  /// \brief Writer-view mutable access.  Inside a scope, the first call
  /// per id clones the published object into the shadow (copy-on-write);
  /// later calls return the same shadow object.
  T* Get(uint32_t id) {
    if (scope_active_) {
      auto it = shadow_.find(id);
      if (it != shadow_.end()) {
        BMEH_DCHECK(it->second != nullptr) << "access to dead id " << id;
        return it->second.get();
      }
      T* pub = Cell_(id).ptr.load(std::memory_order_relaxed);
      BMEH_DCHECK(pub != nullptr) << "access to dead id " << id;
      std::unique_ptr<T> clone = CloneOf(*pub);
      T* raw = clone.get();
      ++scope_copies_;
      originals_.emplace(id, pub);
      shadow_.emplace(id, std::move(clone));
      return raw;
    }
    T* pub = Cell_(id).ptr.load(std::memory_order_relaxed);
    BMEH_DCHECK(pub != nullptr) << "access to dead id " << id;
    return pub;
  }

  /// \brief Writer-view read access (sees this scope's shadows).
  const T* Get(uint32_t id) const {
    if (scope_active_) {
      auto it = shadow_.find(id);
      if (it != shadow_.end()) {
        BMEH_DCHECK(it->second != nullptr) << "access to dead id " << id;
        return it->second.get();
      }
    }
    const T* pub = Cell_(id).ptr.load(std::memory_order_relaxed);
    BMEH_DCHECK(pub != nullptr) << "access to dead id " << id;
    return pub;
  }

  /// \brief Writer-view live count (includes this scope's net delta —
  /// the node-cap checks run mid-mutation).
  uint64_t live_count() const {
    return live_.load(std::memory_order_relaxed) +
           static_cast<uint64_t>(scope_live_delta_);
  }

  /// \brief Invokes fn(id, obj) for every live object (writer view).
  void ForEach(const std::function<void(uint32_t, const T&)>& fn) const {
    const uint32_t cap = cap_.load(std::memory_order_relaxed);
    for (uint32_t id = 0; id < cap; ++id) {
      if (!Alive(id)) continue;
      fn(id, *Get(id));
    }
  }

  // --- Shadow scopes (writer side, externally serialized) ---------------

  /// \brief Opens a copy-on-write scope.  Until PublishScope, readers see
  /// the pre-scope state; the writer sees its own shadows.
  void BeginScope() {
    BMEH_CHECK(!scope_active_) << "nested arena scope";
    scope_active_ = true;
    scope_live_delta_ = 0;
  }

  /// \brief True when this scope has pending slot changes to publish.
  bool ScopeDirty() const { return scope_active_ && !shadow_.empty(); }

  /// \brief Published objects this scope has cloned so far.
  uint64_t scope_copies() const { return scope_copies_; }

  /// \brief Slots this scope will publish: clones, creations and
  /// tombstones.
  uint64_t scope_slots() const { return shadow_.size(); }

  /// \brief Closes a scope that made no publishable changes.
  void CancelScope() {
    BMEH_CHECK(scope_active_ && shadow_.empty());
    BMEH_CHECK(originals_.empty());
    BMEH_CHECK(scope_freed_.empty());
    BMEH_CHECK(scope_copies_ == 0);
    scope_active_ = false;
  }

  /// \brief Atomically publishes every touched slot (odd/even version
  /// bump around the pointer swing) and appends each replaced original
  /// to `retired` for epoch-based reclamation.  The caller brackets this
  /// with its own structure-level sequence lock.
  void PublishScope(std::vector<RetiredObject>* retired) {
    BMEH_CHECK(scope_active_);
    for (auto& entry : shadow_) {
      Cell& c = Cell_(entry.first);
      c.ver.fetch_add(1, std::memory_order_release);
      c.ptr.store(entry.second.release(), std::memory_order_release);
      c.ver.fetch_add(1, std::memory_order_release);
    }
    for (auto& entry : originals_) {
      retired->push_back(RetiredObject{
          entry.second, +[](void* p) { delete static_cast<T*>(p); }});
    }
    if (scope_live_delta_ >= 0) {
      live_.fetch_add(static_cast<uint64_t>(scope_live_delta_),
                      std::memory_order_relaxed);
    } else {
      live_.fetch_sub(static_cast<uint64_t>(-scope_live_delta_),
                      std::memory_order_relaxed);
    }
    // Destroyed ids become recyclable only now that their tombstones are
    // published (see Destroy).
    free_.insert(free_.end(), scope_freed_.begin(), scope_freed_.end());
    scope_freed_.clear();
    shadow_.clear();
    originals_.clear();
    scope_live_delta_ = 0;
    scope_copies_ = 0;
    scope_active_ = false;
  }

  // --- Lock-free reader side --------------------------------------------

  /// \brief Version-stamped snapshot of slot `id`.  Null ptr or an odd
  /// version means "unstable, retry".
  Snapshot Acquire(uint32_t id) const {
    const Cell* c = CellOrNull(id);
    if (c == nullptr) return Snapshot{nullptr, 1};
    const uint64_t v = c->ver.load(std::memory_order_acquire);
    const T* p = c->ptr.load(std::memory_order_acquire);
    return Snapshot{p, v};
  }

  /// \brief Current version of slot `id`, for validating a Snapshot.
  uint64_t VersionOf(uint32_t id) const {
    const Cell* c = CellOrNull(id);
    if (c == nullptr) return 1;
    return c->ver.load(std::memory_order_acquire);
  }

  /// \brief Published live count (reader side; validate via the caller's
  /// sequence lock).
  uint64_t live_count_published() const {
    return live_.load(std::memory_order_relaxed);
  }

  /// \brief Reader-side iteration over published objects.  Skips empty
  /// slots; objects seen mid-publish are valid (immutable, epoch-pinned)
  /// but possibly stale — the caller discards via its sequence lock.
  void ForEachPublished(
      const std::function<void(uint32_t, const T&)>& fn) const {
    const uint32_t cap = cap_.load(std::memory_order_acquire);
    for (uint32_t id = 0; id < cap; ++id) {
      const Cell* c = CellOrNull(id);
      if (c == nullptr) continue;
      const T* p = c->ptr.load(std::memory_order_acquire);
      if (p != nullptr) fn(id, *p);
    }
  }

 private:
  struct Cell {
    std::atomic<T*> ptr{nullptr};
    std::atomic<uint64_t> ver{0};
  };

  // Segment s holds ids [kBase*(2^s - 1), kBase*(2^(s+1) - 1)); segment
  // size kBase*2^s.  Locating a cell is pure bit math on id + kBase.
  static constexpr uint32_t kBaseLog = 6;  // First segment holds 64 ids.
  static constexpr uint32_t kBase = 1u << kBaseLog;
  static constexpr int kSegments = 27;     // Covers the full uint32 range.

  static int SegmentOf(uint32_t id, uint32_t* offset) {
    const uint64_t adj = static_cast<uint64_t>(id) + kBase;
    const int seg = bit_util::FloorLog2(adj) - static_cast<int>(kBaseLog);
    *offset = static_cast<uint32_t>(adj - (uint64_t{kBase} << seg));
    return seg;
  }

  void EnsureSegment(uint32_t id) {
    uint32_t off;
    const int seg = SegmentOf(id, &off);
    if (segments_[seg].load(std::memory_order_relaxed) != nullptr) return;
    const size_t size = size_t{kBase} << seg;
    segments_[seg].store(new Cell[size], std::memory_order_release);
  }

  Cell* CellOrNull(uint32_t id) const {
    uint32_t off;
    const int seg = SegmentOf(id, &off);
    Cell* base = segments_[seg].load(std::memory_order_acquire);
    return base == nullptr ? nullptr : base + off;
  }

  // A type that owns a variable-size block (DataPage) clones itself.
  static std::unique_ptr<T> CloneOf(const T& obj) {
    if constexpr (requires { obj.Clone(); }) {
      return obj.Clone();
    } else {
      return std::make_unique<T>(obj);
    }
  }

  Cell& Cell_(uint32_t id) const {
    Cell* c = CellOrNull(id);
    BMEH_CHECK(c != nullptr) << "slot for unallocated id " << id;
    return *c;
  }

  void Install(uint32_t id, std::unique_ptr<T> obj) {
    BMEH_CHECK(obj != nullptr);
    if (scope_active_) {
      auto it = shadow_.find(id);
      if (it != shadow_.end()) {
        // Recreating an id destroyed earlier in this scope.
        BMEH_CHECK(it->second == nullptr);
        it->second = std::move(obj);
      } else {
        shadow_.emplace(id, std::move(obj));
      }
      ++scope_live_delta_;
      return;
    }
    Cell_(id).ptr.store(obj.release(), std::memory_order_release);
    live_.fetch_add(1, std::memory_order_relaxed);
  }

  mutable std::array<std::atomic<Cell*>, kSegments> segments_{};
  std::atomic<uint32_t> cap_{0};   // Ids ever allocated (dense).
  std::atomic<uint64_t> live_{0};  // Published live objects.
  std::vector<uint32_t> free_;

  bool scope_active_ = false;
  int64_t scope_live_delta_ = 0;
  uint64_t scope_copies_ = 0;
  // id -> pending final object (null = destroy) for this scope.
  std::unordered_map<uint32_t, std::unique_ptr<T>> shadow_;
  // id -> published object to retire once the scope publishes.
  std::unordered_map<uint32_t, T*> originals_;
  // Destroyed ids with a published slot, parked until PublishScope so the
  // scope cannot recycle them (see Destroy).
  std::vector<uint32_t> scope_freed_;
};

/// \brief Pool of data pages of a fixed capacity b.
class PageArena {
 public:
  explicit PageArena(int capacity) : capacity_(capacity) {}

  uint32_t Create() {
    return arena_.Create([this](uint32_t id) {
      return DataPage::Make(id, capacity_);
    });
  }

  /// \brief Recreates a page at a known id (deserialization path).
  void CreateAt(uint32_t id) {
    arena_.CreateAt(id, [this](uint32_t page_id) {
      return DataPage::Make(page_id, capacity_);
    });
  }

  void Destroy(uint32_t id) { arena_.Destroy(id); }
  bool Alive(uint32_t id) const { return arena_.Alive(id); }
  DataPage* Get(uint32_t id) { return arena_.Get(id); }
  const DataPage* Get(uint32_t id) const { return arena_.Get(id); }
  uint64_t live_count() const { return arena_.live_count(); }
  int capacity() const { return capacity_; }

  void ForEach(
      const std::function<void(uint32_t, const DataPage&)>& fn) const {
    arena_.ForEach(fn);
  }

  void BeginScope() { arena_.BeginScope(); }
  bool ScopeDirty() const { return arena_.ScopeDirty(); }
  uint64_t scope_copies() const { return arena_.scope_copies(); }
  uint64_t scope_slots() const { return arena_.scope_slots(); }
  void CancelScope() { arena_.CancelScope(); }
  void PublishScope(std::vector<RetiredObject>* retired) {
    arena_.PublishScope(retired);
  }
  Arena<DataPage>::Snapshot Acquire(uint32_t id) const {
    return arena_.Acquire(id);
  }
  uint64_t VersionOf(uint32_t id) const { return arena_.VersionOf(id); }
  uint64_t live_count_published() const {
    return arena_.live_count_published();
  }
  void ForEachPublished(
      const std::function<void(uint32_t, const DataPage&)>& fn) const {
    arena_.ForEachPublished(fn);
  }

 private:
  int capacity_;
  Arena<DataPage> arena_;
};

/// \brief Pool of directory nodes of a fixed dimensionality.
class NodeArena {
 public:
  explicit NodeArena(int dims) : dims_(dims) {}

  uint32_t Create() {
    return arena_.Create(
        [this](uint32_t) { return std::make_unique<DirNode>(dims_); });
  }

  /// \brief Recreates a node at a known id (deserialization path).
  void CreateAt(uint32_t id) {
    arena_.CreateAt(
        id, [this](uint32_t) { return std::make_unique<DirNode>(dims_); });
  }

  void Destroy(uint32_t id) { arena_.Destroy(id); }
  bool Alive(uint32_t id) const { return arena_.Alive(id); }
  DirNode* Get(uint32_t id) { return arena_.Get(id); }
  const DirNode* Get(uint32_t id) const { return arena_.Get(id); }
  uint64_t live_count() const { return arena_.live_count(); }

  void ForEach(const std::function<void(uint32_t, const DirNode&)>& fn) const {
    arena_.ForEach(fn);
  }

  void BeginScope() { arena_.BeginScope(); }
  bool ScopeDirty() const { return arena_.ScopeDirty(); }
  uint64_t scope_copies() const { return arena_.scope_copies(); }
  uint64_t scope_slots() const { return arena_.scope_slots(); }
  void CancelScope() { arena_.CancelScope(); }
  void PublishScope(std::vector<RetiredObject>* retired) {
    arena_.PublishScope(retired);
  }
  Arena<DirNode>::Snapshot Acquire(uint32_t id) const {
    return arena_.Acquire(id);
  }
  uint64_t VersionOf(uint32_t id) const { return arena_.VersionOf(id); }
  uint64_t live_count_published() const {
    return arena_.live_count_published();
  }
  void ForEachPublished(
      const std::function<void(uint32_t, const DirNode&)>& fn) const {
    arena_.ForEachPublished(fn);
  }

 private:
  int dims_;
  Arena<DirNode> arena_;
};

}  // namespace hashdir
}  // namespace bmeh

#endif  // BMEH_HASHDIR_ARENA_H_
