#include "src/hashdir/split_util.h"

#include <utility>

#include "src/common/bit_util.h"

namespace bmeh {
namespace hashdir {

Status SplitPageGroup(const KeySchema& schema, DirNode* node,
                      const IndexTuple& t, int m,
                      const std::array<uint16_t, kMaxDims>& consumed,
                      PageArena* pages, IoCounter* io) {
  const Entry proto = node->at(t);
  BMEH_CHECK(proto.ref.is_page());
  BMEH_CHECK(proto.h[m] < node->depth(m));

  // Both halves get FRESH page ids and the old id is destroyed (its slot
  // tombstones to null when the split publishes).  Reusing the old id for
  // one half would let a lock-free reader pair a stale pre-split node
  // snapshot — whose entry still routes the whole region to the old id —
  // with the post-split page serving only half the region, and report a
  // present key as not found.  A null slot turns that interleave into a
  // conflict/retry instead, matching the node-split discipline.
  const DataPage* old_page = std::as_const(*pages).Get(proto.ref.id);
  const uint32_t left_pid = pages->Create();
  const uint32_t right_pid = pages->Create();
  DataPage* left_page = pages->Get(left_pid);
  DataPage* right_page = pages->Get(right_pid);

  node->SplitGroup(t, m, Ref::Page(left_pid), Ref::Page(right_pid));
  io->CountDirWrite();

  const int w = schema.width(m);
  const int split_bit = consumed[m] + proto.h[m];
  BMEH_CHECK(split_bit < w) << "split beyond pseudo-key width";
  for (const Record& rec : old_page->records()) {
    const bool high =
        bit_util::BitAt(rec.key.component(m), w, split_bit) == 1;
    BMEH_CHECK_OK((high ? right_page : left_page)->Insert(rec));
  }
  pages->Destroy(proto.ref.id);
  io->CountDataWrite(2);

  // Immediate deletion of empty pages: replace the empty side with NIL.
  auto drop_if_empty = [&](DataPage* page, bool right_half) {
    if (!page->empty()) return;
    IndexTuple half = t;
    const uint64_t bit = bit_util::Pow2(node->depth(m) - (proto.h[m] + 1));
    half[m] = right_half ? static_cast<uint32_t>(t[m] | bit)
                         : static_cast<uint32_t>(t[m] & ~bit);
    node->SetGroupRef(half, Ref::Nil());
    pages->Destroy(page->id());
  };
  drop_if_empty(right_page, /*right_half=*/true);
  drop_if_empty(left_page, /*right_half=*/false);
  return Status::OK();
}

int FindPageMerge(const DirNode& node, const IndexTuple& t,
                  const PageArena& pages, int page_capacity) {
  const Entry e = node.at(t);
  if (e.ref.is_node()) return -1;
  // Preferred reversal order is the recorded last-split dimension, but
  // node splits move bits between levels, so any dimension whose buddy
  // group has the same shape is a legal (and necessary) merge.
  for (int tries = 0; tries < node.dims(); ++tries) {
    const int cand = (e.m + node.dims() - tries) % node.dims();
    if (e.h[cand] == 0) continue;
    const Entry be = node.at(node.BuddyGroup(t, cand));
    if (be.h != e.h || be.ref.is_node()) continue;
    if (e.ref.is_page() && be.ref.is_page() && e.ref.id == be.ref.id) {
      continue;
    }
    const int size = e.ref.is_page() ? pages.Get(e.ref.id)->size() : 0;
    const int buddy_size = be.ref.is_page() ? pages.Get(be.ref.id)->size() : 0;
    // Strictly below capacity: merging two halves into an exactly-full
    // page would both thrash (the next insert splits it again) and let
    // an insertion-time tidy pass undo the very split the insertion
    // needs (a full page re-absorbing its empty buddy forever).
    if (size + buddy_size >= page_capacity) continue;
    return cand;
  }
  return -1;
}

bool PageGroupTidyPending(const DirNode& node, const IndexTuple& t,
                          const PageArena& pages, int page_capacity) {
  const Ref ref = node.at(t).ref;
  if (ref.is_node()) return false;
  return FindPageMerge(node, t, pages, page_capacity) >= 0 ||
         (ref.is_page() && pages.Get(ref.id)->empty());
}

int MergeGroupCascade(DirNode* node, IndexTuple t, PageArena* pages,
                      int page_capacity, IoCounter* io) {
  // Sizes and emptiness are read through the const writer view, so only
  // the page that absorbs its buddy is copied into the shadow.
  const PageArena& view = std::as_const(*pages);
  int merges = 0;
  for (;;) {
    const Entry e = node->at(t);
    if (e.ref.is_node()) return merges;
    const int m = FindPageMerge(*node, t, view, page_capacity);
    if (m < 0) {
      // Immediate deletion of an emptied page (§2.1) even when no buddy
      // merge is possible.
      if (e.ref.is_page() && view.Get(e.ref.id)->empty()) {
        pages->Destroy(e.ref.id);
        node->SetGroupRef(t, Ref::Nil());
        io->CountDirWrite();
      }
      return merges;
    }
    const Entry be = node->at(node->BuddyGroup(t, m));

    Ref merged = Ref::Nil();
    if (e.ref.is_page() && be.ref.is_page()) {
      DataPage* target = pages->Get(e.ref.id);
      io->CountDataRead(2);
      for (const Record& rec : view.Get(be.ref.id)->records()) {
        BMEH_CHECK_OK(target->Insert(rec));
      }
      pages->Destroy(be.ref.id);
      io->CountDataWrite();
      merged = Ref::Page(target->id());
    } else if (e.ref.is_page()) {
      merged = e.ref;
    } else if (be.ref.is_page()) {
      merged = be.ref;
    }
    if (merged.is_page() && view.Get(merged.id)->empty()) {
      pages->Destroy(merged.id);
      merged = Ref::Nil();
    }
    node->MergeGroup(t, m, merged);
    io->CountDirWrite();
    ++merges;
  }
}

bool HalvingPending(const DirNode& node) {
  const int dim = node.history().last_event_dim();
  return dim >= 0 && node.CanHalve(dim);
}

int HalveNodeCascade(DirNode* node, IndexTuple* t, IoCounter* io) {
  int halvings = 0;
  while (HalvingPending(*node)) {
    const int dim = node->history().last_event_dim();
    node->Halve(dim);
    (*t)[dim] >>= 1;
    io->CountDirWrite();
    ++halvings;
  }
  return halvings;
}

}  // namespace hashdir
}  // namespace bmeh
