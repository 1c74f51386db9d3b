// Page-group split and merge primitives shared by the tree schemes.

#ifndef BMEH_HASHDIR_SPLIT_UTIL_H_
#define BMEH_HASHDIR_SPLIT_UTIL_H_

#include <array>

#include "src/common/status.h"
#include "src/encoding/key_schema.h"
#include "src/hashdir/arena.h"
#include "src/hashdir/node.h"
#include "src/pagestore/io_stats.h"

namespace bmeh {
namespace hashdir {

/// \brief Splits the data page owned by `t`'s group along dimension `m`.
///
/// Requires the group's entry to reference a page and h_m < node depth H_m.
/// Allocates a sibling page, repartitions the records by the key bit at
/// absolute offset consumed[m] + h_m, and drops whichever side ends up
/// empty (immediate deletion of empty pages, §2.1).  Charges one directory
/// write (the node is one block) and two data-page writes.
Status SplitPageGroup(const KeySchema& schema, DirNode* node,
                      const IndexTuple& t, int m,
                      const std::array<uint16_t, kMaxDims>& consumed,
                      PageArena* pages, IoCounter* io);

/// \brief The dimension along which MergeGroupCascade would next merge
/// `t`'s group with its buddy (their records fit strictly below one
/// page), or -1.  Reads only, so a copy-on-write writer can inspect
/// through its const view and take a mutable node only to apply.
int FindPageMerge(const DirNode& node, const IndexTuple& t,
                  const PageArena& pages, int page_capacity);

/// \brief True when MergeGroupCascade on `t` would change anything: a
/// buddy merge, or dropping the group's emptied page.
bool PageGroupTidyPending(const DirNode& node, const IndexTuple& t,
                          const PageArena& pages, int page_capacity);

/// \brief Repeatedly merges `t`'s group with its last-split buddy while
/// their combined records fit in one page (reversal of page splitting).
/// Stops at node-pointer children.  Returns the number of merges.
int MergeGroupCascade(DirNode* node, IndexTuple t, PageArena* pages,
                      int page_capacity, IoCounter* io);

/// \brief True when HalveNodeCascade would halve at least once.
bool HalvingPending(const DirNode& node);

/// \brief Reverses node doublings no entry needs any more; adjusts `t` so
/// it keeps addressing the same region.  Returns the number of halvings.
int HalveNodeCascade(DirNode* node, IndexTuple* t, IoCounter* io);

}  // namespace hashdir
}  // namespace bmeh

#endif  // BMEH_HASHDIR_SPLIT_UTIL_H_
