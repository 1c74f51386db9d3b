// MEH-tree: multidimensional extendible hash tree (paper §4.3; the second
// baseline).
//
// The directory is a tree of fixed-capacity nodes that grows *from the
// root downwards*: when a group inside a node has reached the node's depth
// cap xi_m along its split dimension, a fresh child node is spawned below
// and splitting continues inside it.  The tree is therefore not height
// balanced — dense regions get deeper subtrees — and node blocks in sparse
// regions stay mostly unused, which is why the paper finds the MEH-tree's
// directory can be even larger than MDEH's flat directory.

#ifndef BMEH_MEHTREE_MEH_TREE_H_
#define BMEH_MEHTREE_MEH_TREE_H_

#include <string>
#include <vector>

#include "src/hashdir/arena.h"
#include "src/hashdir/descent.h"
#include "src/hashdir/multikey_index.h"
#include "src/hashdir/tree_options.h"

namespace bmeh {

/// \brief Top-down-growing multidimensional extendible hash tree.
class MehTree : public MultiKeyIndex {
 public:
  MehTree(const KeySchema& schema, const TreeOptions& options);

  const KeySchema& schema() const override { return schema_; }
  int page_capacity() const override { return options_.page_capacity; }

  Status Insert(const PseudoKey& key, uint64_t payload) override;
  Result<uint64_t> Search(const PseudoKey& key) override;
  Status Delete(const PseudoKey& key) override;
  Status RangeSearch(const RangePredicate& pred,
                     std::vector<Record>* out) override;
  IndexStructureStats Stats() const override;
  Status Validate() const override;
  std::string name() const override { return "MEH-tree"; }

  /// \brief Number of directory nodes.
  uint64_t node_count() const { return nodes_.live_count(); }

  uint32_t root_id() const { return root_id_; }
  const hashdir::NodeArena& nodes() const { return nodes_; }

 private:
  /// Performs one structural change toward making room at the leaf of
  /// `path`; the caller re-descends and retries.
  Status SplitLeafOnce(const std::vector<hashdir::PathStep>& path);

  /// Buddy-merge cleanup after a deletion along `path`, cascading upward
  /// (reversal of the top-down growth).
  void MergeAfterDelete(std::vector<hashdir::PathStep> path);

  KeySchema schema_;
  TreeOptions options_;
  hashdir::NodeArena nodes_;
  hashdir::PageArena pages_;
  uint32_t root_id_;
  uint64_t records_ = 0;
};

}  // namespace bmeh

#endif  // BMEH_MEHTREE_MEH_TREE_H_
