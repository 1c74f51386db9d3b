// Copy-on-write cost of writes under optimistic reads.  A writer copies a
// published node or page only when it edits it: the delete-side merge
// sweep inspects through the const writer view.  The copies per commit
// are visible as the store's cow_copied_objects histogram, and a shadowed
// tree must make exactly the structural decisions of an unshadowed one.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/common/epoch.h"
#include "src/common/random.h"
#include "src/core/bmeh_tree.h"
#include "src/obs/metrics.h"
#include "src/pagestore/page_store.h"
#include "src/store/bmeh_store.h"

namespace bmeh {
namespace {

std::vector<PseudoKey> RandomKeys(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<PseudoKey> keys;
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(PseudoKey({static_cast<uint32_t>(rng.Uniform(1u << 31)),
                              static_cast<uint32_t>(rng.Uniform(1u << 31))}));
  }
  std::sort(keys.begin(), keys.end(),
            [](const PseudoKey& a, const PseudoKey& b) {
              return a.component(0) != b.component(0)
                         ? a.component(0) < b.component(0)
                         : a.component(1) < b.component(1);
            });
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  Rng shuffle(seed + 1);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[shuffle.Uniform(i)]);
  }
  return keys;
}

uint64_t StructuralChanges(const BmehMutationStats& m) {
  return m.page_splits + m.node_doublings + m.node_splits + m.forced_splits +
         m.new_roots + m.page_merges + m.node_halvings + m.node_merges +
         m.root_collapses;
}

class CowStore {
 public:
  explicit CowStore(int b) {
    StoreOptions opts;
    opts.metrics = &registry_;
    opts.tree = TreeOptions::Make(2, b, /*phi=*/3);  // small nodes: deep trees
    store_ = BmehStore::Open(std::make_unique<InMemoryPageStore>(), opts)
                 .ValueOrDie();
    copied_ = registry_.GetHistogram("cow_copied_objects");
    published_ = registry_.GetHistogram("cow_published_slots");
  }

  BmehStore* operator->() { return store_.get(); }
  const obs::Histogram& copied() const { return *copied_; }
  const obs::Histogram& published() const { return *published_; }

 private:
  obs::MetricsRegistry registry_;
  std::unique_ptr<BmehStore> store_;
  obs::Histogram* copied_;
  obs::Histogram* published_;
};

TEST(CowWriteTest, EmptyingTheOnlyPageCopiesThePageAndTheLeafNode) {
  CowStore store(8);
  const std::vector<PseudoKey> keys = RandomKeys(3, 3);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(store->Put(keys[i], i).ok());
  }
  ASSERT_EQ(store->tree().Stats().data_pages, 1u);
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t copied0 = store.copied().sum();
    const uint64_t published0 = store.published().sum();
    const uint64_t commits0 = store.copied().count();
    ASSERT_TRUE(store->Delete(keys[i]).ok());
    const bool last = i + 1 == keys.size();
    EXPECT_EQ(store.copied().count(), commits0 + 1);
    // The page; the last delete also empties it, so the root (the leaf
    // node) drops its reference and the page slot is tombstoned.
    EXPECT_EQ(store.copied().sum() - copied0, last ? 2u : 1u) << i;
    EXPECT_EQ(store.published().sum() - published0, last ? 2u : 1u) << i;
  }
  EXPECT_EQ(store->tree().Stats().data_pages, 0u);
  // A delete of an absent key publishes nothing.
  const uint64_t commits = store.copied().count();
  EXPECT_TRUE(store->Delete(keys[0]).IsKeyError());
  EXPECT_EQ(store.copied().count(), commits);
}

TEST(CowWriteTest, WritesThatChangeNoStructureCopyOnlyWhatTheyEdit) {
  CowStore store(8);
  const std::vector<PseudoKey> keys = RandomKeys(11, 4000);
  int quiet_puts = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t changes0 = StructuralChanges(store->tree().mutation_stats());
    const uint64_t copied0 = store.copied().sum();
    ASSERT_TRUE(store->Put(keys[i], i).ok());
    if (StructuralChanges(store->tree().mutation_stats()) != changes0) continue;
    // The page that takes the record, or the node whose NIL region gets a
    // fresh page.
    ASSERT_EQ(store.copied().sum() - copied0, 1u) << "put " << i;
    ++quiet_puts;
  }
  EXPECT_GT(quiet_puts, 2000);
  ASSERT_TRUE(store->tree().Validate().ok());
  ASSERT_GT(store->tree().height(), 2);

  int quiet_deletes = 0;
  int emptied = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t changes0 = StructuralChanges(store->tree().mutation_stats());
    const uint64_t pages0 = store->tree().Stats().data_pages;
    const uint64_t copied0 = store.copied().sum();
    ASSERT_TRUE(store->Delete(keys[i]).ok());
    if (StructuralChanges(store->tree().mutation_stats()) != changes0) continue;
    // The page; when it empties, also the leaf node that drops it.
    const uint64_t dropped = pages0 - store->tree().Stats().data_pages;
    ASSERT_LE(dropped, 1u);
    ASSERT_EQ(store.copied().sum() - copied0, 1 + dropped) << "delete " << i;
    ++quiet_deletes;
    emptied += static_cast<int>(dropped);
  }
  EXPECT_GT(quiet_deletes, 1000);
  EXPECT_GT(emptied, 0);
  EXPECT_EQ(store->tree().Stats().records, 0u);
  ASSERT_TRUE(store->tree().Validate().ok());
}

void ExpectSameStructure(const BmehTree& a, const BmehTree& b,
                         const std::string& where) {
  SCOPED_TRACE(where);
  const BmehMutationStats& ma = a.mutation_stats();
  const BmehMutationStats& mb = b.mutation_stats();
  EXPECT_EQ(ma.page_splits, mb.page_splits);
  EXPECT_EQ(ma.node_doublings, mb.node_doublings);
  EXPECT_EQ(ma.node_splits, mb.node_splits);
  EXPECT_EQ(ma.forced_splits, mb.forced_splits);
  EXPECT_EQ(ma.new_roots, mb.new_roots);
  EXPECT_EQ(ma.page_merges, mb.page_merges);
  EXPECT_EQ(ma.node_halvings, mb.node_halvings);
  EXPECT_EQ(ma.node_merges, mb.node_merges);
  EXPECT_EQ(ma.root_collapses, mb.root_collapses);
  const IndexStructureStats sa = a.Stats();
  const IndexStructureStats sb = b.Stats();
  EXPECT_EQ(sa.directory_entries, sb.directory_entries);
  EXPECT_EQ(sa.directory_entries_used, sb.directory_entries_used);
  EXPECT_EQ(sa.directory_nodes, sb.directory_nodes);
  EXPECT_EQ(sa.directory_levels, sb.directory_levels);
  EXPECT_EQ(sa.data_pages, sb.data_pages);
  EXPECT_EQ(sa.records, sb.records);
  EXPECT_EQ(a.height(), b.height());
  const IoStats ia = a.io_stats();
  const IoStats ib = b.io_stats();
  EXPECT_EQ(ia.dir_reads, ib.dir_reads);
  EXPECT_EQ(ia.dir_writes, ib.dir_writes);
  EXPECT_EQ(ia.data_reads, ib.data_reads);
  EXPECT_EQ(ia.data_writes, ib.data_writes);
  const Status va = a.Validate();
  const Status vb = b.Validate();
  EXPECT_TRUE(va.ok()) << va;
  EXPECT_TRUE(vb.ok()) << vb;
}

TEST(CowWriteTest, ShadowedTreeMakesTheSameMergesAsAPlainOne) {
  // Deep trees (b = 4, small nodes) so that page merges, node merges,
  // halvings and root collapses all happen.
  const KeySchema schema(2, 31);
  const TreeOptions options = TreeOptions::Make(2, 4, 3);
  ASSERT_TRUE(options.merge_on_delete);
  epoch::EpochManager epochs;
  BmehTree plain(schema, options);
  BmehTree shadowed(schema, options);
  shadowed.EnableConcurrentReads(&epochs);

  const std::vector<PseudoKey> keys = RandomKeys(29, 6000);
  std::vector<size_t> live;
  Rng rng(31);
  size_t next = 0;
  for (int round = 0; round < 3; ++round) {
    // Grow with a mix of inserts and deletes, then drain to empty.
    while (next < keys.size() * (round + 1) / 3) {
      if (!live.empty() && rng.Uniform(10) < 3) {
        const size_t pick = rng.Uniform(live.size());
        const PseudoKey& key = keys[live[pick]];
        ASSERT_TRUE(plain.Delete(key).ok());
        ASSERT_TRUE(shadowed.Delete(key).ok());
        live[pick] = live.back();
        live.pop_back();
      } else {
        ASSERT_TRUE(plain.Insert(keys[next], next).ok());
        ASSERT_TRUE(shadowed.Insert(keys[next], next).ok());
        live.push_back(next++);
      }
    }
    ExpectSameStructure(plain, shadowed,
                        "after growth " + std::to_string(round));
    while (!live.empty()) {
      const size_t pick = rng.Uniform(live.size());
      const PseudoKey& key = keys[live[pick]];
      ASSERT_TRUE(plain.Delete(key).ok());
      ASSERT_TRUE(shadowed.Delete(key).ok());
      live[pick] = live.back();
      live.pop_back();
      if (live.size() % 500 == 0) {
        ExpectSameStructure(plain, shadowed,
                            "drain " + std::to_string(live.size()));
      }
    }
  }
  const BmehMutationStats& m = shadowed.mutation_stats();
  EXPECT_GT(m.page_merges, 0u);
  EXPECT_GT(m.node_merges, 0u);
  EXPECT_GT(m.node_halvings, 0u);
  EXPECT_GT(m.root_collapses, 0u);
}

}  // namespace
}  // namespace bmeh
