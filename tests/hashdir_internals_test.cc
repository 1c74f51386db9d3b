// Unit tests of the traversal plumbing shared by the tree schemes:
// descent, the range-walk box iterator, and entry/ref formatting.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <vector>

#include "src/hashdir/descent.h"
#include "src/hashdir/range_walk.h"

namespace bmeh {
namespace hashdir {
namespace {

TEST(RefTest, KindsAndEquality) {
  EXPECT_TRUE(Ref::Nil().is_nil());
  EXPECT_TRUE(Ref::Page(3).is_page());
  EXPECT_TRUE(Ref::Node(4).is_node());
  EXPECT_EQ(Ref::Page(3), Ref::Page(3));
  EXPECT_NE(Ref::Page(3), Ref::Page(4));
  EXPECT_NE(Ref::Page(3), Ref::Node(3));
  EXPECT_EQ(Ref::Nil(), Ref::Nil());
  EXPECT_EQ(Ref::Nil().ToString(), "NIL");
  EXPECT_EQ(Ref::Page(3).ToString(), "P3");
  EXPECT_EQ(Ref::Node(4).ToString(), "N4");
}

TEST(EntryTest, ToStringShowsDepths) {
  Entry e = MakeEntry(Ref::Page(7), 2);
  e.h[0] = 1;
  e.h[1] = 2;
  e.m = 0;
  EXPECT_EQ(e.ToString(2), "{P7, h=<1,2>, m=0}");
}

TEST(EntryTest, SameShapeComparesAllFields) {
  Entry a = MakeEntry(Ref::Page(1), 2);
  Entry b = a;
  EXPECT_TRUE(a.SameShape(b, 2));
  b.h[1] = 3;
  EXPECT_FALSE(a.SameShape(b, 2));
  b = a;
  b.ref = Ref::Page(2);
  EXPECT_FALSE(a.SameShape(b, 2));
  b = a;
  b.m = static_cast<uint8_t>((a.m + 1) % 2);
  EXPECT_FALSE(a.SameShape(b, 2));
}

TEST(TupleInNodeTest, ExtractsAtConsumedOffsets) {
  KeySchema schema(2, 8);
  DirNode node(2);
  node.Double(0);
  node.Double(0);
  node.Double(1);
  // Key bits (dim 0): 1 0 1 1 ...; consumed 1 -> next 2 bits are "01".
  PseudoKey key({0b10110000u, 0b01000000u});
  std::array<uint16_t, kMaxDims> consumed{};
  consumed[0] = 1;
  consumed[1] = 0;
  IndexTuple t{};
  ASSERT_TRUE(TupleInNode(schema, node, key, consumed, &t));
  EXPECT_EQ(t[0], 0b01u);
  EXPECT_EQ(t[1], 0b0u);
  // Seven bits already consumed leave one: a depth-2 node is over-deep.
  consumed[0] = 7;
  EXPECT_FALSE(TupleInNode(schema, node, key, consumed, &t));
}

// Runs the shared descent core over the writer view, collecting the path.
Status DescendPath(const KeySchema& schema, const NodeArena& nodes,
                   uint32_t root, const PseudoKey& key, IoCounter* io,
                   std::vector<PathStep>* path) {
  PageArena pages(8);
  WriterView view(nodes, pages, root, io, nullptr);
  return Descend(schema, view, key, path).status();
}

TEST(DescendTest, StopsAtPageLevelEntry) {
  KeySchema schema(2, 8);
  NodeArena nodes(2);
  const uint32_t root = nodes.Create();
  const uint32_t child = nodes.Create();
  DirNode* r = nodes.Get(root);
  r->Double(0);
  r->SplitGroup(IndexTuple{}, 0, Ref::Node(child), Ref::Page(9));
  nodes.Get(child)->at_address(0) = MakeEntry(Ref::Page(5), 2);

  IoCounter io;
  // Key with leading dim-0 bit 0 descends into the child node.
  std::vector<PathStep> left;
  ASSERT_TRUE(
      DescendPath(schema, nodes, root, PseudoKey({0u, 0u}), &io, &left).ok());
  ASSERT_EQ(left.size(), 2u);
  EXPECT_EQ(left[0].node_id, root);
  EXPECT_EQ(left[1].node_id, child);
  EXPECT_EQ(left[1].consumed[0], 1) << "the entry's h was stripped";
  EXPECT_EQ(io.stats().dir_reads, 1u) << "root read not charged";

  // Leading bit 1 ends at the root's page entry.
  std::vector<PathStep> right;
  ASSERT_TRUE(
      DescendPath(schema, nodes, root, PseudoKey({0x80u, 0u}), &io, &right)
          .ok());
  EXPECT_EQ(right.size(), 1u);
}

TEST(DescendTest, DanglingNodeIsCorruption) {
  KeySchema schema(2, 8);
  NodeArena nodes(2);
  const uint32_t root = nodes.Create();
  nodes.Get(root)->at_address(0) = MakeEntry(Ref::Node(1234), 2);
  IoCounter io;
  std::vector<PathStep> path;
  const Status st =
      DescendPath(schema, nodes, root, PseudoKey({0u, 0u}), &io, &path);
  EXPECT_TRUE(st.IsCorruption()) << st;
}

TEST(DescendTest, ZeroDepthCycleIsCaught) {
  // Two zero-depth nodes pointing at each other consume no bits; the
  // descent must terminate with Corruption rather than loop.
  KeySchema schema(2, 8);
  NodeArena nodes(2);
  const uint32_t a = nodes.Create();
  const uint32_t b = nodes.Create();
  nodes.Get(a)->at_address(0) = MakeEntry(Ref::Node(b), 2);
  nodes.Get(b)->at_address(0) = MakeEntry(Ref::Node(a), 2);
  IoCounter io;
  std::vector<PathStep> path;
  const Status st =
      DescendPath(schema, nodes, a, PseudoKey({0u, 0u}), &io, &path);
  EXPECT_TRUE(st.IsCorruption()) << st;
}

TEST(DescendTest, PathDeeperThanKeyWidthIsCorruption) {
  // The root strips 3 of dim 0's 4 bits; a child that indexes 2 more dim-0
  // bits addresses past the key width.  Every view reports it as a status
  // (the writer view: Corruption) instead of shifting by a negative count.
  KeySchema schema(2, 4);
  NodeArena nodes(2);
  const uint32_t root = nodes.Create();
  const uint32_t child = nodes.Create();
  DirNode* r = nodes.Get(root);
  for (int i = 0; i < 3; ++i) r->Double(0);
  Entry e = MakeEntry(Ref::Node(child), 2);
  e.h[0] = 3;
  r->at_address(0) = e;
  DirNode* c = nodes.Get(child);
  c->Double(0);
  c->Double(0);
  IoCounter io;
  std::vector<PathStep> path;
  const Status st =
      DescendPath(schema, nodes, root, PseudoKey({0u, 0u}), &io, &path);
  EXPECT_TRUE(st.IsCorruption()) << st;
  EXPECT_EQ(path.size(), 1u) << "the over-deep child is not a path step";
}

// A published view that runs `before_root` once, just before the descent
// acquires the root (the reader has loaded the root id), and
// `before_child` once, just before it visits its first non-root node (the
// reader has read the parent's entry but not yet acquired the child).
class PausingView : public PublishedView {
 public:
  using PublishedView::PublishedView;

  std::function<void()> before_root;
  std::function<void()> before_child;

  Status Visit(uint32_t id, bool is_root) {
    if (is_root && before_root) {
      auto pause = std::move(before_root);
      before_root = nullptr;
      pause();
    }
    if (!is_root && before_child) {
      auto pause = std::move(before_child);
      before_child = nullptr;
      pause();
    }
    return PublishedView::Visit(id, is_root);
  }
};

TEST(PublishedViewTest, ChildRecycledUnderStaleParentIsAConflict) {
  // The stale-parent hazard that only the parent re-check in
  // PublishedView::Visit catches.  A reader reads the root's entry for
  // `low` (→ node X) and then stalls.  Two commits land meanwhile: the
  // first replaces X (X is tombstoned and freed at publish), the second
  // recycles X's id for the node of the other half of the space.  Each
  // commit obeys the fresh-id rule, yet X's slot now holds a valid,
  // stable node for the wrong region: without the re-check the reader
  // would find `low`'s bucket missing and answer KeyError for a present
  // key.  The re-check sees the root's version moved and conflicts.
  KeySchema schema(2, 8);
  NodeArena nodes(2);
  PageArena pages(4);
  const PseudoKey low({0x10u, 0u});   // leading dim-0 bit 0
  const PseudoKey high({0x90u, 0u});  // leading dim-0 bit 1
  const uint32_t low_page = pages.Create();
  const uint32_t high_page = pages.Create();
  ASSERT_TRUE(pages.Get(low_page)->Insert({low, 1}).ok());
  ASSERT_TRUE(pages.Get(high_page)->Insert({high, 2}).ok());
  const uint32_t root = nodes.Create();
  const uint32_t x = nodes.Create();
  const uint32_t y = nodes.Create();
  nodes.Get(x)->at_address(0) = MakeEntry(Ref::Page(low_page), 2);
  nodes.Get(y)->at_address(0) = MakeEntry(Ref::Page(high_page), 2);
  DirNode* r = nodes.Get(root);
  r->Double(0);
  r->SplitGroup(IndexTuple{}, 0, Ref::Node(x), Ref::Node(y));

  // Re-points the root's entry for `half` at a new node whose only entry
  // is `page`, and destroys the node it replaces: one commit.
  std::vector<RetiredObject> retired;
  auto replace_child = [&](uint32_t half, uint32_t page) -> uint32_t {
    nodes.BeginScope();
    const uint32_t fresh = nodes.Create();
    nodes.Get(fresh)->at_address(0) = MakeEntry(Ref::Page(page), 2);
    IndexTuple t{};
    t[0] = half;
    Entry e = nodes.Get(root)->at(t);
    const uint32_t old = e.ref.id;
    e.ref = Ref::Node(fresh);
    nodes.Get(root)->at(t) = e;
    nodes.Destroy(old);
    nodes.PublishScope(&retired);
    return fresh;
  };

  IoCounter io;
  const std::atomic<uint32_t> published_root{root};
  PausingView view(nodes, pages, published_root, &io, nullptr);
  uint32_t recycled = 0;
  view.before_child = [&] {
    replace_child(0, low_page);                  // frees x
    recycled = replace_child(1, high_page);      // reuses x for `high`
  };
  const Result<uint64_t> got = PointLookup(schema, view, low);
  ASSERT_EQ(recycled, x) << "the second commit must recycle x's id";
  EXPECT_TRUE(view.conflicted())
      << "stale parent paired with a recycled child: " << got.status();
  EXPECT_FALSE(got.ok());

  // A fresh descent over the current structure finds both keys.
  PublishedView fresh(nodes, pages, published_root, &io, nullptr);
  EXPECT_EQ(PointLookup(schema, fresh, low).ValueOrDie(), 1u);
  EXPECT_EQ(PointLookup(schema, fresh, high).ValueOrDie(), 2u);
  EXPECT_FALSE(fresh.conflicted());
  for (const RetiredObject& obj : retired) obj.deleter(obj.obj);
}

TEST(PublishedViewTest, RootRecycledUnderStaleRootIdIsAConflict) {
  // The root has no parent to re-check.  A reader loads the published
  // root id (node X, a leaf over both halves of dimension 0) and stalls
  // before acquiring X.  Two commits land meanwhile: the first grows a
  // new root with one child per half and destroys X, the second replaces
  // the high child and recycles X's id for it.  X's slot then holds a
  // valid, stable node for the high half only: read as the root, it would
  // send `low` to the high bucket, and the reader would answer KeyError
  // for a present key.  Re-checking the root slot makes it a conflict.
  KeySchema schema(2, 8);
  NodeArena nodes(2);
  PageArena pages(4);
  const PseudoKey low({0x10u, 0u});   // leading dim-0 bit 0
  const PseudoKey high({0x90u, 0u});  // leading dim-0 bit 1
  const uint32_t low_page = pages.Create();
  const uint32_t high_page = pages.Create();
  ASSERT_TRUE(pages.Get(low_page)->Insert({low, 1}).ok());
  ASSERT_TRUE(pages.Get(high_page)->Insert({high, 2}).ok());
  const uint32_t x = nodes.Create();
  DirNode* leaf = nodes.Get(x);
  leaf->Double(0);
  leaf->SplitGroup(IndexTuple{}, 0, Ref::Page(low_page), Ref::Page(high_page));
  std::atomic<uint32_t> published_root{x};

  auto leaf_over = [&](uint32_t page) {
    const uint32_t id = nodes.Create();
    nodes.Get(id)->at_address(0) = MakeEntry(Ref::Page(page), 2);
    return id;
  };
  std::vector<RetiredObject> retired;
  uint32_t new_root = 0;
  uint32_t recycled = 0;
  IoCounter io;
  PausingView view(nodes, pages, published_root, &io, nullptr);
  view.before_root = [&] {
    nodes.BeginScope();
    const uint32_t low_child = leaf_over(low_page);
    const uint32_t high_child = leaf_over(high_page);
    new_root = nodes.Create();
    nodes.Get(new_root)->Double(0);
    nodes.Get(new_root)->SplitGroup(IndexTuple{}, 0, Ref::Node(low_child),
                                    Ref::Node(high_child));
    nodes.Destroy(x);
    nodes.PublishScope(&retired);
    published_root.store(new_root);

    nodes.BeginScope();
    recycled = leaf_over(high_page);
    IndexTuple t{};
    t[0] = 1;
    Entry e = nodes.Get(new_root)->at(t);
    nodes.Destroy(e.ref.id);
    e.ref = Ref::Node(recycled);
    nodes.Get(new_root)->at(t) = e;
    nodes.PublishScope(&retired);
  };
  const Result<uint64_t> got = PointLookup(schema, view, low);
  ASSERT_EQ(recycled, x) << "the second commit must recycle x's id";
  EXPECT_TRUE(view.conflicted())
      << "stale root id paired with a recycled node: " << got.status();
  EXPECT_FALSE(got.ok());

  // A fresh descent from the current root finds both keys.
  PublishedView fresh(nodes, pages, published_root, &io, nullptr);
  EXPECT_EQ(PointLookup(schema, fresh, low).ValueOrDie(), 1u);
  EXPECT_EQ(PointLookup(schema, fresh, high).ValueOrDie(), 2u);
  EXPECT_FALSE(fresh.conflicted());
  for (const RetiredObject& obj : retired) obj.deleter(obj.obj);
}

TEST(BoxOdometerTest, SingleCellBox) {
  IndexTuple lo{}, hi{};
  lo[0] = hi[0] = 3;
  lo[1] = hi[1] = 5;
  BoxOdometer od(2, lo, hi);
  ASSERT_FALSE(od.done());
  EXPECT_EQ(od.tuple()[0], 3u);
  EXPECT_EQ(od.tuple()[1], 5u);
  od.Next();
  EXPECT_TRUE(od.done());
}

TEST(BoxOdometerTest, CoversBoxLastDimensionFastest) {
  IndexTuple lo{}, hi{};
  lo[0] = 1;
  hi[0] = 2;
  lo[1] = 4;
  hi[1] = 6;
  std::vector<std::pair<uint32_t, uint32_t>> seen;
  for (BoxOdometer od(2, lo, hi); !od.done(); od.Next()) {
    seen.push_back({od.tuple()[0], od.tuple()[1]});
  }
  ASSERT_EQ(seen.size(), 6u);
  EXPECT_EQ(seen[0], (std::pair<uint32_t, uint32_t>{1, 4}));
  EXPECT_EQ(seen[1], (std::pair<uint32_t, uint32_t>{1, 5}));
  EXPECT_EQ(seen[3], (std::pair<uint32_t, uint32_t>{2, 4}));
  EXPECT_EQ(seen[5], (std::pair<uint32_t, uint32_t>{2, 6}));
}

TEST(RangeWalkTest, EmptyPredicateShortCircuits) {
  KeySchema schema(2, 8);
  RangePredicate pred(schema);
  pred.Constrain(0, 5, 6);
  pred.Constrain(0, 7, 8);  // empty intersection
  ASSERT_TRUE(pred.Empty());
  RangeWalkCallbacks cbs;  // never invoked
  std::vector<Record> out;
  RangeWalkStats stats;
  ASSERT_TRUE(RangeWalk(schema, pred, Ref::Node(0), cbs, &out, &stats).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.nodes_visited, 0u);
}

TEST(RangeWalkTest, DanglingNodeReportsCorruption) {
  KeySchema schema(2, 8);
  RangePredicate pred(schema);
  RangeWalkCallbacks cbs;
  cbs.get_node = [](uint32_t, int) -> const DirNode* { return nullptr; };
  std::vector<Record> out;
  RangeWalkStats stats;
  Status st = RangeWalk(schema, pred, Ref::Node(7), cbs, &out, &stats);
  EXPECT_TRUE(st.IsCorruption()) << st;
}

TEST(RangeWalkTest, NilRootMatchesNothing) {
  KeySchema schema(2, 8);
  RangePredicate pred(schema);
  RangeWalkCallbacks cbs;
  std::vector<Record> out;
  RangeWalkStats stats;
  ASSERT_TRUE(RangeWalk(schema, pred, Ref::Nil(), cbs, &out, &stats).ok());
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace hashdir
}  // namespace bmeh
