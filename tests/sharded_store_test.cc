// ShardedStore facade tests: ψ-prefix routing, cross-shard range merges
// against a single-tree oracle on the paper's key distributions,
// per-shard batch semantics, manifest validation, double-open
// protection, and crash-reopen recovery of every shard.

#include "src/store/sharded_store.h"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "src/common/fs.h"
#include "src/obs/metrics.h"
#include "src/workload/distributions.h"
#include "tests/test_util.h"

namespace bmeh {
namespace {

class ShardedStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/bmeh_sharded_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    RemoveDir();
  }
  void TearDown() override { RemoveDir(); }

  void RemoveDir() {
    for (int i = 0; i < 64; ++i) {
      std::remove(ShardedStore::ShardPath(dir_, i).c_str());
    }
    std::remove((dir_ + "/MANIFEST").c_str());
    std::remove((dir_ + "/MANIFEST.tmp").c_str());
    ::rmdir(dir_.c_str());
  }

  ShardedStoreOptions Opts(int shards) {
    ShardedStoreOptions o;
    o.shards = shards;
    o.store.schema = KeySchema(2, 31);
    o.store.tree = TreeOptions::Make(2, 8);
    o.store.page_size = 512;
    // Process-level crash simulation: completed writes survive, so
    // per-mutation fsync only adds wall clock.
    o.store.wal_sync_every = 64;
    return o;
  }

  std::unique_ptr<ShardedStore> MustOpen(const ShardedStoreOptions& options) {
    auto r = ShardedStore::Open(dir_, options);
    BMEH_CHECK(r.ok()) << r.status();
    return std::move(r).ValueOrDie();
  }

  std::string dir_;
};

// Both components are (injective) multiplicative hashes of the serial,
// so the top bits of every dimension vary and the interleaved routing
// prefix reaches every shard.
PseudoKey KeyFor(uint32_t serial) {
  return PseudoKey({(serial * 2654435761u) & 0x7fffffffu,
                    (serial * 0x85ebca6bu + 0x7f4a7c15u) & 0x7fffffffu});
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

TEST(ShardRouterTest, PrefixBitsOfPsi) {
  const KeySchema schema(2, 31);
  // ψ interleaves MSB-first starting with dimension 0, so with 2 routing
  // bits the shard index is (msb of k0, msb of k1).
  const uint32_t msb = 1u << 30;
  EXPECT_EQ(ShardRouter::ShardOf(PseudoKey({0u, 0u}), schema, 2), 0);
  EXPECT_EQ(ShardRouter::ShardOf(PseudoKey({0u, msb}), schema, 2), 1);
  EXPECT_EQ(ShardRouter::ShardOf(PseudoKey({msb, 0u}), schema, 2), 2);
  EXPECT_EQ(ShardRouter::ShardOf(PseudoKey({msb, msb}), schema, 2), 3);
  EXPECT_EQ(ShardRouter::ShardOf(PseudoKey({msb, msb}), schema, 0), 0);
}

TEST(ShardRouterTest, SkipsExhaustedDimensions) {
  // widths 3 and 1: the interleaved digit string is k0[2] k1[0] k0[1]
  // k0[0] — after round 0, dimension 1 has no digits left.
  std::vector<int> widths = {3, 1};
  const KeySchema schema{std::span<const int>(widths)};
  // 3 routing bits = k0[2] k1[0] k0[1].
  EXPECT_EQ(ShardRouter::ShardOf(PseudoKey({0b110u, 0u}), schema, 3), 0b101);
  EXPECT_EQ(ShardRouter::ShardOf(PseudoKey({0b001u, 1u}), schema, 3), 0b010);
}

TEST(ShardRouterTest, ShardIndexIsMonotoneInPsiOrder) {
  const KeySchema schema(2, 31);
  const auto keys = workload::GenerateKeys({}, 400);
  for (size_t a = 0; a < keys.size(); ++a) {
    for (size_t b = a + 1; b < keys.size(); ++b) {
      const PseudoKey& x = keys[a];
      const PseudoKey& y = keys[b];
      const int sx = ShardRouter::ShardOf(x, schema, 3);
      const int sy = ShardRouter::ShardOf(y, schema, 3);
      if (ShardRouter::PsiLess(x, y, schema)) {
        // Shards own contiguous ψ ranges: ψ order never decreases the
        // shard index — the invariant the range concatenation rests on.
        EXPECT_LE(sx, sy);
      } else {
        EXPECT_GE(sx, sy);
      }
    }
  }
}

TEST(ShardRouterTest, PsiLessIsAStrictWeakOrder) {
  const KeySchema schema(2, 31);
  const auto keys = workload::GenerateKeys({}, 64);
  for (const PseudoKey& k : keys) {
    EXPECT_FALSE(ShardRouter::PsiLess(k, k, schema));
  }
  for (size_t a = 0; a < keys.size(); ++a) {
    for (size_t b = 0; b < keys.size(); ++b) {
      if (a == b) continue;
      EXPECT_NE(ShardRouter::PsiLess(keys[a], keys[b], schema),
                ShardRouter::PsiLess(keys[b], keys[a], schema));
    }
  }
}

// Reference ψ order: walks the interleaved digit string one bit at a
// time (dimension round-robin, MSB first, exhausted dimensions skipped).
bool BitwisePsiLess(const PseudoKey& a, const PseudoKey& b,
                    const KeySchema& schema) {
  const int d = schema.dims();
  int max_w = 0;
  for (int j = 0; j < d; ++j) max_w = std::max(max_w, schema.width(j));
  for (int t = 0; t < d * max_w; ++t) {
    const int j = t % d;
    const int i = t / d;
    const int w = schema.width(j);
    if (i >= w) continue;
    const uint32_t ba = (a.component(j) >> (w - 1 - i)) & 1u;
    const uint32_t bb = (b.component(j) >> (w - 1 - i)) & 1u;
    if (ba != bb) return ba < bb;
  }
  return false;
}

TEST(ShardRouterTest, PsiLessMatchesBitwiseReference) {
  Rng rng(20261019);
  for (int trial = 0; trial < 400; ++trial) {
    const int d = 1 + static_cast<int>(rng.Uniform(kMaxDims));
    std::vector<int> widths(d);
    for (int& w : widths) w = 1 + static_cast<int>(rng.Uniform(32));
    const KeySchema schema{std::span<const int>(widths)};
    auto random_key = [&] {
      std::vector<uint32_t> c(d);
      for (int j = 0; j < d; ++j) {
        c[j] = static_cast<uint32_t>(rng.Next64()) & schema.max_component(j);
      }
      return PseudoKey(std::span<const uint32_t>(c));
    };
    auto check = [&](const PseudoKey& a, const PseudoKey& b) {
      ASSERT_EQ(ShardRouter::PsiLess(a, b, schema),
                BitwisePsiLess(a, b, schema))
          << a.ToString() << " vs " << b.ToString() << " in "
          << schema.ToString();
      ASSERT_EQ(ShardRouter::PsiLess(b, a, schema),
                BitwisePsiLess(b, a, schema))
          << b.ToString() << " vs " << a.ToString() << " in "
          << schema.ToString();
    };
    for (int pair = 0; pair < 50; ++pair) {
      const PseudoKey a = random_key();
      check(a, a);  // equal keys
      check(a, random_key());
      // Keys one bit apart.
      PseudoKey b = a;
      const int j = static_cast<int>(rng.Uniform(d));
      const int bit = static_cast<int>(rng.Uniform(schema.width(j)));
      b.set_component(j, a.component(j) ^ (1u << bit));
      check(a, b);
      // Two dimensions differing in the same interleave round: the
      // lower dimension's digit comes first in ψ and decides.
      const int k = static_cast<int>(rng.Uniform(d));
      const int round = static_cast<int>(
          rng.Uniform(std::min(schema.width(j), schema.width(k))));
      PseudoKey c = a;
      c.set_component(j, a.component(j) ^ (1u << (schema.width(j) - 1 - round)));
      c.set_component(k, c.component(k) ^ (1u << (schema.width(k) - 1 - round)));
      check(a, c);
      check(b, c);
    }
  }
}

// ---------------------------------------------------------------------------
// Lifecycle: create, reopen, manifest
// ---------------------------------------------------------------------------

TEST_F(ShardedStoreTest, CreatePutGetAcrossReopen) {
  {
    auto store = MustOpen(Opts(4));
    EXPECT_EQ(store->shards(), 4);
    EXPECT_EQ(store->shard_bits(), 2);
    for (uint32_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(store->Put(KeyFor(i), i).ok());
    }
    EXPECT_EQ(store->records(), 200u);
    // Every shard got something (the multiplicative hash spreads the top
    // bits); destructors checkpoint each shard.
    for (int s = 0; s < 4; ++s) {
      EXPECT_GT(store->shard(s)->tree().Stats().records, 0u);
    }
  }
  {
    // shards = 0 adopts the manifest's count.
    auto store = MustOpen(Opts(0));
    EXPECT_EQ(store->shards(), 4);
    EXPECT_EQ(store->dirty_ops(), 0u);
    for (uint32_t i = 0; i < 200; ++i) {
      auto r = store->Get(KeyFor(i));
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(*r, i);
    }
    EXPECT_TRUE(store->Get(KeyFor(1000)).status().IsKeyError());
  }
  auto info = ShardedStore::Inspect(dir_);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->shards, 4);
  EXPECT_EQ(info->records, 200u);
  EXPECT_EQ(static_cast<int>(info->shard.size()), 4);
}

TEST_F(ShardedStoreTest, ShardCountMustBeAPowerOfTwo) {
  EXPECT_TRUE(ShardedStore::Open(dir_, Opts(3)).status().IsInvalid());
  EXPECT_TRUE(ShardedStore::Open(dir_, Opts(-2)).status().IsInvalid());
  EXPECT_TRUE(ShardedStore::Open(dir_, Opts(8192)).status().IsInvalid());
}

TEST_F(ShardedStoreTest, ReopenRejectsMismatchedShardsAndSchema) {
  MustOpen(Opts(4));
  EXPECT_TRUE(ShardedStore::Open(dir_, Opts(8)).status().IsInvalid());
  ShardedStoreOptions other = Opts(0);
  other.store.schema = KeySchema(3, 20);
  EXPECT_TRUE(ShardedStore::Open(dir_, other).status().IsInvalid());
}

TEST_F(ShardedStoreTest, CorruptManifestRefusesToOpen) {
  MustOpen(Opts(2));
  const std::string path = dir_ + "/MANIFEST";
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 7, SEEK_SET);
  std::fputc('X', f);
  std::fclose(f);
  auto r = ShardedStore::Open(dir_, Opts(0));
  EXPECT_TRUE(r.status().IsCorruption()) << r.status();
  EXPECT_FALSE(ShardedStore::IsShardedDir(dir_));
}

TEST_F(ShardedStoreTest, ManifestFsyncFailureFailsOpenAndPublishesNothing) {
  // An fsync failure (ENOSPC / EIO) on the fresh manifest must fail the
  // open: renaming an unsynced MANIFEST into place would seal a routing
  // contract that a crash can still tear.
  internal::InjectFileSyncErrorsForTesting(1);
  auto r = ShardedStore::Open(dir_, Opts(2));
  internal::InjectFileSyncErrorsForTesting(0);
  EXPECT_TRUE(r.status().IsIoError()) << r.status();
  struct stat st;
  EXPECT_NE(::stat((dir_ + "/MANIFEST").c_str(), &st), 0);
}

TEST_F(ShardedStoreTest, DoubleOpenIsRefusedPerShardFlock) {
  auto first = MustOpen(Opts(2));
  auto second = ShardedStore::Open(dir_, Opts(0));
  EXPECT_FALSE(second.ok());
  // The refusal must not have mutated the held store's shards.
  EXPECT_TRUE(first->Put(KeyFor(1), 1).ok());
  auto r = first->Get(KeyFor(1));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 1u);
}

TEST_F(ShardedStoreTest, IsShardedDirDistinguishesLayouts) {
  EXPECT_FALSE(ShardedStore::IsShardedDir(dir_));
  MustOpen(Opts(2));
  EXPECT_TRUE(ShardedStore::IsShardedDir(dir_));
  EXPECT_FALSE(ShardedStore::IsShardedDir(ShardedStore::ShardPath(dir_, 0)));
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

TEST_F(ShardedStoreTest, CrashReopenReplaysEveryShardWal) {
  constexpr uint32_t kAcked = 300;
  {
    auto store = MustOpen(Opts(8));
    store->DisableFsyncForTesting();
    for (uint32_t i = 0; i < kAcked; ++i) {
      ASSERT_TRUE(store->Put(KeyFor(i), i).ok());
    }
    EXPECT_GT(store->wal_records(), 0u);
    store->SimulateProcessCrashForTesting();
  }
  {
    auto store = MustOpen(Opts(0));
    EXPECT_EQ(store->shards(), 8);
    EXPECT_EQ(store->records(), kAcked);
    for (uint32_t i = 0; i < kAcked; ++i) {
      auto r = store->Get(KeyFor(i));
      ASSERT_TRUE(r.ok()) << "key " << i << ": " << r.status();
      EXPECT_EQ(*r, i);
    }
    for (int s = 0; s < 8; ++s) {
      EXPECT_TRUE(store->shard(s)->mutable_tree()->Validate().ok());
    }
  }
}

// ---------------------------------------------------------------------------
// Batches
// ---------------------------------------------------------------------------

TEST_F(ShardedStoreTest, BatchSplitsAcrossShardsWithPerRecordStatuses) {
  auto store = MustOpen(Opts(4));
  ASSERT_TRUE(store->Put(KeyFor(5), 55).ok());

  WriteBatch batch;
  batch.Put(KeyFor(1), 1);       // fresh insert
  batch.Put(KeyFor(5), 99);      // duplicate -> AlreadyExists
  batch.Delete(KeyFor(77));      // absent -> KeyError
  batch.Put(KeyFor(2), 2);       // fresh insert
  batch.Delete(KeyFor(1));       // deletes the in-batch insert

  std::vector<Status> statuses;
  Status st = store->Write(batch, &statuses);
  ASSERT_EQ(statuses.size(), 5u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].IsAlreadyExists());
  EXPECT_TRUE(statuses[2].IsKeyError());
  EXPECT_TRUE(statuses[3].ok());
  EXPECT_TRUE(statuses[4].ok());
  // Batch-level status: first non-OK in the caller's original order.
  EXPECT_TRUE(st.IsAlreadyExists()) << st;

  EXPECT_TRUE(store->Get(KeyFor(1)).status().IsKeyError());
  auto r5 = store->Get(KeyFor(5));
  ASSERT_TRUE(r5.ok());
  EXPECT_EQ(*r5, 55u);  // duplicate insert did not clobber
  EXPECT_TRUE(store->Get(KeyFor(2)).ok());
}

TEST_F(ShardedStoreTest, MalformedKeyFailsTheWholeBatchUpFront) {
  auto store = MustOpen(Opts(4));
  WriteBatch batch;
  batch.Put(KeyFor(1), 1);
  batch.Put(PseudoKey({1u, 2u, 3u}), 2);  // wrong dims
  std::vector<Status> statuses;
  EXPECT_TRUE(store->Write(batch, &statuses).IsInvalid());
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_TRUE(statuses[0].IsInvalid());
  EXPECT_TRUE(statuses[1].IsInvalid());
  // Nothing was routed anywhere.
  EXPECT_EQ(store->records(), 0u);
  EXPECT_TRUE(store->Get(KeyFor(1)).status().IsKeyError());
}

TEST_F(ShardedStoreTest, InsertAndDeleteBatchConveniences) {
  auto store = MustOpen(Opts(2));
  std::vector<Record> recs;
  std::vector<PseudoKey> keys;
  for (uint32_t i = 0; i < 64; ++i) {
    recs.push_back({KeyFor(i), i});
    keys.push_back(KeyFor(i));
  }
  ASSERT_TRUE(store->InsertBatch(recs).ok());
  EXPECT_EQ(store->records(), 64u);
  ASSERT_TRUE(store->DeleteBatch(keys).ok());
  EXPECT_EQ(store->records(), 0u);
}

// ---------------------------------------------------------------------------
// Cross-shard ranges
// ---------------------------------------------------------------------------

class ShardedRangeTest
    : public ShardedStoreTest,
      public ::testing::WithParamInterface<workload::Distribution> {};

// The sharded Range must return exactly the single-tree result set in
// global ψ order — including ranges that straddle shard boundaries (the
// top routing bits) and predicates that entire shards cannot match.
TEST_P(ShardedRangeTest, MergeMatchesSingleTreePsiOrder) {
  workload::WorkloadSpec spec;
  spec.distribution = GetParam();
  spec.seed = 20260809;
  const auto keys = workload::GenerateKeys(spec, 600);
  const KeySchema schema(2, 31);

  StoreOptions single_opts;
  single_opts.schema = schema;
  single_opts.tree = TreeOptions::Make(2, 8);
  single_opts.page_size = 512;
  auto single_r = BmehStore::Open(
      std::make_unique<InMemoryPageStore>(512), single_opts);
  ASSERT_TRUE(single_r.ok());
  auto single = std::move(single_r).ValueOrDie();

  ShardedStoreOptions sharded_opts = Opts(8);
  std::vector<std::unique_ptr<PageStore>> devices;
  for (int i = 0; i < 8; ++i) {
    devices.push_back(std::make_unique<InMemoryPageStore>(512));
  }
  auto sharded_r = ShardedStore::Open(std::move(devices), sharded_opts);
  ASSERT_TRUE(sharded_r.ok()) << sharded_r.status();
  auto sharded = std::move(sharded_r).ValueOrDie();

  for (uint32_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(single->Put(keys[i], i).ok());
    ASSERT_TRUE(sharded->Put(keys[i], i).ok());
  }

  const uint32_t mid = 1u << 30;  // the top routing bit's boundary
  std::vector<RangePredicate> predicates;
  predicates.push_back(RangePredicate(schema));  // full space
  predicates.push_back(                          // straddles dim-0 boundary
      RangePredicate(schema).Constrain(0, mid - (mid >> 2),
                                       mid + (mid >> 2)));
  predicates.push_back(  // narrow band: most shards contribute nothing
      RangePredicate(schema).Constrain(0, 0, 1u << 20));
  predicates.push_back(  // straddles dim-1 boundary too
      RangePredicate(schema)
          .Constrain(0, mid >> 1, mid + (mid >> 1))
          .Constrain(1, mid >> 1, mid + (mid >> 1)));
  predicates.push_back(  // empty result set
      RangePredicate(schema).ConstrainExact(0, 0).ConstrainExact(1, 0));

  for (size_t p = 0; p < predicates.size(); ++p) {
    std::vector<Record> want;
    ASSERT_TRUE(single->Range(predicates[p], &want).ok());
    std::sort(want.begin(), want.end(), [&](const Record& a, const Record& b) {
      return ShardRouter::PsiLess(a.key, b.key, schema);
    });

    std::vector<Record> got;
    ASSERT_TRUE(sharded->Range(predicates[p], &got).ok());

    ASSERT_EQ(got.size(), want.size()) << "predicate " << p;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].key, want[i].key) << "predicate " << p << " pos " << i;
      EXPECT_EQ(got[i].payload, want[i].payload);
    }
    // And the merged output is itself ψ-sorted across shard boundaries.
    EXPECT_TRUE(std::is_sorted(
        got.begin(), got.end(), [&](const Record& a, const Record& b) {
          return ShardRouter::PsiLess(a.key, b.key, schema);
        }));
  }
}

INSTANTIATE_TEST_SUITE_P(Distributions, ShardedRangeTest,
                         ::testing::Values(
                             workload::Distribution::kUniform,
                             workload::Distribution::kNormal,
                             workload::Distribution::kClustered),
                         [](const auto& info) {
                           return workload::DistributionName(info.param);
                         });

// ---------------------------------------------------------------------------
// 1-shard equivalence
// ---------------------------------------------------------------------------

TEST_F(ShardedStoreTest, OneShardMatchesBmehStoreOperationForOperation) {
  const std::string single_path = dir_ + "_single.db";
  std::remove(single_path.c_str());
  StoreOptions single_opts = Opts(1).store;
  auto single_r = BmehStore::Open(single_path, single_opts);
  ASSERT_TRUE(single_r.ok());
  auto single = std::move(single_r).ValueOrDie();
  auto sharded = MustOpen(Opts(1));

  Rng rng(7);
  for (int op = 0; op < 500; ++op) {
    const uint32_t serial = static_cast<uint32_t>(rng.Uniform(80));
    const PseudoKey key = KeyFor(serial);
    switch (rng.Uniform(3)) {
      case 0: {
        Status a = single->Put(key, serial);
        Status b = sharded->Put(key, serial);
        EXPECT_EQ(a.code(), b.code());
        break;
      }
      case 1: {
        Status a = single->Delete(key);
        Status b = sharded->Delete(key);
        EXPECT_EQ(a.code(), b.code());
        break;
      }
      default: {
        auto a = single->Get(key);
        auto b = sharded->Get(key);
        EXPECT_EQ(a.status().code(), b.status().code());
        if (a.ok() && b.ok()) {
          EXPECT_EQ(*a, *b);
        }
        break;
      }
    }
  }
  EXPECT_EQ(single->tree().Stats().records, sharded->records());

  std::vector<Record> a, b;
  ASSERT_TRUE(single->Range(RangePredicate(single->schema()), &a).ok());
  ASSERT_TRUE(sharded->Range(RangePredicate(sharded->schema()), &b).ok());
  auto less = [&](const Record& x, const Record& y) {
    return ShardRouter::PsiLess(x.key, y.key, single->schema());
  };
  std::sort(a.begin(), a.end(), less);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].payload, b[i].payload);
  }
  single.reset();
  std::remove(single_path.c_str());
}

// ---------------------------------------------------------------------------
// Shared metrics registry
// ---------------------------------------------------------------------------

TEST_F(ShardedStoreTest, SharedRegistryLabelsShardsAndAggregates) {
  obs::MetricsRegistry registry;
  ShardedStoreOptions opts = Opts(2);
  opts.store.metrics = &registry;
  auto store = MustOpen(opts);
  for (uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(store->Put(KeyFor(i), i).ok());
  }
  auto snap = registry.Snapshot();
  // Shared counters aggregate across shards automatically.
  EXPECT_EQ(snap.counters["store_puts_total"], 100u);
  // Sampled per-shard state is labeled, so sibling shards don't
  // overwrite each other...
  const int64_t s0 = snap.gauges["shard0_tree_records"];
  const int64_t s1 = snap.gauges["shard1_tree_records"];
  EXPECT_GT(s0, 0);
  EXPECT_GT(s1, 0);
  // ...and the facade publishes the sum under the unlabeled name a
  // single store would use.
  EXPECT_EQ(snap.gauges["tree_records"], s0 + s1);
  EXPECT_EQ(snap.gauges["tree_records"], 100);
  EXPECT_EQ(snap.gauges["store_shards"], 2);
  EXPECT_GT(snap.counters["shard0_pagestore_writes_total"], 0u);
  EXPECT_GT(snap.counters["shard1_pagestore_writes_total"], 0u);
}

// ---------------------------------------------------------------------------
// Partial availability
// ---------------------------------------------------------------------------

// The ISSUE-7 acceptance scenario: with shards = 8 and one shard's
// superblock corrupted on disk, a kPartial open serves Get/Insert/Range
// on the seven healthy shards, ops routed to the down shard fail with
// kUnavailable, and RepairShard restores full service without reopening
// the store.
TEST_F(ShardedStoreTest, PartialOpenServesHealthyShardsAndRepairHeals) {
  constexpr uint32_t kRecords = 400;
  const KeySchema schema(2, 31);
  ShardedStoreOptions opts = Opts(8);
  // A corrupt superblock must bring the shard DOWN, not open it
  // degraded-readonly.
  opts.store.tolerate_corruption = false;
  {
    auto store = MustOpen(opts);
    for (uint32_t i = 0; i < kRecords; ++i) {
      ASSERT_TRUE(store->Put(KeyFor(i), i).ok());
    }
  }

  // Corrupt the superblock (page 1; page 0 is the file header) of the
  // shard that owns KeyFor(0).  Physical pages carry the v2 checksum
  // trailer, so page 1 starts at page_size + kPageTrailerSize.
  const int down = ShardRouter::ShardOf(KeyFor(0), schema, 3);
  {
    const std::string path = ShardedStore::ShardPath(dir_, down);
    const long off = 512 + FilePageStore::kPageTrailerSize + 10;
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, off, SEEK_SET), 0);
    const int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(f, off, SEEK_SET), 0);
    std::fputc(byte ^ 0xff, f);
    std::fclose(f);
  }

  // Strict open (the default) refuses the whole store.
  EXPECT_FALSE(ShardedStore::Open(dir_, opts).ok());

  opts.open_policy = OpenPolicy::kPartial;
  // Keep the facade's retries cheap: a down shard is not coming back by
  // itself, so don't burn wall clock proving it.
  opts.retry.max_attempts = 2;
  opts.retry.base_delay_us = 10;
  opts.retry.max_delay_us = 50;
  opts.retry.total_budget_us = 1000;
  auto store = MustOpen(opts);
  EXPECT_EQ(store->shards(), 8);
  EXPECT_EQ(store->down_shards(), 1);
  EXPECT_FALSE(store->shard_healthy(down));
  EXPECT_FALSE(store->shard_down_reason(down).ok());
  for (int s = 0; s < 8; ++s) {
    if (s != down) {
      EXPECT_TRUE(store->shard_healthy(s)) << "shard " << s;
    }
  }

  // Reads: healthy shards answer, the down shard is honestly Unavailable.
  uint32_t routed_down = 0;
  for (uint32_t i = 0; i < kRecords; ++i) {
    auto r = store->Get(KeyFor(i));
    if (ShardRouter::ShardOf(KeyFor(i), schema, 3) == down) {
      ++routed_down;
      EXPECT_TRUE(r.status().IsUnavailable()) << "key " << i << ": "
                                              << r.status();
    } else {
      ASSERT_TRUE(r.ok()) << "key " << i << ": " << r.status();
      EXPECT_EQ(*r, i);
    }
  }
  EXPECT_GT(routed_down, 0u);

  // Writes follow the same contract.
  uint32_t fresh_down = kRecords;
  while (ShardRouter::ShardOf(KeyFor(fresh_down), schema, 3) != down) {
    ++fresh_down;
  }
  uint32_t fresh_up = kRecords;
  while (ShardRouter::ShardOf(KeyFor(fresh_up), schema, 3) == down) {
    ++fresh_up;
  }
  EXPECT_TRUE(store->Put(KeyFor(fresh_down), fresh_down).IsUnavailable());
  EXPECT_TRUE(store->Put(KeyFor(fresh_up), fresh_up).ok());

  // Range merges the healthy shards and flags the hole instead of
  // silently dropping it.
  bool partial = false;
  std::vector<Record> got;
  Status st = store->Range(RangePredicate(schema), &got, &partial);
  EXPECT_TRUE(st.IsUnavailable()) << st;
  EXPECT_TRUE(partial);
  EXPECT_EQ(got.size(), kRecords + 1 - routed_down);
  EXPECT_TRUE(std::is_sorted(
      got.begin(), got.end(), [&](const Record& a, const Record& b) {
        return ShardRouter::PsiLess(a.key, b.key, schema);
      }));

  // Repair brings the shard back under the live facade — no reopen.
  ShardRepairReport report;
  ASSERT_TRUE(store->RepairShard(down, &report).ok());
  EXPECT_EQ(store->down_shards(), 0);
  EXPECT_TRUE(store->shard_healthy(down));

  for (uint32_t i = 0; i < kRecords; ++i) {
    auto r = store->Get(KeyFor(i));
    ASSERT_TRUE(r.ok()) << "key " << i << " after repair: " << r.status();
    EXPECT_EQ(*r, i);
  }
  // The rejected write never happened; it succeeds now.
  EXPECT_TRUE(store->Get(KeyFor(fresh_down)).status().IsKeyError());
  EXPECT_TRUE(store->Put(KeyFor(fresh_down), fresh_down).ok());

  partial = true;
  got.clear();
  ASSERT_TRUE(store->Range(RangePredicate(schema), &got, &partial).ok());
  EXPECT_FALSE(partial);
  EXPECT_EQ(got.size(), kRecords + 2u);
}

// BringDownShard/TryReopenDownShards model a crash of one shard's
// "process": acknowledged writes survive via its WAL, and reopen needs
// no salvage.
TEST_F(ShardedStoreTest, BringDownAndReopenShardKeepsAckedWrites) {
  ShardedStoreOptions opts = Opts(4);
  opts.retry.max_attempts = 2;
  opts.retry.base_delay_us = 10;
  opts.retry.max_delay_us = 50;
  opts.retry.total_budget_us = 500;
  // Acked writes must be durable at BringDown, which discards the
  // not-yet-checkpointed tree: sync the WAL on every mutation.
  opts.store.wal_sync_every = 1;
  auto store = MustOpen(opts);
  store->DisableFsyncForTesting();
  const KeySchema schema(2, 31);
  for (uint32_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(store->Put(KeyFor(i), i).ok());
  }

  const int victim = ShardRouter::ShardOf(KeyFor(3), schema, 2);
  ASSERT_TRUE(store->BringDownShard(victim).ok());
  EXPECT_EQ(store->down_shards(), 1);
  EXPECT_TRUE(store->Get(KeyFor(3)).status().IsUnavailable());
  EXPECT_TRUE(store->shard_down_reason(victim).IsUnavailable());

  EXPECT_EQ(store->TryReopenDownShards(), 1);
  EXPECT_EQ(store->down_shards(), 0);
  for (uint32_t i = 0; i < 120; ++i) {
    auto r = store->Get(KeyFor(i));
    ASSERT_TRUE(r.ok()) << "key " << i << ": " << r.status();
    EXPECT_EQ(*r, i);
  }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

TEST_F(ShardedStoreTest, CheckpointFlushesEveryShardsWal) {
  auto store = MustOpen(Opts(4));
  for (uint32_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(store->Put(KeyFor(i), i).ok());
  }
  EXPECT_GT(store->wal_records(), 0u);
  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_EQ(store->wal_records(), 0u);
  EXPECT_EQ(store->dirty_ops(), 0u);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(store->shard(s)->generation(), 1u);
  }
}

}  // namespace
}  // namespace bmeh
