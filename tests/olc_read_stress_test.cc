// Stress tests for the optimistic (lock-free) read path, written to run
// under ThreadSanitizer: reader threads descend the published structure
// with version validation while a writer mutates a small hot domain and
// a splitter forces directory growth by streaming fresh keys into
// capacity-4 pages.
//
// Torn reads are detectable by construction: every record's payload is a
// pure function of its key, so any payload mismatch on a successful read
// means a reader observed a half-published state.  Failures are counted
// in atomics and asserted on the main thread.
//
// Seeded from BMEH_STRESS_SEED (default fixed) so a failure reproduces.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/backoff.h"
#include "src/common/epoch.h"
#include "src/common/random.h"
#include "src/metrics/experiment.h"
#include "src/pagestore/page_store.h"
#include "src/store/bmeh_store.h"
#include "src/store/concurrent_index.h"

namespace bmeh {
namespace {

uint64_t StressSeed() {
  const char* v = std::getenv("BMEH_STRESS_SEED");
  return v != nullptr ? std::strtoull(v, nullptr, 10) : 20260809ull;
}

uint64_t PayloadFor(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

// No-op sleeps: conflict backoff becomes a pure retry loop, so the
// stress spends its whole budget racing instead of parked in nanosleep.
class ScopedNoSleep {
 public:
  ScopedNoSleep() {
    SetSleepHookForTesting([](uint64_t) {});
  }
  ~ScopedNoSleep() { SetSleepHookForTesting(nullptr); }
};

struct Harness {
  explicit Harness(int page_capacity = 4) {
    KeySchema schema(2, 31);
    auto owned =
        metrics::MakeIndex(metrics::Method::kBmehTree, schema, page_capacity);
    tree = dynamic_cast<BmehTree*>(owned.get());
    index = std::make_unique<ConcurrentIndex>(std::move(owned), &registry);
  }

  obs::MetricsRegistry registry;
  BmehTree* tree = nullptr;  // borrowed; owned by index
  std::unique_ptr<ConcurrentIndex> index;
};

TEST(OlcReadStressTest, ReadersWritersSplitterNoTornReads) {
  ScopedNoSleep no_sleep;
  Harness h;
  ASSERT_NE(h.tree, nullptr);
  ASSERT_TRUE(h.index->optimistic_reads_enabled());

  // Widen each commit's publication window a little so readers actually
  // collide with in-flight commits on small machines.
  h.tree->SetCommitHookForTesting([] { std::this_thread::yield(); });

  const uint64_t seed = StressSeed();
  SCOPED_TRACE("BMEH_STRESS_SEED=" + std::to_string(seed));

  // Hot domain the writer toggles; the splitter streams unique keys from
  // a disjoint region (top bit set) to keep pages splitting underneath.
  constexpr uint32_t kHot = 64;
  constexpr uint32_t kSplitBase = 1u << 30;
  constexpr int kWriterOps = 1500;
  constexpr int kSplitterOps = 800;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};         // payload mismatches (must stay 0)
  std::atomic<uint64_t> bad_status{0};   // non-OK, non-KeyError reads
  std::atomic<uint64_t> reads_done{0};
  std::atomic<uint64_t> ranges_done{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(seed + 1000 + static_cast<uint64_t>(r));
      while (!stop.load(std::memory_order_acquire)) {
        const uint32_t a = static_cast<uint32_t>(rng.Uniform(kHot));
        const uint32_t b = static_cast<uint32_t>(rng.Uniform(kHot));
        auto got = h.index->Search(PseudoKey({a, b}));
        if (got.ok()) {
          if (*got != PayloadFor(a, b)) torn.fetch_add(1);
        } else if (!got.status().IsKeyError()) {
          bad_status.fetch_add(1);
        }
        reads_done.fetch_add(1, std::memory_order_relaxed);

        if ((reads_done.load(std::memory_order_relaxed) & 15u) == 0) {
          RangePredicate pred(h.index->schema());
          pred.Constrain(0, 0, kHot - 1);
          pred.Constrain(1, 0, kHot - 1);
          std::vector<Record> out;
          Status st = h.index->RangeSearch(pred, &out);
          if (st.ok()) {
            for (const Record& rec : out) {
              if (rec.payload != PayloadFor(rec.key.component(0),
                                            rec.key.component(1))) {
                torn.fetch_add(1);
              }
            }
          } else {
            bad_status.fetch_add(1);
          }
          ranges_done.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::thread writer([&] {
    Rng rng(seed);
    for (int i = 0; i < kWriterOps; ++i) {
      const uint32_t a = static_cast<uint32_t>(rng.Uniform(kHot));
      const uint32_t b = static_cast<uint32_t>(rng.Uniform(kHot));
      const PseudoKey key({a, b});
      if (rng.NextDouble() < 0.65) {
        Status st = h.index->Insert(key, PayloadFor(a, b));
        if (!st.ok() && !st.IsAlreadyExists()) bad_status.fetch_add(1);
      } else {
        Status st = h.index->Delete(key);
        if (!st.ok() && !st.IsKeyError()) bad_status.fetch_add(1);
      }
    }
  });

  std::thread splitter([&] {
    for (uint32_t i = 0; i < kSplitterOps; ++i) {
      const uint32_t a = kSplitBase + i;
      const uint32_t b = kSplitBase ^ (i * 2654435761u) % (1u << 30);
      Status st = h.index->Insert(PseudoKey({a, b}), PayloadFor(a, b));
      if (!st.ok() && !st.IsAlreadyExists()) bad_status.fetch_add(1);
    }
  });

  writer.join();
  splitter.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u) << "optimistic reader observed a torn record";
  EXPECT_EQ(bad_status.load(), 0u);
  EXPECT_GT(reads_done.load(), 0u);
  EXPECT_GT(ranges_done.load(), 0u);
  EXPECT_TRUE(h.index->Validate().ok());

  const auto snap = h.registry.Snapshot();
  // Retries + fallbacks both funnel through the retry counter first, so
  // "the retry machinery engaged" is observable from one counter.  The
  // commit hook makes conflicts overwhelmingly likely even single-core;
  // the deterministic test below guarantees one regardless.
  EXPECT_GT(snap.counter("index_searches_total"), 0u);
  EXPECT_GT(snap.counter("index_ranges_total"), 0u);
}

// The two owners of an OptimisticReadPlane behind one interface, so the
// deterministic conflict below runs against each: the tree-level
// ConcurrentIndex and the durable BmehStore over in-memory pages.
enum class PlaneOwner { kIndex, kStore };

struct OwnerHarness {
  explicit OwnerHarness(PlaneOwner owner) {
    if (owner == PlaneOwner::kIndex) {
      Harness* h = &index_harness.emplace();
      tree = h->tree;
      registry = &h->registry;
      return;
    }
    registry = &store_registry;
    StoreOptions opts;
    opts.metrics = registry;
    auto opened = BmehStore::Open(std::make_unique<InMemoryPageStore>(), opts);
    BMEH_CHECK(opened.ok());
    store = std::move(opened).ValueOrDie();
    tree = store->mutable_tree();
  }

  std::string prefix() const { return store != nullptr ? "store_" : "index_"; }
  Status Insert(const PseudoKey& key, uint64_t payload) {
    return store != nullptr ? store->Put(key, payload)
                            : index_harness->index->Insert(key, payload);
  }
  Status Range(std::vector<Record>* out) {
    const RangePredicate all(KeySchema(2, 31));
    return store != nullptr ? store->Range(all, out)
                            : index_harness->index->RangeSearch(all, out);
  }

  std::optional<Harness> index_harness;
  obs::MetricsRegistry store_registry;
  std::unique_ptr<BmehStore> store;
  obs::MetricsRegistry* registry = nullptr;
  BmehTree* tree = nullptr;
};

class OlcReadPlaneTest : public ::testing::TestWithParam<PlaneOwner> {};

TEST_P(OlcReadPlaneTest, RetryCounterAdvancesOnGuaranteedConflict) {
  // Deterministic conflict: the commit hook parks the writer mid-commit
  // (publication seq odd) until a reader has charged every retry.  A
  // seqlock-validated range read in that window MUST conflict.
  ScopedNoSleep no_sleep;
  OwnerHarness h(GetParam());
  ASSERT_NE(h.tree, nullptr);
  ASSERT_TRUE(h.Insert(PseudoKey({1u, 1u}), PayloadFor(1, 1)).ok());

  const std::string prefix = h.prefix();
  const auto want = static_cast<uint64_t>(OptimisticReadPlane::kReadAttempts);
  obs::Counter* retries =
      h.registry->GetCounter(prefix + "read_retries_total");
  std::atomic<bool> in_commit{false};
  h.tree->SetCommitHookForTesting([&] {
    in_commit.store(true, std::memory_order_release);
    // Park until the reader has burned every optimistic attempt (each
    // one conflicts while we hold the seq odd), which forces it onto the
    // shared-lock fallback.  Bounded: the reader needs no lock we hold.
    while (retries->value() < want) std::this_thread::yield();
  });

  std::thread reader([&] {
    while (!in_commit.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    std::vector<Record> out;
    // Conflicts through every optimistic attempt (writer is parked until
    // we charge them all), then falls back to the shared lock, which waits
    // for the writer to finish — and still returns a coherent answer.
    ASSERT_TRUE(h.Range(&out).ok());
    ASSERT_EQ(out.size(), 2u);
  });

  ASSERT_TRUE(h.Insert(PseudoKey({2u, 2u}), PayloadFor(2, 2)).ok());
  reader.join();
  h.tree->SetCommitHookForTesting(nullptr);

  const auto snap = h.registry->Snapshot();
  EXPECT_GE(snap.counter(prefix + "read_retries_total"), want);
  EXPECT_GE(snap.counter(prefix + "read_fallbacks_total"), 1u);
  // The fallback path (not a late success) served the read, so the
  // retried-success histogram may be empty; it must exist either way.
  ASSERT_NE(snap.histogram("range_retried_latency_ns"), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Owners, OlcReadPlaneTest,
    ::testing::Values(PlaneOwner::kIndex, PlaneOwner::kStore),
    [](const ::testing::TestParamInfo<PlaneOwner>& info) {
      return info.param == PlaneOwner::kIndex ? "ConcurrentIndex"
                                              : "BmehStore";
    });

// Set once the parked commit below has returned; the sleep hook holds a
// conflicted reader's retry until then, so its next optimistic attempt
// runs against a quiescent tree and succeeds.
std::atomic<bool> g_commit_returned{false};

// Which path serves the Range that collides with a commit.
enum class RangePath { kRetriedOptimistic, kLockedFallback };

class StoreRangeAppendTest : public ::testing::TestWithParam<RangePath> {};

TEST_P(StoreRangeAppendTest, CallerPrefixSurvivesAConflictedRange) {
  // BmehStore::Range appends to `out` and, when an optimistic walk
  // conflicts, drops only the rows that walk appended — the contract
  // ShardedStore::Range builds its shard concatenation on.  A commit is
  // parked with the publication seq odd until the reader has charged
  // `want` conflicts: one, after which the reader's next optimistic
  // attempt succeeds, or every attempt, which forces the locked fallback.
  const bool fallback = GetParam() == RangePath::kLockedFallback;
  g_commit_returned.store(false);
  if (fallback) {
    SetSleepHookForTesting([](uint64_t) {});
  } else {
    SetSleepHookForTesting([](uint64_t) {
      while (!g_commit_returned.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  }
  OwnerHarness h(PlaneOwner::kStore);
  ASSERT_TRUE(h.Insert(PseudoKey({1u, 1u}), PayloadFor(1, 1)).ok());

  const uint64_t want =
      fallback ? static_cast<uint64_t>(OptimisticReadPlane::kReadAttempts)
               : 1;
  obs::Counter* retries = h.registry->GetCounter("store_read_retries_total");
  std::atomic<bool> in_commit{false};
  h.tree->SetCommitHookForTesting([&] {
    in_commit.store(true, std::memory_order_release);
    while (retries->value() < want) std::this_thread::yield();
  });

  // Rows already in the caller's vector, for keys the store does not hold.
  const std::vector<Record> prefix = {{PseudoKey({7u, 7u}), 77},
                                      {PseudoKey({8u, 8u}), 88}};
  std::vector<Record> out = prefix;
  std::thread reader([&] {
    while (!in_commit.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(h.Range(&out).ok());
  });
  ASSERT_TRUE(h.Insert(PseudoKey({2u, 2u}), PayloadFor(2, 2)).ok());
  g_commit_returned.store(true, std::memory_order_release);
  reader.join();
  h.tree->SetCommitHookForTesting(nullptr);
  SetSleepHookForTesting(nullptr);

  ASSERT_EQ(out.size(), prefix.size() + 2);
  for (size_t i = 0; i < prefix.size(); ++i) {
    EXPECT_EQ(out[i].key, prefix[i].key);
    EXPECT_EQ(out[i].payload, prefix[i].payload);
  }
  std::vector<Record> added(out.begin() + prefix.size(), out.end());
  std::sort(added.begin(), added.end(),
            [](const Record& a, const Record& b) { return a.key < b.key; });
  EXPECT_EQ(added[0].key, PseudoKey({1u, 1u}));
  EXPECT_EQ(added[1].key, PseudoKey({2u, 2u}));

  const auto snap = h.registry->Snapshot();
  EXPECT_GE(snap.counter("store_read_retries_total"), want);
  if (fallback) {
    EXPECT_GE(snap.counter("store_read_fallbacks_total"), 1u);
  } else {
    EXPECT_EQ(snap.counter("store_read_fallbacks_total"), 0u)
        << "the retried optimistic attempt, not the fallback, must serve";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, StoreRangeAppendTest,
    ::testing::Values(RangePath::kRetriedOptimistic,
                      RangePath::kLockedFallback),
    [](const ::testing::TestParamInfo<RangePath>& info) {
      return info.param == RangePath::kLockedFallback ? "LockedFallback"
                                                      : "RetriedOptimistic";
    });

TEST(OlcReadStressTest, MidPublishPageSplitConflictsInsteadOfKeyError) {
  // Linearizability regression.  SplitPageGroup used to reuse the old
  // page id for the LEFT half.  Pages publish before nodes, so in the
  // mid-publish window a reader could pair the stale pre-split node
  // (routing the whole region to the old id) with the already-republished
  // page (now holding only the left half): both version validations pass,
  // and a present key that moved to the right half came back as a
  // definitive KeyError.  Both halves now take fresh ids and the old id
  // is tombstoned, so the stale pairing hits a null slot and surfaces as
  // a conflict (retry) instead of a wrong answer.
  Harness h(/*page_capacity=*/2);
  ASSERT_NE(h.tree, nullptr);

  const uint32_t kHighBit = 1u << 30;  // MSB of a width-31 component.
  const PseudoKey low({0u, 0u});
  const PseudoKey high({kHighBit, 0u});
  ASSERT_TRUE(h.index->Insert(low, PayloadFor(0, 0)).ok());
  ASSERT_TRUE(h.index->Insert(high, PayloadFor(kHighBit, 0)).ok());

  // The third insert overflows the capacity-2 page and splits it.  The
  // hook runs on the writer thread inside the exact hazard window: page
  // slots published, node slots still pre-split.
  std::atomic<int> windows{0};
  h.tree->SetMidPublishHookForTesting([&] {
    windows.fetch_add(1, std::memory_order_relaxed);
    for (const PseudoKey* key : {&low, &high}) {
      epoch::Guard g(epoch::EpochManager::Global());
      ASSERT_TRUE(g.pinned());
      bool conflict = false;
      auto got = h.tree->SearchOptimistic(*key, &conflict);
      // A present key may conflict mid-publish but must never read as a
      // clean miss.
      EXPECT_TRUE(conflict || got.ok())
          << "spurious KeyError for present key mid-publish: "
          << key->ToString();
      if (got.ok()) {
        EXPECT_EQ(*got, PayloadFor(key->component(0), key->component(1)));
      }
    }
  });
  ASSERT_TRUE(h.index->Insert(PseudoKey({1u, 1u}), PayloadFor(1, 1)).ok());
  h.tree->SetMidPublishHookForTesting(nullptr);
  ASSERT_GE(windows.load(), 1) << "split commit never hit the hook window";

  // Post-commit, everything is found through the public read path.
  for (const auto& [a, b] : std::vector<std::pair<uint32_t, uint32_t>>{
           {0u, 0u}, {kHighBit, 0u}, {1u, 1u}}) {
    auto got = h.index->Search(PseudoKey({a, b}));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, PayloadFor(a, b));
  }
}

TEST(OlcReadStressTest, MetricsSnapshotRacesLockFreeReadersAndWriter) {
  // Regression for the stat-sampling race: the registry source used to
  // read tree shape through writer-view accessors, racing the writer's
  // copy-on-write scope.  It now samples the published structure under
  // an epoch guard with version validation; TSan enforces that here.
  ScopedNoSleep no_sleep;
  Harness h;
  ASSERT_NE(h.tree, nullptr);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad_gauge{0};

  std::thread sampler([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto snap = h.registry.Snapshot();
      // Shape gauges must always be internally coherent — a torn sample
      // shows up as e.g. nodes without entries.
      if (snap.gauge("index_directory_nodes") < 1) bad_gauge.fetch_add(1);
      if (snap.gauge("index_records") < 0) bad_gauge.fetch_add(1);
    }
  });

  std::thread reader([&] {
    Rng rng(StressSeed() + 7);
    while (!stop.load(std::memory_order_acquire)) {
      const uint32_t a = static_cast<uint32_t>(rng.Uniform(128));
      (void)h.index->Search(PseudoKey({a, a}));
    }
  });

  Rng rng(StressSeed());
  for (int i = 0; i < 1500; ++i) {
    const uint32_t a = static_cast<uint32_t>(rng.Uniform(128));
    const uint32_t b = static_cast<uint32_t>(rng.Uniform(128));
    if (rng.NextDouble() < 0.7) {
      (void)h.index->Insert(PseudoKey({a, b}), PayloadFor(a, b));
    } else {
      (void)h.index->Delete(PseudoKey({a, b}));
    }
  }
  stop.store(true, std::memory_order_release);
  sampler.join();
  reader.join();

  EXPECT_EQ(bad_gauge.load(), 0u);
  const auto final_snap = h.registry.Snapshot();
  EXPECT_EQ(final_snap.gauge("index_records"),
            static_cast<int64_t>(h.index->Stats().records));
}

}  // namespace
}  // namespace bmeh
