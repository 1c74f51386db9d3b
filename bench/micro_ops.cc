// Google-benchmark microbenchmarks: CPU cost of the mapping functions and
// of the three schemes' core operations (logical-I/O counts are covered by
// the table benches; these measure wall-clock throughput of the in-memory
// implementation).
//
// The instrumented variants run through a ConcurrentIndex with a
// MetricsRegistry attached, so the run doubles as an overhead check for
// the observability layer; the custom main() below writes the registry as
// BENCH_micro_ops.json after a full run (not after --benchmark_list_tests
// or a --benchmark_filter run).  Set BMEH_BENCH_SMOKE=1 for the fast CI
// mode.

#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string_view>
#include <thread>

#include "bench/bench_common.h"
#include "src/common/random.h"
#include "src/core/bmeh_tree.h"
#include "src/exhash/extendible_hash.h"
#include "src/extarray/theorem1.h"
#include "src/metrics/experiment.h"
#include "src/obs/metrics.h"
#include "src/obs/obs_server.h"
#include "src/pagestore/page_store.h"
#include "src/store/bmeh_store.h"
#include "src/store/concurrent_index.h"
#include "src/store/sharded_store.h"

namespace bmeh {

/// One registry shared by the instrumented benchmarks; main() exports it.
obs::MetricsRegistry* BenchRegistry() {
  static obs::MetricsRegistry registry;
  return &registry;
}

namespace {

void BM_Theorem1Map(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<uint32_t> idx(d);
  for (auto _ : state) {
    for (int j = 0; j < d; ++j) {
      idx[j] = static_cast<uint32_t>(rng.Uniform(1u << 16));
    }
    benchmark::DoNotOptimize(
        extarray::Theorem1Map(std::span<const uint32_t>(idx.data(), d)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Theorem1Map)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_GrowthHistoryMap(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  extarray::GrowthHistory hist(d);
  // Non-cyclic schedule of 16 events.
  Rng seed_rng(2);
  for (int e = 0; e < 16; ++e) {
    hist.Double(static_cast<int>(seed_rng.Uniform(d)));
  }
  Rng rng(3);
  std::vector<uint32_t> idx(d);
  for (auto _ : state) {
    for (int j = 0; j < d; ++j) {
      idx[j] = static_cast<uint32_t>(
          rng.Uniform(uint64_t{1} << hist.depth(j)));
    }
    benchmark::DoNotOptimize(
        hist.Map(std::span<const uint32_t>(idx.data(), d)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GrowthHistoryMap)->Arg(2)->Arg(4);

std::vector<PseudoKey> BenchKeys(uint64_t n, int dims = 2) {
  workload::WorkloadSpec spec;
  spec.dims = dims;
  spec.seed = 42;
  return workload::GenerateKeys(spec, n);
}

void BM_Build(benchmark::State& state, metrics::Method method) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const auto keys = BenchKeys(n);
  KeySchema schema(2, 31);
  for (auto _ : state) {
    auto index = metrics::MakeIndex(method, schema, /*page_capacity=*/16);
    for (uint64_t i = 0; i < n; ++i) {
      BMEH_CHECK_OK(index->Insert(keys[i], i));
    }
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_Build, MDEH, metrics::Method::kMdeh)->Arg(10000);
BENCHMARK_CAPTURE(BM_Build, MEHTree, metrics::Method::kMehTree)->Arg(10000);
BENCHMARK_CAPTURE(BM_Build, BMEHTree, metrics::Method::kBmehTree)
    ->Arg(10000);

void BM_Search(benchmark::State& state, metrics::Method method) {
  const uint64_t n = 40000;
  static const auto keys = BenchKeys(n);
  KeySchema schema(2, 31);
  auto index = metrics::MakeIndex(method, schema, /*page_capacity=*/16);
  for (uint64_t i = 0; i < n; ++i) {
    BMEH_CHECK_OK(index->Insert(keys[i], i));
  }
  Rng rng(4);
  for (auto _ : state) {
    const PseudoKey& key = keys[rng.Uniform(n)];
    benchmark::DoNotOptimize(index->Search(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_Search, MDEH, metrics::Method::kMdeh);
BENCHMARK_CAPTURE(BM_Search, MEHTree, metrics::Method::kMehTree);
BENCHMARK_CAPTURE(BM_Search, BMEHTree, metrics::Method::kBmehTree);

void BM_BmehRangeQuery(benchmark::State& state) {
  const uint64_t n = 40000;
  const double side = state.range(0) / 1000.0;
  static const auto keys = BenchKeys(n);
  KeySchema schema(2, 31);
  BmehTree tree(schema, TreeOptions::Make(2, 16));
  for (uint64_t i = 0; i < n; ++i) {
    BMEH_CHECK_OK(tree.Insert(keys[i], i));
  }
  const uint64_t domain = uint64_t{1} << 31;
  const uint32_t extent = static_cast<uint32_t>(side * domain);
  Rng rng(5);
  uint64_t results = 0;
  for (auto _ : state) {
    RangePredicate pred(schema);
    for (int j = 0; j < 2; ++j) {
      uint32_t lo = static_cast<uint32_t>(rng.Uniform(domain - extent));
      pred.Constrain(j, lo, lo + extent);
    }
    std::vector<Record> out;
    BMEH_CHECK_OK(tree.RangeSearch(pred, &out));
    results += out.size();
  }
  state.SetItemsProcessed(results);
}
BENCHMARK(BM_BmehRangeQuery)->Arg(5)->Arg(20)->Arg(100);

void BM_BmehBulkLoad(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const auto keys = BenchKeys(n);
  std::vector<Record> records;
  for (uint64_t i = 0; i < n; ++i) records.push_back({keys[i], i});
  KeySchema schema(2, 31);
  for (auto _ : state) {
    BmehTree tree(schema, TreeOptions::Make(2, 16));
    BMEH_CHECK_OK(tree.BulkLoad(records));
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BmehBulkLoad)->Arg(10000);

void BM_BmehDelete(benchmark::State& state) {
  const uint64_t n = 20000;
  static const auto keys = BenchKeys(n);
  KeySchema schema(2, 31);
  uint64_t ops = 0;
  for (auto _ : state) {
    state.PauseTiming();
    BmehTree tree(schema, TreeOptions::Make(2, 16));
    for (uint64_t i = 0; i < n; ++i) {
      BMEH_CHECK_OK(tree.Insert(keys[i], i));
    }
    state.ResumeTiming();
    for (uint64_t i = 0; i < n; ++i) {
      BMEH_CHECK_OK(tree.Delete(keys[i]));
    }
    ops += n;
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK(BM_BmehDelete)->Unit(benchmark::kMillisecond);

/// A fresh BmehStore over an in-memory page store with optimistic reads
/// on (the default), so every write runs in a copy-on-write scope and
/// pays the WAL append and page checksums too.  BM_BmehDelete runs a bare
/// tree outside any scope and never sees the copying.
std::unique_ptr<BmehStore> MakeBenchStore() {
  StoreOptions options;
  options.schema = KeySchema(2, 31);
  options.tree = TreeOptions::Make(2, 16);
  BMEH_CHECK(options.optimistic_reads);
  return BmehStore::Open(std::make_unique<InMemoryPageStore>(), options)
      .ValueOrDie();
}

void BM_StorePut(benchmark::State& state) {
  const uint64_t n = 20000;
  static const auto keys = BenchKeys(n);
  uint64_t ops = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto store = MakeBenchStore();
    state.ResumeTiming();
    for (uint64_t i = 0; i < n; ++i) {
      BMEH_CHECK_OK(store->Put(keys[i], i));
    }
    ops += n;
    state.PauseTiming();
    store.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK(BM_StorePut)->Unit(benchmark::kMillisecond);

void BM_StoreDelete(benchmark::State& state) {
  const uint64_t n = 20000;
  static const auto keys = BenchKeys(n);
  uint64_t ops = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto store = MakeBenchStore();
    for (uint64_t i = 0; i < n; ++i) {
      BMEH_CHECK_OK(store->Put(keys[i], i));
    }
    state.ResumeTiming();
    for (uint64_t i = 0; i < n; ++i) {
      BMEH_CHECK_OK(store->Delete(keys[i]));
    }
    ops += n;
    state.PauseTiming();
    store.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK(BM_StoreDelete)->Unit(benchmark::kMillisecond);

/// Exact-match search through the locked, metrics-charging facade: the
/// delta against BM_Search/BMEHTree is the combined shared_mutex +
/// counter + histogram overhead per operation.
void BM_InstrumentedSearch(benchmark::State& state) {
  const uint64_t n = 40000;
  static const auto keys = BenchKeys(n);
  KeySchema schema(2, 31);
  auto tree = std::make_unique<BmehTree>(schema, TreeOptions::Make(2, 16));
  for (uint64_t i = 0; i < n; ++i) {
    BMEH_CHECK_OK(tree->Insert(keys[i], i));
  }
  ConcurrentIndex index(std::move(tree), BenchRegistry());
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Search(keys[rng.Uniform(n)]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InstrumentedSearch);

/// Build through the instrumented facade: charges insert_latency_ns and
/// the index_inserts_total counter for every insertion.
void BM_InstrumentedInsert(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const auto keys = BenchKeys(n);
  KeySchema schema(2, 31);
  for (auto _ : state) {
    ConcurrentIndex index(
        std::make_unique<BmehTree>(schema, TreeOptions::Make(2, 16)),
        BenchRegistry());
    for (uint64_t i = 0; i < n; ++i) {
      BMEH_CHECK_OK(index.Insert(keys[i], i));
    }
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_InstrumentedInsert)->Arg(10000);

/// A 4-shard ShardedStore over in-memory page stores, loaded with
/// normally distributed keys (the paper's truncated normal, σ = 1/16 of
/// the domain), plus query boxes that each match 100–1,000 rows.  Shared
/// by the facade benchmarks below, built on first use.
struct ShardedFixture {
  static constexpr uint64_t kRecords = 100000;
  static constexpr int kQueries = 256;

  ShardedFixture() {
    workload::WorkloadSpec spec;
    spec.distribution = workload::Distribution::kNormal;
    spec.seed = 43;
    keys = workload::GenerateKeys(spec, kRecords);
    ShardedStoreOptions options;
    options.store.schema = KeySchema(2, 31);
    options.store.tree = TreeOptions::Make(2, 16);
    options.store.wal_sync_every = 1 << 20;
    std::vector<std::unique_ptr<PageStore>> devices;
    for (int i = 0; i < 4; ++i) {
      devices.push_back(std::make_unique<InMemoryPageStore>());
    }
    store = ShardedStore::Open(std::move(devices), options).ValueOrDie();
    WriteBatch batch;
    for (uint64_t i = 0; i < kRecords; ++i) {
      batch.Put(keys[i], i);
      if (batch.size() == 1000 || i + 1 == kRecords) {
        BMEH_CHECK_OK(store->Write(batch));
        batch = WriteBatch();
      }
    }
    // A square box around a stored key, its side halved or doubled until
    // the match count lands in [100, 1000].
    Rng rng(12);
    std::vector<Record> out;
    while (boxes.size() < kQueries) {
      const PseudoKey& c = keys[rng.Uniform(kRecords)];
      uint64_t half = uint64_t{1} << 22;
      for (int step = 0; step < 40; ++step) {
        RangePredicate pred(store->schema());
        for (int j = 0; j < 2; ++j) {
          const uint64_t lo = c.component(j) > half ? c.component(j) - half : 0;
          const uint64_t hi = std::min<uint64_t>(c.component(j) + half,
                                                 (uint64_t{1} << 31) - 1);
          pred.Constrain(j, static_cast<uint32_t>(lo),
                         static_cast<uint32_t>(hi));
        }
        BMEH_CHECK_OK(store->Range(pred, &out));
        if (out.size() < 100) {
          half *= 2;
        } else if (out.size() > 1000) {
          half /= 2;
        } else {
          boxes.push_back(pred);
          break;
        }
      }
    }
  }

  static ShardedFixture& Get() {
    static ShardedFixture fixture;
    return fixture;
  }

  std::vector<PseudoKey> keys;
  std::unique_ptr<ShardedStore> store;
  std::vector<RangePredicate> boxes;
};

/// Point Get through the sharded facade: validation, ψ-prefix routing,
/// the retry wrapper, and the owning shard's optimistic read.
void BM_ShardedGet(benchmark::State& state) {
  ShardedFixture& f = ShardedFixture::Get();
  Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.store->Get(f.keys[rng.Uniform(ShardedFixture::kRecords)]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShardedGet);

/// Range over a 100–1,000-row box through the sharded facade: every
/// shard's walk plus putting the rows in global ψ order.
void BM_ShardedRange(benchmark::State& state) {
  ShardedFixture& f = ShardedFixture::Get();
  std::vector<Record> out;
  uint64_t rows = 0;
  size_t q = 0;
  for (auto _ : state) {
    BMEH_CHECK_OK(f.store->Range(f.boxes[q], &out));
    benchmark::DoNotOptimize(out.data());
    rows += out.size();
    q = (q + 1) % f.boxes.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["rows_per_range"] = benchmark::Counter(
      static_cast<double>(rows) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ShardedRange);

void BM_ExtendibleHash1D(benchmark::State& state) {
  ExtendibleHashOptions opts;
  opts.page_capacity = 16;
  Rng key_rng(6);
  std::vector<uint32_t> keys;
  for (int i = 0; i < 40000; ++i) {
    keys.push_back(static_cast<uint32_t>(key_rng.Uniform(1u << 31)));
  }
  ExtendibleHash eh(opts);
  for (uint32_t key : keys) {
    Status st = eh.Insert(key, 0);
    BMEH_CHECK(st.ok() || st.IsAlreadyExists());
  }
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eh.Search(keys[rng.Uniform(keys.size())]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExtendibleHash1D);

}  // namespace

/// One blocking GET /metrics against the local server, response drained
/// and discarded — what a Prometheus scraper costs the store per pull.
static bool ScrapeOnce(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  bool ok =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  if (ok) {
    const char kReq[] =
        "GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n";
    ok = ::send(fd, kReq, sizeof(kReq) - 1, 0) ==
         static_cast<ssize_t>(sizeof(kReq) - 1);
    char buf[4096];
    while (ok) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
    }
  }
  ::close(fd);
  return ok;
}

/// Timed search loop through the instrumented facade; returns ops/sec.
static double TimedOpsPerSec(ConcurrentIndex* index,
                             const std::vector<PseudoKey>& keys,
                             int duration_ms) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const auto end = start + std::chrono::milliseconds(duration_ms);
  Rng rng(11);
  uint64_t ops = 0;
  while (Clock::now() < end) {
    for (int i = 0; i < 256; ++i) {
      benchmark::DoNotOptimize(index->Search(keys[rng.Uniform(keys.size())]));
    }
    ops += 256;
  }
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(ops) / secs;
}

/// Measures the exposition server's cost to the op path: the same
/// metrics-charging search loop with no server vs with a live /metrics
/// scraper pulling at 1 Hz.  Publishes the three gauges the acceptance
/// bar reads (obs_server_overhead_pct <= 5) into the bench registry.
void MeasureObsServerOverhead() {
  const int duration_ms = bench::SmokeMode() ? 1200 : 3000;
  const uint64_t n = 40000;
  const auto keys = BenchKeys(n);
  KeySchema schema(2, 31);
  auto tree = std::make_unique<BmehTree>(schema, TreeOptions::Make(2, 16));
  for (uint64_t i = 0; i < n; ++i) {
    BMEH_CHECK_OK(tree->Insert(keys[i], i));
  }
  ConcurrentIndex index(std::move(tree), BenchRegistry());

  TimedOpsPerSec(&index, keys, 300);  // warm up caches and the allocator
  const double base = TimedOpsPerSec(&index, keys, duration_ms);

  obs::ObsServer::Options options;
  options.metrics = BenchRegistry();
  auto server = obs::ObsServer::Start(options);
  BMEH_CHECK_OK(server.status());
  std::atomic<bool> stop{false};
  uint64_t scrapes = 0;
  std::thread scraper([&] {
    // First pull immediately, then 1 Hz — in 20 ms slices so shutdown
    // does not wait out a full second.
    while (!stop.load(std::memory_order_acquire)) {
      if (ScrapeOnce((*server)->port())) ++scrapes;
      for (int i = 0; i < 50 && !stop.load(std::memory_order_acquire); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
  });
  const double scraped = TimedOpsPerSec(&index, keys, duration_ms);
  stop.store(true, std::memory_order_release);
  scraper.join();
  (*server)->Stop();

  const double overhead_pct =
      base > 0 ? std::max(0.0, (base - scraped) / base * 100.0) : 0.0;
  obs::MetricsRegistry* registry = BenchRegistry();
  registry->GetGauge("obs_noserver_ops_per_sec")
      ->Set(static_cast<int64_t>(base));
  registry->GetGauge("obs_scraped_ops_per_sec")
      ->Set(static_cast<int64_t>(scraped));
  registry->GetGauge("obs_server_overhead_pct")
      ->Set(static_cast<int64_t>(overhead_pct + 0.5));
  registry->GetGauge("obs_scrapes_completed")
      ->Set(static_cast<int64_t>(scrapes));
  std::printf(
      "obs_server overhead: %.0f ops/s bare, %.0f ops/s with 1 Hz "
      "scraping (%llu scrapes), overhead %.1f%%\n",
      base, scraped, static_cast<unsigned long long>(scrapes), overhead_pct);
}

/// True unless the command line lists the benchmarks or filters them
/// (google-benchmark treats an empty, "." or "all" filter as every one).
bool FullRun(int argc, char** argv) {
  const std::string filter = benchmark::GetBenchmarkFilter();
  if (!filter.empty() && filter != "." && filter != "all") return false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--benchmark_list_tests") &&
        !arg.ends_with("=false") && !arg.ends_with("=0")) {
      return false;
    }
  }
  return true;
}

}  // namespace bmeh

// Custom main (instead of benchmark_main) so the run can export the
// instrumented benchmarks' registry as a machine-readable artifact.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string min_time = "--benchmark_min_time=0.01";
  if (bmeh::bench::SmokeMode()) args.push_back(min_time.data());
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Only a full run measures the server overhead and rewrites the JSON: a
  // listing or a filtered run would overwrite it with partial numbers.
  if (!bmeh::FullRun(argc, argv)) return 0;
  bmeh::MeasureObsServerOverhead();
  bmeh::bench::WriteBenchJson(
      bmeh::bench::BenchOutPath("BENCH_micro_ops.json"),
      *bmeh::BenchRegistry());
  return 0;
}
