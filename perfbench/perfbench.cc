// Store benchmark program: runs one workload (point_large, write_durable or
// range_mixed) against file-backed stores and prints its raw measurements
// as one JSON object on stdout.  run.py builds this program, derives the
// reported metrics with analysis.py and checks them; see WORKLOADS.md for
// why each workload exists and which layers it exercises or bypasses.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --dir STORE_DIR [--trace-out FILE_PREFIX]
//
// Untraced runs (--trace 0) measure the end-to-end numbers.  Traced runs
// (--trace 1) set up once, measure the per-layer numbers, and write the
// spans of a single-threaded replay as a Chrome trace-event file.

#include <fcntl.h>
#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.h"
#include "src/common/epoch.h"
#include "src/obs/metrics.h"
#include "src/store/bmeh_store.h"
#include "src/store/sharded_store.h"
#include "src/workload/distributions.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using bmeh::BmehStore;
using bmeh::FilePageStore;
using bmeh::KeySchema;
using bmeh::Record;
using bmeh::ShardedStore;
using bmeh::ShardedStoreOptions;
using bmeh::StoreOptions;
using bmeh::TreeOptions;
using bmeh::WriteBatch;

constexpr int kLoadThreads = 4;
// Durable single-record writers (each op waits for its own flush).  Group
// commit with four writers was left out: its rate followed the host's
// thread wake-up delays, up to 1.6x between runs (WORKLOADS.md).
constexpr int kDurableWriters = 1;
constexpr int kSetupRuns = 3;
// Recoveries per block: at least one, more while the block's share of
// kRecoveryBudgetS lasts (copies included), at most kMaxRecoveries.
constexpr int kMaxRecoveries = 8;
constexpr double kRecoveryBudgetS = 3.0;
constexpr size_t kBatch = 256;
constexpr int kPageCapacity = 32;
// A user record is a 2 x 32-bit key plus a 64-bit payload.
constexpr double kUserRecordBytes = 16.0;

// Workload sizes (see WORKLOADS.md).
constexpr uint64_t kPointRecords = 1000000;
constexpr uint64_t kDurableIngest = 300000;
constexpr uint64_t kDurableCheckpointEvery = 10000;
constexpr uint64_t kRangeRecords = 200000;
constexpr uint64_t kRangeWriterKeys = 200000;
constexpr int kShards = 4;
constexpr uint64_t kQueryMinRows = 100;
constexpr uint64_t kQueryMaxRows = 1000;

// Fixed-count probes and replays.
constexpr uint64_t kProbeQueries = 2000;
constexpr uint64_t kReplayGets = 4000;
constexpr uint64_t kReplayPuts = 1000;
constexpr uint64_t kReplayRanges = 500;
// Acknowledged writes left in the WAL when the crash copy is taken, so
// every recovery replays the same amount; their keys are fresh keys from
// kTailKeyBase on (below it: the replay's).
constexpr uint64_t kWalTail = 2000;
constexpr uint64_t kTailKeyBase = 60000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string trace_out;
};

// ---------------------------------------------------------------------------
// Generic helpers.

using LoopBody =
    std::function<void(int thread, const std::atomic<bool>& stop, uint64_t start_ns)>;

/// Runs `body` on `n` threads that start together at `start_ns`; returns
/// the seconds between the start signal and the stop signal.
double RunClosedLoop(int n, double seconds, const LoopBody& body) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  uint64_t start = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(t, stop, start);
    });
  }
  start = NowNs();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_release);
  const double elapsed = SecondsSince(start);
  for (auto& th : threads) th.join();
  return elapsed;
}

/// Phase progress on stderr, in seconds since the program started.
void Progress(const std::string& what) {
  static const uint64_t start = NowNs();
  std::fprintf(stderr, "perfbench: %7.2f s  %s\n", SecondsSince(start),
               what.c_str());
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string FilesystemOf(const std::string& dir) {
  struct statfs sf;
  if (statfs(dir.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    uint64_t total = 0;
    for (const auto& e : fs::directory_iterator(path)) {
      if (e.is_regular_file()) total += e.file_size();
    }
    return total;
  }
  return fs::file_size(path);
}

/// Byte copy of `from` (a file, or a directory of files) to `to`, flushed
/// so that no later fsync pays for writing it back.  Copying a live store
/// file yields what a crash leaves: every completed write, fsynced or not.
void CopySynced(const std::string& from, const std::string& to) {
  if (fs::is_directory(from)) {
    fs::create_directories(to);
    for (const auto& e : fs::directory_iterator(from)) {
      CopySynced(e.path().string(), to + "/" + e.path().filename().string());
    }
    return;
  }
  const int in = ::open(from.c_str(), O_RDONLY);
  const int out = ::open(to.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  BMEH_CHECK(in >= 0 && out >= 0) << "cannot copy " << from << " to " << to;
  std::vector<char> buf(1 << 20);
  for (;;) {
    const ssize_t n = ::read(in, buf.data(), buf.size());
    BMEH_CHECK(n >= 0) << "cannot read " << from;
    if (n == 0) break;
    for (ssize_t done = 0; done < n;) {
      const ssize_t w = ::write(out, buf.data() + done, n - done);
      BMEH_CHECK(w > 0) << "cannot write " << to;
      done += w;
    }
  }
  BMEH_CHECK(::fsync(out) == 0) << "cannot fsync " << to;
  ::close(in);
  ::close(out);
}

void CheckOk(Report* rep, const Status& st, const char* what) {
  if (!st.ok()) {
    rep->Fail(std::string(what) + ": " + st.ToString());
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 st.ToString().c_str());
    std::exit(3);
  }
}

template <typename T>
std::unique_ptr<T> OpenOrDie(Report* rep, bmeh::Result<std::unique_ptr<T>> r,
                             const char* what) {
  CheckOk(rep, r.status(), what);
  return std::move(r).ValueOrDie();
}

/// Checks one Get answer: present keys must return their payload, absent
/// keys KeyError; anything else (including ResourceExhausted or
/// Unavailable) is a failure.
void CheckGet(Report* rep, const bmeh::Result<uint64_t>& r,
              const PseudoKey& key, bool expect_present) {
  if (expect_present) {
    if (!r.ok()) {
      rep->Fail("get " + key.ToString() + ": " + r.status().ToString());
    } else if (!PayloadMatches(key, r.ValueOrDie())) {
      rep->Fail("get " + key.ToString() + ": wrong payload");
    }
  } else if (r.ok() || !r.status().IsKeyError()) {
    rep->Fail("get absent " + key.ToString() + ": " +
              (r.ok() ? std::string("found") : r.status().ToString()));
  }
}

/// Checks one Range answer: every row inside the predicate with its
/// payload, and exactly `expected_preloaded` rows with origin 0 (rows the
/// run wrote itself carry origin 1 and are not counted).
void CheckRange(Report* rep, const Status& st, const RangePredicate& pred,
                const std::vector<Record>& rows, uint64_t expected_preloaded) {
  if (!st.ok()) {
    rep->Fail("range " + pred.ToString() + ": " + st.ToString());
    return;
  }
  uint64_t preloaded = 0;
  for (const Record& r : rows) {
    if (!pred.Matches(r.key) || !PayloadMatches(r.key, r.payload)) {
      rep->Fail("range " + pred.ToString() + ": bad row " + r.key.ToString());
      return;
    }
    preloaded += (r.payload & 1) == 0;
  }
  if (preloaded != expected_preloaded) {
    rep->Fail("range " + pred.ToString() + ": " + std::to_string(preloaded) +
              " preloaded rows, expected " + std::to_string(expected_preloaded));
  }
}

// ---------------------------------------------------------------------------
// Stores under test, opened over timing page-store decorators.

template <typename S>
struct Opened {
  std::unique_ptr<S> store;
  std::vector<TimingPageStore*> devices;

  TimingPageStore::Counts counts() const {
    TimingPageStore::Counts c;
    for (auto* d : devices) {
      const auto x = d->counts();
      c.reads += x.reads;
      c.writes += x.writes;
      c.bytes_written += x.bytes_written;
      c.syncs += x.syncs;
    }
    return c;
  }
  LatencyHist TakeSyncHist() {
    LatencyHist h;
    for (auto* d : devices) h.Merge(d->TakeSyncHist());
    return h;
  }
};

std::unique_ptr<TimingPageStore> CreateDevice(Report* rep,
                                              const std::string& path,
                                              int page_size) {
  auto file = OpenOrDie(rep, FilePageStore::Create(path, page_size),
                        "create store file");
  file->DisableFsyncForTesting();  // the decorator models the flush
  return std::make_unique<TimingPageStore>(std::move(file));
}

Opened<BmehStore> Create(Report* rep, const std::string& path,
                         const StoreOptions& opts) {
  Opened<BmehStore> o;
  auto dev = CreateDevice(rep, path, opts.page_size);
  o.devices.push_back(dev.get());
  o.store = OpenOrDie(rep, BmehStore::Open(std::move(dev), opts), "open store");
  return o;
}

Opened<ShardedStore> Create(Report* rep, const std::string& dir,
                            const ShardedStoreOptions& opts) {
  fs::create_directories(dir);
  Opened<ShardedStore> o;
  std::vector<std::unique_ptr<bmeh::PageStore>> devs;
  for (int i = 0; i < opts.shards; ++i) {
    auto dev = CreateDevice(rep, ShardedStore::ShardPath(dir, i),
                            opts.store.page_size);
    o.devices.push_back(dev.get());
    devs.push_back(std::move(dev));
  }
  o.store = OpenOrDie(rep, ShardedStore::Open(std::move(devs), opts),
                      "open sharded store");
  return o;
}

// Uniform access to the trees behind either store type.
std::vector<bmeh::BmehTree*> Trees(BmehStore* s) { return {s->mutable_tree()}; }
std::vector<bmeh::BmehTree*> Trees(ShardedStore* s) {
  std::vector<bmeh::BmehTree*> out;
  for (int i = 0; i < s->shards(); ++i) out.push_back(s->shard(i)->mutable_tree());
  return out;
}
bmeh::BmehTree* TreeFor(BmehStore* s, const PseudoKey&) {
  return s->mutable_tree();
}
bmeh::BmehTree* TreeFor(ShardedStore* s, const PseudoKey& k) {
  return s->shard(s->ShardOf(k))->mutable_tree();
}
uint64_t RecordCount(BmehStore* s) { return s->tree().Stats().records; }
uint64_t RecordCount(ShardedStore* s) { return s->records(); }

template <typename S>
Status ValidateTrees(S* s) {
  for (auto* t : Trees(s)) {
    Status st = t->Validate();
    if (!st.ok()) return st;
  }
  return Status::OK();
}

/// Loads `n` records through Write(WriteBatch) of kBatch, one fsync each.
template <typename S>
void Ingest(Report* rep, S* store, uint64_t n,
            const std::function<PseudoKey(uint64_t)>& key_of) {
  for (uint64_t i = 0; i < n; i += kBatch) {
    WriteBatch batch;
    for (uint64_t j = i; j < std::min(n, i + kBatch); ++j) {
      const PseudoKey k = key_of(j);
      batch.Put(k, PayloadOf(k, 0));
    }
    rep->Attempted(batch.size());
    const Status st = store->Write(batch);
    if (!st.ok()) rep->Fail("ingest batch: " + st.ToString());
  }
}

/// Setup = create + preload + checkpoint; records its time and the
/// preload's ingest rate.
template <typename S>
Opened<S> SetUp(Report* rep, uint64_t n, const std::function<Opened<S>()>& create,
                const std::function<PseudoKey(uint64_t)>& key_of) {
  const uint64_t start = NowNs();
  Opened<S> o = create();
  const uint64_t ingest_start = NowNs();
  Ingest(rep, o.store.get(), n, key_of);
  const double ingest_s = SecondsSince(ingest_start);
  CheckOk(rep, o.store->Checkpoint(), "setup checkpoint");
  rep->List("setup_s", SecondsSince(start));
  rep->List("ingest_records_per_s", static_cast<double>(n) / ingest_s);
  return o;
}

// ---------------------------------------------------------------------------
// Traced-run instrumentation: registry deltas, epoch deltas, and the
// single-threaded replay at quiescence.

bmeh::obs::HistogramSnapshot Delta(const bmeh::obs::RegistrySnapshot& a,
                                   const bmeh::obs::RegistrySnapshot& b,
                                   const std::string& name) {
  bmeh::obs::HistogramSnapshot d;
  const auto* ha = a.histogram(name);
  const auto* hb = b.histogram(name);
  if (hb == nullptr) return d;
  d = *hb;
  if (ha != nullptr) {
    d.count -= ha->count;
    d.sum -= ha->sum;
    for (int i = 0; i < d.kBuckets; ++i) d.buckets[i] -= ha->buckets[i];
  }
  return d;
}

struct TreeShape {
  uint64_t height = 0, nodes = 0, entries = 0, pages = 0, records = 0;
  uint64_t splits = 0;
};

template <typename S>
TreeShape Shape(S* store) {
  TreeShape t;
  for (auto* tree : Trees(store)) {
    const auto st = tree->Stats();
    t.height = std::max<uint64_t>(t.height, tree->height());
    t.nodes += st.directory_nodes;
    t.entries += st.directory_entries;
    t.pages += st.data_pages;
    t.records += st.records;
    const auto& m = tree->mutation_stats();
    t.splits += m.page_splits + m.node_splits;
  }
  return t;
}

/// One drawn lookup: the caller-side key input, fetched before the op is
/// timed, and whether the key is present.  The op itself encodes it.
struct KeyDraw {
  PseudoKey input;
  bool present = false;
};
using KeySource = std::function<KeyDraw(Rand*)>;
using Encoder = PseudoKey (*)(const PseudoKey&);

template <typename S>
void ReplayGets(Report* rep, S* store, uint64_t seed, const KeySource& next,
                Encoder encode) {
  // Store path: bench.op { encoding.encode, store.get }.
  std::vector<std::pair<PseudoKey, bool>> keys;
  Rand rng(seed);
  for (uint64_t i = 0; i < kReplayGets; ++i) {
    const KeyDraw d = next(&rng);
    bmeh::Result<uint64_t> r = uint64_t{0};
    PseudoKey k;
    {
      OpSpan op;
      k = encode(d.input);
      Span span(d.present ? "store.get" : "store.get.miss");
      r = store->Get(k);
    }
    rep->Attempted(1);
    CheckGet(rep, r, k, d.present);
    keys.emplace_back(k, d.present);
  }
  // Core path on the same keys: bench.op { core.search }, with the tree's
  // logical I/O counter giving λ (hits) and λ' (misses).
  uint64_t hit_reads = 0, hits = 0, miss_reads = 0, misses = 0;
  for (const auto& [key, present] : keys) {
    bmeh::BmehTree* tree = TreeFor(store, key);
    const uint64_t before = tree->io_stats().dir_reads;
    bmeh::Result<uint64_t> r = uint64_t{0};
    {
      OpSpan op;
      Span span(present ? "core.search" : "core.search.miss");
      r = tree->Search(key);
    }
    const uint64_t reads = tree->io_stats().dir_reads - before;
    rep->Attempted(1);
    CheckGet(rep, r, key, present);
    (present ? hit_reads : miss_reads) += reads;
    (present ? hits : misses) += 1;
  }
  rep->Num("core.dir_reads_per_search",
           hits ? static_cast<double>(hit_reads) / hits : 0.0);
  rep->Num("core.dir_reads_per_miss",
           misses ? static_cast<double>(miss_reads) / misses : 0.0);
}

/// Durable put + delete of fresh keys: bench.op { encoding.encode,
/// store.put / store.delete { pagestore.* } }.
template <typename S>
void ReplayPuts(Report* rep, S* store,
                const std::function<PseudoKey(uint64_t)>& fresh) {
  std::vector<PseudoKey> keys;
  for (uint64_t i = 0; i < kReplayPuts; ++i) {
    Status st;
    {
      OpSpan op;
      keys.push_back(fresh(i));
      Span span("store.put");
      st = store->Put(keys.back(), PayloadOf(keys.back(), 1));
    }
    rep->Attempted(1);
    if (!st.ok()) rep->Fail("replay put: " + st.ToString());
  }
  for (const PseudoKey& k : keys) {
    Status st;
    {
      OpSpan op;
      Span span("store.delete");
      st = store->Delete(k);
    }
    rep->Attempted(1);
    if (!st.ok()) rep->Fail("replay delete: " + st.ToString());
  }
}

/// Range replay: bench.op { store.range | sharded.range, store.shard_range
/// per shard } and, separately, bench.op { core.range per tree }.
template <typename S>
void ReplayRanges(Report* rep, S* store,
                  const std::vector<RangeOracle::Query>& queries) {
  constexpr bool kSharded = std::is_same_v<S, ShardedStore>;
  uint64_t nonempty_shards = 0, pages = 0, rows = 0;
  const size_t n = std::min<size_t>(queries.size(), kReplayRanges);
  for (size_t i = 0; i < n; ++i) {
    const RangePredicate pred = ToPredicate(store->schema(), queries[i]);
    std::vector<Record> out;
    Status st;
    {
      OpSpan op;
      {
        Span span(kSharded ? "sharded.range" : "store.range");
        st = store->Range(pred, &out);
      }
      if constexpr (kSharded) {
        for (int s = 0; s < store->shards(); ++s) {
          std::vector<Record> part;
          Status pst;
          {
            Span span("store.shard_range");
            pst = store->shard(s)->Range(pred, &part);
          }
          if (!pst.ok()) rep->Fail("shard range: " + pst.ToString());
          nonempty_shards += !part.empty();
        }
      } else {
        nonempty_shards += 1;
      }
    }
    rep->Attempted(1);
    CheckRange(rep, st, pred, out, queries[i].expected);
    {
      OpSpan op;
      for (auto* tree : Trees(store)) {
        std::vector<Record> part;
        bmeh::hashdir::RangeWalkStats ws;
        Status tst;
        {
          Span span("core.range");
          tst = tree->RangeSearchWithStats(pred, &part, &ws);
        }
        if (!tst.ok()) rep->Fail("core range: " + tst.ToString());
        pages += ws.pages_visited;
        rows += part.size();
      }
    }
  }
  rep->Num("sharded.shards_per_range", static_cast<double>(nonempty_shards) / n);
  rep->Num("core.range_pages_per_query", static_cast<double>(pages) / n);
  rep->Num("core.range_rows_per_page",
           pages ? static_cast<double>(rows) / pages : 0.0);
}

/// Everything a traced run records around its main phase.
template <typename S>
class LayerProbe {
 public:
  LayerProbe(Report* rep, Opened<S>* o, bmeh::obs::MetricsRegistry* reg)
      : rep_(rep), o_(o), reg_(reg) {}

  /// At quiescence after setup.
  void BeforeMain() {
    snap0_ = reg_->Snapshot();
    dev0_ = o_->counts();
    o_->TakeSyncHist();
    shape0_ = Shape(o_->store.get());
    epoch0_ = bmeh::epoch::EpochManager::Global()->Stats();
  }
  /// Right after the main phase's threads joined.
  void AfterMain(uint64_t gets, uint64_t reads_and_ranges) {
    const auto snap1 = reg_->Snapshot();
    const auto dev1 = o_->counts();
    const auto e = bmeh::epoch::EpochManager::Global()->Stats();
    const double retired = static_cast<double>(e.retired_total - epoch0_.retired_total);
    rep_->Num("epoch.retired", retired);
    rep_->Num("epoch.reclaimed_per_retired",
              retired > 0 ? (e.reclaimed_total - epoch0_.reclaimed_total) / retired : 0.0);
    rep_->Num("epoch.deferred_frees", static_cast<double>(e.deferred));
    const double retries = static_cast<double>(
        snap1.counter("store_read_retries_total") -
        snap0_.counter("store_read_retries_total"));
    rep_->Num("store.read_retries_per_1k_reads",
              reads_and_ranges ? 1000.0 * retries / reads_and_ranges : 0.0);
    rep_->Num("store.read_fallbacks",
              static_cast<double>(snap1.counter("store_read_fallbacks_total") -
                                  snap0_.counter("store_read_fallbacks_total")));
    rep_->Num("pagestore.page_reads_per_get",
              gets ? static_cast<double>(dev1.reads - dev0_.reads) / gets : 0.0);
    const TreeShape t = Shape(o_->store.get());
    rep_->Num("core.height", static_cast<double>(t.height));
    rep_->Num("core.dir_nodes", static_cast<double>(t.nodes));
    rep_->Num("core.dir_entries", static_cast<double>(t.entries));
    rep_->Num("core.load_factor",
              t.pages ? static_cast<double>(t.records) / (t.pages * kPageCapacity) : 0.0);
  }
  /// After the replay, at quiescence: write-path numbers over the whole
  /// window since BeforeMain.  `mutations` / `puts` count acknowledged
  /// single-record writes in that window.
  void AfterReplay(double mutations, double puts) {
    const auto snap2 = reg_->Snapshot();
    const auto dev = o_->counts() - dev0_;
    rep_->Hist("pagestore.sync_ns") = o_->TakeSyncHist();
    const TreeShape t = Shape(o_->store.get());
    rep_->Num("core.splits_per_1k_puts",
              puts > 0 ? 1000.0 * (t.splits - shape0_.splits) / puts : 0.0);
    rep_->Num("core.split_us_p99",
              Delta(snap0_, snap2, "split_latency_ns").Percentile(0.99) / 1e3);
    rep_->Num("store.wal_append_us_p50",
              Delta(snap0_, snap2, "wal_append_latency_ns").Percentile(0.5) / 1e3);
    const auto cp = Delta(snap0_, snap2, "checkpoint_latency_ns");
    rep_->Num("store.checkpoint_us_p50", cp.Percentile(0.5) / 1e3);
    rep_->Num("store.checkpoints",
              static_cast<double>(snap2.counter("store_checkpoints_total") -
                                  snap0_.counter("store_checkpoints_total")));
    const double syncs = static_cast<double>(dev.syncs);
    rep_->Num("store.records_per_fsync", syncs > 0 ? mutations / syncs : 0.0);
    rep_->Num("pagestore.syncs_per_1k_writes",
              mutations > 0 ? 1000.0 * syncs / mutations : 0.0);
    rep_->Num("pagestore.write_amplification",
              mutations > 0 ? dev.bytes_written / (kUserRecordBytes * mutations) : 0.0);
    rep_->Num("pagestore.page_writes_per_write",
              mutations > 0 ? dev.writes / mutations : 0.0);
  }

 private:
  Report* rep_;
  Opened<S>* o_;
  bmeh::obs::MetricsRegistry* reg_;
  bmeh::obs::RegistrySnapshot snap0_;
  TimingPageStore::Counts dev0_;
  TreeShape shape0_;
  bmeh::epoch::EpochStats epoch0_;
};

/// Traced runs: writes the replay tracer's spans and records the trace
/// bookkeeping numbers.
void ExportTrace(Report* rep, const Args& args, const bmeh::obs::Tracer& t,
                 const char* suffix) {
  const std::string path = args.trace_out + suffix;
  std::ofstream out(path, std::ios::trunc);
  out << t.ToChromeTraceJson();
  BMEH_CHECK(out.good()) << "cannot write " << path;
  rep->Num(std::string("trace.spans") + suffix, static_cast<double>(t.recorded()));
  rep->Num(std::string("trace.dropped") + suffix, static_cast<double>(t.dropped()));
}

// ---------------------------------------------------------------------------
// The run sequence every workload shares.

/// Counts from one main-phase window.
struct PhaseCounts {
  double elapsed = 0;
  uint64_t primary = 0;  // the workload's headline operation
  uint64_t gets = 0;
  uint64_t ranges = 0;
  uint64_t mutations = 0;  // acknowledged single-record Put/Delete
  uint64_t puts = 0;

  PhaseCounts& operator+=(const PhaseCounts& o) {
    elapsed += o.elapsed;
    primary += o.primary;
    gets += o.gets;
    ranges += o.ranges;
    mutations += o.mutations;
    puts += o.puts;
    return *this;
  }
};

template <typename S>
using OptionsFor =
    std::conditional_t<std::is_same_v<S, ShardedStore>, ShardedStoreOptions,
                       StoreOptions>;

template <typename S>
struct Workload {
  std::string live;  // store file (or sharded directory)
  std::string copy;  // its crash copy
  OptionsFor<S> opts;
  uint64_t preload = 0;
  std::function<PseudoKey(uint64_t)> preload_key;  // i < preload
  KeySource get_key;                               // hits and misses
  Encoder encode = nullptr;                        // input -> pseudo-key
  std::function<PseudoKey(uint64_t)> fresh_key;    // never written by main
  std::vector<RangeOracle::Query> queries;         // over the preload keys
  /// Runs the workload's closed-loop threads for `seconds`.
  std::function<PhaseCounts(S*, double)> main;
  /// Untraced runs: one measurement block of `seconds` on a freshly set-up
  /// store — the main phase for half of it or all of it, then probes for
  /// the metrics outside the workload's own mix.
  std::function<void(S*, double)> measure;
  /// Checks a block's recovered store against that block's oracle.
  std::function<void(S*)> verify;
};

void SetMetrics(StoreOptions* o, bmeh::obs::MetricsRegistry* r) {
  o->metrics = r;
}
void SetMetrics(ShardedStoreOptions* o, bmeh::obs::MetricsRegistry* r) {
  o->store.metrics = r;
}

void CopyStore(Report*, BmehStore*, const std::string& from,
               const std::string& to, const StoreOptions&) {
  CopySynced(from, to);
}
void CopyStore(Report* rep, ShardedStore* s, const std::string& from,
               const std::string& to, const ShardedStoreOptions& o) {
  fs::create_directories(to);
  for (int i = 0; i < s->shards(); ++i) {
    CopySynced(ShardedStore::ShardPath(from, i), ShardedStore::ShardPath(to, i));
  }
  bmeh::ShardManifest m;
  m.shards = s->shards();
  m.shard_bits = s->shard_bits();
  m.page_size = o.store.page_size;
  m.schema = s->schema();
  CheckOk(rep, ShardedStore::WriteManifest(to, m), "write crash-copy manifest");
}

std::unique_ptr<BmehStore> Reopen(Report* rep, const std::string& path,
                                  const StoreOptions& o) {
  return OpenOrDie(rep, BmehStore::Open(path, o), "reopen crash copy");
}
std::unique_ptr<ShardedStore> Reopen(Report* rep, const std::string& dir,
                                     ShardedStoreOptions o) {
  o.shards = 0;  // adopt the manifest
  return OpenOrDie(rep, ShardedStore::Open(dir, o), "reopen crash copy");
}

uint64_t PageReads(BmehStore* s) { return s->page_store().stats().reads; }
uint64_t PageReads(ShardedStore* s) {
  uint64_t n = 0;
  for (int i = 0; i < s->shards(); ++i) n += s->shard(i)->page_store().stats().reads;
  return n;
}

/// Closed-loop Gets on kLoadThreads threads, every answer checked;
/// latencies go to `windows_name` unless it is null.
template <typename S>
PhaseCounts ReadPhase(Report* rep, S* store, double seconds, uint64_t seed,
                      const KeySource& next, Encoder encode,
                      const char* windows_name) {
  std::vector<WindowedHist> lat(kLoadThreads);
  std::vector<uint64_t> ops(kLoadThreads, 0);
  PhaseCounts c;
  c.elapsed = RunClosedLoop(
      kLoadThreads, seconds,
      [&](int t, const std::atomic<bool>& stop, uint64_t start_ns) {
        Rand rng(seed * 1000003 + t);
        WindowedHist w(start_ns);
        uint64_t done = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const KeyDraw d = next(&rng);
          const uint64_t start = NowNs();
          bmeh::Result<uint64_t> r = uint64_t{0};
          PseudoKey k;
          {
            OpSpan op;
            k = encode(d.input);
            Span span(d.present ? "store.get" : "store.get.miss");
            r = store->Get(k);
          }
          w.Record(start, NowNs());
          CheckGet(rep, r, k, d.present);
          ++done;
        }
        lat[t] = std::move(w);
        ops[t] = done;
      });
  WindowedHist merged;
  for (int t = 0; t < kLoadThreads; ++t) {
    merged.Merge(lat[t], c.elapsed);
    c.gets += ops[t];
  }
  if (windows_name != nullptr) rep->AddWindows(windows_name, merged);
  c.primary = c.gets;
  rep->Attempted(c.gets);
  return c;
}

/// Single-threaded range queries for `seconds`, exact answers checked.
template <typename S>
void ProbeRanges(Report* rep, S* store, double seconds,
                 const std::vector<RangeOracle::Query>& queries) {
  const uint64_t start = NowNs();
  WindowedHist w(start);
  std::vector<Record> out;
  uint64_t n = 0;
  for (; SecondsSince(start) < seconds; ++n) {
    const auto& q = queries[n % queries.size()];
    const RangePredicate pred = ToPredicate(store->schema(), q);
    out.clear();
    const uint64_t t0 = NowNs();
    const Status st = store->Range(pred, &out);
    w.Record(t0, NowNs());
    CheckRange(rep, st, pred, out, q.expected);
  }
  WindowedHist merged;
  merged.Merge(w, SecondsSince(start));
  rep->AddWindows("range_ns", merged);
  rep->Attempted(n);
}

std::vector<RangeOracle::Query> MakeQueries(const RangeOracle& oracle,
                                            uint64_t seed, size_t n) {
  Rand rng(seed ^ 0x72616e6765ull);
  std::vector<RangeOracle::Query> out;
  for (size_t i = 0; i < n; ++i) {
    // Every fourth query is a 1-d partial match, alternating dimensions.
    const int dim = i % 4 == 3 ? static_cast<int>(i / 4 % 2) : -1;
    out.push_back(oracle.Make(&rng, dim, kQueryMinRows, kQueryMaxRows));
  }
  return out;
}

/// A store recovered from a crash image, and the image it came from.
template <typename S>
struct Recovered {
  std::unique_ptr<S> store;
  std::string image;
  double seconds = 0;  // the last recovery's Open()
};

/// The restart that ends every block: checkpoint, leave exactly kWalTail
/// acknowledged writes in the WAL, byte-copy the live files as a crash
/// would leave them, take the final checkpoint on the live store, close
/// and remove it, then recover the copy at least once and while
/// `budget_s` lasts, and check the last recovered store.  The fastest of
/// these recoveries goes to "recovery_s": each one opens the same image,
/// so a slower one differs only by what else the host ran meanwhile.
template <typename S>
Recovered<S> Restart(Report* rep, Workload<S>& w, Opened<S>* o,
                     const OptionsFor<S>& opts, double budget_s) {
  S* store = o->store.get();
  if (store->dirty_ops() > 0) {
    CheckOk(rep, store->Checkpoint(), "checkpoint before the WAL tail");
  }
  for (uint64_t i = 0; i < kWalTail; ++i) {
    const PseudoKey k = w.fresh_key(kTailKeyBase + i);
    const Status st = store->Put(k, PayloadOf(k, 1));
    if (!st.ok()) rep->Fail("WAL tail put: " + st.ToString());
  }
  rep->Attempted(kWalTail);
  fs::remove_all(w.copy);
  CopyStore(rep, store, w.live, w.copy, opts);
  if (store->dirty_ops() > 0) {
    CheckOk(rep, store->Checkpoint(), "final checkpoint");
  }
  rep->List("bytes_per_record",
            static_cast<double>(FileBytes(w.live)) / RecordCount(store));
  *o = Opened<S>();
  // The live store's pages were never flushed to the disk (the flush is
  // modeled); removing it drops them, so no timed recovery fsync waits
  // for their write-back.
  fs::remove_all(w.live);
  malloc_trim(0);  // the closed store's heap back to the kernel
  // Each recovery opens a fresh duplicate of the crash image (an open
  // rewrites what it recovers).
  Recovered<S> r;
  double fastest = 0;
  const uint64_t start = NowNs();
  for (int i = 0; i == 0 || (i < kMaxRecoveries && SecondsSince(start) < budget_s);
       ++i) {
    r.store.reset();
    if (!r.image.empty()) fs::remove_all(r.image);
    r.image = w.copy + "." + std::to_string(i);
    CopySynced(w.copy, r.image);
    const uint64_t open_start = NowNs();
    r.store = Reopen(rep, r.image, opts);
    r.seconds = SecondsSince(open_start);
    fastest = i == 0 ? r.seconds : std::min(fastest, r.seconds);
  }
  rep->List("recovery_s", fastest);
  if (r.store->degraded()) rep->Fail("crash copy opened degraded");
  CheckOk(rep, ValidateTrees(r.store.get()), "validate recovered store");
  for (uint64_t i = 0; i < kWalTail; ++i) {
    const PseudoKey k = w.fresh_key(kTailKeyBase + i);
    CheckGet(rep, r.store->Get(k), k, true);
  }
  rep->Attempted(kWalTail);
  w.verify(r.store.get());
  return r;
}

template <typename S>
void Run(const Args& args, Report* rep, Workload<S>& w) {
  bmeh::obs::MetricsRegistry registry;
  OptionsFor<S> opts = w.opts;
  if (args.trace) SetMetrics(&opts, &registry);
  // Untraced runs go through kSetupRuns blocks: set up a store, measure
  // seconds / kSetupRuns on it, restart it from a crash copy.  Set-up
  // time, ingest rate, recovery time and every timed metric are thus
  // sampled across the whole run.  Traced runs set up once.
  if (!args.trace) {
    for (int b = 1; b <= kSetupRuns; ++b) {
      Opened<S> o = SetUp<S>(rep, w.preload, [&] { return Create(rep, w.live, opts); },
                             w.preload_key);
      Progress("set up store " + std::to_string(b));
      w.measure(o.store.get(), args.seconds / kSetupRuns);
      Progress("measured store " + std::to_string(b));
      Recovered<S> rec = Restart(rep, w, &o, opts, kRecoveryBudgetS / kSetupRuns);
      Progress("recovered and checked store " + std::to_string(b));
      rec.store.reset();
      fs::remove_all(rec.image);
      malloc_trim(0);  // so each block's peak RSS starts from the same floor
    }
    rep->Num("peak_rss_mb", PeakRssMb());
    return;
  }

  Opened<S> o = SetUp<S>(rep, w.preload, [&] { return Create(rep, w.live, opts); },
                         w.preload_key);
  S* store = o.store.get();
  // Main phase in two halves, spans off then on; then the replay at
  // quiescence, whose spans are the ones analysed.
  LayerProbe<S> probe(rep, &o, &registry);
  probe.BeforeMain();
  PhaseCounts all = w.main(store, args.seconds / 2);
  const double rate_off = all.primary / all.elapsed;
  bmeh::obs::Tracer load_tracer(1 << 16);
  g_tracer.store(&load_tracer);
  const PhaseCounts on = w.main(store, args.seconds / 2);
  g_tracer.store(nullptr);
  rep->Num("obs.trace_overhead_pct",
           100.0 * (1.0 - (on.primary / on.elapsed) / rate_off));
  all += on;
  probe.AfterMain(all.gets, all.gets + all.ranges);
  bmeh::obs::Tracer replay_tracer(1 << 17);
  g_tracer.store(&replay_tracer);
  ReplayGets(rep, store, args.seed, w.get_key, w.encode);
  ReplayPuts(rep, store, w.fresh_key);
  ReplayRanges(rep, store, w.queries);
  g_tracer.store(nullptr);
  probe.AfterReplay(static_cast<double>(all.mutations + 2 * kReplayPuts),
                    static_cast<double>(all.puts + kReplayPuts));
  ExportTrace(rep, args, replay_tracer, ".replay.json");
  ExportTrace(rep, args, load_tracer, ".load.json");

  Recovered<S> rec = Restart(rep, w, &o, opts, /*budget_s=*/0);
  rep->Num("store.replay_records_per_s",
           registry.Snapshot().counter("wal_replayed_records_total") / rec.seconds);
  rep->Num("pagestore.recovery_page_reads",
           static_cast<double>(PageReads(rec.store.get())));
  // Registry attached vs not, on the same recovered data.
  const PhaseCounts with = ReadPhase(rep, rec.store.get(), args.seconds / 4,
                                     args.seed, w.get_key, w.encode, nullptr);
  rec.store.reset();
  rec.store = Reopen(rep, rec.image, w.opts);
  const PhaseCounts without = ReadPhase(rep, rec.store.get(), args.seconds / 4,
                                        args.seed, w.get_key, w.encode, nullptr);
  rep->Num("obs.metrics_overhead_pct",
           100.0 * (1.0 - (with.primary / with.elapsed) /
                              (without.primary / without.elapsed)));
  rec.store.reset();
  rep->Num("peak_rss_mb", PeakRssMb());
}

// ---------------------------------------------------------------------------
// Durable single-record writers, shared by point_large and write_durable.

StoreOptions PointOptions() {
  StoreOptions o;
  o.schema = KeySchema(2, 32);
  o.tree = TreeOptions::Make(2, kPageCapacity);
  o.wal_sync_every = 1;
  return o;
}

std::vector<std::pair<uint32_t, uint32_t>> Points(
    uint64_t n, const std::function<PseudoKey(uint64_t)>& key_of) {
  std::vector<std::pair<uint32_t, uint32_t>> pts;
  pts.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const PseudoKey k = key_of(i);
    pts.emplace_back(k.component(0), k.component(1));
  }
  return pts;
}

/// Writer t owns the GeoKeys indexes from WriterBase(t) on; the block
/// after the last writer's holds the replay and WAL-tail keys.
uint64_t WriterBase(uint64_t t) { return (t + 1) << 40; }

struct DurableWriter {
  std::vector<uint64_t> live;     // acked puts not deleted (key indexes)
  std::vector<uint64_t> deleted;  // acked deletes
  uint64_t next = 0;
  uint64_t phases = 0;
};

/// kDurableWriters closed-loop writers: 80% puts of fresh keys, 20%
/// deletes of the writer's own acknowledged keys (acked = flushed).
/// Latencies go to the "put_ns" windows.
PhaseCounts DurableWrites(Report* rep, BmehStore* store, double seconds,
                          uint64_t seed, const GeoKeys& keys,
                          std::vector<DurableWriter>* writers) {
  std::vector<WindowedHist> lat(kDurableWriters);
  std::vector<PhaseCounts> counts(kDurableWriters);
  PhaseCounts c;
  c.elapsed = RunClosedLoop(
      kDurableWriters, seconds,
      [&](int t, const std::atomic<bool>& stop, uint64_t start_ns) {
        DurableWriter& me = (*writers)[t];
        WindowedHist win(start_ns);
        Rand rng(seed * 7919 + t * 31 + me.phases++);
        while (!stop.load(std::memory_order_relaxed)) {
          const bool del = rng.Below(5) == 0 && !me.live.empty();
          const size_t pos = del ? rng.Below(me.live.size()) : 0;
          const uint64_t idx = del ? me.live[pos] : WriterBase(t) + me.next++;
          const uint64_t start = NowNs();
          Status st;
          {
            OpSpan op;
            const PseudoKey k = keys.Key(idx);
            Span span(del ? "store.delete" : "store.put");
            st = del ? store->Delete(k) : store->Put(k, PayloadOf(k, 1));
          }
          win.Record(start, NowNs());
          if (!st.ok()) {
            rep->Fail(std::string(del ? "delete: " : "put: ") + st.ToString());
            continue;
          }
          if (del) {
            me.deleted.push_back(idx);
            me.live[pos] = me.live.back();
            me.live.pop_back();
          } else {
            me.live.push_back(idx);
            ++counts[t].puts;
          }
          ++counts[t].mutations;
        }
        lat[t] = std::move(win);
      });
  WindowedHist merged;
  for (int t = 0; t < kDurableWriters; ++t) {
    merged.Merge(lat[t], c.elapsed);
    c += counts[t];
  }
  rep->AddWindows("put_ns", merged);
  c.primary = c.mutations;
  rep->Attempted(c.mutations);
  return c;
}

/// Durability check of the writers' work: every acked put readable,
/// every acked delete absent.  Returns the number of live writer keys.
uint64_t CheckWriters(Report* rep, BmehStore* s, const GeoKeys& keys,
                      const std::vector<DurableWriter>& writers) {
  uint64_t live = 0, gets = 0;
  for (const auto& me : writers) {
    for (uint64_t idx : me.live) {
      const PseudoKey k = keys.Key(idx);
      CheckGet(rep, s->Get(k), k, true);
    }
    for (uint64_t idx : me.deleted) {
      const PseudoKey k = keys.Key(idx);
      CheckGet(rep, s->Get(k), k, false);
    }
    live += me.live.size();
    gets += me.live.size() + me.deleted.size();
  }
  rep->Attempted(gets);
  return live;
}

/// The two workloads over uniformly drawn longitude/latitude keys.
Workload<BmehStore> GeoWorkload(const Args& args, const GeoKeys& keys,
                                uint64_t n, const std::string& name) {
  Workload<BmehStore> w;
  w.live = args.dir + "/" + name + ".bmeh";
  w.copy = args.dir + "/" + name + "-crash.bmeh";
  w.opts = PointOptions();
  w.preload = n;
  w.preload_key = [&keys](uint64_t i) { return keys.Key(i); };
  // 90% hits on uniformly chosen present keys, 10% absent keys (λ' path).
  w.get_key = [&keys, n](Rand* rng) {
    const bool hit = rng->Below(10) != 0;
    return KeyDraw{keys.Input(hit ? rng->Below(n) : n + rng->Below(n)), hit};
  };
  w.encode = GeoKeys::Encode;
  w.fresh_key = [&keys](uint64_t i) { return keys.Key(WriterBase(kLoadThreads) + i); };
  w.queries = MakeQueries(RangeOracle(Points(n, w.preload_key)), args.seed,
                          args.trace ? kReplayRanges : kProbeQueries);
  return w;
}

// ---------------------------------------------------------------------------
// point_large: read-only point lookups on a store larger than the L3.

void RunPointLarge(const Args& args, Report* rep) {
  const GeoKeys keys(args.seed);
  const uint64_t n = kPointRecords;
  Workload<BmehStore> w = GeoWorkload(args, keys, n, "point");
  std::vector<DurableWriter> writers(kDurableWriters);
  w.main = [&](BmehStore* store, double seconds) {
    return ReadPhase(rep, store, seconds, args.seed, w.get_key, w.encode,
                     "get_ns");
  };
  w.measure = [&](BmehStore* store, double seconds) {
    writers.assign(kDurableWriters, DurableWriter());  // a fresh store
    w.main(store, seconds / 2);
    DurableWrites(rep, store, seconds / 4, args.seed, keys, &writers);
    ProbeRanges(rep, store, seconds / 4, w.queries);
  };
  w.verify = [&](BmehStore* s) {
    // The timed phases checked every read; here a sample of the preload.
    Rand rng(args.seed);
    for (int i = 0; i < 20000; ++i) {
      const PseudoKey k = keys.Key(rng.Below(n));
      CheckGet(rep, s->Get(k), k, true);
    }
    rep->Attempted(20000);
    const uint64_t live = CheckWriters(rep, s, keys, writers);
    if (RecordCount(s) != n + kWalTail + live) {
      rep->Fail("recovered record count");
    }
  };
  Progress("keys and queries generated");
  Run(args, rep, w);
}

// ---------------------------------------------------------------------------
// write_durable: ingest, then durable single-record writes with
// checkpoints cycling, then a restart from a crash copy.

void RunWriteDurable(const Args& args, Report* rep) {
  const GeoKeys keys(args.seed);
  const uint64_t n = kDurableIngest;
  Workload<BmehStore> w = GeoWorkload(args, keys, n, "durable");
  w.opts.checkpoint_every = kDurableCheckpointEvery;
  std::vector<DurableWriter> writers(kDurableWriters);
  w.main = [&](BmehStore* store, double seconds) {
    return DurableWrites(rep, store, seconds, args.seed, keys, &writers);
  };
  w.measure = [&](BmehStore* store, double seconds) {
    writers.assign(kDurableWriters, DurableWriter());  // a fresh store
    w.main(store, seconds / 2);
    ReadPhase(rep, store, seconds / 4, args.seed, w.get_key, w.encode, "get_ns");
    ProbeRanges(rep, store, seconds / 4, w.queries);
  };
  w.verify = [&](BmehStore* s) {
    // Durability: every acked put readable, every acked delete absent,
    // nothing else present.
    for (uint64_t i = 0; i < n; ++i) {
      const PseudoKey k = keys.Key(i);
      CheckGet(rep, s->Get(k), k, true);
    }
    rep->Attempted(n);
    const uint64_t live = CheckWriters(rep, s, keys, writers);
    if (RecordCount(s) != n + kWalTail + live) {
      rep->Fail("recovered " + std::to_string(RecordCount(s)) +
                " records, expected " + std::to_string(n + kWalTail + live));
    }
  };
  Progress("keys and queries generated");
  Run(args, rep, w);
}

// ---------------------------------------------------------------------------
// range_mixed: range scans and point reads beside a live writer on a
// sharded store of normally distributed keys (the paper's non-uniform
// case, centred so the four ψ-prefix shards split it evenly) that fits in
// cache.

void RunRangeMixed(const Args& args, Report* rep) {
  bmeh::workload::WorkloadSpec spec;
  spec.distribution = bmeh::workload::Distribution::kNormal;
  spec.dims = 2;
  spec.width = 31;
  spec.seed = args.seed;
  // One generator, so writer keys are distinct from the preload.  The
  // writer uses the lower half of its pool; the upper half holds the fresh
  // keys of the replay and WAL tail, then keys that stay absent.
  const std::vector<PseudoKey> raw =
      bmeh::workload::GenerateKeys(spec, kRangeRecords + kRangeWriterKeys);
  const PseudoKey* wkeys = raw.data() + kRangeRecords;
  const uint64_t writer_cap = kRangeWriterKeys / 2;
  static_assert(kTailKeyBase + kWalTail < kRangeWriterKeys / 2);

  Workload<ShardedStore> w;
  w.live = args.dir + "/range";
  w.copy = args.dir + "/range-crash";
  w.opts.shards = kShards;
  w.opts.store.schema = KeySchema(2, 31);
  w.opts.store.tree = TreeOptions::Make(2, kPageCapacity);
  w.opts.store.wal_sync_every = 1;
  w.preload = kRangeRecords;
  w.preload_key = [&](uint64_t i) { return EncodeIntKey(raw[i]); };
  // Absent keys come from the top of the writer pool, above the fresh
  // keys of the replay and the WAL tail.
  const uint64_t absent_base = writer_cap + kTailKeyBase + kWalTail;
  w.get_key = [&](Rand* rng) {
    const bool hit = rng->Below(10) != 0;
    return KeyDraw{hit ? raw[rng->Below(kRangeRecords)]
                       : wkeys[absent_base + rng->Below(kRangeWriterKeys - absent_base)],
                   hit};
  };
  w.encode = EncodeIntKey;
  w.fresh_key = [&](uint64_t i) { return EncodeIntKey(wkeys[writer_cap + i]); };
  // Two range threads cycle through their own query lists.
  std::vector<std::vector<RangeOracle::Query>> lists(2);
  {
    const RangeOracle oracle(Points(kRangeRecords, w.preload_key));
    w.queries = MakeQueries(oracle, args.seed, kReplayRanges);
    for (int t = 0; t < 2; ++t) lists[t] = MakeQueries(oracle, args.seed + 1 + t, 2048);
  }

  std::atomic<uint64_t> put_head{0}, del_head{0};
  std::vector<size_t> cursor(2, 0);
  uint64_t phases = 0;
  w.main = [&](ShardedStore* store, double seconds) {
    std::vector<WindowedHist> lat(kLoadThreads);
    std::vector<PhaseCounts> counts(kLoadThreads);
    const uint64_t phase = phases++;
    PhaseCounts c;
    c.elapsed = RunClosedLoop(kLoadThreads, seconds, [&](int t,
                                                        const std::atomic<bool>& stop,
                                                        uint64_t start_ns) {
      Rand rng(args.seed * 104729 + t * 17 + phase);
      WindowedHist win(start_ns);
      std::vector<Record> out;
      while (!stop.load(std::memory_order_relaxed)) {
        if (t < 2) {  // range thread
          const auto& q = lists[t][cursor[t]++ % lists[t].size()];
          const RangePredicate pred = ToPredicate(store->schema(), q);
          out.clear();
          const uint64_t start = NowNs();
          Status st;
          {
            OpSpan op;
            Span span("sharded.range");
            st = store->Range(pred, &out);
          }
          win.Record(start, NowNs());
          CheckRange(rep, st, pred, out, q.expected);
          ++counts[t].ranges;
        } else if (t == 2) {  // reader, skewed toward recent writes
          const uint64_t ph = put_head.load(std::memory_order_acquire);
          const uint64_t dh = del_head.load(std::memory_order_acquire);
          const bool recent = rng.Below(2) == 0 && ph > dh;
          uint64_t j = 0;
          if (recent) {
            const uint64_t lo = std::max(dh, ph > 256 ? ph - 256 : 0);
            j = lo + rng.Below(ph - lo);
          }
          const PseudoKey input = recent ? wkeys[j] : raw[rng.Below(kRangeRecords)];
          const uint64_t start = NowNs();
          bmeh::Result<uint64_t> r = uint64_t{0};
          PseudoKey k;
          {
            OpSpan op;
            k = EncodeIntKey(input);
            Span span("store.get");
            r = store->Get(k);
          }
          win.Record(start, NowNs());
          // A recent key may have been deleted by the writer meanwhile.
          const bool deleted_since =
              recent && !r.ok() && r.status().IsKeyError() &&
              j < del_head.load(std::memory_order_acquire);
          if (!deleted_since) CheckGet(rep, r, k, true);
          ++counts[t].gets;
        } else {  // durable writer: puts of fresh keys, FIFO deletes
          const uint64_t ph = put_head.load(std::memory_order_relaxed);
          const uint64_t dh = del_head.load(std::memory_order_relaxed);
          const bool del = ph - dh > 1024 && (rng.Below(5) == 0 || ph >= writer_cap);
          if (!del && ph >= writer_cap) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            continue;
          }
          const uint64_t start = NowNs();
          Status st;
          {
            OpSpan op;
            const PseudoKey k = EncodeIntKey(wkeys[del ? dh : ph]);
            Span span(del ? "store.delete" : "store.put");
            st = del ? store->Delete(k) : store->Put(k, PayloadOf(k, 1));
          }
          win.Record(start, NowNs());
          if (!st.ok()) {
            rep->Fail(std::string(del ? "delete: " : "put: ") + st.ToString());
            break;
          }
          (del ? del_head : put_head).store((del ? dh : ph) + 1,
                                            std::memory_order_release);
          ++counts[t].mutations;
          counts[t].puts += !del;
        }
      }
      lat[t] = std::move(win);
    });
    WindowedHist ranges, gets, puts;
    for (int t = 0; t < kLoadThreads; ++t) {
      (t < 2 ? ranges : t == 2 ? gets : puts).Merge(lat[t], c.elapsed);
      c += counts[t];
    }
    rep->AddWindows("range_ns", ranges);
    rep->AddWindows("get_ns", gets);
    rep->AddWindows("put_ns", puts);
    c.primary = c.ranges;
    rep->Attempted(c.ranges + c.gets + c.mutations);
    return c;
  };
  w.measure = [&](ShardedStore* store, double seconds) {
    put_head = 0;  // a fresh store
    del_head = 0;
    w.main(store, seconds);
  };
  w.verify = [&](ShardedStore* s) {
    const uint64_t ph = put_head.load(), dh = del_head.load();
    for (uint64_t i = 0; i < kRangeRecords; ++i) {
      const PseudoKey k = raw[i];
      CheckGet(rep, s->Get(k), k, true);
    }
    for (uint64_t j = 0; j < ph; ++j) CheckGet(rep, s->Get(wkeys[j]), wkeys[j], j >= dh);
    rep->Attempted(kRangeRecords + ph);
    if (RecordCount(s) != kRangeRecords + ph - dh + kWalTail) {
      rep->Fail("recovered record count");
    }
  };
  Progress("keys and queries generated");
  Run(args, rep, w);
}

std::string Meta(const Args& args) {
  std::string m = "{";
  auto add = [&](const std::string& k, const std::string& raw_json) {
    m += (m.size() > 1 ? ", " : "") + JsonString(k) + ": " + raw_json;
  };
  add("workload", JsonString(args.workload));
  add("seed", std::to_string(args.seed));
  add("seconds", JsonNumber(args.seconds));
  add("trace", args.trace ? "true" : "false");
  add("compiler", JsonString(std::string("gcc-compatible ") + __VERSION__));
  add("build_type", JsonString(PERFBENCH_BUILD_TYPE));
  add("store_fs", JsonString(FilesystemOf(args.dir)));
  add("hardware_threads", std::to_string(std::thread::hardware_concurrency()));
  add("flush_policy",
      JsonString("wal_sync_every=1; live stores: file fsync off, modeled " +
                 std::to_string(kModeledFlushNs / 1000) +
                 " us device flush per sync; recovery: real fsync"));
  add("page_capacity_b", std::to_string(kPageCapacity));
  add("setup_runs", std::to_string(args.trace ? 1 : kSetupRuns));
  if (args.workload == "point_large") {
    add("store", JsonString("BmehStore, 1 file"));
    add("records", std::to_string(kPointRecords));
    add("threads", JsonString("4 readers; then 1 writer; then 1 range"));
  } else if (args.workload == "write_durable") {
    add("store", JsonString("BmehStore, 1 file"));
    add("records", std::to_string(kDurableIngest));
    add("threads", JsonString("1 ingest; 1 writer; then 4 readers; then 1 range"));
    add("checkpoint_every", std::to_string(kDurableCheckpointEvery));
  } else {
    add("store", JsonString("ShardedStore"));
    add("shards", std::to_string(kShards));
    add("records", std::to_string(kRangeRecords));
    add("threads", JsonString("2 range, 1 get, 1 writer"));
  }
  return m + "}";
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--dir") args.dir = value;
    else if (flag == "--trace-out") args.trace_out = value;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.dir.empty() || args.seconds <= 0 || (args.trace && args.trace_out.empty())) {
    std::fprintf(stderr, "usage: perfbench --workload W --seed N --seconds S "
                         "--trace 0|1 --dir DIR [--trace-out PREFIX]\n");
    return 2;
  }
  fs::create_directories(args.dir);
  Progress("start " + args.workload);
  // Threads inherit this; the modeled flush's sleeps then end on time.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  Report rep;
  if (args.workload == "point_large") {
    RunPointLarge(args, &rep);
  } else if (args.workload == "write_durable") {
    RunWriteDurable(args, &rep);
  } else if (args.workload == "range_mixed") {
    RunRangeMixed(args, &rep);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("{\"meta\": %s, \"report\": %s}\n", Meta(args).c_str(),
              rep.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
