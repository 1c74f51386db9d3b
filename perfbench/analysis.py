"""Arithmetic of the store benchmark: turns the raw measurements printed by
the perfbench binary (histograms, counts, Chrome trace-event spans) into
the metrics named in BENCHMARK.json.  Standard library only; the unit
tests live in test_analysis.py.
"""

import json
import math

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile

# Printed but not in BENCHMARK.json: the p99 of a durable write is set by
# the few writes that split a page or wait for a late wake-up, and its
# spread over five runs reached 0.69 of its median (WORKLOADS.md, "Cost and
# steadiness").
UNGATED = ("put_p99_us",)

# Share of an op's bench.op time the layer spans may leave unattributed.
# What they leave is the benchmark's own clock reads between spans, about
# 170 ns per op: 5% of a point_large Get, 8-9% of a write_durable one.
RECONCILE_TOLERANCE = 0.15

# Per-layer metric -> (end-to-end metric it should move, workload where it
# works, workload where it has little work).
LAYER_MAP = {
    "encoding.encode_ns": ("get_p50_us", "point_large", "write_durable"),
    "core.search_ns_p50": ("get_p50_us, reads_per_s", "point_large", "write_durable"),
    "core.search_miss_ns_p50": ("get_p50_us, reads_per_s", "point_large", "write_durable"),
    "core.dir_reads_per_search": ("exact guard (λ)", "point_large", "-"),
    "core.dir_reads_per_miss": ("exact guard (λ')", "point_large", "-"),
    "core.height": ("exact guard", "point_large", "-"),
    "core.dir_nodes": ("exact guard", "point_large", "-"),
    "core.dir_entries": ("exact guard (σ)", "point_large", "-"),
    "core.load_factor": ("bytes_per_record (α)", "write_durable, point_large", "-"),
    "core.range_ns_p50": ("range_p50_us, ranges_per_s", "range_mixed", "point_large"),
    "core.range_pages_per_query": ("range_p50_us, ranges_per_s", "range_mixed", "point_large"),
    "core.range_rows_per_page": ("range_p50_us, ranges_per_s", "range_mixed", "point_large"),
    "core.splits_per_1k_puts": ("put_p99_us, ingest_records_per_s", "write_durable", "point_large"),
    "core.split_us_p99": ("put_p99_us, ingest_records_per_s", "write_durable", "point_large"),
    "store.get_self_ns_p50": ("get_p50_us", "point_large", "write_durable"),
    "store.put_self_us_p50": ("put_p50_us", "write_durable", "point_large"),
    "store.read_retries_per_1k_reads": ("get_p99_us, range_p99_us", "range_mixed", "point_large"),
    "store.read_fallbacks": ("get_p99_us, range_p99_us", "range_mixed", "point_large"),
    "store.wal_append_us_p50": ("put_p50_us, writes_per_s", "write_durable", "point_large"),
    "store.records_per_fsync": ("put_p50_us, writes_per_s", "write_durable", "point_large"),
    "store.checkpoint_us_p50": ("put_p99_us", "write_durable", "range_mixed"),
    "store.checkpoints": ("put_p99_us", "write_durable", "range_mixed"),
    "store.replay_records_per_s": ("recovery_s", "write_durable", "-"),
    "sharded.range_merge_us_p50": ("range_p50_us", "range_mixed", "point_large"),
    "sharded.shards_per_range": ("range_p50_us", "range_mixed", "point_large"),
    "pagestore.sync_us_p50": ("put_p50_us, writes_per_s", "write_durable", "point_large"),
    "pagestore.sync_us_p99": ("put_p99_us", "write_durable", "point_large"),
    "pagestore.syncs_per_1k_writes": ("put_p50_us, writes_per_s", "write_durable", "point_large"),
    "pagestore.write_amplification": ("writes_per_s, ingest_records_per_s", "write_durable", "point_large"),
    "pagestore.page_writes_per_write": ("writes_per_s, ingest_records_per_s", "write_durable", "point_large"),
    "pagestore.page_reads_per_get": ("get_p50_us (expect 0)", "point_large", "-"),
    "pagestore.recovery_page_reads": ("recovery_s", "write_durable", "-"),
    "epoch.retired": ("peak_rss_mb, get_p99_us", "range_mixed", "point_large"),
    "epoch.reclaimed_per_retired": ("peak_rss_mb, get_p99_us", "range_mixed", "point_large"),
    "epoch.deferred_frees": ("peak_rss_mb, get_p99_us", "range_mixed", "point_large"),
    "obs.metrics_overhead_pct": ("reads_per_s", "point_large", "-"),
    "obs.trace_overhead_pct": ("- (reported, not gated)", "all", "-"),
    "trace.get_attributed_pct": ("reconciliation of get_p50_us", "point_large", "-"),
    "trace.put_attributed_pct": ("reconciliation of put_p50_us", "write_durable", "-"),
}


# ---------------------------------------------------------------------------
# Percentiles.

def supports(n, q):
    """True when at least MIN_BEYOND of `n` samples lie beyond the
    q-quantile."""
    return n * (1.0 - q) >= MIN_BEYOND - 1e-9


def hist_quantile(hist, q):
    """q-quantile of a bucketed histogram {"n": N, "b": [[lower, width,
    count], ...]}, linearly interpolated inside the bucket holding the
    target rank."""
    n = hist["n"]
    if n == 0:
        raise ValueError("empty histogram")
    target = q * n
    seen = 0
    for lower, width, count in hist["b"]:
        if seen + count >= target:
            return lower + width * (target - seen) / count
        seen += count
    lower, width, _ = hist["b"][-1]
    return lower + width


def merge_hists(hists):
    """Sum of bucketed histograms that share one bucket layout."""
    counts = {}
    for h in hists:
        for lower, width, count in h["b"]:
            counts[(lower, width)] = counts.get((lower, width), 0) + count
    return {"n": sum(h["n"] for h in hists),
            "b": [[lo, w, c] for (lo, w), c in sorted(counts.items())]}


def timing(hist, tail=0.99, scale=1e-3):
    """Median and `tail` quantile of a latency histogram in ns, scaled
    (default: to microseconds); refuses a histogram that does not support
    the tail."""
    n = hist["n"]
    if not supports(n, tail):
        raise ValueError("only %d samples: p%g unsupported" % (n, 100 * tail))
    return {
        "n": n,
        "p50": hist_quantile(hist, 0.5) * scale,
        "tail": hist_quantile(hist, tail) * scale,
    }


def tail_groups(windows, tail):
    """Consecutive windows merged into groups that each support the
    `tail` quantile: a window thinner than that takes in the windows after
    it, and a thin remainder at the end joins the group before it."""
    groups, cur = [], []
    for w in windows:
        cur.append(w)
        if supports(sum(h["n"] for h in cur), tail):
            groups.append(merge_hists(cur))
            cur = []
    if cur and groups:
        groups[-1] = merge_hists([groups[-1]] + cur)
    elif cur:
        raise ValueError("%d samples in all: p%g unsupported"
                         % (sum(h["n"] for h in cur), 100 * tail))
    return groups


def windowed(windows, window_s, tail=0.99, scale=1e-3):
    """Median over a phase's fixed windows of the operation rate, and over
    its tail groups (windows, thin ones merged with their successors) of
    the p50 and the `tail` quantile, which is never lowered."""
    if not windows:
        raise ValueError("no complete window")
    groups = tail_groups(windows, tail)
    return {
        "windows": len(windows),
        "groups": len(groups),
        "n": sum(w["n"] for w in windows),
        "p50": median([hist_quantile(g, 0.5) * scale for g in groups]),
        "tail": median([hist_quantile(g, tail) * scale for g in groups]),
        "rate": median([w["n"] / window_s for w in windows]),
    }


def exact_quantile(values, q):
    """Linear-interpolated q-quantile of a list of numbers."""
    if not values:
        raise ValueError("no values")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return exact_quantile(values, 0.5)


def failed_ops_frac(attempted, failed):
    """Ops that failed or answered wrongly, over ops attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed=%d outside [0, attempted=%d]" % (failed, attempted))
    return failed / attempted


# ---------------------------------------------------------------------------
# Spans: Chrome trace events grouped into operations by trace id.

def load_spans(path):
    """Spans of a Chrome trace-event file written by obs::Tracer, as dicts
    with integer-ns start/end."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = []
    for e in events:
        start = round(e["ts"] * 1000)
        spans.append({
            "name": e["name"],
            "start": start,
            "end": start + round(e["dur"] * 1000),
            "tid": e["tid"],
            "trace": int(e.get("args", {}).get("trace_id", "0"), 16),
        })
    return spans


def group_ops(spans):
    """trace id -> spans of that operation (spans without an id dropped)."""
    ops = {}
    for s in spans:
        if s["trace"]:
            ops.setdefault(s["trace"], []).append(s)
    return ops


def self_times(op_spans):
    """Self time of every span of one operation: its duration minus the
    part of its interval covered by its children.  A span's parent is the
    shortest other span of the operation that contains it (spans of other
    threads, such as a commit thread's device calls, nest by time)."""
    n = len(op_spans)
    dur = [s["end"] - s["start"] for s in op_spans]
    children = [[] for _ in range(n)]
    for i, s in enumerate(op_spans):
        best = None
        for j, p in enumerate(op_spans):
            if j == i or p["start"] > s["start"] or p["end"] < s["end"]:
                continue
            # Identical intervals nest by list order, so no cycles form.
            if dur[j] == dur[i] and j > i:
                continue
            if best is None or dur[j] < dur[best]:
                best = j
        if best is not None:
            children[best].append(i)
    out = []
    for i, s in enumerate(op_spans):
        covered = 0
        cur_start = cur_end = None
        for c in sorted(children[i], key=lambda k: op_spans[k]["start"]):
            cs = max(op_spans[c]["start"], s["start"])
            ce = min(op_spans[c]["end"], s["end"])
            if cur_end is None or cs > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = cs, ce
            else:
                cur_end = max(cur_end, ce)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s["name"], dur[i] - covered))
    return out


def total(op_spans, name):
    """Summed duration of the operation's spans called `name`."""
    return sum(s["end"] - s["start"] for s in op_spans if s["name"] == name)


def has(op_spans, *names):
    return any(s["name"] in names for s in op_spans)


def merge_ns(op_spans):
    """Sharded facade overhead of one range op: the facade's Range minus
    the same predicate's per-shard Ranges (routing, sort, k-way merge)."""
    return total(op_spans, "sharded.range") - total(op_spans, "store.shard_range")


def attributed_share(ops):
    """Share of the ops' bench.op time covered by layer spans (the root's
    own self time is benchmark bookkeeping nobody attributed)."""
    root_total = 0
    root_self = 0
    for op in ops:
        for name, self_ns in self_times(op):
            if name == "bench.op":
                root_self += self_ns
        root_total += total(op, "bench.op")
    if root_total == 0:
        raise ValueError("no bench.op spans")
    return 1.0 - root_self / root_total


def self_time_table(ops):
    """Span name -> (median self ns per op, share of summed op time)."""
    per_name = {}
    grand = 0
    for op in ops:
        grand += total(op, "bench.op")
        sums = {}
        for name, self_ns in self_times(op):
            sums[name] = sums.get(name, 0) + self_ns
        for name, v in sums.items():
            per_name.setdefault(name, []).append(v)
    return {name: (median(vs), sum(vs) / grand) for name, vs in per_name.items()}


def trace_metrics(spans):
    """Per-layer numbers of a replay trace, plus the self-time tables of
    the get and put ops."""
    ops = list(group_ops(spans).values())
    get_ops = [op for op in ops if has(op, "store.get", "store.get.miss")]
    put_ops = [op for op in ops if has(op, "store.put")]
    range_ops = [op for op in ops if has(op, "store.range", "sharded.range")]
    core_range_ops = [op for op in ops if has(op, "core.range")]

    def durations(name):
        return [s["end"] - s["start"] for s in spans if s["name"] == name]

    def put_store_self(op):
        return sum(v for name, v in self_times(op) if name == "store.put")

    m = {
        "encoding.encode_ns": median(durations("encoding.encode")),
        "core.search_ns_p50": median(durations("core.search")),
        "core.search_miss_ns_p50": median(durations("core.search.miss")),
        "core.range_ns_p50": median([total(op, "core.range") for op in core_range_ops]),
        "store.get_self_ns_p50":
            median(durations("store.get")) - median(durations("core.search")),
        "store.put_self_us_p50": median([put_store_self(op) for op in put_ops]) / 1e3,
        "sharded.range_merge_us_p50": median([merge_ns(op) for op in range_ops]) / 1e3,
        "trace.get_attributed_pct": 100.0 * attributed_share(get_ops),
        "trace.put_attributed_pct": 100.0 * attributed_share(put_ops),
    }
    tables = {"get": self_time_table(get_ops), "put": self_time_table(put_ops)}
    return m, tables


# ---------------------------------------------------------------------------
# Metric assembly.

def end_to_end(raw):
    """End-to-end metrics of an untraced run, the ungated ones apart, and a
    note per windowed metric saying which percentile over how many
    samples."""
    num, lists = raw["num"], raw["lists"]
    m = {name: median(lists[name])
         for name in ("setup_s", "ingest_records_per_s", "recovery_s",
                      "bytes_per_record")}
    notes = {}
    for op, key, rate in (("get", "get_ns", "reads_per_s"),
                          ("put", "put_ns", "writes_per_s"),
                          ("range", "range_ns", "ranges_per_s")):
        t = windowed(raw["windows"][key], raw["window_s"])
        m[op + "_p50_us"] = t["p50"]
        m[op + "_p99_us"] = t["tail"]
        m[rate] = t["rate"]
        where = "median of %d windows of %gs, %d samples" % (
            t["windows"], raw["window_s"], t["n"])
        if t["groups"] != t["windows"]:
            where += ", thin windows merged into %d groups" % t["groups"]
        notes[op + "_p50_us"] = "p50, " + where
        notes[op + "_p99_us"] = "p99, " + where
        notes[rate] = "median of %d windows of %gs" % (t["windows"], raw["window_s"])
    m["peak_rss_mb"] = num["peak_rss_mb"]
    ungated = {name: m.pop(name) for name in UNGATED}
    for name in ungated:
        notes[name] += "; reported, not gated"
    return m, ungated, notes


def per_layer(raw, spans):
    """Per-layer metrics of a traced run."""
    num, hist = raw["num"], raw["hist"]
    m = {name: num[name] for name in LAYER_MAP if name in num}
    sync = timing(hist["pagestore.sync_ns"])
    m["pagestore.sync_us_p50"] = sync["p50"]
    m["pagestore.sync_us_p99"] = sync["tail"]
    from_trace, tables = trace_metrics(spans)
    m.update(from_trace)
    return m, tables
