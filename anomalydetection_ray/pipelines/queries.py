"""Driver-table query library (SURVEY.md §2.2 M2/G2/G3/Q1/Q2/D1/J1 + the
events-as-series rollup parity check).

Each function takes ``sf_dir`` and returns a Dataset / Arrow table.  These
exist for two reasons: (1) they are real engine operators (filters,
grouped aggregates, top-k, dedup, broadcast join, sort, quantiles)
exercised on driver-owned data so the driver's DuckDB oracle can check
them value-for-value; (2) ``rollup_events_tier1`` re-expresses the M1
bucket math (min/max/mean/count + robust anomaly score) over the
``events`` table, where the whole computation IS SQL-expressible — the
strongest external check the rollup semantics get.

Plan sizing: ``sized_plan`` runs a grouped events query as ONE plain Ray
task when its input fits one read target (``rollup.fits_one_target``: at
most 32 MB of planned row groups, the size the engine plans its read
units to), and as the query's exchange (block partials -> shuffle ->
finalize) on larger input, whose read tasks split it.  The one task runs
no Ray Data executor: on small input most of a one-task Ray Data
pipeline's wall was the executor's fixed cost, not Arrow work.  The bound
is that per-task input rule, not a speed crossover: on one node, up to 3x
the target on 1 and 4 CPU slots (``tools/plan_crossover.py``,
``BENCH/plan_crossover.jsonl``), the one task was the faster plan for
every query except ``r2_compact_events`` on 4 slots near the target,
where it and the exchange's parallel per-day compaction were within
noise of each other.  Both plans are built from the query's same Arrow
closures.  ``_events_grid`` is that plan for an additive grid of
``events``: a derive maps each batch to grid keys plus int64 measures,
the grid sums each measure per key, and the query's finalize gets it as
one table sorted by its keys (``_daily_cents``, ``_daily_counts``,
``_benford_counts``, ``_cent_hist`` and ``_hour_counts`` are its shared
grids).

Float-parity discipline: SQL-checked aggregates avoid distributed float
summation (addition-order-dependent); sums are over exact integers, means
are a single IEEE division of exact integers, medians/MAD match DuckDB's
interpolation semantics.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from anomalydetection_ray.constants import MAD_SCALE

DAY_US_Q = 86_400_000_000


def _read(sf_dir: str, table: str, columns=None):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _read_whole(packed: dict, columns, whole) -> pa.Table:
    from anomalydetection_ray.pipelines import rollup

    t = rollup.read_packed_units(packed, columns)
    return whole(t) if t.num_rows else pa.table({})


@functools.cache
def _whole_task():
    import ray

    return ray.remote(_read_whole)


def sized_plan(sf_dir: str, table: str, columns, whole, exchange):
    """A query over ``sf_dir/table`` sized to its input (module docstring):
    when the footer plan fits one read target, ONE plain Ray task reads
    every planned row-group range and returns ``whole(table)``, which
    becomes the one block of the Dataset; otherwise ``exchange(_read(sf_dir,
    table, columns))``.  The one-task plan is eager: the driver fetches the
    task's (aggregate-sized) result and wraps it with ``from_blocks``, which
    takes the block metadata from the table itself, where
    ``from_arrow_refs`` would run a second Ray task for it.  A zero-row
    input gives an empty, schema-less block, as the exchange does;
    ``whole`` is never called on it."""
    import ray
    import ray.data

    from anomalydetection_ray.pipelines import rollup

    units = rollup.plan_read_units(f"{sf_dir}/{table}.parquet")
    if not units or not rollup.fits_one_target(units):
        return exchange(_read(sf_dir, table, columns))
    packed = {k: [[u[k] for u in units]] for k in ("path", "rg_start", "rg_end")}
    return ray.data.from_blocks([ray.get(_whole_task().remote(packed, columns, whole))])


def _by_type(finalize):
    """``finalize`` per event type over a grid sorted by its keys, the
    event type first (``_events_grid``): split at the type runs,
    concatenate the per-type outputs."""
    from anomalydetection_ray.stages.runs import run_starts

    def apply(grid: pa.Table) -> pa.Table:
        bounds = [*run_starts(grid, ["event_type"]).tolist(), grid.num_rows]
        return pa.concat_tables([finalize(grid.slice(a, b - a))
                                 for a, b in zip(bounds, bounds[1:])])

    return apply


def _events_grid(sf_dir: str, columns, derive, keys, measures, finalize):
    """``finalize`` over an additive grid of ``events``: ``derive`` maps a
    batch of ``columns`` to the ``keys`` plus the int64 ``measures``
    columns, and the grid holds each measure's sum per key, as one table
    sorted by ``keys``.  On ``sized_plan``: one task over one read target;
    above it, per-block Arrow partials, ONE Ray exchange on ``keys``, and
    ``finalize`` on one block.  The measure names are given, not read from
    a schema, so no plan runs a one-row probe."""
    from ray.data.aggregate import Sum

    order = [(k, "ascending") for k in keys]

    def partial(batch: pa.Table) -> pa.Table:
        g = derive(batch).group_by(keys).aggregate(
            [(m, "sum") for m in measures])
        return pa.table({**{k: g.column(k) for k in keys},
                         **{m: g.column(f"{m}_sum") for m in measures}})

    def whole(grid: pa.Table) -> pa.Table:
        return finalize(grid.sort_by(order))

    def exchange(ds):
        return (ds.map_batches(partial, batch_format="pyarrow",
                               zero_copy_batch=True)
                .groupby(keys)
                .aggregate(*[Sum(m, alias_name=m) for m in measures])
                .repartition(1).map_batches(whole, batch_format="pyarrow"))

    return sized_plan(sf_dir, "events", columns,
                      lambda t: whole(partial(t)), exchange)


def _ts_us(batch: pa.Table) -> np.ndarray:
    return np.asarray(batch.column("ts").cast(pa.int64()), dtype=np.int64)


def _cents(batch: pa.Table) -> np.ndarray:
    """``floor(value*100 + 0.5)``: the exact int64 cents of each value."""
    v = np.asarray(batch.column("value"), dtype=np.float64)
    return np.floor(v * 100.0 + 0.5).astype(np.int64)


def _ones(n: int) -> pa.Array:
    return pa.array(np.ones(n, dtype=np.int64))


def _daily_cents(sf_dir: str, finalize):
    """``finalize`` over the daily cent-value totals of ``events``, the
    grid ``(event_type, day, sum(x))``, all-int64 except the type.
    ``day`` is the UTC day number ``ts_us // 86_400_000_000`` and ``x``
    is ``floor(value*100 + 0.5)``, so every total is exact.  Plan:
    ``_events_grid``."""
    def derive(batch: pa.Table) -> pa.Table:
        return pa.table({"event_type": batch.column("event_type"),
                         "day": pa.array(_ts_us(batch) // DAY_US_Q),
                         "sum(x)": pa.array(_cents(batch))})

    return _events_grid(sf_dir, ["event_type", "ts", "value"], derive,
                        ["event_type", "day"], ["sum(x)"], finalize)


def _daily_counts(sf_dir: str, finalize):
    """``finalize`` over the daily event counts of ``events``, the grid
    ``(event_type, day, n)`` with ``_daily_cents``'s day number and an
    int64 ``n``.  Plan: ``_events_grid``."""
    def derive(batch: pa.Table) -> pa.Table:
        return pa.table({"event_type": batch.column("event_type"),
                         "day": pa.array(_ts_us(batch) // DAY_US_Q),
                         "n": _ones(batch.num_rows)})

    return _events_grid(sf_dir, ["event_type", "ts"], derive,
                        ["event_type", "day"], ["n"], finalize)


def _benford_counts(sf_dir: str, finalize):
    """``finalize`` per event type over the leading-character counts of
    ``events``' cent values, the grid ``(event_type, digit, n)``: ``digit``
    is the first character of the decimal string of the exact cents
    integer ``floor(value*100 + 0.5)`` (``"0"`` for zero cents, ``"-"`` for
    negative ones), ``n`` an int64 count.  Plan: ``_events_grid``;
    ``finalize`` gets one type's rows sorted by digit."""
    import pyarrow.compute as pc

    def derive(batch: pa.Table) -> pa.Table:
        digit = pc.utf8_slice_codeunits(
            pc.cast(pa.array(_cents(batch)), pa.string()), 0, 1)
        return pa.table({"event_type": batch.column("event_type"),
                         "digit": digit, "n": _ones(batch.num_rows)})

    return _events_grid(sf_dir, ["event_type", "value"], derive,
                        ["event_type", "digit"], ["n"], _by_type(finalize))


def _cent_hist(sf_dir: str, finalize):
    """``finalize`` over the per-type cent histogram of ``events``, the
    grid ``(event_type, v100, n)``: ``v100`` is the exact cents integer
    ``floor(value*100 + 0.5)``, ``n`` its int64 event count.  Plan:
    ``_events_grid``."""
    def derive(batch: pa.Table) -> pa.Table:
        return pa.table({"event_type": batch.column("event_type"),
                         "v100": pa.array(_cents(batch)),
                         "n": _ones(batch.num_rows)})

    return _events_grid(sf_dir, ["event_type", "value"], derive,
                        ["event_type", "v100"], ["n"], finalize)


def _hour_counts(sf_dir: str, finalize):
    """``finalize`` over the per-type UTC hour-of-day counts of ``events``,
    the grid ``(event_type, hour, n)``, ``hour = (ts_us // 3_600_000_000)
    % 24``.  Plan: ``_events_grid``."""
    def derive(batch: pa.Table) -> pa.Table:
        return pa.table({"event_type": batch.column("event_type"),
                         "hour": pa.array((_ts_us(batch) // 3_600_000_000) % 24),
                         "n": _ones(batch.num_rows)})

    return _events_grid(sf_dir, ["event_type", "ts"], derive,
                        ["event_type", "hour"], ["n"], finalize)


# ---------------------------------------------------------------- G2 ----
def g2_source_stats(sf_dir: str):
    """Grouped corpus stats over documents: per source, doc count and exact
    char-sum, plus min/max n_chars.  (G2 — SURVEY.md §2.2)"""
    from ray.data.aggregate import Count, Max, Min, Sum

    ds = _read(sf_dir, "documents", ["source", "n_chars"])
    out = ds.groupby("source").aggregate(
        Count(alias_name="docs"),
        Sum("n_chars", alias_name="sum_chars"),
        Min("n_chars", alias_name="min_chars"),
        Max("n_chars", alias_name="max_chars"),
    )
    return out


def pricing_summary(sf_dir: str):
    """TPC-H Q1-shaped grouped aggregate on lineitem (quantity is integral
    in TPC-H, so the sum is exact; avg = one division of exact ints)."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity"])

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        qty = pc.cast(batch.column("l_quantity"), pa.int64())
        t = pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "qty": qty,
            }
        )
        return t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("qty", "count")]
        )

    # map-side partial aggregation, then a tiny distributed final groupby
    from ray.data.aggregate import Sum

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    final = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("qty_sum", alias_name="sum_qty"),
        Sum("qty_count", alias_name="count_order"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        avg = pc.divide(
            pc.cast(batch.column("sum_qty"), pa.float64()),
            pc.cast(batch.column("count_order"), pa.float64()),
        )
        return batch.append_column("avg_qty", avg)

    return final.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------- Q2 ----
def q2_topk_events(sf_dir: str, k: int = 50):
    """Top-k events by value (deterministic tiebreak on event_id) — block
    prune + tiny final sort, no global sort shuffle (stages/topk.py)."""
    from anomalydetection_ray.stages.topk import topk

    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "value"])
    return topk(ds, k, [("value", "descending"), ("event_id", "ascending")])


# ---------------------------------------------------------------- Q1 ----
def q1_sort_lineitem(sf_dir: str, k: int = 1000):
    """Global sort (range-partition shuffle) with a deterministic full key."""
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity"])
    return ds.sort(["l_orderkey", "l_linenumber"]).limit(k)


# ---------------------------------------------------------------- M2 ----
def m2_filter_lineitem(sf_dir: str):
    """Predicate + projection pushdown."""
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey", "l_quantity", "l_discount"])
    return ds.filter(expr="l_quantity > 30 and l_discount < 0.05").select_columns(
        ["l_orderkey", "l_partkey", "l_quantity"]
    )


# ---------------------------------------------------------------- D1 ----
def d1_dedup_events(sf_dir: str):
    """Exact dedup: one row per user_id, deterministic tiebreak = min
    event_id (hash-partition groupby + per-group first; D1)."""
    from anomalydetection_ray.stages.runs import keep_first_by

    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "value"])
    return keep_first_by(ds, keys=["user_id"], order_by=["event_id"], num_partitions=16)


# ---------------------------------------------------------------- J1 ----
def j1_broadcast_join(sf_dir: str):
    """customer -> nation -> region via broadcast-hash lookup: the small
    sides are plain dicts captured in the map_batches closure (shipped once
    per task via the object store), never a shuffle join (J1)."""
    import pyarrow.compute as pc

    nation = _read(sf_dir, "nation").take_all()
    region = _read(sf_dir, "region").take_all()
    n_name = {r["n_nationkey"]: r["n_name"] for r in nation}
    n_region = {r["n_nationkey"]: r["n_regionkey"] for r in nation}
    r_name = {r["r_regionkey"]: r["r_name"] for r in region}

    nk = sorted(n_name)
    nk_arr = np.array(nk, dtype=np.int64)
    nname_arr = np.array([n_name[k] for k in nk], dtype=object)
    rname_arr = np.array([r_name[n_region[k]] for k in nk], dtype=object)

    def join(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch.column("c_nationkey"), dtype=np.int64)
        pos = np.searchsorted(nk_arr, keys)
        return pa.table(
            {
                "c_custkey": batch.column("c_custkey"),
                "c_name": batch.column("c_name"),
                "n_name": pa.array(nname_arr[pos], type=pa.string()),
                "r_name": pa.array(rname_arr[pos], type=pa.string()),
            }
        )

    ds = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"])
    return ds.map_batches(join, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------- J3 ----
def j3_join_agg(sf_dir: str):
    """Large-large co-partitioned equi-join (J3, stages/join.py): lineitem
    joins orders on orderkey — both sides hash-exchanged on the SAME _pkey,
    resolved per partition with one vectorized index_in (no broadcast, no
    per-key Python) — then an exact grouped aggregate per order priority
    with map-side partials."""
    from ray.data.aggregate import Sum

    from anomalydetection_ray.stages.join import copartition_attach

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = copartition_attach(li, orders, left_on="l_orderkey",
                                right_on="o_orderkey",
                                payload_cols=["o_orderpriority"])

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        qty = pc.cast(batch.column("l_quantity"), pa.int64())
        t = pa.table({"o_orderpriority": batch.column("o_orderpriority"), "qty": qty})
        return t.group_by(["o_orderpriority"]).aggregate([("qty", "sum"), ("qty", "count")])

    partials = joined.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return partials.groupby("o_orderpriority").aggregate(
        Sum("qty_sum", alias_name="sum_qty"),
        Sum("qty_count", alias_name="line_count"),
    )


def j4_asof_join(sf_dir: str):
    """Distributed backward as-of join (J4, stages/join.py asof_attach):
    every event picks up the latest per-type calibration checkpoint with
    checkpoint.ts <= event.ts.  The checkpoint table is derived
    deterministically from events itself — every 50th event per type in
    (ts, event_id) order — via the same partitioned exchange (each
    event_type lives wholly in one partition, so per-type ranks are
    global).  Oracle: DuckDB ASOF LEFT JOIN."""
    from anomalydetection_ray.stages.join import asof_attach
    from anomalydetection_ray.stages.runs import partition_apply, run_starts

    ev = _read(sf_dir, "events", ["event_id", "ts", "event_type", "value"])

    def cp_kernel(group: pa.Table) -> pa.Table:
        group = group.sort_by(
            [("event_type", "ascending"), ("ts", "ascending"),
             ("event_id", "ascending")])
        starts = run_starts(group, ["event_type"])
        n = group.num_rows
        counts = np.diff(np.append(starts, n))
        rank = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
        keep = np.flatnonzero(rank % 50 == 0)
        cp = group.take(pa.array(keep, type=pa.int64()))
        return pa.table({
            "event_type": cp.column("event_type"),
            "ts": cp.column("ts"),
            "calib_event_id": cp.column("event_id"),
            "calib_value": cp.column("value"),
        })

    checkpoints = partition_apply(ev, ["event_type"], cp_kernel, 8)

    joined = asof_attach(ev, checkpoints, by="event_type", on="ts",
                         payload_cols=["calib_value", "calib_event_id"])
    return joined.select_columns(
        ["event_id", "event_type", "value", "calib_value", "calib_event_id"])


def j11_asof_forward(sf_dir: str):
    """J11 — FORWARD as-of join (J4's mirror): every event picks up the
    EARLIEST per-type calibration checkpoint with checkpoint.ts >=
    event.ts — the next-maintenance / next-rebalance lookup.  Same
    one-exchange co-partition layout as J4 (stages/join.py asof_attach,
    direction="forward"); equal-ts checkpoints resolve deterministically
    to the smallest calib_event_id via the tiebreak sort key, which the
    oracle mirrors with an explicit (ts, calib_event_id) row_number."""
    from anomalydetection_ray.stages.join import asof_attach
    from anomalydetection_ray.stages.runs import partition_apply, run_starts

    ev = _read(sf_dir, "events", ["event_id", "ts", "event_type", "value"])

    def cp_kernel(group: pa.Table) -> pa.Table:
        group = group.sort_by(
            [("event_type", "ascending"), ("ts", "ascending"),
             ("event_id", "ascending")])
        starts = run_starts(group, ["event_type"])
        n = group.num_rows
        counts = np.diff(np.append(starts, n))
        rank = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
        keep = np.flatnonzero(rank % 50 == 0)
        cp = group.take(pa.array(keep, type=pa.int64()))
        return pa.table({
            "event_type": cp.column("event_type"),
            "ts": cp.column("ts"),
            "calib_event_id": cp.column("event_id"),
            "calib_value": cp.column("value"),
        })

    checkpoints = partition_apply(ev, ["event_type"], cp_kernel, 8)

    joined = asof_attach(ev, checkpoints, by="event_type", on="ts",
                         payload_cols=["calib_value", "calib_event_id"],
                         direction="forward", tiebreak="calib_event_id")
    return joined.select_columns(
        ["event_id", "event_type", "value", "calib_value", "calib_event_id"])


# ---------------------------------------------------------------- G3 ----
def g3_quantiles_nchars(sf_dir: str):
    """Per-source n_chars quantiles (linear interpolation == DuckDB
    quantile_cont) — EXACT at any scale WITHOUT a per-source sort.

    n_chars lives in a bounded integer domain, so each block emits one
    (source, n_chars) -> count partial histogram, histograms add
    associatively under a tiny per-(source, value) groupby, and the
    interpolated quantile is read off the merged cumulative counts —
    the same G22 bincount-histogram exchange (round 5: replaces the
    whole-group `map_groups` sort the round-4 verdict flagged as the one
    unbounded single-task group; the shuffle now moves histogram rows,
    never documents)."""
    ds = _read(sf_dir, "documents", ["source", "n_chars"])

    def hist_batch(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "source": batch.column("source"),
            "n_chars": batch.column("n_chars").cast(pa.int64()),
            "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        })
        g = t.group_by(["source", "n_chars"]).aggregate([("one", "sum")])
        return pa.table({"source": g.column("source"),
                         "n_chars": g.column("n_chars"),
                         "c": g.column("one_sum").cast(pa.int64())})

    # ONE exchange: per-block partial histograms go straight to the
    # per-source finalize, which merges duplicate values itself (each
    # group holds <= blocks x |domain| tiny histogram rows, never docs)
    counts = ds.map_batches(hist_batch, batch_format="pyarrow",
                            zero_copy_batch=True)

    def finalize(group: pa.Table) -> pa.Table:
        raw_v = np.asarray(group.column("n_chars"), dtype=np.int64)
        raw_c = np.asarray(group.column("c"), dtype=np.int64)
        uniq, inv = np.unique(raw_v, return_inverse=True)
        merged = np.zeros(uniq.shape[0], dtype=np.int64)
        np.add.at(merged, inv, raw_c)
        v = uniq.astype(np.float64)
        c = merged
        cum = np.cumsum(c)
        n = int(cum[-1])

        def at_rank(r: int) -> float:  # sorted-order element, 0-based rank
            return float(v[int(np.searchsorted(cum, r + 1))])

        def _qcont(p: float) -> float:
            # DuckDB quantile_cont interpolation: (1-t)*lo + t*hi (NOT
            # numpy's monotonic lerp, which switches formula at t=0.5 ->
            # last-bit diffs); identical float ops to the sorted-array
            # path, so the hist rewrite is bit-for-bit
            idx = p * (n - 1)
            lo = int(np.floor(idx))
            t = idx - lo
            if lo + 1 >= n:
                return at_rank(n - 1)
            return float((1 - t) * at_rank(lo) + t * at_rank(lo + 1))

        qs = [_qcont(p) for p in (0.5, 0.9, 0.99)]
        return pa.table(
            {
                "source": [group.column("source")[0].as_py()],
                "p50": pa.array([qs[0]], type=pa.float64()),
                "p90": pa.array([qs[1]], type=pa.float64()),
                "p99": pa.array([qs[2]], type=pa.float64()),
            }
        )

    return counts.groupby("source").map_groups(finalize,
                                               batch_format="pyarrow")


# ---------------------------------------------------------------- M3 ----
def m3_token_fns(sf_dir: str):
    """Token scalar/array fns (M3): vocab remap (modulo fold to 1024),
    clamp to [0, 500), head-slice(8) — applied to the tokenized documents
    corpus.  Each derived array is summarized as an exact order-sensitive
    integer checksum ``sum((v'_i + 1) * (i + 1))`` (position-weighted, so
    permutations are detected; bounded by int64) plus the first-8 tokens
    as a comma string — both reproducible by the DuckDB oracle, unlike a
    crc32.  Fully vectorized over the batch's flat token buffer."""
    from anomalydetection_ray.pipelines.rollup import validated
    from anomalydetection_ray.sources.tokenize import docs_sequences
    from anomalydetection_ray.stages.rollup import _flat_tokens

    def fns(batch: pa.Table) -> pa.Table:
        vals, valid, offsets = _flat_tokens(batch)
        if valid is not None:
            vals = np.where(valid, vals, 0).astype(np.int32)
        v = vals.astype(np.int64)
        nrows = offsets.shape[0] - 1
        lens = np.diff(offsets)
        nz = lens > 0
        # part-local 1-based position weight per flat element
        local = (np.arange(v.shape[0], dtype=np.int64)
                 - np.repeat(offsets[:-1], lens)) + 1
        remap = np.zeros(nrows, dtype=np.int64)
        clamp = np.zeros(nrows, dtype=np.int64)
        if v.shape[0]:
            remap_t = (v % 1024 + 1) * local
            clamp_t = (np.clip(v, 0, 499) + 1) * local
            remap[nz] = np.add.reduceat(remap_t, offsets[:-1][nz])
            clamp[nz] = np.add.reduceat(clamp_t, offsets[:-1][nz])
        heads = []
        for r in range(nrows):
            s, e = offsets[r], min(offsets[r] + 8, offsets[r + 1])
            heads.append(",".join(str(int(x)) for x in v[s:e]))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "part_id": batch.column("part_id"),
                "remap_ck": pa.array(remap, type=pa.int64()),
                "clamp_ck": pa.array(clamp, type=pa.int64()),
                "head8": pa.array(heads, type=pa.string()),
            }
        )

    seqs = docs_sequences(sf_dir)
    return validated(seqs).map_batches(fns, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------- Q3 ----
def q3_sample_lineitem(sf_dir: str, frac: float = 0.01):
    """Seeded random sample (Q3) — deterministic row membership via a
    content hash (not ds.random_sample, whose membership depends on block
    layout): keep rows where the Knuth multiplicative hash of
    (l_orderkey, l_linenumber) mod 2^32, folded to [0, 10000), falls
    under the sampling threshold.  Fully vectorized (uint64 numpy) and
    exactly SQL-expressible, so the driver's DuckDB oracle checks the
    identical membership."""
    thresh = int(round(frac * 10000))
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity"])

    def samp(batch: pa.Table) -> pa.Table:
        ok = np.asarray(batch.column("l_orderkey"), dtype=np.uint64)
        ln = np.asarray(batch.column("l_linenumber"), dtype=np.uint64)
        h = (ok * np.uint64(2654435761) + ln * np.uint64(40503)) & np.uint64(0xFFFFFFFF)
        keep = (h % np.uint64(10000)) < thresh
        return batch.filter(pa.array(keep))

    return ds.map_batches(samp, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------- D2 ----
def d2_union_tiers(sf_dir: str):
    """D2 union: rollup tiers of two disjoint corpus halves unioned ==
    rollup of the whole corpus (returns the unioned tier row counts per
    tier, exercising ds.union)."""
    import ray.data

    from anomalydetection_ray.pipelines.rollup import rollup_pipeline
    from anomalydetection_ray.sources.tokenize import tokenize_batch

    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def half(which: int):
        def pick(batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
            return batch.filter(pa.array(ids % 2 == which))

        filt = (
            docs.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)
            .map_batches(tokenize_batch, batch_format="pyarrow", zero_copy_batch=True)
        )
        return rollup_pipeline(filt)

    u = half(0).union(half(1))
    from ray.data.aggregate import Count, Sum

    return u.groupby("tier").aggregate(
        Count(alias_name="rows"), Sum("count", alias_name="points")
    )


# ------------------------------------------------- skew / salted G2 ----
def g2_salted_source_stats(sf_dir: str):
    """G2 with the explicit skew defense: salted two-stage groupby over the
    hot-keyed source column (north rule: 'salted groupby-aggregate
    shuffles')."""
    from anomalydetection_ray.stages.merge import salted_groupby_sum

    ds = _read(sf_dir, "documents", ["source", "n_chars"])
    return salted_groupby_sum(ds, "source", ["n_chars"], num_salts=8)


def g3_approx_quantiles(sf_dir: str):
    """G3 approximate sketch path: Ray Data's built-in distributed Quantile
    aggregate over lineitem quantity (rows-only: approx by construction;
    the exact path is g3_quantiles_nchars)."""
    from ray.data.aggregate import Max, Mean, Min, Quantile

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])
    return ds.groupby("l_returnflag").aggregate(
        Quantile("l_quantity", q=0.5, alias_name="p50"),
        Min("l_quantity", alias_name="min_qty"),
        Max("l_quantity", alias_name="max_qty"),
        Mean("l_quantity", alias_name="mean_qty"),
    )


def p1_persist_summary(sf_dir: str):
    """Resumable P1 (rollup_persist) over the tokenized corpus into a fresh
    dir: per-unit summary (rows-only; bit-level gate in pytest)."""
    import tempfile

    from anomalydetection_ray.pipelines.rollup import rollup_persist
    from anomalydetection_ray.sources.tokenize import docs_sequences

    # materialize a small sequences parquet first (persist plans from files)
    seq_dir = tempfile.mkdtemp(prefix="p1seq_")
    docs_sequences(sf_dir).write_parquet(seq_dir)
    out = tempfile.mkdtemp(prefix="p1out_")
    return rollup_persist(seq_dir, out, resume=False, override_num_blocks=8)


def p2_persist_summary(sf_dir: str):
    """Resumable shuffle-free P2 (ingest_persist) over the tokenized corpus:
    per-unit summary (rows-only; round-trip + resume gates in pytest)."""
    import tempfile

    from anomalydetection_ray.pipelines.ingest import ingest_persist
    from anomalydetection_ray.sources.tokenize import docs_sequences

    seq_dir = tempfile.mkdtemp(prefix="p2seq_")
    docs_sequences(sf_dir).write_parquet(seq_dir)
    out = tempfile.mkdtemp(prefix="p2out_")
    # encoded_bytes + encoder_state_hash pin the persisted tier0 content
    # into the driver's rows-only hash, not just counts
    return ingest_persist(seq_dir, out, resume=False, override_num_blocks=8).select_columns(
        ["part_id", "rows_emitted", "tokens_processed", "encoded_bytes",
         "encoder_state_hash"]
    )


# ------------------------------------------------- events-as-series ----
EVENTS_BUCKET = 100


def rollup_events_tier1(sf_dir: str, num_partitions: int = 16):
    """M1 bucket math over the events table: each user_id is a series
    (position = event rank by event_id, value = floor(value) as int32),
    tumbling buckets of EVENTS_BUCKET positions, per bucket min / max /
    exact mean / count / robust anomaly score.  Fully SQL-expressible ->
    the strongest external oracle of the rollup semantics.

    Scale shape: one exchange on ``_pkey = hash(user_id) % P`` (all of a
    user's events land in one partition), then each partition call sorts
    by (user_id, event_id) and runs the flagship rollup's bucket kernel
    (stages/rollup.py ``bucket_stats``: bucket geometry, reduceat and the
    segmented-sort robust score) — no per-user or per-bucket Python."""
    from anomalydetection_ray.stages.rollup import bucket_stats
    from anomalydetection_ray.stages.runs import partition_apply, run_starts

    def per_partition(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "user_id": pa.array([], type=pa.int64()),
                    "bucket": pa.array([], type=pa.int64()),
                    "min": pa.array([], type=pa.int32()),
                    "max": pa.array([], type=pa.int32()),
                    "mean": pa.array([], type=pa.float64()),
                    "count": pa.array([], type=pa.int64()),
                    "anomaly_score": pa.array([], type=pa.float64()),
                }
            )
        batch = batch.sort_by([("user_id", "ascending"), ("event_id", "ascending")])
        v = np.floor(np.asarray(batch.column("value"), dtype=np.float64)).astype(np.int32)
        uids = np.asarray(batch.column("user_id"), dtype=np.int64)
        ustarts = run_starts(batch, ["user_id"])
        offsets = np.append(ustarts, batch.num_rows).astype(np.int64)
        rows, local, counts, mins, maxs, sums, scores = bucket_stats(v, None, offsets, EVENTS_BUCKET)
        return pa.table(
            {
                "user_id": pa.array(uids[ustarts][rows], type=pa.int64()),
                "bucket": pa.array(local, type=pa.int64()),
                "min": pa.array(mins, type=pa.int32()),
                "max": pa.array(maxs, type=pa.int32()),
                "mean": pa.array(sums / counts, type=pa.float64()),
                "count": pa.array(counts, type=pa.int64()),
                "anomaly_score": pa.array(scores, type=pa.float64()),
            }
        )

    def exchange(ds):
        return partition_apply(ds, ["user_id"], per_partition, num_partitions)

    return sized_plan(sf_dir, "events", ["event_id", "user_id", "value"], per_partition, exchange)


def g3_token_value_quantiles(sf_dir: str, qs=(0.5, 0.9, 0.99)):
    """G3 over the token domain (SURVEY.md §2.2: per-source token-value
    quantiles): EXACT quantiles at any scale without a sort — token ids
    live in a bounded int domain, so each batch emits one bincount
    histogram per source (map-side pre-aggregation), histograms add up
    associatively under a tiny per-source groupby, and the quantile is
    read off the merged counts.  The shuffle moves vocab-sized count
    vectors, never token data."""
    import ray.data

    from anomalydetection_ray.constants import DEFAULT_VOCAB
    from anomalydetection_ray.pipelines.rollup import validated
    from anomalydetection_ray.sources.tokenize import docs_sequences

    seqs = validated(docs_sequences(sf_dir))

    def hist_batch(batch: pa.Table) -> pa.Table:
        tokens = batch.column("tokens")
        if isinstance(tokens, pa.ChunkedArray):
            tokens = tokens.combine_chunks()
        offsets = np.asarray(tokens.offsets, dtype=np.int64)
        base = offsets[0]
        flat = np.asarray(tokens.values.slice(base, offsets[-1] - base), dtype=np.int64)
        lens = np.diff(offsets - base)
        # integer source ids at ROW level, one scatter-add pass over the
        # flat buffer (no per-token object comparisons)
        uniq, inv = np.unique(np.asarray(batch.column("source").to_pylist(), dtype=object),
                              return_inverse=True)
        src_of_tok = np.repeat(inv.astype(np.int64), lens)
        acc = np.zeros((uniq.shape[0], DEFAULT_VOCAB), dtype=np.int64)
        if flat.shape[0]:
            np.add.at(acc, (src_of_tok, flat), 1)
        return pa.table(
            {
                "source": pa.array(list(uniq), type=pa.string()),
                "hist": pa.array(list(acc), type=pa.list_(pa.int64(), DEFAULT_VOCAB)),
            }
        )

    def merge_quantiles(group: pa.Table) -> pa.Table:
        hist_col = group.column("hist")
        if isinstance(hist_col, pa.ChunkedArray):
            hist_col = hist_col.combine_chunks()
        h = (
            np.asarray(hist_col.values, dtype=np.int64)
            .reshape(group.num_rows, -1)
            .sum(axis=0)
        )
        c = np.cumsum(h)
        total = int(c[-1])
        row = {"source": [group.column("source")[0].as_py()],
               "n_tokens": [total]}
        for q in qs:
            # lower quantile: smallest v with cum count >= ceil(q * n)
            k = min(int(np.ceil(q * total)), total) if total else 0
            v = int(np.searchsorted(c, max(k, 1))) if total else 0
            row[f"p{int(q * 100)}"] = [v]
        return pa.Table.from_pydict(row)

    partials = seqs.map_batches(hist_batch, batch_format="pyarrow", zero_copy_batch=True)
    return partials.groupby("source").map_groups(merge_quantiles, batch_format="pyarrow")


A1_WINDOW = 20


def a1_moving_stats_events(sf_dir: str, num_partitions: int = 16):
    """A1 sliding-window moving stats over the events table, SQL-checked:
    each user_id is a series ordered by event_id; emit the w=20 trailing
    mean and sum-of-squares per position with min_periods=w (positions
    < w-1 yield NULL).  Values are floor(value) ints so every emitted
    float is an exact int64 / w division — bit-identical to DuckDB's
    windowed AVG regardless of either side's summation order.  Same
    partition-granular shape as rollup_events_tier1."""
    from anomalydetection_ray.stages.runs import partition_apply, run_starts

    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])
    w = A1_WINDOW

    def per_partition(batch: pa.Table) -> pa.Table:
        batch = batch.sort_by(
            [("user_id", "ascending"), ("event_id", "ascending")]
        )
        n = batch.num_rows
        out_mean = np.full(n, np.nan)
        out_ssq = np.full(n, -1, dtype=np.int64)
        if n:
            v = np.floor(np.asarray(batch.column("value"), dtype=np.float64)).astype(np.int64)
            ustarts = run_starts(batch, ["user_id"])
            uends = np.concatenate((ustarts[1:], np.array([n], dtype=np.int64)))
            # per-user cumsums restart at run boundaries: subtract the
            # running total at each user's start (exact int64 arithmetic)
            c1 = np.cumsum(v)
            c2 = np.cumsum(v * v)
            for s, e in zip(ustarts, uends):  # few-thousand users/partition
                m = e - s
                if m < w:
                    continue
                s1 = c1[s + w - 1 : e].copy()
                s1[1:] -= c1[s : e - w]
                s1[0] -= c1[s] - v[s]
                s2 = c2[s + w - 1 : e].copy()
                s2[1:] -= c2[s : e - w]
                s2[0] -= c2[s] - v[s] * v[s]
                out_mean[s + w - 1 : e] = s1 / w
                out_ssq[s + w - 1 : e] = s2
        valid = out_ssq >= 0
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_id": batch.column("event_id"),
                "mov_mean": pa.array(np.where(valid, out_mean, 0.0), type=pa.float64(),
                                     mask=~valid),
                "mov_sumsq": pa.array(np.where(valid, out_ssq, 0), type=pa.int64(),
                                      mask=~valid),
            }
        )

    return partition_apply(ds, ["user_id"], per_partition, num_partitions)


# ------------------------------------------------------------- tier0 ----
def tier0_encode_summary(sf_dir: str):
    """P2 encode of the tokenized documents corpus into a fresh tier0 dir
    (rows-only check: codecs are not SQL-expressible).  Deterministic
    output: per-partition row/token/byte counts + encoder state hash."""
    import tempfile

    from anomalydetection_ray.pipelines.ingest import ingest_pipeline
    from anomalydetection_ray.pipelines.rollup import validated as _validated
    from anomalydetection_ray.sources.tokenize import docs_sequences

    seqs = docs_sequences(sf_dir)
    out = tempfile.mkdtemp(prefix="tier0_q_")
    summary = ingest_pipeline(seqs, out, num_parts=16, resume=False)
    return summary.select_columns(
        ["part_id", "rows_emitted", "tokens_processed", "encoded_bytes", "encoder_state_hash"]
    )


def roundtrip_verify(sf_dir: str):
    """P3: encode then decode the corpus; per part-row checksum verdict
    (rows-only; the bit-level gate lives in pytest vs the oracle)."""
    import tempfile

    from anomalydetection_ray.pipelines.ingest import ingest_pipeline, verify_tier0
    from anomalydetection_ray.sources.tokenize import docs_sequences

    seqs = docs_sequences(sf_dir)
    out = tempfile.mkdtemp(prefix="tier0_rt_")
    ingest_pipeline(seqs, out, num_parts=16, resume=False).materialize()
    # value_checksum pins the decoded token bytes of every part into the
    # driver's (rows-only) hash, not just counts and verdicts
    return verify_tier0(out).select_columns(
        ["doc_id", "part_id", "n_tok", "value_checksum", "checksum_ok"])


# ---------------------------------------------------------------- S3 ----
def s3_token_counts(sf_dir: str):
    """Tokenizer + validator plumbing check: per source, part-row count and
    exact total token count after tokenize->validate."""
    from ray.data.aggregate import Count, Sum

    from anomalydetection_ray.pipelines.rollup import validated
    from anomalydetection_ray.sources.tokenize import docs_sequences

    seqs = docs_sequences(sf_dir)
    v = validated(seqs)
    return v.groupby("source").aggregate(
        Count(alias_name="parts"),
        Sum("n_tok", alias_name="sum_tok"),
    )


# ---------------------------------------------------------------- A5 ----
# Deterministic null-injection rules for the gap-fill driver surface.
# Both are VALUE-based (token value / doc id), so the DuckDB oracle
# reproduces them with a CASE expression — no replay of any engine-side
# position hashing is needed.
GAP_VAL_MOD = 31   # token % 31 == 0  -> null   (~3% of positions)
GAP_DOC_MOD = 11   # int(doc_id) % 11 == 0 -> every position null


def inject_gaps(batch: pa.Table) -> pa.Table:
    """Null-inject a tokenized ``sequences`` batch (the A5 derived table):
    token -> NULL where ``token % GAP_VAL_MOD == 0`` and for every token of
    docs with ``int(doc_id) % GAP_DOC_MOD == 0`` (all-null series exercise
    the empty-bucket ``filled=true`` carry under the drop policy).
    Vectorized over the flat child buffer."""
    tokens = batch.column("tokens")
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    offsets = np.asarray(tokens.offsets, dtype=np.int64)
    base = offsets[0]
    child = tokens.values.slice(base, offsets[-1] - base)
    vals = np.asarray(child, dtype=np.int32)
    offs = offsets - base
    lens = np.diff(offs)
    doc_col = batch.column("doc_id")
    if isinstance(doc_col, pa.ChunkedArray):
        doc_col = doc_col.combine_chunks()
    doc_null = (np.asarray(doc_col.cast(pa.int64()), dtype=np.int64) % GAP_DOC_MOD) == 0
    mask = (vals % GAP_VAL_MOD == 0) | np.repeat(doc_null, lens)
    gapped = pa.array(vals, type=pa.int32(), mask=mask)
    lists = pa.ListArray.from_arrays(pa.array(offs, type=pa.int32()), gapped)
    i = batch.schema.get_field_index("tokens")
    return batch.set_column(i, "tokens", lists)


def _gapfill_tier1(sf_dir: str, policy: str):
    from anomalydetection_ray.pipelines.rollup import rollup_pipeline
    from anomalydetection_ray.sources.tokenize import docs_sequences

    seqs = docs_sequences(sf_dir)
    gapped = seqs.map_batches(inject_gaps, batch_format="pyarrow", zero_copy_batch=True)
    return rollup_pipeline(gapped, policy=policy).filter(expr="tier == 1")


def gapfill_locf_tier1(sf_dir: str):
    """A5(a) driver surface: tier1 rollup of the null-injected token table
    under the locf gap policy (every position defined after the fill, so
    counts are full and ``filled`` is false everywhere)."""
    return _gapfill_tier1(sf_dir, "locf")


def gapfill_linear_tier1(sf_dir: str):
    """A5(c) driver surface: tier1 rollup under the linear gap policy —
    exact integer interpolation between neighbour valid points (round
    half to even), edge clamp, all-null series fill with 0; every
    position defined after the fill (stages/rollup.py ``_linear_flat``)."""
    return _gapfill_tier1(sf_dir, "linear")


def gapfill_drop_tier1(sf_dir: str):
    """A5(b) driver surface: tier1 rollup under the drop policy — stats
    skip invalid positions (counts reflect valid points only) and all-null
    buckets emit ``filled=true`` rows with null min/max, count 0 and the
    previous bucket's mean (0.0 if leading)."""
    return _gapfill_tier1(sf_dir, "drop")


# ------------------------------------------------- round-3 Q/J extras ----
def q4_stratified_sample(sf_dir: str):
    """Stratified per-group sampling (Q3's grouped form): each source gets
    its own deterministic rate — 100 * (1 + len(source) % 7) basis points
    of 10000 — and membership is the same layout-independent Knuth hash of
    doc_id that q3 uses.  Both the rate rule and the hash are reproduced
    verbatim in the SQL oracle."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def samp(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.uint64)
        src = batch.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        slen = np.asarray(pa.compute.utf8_length(src), dtype=np.uint64)
        rate = np.uint64(100) * (np.uint64(1) + slen % np.uint64(7))
        h = (ids * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)
        keep = (h % np.uint64(10000)) < rate
        return batch.filter(pa.array(keep))

    return ds.map_batches(samp, batch_format="pyarrow", zero_copy_batch=True)


def _grouped_topk_kernel(group: pa.Table, k: int) -> pa.Table:
    from anomalydetection_ray.stages.runs import run_starts

    if group.num_rows == 0:
        return group
    g = group.sort_by([("event_type", "ascending"), ("value", "descending"),
                       ("event_id", "ascending")])
    starts = run_starts(g, ["event_type"])
    n = g.num_rows
    lens = np.diff(np.append(starts, n))
    rank = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
    return g.filter(pa.array(rank < k))


def q5_grouped_topk(sf_dir: str, k: int = 3):
    """Grouped top-k (per event_type, k best by value desc / event_id asc
    tiebreak) — the per-group variant of Q2's global top-k, with the same
    prune discipline: every batch keeps at most k rows per group BEFORE
    the exchange, so the groupby shuffles at most k * n_groups rows per
    block instead of the table."""
    import functools

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    pruned = ds.map_batches(
        functools.partial(_grouped_topk_kernel, k=k),
        batch_format="pyarrow", zero_copy_batch=True)
    return pruned.groupby("event_type").map_groups(
        functools.partial(_grouped_topk_kernel, k=k),
        batch_format="pyarrow")


SKETCH_M = 4096
SKETCH_MIX = 2654435761


def g4_approx_distinct(sf_dir: str):
    """G4 — approximate distinct users per event_type by linear
    (bitmap) counting, Whang et al. 1990: bucket = Knuth multiplicative
    hash of user_id mod m; estimate = m * ln(m / (m - occupied)).  The
    sketch property that matters at 100 TB: per-block partial state is a
    DISTINCT (type, bucket) set — bounded by m per type regardless of
    block size — and merging is set union, so the exchange after the map
    carries at most n_types * m rows per block.  Both the hash and the
    estimator are integer-deterministic and reproduced verbatim in the
    SQL oracle (the final ln is one libm call on an exact integer
    ratio)."""
    import math

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        uid = np.asarray(batch.column("user_id"), dtype=np.uint64)
        b = (uid * np.uint64(SKETCH_MIX)) % np.uint64(4294967296) % np.uint64(SKETCH_M)
        t = pa.table({
            "event_type": batch.column("event_type"),
            "bucket": pa.array(b.astype(np.int64), type=pa.int64()),
        })
        return t.group_by(["event_type", "bucket"]).aggregate([])

    def estimate(group: pa.Table) -> pa.Table:
        occ = int(np.unique(np.asarray(group.column("bucket"))).shape[0])
        est = float(SKETCH_M) * math.log(SKETCH_M / float(SKETCH_M - occ))
        return pa.table({
            "event_type": group.column("event_type").slice(0, 1),
            "m": pa.array([SKETCH_M], type=pa.int64()),
            "occupied": pa.array([occ], type=pa.int64()),
            "est_distinct": pa.array([est], type=pa.float64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return partials.groupby("event_type").map_groups(estimate, batch_format="pyarrow")


HIST_WIDTH = 10.0
HIST_BINS = 35

HLL_M = 256          # registers (2^8)
HLL_WBITS = 24       # rank window bits: h = bucket(8) | w(24)
HLL_ALPHA_NUM = 0.7213
HLL_ALPHA_DEN = 1.0 + 1.079 / 256.0


def g7_hll_distinct(sf_dir: str):
    """G7 — HyperLogLog distinct users per event_type (Flajolet et al.
    2007), the constant-space complement of G4's linear counting: h =
    Knuth hash of user_id mod 2^32, bucket = low 8 bits, register =
    max(25 − bitlen(high 24 bits)).  Per-block partial state is ≤
    types · 256 (bucket, rho) rows regardless of block size; merging is
    elementwise max (associative, exact).  The register harmonic sum is
    carried as the EXACT integer ``s_int = Σ 2^(25−reg)`` (≤ 2^33, so
    order-free), and the estimate — with the standard small-range
    linear-counting correction — is a pinned IEEE expression the SQL
    oracle replays verbatim."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        uid = np.asarray(batch.column("user_id"), dtype=np.uint64)
        h = (uid * np.uint64(SKETCH_MIX)) % np.uint64(2**32)
        bucket = (h % np.uint64(HLL_M)).astype(np.int64)
        w = (h >> np.uint64(8)).astype(np.int64)
        # bit length via frexp exponent (exact for ints < 2^53)
        bl = np.frexp(w.astype(np.float64))[1].astype(np.int64)
        rho = (HLL_WBITS + 1) - bl
        t = pa.table({"event_type": batch.column("event_type"),
                      "bucket": pa.array(bucket, type=pa.int64()),
                      "rho": pa.array(rho, type=pa.int64())})
        g = t.group_by(["event_type", "bucket"]).aggregate([("rho", "max")])
        return pa.table({"event_type": g.column("event_type"),
                         "bucket": g.column("bucket"),
                         "rho": pc.cast(g.column("rho_max"), pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def estimate(group: pa.Table) -> pa.Table:
        import math

        b = np.asarray(group.column("bucket"), dtype=np.int64)
        r = np.asarray(group.column("rho"), dtype=np.int64)
        regs = np.zeros(HLL_M, dtype=np.int64)
        np.maximum.at(regs, b, r)
        n_zero = int(np.count_nonzero(regs == 0))
        s_int = int((np.int64(1) << (HLL_WBITS + 1 - regs)).sum())
        raw = ((HLL_ALPHA_NUM / HLL_ALPHA_DEN) * 65536.0 * 33554432.0) \
            / float(s_int)
        if raw <= 2.5 * HLL_M and n_zero > 0:
            est = float(HLL_M) * math.log(float(HLL_M) / float(n_zero))
        else:
            est = raw
        return pa.table({
            "event_type": group.column("event_type").slice(0, 1),
            "m": pa.array([HLL_M], type=pa.int64()),
            "s_int": pa.array([s_int], type=pa.int64()),
            "n_zero": pa.array([n_zero], type=pa.int64()),
            "est_hll": pa.array([est], type=pa.float64()),
        })

    return partials.groupby("event_type").map_groups(
        estimate, batch_format="pyarrow")

CMS_W = 1024  # counters per row
CMS_A = (2654435761, 2246822519, 3266489917, 668265263)  # odd multipliers
CMS_B = (40503, 65537, 4101842887, 362437)


def _value_bin(batch: pa.Table) -> pa.Array:
    """G6's bin of each value: clamp(floor(value / width), 0, bins−1)."""
    v = np.asarray(batch.column("value"), dtype=np.float64)
    return pa.array(np.minimum(np.floor(v / HIST_WIDTH), HIST_BINS - 1)
                    .astype(np.int64))


def g6_value_histogram(sf_dir: str):
    """G6 — fixed-bin value histograms per event_type: bin = clamp(floor
    (value / width), 0, bins−1).  Plan: ``_events_grid`` over the
    (type, bin) grid."""
    def derive(batch: pa.Table) -> pa.Table:
        return pa.table({"event_type": batch.column("event_type"),
                         "bin": _value_bin(batch), "n": _ones(batch.num_rows)})

    return _events_grid(sf_dir, ["event_type", "value"], derive,
                        ["event_type", "bin"], ["n"], lambda g: g)


def _cms_cells(uid: np.ndarray) -> np.ndarray:
    """(4, len) cell indices: h_j(u) = ((u·A_j + B_j) mod 2^32) mod w —
    the G4 hash family, one row per (A, B) pair."""
    u = uid.astype(np.uint64)
    return np.stack([
        (((u * np.uint64(a)) + np.uint64(b)) % np.uint64(2**32))
        % np.uint64(CMS_W)
        for a, b in zip(CMS_A, CMS_B)
    ]).astype(np.int64)


def g5_heavy_hitters_cms(sf_dir: str, k: int = 10):
    """G5 — heavy hitters with a count-min sketch (Cormode &
    Muthukrishnan 2005): per-block partial sketches (a single 4×1024
    int64 row each — ONE row per block crosses the exchange regardless
    of block size), merged by elementwise sum (associative, exact), then
    the top-k users' exact counts compared against their CMS estimates
    (min over the 4 rows; always ≥ exact).  Every counter cell is an
    exact integer count of hash-colliding events, so the whole sketch is
    reproduced verbatim in the SQL oracle."""
    import ray.data

    ds = _read(sf_dir, "events", ["user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        uid = np.asarray(batch.column("user_id"), dtype=np.int64)
        cells = _cms_cells(uid)
        sketch = np.zeros((len(CMS_A), CMS_W), dtype=np.int64)
        for j in range(len(CMS_A)):
            np.add.at(sketch[j], cells[j], 1)
        return pa.table({
            "k": pa.array([0], type=pa.int64()),
            "sketch": pa.array([sketch.reshape(-1).tolist()],
                               type=pa.list_(pa.int64())),
        })

    def merge(group: pa.Table) -> pa.Table:
        sl = group.column("sketch")
        if isinstance(sl, pa.ChunkedArray):
            sl = sl.combine_chunks()
        mat = np.asarray(sl.values, dtype=np.int64).reshape(
            group.num_rows, -1)
        return pa.table({
            "k": group.column("k").slice(0, 1),
            "sketch": pa.array([mat.sum(axis=0).tolist()],
                               type=pa.list_(pa.int64())),
        })

    rows = (ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("k").map_groups(merge, batch_format="pyarrow")
            .take_all())
    sketch = np.asarray(rows[0]["sketch"], dtype=np.int64).reshape(
        len(CMS_A), CMS_W)

    # exact top-k users (tiny distributed count + block-pruned top-k)
    from anomalydetection_ray.stages.topk import topk as _topk

    counts = _read(sf_dir, "events", ["user_id"]).groupby(
        "user_id").count()
    top = _topk(counts, k, [("count()", "descending"),
                            ("user_id", "ascending")]).take_all()
    uids = np.array([r["user_id"] for r in top], dtype=np.int64)
    exact = np.array([r["count()"] for r in top], dtype=np.int64)
    cells = _cms_cells(uids)
    est = sketch[np.arange(len(CMS_A))[:, None], cells].min(axis=0)
    return ray.data.from_arrow(pa.table({
        "user_id": pa.array(uids, type=pa.int64()),
        "n_exact": pa.array(exact, type=pa.int64()),
        "n_cms": pa.array(est, type=pa.int64()),
    }))


def d3_value_drift(sf_dir: str):
    """D3 — temporal distribution-drift check: the G6 value histogram
    computed separately over interleaved day-parity halves (even vs odd
    epoch days) per event_type, with the per-bin chi-square contribution
    ``(a−b)² / (a+b)``.  The training-data use: detect whether a
    feature's distribution shifts across collection time before the data
    is mixed into one corpus.  Counts are exact integers; the chi² term
    is one exact-int square and one pinned IEEE division per bin.  Plan:
    ``_events_grid`` over the (type, bin) grid, both halves' counts as
    measures."""
    def derive(batch: pa.Table) -> pa.Table:
        odd = (_ts_us(batch) // DAY_US_Q) % 2
        return pa.table({"event_type": batch.column("event_type"),
                         "bin": _value_bin(batch), "n_even": pa.array(1 - odd),
                         "n_odd": pa.array(odd)})

    def finalize(grid: pa.Table) -> pa.Table:
        a = np.asarray(grid.column("n_even"), dtype=np.int64)
        b = np.asarray(grid.column("n_odd"), dtype=np.int64)
        term = ((a - b) * (a - b)).astype(np.float64) / (a + b).astype(np.float64)
        return grid.append_column("chi2_term", pa.array(term))

    return _events_grid(sf_dir, ["event_type", "ts", "value"], derive,
                        ["event_type", "bin"], ["n_even", "n_odd"], finalize)


def j6_anti_join(sf_dir: str, price_floor: float = 400000.0):
    """J6 — distributed anti join via the J3 co-partition layout:
    customers with NO order above ``price_floor``.  The orders side is
    pre-aggregated (groupby o_custkey -> count) so the exchange carries
    one row per matching customer key, then ``copartition_attach``
    attaches the count and the anti filter keeps the null rows.  No
    broadcast of a large-table key set at any scale."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    from anomalydetection_ray.stages.join import copartition_attach

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    big = orders.filter(expr=f"o_totalprice > {price_floor!r}")
    counts = big.groupby("o_custkey").aggregate(Count(alias_name="n_big"))

    joined = copartition_attach(cust, counts, left_on="c_custkey",
                                right_on="o_custkey", payload_cols=["n_big"])

    def anti(batch: pa.Table) -> pa.Table:
        keep = pc.is_null(batch.column("n_big"))
        return batch.filter(keep).select(["c_custkey", "c_name", "c_acctbal"])

    return joined.map_batches(anti, batch_format="pyarrow", zero_copy_batch=True)


QUOTA_SEED_MIX = (7 * 2654435761) & 0xFFFFFFFF  # seed 7, q6-style mix


def q7_quota_sample(sf_dir: str, k: int = 20):
    """Q7 — per-source quota sampling (the corpus-balancing cap: at most
    ``k`` documents per source, chosen by a seeded content hash so the
    cap is layout- and run-independent).  Grouped-top-k discipline: every
    block prunes to ≤ k rows per source BEFORE the exchange, so the
    groupby shuffles at most k·n_sources rows per block regardless of
    corpus size.  Order inside a source: (hash asc, doc_id asc) — a
    deterministic total order the SQL oracle replays with row_number."""
    import functools

    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def prune(batch: pa.Table, k: int) -> pa.Table:
        from anomalydetection_ray.stages.runs import run_starts

        if batch.num_rows == 0:
            return pa.table({"source": pa.array([], type=pa.string()),
                             "doc_id": pa.array([], type=pa.int64()),
                             "h": pa.array([], type=pa.int64())})
        d = np.asarray(batch.column("doc_id"), dtype=np.uint64)
        h = (((d % np.uint64(2**32)) ^ np.uint64(QUOTA_SEED_MIX))
             * np.uint64(2654435761)) % np.uint64(2**32)
        t = pa.table({"source": batch.column("source"),
                      "doc_id": pa.array(d.astype(np.int64), type=pa.int64()),
                      "h": pa.array(h.astype(np.int64), type=pa.int64())})
        t = t.sort_by([("source", "ascending"), ("h", "ascending"),
                       ("doc_id", "ascending")])
        starts = run_starts(t, ["source"])
        lens = np.diff(np.append(starts, t.num_rows))
        rank = np.arange(t.num_rows, dtype=np.int64) - np.repeat(starts, lens)
        return t.filter(pa.array(rank < k))

    pruned = ds.map_batches(functools.partial(prune, k=k),
                            batch_format="pyarrow", zero_copy_batch=True)
    return pruned.groupby("source").map_groups(
        functools.partial(prune, k=k), batch_format="pyarrow")


def q8_split_stats(sf_dir: str):
    """Q8 — deterministic train/val/test split assignment + per-split
    stats: split = doc_id % 10 (< 8 train, 8 val, 9 test — the D4
    contamination check's split rule), per split doc count, exact char
    sum and doc_id min/max.  Partial Arrow group_by per block (≤ 3 rows
    cross the exchange per block), tiny final merge."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch.column("doc_id"), dtype=np.int64)
        m = d % 10
        split = np.where(m < 8, "train", np.where(m == 8, "val", "test"))
        t = pa.table({
            "split": pa.array(split.tolist(), type=pa.string()),
            "doc_id": batch.column("doc_id"),
            "n_chars": batch.column("n_chars"),
        })
        g = t.group_by("split").aggregate(
            [([], "count_all"), ("n_chars", "sum"),
             ("doc_id", "min"), ("doc_id", "max")])
        return pa.table({
            "split": g.column("split"),
            "n_docs": pc.cast(g.column("count_all"), pa.int64()),
            "chars_sum": pc.cast(g.column("n_chars_sum"), pa.int64()),
            "doc_min": pc.cast(g.column("doc_id_min"), pa.int64()),
            "doc_max": pc.cast(g.column("doc_id_max"), pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def merge(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "split": group.column("split").slice(0, 1),
            "n_docs": pa.array([int(pc.sum(group.column("n_docs")).as_py())],
                               type=pa.int64()),
            "chars_sum": pa.array(
                [int(pc.sum(group.column("chars_sum")).as_py())],
                type=pa.int64()),
            "doc_min": pa.array([int(pc.min(group.column("doc_min")).as_py())],
                                type=pa.int64()),
            "doc_max": pa.array([int(pc.max(group.column("doc_max")).as_py())],
                                type=pa.int64()),
        })

    return partials.groupby("split").map_groups(merge, batch_format="pyarrow")


EMB_QSCALE = 1_048_576  # 2^20 micro-quantization for exact embedding sums


def k2_label_centroids(sf_dir: str):
    """K2 — per-label embedding centroids (the class-prototype /
    nearest-centroid building block next to K1's k-means): exact
    integer-quantized per-(label, dim) sums so the distributed mean is
    block-order independent, one pinned IEEE division at the end.
    Per-block partials collapse to ≤ labels · dim rows before the
    exchange; the final groupby is over the tiny (label, dim) grid."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "embeddings", ["embedding", "label"])

    def partial(batch: pa.Table) -> pa.Table:
        lab = np.asarray(batch.column("label"), dtype=np.int64)
        emb = batch.column("embedding")
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        m = np.asarray(emb.values, dtype=np.float64).reshape(len(lab), -1)
        q = np.floor(m * EMB_QSCALE + 0.5).astype(np.int64)
        dim = q.shape[1]
        # per-label vectorized reduction: sort rows by label, reduceat
        order = np.argsort(lab, kind="stable")
        ls = lab[order]
        qs = q[order]
        starts = np.flatnonzero(np.r_[True, ls[1:] != ls[:-1]])
        sums = np.add.reduceat(qs, starts, axis=0)
        cnts = np.diff(np.append(starts, len(ls)))
        n_grp = len(starts)
        return pa.table({
            "label": pa.array(np.repeat(ls[starts], dim), type=pa.int64()),
            "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64), n_grp),
                            type=pa.int64()),
            "n": pa.array(np.repeat(cnts, dim), type=pa.int64()),
            "sum_q": pa.array(sums.reshape(-1), type=pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def merge(group: pa.Table) -> pa.Table:
        n = int(pc.sum(group.column("n")).as_py())
        sq = int(pc.sum(group.column("sum_q")).as_py())
        return pa.table({
            "label": group.column("label").slice(0, 1),
            "dim": group.column("dim").slice(0, 1),
            "n": pa.array([n], type=pa.int64()),
            "sum_q": pa.array([sq], type=pa.int64()),
            "mean": pa.array([float(sq) / float(n * EMB_QSCALE)],
                             type=pa.float64()),
        })

    return partials.groupby(["label", "dim"]).map_groups(
        merge, batch_format="pyarrow")


def s6_jsonl_roundtrip(sf_dir: str):
    """S6 — JSONL source/sink round trip: the documents table is written
    to JSON-lines (distributed ``write_json``, one shard per block) and
    read back through ``read_json``, then aggregated per source (doc
    count, exact char sum, whitespace word-count sum).  The oracle
    computes the same aggregates from the original PARQUET — the check
    passes only if the alternate wire format preserved every row and
    every text byte.  At scale this is the lakehouse-interchange path
    (JSONL in, parquet tiers out); the aggregate keeps the verification
    payload tiny."""
    import shutil
    import tempfile

    import pyarrow.compute as pc
    import ray.data

    out = tempfile.mkdtemp(prefix="anomray_jsonl_")
    try:
        (_read(sf_dir, "documents", ["doc_id", "source", "n_chars", "text"])
            .write_json(out))
        back = ray.data.read_json(out)

        def partial(batch: pa.Table) -> pa.Table:
            text = batch.column("text")
            if isinstance(text, pa.ChunkedArray):
                text = text.combine_chunks()
            words = pc.list_value_length(pc.split_pattern(text, " "))
            t = pa.table({
                "source": batch.column("source"),
                "n_chars": pc.cast(batch.column("n_chars"), pa.int64()),
                "ws_words": pc.cast(words, pa.int64()),
            })
            g = t.group_by("source").aggregate(
                [([], "count_all"), ("n_chars", "sum"), ("ws_words", "sum")])
            return pa.table({
                "source": g.column("source"),
                "n_docs": pc.cast(g.column("count_all"), pa.int64()),
                "chars_sum": pc.cast(g.column("n_chars_sum"), pa.int64()),
                "words_sum": pc.cast(g.column("ws_words_sum"), pa.int64()),
            })

        partials = back.map_batches(partial, batch_format="pyarrow")

        def merge(group: pa.Table) -> pa.Table:
            return pa.table({
                "source": group.column("source").slice(0, 1),
                "n_docs": pa.array(
                    [int(pc.sum(group.column("n_docs")).as_py())],
                    type=pa.int64()),
                "chars_sum": pa.array(
                    [int(pc.sum(group.column("chars_sum")).as_py())],
                    type=pa.int64()),
                "words_sum": pa.array(
                    [int(pc.sum(group.column("words_sum")).as_py())],
                    type=pa.int64()),
            })

        res = partials.groupby("source").map_groups(
            merge, batch_format="pyarrow")
        # materialize before the tmp dir vanishes (lazy reads would fail)
        return ray.data.from_arrow(pa.concat_tables(
            list(res.iter_batches(batch_format="pyarrow"))))
    finally:
        shutil.rmtree(out, ignore_errors=True)


J7_PRICE_FLOOR = 300_000.0


def j7_left_join_agg(sf_dir: str):
    """J7 — left OUTER join + aggregate: per-customer count and exact
    cents total of HIGH-VALUE orders (>= the price floor), keeping
    customers with NO qualifying order at explicit zeros — the outer-join
    semantics J3's inner aggregate can't express (every driver customer
    has some order, so the floor is what makes the null-fill path real).
    Orders pre-aggregate map-side (one row per customer per block crosses
    the first exchange), then the per-customer totals attach to customers
    via the J3 co-partitioned layout — ``copartition_attach`` is
    null-filling by construction, and the final map pass turns unmatched
    nulls into the outer join's zeros."""
    import pyarrow.compute as pc

    from anomalydetection_ray.stages.join import copartition_attach

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        price = np.asarray(batch.column("o_totalprice"), dtype=np.float64)
        keep = price >= J7_PRICE_FLOOR
        cents = np.floor(price[keep] * 100 + 0.5).astype(np.int64)
        ck = batch.column("o_custkey")
        if isinstance(ck, pa.ChunkedArray):
            ck = ck.combine_chunks()
        t = pa.table({"o_custkey": ck.filter(pa.array(keep)),
                      "cents": pa.array(cents, type=pa.int64())})
        g = t.group_by("o_custkey").aggregate(
            [([], "count_all"), ("cents", "sum")])
        return pa.table({"o_custkey": g.column("o_custkey"),
                         "n_orders": pc.cast(g.column("count_all"), pa.int64()),
                         "cents": pc.cast(g.column("cents_sum"), pa.int64())})

    from anomalydetection_ray.stages.runs import agg_by

    per_cust = agg_by(
        orders.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["o_custkey"],
        [("n_orders", "sum", "n_orders"), ("cents", "sum", "cents")])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    joined = copartition_attach(cust, per_cust, left_on="c_custkey",
                                right_on="o_custkey",
                                payload_cols=["n_orders", "cents"])

    def fill(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": batch.column("c_custkey"),
            "c_mktsegment": batch.column("c_mktsegment"),
            "n_orders": pc.fill_null(batch.column("n_orders"), 0),
            "cents": pc.fill_null(batch.column("cents"), 0),
        })

    return joined.map_batches(fill, batch_format="pyarrow")


def m4_string_fns(sf_dir: str):
    """M4 — vectorized string scalar functions over the part table
    (substring → int cast, whitespace word count, utf8 length, case
    fold): the per-row string-transform coverage next to M3's token
    array functions.  All Arrow C kernels — no Python per row."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "part",
               ["p_partkey", "p_name", "p_brand", "p_type"])

    def fns(batch: pa.Table) -> pa.Table:
        name = batch.column("p_name")
        if isinstance(name, pa.ChunkedArray):
            name = name.combine_chunks()
        brand = batch.column("p_brand")
        if isinstance(brand, pa.ChunkedArray):
            brand = brand.combine_chunks()
        return pa.table({
            "p_partkey": batch.column("p_partkey"),
            "brand_num": pc.cast(pc.utf8_slice_codeunits(brand, 6),
                                 pa.int64()),
            "n_name_words": pc.cast(
                pc.list_value_length(pc.split_pattern(name, " ")),
                pa.int64()),
            "name_len": pc.cast(pc.utf8_length(name), pa.int64()),
            "name_upper": pc.utf8_upper(name),
            "type_lower": pc.utf8_lower(batch.column("p_type")),
        })

    return ds.map_batches(fns, batch_format="pyarrow", zero_copy_batch=True)


def g8_grouping_sets(sf_dir: str):
    """G8 — multi-grain aggregate (SQL GROUPING SETS) in ONE corpus scan:
    per-(event_type, day), per-event_type, and grand-total counts + exact
    micro-quantized value sums, all from the same pass.  Each block emits
    Arrow group_by partials for every grain (<= types*days + types + 1
    rows per block), a single tiny exchange merges them; rolled-up key
    positions are NULL exactly as ``GROUP BY GROUPING SETS`` emits them,
    with grain = number of rolled keys."""
    import pyarrow.compute as pc

    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type")
        ts = batch.column("ts")
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        ts_us = np.asarray(ts.cast(pa.int64()))
        day = ts_us // DAY_US
        v = np.asarray(batch.column("value"), dtype=np.float64)
        vq = np.floor(v * 1_000_000 + 0.5).astype(np.int64)
        t = pa.table({"event_type": et,
                      "day": pa.array(day, type=pa.int64()),
                      "vq": pa.array(vq, type=pa.int64())})
        g0 = t.group_by(["event_type", "day"]).aggregate(
            [("vq", "sum"), ([], "count_all")])
        parts = [pa.table({
            "grain": pa.array([0] * g0.num_rows, type=pa.int64()),
            "event_type": g0.column("event_type"),
            "day": g0.column("day"),
            "n": pc.cast(g0.column("count_all"), pa.int64()),
            "vq_sum": pc.cast(g0.column("vq_sum"), pa.int64()),
        })]
        g1 = t.group_by(["event_type"]).aggregate(
            [("vq", "sum"), ([], "count_all")])
        parts.append(pa.table({
            "grain": pa.array([1] * g1.num_rows, type=pa.int64()),
            "event_type": g1.column("event_type"),
            "day": pa.array([-1] * g1.num_rows, type=pa.int64()),
            "n": pc.cast(g1.column("count_all"), pa.int64()),
            "vq_sum": pc.cast(g1.column("vq_sum"), pa.int64()),
        }))
        parts.append(pa.table({
            "grain": pa.array([2], type=pa.int64()),
            "event_type": pa.array([""], type=pa.string()),
            "day": pa.array([-1], type=pa.int64()),
            "n": pa.array([t.num_rows], type=pa.int64()),
            "vq_sum": pa.array([int(vq.sum())], type=pa.int64()),
        }))
        return pa.concat_tables(parts)

    def merge(t: pa.Table) -> pa.Table:
        g = t.group_by(keys).aggregate([("n", "sum"), ("vq_sum", "sum")])
        grain = g.column("grain")
        return pa.table({
            "grain": grain,
            "event_type": pc.if_else(pc.less(grain, 2), g.column("event_type"),
                                     pa.scalar(None, pa.string())),
            "day": pc.if_else(pc.less(grain, 1), g.column("day"),
                              pa.scalar(None, pa.int64())),
            "n": g.column("n_sum"),
            "vq_sum": g.column("vq_sum_sum"),
        })

    keys = ["grain", "event_type", "day"]
    return sized_plan(sf_dir, "events", ["event_type", "ts", "value"],
                  lambda t: merge(partial(t)),
                  lambda ds: ds.map_batches(partial, batch_format="pyarrow",
                                            zero_copy_batch=True)
                  .groupby(keys).map_groups(merge, batch_format="pyarrow"))


def j8_semi_join(sf_dir: str, price_floor: float = 400000.0):
    """J8 — distributed semi join, the complement of J6's anti join:
    customers WITH at least one order above ``price_floor``.  Identical
    co-partitioned machinery (orders pre-aggregated to one row per
    matching key before the exchange); the filter keeps non-null rows —
    `EXISTS` semantics with no row duplication however many orders match."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    from anomalydetection_ray.stages.join import copartition_attach

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    big = orders.filter(expr=f"o_totalprice > {price_floor!r}")
    counts = big.groupby("o_custkey").aggregate(Count(alias_name="n_big"))

    joined = copartition_attach(cust, counts, left_on="c_custkey",
                                right_on="o_custkey", payload_cols=["n_big"])

    def semi(batch: pa.Table) -> pa.Table:
        keep = pc.is_valid(batch.column("n_big"))
        return batch.filter(keep).select(["c_custkey", "c_name", "c_acctbal"])

    return joined.map_batches(semi, batch_format="pyarrow", zero_copy_batch=True)


def t7_pivot_events(sf_dir: str):
    """T7 — pivot (long -> wide): per event_type, one row with a count
    column per day-of-week.  Per-block Arrow group_by partials (<= types*7
    rows per block) cross one tiny exchange keyed on event_type; the final
    kernel scatters the 7 counts into fixed columns.  The SQL oracle is
    the textbook conditional aggregation."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["event_type", "ts"])
    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts")
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        ts_us = np.asarray(ts.cast(pa.int64()))
        # epoch day 0 = Thursday, so weekday (Mon=0) = (day + 3) % 7
        dow = ((ts_us // DAY_US) + 3) % 7
        t = pa.table({"event_type": batch.column("event_type"),
                      "dow": pa.array(dow, type=pa.int64())})
        g = t.group_by(["event_type", "dow"]).aggregate([([], "count_all")])
        return pa.table({"event_type": g.column("event_type"),
                         "dow": g.column("dow"),
                         "n": pc.cast(g.column("count_all"), pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def widen(group: pa.Table) -> pa.Table:
        d = np.asarray(group.column("dow"), dtype=np.int64)
        n = np.asarray(group.column("n"), dtype=np.int64)
        counts = np.zeros(7, dtype=np.int64)
        np.add.at(counts, d, n)
        cols = {"event_type": group.column("event_type").slice(0, 1)}
        for i in range(7):
            cols[f"dow_{i}"] = pa.array([int(counts[i])], type=pa.int64())
        return pa.table(cols)

    return partials.groupby("event_type").map_groups(
        widen, batch_format="pyarrow")


def s7_csv_roundtrip(sf_dir: str):
    """S7 — CSV source/sink round trip, the third interchange format next
    to parquet (S1/S4) and JSONL (S6): the lineitem table's numeric core
    is written to CSV shards (distributed ``write_csv``) and read back
    through ``read_csv``, then aggregated per return flag.  Quantities and
    keys are integers and prices exact cents, so the text round trip is
    lossless and the oracle (same aggregates off the original parquet)
    passes only if every field survived the format conversion."""
    import shutil
    import tempfile

    import pyarrow.compute as pc
    import ray.data

    out = tempfile.mkdtemp(prefix="anomray_csv_")
    try:
        (_read(sf_dir, "lineitem",
               ["l_orderkey", "l_quantity", "l_extendedprice", "l_returnflag"])
            .write_csv(out))
        back = ray.data.read_csv(out)

        def partial(batch: pa.Table) -> pa.Table:
            price = np.asarray(batch.column("l_extendedprice"),
                               dtype=np.float64)
            cents = np.floor(price * 100 + 0.5).astype(np.int64)
            t = pa.table({
                "l_returnflag": batch.column("l_returnflag"),
                "qty": pc.cast(batch.column("l_quantity"), pa.int64()),
                "cents": pa.array(cents, type=pa.int64()),
                "okey": pc.cast(batch.column("l_orderkey"), pa.int64()),
            })
            g = t.group_by("l_returnflag").aggregate(
                [([], "count_all"), ("qty", "sum"), ("cents", "sum"),
                 ("okey", "sum")])
            return pa.table({
                "l_returnflag": g.column("l_returnflag"),
                "n_rows": pc.cast(g.column("count_all"), pa.int64()),
                "qty_sum": pc.cast(g.column("qty_sum"), pa.int64()),
                "cents_sum": pc.cast(g.column("cents_sum"), pa.int64()),
                "okey_sum": pc.cast(g.column("okey_sum"), pa.int64()),
            })

        partials = back.map_batches(partial, batch_format="pyarrow")

        def merge(group: pa.Table) -> pa.Table:
            cols = {"l_returnflag": group.column("l_returnflag").slice(0, 1)}
            for c in ("n_rows", "qty_sum", "cents_sum", "okey_sum"):
                cols[c] = pa.array([int(pc.sum(group.column(c)).as_py())],
                                   type=pa.int64())
            return pa.table(cols)

        res = partials.groupby("l_returnflag").map_groups(
            merge, batch_format="pyarrow")
        return ray.data.from_arrow(pa.concat_tables(
            list(res.iter_batches(batch_format="pyarrow"))))
    finally:
        shutil.rmtree(out, ignore_errors=True)


def d5_set_ops(sf_dir: str):
    """D5 — distributed set operations (INTERSECT / EXCEPT) between two
    derived key sets: users who purchased AND errored vs users who
    purchased but never errored.  One scan computes per-block DISTINCT
    (user, flag) partials (<= 2*users rows per block — never one row per
    event), one exchange keyed on user_id ORs the flags, and the classify
    map emits the op tag.  The SQL oracle uses the real INTERSECT/EXCEPT
    operators."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type")
        in_a = pc.equal(et, "purchase")
        in_b = pc.equal(et, "error")
        t = pa.table({"user_id": batch.column("user_id"),
                      "in_a": in_a, "in_b": in_b})
        t = t.filter(pc.or_(in_a, in_b))
        g = t.group_by("user_id").aggregate([("in_a", "max"), ("in_b", "max")])
        return pa.table({"user_id": g.column("user_id"),
                         "in_a": g.column("in_a_max"),
                         "in_b": g.column("in_b_max")})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    from anomalydetection_ray.stages.runs import agg_by

    merged = agg_by(partials, ["user_id"],
                    [("in_a", "max", "in_a"), ("in_b", "max", "in_b")])

    def classify(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column("in_a").combine_chunks()
                       if isinstance(batch.column("in_a"), pa.ChunkedArray)
                       else batch.column("in_a"))
        b = np.asarray(batch.column("in_b").combine_chunks()
                       if isinstance(batch.column("in_b"), pa.ChunkedArray)
                       else batch.column("in_b"))
        keep = a  # purchased; b alone contributes no row
        op = np.where(b[keep], "intersect", "except")
        return pa.table({
            "user_id": batch.column("user_id").filter(pa.array(keep)),
            "setop": pa.array(op, type=pa.string()),
        })

    return merged.map_batches(classify, batch_format="pyarrow",
                              zero_copy_batch=True)


def m5_json_props(sf_dir: str):
    """M5 — semi-structured property extraction: pull the integer ``k``
    out of the events table's JSON ``props`` column and aggregate it per
    event_type (count, exact sum, min/max).  The extraction is an Arrow
    RE2 ``extract_regex`` C kernel (the props schema is fixed
    ``{"k": <int>}``, so the pattern is total); the oracle uses DuckDB's
    real JSON path functions — two independent parsers that must agree on
    every value."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["event_type", "props"])

    def partial(batch: pa.Table) -> pa.Table:
        props = batch.column("props")
        if isinstance(props, pa.ChunkedArray):
            props = props.combine_chunks()
        m = pc.extract_regex(props, r'"k":\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        t = pa.table({"event_type": batch.column("event_type"), "k": k})
        g = t.group_by("event_type").aggregate(
            [([], "count_all"), ("k", "sum"), ("k", "min"), ("k", "max")])
        return pa.table({
            "event_type": g.column("event_type"),
            "n": pc.cast(g.column("count_all"), pa.int64()),
            "k_sum": pc.cast(g.column("k_sum"), pa.int64()),
            "k_min": pc.cast(g.column("k_min"), pa.int64()),
            "k_max": pc.cast(g.column("k_max"), pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def merge(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "event_type": group.column("event_type").slice(0, 1),
            "n": pa.array([int(pc.sum(group.column("n")).as_py())],
                          type=pa.int64()),
            "k_sum": pa.array([int(pc.sum(group.column("k_sum")).as_py())],
                              type=pa.int64()),
            "k_min": pa.array([int(pc.min(group.column("k_min")).as_py())],
                              type=pa.int64()),
            "k_max": pa.array([int(pc.max(group.column("k_max")).as_py())],
                              type=pa.int64()),
        })

    return partials.groupby("event_type").map_groups(
        merge, batch_format="pyarrow")


def w11_funnel(sf_dir: str):
    """W11 — funnel analysis: per user, the first-occurrence timestamps of
    view -> click -> purchase and the funnel stage reached (the chain
    holds only while each first event strictly precedes the next).  One
    scan; per-block partials = per-user min-ts per step (Arrow min skips
    nulls, so a conditional null-mask gives FILTER semantics), <= users*1
    rows per block cross the exchange; the final merge re-mins and
    classifies."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts")
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        ts_us = ts.cast(pa.int64())
        et = batch.column("event_type")
        cols = {"user_id": batch.column("user_id")}
        for name, typ in (("t_view", "view"), ("t_click", "click"),
                          ("t_purchase", "purchase")):
            cols[name] = pc.if_else(pc.equal(et, typ), ts_us,
                                    pa.scalar(None, type=pa.int64()))
        t = pa.table(cols)
        g = t.group_by("user_id").aggregate(
            [("t_view", "min"), ("t_click", "min"), ("t_purchase", "min")])
        return pa.table({
            "user_id": g.column("user_id"),
            "t_view": g.column("t_view_min"),
            "t_click": g.column("t_click_min"),
            "t_purchase": g.column("t_purchase_min"),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    from anomalydetection_ray.stages.runs import partition_apply, run_starts as _rs

    def merge(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "t_view": pa.array([], type=pa.int64()),
                "t_click": pa.array([], type=pa.int64()),
                "t_purchase": pa.array([], type=pa.int64()),
                "stage": pa.array([], type=pa.int64()),
            })
        part = part.sort_by([("user_id", "ascending")])
        starts = _rs(part, ["user_id"])

        def min_col(name):
            # nulls -> NaN; np.fmin ignores NaN, so this is a null-
            # skipping grouped min.  Epoch-us ints < 2^53: float64-exact.
            c = part.column(name)
            if isinstance(c, pa.ChunkedArray):
                c = c.combine_chunks()
            v = c.to_numpy(zero_copy_only=False).astype(np.float64)
            return np.fmin.reduceat(v, starts)

        tv, tc, tp = (min_col(n) for n in ("t_view", "t_click",
                                           "t_purchase"))
        has_v, has_c, has_p = (~np.isnan(x) for x in (tv, tc, tp))
        stage = np.where(
            ~has_v, 0,
            np.where(~has_c | (tc <= tv), 1,
                     np.where(~has_p | (tp <= tc), 2, 3)))

        def int_or_null(x, has):
            return pa.array(np.where(has, x, 0).astype(np.int64),
                            type=pa.int64(), mask=~has)

        return pa.table({
            "user_id": part.column("user_id").take(
                pa.array(starts, type=pa.int64())),
            "t_view": int_or_null(tv, has_v),
            "t_click": int_or_null(tc, has_c),
            "t_purchase": int_or_null(tp, has_p),
            "stage": pa.array(stage, type=pa.int64()),
        })

    return partition_apply(partials, ["user_id"], merge)


def g9_mode_day(sf_dir: str):
    """G9 — per-group mode with deterministic tiebreak: the busiest day
    per event_type (count desc, day asc).  Two-level exchange discipline:
    per-block (type, day) count partials collapse before the shuffle, the
    per-(type, day) counts merge, then a per-type argmax over the tiny
    (type, day) grid — the exact-mode plan that never ships raw rows."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["event_type", "ts"])
    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts")
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        day = np.asarray(ts.cast(pa.int64())) // DAY_US
        t = pa.table({"event_type": batch.column("event_type"),
                      "day": pa.array(day, type=pa.int64())})
        g = t.group_by(["event_type", "day"]).aggregate([([], "count_all")])
        return pa.table({"event_type": g.column("event_type"),
                         "day": g.column("day"),
                         "n": pc.cast(g.column("count_all"), pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def pick(group: pa.Table) -> pa.Table:
        d = np.asarray(group.column("day"), dtype=np.int64)
        n = np.asarray(group.column("n"), dtype=np.int64)
        # merge split partials of the same day, then argmax w/ min-day tie
        ud, inv = np.unique(d, return_inverse=True)
        tot = np.zeros(ud.shape[0], dtype=np.int64)
        np.add.at(tot, inv, n)
        best = int(np.lexsort((ud, -tot))[0])
        return pa.table({
            "event_type": group.column("event_type").slice(0, 1),
            "mode_day": pa.array([int(ud[best])], type=pa.int64()),
            "mode_n": pa.array([int(tot[best])], type=pa.int64()),
        })

    return partials.groupby("event_type").map_groups(
        pick, batch_format="pyarrow")


def g10_corr_events(sf_dir: str):
    """G10 — grouped Pearson correlation between two columns (the JSON
    ``k`` property x the exact value cents) per event_type.  Per-block
    partials carry the six exact integer moment sums (n, Sx, Sy, Sxx,
    Syy, Sxy) — one row per type per block; the final combination is
    arbitrary-precision Python ints (W5's discipline) and the correlation
    itself exactly three pinned float ops (two casts' products, one sqrt,
    one division) the SQL oracle replays verbatim."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["event_type", "value", "props"])

    def partial(batch: pa.Table) -> pa.Table:
        props = batch.column("props")
        if isinstance(props, pa.ChunkedArray):
            props = props.combine_chunks()
        m = pc.extract_regex(props, r'"k":\s*(?P<k>-?\d+)')
        x = np.asarray(pc.cast(pc.struct_field(m, "k"), pa.int64()))
        v = np.asarray(batch.column("value"), dtype=np.float64)
        y = np.floor(v * 100 + 0.5).astype(np.int64)
        t = pa.table({
            "event_type": batch.column("event_type"),
            "x": pa.array(x, type=pa.int64()),
            "y": pa.array(y, type=pa.int64()),
            "xx": pa.array(x * x, type=pa.int64()),
            "yy": pa.array(y * y, type=pa.int64()),
            "xy": pa.array(x * y, type=pa.int64()),
        })
        g = t.group_by("event_type").aggregate(
            [([], "count_all"), ("x", "sum"), ("y", "sum"),
             ("xx", "sum"), ("yy", "sum"), ("xy", "sum")])
        return pa.table({
            "event_type": g.column("event_type"),
            "n": pc.cast(g.column("count_all"), pa.int64()),
            "sx": pc.cast(g.column("x_sum"), pa.int64()),
            "sy": pc.cast(g.column("y_sum"), pa.int64()),
            "sxx": pc.cast(g.column("xx_sum"), pa.int64()),
            "syy": pc.cast(g.column("yy_sum"), pa.int64()),
            "sxy": pc.cast(g.column("xy_sum"), pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def corr(group: pa.Table) -> pa.Table:
        import math

        import pyarrow.compute as pc

        n = int(pc.sum(group.column("n")).as_py())
        sx = int(pc.sum(group.column("sx")).as_py())
        sy = int(pc.sum(group.column("sy")).as_py())
        sxx = int(pc.sum(group.column("sxx")).as_py())
        syy = int(pc.sum(group.column("syy")).as_py())
        sxy = int(pc.sum(group.column("sxy")).as_py())
        num = n * sxy - sx * sy
        d1 = n * sxx - sx * sx
        d2 = n * syy - sy * sy
        r = None if d1 == 0 or d2 == 0 \
            else float(num) / math.sqrt(float(d1) * float(d2))
        return pa.table({
            "event_type": group.column("event_type").slice(0, 1),
            "n": pa.array([n], type=pa.int64()),
            "sxy": pa.array([sxy], type=pa.int64()),
            "corr_xy": pa.array([r], type=pa.float64()),
        })

    return partials.groupby("event_type").map_groups(
        corr, batch_format="pyarrow")


def s8_schema_evolution(sf_dir: str):
    """S8 — schema-evolution union read: half the corpus is persisted
    with a v1 schema (doc_id, source, n_chars), half with a v2 schema
    that carries the later-added ``lang`` column.  The reader unifies the
    two layouts — v1 rows surface ``lang = NULL`` — and aggregates per
    source, counting rows that carry the new column and the 'en' subset
    of them (pinning the carried values, not just their presence).  This
    is the lakehouse reality that a column added mid-corpus must not fork
    the pipeline.  The even/odd id split is deterministic, so the SQL
    oracle reproduces every aggregate straight off the original table."""
    import shutil
    import tempfile

    import pyarrow.compute as pc
    import ray.data

    out1 = tempfile.mkdtemp(prefix="anomray_sv1_")
    out2 = tempfile.mkdtemp(prefix="anomray_sv2_")
    try:
        docs = _read(sf_dir, "documents",
                     ["doc_id", "source", "n_chars", "lang"])

        def split(batch: pa.Table, keep_even: bool) -> pa.Table:
            even = pc.equal(
                pc.bit_wise_and(pc.cast(batch.column("doc_id"), pa.int64()),
                                1), 0)
            return batch.filter(even if keep_even else pc.invert(even))

        (docs.map_batches(lambda b: split(b, True).select(
            ["doc_id", "source", "n_chars"]), batch_format="pyarrow")
            .write_parquet(out1))
        (docs.map_batches(lambda b: split(b, False), batch_format="pyarrow")
            .write_parquet(out2))

        v1 = ray.data.read_parquet(out1).map_batches(
            lambda b: b.append_column(
                "lang", pa.array([None] * b.num_rows, type=pa.string())),
            batch_format="pyarrow")
        both = v1.union(ray.data.read_parquet(out2))

        def partial(batch: pa.Table) -> pa.Table:
            lang = batch.column("lang")
            if isinstance(lang, pa.ChunkedArray):
                lang = lang.combine_chunks()
            t = pa.table({
                "source": batch.column("source"),
                "nc": pc.cast(batch.column("n_chars"), pa.int64()),
                "hl": pc.cast(pc.is_valid(lang), pa.int64()),
                "en": pc.cast(pc.fill_null(pc.equal(lang, "en"), False),
                              pa.int64()),
            })
            g = t.group_by("source").aggregate(
                [([], "count_all"), ("nc", "sum"), ("hl", "sum"),
                 ("en", "sum")])
            return pa.table({
                "source": g.column("source"),
                "n_docs": pc.cast(g.column("count_all"), pa.int64()),
                "chars_sum": pc.cast(g.column("nc_sum"), pa.int64()),
                "n_with_lang": pc.cast(g.column("hl_sum"), pa.int64()),
                "n_en": pc.cast(g.column("en_sum"), pa.int64()),
            })

        def merge(group: pa.Table) -> pa.Table:
            cols = {"source": group.column("source").slice(0, 1)}
            for c in ("n_docs", "chars_sum", "n_with_lang", "n_en"):
                cols[c] = pa.array([int(pc.sum(group.column(c)).as_py())],
                                   type=pa.int64())
            return pa.table(cols)

        res = both.map_batches(partial, batch_format="pyarrow") \
                  .groupby("source").map_groups(merge, batch_format="pyarrow")
        return ray.data.from_arrow(pa.concat_tables(
            list(res.iter_batches(batch_format="pyarrow"))))
    finally:
        shutil.rmtree(out1, ignore_errors=True)
        shutil.rmtree(out2, ignore_errors=True)


def g11_distinct_users(sf_dir: str):
    """G11 — exact distributed COUNT(DISTINCT): distinct users per
    event_type.  Per-block partials collapse to the DISTINCT (type, user)
    pairs present in the block (<= types*users rows per block, never one
    per event), the exchange carries only those, and the final per-type
    count de-dups again — the standard two-level exact-distinct plan."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"event_type": batch.column("event_type"),
                      "user_id": batch.column("user_id")})
        return t.group_by(["event_type", "user_id"]).aggregate([])

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def count(group: pa.Table) -> pa.Table:
        u = np.asarray(group.column("user_id"), dtype=np.int64)
        return pa.table({
            "event_type": group.column("event_type").slice(0, 1),
            "n_users": pa.array([int(np.unique(u).shape[0])],
                                type=pa.int64()),
        })

    return partials.groupby("event_type").map_groups(
        count, batch_format="pyarrow")


def g12_last_event(sf_dir: str):
    """G12 — argmax aggregate (`arg_max` / "last value"): each user's
    most recent event's value and type, tie on ts broken by max event_id.
    Per-block partials keep ONE candidate row per user (the block-local
    argmax), so the exchange is bounded by users*blocks; the final merge
    re-argmaxes the candidates."""
    ds = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "value", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts")
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        t = pa.table({
            "user_id": batch.column("user_id"),
            "ts_us": ts.cast(pa.int64()),
            "event_id": batch.column("event_id"),
            "value": batch.column("value"),
            "event_type": batch.column("event_type"),
        }).sort_by([("user_id", "ascending"), ("ts_us", "ascending"),
                    ("event_id", "ascending")])
        from anomalydetection_ray.stages.runs import run_starts

        n = t.num_rows
        if n == 0:
            return t
        starts = run_starts(t, ["user_id"])
        last = np.append(starts[1:], n) - 1
        return t.take(pa.array(last))

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    from anomalydetection_ray.stages.runs import partition_apply, run_starts as _rs

    def merge(part: pa.Table) -> pa.Table:
        empty = pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "last_ts_us": pa.array([], type=pa.int64()),
            "last_event_id": pa.array([], type=pa.int64()),
            "last_value": pa.array([], type=pa.float64()),
            "last_type": pa.array([], type=pa.string()),
        })
        if part.num_rows == 0:
            return empty
        part = part.sort_by([("user_id", "ascending"),
                             ("ts_us", "ascending"),
                             ("event_id", "ascending")])
        starts = _rs(part, ["user_id"])
        last = pa.array(np.append(starts[1:], part.num_rows) - 1,
                        type=pa.int64())
        t = part.take(last)
        return pa.table({
            "user_id": t.column("user_id"),
            "last_ts_us": t.column("ts_us"),
            "last_event_id": t.column("event_id"),
            "last_value": t.column("value"),
            "last_type": t.column("event_type"),
        })

    return partition_apply(partials, ["user_id"], merge)


TPCH_Q3_CUT_US = 883_612_800_000_000  # 1998-01-01 in epoch microseconds


def tpch_q3_like(sf_dir: str, k: int = 10, segment: str = "BUILDING"):
    """Composed relational analytics (the TPC-H Q3 shape): revenue of
    not-yet-shipped BUILDING-segment orders — a three-table join +
    aggregate + top-k that exercises J1 (broadcast dim filter), map-side
    pre-aggregation, J3 (co-partitioned fact-fact attach) and Q2 (block-
    pruned top-k) in ONE pipeline.

    Scale shape: the filtered customer key set broadcasts (dim-table
    assumption); lineitem revenue pre-aggregates per orderkey inside each
    block BEFORE the exchange; orders ships only (okey, odate); the only
    all-to-all is the co-partitioned attach on orderkey; top-k never
    global-sorts.  Revenue is exact cents from the pinned expression
    ``floor(price * (1 - disc) * 100 + 0.5)`` the SQL oracle replays."""
    import pyarrow.compute as pc

    from anomalydetection_ray.stages.join import copartition_attach
    from anomalydetection_ray.stages.topk import topk

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    ckeys = set()
    for b in cust.filter(expr=f"c_mktsegment == {segment!r}") \
                 .iter_batches(batch_format="pyarrow"):
        ckeys.update(b.column("c_custkey").to_pylist())
    # tiny dim-side key set (one row per matching customer) -> broadcast
    ckeys_arr = pa.array(sorted(ckeys), type=pa.int64())

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])

    def ord_filter(batch: pa.Table) -> pa.Table:
        od = batch.column("o_orderdate")
        if isinstance(od, pa.ChunkedArray):
            od = od.combine_chunks()
        od_us = od.cast(pa.int64())
        keep = pc.and_(pc.is_in(batch.column("o_custkey"),
                                value_set=ckeys_arr),
                       pc.less(od_us, TPCH_Q3_CUT_US))
        return pa.table({
            "o_orderkey": batch.column("o_orderkey"),
            "o_date_us": od_us,
        }).filter(keep)

    ord_small = orders.map_batches(ord_filter, batch_format="pyarrow",
                                   zero_copy_batch=True)

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])

    def rev_partial(batch: pa.Table) -> pa.Table:
        sd = batch.column("l_shipdate")
        if isinstance(sd, pa.ChunkedArray):
            sd = sd.combine_chunks()
        keep = np.asarray(sd.cast(pa.int64())) > TPCH_Q3_CUT_US
        price = np.asarray(batch.column("l_extendedprice"),
                           dtype=np.float64)[keep]
        disc = np.asarray(batch.column("l_discount"), dtype=np.float64)[keep]
        okey = np.asarray(batch.column("l_orderkey"), dtype=np.int64)[keep]
        cents = np.floor(price * (1.0 - disc) * 100 + 0.5).astype(np.int64)
        t = pa.table({"l_orderkey": pa.array(okey, type=pa.int64()),
                      "cents": pa.array(cents, type=pa.int64())})
        g = t.group_by("l_orderkey").aggregate([("cents", "sum")])
        return pa.table({"l_orderkey": g.column("l_orderkey"),
                         "cents": pc.cast(g.column("cents_sum"), pa.int64())})

    li_partials = li.map_batches(rev_partial, batch_format="pyarrow",
                                 zero_copy_batch=True)

    joined = copartition_attach(li_partials, ord_small,
                                left_on="l_orderkey",
                                right_on="o_orderkey",
                                payload_cols=["o_date_us"])

    from anomalydetection_ray.stages.runs import agg_by

    # inner-join semantics: orders outside the segment/date window carry
    # a null o_date_us on EVERY row of their group (o_orderkey is unique
    # on the right side), so the null filter drops whole groups
    matched = joined.map_batches(
        lambda b: b.filter(pc.is_valid(b.column("o_date_us"))),
        batch_format="pyarrow", zero_copy_batch=True)
    per_order = agg_by(matched, ["l_orderkey"],
                       [("cents", "sum", "revenue_cents"),
                        ("o_date_us", "first", "o_date_us")])
    return topk(per_order, k, [("revenue_cents", "descending"),
                               ("o_date_us", "ascending"),
                               ("l_orderkey", "ascending")])


def m6_unnest_tokens(sf_dir: str, max_doc_id: int = 5):
    """M6 — explode / unnest: the tokenized list column flattened to one
    row per (doc, position, token) for a bounded id range (the relational
    UNNEST).  Map-only flat_map semantics: the expansion happens inside
    each task straight off the list array's flat child buffer —
    offsets-to-rows by repeat/arange, zero per-row Python."""
    from anomalydetection_ray.sources.tokenize import tokenize_batch

    import ray.data

    docs = (ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                  columns=["doc_id", "source", "text"])
            .filter(expr=f"doc_id < {max_doc_id}"))
    seqs = docs.map_batches(tokenize_batch, batch_format="pyarrow",
                            zero_copy_batch=True)

    def explode(batch: pa.Table) -> pa.Table:
        from anomalydetection_ray.stages.rollup import _flat_tokens

        vals, valid, offsets = _flat_tokens(batch)
        lens = np.diff(offsets)
        row_of = np.repeat(np.arange(lens.shape[0], dtype=np.int64), lens)
        pos = np.arange(vals.shape[0], dtype=np.int64) \
            - np.repeat(offsets[:-1], lens)
        return pa.table({
            "doc_id": batch.column("doc_id").take(pa.array(row_of)),
            "pos": pa.array(pos, type=pa.int64()),
            "token": pa.array(vals.astype(np.int64), type=pa.int64()),
        })

    return seqs.map_batches(explode, batch_format="pyarrow",
                            zero_copy_batch=True)


def m7_cross_join(sf_dir: str):
    """M7 — cross join (small x small broadcast grid): every (nation,
    region) combination with a pair label and a membership flag (whether
    the nation actually belongs to that region).  The canonical scaffold
    builder: the tiny side is collected once and broadcast into a
    flat-expansion map over the other — at scale this is dim x dim, never
    fact x anything."""
    import pyarrow.compute as pc
    import ray.data

    region = _read(sf_dir, "region", ["r_regionkey", "r_name"])
    rtbl = pa.concat_tables(list(region.iter_batches(batch_format="pyarrow")))
    rkeys = np.asarray(rtbl.column("r_regionkey"), dtype=np.int64)
    rnames = rtbl.column("r_name").to_pylist()
    order = np.argsort(rkeys, kind="stable")
    rkeys, rnames = rkeys[order], [rnames[i] for i in order]
    R = rkeys.shape[0]

    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"])

    def grid(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        row_of = np.repeat(np.arange(n, dtype=np.int64), R)
        ridx = np.tile(np.arange(R, dtype=np.int64), n)
        nk = np.asarray(batch.column("n_nationkey"), dtype=np.int64)[row_of]
        nreg = np.asarray(batch.column("n_regionkey"), dtype=np.int64)[row_of]
        nname = batch.column("n_name").take(pa.array(row_of))
        rname = pa.array([rnames[i] for i in ridx], type=pa.string())
        return pa.table({
            "n_nationkey": pa.array(nk, type=pa.int64()),
            "n_name": nname,
            "r_regionkey": pa.array(rkeys[ridx], type=pa.int64()),
            "r_name": rname,
            "pair": pc.binary_join_element_wise(nname, rname, "|"),
            "is_member": pa.array(nreg == rkeys[ridx], type=pa.bool_()),
        })

    return nation.map_batches(grid, batch_format="pyarrow",
                              zero_copy_batch=True)


def q9_activity_gaps(sf_dir: str):
    """Q9 — per-user activity-gap report: days with at least one event vs
    the corpus' full day span (the coverage/completeness check run before
    a timeseries model trusts its inputs).  Per-block DISTINCT (user, day)
    pairs collapse before the exchange; the global day span is a tiny
    separate aggregate broadcast into the final map."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts")
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        day = np.asarray(ts.cast(pa.int64())) // DAY_US
        t = pa.table({"user_id": batch.column("user_id"),
                      "day": pa.array(day, type=pa.int64())})
        return t.group_by(["user_id", "day"]).aggregate([])

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    # tiny global day-span aggregate (2 ints to the driver)
    import ray.data
    from ray.data.aggregate import Max, Min

    span = ds.map_batches(
        lambda b: pa.table({"day": pa.array(
            np.asarray((b.column("ts").combine_chunks()
                        if isinstance(b.column("ts"), pa.ChunkedArray)
                        else b.column("ts")).cast(pa.int64())) // DAY_US,
            type=pa.int64())}),
        batch_format="pyarrow").aggregate(Min("day"), Max("day"))
    total_days = int(span["max(day)"]) - int(span["min(day)"]) + 1

    from anomalydetection_ray.stages.runs import partition_apply, run_starts as _rs

    def count(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "active_days": pa.array([], type=pa.int64()),
                "gap_days": pa.array([], type=pa.int64()),
            })
        part = part.sort_by([("user_id", "ascending"), ("day", "ascending")])
        u_starts = _rs(part, ["user_id"])
        pair_starts = _rs(part, ["user_id", "day"])
        # distinct (user, day) runs per user: count pair-run starts that
        # fall inside each user's row span
        active = np.diff(np.append(
            np.searchsorted(pair_starts, u_starts), pair_starts.shape[0]))
        return pa.table({
            "user_id": part.column("user_id").take(
                pa.array(u_starts, type=pa.int64())),
            "active_days": pa.array(active, type=pa.int64()),
            "gap_days": pa.array(total_days - active, type=pa.int64()),
        })

    return partition_apply(partials, ["user_id"], count)


def a8_seasonal_components(sf_dir: str, period: int = 24):
    """A8b — the seasonal DECOMPOSITION surface itself: per (doc, part,
    phase) the phase-median seasonal component the S-H-ESD detector
    subtracts (phase = position mod period).  Map-only: a series lives
    entirely in its row, so every phase median is block-local; the kernel
    is ONE lexsort over the flat buffer serving all (row, phase) segments
    (`segment_medians`).  Medians of ints are exact halves — bitwise
    SQL-reproducible."""
    import functools

    from anomalydetection_ray.functions.stats import segment_medians
    from anomalydetection_ray.pipelines.rollup import validated
    from anomalydetection_ray.sources.tokenize import docs_sequences

    import pyarrow.compute as pc
    seqs = validated(docs_sequences(sf_dir))

    def components(batch: pa.Table) -> pa.Table:
        from anomalydetection_ray.stages.rollup import _flat_tokens

        vals, valid, offsets = _flat_tokens(batch)
        if valid is not None:
            vals = np.where(valid, vals, 0)
        v = vals.astype(np.float64)
        lens = np.diff(offsets)
        nrows = lens.shape[0]
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        local = np.arange(v.shape[0], dtype=np.int64) \
            - np.repeat(offsets[:-1], lens)
        seg = row_of * period + (local % period)
        nseg = nrows * period
        counts = np.bincount(seg, minlength=nseg).astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        med = segment_medians(v, seg, nseg, starts, counts)
        live = np.flatnonzero(counts > 0)
        out_row = live // period
        return pa.table({
            "doc_id": batch.column("doc_id").take(pa.array(out_row)),
            "part_id": pc.cast(batch.column("part_id")
                               .take(pa.array(out_row)), pa.int64()),
            "phase": pa.array(live % period, type=pa.int64()),
            "n": pa.array(counts[live], type=pa.int64()),
            "phase_median": pa.array(med[live], type=pa.float64()),
        })

    return seqs.map_batches(components, batch_format="pyarrow",
                            zero_copy_batch=True)


def u1_upsert_merge(sf_dir: str):
    """U1 — upsert / MERGE INTO (last-writer-wins): a derived updates
    stream (every 7th event re-priced and time-bumped one day — a
    deterministic rule the oracle replays) merges into the base events
    table; for each event_id the row with the latest (ts, is_update)
    wins.  The G12 argmax discipline: per-block one candidate row per
    key, one exchange, final re-argmax — at scale this is the standard
    CDC-compaction plan (never a full sort)."""
    import pyarrow.compute as pc

    DAY_US = 86_400_000_000
    base = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def to_typed(batch: pa.Table, is_update: bool) -> pa.Table:
        ts = batch.column("ts")
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        ts_us = np.asarray(ts.cast(pa.int64()))
        v = np.asarray(batch.column("value"), dtype=np.float64)
        eid = np.asarray(batch.column("event_id"), dtype=np.int64)
        if is_update:
            keep = eid % 7 == 0
            eid, ts_us, v = eid[keep], ts_us[keep] + DAY_US, v[keep] + 1000.0
            uid = np.asarray(batch.column("user_id"), dtype=np.int64)[keep]
        else:
            uid = np.asarray(batch.column("user_id"), dtype=np.int64)
        return pa.table({
            "event_id": pa.array(eid, type=pa.int64()),
            "ts_us": pa.array(ts_us, type=pa.int64()),
            "user_id": pa.array(uid, type=pa.int64()),
            "value": pa.array(v, type=pa.float64()),
            "is_update": pa.array(np.full(len(eid), is_update), pa.bool_()),
        })

    base_t = base.map_batches(lambda b: to_typed(b, False),
                              batch_format="pyarrow", zero_copy_batch=True)
    updates = base.map_batches(lambda b: to_typed(b, True),
                               batch_format="pyarrow", zero_copy_batch=True)
    both = base_t.union(updates)

    def local_argmax(batch: pa.Table) -> pa.Table:
        from anomalydetection_ray.stages.runs import run_starts

        if batch.num_rows == 0:
            return batch
        t = batch.sort_by([("event_id", "ascending"), ("ts_us", "ascending"),
                           ("is_update", "ascending")])
        starts = run_starts(t, ["event_id"])
        last = np.append(starts[1:], t.num_rows) - 1
        return t.take(pa.array(last))

    partials = both.map_batches(local_argmax, batch_format="pyarrow")

    from anomalydetection_ray.stages.runs import partition_apply, run_starts as _rs

    def merge(part: pa.Table) -> pa.Table:
        # last-writer-wins argmax per event_id: sort the whole partition
        # by (event_id, ts_us, is_update) and take the last row of every
        # event_id run — no per-event Python
        if part.num_rows == 0:
            return part
        t = part.sort_by([("event_id", "ascending"), ("ts_us", "ascending"),
                          ("is_update", "ascending")])
        starts = _rs(t, ["event_id"])
        last = np.append(starts[1:], t.num_rows) - 1
        return t.take(pa.array(last, type=pa.int64()))

    return partition_apply(partials, ["event_id"], merge)


def g13_gini_nchars(sf_dir: str):
    """G13 — per-source Gini coefficient of document lengths (the
    inequality statistic a curator reads to spot skewed sources):
    G = Σ_i (2i − n − 1)·x_(i) / (n · Σx) over the ascending-sorted
    lengths, ties broken by doc_id for a deterministic total order.
    Numerator and denominator are exact int64 (weights are ±n-bounded
    ints), the coefficient is ONE pinned division.  One `_pkey`-style
    exchange keyed on source; the kernel is a sort + one weighted dot."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def per_source(group: pa.Table) -> pa.Table:
        t = group.sort_by([("n_chars", "ascending"), ("doc_id", "ascending")])
        x = np.asarray(t.column("n_chars"), dtype=np.int64)
        n = x.shape[0]
        i = np.arange(1, n + 1, dtype=np.int64)
        num = int(((2 * i - n - 1) * x).sum())
        den = n * int(x.sum())
        gini = None if den == 0 else float(num) / float(den)
        return pa.table({
            "source": t.column("source").slice(0, 1),
            "n_docs": pa.array([n], type=pa.int64()),
            "gini_num": pa.array([num], type=pa.int64()),
            "gini_den": pa.array([den], type=pa.int64()),
            "gini": pa.array([gini], type=pa.float64()),
        })

    return ds.groupby("source").map_groups(per_source,
                                           batch_format="pyarrow")


def s9_quarantine(sf_dir: str):
    """S9 — malformed-row quarantine (the error side-channel every
    production ingest needs): a corrupted copy of the corpus (every 13th
    doc's text truncated — deterministic injection the oracle replays) is
    read back and ROUTED BY INVARIANT CHECK (`n_chars == length(text)`),
    never by the injection rule: intact rows flow to the clean channel,
    violating rows to quarantine, both summarized per (source, channel).
    The check passing proves the invariant catches exactly the injected
    corruption — the engine and oracle arrive at the same rows by
    independent routes."""
    import shutil
    import tempfile

    import pyarrow.compute as pc
    import ray.data

    out = tempfile.mkdtemp(prefix="anomray_quar_")
    try:
        docs = _read(sf_dir, "documents",
                     ["doc_id", "source", "n_chars", "text"])

        def corrupt(batch: pa.Table) -> pa.Table:
            ids = pc.cast(batch.column("doc_id"), pa.int64())
            text = batch.column("text")
            if isinstance(text, pa.ChunkedArray):
                text = text.combine_chunks()
            bad_np = np.asarray(ids) % 13 == 0
            trunc = pc.utf8_slice_codeunits(text, 0, 10)
            new_text = pc.if_else(pa.array(bad_np), trunc, text)
            return pa.table({
                "doc_id": batch.column("doc_id"),
                "source": batch.column("source"),
                "n_chars": batch.column("n_chars"),
                "text": new_text,
            })

        docs.map_batches(corrupt, batch_format="pyarrow",
                         zero_copy_batch=True).write_parquet(out)
        back = ray.data.read_parquet(out)

        def route(batch: pa.Table) -> pa.Table:
            text = batch.column("text")
            if isinstance(text, pa.ChunkedArray):
                text = text.combine_chunks()
            ln = pc.cast(pc.utf8_length(text), pa.int64())
            ok = pc.equal(ln, pc.cast(batch.column("n_chars"), pa.int64()))
            t = pa.table({
                "source": batch.column("source"),
                "channel": pc.if_else(ok, pa.scalar("ok"),
                                      pa.scalar("quarantined")),
                "chars": ln,
            })
            g = t.group_by(["source", "channel"]).aggregate(
                [([], "count_all"), ("chars", "sum")])
            return pa.table({
                "source": g.column("source"),
                "channel": g.column("channel"),
                "n_rows": pc.cast(g.column("count_all"), pa.int64()),
                "chars_sum": pc.cast(g.column("chars_sum"), pa.int64()),
            })

        partials = back.map_batches(route, batch_format="pyarrow")

        def merge(group: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return pa.table({
                "source": group.column("source").slice(0, 1),
                "channel": group.column("channel").slice(0, 1),
                "n_rows": pa.array(
                    [int(pc.sum(group.column("n_rows")).as_py())],
                    type=pa.int64()),
                "chars_sum": pa.array(
                    [int(pc.sum(group.column("chars_sum")).as_py())],
                    type=pa.int64()),
            })

        res = partials.groupby(["source", "channel"]).map_groups(
            merge, batch_format="pyarrow")
        return ray.data.from_arrow(pa.concat_tables(
            list(res.iter_batches(batch_format="pyarrow"))))
    finally:
        shutil.rmtree(out, ignore_errors=True)


def g14_skewness(sf_dir: str):
    """G14 — per-group skewness of the JSON ``k`` property (population
    skew g1 = m3 / m2^{3/2} over the n-scaled central moments
    m2 = n·Σx² − (Σx)² and m3 = n²·Σx³ − 3n·Σx·Σx² + 2(Σx)³, whose n
    powers cancel exactly in the ratio).  Per-block
    partials carry (n, Σx, Σx², Σx³); the combination is bigint per group
    and the statistic four pinned float ops."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["event_type", "props"])

    def partial(batch: pa.Table) -> pa.Table:
        props = batch.column("props")
        if isinstance(props, pa.ChunkedArray):
            props = props.combine_chunks()
        m = pc.extract_regex(props, r'"k":\s*(?P<k>-?\d+)')
        x = np.asarray(pc.cast(pc.struct_field(m, "k"), pa.int64()))
        t = pa.table({
            "event_type": batch.column("event_type"),
            "x": pa.array(x, type=pa.int64()),
            "x2": pa.array(x * x, type=pa.int64()),
            "x3": pa.array(x * x * x, type=pa.int64()),
        })
        g = t.group_by("event_type").aggregate(
            [([], "count_all"), ("x", "sum"), ("x2", "sum"), ("x3", "sum")])
        return pa.table({
            "event_type": g.column("event_type"),
            "n": pc.cast(g.column("count_all"), pa.int64()),
            "s1": pc.cast(g.column("x_sum"), pa.int64()),
            "s2": pc.cast(g.column("x2_sum"), pa.int64()),
            "s3": pc.cast(g.column("x3_sum"), pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def skew(group: pa.Table) -> pa.Table:
        import math

        import pyarrow.compute as pc

        n = int(pc.sum(group.column("n")).as_py())
        s1 = int(pc.sum(group.column("s1")).as_py())
        s2 = int(pc.sum(group.column("s2")).as_py())
        s3 = int(pc.sum(group.column("s3")).as_py())
        m2 = n * s2 - s1 * s1
        m3 = n * n * s3 - 3 * n * s1 * s2 + 2 * s1 * s1 * s1
        g1 = None if m2 <= 0 else \
            float(m3) / (float(m2) * math.sqrt(float(m2)))
        return pa.table({
            "event_type": group.column("event_type").slice(0, 1),
            "n": pa.array([n], type=pa.int64()),
            "m2_scaled": pa.array([m2], type=pa.int64()),
            "m3_scaled": pa.array([m3], type=pa.int64()),
            "skewness": pa.array([g1], type=pa.float64()),
        })

    return partials.groupby("event_type").map_groups(
        skew, batch_format="pyarrow")


# ---------------------------------------------------------------- Z1 ----
def _morton_spread16(v: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of each value to the even bit positions
    (Morton/Z-order encoding, the magic-mask ladder)."""
    v = v.astype(np.uint64) & np.uint64(0xFFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x33333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x55555555)
    return v


def z1_zorder_layout(sf_dir: str, bucket_shift: int = 9):
    """Z1 — Z-order (Morton) clustering layout key, the lakehouse
    ``OPTIMIZE ZORDER BY (user_id, day)`` primitive: interleave the low
    16 bits of the two dimensions into one locality-preserving sort key,
    bucket rows by its top bits, and emit the per-bucket ZONE MAP (count,
    exact z-sum, min/max of both dimensions) — the artifact that shows
    why the layout prunes: each bucket covers a bounded rectangle of the
    (user, day) plane, so a predicate on EITHER dimension skips most
    buckets' files.

    Scale shape: map-only z computation (five mask-shift ops per
    dimension), per-block Arrow group_by partials (<= n_buckets rows per
    block), one tiny exchange on bucket.  Oracle: the bit-interleave is
    re-derived in SQL as an exact 16-term BIGINT sum per row."""
    import pyarrow.compute as pc

    DAY_US = 86_400_000_000
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts")
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        day = (np.asarray(ts.cast(pa.int64())) // DAY_US) % 65536
        uid = np.asarray(batch.column("user_id").combine_chunks()
                         if isinstance(batch.column("user_id"), pa.ChunkedArray)
                         else batch.column("user_id"), dtype=np.int64) % 65536
        z = (_morton_spread16(uid)
             | (_morton_spread16(day) << np.uint64(1))).astype(np.int64)
        t = pa.table({
            "bucket": pa.array(z >> bucket_shift, type=pa.int64()),
            "z": pa.array(z, type=pa.int64()),
            "x": pa.array(uid, type=pa.int64()),
            "y": pa.array(day.astype(np.int64), type=pa.int64()),
        })
        g = t.group_by(["bucket"]).aggregate(
            [([], "count_all"), ("z", "sum"), ("x", "min"), ("x", "max"),
             ("y", "min"), ("y", "max")])
        return pa.table({
            "bucket": g.column("bucket"),
            "n": pc.cast(g.column("count_all"), pa.int64()),
            "sum_z": pc.cast(g.column("z_sum"), pa.int64()),
            "min_user": g.column("x_min"), "max_user": g.column("x_max"),
            "min_day": g.column("y_min"), "max_day": g.column("y_max"),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def merge(group: pa.Table) -> pa.Table:
        return pa.table({
            "bucket": group.column("bucket").slice(0, 1),
            "n": pa.array([int(np.asarray(group.column("n")).sum())],
                          type=pa.int64()),
            "sum_z": pa.array([int(np.asarray(group.column("sum_z")).sum())],
                              type=pa.int64()),
            "min_user": pa.array([int(np.asarray(group.column("min_user")).min())],
                                 type=pa.int64()),
            "max_user": pa.array([int(np.asarray(group.column("max_user")).max())],
                                 type=pa.int64()),
            "min_day": pa.array([int(np.asarray(group.column("min_day")).min())],
                                type=pa.int64()),
            "max_day": pa.array([int(np.asarray(group.column("max_day")).max())],
                                type=pa.int64()),
        })

    return partials.groupby("bucket").map_groups(merge, batch_format="pyarrow")


# ---------------------------------------------------------------- T10 ----
def t10_column_profile(sf_dir: str):
    """T10 — column profiler over the events table: per column, row
    count, null count, EXACT distinct count, and type-appropriate
    min/max (numeric columns as DOUBLE — int64 magnitudes here are well
    under 2**53 so the cast is exact; string columns as VARCHAR, binary
    collation on ASCII data).  The data-quality surface every ingest
    runs first.

    Scale shape: two partial streams, both collapse-before-exchange —
    (a) per-block scalar stats: 6 rows per block; (b) per-block DISTINCT
    (column, key) pairs (the G11 exact-distinct discipline; the key is
    an injective string encoding — doubles via their int64 bit pattern,
    so distinctness transfers).  Union + one tiny groupby(column)
    coalesces both streams.  Oracle: one UNION ALL arm per column."""
    import pyarrow.compute as pc

    NUM_COLS = ["event_id", "user_id", "value"]
    STR_COLS = ["event_type", "props"]
    ALL = NUM_COLS + ["ts"] + STR_COLS
    ds = _read(sf_dir, "events", ALL)

    def _num_view(batch: pa.Table, name: str) -> np.ndarray:
        col = batch.column(name)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if name == "ts":
            return np.asarray(col.cast(pa.int64()), dtype=np.float64)
        return np.asarray(col, dtype=np.float64)

    def scalar_partial(batch: pa.Table) -> pa.Table:
        rows = {"column": [], "n": [], "n_null": [], "min_num": [],
                "max_num": [], "min_str": [], "max_str": [],
                "n_distinct": []}
        for name in ALL:
            col = batch.column(name)
            rows["column"].append(name)
            rows["n"].append(batch.num_rows)
            rows["n_null"].append(col.null_count)
            rows["n_distinct"].append(None)
            if name in STR_COLS:
                mm = pc.min_max(col)
                rows["min_num"].append(None)
                rows["max_num"].append(None)
                rows["min_str"].append(mm["min"].as_py())
                rows["max_str"].append(mm["max"].as_py())
            else:
                v = _num_view(batch, name)
                ok = ~np.isnan(v)
                rows["min_num"].append(float(v[ok].min()) if ok.any() else None)
                rows["max_num"].append(float(v[ok].max()) if ok.any() else None)
                rows["min_str"].append(None)
                rows["max_str"].append(None)
        return pa.table({
            "column": pa.array(rows["column"], type=pa.string()),
            "n": pa.array(rows["n"], type=pa.int64()),
            "n_null": pa.array(rows["n_null"], type=pa.int64()),
            "min_num": pa.array(rows["min_num"], type=pa.float64()),
            "max_num": pa.array(rows["max_num"], type=pa.float64()),
            "min_str": pa.array(rows["min_str"], type=pa.string()),
            "max_str": pa.array(rows["max_str"], type=pa.string()),
            "n_distinct": pa.array(rows["n_distinct"], type=pa.int64()),
        })

    def distinct_partial(batch: pa.Table) -> pa.Table:
        cols, keys = [], []
        for name in ALL:
            col = batch.column(name)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            if name in STR_COLS:
                k = col.drop_null()
            else:
                v = _num_view(batch, name)
                v = v[~np.isnan(v)]
                # injective: the double's bit pattern as int64 -> string
                k = pc.cast(pa.array(v.view(np.int64)), pa.string())
            u = pc.unique(k)
            cols.append(pa.array([name] * len(u), type=pa.string()))
            keys.append(pc.cast(u, pa.string()))
        return pa.table({"column": pa.concat_arrays(cols),
                         "key": pa.concat_arrays(keys)})

    scal = ds.map_batches(scalar_partial, batch_format="pyarrow",
                          zero_copy_batch=True)
    pairs = ds.map_batches(distinct_partial, batch_format="pyarrow",
                           zero_copy_batch=True)

    def count_distinct(group: pa.Table) -> pa.Table:
        u = pc.unique(group.column("key").combine_chunks()
                      if isinstance(group.column("key"), pa.ChunkedArray)
                      else group.column("key"))
        return pa.table({
            "column": group.column("column").slice(0, 1),
            "n": pa.array([None], type=pa.int64()),
            "n_null": pa.array([None], type=pa.int64()),
            "min_num": pa.array([None], type=pa.float64()),
            "max_num": pa.array([None], type=pa.float64()),
            "min_str": pa.array([None], type=pa.string()),
            "max_str": pa.array([None], type=pa.string()),
            "n_distinct": pa.array([len(u)], type=pa.int64()),
        })

    dist = pairs.groupby("column").map_groups(count_distinct,
                                              batch_format="pyarrow")

    def coalesce(group: pa.Table) -> pa.Table:
        n = np.asarray(group.column("n"), dtype=np.float64)
        nn = np.asarray(group.column("n_null"), dtype=np.float64)
        mn = np.asarray(group.column("min_num"), dtype=np.float64)
        mx = np.asarray(group.column("max_num"), dtype=np.float64)
        nd = np.asarray(group.column("n_distinct"), dtype=np.float64)
        ms = group.column("min_str").drop_null()
        xs = group.column("max_str").drop_null()
        has_num = ~np.isnan(mn)
        return pa.table({
            "column": group.column("column").slice(0, 1),
            "n": pa.array([int(np.nansum(n))], type=pa.int64()),
            "n_null": pa.array([int(np.nansum(nn))], type=pa.int64()),
            "n_distinct": pa.array([int(np.nansum(nd))], type=pa.int64()),
            "min_num": pa.array(
                [float(mn[has_num].min()) if has_num.any() else None],
                type=pa.float64()),
            "max_num": pa.array(
                [float(mx[~np.isnan(mx)].max()) if has_num.any() else None],
                type=pa.float64()),
            "min_str": pa.array(
                [pc.min_max(ms)["min"].as_py() if len(ms) else None],
                type=pa.string()),
            "max_str": pa.array(
                [pc.min_max(xs)["max"].as_py() if len(xs) else None],
                type=pa.string()),
        })

    return scal.union(dist).groupby("column").map_groups(
        coalesce, batch_format="pyarrow")


# ---------------------------------------------------------------- T11 ----
def t11_benford_digits(sf_dir: str):
    """T11 — Benford first-significant-digit audit per event_type: the
    fraud/synthetic-data screen (Benford 1938; Nigrini 2012).  For each
    (type, digit) cell: observed count, observed fraction, Benford's
    expected fraction ``log10(1 + 1/d)``, and the chi-square contribution
    ``(obs - exp_n)^2 / exp_n``.

    Exactness: the first digit comes from the DECIMAL STRING of the
    exact cents integer ``floor(value*100 + 0.5)`` (Arrow C-level cast +
    slice on the engine side, ``substr(CAST(... AS VARCHAR), 1, 1)`` in
    SQL — no float log10 on data values anywhere).  Counts are exact
    ints; the float tail (expected fraction, chi2) is a pinned sequence
    of scalar libm ops identical on both sides.

    Plan: ``_benford_counts``, shared with G58.  As there, only positive
    cent values count: digits 1-9 (a zero or negative one starts with 0
    or -), and a type with none has no row."""
    import math

    import pyarrow.compute as pc

    def finish(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t.column("digit"),
                              value_set=pa.array(list("123456789"))))
        n = np.asarray(t.column("n"), dtype=np.int64)
        total = int(n.sum())
        digits = [int(d) for d in t.column("digit").to_pylist()]
        # pinned scalar float tail (math.log10 == DuckDB log10, same libm)
        exp_frac = [math.log10(1.0 + 1.0 / d) for d in digits]
        obs_frac = [float(c) / float(total) for c in n]
        chi2 = []
        for c, ef in zip(n, exp_frac):
            exp_n = float(total) * ef
            diff = float(c) - exp_n
            chi2.append(diff * diff / exp_n)
        return pa.table({
            "event_type": t.column("event_type"),
            "digit": pa.array(digits, type=pa.int64()),
            "n": pa.array(n, type=pa.int64()),
            "total": pa.array([total] * len(n), type=pa.int64()),
            "obs_frac": pa.array(obs_frac, type=pa.float64()),
            "exp_frac": pa.array(exp_frac, type=pa.float64()),
            "chi2_term": pa.array(chi2, type=pa.float64()),
        })

    return _benford_counts(sf_dir, finish)


# ---------------------------------------------------------------- G15 ----
def g15_user_entropy(sf_dir: str):
    """G15 — Shannon entropy of the per-type user distribution: how
    concentrated each event type's volume is across users (low entropy =
    a few users dominate — the bot/abuse screen next to T11's Benford
    audit).  ``H = -sum p_u ln p_u`` over users, plus the normalized
    ``H / ln(n_users)``.

    Exactness: counts are exact ints (per-block Arrow group_by partials,
    <= types*users rows per block); the float tail is a PINNED sequential
    fold in user_id order — each term ``(n/total) * ln(n/total)`` is the
    same libm sequence DuckDB evaluates, and the oracle reproduces the
    exact summation order with ``list_reduce(list_prepend(0.0,
    list(... ORDER BY user_id)))``."""
    import math

    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["event_type", "user_id"]).aggregate(
            [([], "count_all")])
        return pa.table({"event_type": g.column("event_type"),
                         "user_id": g.column("user_id"),
                         "n": pc.cast(g.column("count_all"), pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def finish(group: pa.Table) -> pa.Table:
        t = (group.group_by(["event_type", "user_id"])
             .aggregate([("n", "sum")]).sort_by([("user_id", "ascending")]))
        n = np.asarray(t.column("n_sum"), dtype=np.int64)
        total = int(n.sum())
        acc = 0.0
        for c in n:                       # tiny: one term per user
            p = float(int(c)) / float(total)
            acc = acc + p * math.log(p)
        ent = -acc
        nu = len(n)
        norm = ent / math.log(float(nu)) if nu > 1 else None
        return pa.table({
            "event_type": t.column("event_type").slice(0, 1),
            "total": pa.array([total], type=pa.int64()),
            "n_users": pa.array([nu], type=pa.int64()),
            "entropy": pa.array([ent], type=pa.float64()),
            "norm_entropy": pa.array([norm], type=pa.float64()),
        })

    return partials.groupby("event_type").map_groups(finish,
                                                     batch_format="pyarrow")


# ---------------------------------------------------------------- G16 ----
def g16_chi2_independence(sf_dir: str):
    """G16 — chi-square independence test between two categorical
    columns (event_type x weekday): the feature-redundancy screen before
    model training (Pearson 1900).  Per cell: observed count, expected
    count under independence ``row_total * col_total / n`` and the
    chi-square contribution — exact integer counts everywhere, each
    float a pinned expression of exact ints.

    Scale shape: per-block Arrow group_by partials (<= types*7 rows per
    block), one tiny exchange, final single-group widen (the grid is
    types x 7).  Oracle: grouped counts + window totals in SQL."""
    import pyarrow.compute as pc

    DAY_US = 86_400_000_000
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts")
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        ts_us = np.asarray(ts.cast(pa.int64()))
        dow = ((ts_us // DAY_US) + 3) % 7   # epoch day 0 = Thursday
        t = pa.table({"event_type": batch.column("event_type"),
                      "dow": pa.array(dow, type=pa.int64())})
        g = t.group_by(["event_type", "dow"]).aggregate([([], "count_all")])
        return pa.table({"event_type": g.column("event_type"),
                         "dow": g.column("dow"),
                         "n": pc.cast(g.column("count_all"), pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def finish(group: pa.Table) -> pa.Table:
        t = group.group_by(["event_type", "dow"]).aggregate([("n", "sum")])
        et = t.column("event_type").to_pylist()
        dow = np.asarray(t.column("dow"), dtype=np.int64)
        obs = np.asarray(t.column("n_sum"), dtype=np.int64)
        total = int(obs.sum())
        row_tot = {}
        col_tot = {}
        for e, d, c in zip(et, dow, obs):
            row_tot[e] = row_tot.get(e, 0) + int(c)
            col_tot[int(d)] = col_tot.get(int(d), 0) + int(c)
        exp, chi = [], []
        for e, d, c in zip(et, dow, obs):
            # expected = exact int product / exact int total (one div)
            ex = float(row_tot[e] * col_tot[int(d)]) / float(total)
            diff = float(int(c)) - ex
            exp.append(ex)
            chi.append(diff * diff / ex)
        return pa.table({
            "event_type": t.column("event_type"),
            "dow": t.column("dow"),
            "obs": pa.array(obs, type=pa.int64()),
            "row_total": pa.array([row_tot[e] for e in et], type=pa.int64()),
            "col_total": pa.array([col_tot[int(d)] for d in dow],
                                  type=pa.int64()),
            "expected": pa.array(exp, type=pa.float64()),
            "chi2_term": pa.array(chi, type=pa.float64()),
        })

    return partials.repartition(1).map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------- A12 ----
def a12_ks_drift(sf_dir: str):
    """A12 — exact two-sample Kolmogorov-Smirnov drift statistic per
    event_type between the interleaved day-parity halves (the same split
    D3's chi-square uses, but distribution-free and bin-free):
    ``KS = max_v |F_even(v) - F_odd(v)|`` over the exact value CDFs.

    Exactness: CDF comparison is cross-multiplied into pure integers —
    ``|cum_e * n_o - cum_o * n_e|`` — so the max and its argmax location
    are exact; the statistic itself is ONE pinned float division.  The
    argmax tiebreak is the smallest value.

    Scale shape: per-block partials collapse to (type, cents, parity
    counts) rows before the exchange (bounded by the distinct-value
    count, not the row count); the per-type final kernel is two cumsums
    over the sorted distinct values.  Oracle: window cumsums + QUALIFY
    argmax in SQL."""
    import pyarrow.compute as pc

    DAY_US = 86_400_000_000
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts")
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        day = np.asarray(ts.cast(pa.int64())) // DAY_US
        v = batch.column("value")
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        cents = np.floor(np.asarray(v, dtype=np.float64) * 100.0
                         + 0.5).astype(np.int64)
        t = pa.table({"event_type": batch.column("event_type"),
                      "cents": pa.array(cents, type=pa.int64()),
                      "even": pa.array((day % 2 == 0).astype(np.int64),
                                       type=pa.int64())})
        g = t.group_by(["event_type", "cents"]).aggregate(
            [("even", "sum"), ([], "count_all")])
        ce = np.asarray(g.column("even_sum"), dtype=np.int64)
        tot = np.asarray(g.column("count_all"), dtype=np.int64)
        return pa.table({"event_type": g.column("event_type"),
                         "cents": g.column("cents"),
                         "c_e": pa.array(ce, type=pa.int64()),
                         "c_o": pa.array(tot - ce, type=pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def finish(group: pa.Table) -> pa.Table:
        t = (group.group_by(["event_type", "cents"])
             .aggregate([("c_e", "sum"), ("c_o", "sum")])
             .sort_by([("cents", "ascending")]))
        ce = np.asarray(t.column("c_e_sum"), dtype=np.int64)
        co = np.asarray(t.column("c_o_sum"), dtype=np.int64)
        cents = np.asarray(t.column("cents"), dtype=np.int64)
        n_e, n_o = int(ce.sum()), int(co.sum())
        cum_e = np.cumsum(ce)
        cum_o = np.cumsum(co)
        num = np.abs(cum_e * n_o - cum_o * n_e)
        best = int(np.argmax(num))          # first max = smallest cents
        ks_num = int(num[best])
        return pa.table({
            "event_type": t.column("event_type").slice(0, 1),
            "n_even": pa.array([n_e], type=pa.int64()),
            "n_odd": pa.array([n_o], type=pa.int64()),
            "ks_num": pa.array([ks_num], type=pa.int64()),
            "at_cents": pa.array([int(cents[best])], type=pa.int64()),
            "ks_stat": pa.array(
                [float(ks_num) / float(n_e * n_o)], type=pa.float64()),
        })

    return partials.groupby("event_type").map_groups(finish,
                                                     batch_format="pyarrow")


# ---------------------------------------------------------------- J10 ----
def j10_snapshot_diff(sf_dir: str, num_partitions: int = 16):
    """J10 — snapshot diff (CDC table compare): classify every key
    across two table versions as added / removed / changed / unchanged —
    the reconciliation primitive behind incremental replication audits
    and "what did this backfill touch".  The two versions are derived
    deterministically from ``orders`` (old = keys not divisible by 7;
    new = keys not divisible by 5, price bumped +1.00 on keys divisible
    by 3), so the whole diff is SQL-derivable.

    Scale shape: both versions are tagged in the SAME block pass (the
    table is read once) and co-partitioned under ONE ``_pkey`` exchange
    on the key — the J3 layout; the kernel classifies each key run with
    vectorized scatters.  Oracle: FULL OUTER JOIN + CASE."""
    from anomalydetection_ray.stages.runs import partition_apply

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def derive(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch.column("o_orderkey"), dtype=np.int64)
        p = np.asarray(batch.column("o_totalprice").combine_chunks()
                       if isinstance(batch.column("o_totalprice"),
                                     pa.ChunkedArray)
                       else batch.column("o_totalprice"), dtype=np.float64)
        in_a = (k % 7) != 0
        in_b = (k % 5) != 0
        pb = np.where(k % 3 == 0, p + 1.0, p)
        keys = np.concatenate([k[in_a], k[in_b]])
        side = np.concatenate([np.zeros(int(in_a.sum()), dtype=np.int64),
                               np.ones(int(in_b.sum()), dtype=np.int64)])
        price = np.concatenate([p[in_a], pb[in_b]])
        return pa.table({"k": pa.array(keys, type=pa.int64()),
                         "side": pa.array(side, type=pa.int64()),
                         "price": pa.array(price, type=pa.float64())})

    def classify(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [("k", "ascending"), ("side", "ascending")])
        k = np.asarray(t.column("k"), dtype=np.int64)
        side = np.asarray(t.column("side"), dtype=np.int64)
        price = np.asarray(t.column("price"), dtype=np.float64)
        n = len(k)
        if n == 0:
            return pa.table({
                "o_orderkey": pa.array([], type=pa.int64()),
                "class": pa.array([], type=pa.string()),
                "price_old": pa.array([], type=pa.float64()),
                "price_new": pa.array([], type=pa.float64()),
            })
        starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        nk = len(starts)
        gid = np.cumsum(np.concatenate(([True], k[1:] != k[:-1]))) - 1
        has = np.zeros((nk, 2), dtype=bool)
        pr = np.zeros((nk, 2), dtype=np.float64)
        has[gid, side] = True
        pr[gid, side] = price
        cls = np.where(~has[:, 0], "added",
                       np.where(~has[:, 1], "removed",
                                np.where(pr[:, 0] != pr[:, 1],
                                         "changed", "unchanged")))
        return pa.table({
            "o_orderkey": pa.array(k[starts], type=pa.int64()),
            "class": pa.array(cls, type=pa.string()),
            "price_old": pa.array(pr[:, 0], type=pa.float64(),
                                  mask=~has[:, 0]),
            "price_new": pa.array(pr[:, 1], type=pa.float64(),
                                  mask=~has[:, 1]),
        })

    keyed = ds.map_batches(derive, batch_format="pyarrow",
                           zero_copy_batch=True)
    return partition_apply(keyed, ["k"], classify, num_partitions)


# ---------------------------------------------------------------- C3 ----
def c3_tpch_q10_like(sf_dir: str, k: int = 20):
    """C3 — composed relational analytics #2 (the TPC-H Q10 shape):
    returned-item revenue per customer with their nation name, top-k —
    a FOUR-table join (lineitem->orders->customer->nation) + two-level
    aggregate + top-k proving the relational operators compose one level
    deeper than C2's Q3 shape.

    Scale shape: lineitem revenue pre-aggregates per orderkey inside
    each block; the orderkey->custkey hop and the custkey->customer hop
    are both co-partitioned attaches (J3); nation (25 rows) broadcasts
    (J1); top-k block-prunes (Q2).  Revenue is exact cents from the
    pinned per-row expression the SQL oracle replays."""
    import pyarrow.compute as pc

    from anomalydetection_ray.stages.join import copartition_attach
    from anomalydetection_ray.stages.topk import topk

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount",
                "l_returnflag"])

    def rev_partial(batch: pa.Table) -> pa.Table:
        keep = np.asarray(pc.equal(batch.column("l_returnflag")
                                   .combine_chunks()
                                   if isinstance(batch.column("l_returnflag"),
                                                 pa.ChunkedArray)
                                   else batch.column("l_returnflag"), "R"))
        price = np.asarray(batch.column("l_extendedprice"),
                           dtype=np.float64)[keep]
        disc = np.asarray(batch.column("l_discount"), dtype=np.float64)[keep]
        okey = np.asarray(batch.column("l_orderkey"), dtype=np.int64)[keep]
        cents = np.floor(price * (1.0 - disc) * 100 + 0.5).astype(np.int64)
        t = pa.table({"l_orderkey": pa.array(okey, type=pa.int64()),
                      "cents": pa.array(cents, type=pa.int64())})
        g = t.group_by("l_orderkey").aggregate([("cents", "sum"),
                                                ([], "count_all")])
        return pa.table({"l_orderkey": g.column("l_orderkey"),
                         "cents": pc.cast(g.column("cents_sum"), pa.int64()),
                         "n": pc.cast(g.column("count_all"), pa.int64())})

    li_partials = li.map_batches(rev_partial, batch_format="pyarrow",
                                 zero_copy_batch=True)

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    with_cust = copartition_attach(li_partials, orders,
                                   left_on="l_orderkey",
                                   right_on="o_orderkey",
                                   payload_cols=["o_custkey"])

    def cust_partial(batch: pa.Table) -> pa.Table:
        keep = pc.is_valid(batch.column("o_custkey"))
        t = batch.filter(keep)
        g = t.group_by("o_custkey").aggregate([("cents", "sum"),
                                               ("n", "sum")])
        return pa.table({"c_custkey": g.column("o_custkey"),
                         "cents": pc.cast(g.column("cents_sum"), pa.int64()),
                         "n": pc.cast(g.column("n_sum"), pa.int64())})

    cust_partials = with_cust.map_batches(cust_partial,
                                          batch_format="pyarrow",
                                          zero_copy_batch=True)

    from anomalydetection_ray.stages.runs import agg_by

    per_cust = agg_by(cust_partials, ["c_custkey"],
                      [("cents", "sum", "revenue_cents"),
                       ("n", "sum", "n_items")])

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"])
    attached = copartition_attach(per_cust, cust, left_on="c_custkey",
                                  right_on="c_custkey",
                                  payload_cols=["c_name", "c_nationkey"])

    # nation is 25 rows: broadcast lookup (J1)
    nation = {}
    for b in _read(sf_dir, "nation", ["n_nationkey", "n_name"]) \
            .iter_batches(batch_format="pyarrow"):
        for nk, nm in zip(b.column("n_nationkey").to_pylist(),
                          b.column("n_name").to_pylist()):
            nation[nk] = nm

    def finish(batch: pa.Table) -> pa.Table:
        keep = pc.is_valid(batch.column("c_nationkey"))
        t = batch.filter(keep)
        names = [nation[nk] for nk in t.column("c_nationkey").to_pylist()]
        return pa.table({
            "c_custkey": t.column("c_custkey"),
            "c_name": t.column("c_name"),
            "n_name": pa.array(names, type=pa.string()),
            "revenue_cents": t.column("revenue_cents"),
            "n_items": t.column("n_items"),
        })

    final = attached.map_batches(finish, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return topk(final, k, [("revenue_cents", "descending"),
                           ("c_custkey", "ascending")])


# ---------------------------------------------------------------- S13 ----
def s13_orc_roundtrip(sf_dir: str):
    """S13 — ORC source/sink round trip, the third interchange format
    next to S6 (JSONL) and S7 (CSV).  Ray Data 2.49 ships no ORC
    reader/writer, so this exercises the CUSTOM source/sink path: the
    sink is a ``map_batches`` stage where each task writes its block as
    one ORC shard (pyarrow.orc, task-side, no driver funnel); the source
    is ``read_binary_files`` + a task-side ORC parse — the template for
    any format Ray lacks natively.  Verification: per-source aggregates
    (doc count, exact char sum, doc_id sum) recomputed from the
    round-tripped rows; the oracle reads the ORIGINAL parquet, so the
    check passes only if every row and byte survived both hops."""
    import os
    import shutil
    import tempfile

    import pyarrow.compute as pc
    import ray.data

    out = tempfile.mkdtemp(prefix="anomray_orc_")
    try:
        ds = _read(sf_dir, "documents",
                   ["doc_id", "source", "n_chars", "text"])

        def write_shard(batch: pa.Table) -> pa.Table:
            import pyarrow.orc as orc

            if batch.num_rows == 0:
                return pa.table({"shard_rows": pa.array([], type=pa.int64())})
            first = batch.column("doc_id")[0].as_py()
            path = os.path.join(out, f"shard-{first}-{batch.num_rows}.orc")
            orc.write_table(batch, path)
            return pa.table({"shard_rows": pa.array([batch.num_rows],
                                                    type=pa.int64())})

        # force the distributed sink before reading the layout back
        n_written = sum(r["shard_rows"] for r in
                        ds.map_batches(write_shard, batch_format="pyarrow")
                          .take_all())
        assert n_written > 0

        back_bin = ray.data.read_binary_files(out)

        def parse(batch: pa.Table) -> pa.Table:
            import pyarrow.orc as orc

            tables = []
            for buf in batch.column("bytes").to_pylist():
                tables.append(orc.ORCFile(pa.BufferReader(buf)).read())
            if not tables:
                return pa.table({
                    "doc_id": pa.array([], type=pa.int64()),
                    "source": pa.array([], type=pa.string()),
                    "n_chars": pa.array([], type=pa.int64()),
                    "text": pa.array([], type=pa.string()),
                })
            return pa.concat_tables(tables)

        back = back_bin.map_batches(parse, batch_format="pyarrow")

        def partial(batch: pa.Table) -> pa.Table:
            t = pa.table({
                "source": batch.column("source"),
                "n_chars": pc.cast(batch.column("n_chars"), pa.int64()),
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
            })
            g = t.group_by("source").aggregate(
                [([], "count_all"), ("n_chars", "sum"), ("doc_id", "sum")])
            return pa.table({
                "source": g.column("source"),
                "n_docs": pc.cast(g.column("count_all"), pa.int64()),
                "chars_sum": pc.cast(g.column("n_chars_sum"), pa.int64()),
                "ids_sum": pc.cast(g.column("doc_id_sum"), pa.int64()),
            })

        partials = back.map_batches(partial, batch_format="pyarrow")

        def merge(group: pa.Table) -> pa.Table:
            return pa.table({
                "source": group.column("source").slice(0, 1),
                "n_docs": pa.array(
                    [int(pc.sum(group.column("n_docs")).as_py())],
                    type=pa.int64()),
                "chars_sum": pa.array(
                    [int(pc.sum(group.column("chars_sum")).as_py())],
                    type=pa.int64()),
                "ids_sum": pa.array(
                    [int(pc.sum(group.column("ids_sum")).as_py())],
                    type=pa.int64()),
            })

        res = partials.groupby("source").map_groups(
            merge, batch_format="pyarrow")
        # materialize before the tmp dir vanishes (lazy reads would fail)
        return ray.data.from_arrow(pa.concat_tables(
            list(res.iter_batches(batch_format="pyarrow"))))
    finally:
        shutil.rmtree(out, ignore_errors=True)


# ---------------------------------------------------------------- S15 ----
def s15_validation_suite(sf_dir: str):
    """S15 — declarative data-quality validation suite (the
    expectations/contracts pass every ingest runs): one row per rule
    with checked/violation counts.  Rules: (1) no null event values,
    (2) value within the contracted range, (3) event_id unique,
    (4) referential integrity orders.o_custkey -> customer,
    (5) ts within the corpus' contracted year span,
    (6) n_chars == length(text) on documents.

    Scale shape: each rule is a partial-before-exchange aggregate (null/
    range/invariant checks fused into single scans; uniqueness = exact
    two-level distinct; FK = the J6 anti-join discipline with the dim
    key set broadcast).  All counts exact ints.  Oracle: one UNION ALL
    arm per rule."""
    import pyarrow.compute as pc
    import ray.data

    rows = []

    # rules 1+2+5: one fused scan over events
    ev = _read(sf_dir, "events", ["event_id", "ts", "value"])

    def _ts_us_local(col):
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        v = np.asarray(col)
        return v.view("int64") if v.dtype.kind == "M" else v.astype(np.int64)

    def ev_partial(batch: pa.Table) -> pa.Table:
        v = batch.column("value")
        n = batch.num_rows
        n_null = v.null_count
        vv = np.asarray(v.combine_chunks() if isinstance(v, pa.ChunkedArray)
                        else v, dtype=np.float64)
        ok = ~np.isnan(vv)
        n_range = int(((vv < 0.0) | (vv > 1000.0))[ok].sum())
        ts = _ts_us_local(batch.column("ts"))
        year0 = 1704067200000000            # 2024-01-01T00:00:00Z
        year2 = 1767225600000000            # 2026-01-01T00:00:00Z
        n_ts = int(((ts < year0) | (ts >= year2)).sum())
        return pa.table({
            "n": pa.array([n], type=pa.int64()),
            "n_null": pa.array([n_null], type=pa.int64()),
            "n_range": pa.array([n_range], type=pa.int64()),
            "n_ts": pa.array([n_ts], type=pa.int64()),
        })

    agg = {}
    for b in ev.map_batches(ev_partial, batch_format="pyarrow") \
               .iter_batches(batch_format="pyarrow"):
        for c in ["n", "n_null", "n_range", "n_ts"]:
            agg[c] = agg.get(c, 0) + int(pc.sum(b.column(c)).as_py() or 0)
    rows.append(("events.value not null", agg["n"], agg["n_null"]))
    rows.append(("events.value in [0, 1000]", agg["n"], agg["n_range"]))
    rows.append(("events.ts in contract span", agg["n"], agg["n_ts"]))

    # rule 3: event_id uniqueness (two-level exact distinct)
    def id_partial(batch: pa.Table) -> pa.Table:
        u = pc.unique(batch.column("event_id").combine_chunks()
                      if isinstance(batch.column("event_id"), pa.ChunkedArray)
                      else batch.column("event_id"))
        return pa.table({"event_id": u})

    from anomalydetection_ray.stages.runs import partition_apply, run_starts as _rs

    def distinct_count(part: pa.Table) -> pa.Table:
        # one row per PARTITION: its distinct event_id count (vectorized
        # sort + run boundaries; the driver sums num_partitions ints)
        n = (0 if part.num_rows == 0 else
             _rs(part.sort_by([("event_id", "ascending")]),
                 ["event_id"]).shape[0])
        return pa.table({"n_distinct": pa.array([n], type=pa.int64())})

    n_distinct = int(partition_apply(
        ev.map_batches(id_partial, batch_format="pyarrow"),
        ["event_id"], distinct_count).sum("n_distinct"))
    rows.append(("events.event_id unique", agg["n"], agg["n"] - n_distinct))

    # rule 4: FK orders.o_custkey -> customer (broadcast dim key set)
    cust_keys = set()
    for b in _read(sf_dir, "customer", ["c_custkey"]) \
            .iter_batches(batch_format="pyarrow"):
        cust_keys.update(b.column("c_custkey").to_pylist())
    ck = pa.array(sorted(cust_keys), type=pa.int64())

    def fk_partial(batch: pa.Table) -> pa.Table:
        bad = pc.sum(pc.cast(pc.invert(
            pc.is_in(batch.column("o_custkey"), value_set=ck)),
            pa.int64())).as_py() or 0
        return pa.table({"n": pa.array([batch.num_rows], type=pa.int64()),
                         "bad": pa.array([int(bad)], type=pa.int64())})

    fk_n = fk_bad = 0
    for b in _read(sf_dir, "orders", ["o_custkey"]) \
            .map_batches(fk_partial, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        fk_n += int(pc.sum(b.column("n")).as_py() or 0)
        fk_bad += int(pc.sum(b.column("bad")).as_py() or 0)
    rows.append(("orders.o_custkey fk customer", fk_n, fk_bad))

    # rule 6: documents n_chars == length(text)
    def doc_partial(batch: pa.Table) -> pa.Table:
        ln = pc.utf8_length(batch.column("text").combine_chunks()
                            if isinstance(batch.column("text"),
                                          pa.ChunkedArray)
                            else batch.column("text"))
        bad = pc.sum(pc.cast(pc.not_equal(
            pc.cast(ln, pa.int64()),
            pc.cast(batch.column("n_chars"), pa.int64())),
            pa.int64())).as_py() or 0
        return pa.table({"n": pa.array([batch.num_rows], type=pa.int64()),
                         "bad": pa.array([int(bad)], type=pa.int64())})

    d_n = d_bad = 0
    for b in _read(sf_dir, "documents", ["n_chars", "text"]) \
            .map_batches(doc_partial, batch_format="pyarrow") \
            .iter_batches(batch_format="pyarrow"):
        d_n += int(pc.sum(b.column("n")).as_py() or 0)
        d_bad += int(pc.sum(b.column("bad")).as_py() or 0)
    rows.append(("documents.n_chars == length(text)", d_n, d_bad))

    import pandas as pd

    out = pd.DataFrame(rows, columns=["rule", "n_checked", "n_violations"])
    out["passed"] = out["n_violations"] == 0
    return ray.data.from_pandas(out)


# ---------------------------------------------------------------- G23 ----
def g23_partition_skew(sf_dir: str, num_partitions: int = 32):
    """G23 — partition-skew audit: row counts per hash bucket of the
    events key ``user_id`` under the Knuth multiplicative hash
    ``((k * 2654435761) % 2^32) % P`` — the "do I need to salt this
    key?" diagnostic behind every `_pkey` exchange (the G2-salted path
    exists because of exactly this report).  Emits per-bucket counts,
    the bucket's share, and the corpus-wide skew factor
    ``max_bucket * P / total`` (1.0 = perfectly even).

    Scale shape: per-block Arrow group_by partials (<= P rows per
    block), one tiny exchange, single-group finish.  All counts exact;
    the two ratios are pinned divisions."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch.column("user_id"), dtype=np.int64) \
            .astype(np.uint64)
        b = ((k * np.uint64(2654435761)) % np.uint64(1 << 32)) \
            % np.uint64(num_partitions)
        t = pa.table({"bucket": pa.array(b.astype(np.int64),
                                         type=pa.int64())})
        g = t.group_by(["bucket"]).aggregate([([], "count_all")])
        return pa.table({"bucket": g.column("bucket"),
                         "n": pc.cast(g.column("count_all"), pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def finish(group: pa.Table) -> pa.Table:
        t = group.group_by(["bucket"]).aggregate([("n", "sum")])
        b = np.asarray(t.column("bucket"), dtype=np.int64)
        n = np.asarray(t.column("n_sum"), dtype=np.int64)
        total = int(n.sum())
        mx = int(n.max())
        skew = float(mx * num_partitions) / float(total)
        order = np.argsort(b)
        return pa.table({
            "bucket": pa.array(b[order], type=pa.int64()),
            "n": pa.array(n[order], type=pa.int64()),
            "share": pa.array(n[order].astype(np.float64) / float(total),
                              type=pa.float64()),
            "total": pa.array(np.full(len(b), total), type=pa.int64()),
            "skew_factor": pa.array(np.full(len(b), skew),
                                    type=pa.float64()),
        })

    return partials.repartition(1).map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------- G17 ----
def g17_kmv_distinct(sf_dir: str, k: int = 64):
    """G17 — KMV (k-minimum-values) distinct sketch (Bar-Yossef et al.
    SODA 2002; Beyer et al. SIGMOD 2007): per event_type, keep the ``k``
    smallest DISTINCT 64-bit hashes of user_id; the k-th minimum
    estimates distinct count as ``(k-1) * 2^64 // h_k`` — the mergeable
    bounded-state alternative to G11's exact distinct (state is k words
    per group vs the full user set) and the exact-arithmetic sibling of
    G7's HLL.  The murmur finalizer (``_mix64``) is a BIJECTION on
    uint64, so distinct users <-> distinct hashes exactly and the whole
    estimator is integer arithmetic end-to-end (no float anywhere).

    Scale shape: per-block k-min partials (<= types*k rows leave each
    block), one bounded-cardinality exchange on event_type, final merge
    sorts <= blocks*k hashes per type.  The union of per-block k-mins
    always contains the global k-mins; if the union holds fewer than k
    distinct hashes the global distinct count is exact.  Oracle: same
    mix64 in SQL (split-constant mulmod), row_number k-th min."""
    from anomalydetection_ray.pipelines.dedup import _mix64

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"event_type": batch.column("event_type"),
                      "user_id": batch.column("user_id")})
        g = t.group_by(["event_type", "user_id"]).aggregate([])
        h = _mix64(np.asarray(g.column("user_id"), dtype=np.int64)
                   .astype(np.uint64))
        et = np.asarray(g.column("event_type"))
        out_t, out_h = [], []
        for typ in np.unique(et):
            hh = np.unique(h[et == typ])       # sorted ascending
            hh = hh[:k]
            out_t.extend([str(typ)] * hh.shape[0])
            out_h.append(hh)
        return pa.table({
            "event_type": pa.array(out_t, type=pa.string()),
            "h": pa.array(np.concatenate(out_h) if out_h else
                          np.empty(0, dtype=np.uint64), type=pa.uint64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def merge(group: pa.Table) -> pa.Table:
        hh = np.unique(np.asarray(group.column("h"), dtype=np.uint64))
        kept = hh[:k]
        k_used = int(kept.shape[0])
        kth = int(kept[-1]) if k_used else 0
        if k_used < k:                         # union < k -> exact
            est = k_used
        else:
            est = (k - 1) * (1 << 64) // kth
        # report the hash reinterpreted as SIGNED int64 (two's complement):
        # uint64 degrades to float64 through pandas on either compare path
        kth_signed = kth - (1 << 64) if kth >= (1 << 63) else kth
        return pa.table({
            "event_type": group.column("event_type").slice(0, 1),
            "k_used": pa.array([k_used], type=pa.int64()),
            "kth_min": pa.array([kth_signed], type=pa.int64()),
            "est_distinct": pa.array([est], type=pa.int64()),
        })

    return partials.groupby("event_type").map_groups(
        merge, batch_format="pyarrow")


# ---------------------------------------------------------------- S16 ----
def s16_fk_audit(sf_dir: str):
    """S16 — referential-integrity audit over the star schema's foreign
    keys: for each FK edge (orders->customer, lineitem->orders/part/
    supplier, customer->nation) count the child rows and distinct child
    keys with NO matching parent (orphans) — the standard pre-join data-
    quality gate (a broken FK silently drops rows from every downstream
    inner join).

    Scale shape: the child side collapses to DISTINCT (key, n_rows)
    partials per block before any exchange; ``copartition_attach`` joins
    those against the parent key co-partitioned (never a broadcast of a
    large key set); the per-edge summary is a per-block partial sum +
    single-row merge.  Oracle: LEFT JOIN ... IS NULL per edge, UNION ALL."""
    import functools

    from anomalydetection_ray.stages.join import copartition_attach

    edges = [
        ("orders.o_custkey->customer.c_custkey",
         "orders", "o_custkey", "customer", "c_custkey"),
        ("lineitem.l_orderkey->orders.o_orderkey",
         "lineitem", "l_orderkey", "orders", "o_orderkey"),
        ("lineitem.l_partkey->part.p_partkey",
         "lineitem", "l_partkey", "part", "p_partkey"),
        ("lineitem.l_suppkey->supplier.s_suppkey",
         "lineitem", "l_suppkey", "supplier", "s_suppkey"),
        ("customer.c_nationkey->nation.n_nationkey",
         "customer", "c_nationkey", "nation", "n_nationkey"),
    ]

    def key_counts(batch: pa.Table, fk: str) -> pa.Table:
        g = batch.group_by([fk]).aggregate([([], "count_all")])
        return pa.table({fk: g.column(fk),
                         "n_rows": g.column("count_all").cast(pa.int64())})

    def mark(batch: pa.Table, pk: str) -> pa.Table:
        return pa.table({
            pk: batch.column(pk),
            "_present": pa.array(np.ones(batch.num_rows, dtype=np.int8)),
        })

    def summarize(batch: pa.Table, name: str) -> pa.Table:
        import pyarrow.compute as pc

        orphan = pc.is_null(batch.column("_present"))
        n = np.asarray(batch.column("n_rows"), dtype=np.int64)
        om = np.asarray(orphan, dtype=bool)
        return pa.table({
            "relation": pa.array([name], type=pa.string()),
            "n_child_rows": pa.array([int(n.sum())], type=pa.int64()),
            "n_child_keys": pa.array([batch.num_rows], type=pa.int64()),
            "n_orphan_rows": pa.array([int(n[om].sum())], type=pa.int64()),
            "n_orphan_keys": pa.array([int(om.sum())], type=pa.int64()),
        })

    def merge(group: pa.Table) -> pa.Table:
        cols = {"relation": group.column("relation").slice(0, 1)}
        for c in ("n_child_rows", "n_child_keys",
                  "n_orphan_rows", "n_orphan_keys"):
            cols[c] = pa.array(
                [int(np.asarray(group.column(c), dtype=np.int64).sum())],
                type=pa.int64())
        return pa.table(cols)

    out = None
    for name, child, fk, parent, pk in edges:
        # per-block distinct-key partials, then a co-partitioned exact
        # merge of the partials (n_rows summed per key) before the attach
        ck = (_read(sf_dir, child, [fk])
              .map_batches(functools.partial(key_counts, fk=fk),
                           batch_format="pyarrow", zero_copy_batch=True)
              .groupby(fk).sum("n_rows"))
        ck = ck.map_batches(
            lambda b, fk=fk: pa.table({
                fk: b.column(fk),
                "n_rows": b.column("sum(n_rows)").cast(pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True)
        par = (_read(sf_dir, parent, [pk])
               .map_batches(functools.partial(mark, pk=pk),
                            batch_format="pyarrow", zero_copy_batch=True))
        attached = copartition_attach(ck, par, left_on=fk, right_on=pk,
                                      payload_cols=["_present"])
        summary = (attached.map_batches(
                       functools.partial(summarize, name=name),
                       batch_format="pyarrow", zero_copy_batch=True)
                   .groupby("relation").map_groups(
                       merge, batch_format="pyarrow"))
        out = summary if out is None else out.union(summary)
    return out


# ---------------------------------------------------------------- A29 ----
def a29_xcorr_volumes(sf_dir: str, lags: tuple = (0, 1, 2, 3, 7)):
    """A29 — lagged cross-correlation between the daily event-volume
    series of every event-type pair (does type A's activity lead type
    B's by L days?) — the classical lead-lag co-movement screen next to
    A9/A26's autocorrelation.  Series = events per (type, day) on the
    complete day grid spanning both types (missing days = 0); for lag L
    the pairs are (x_a[d], x_b[d+L]).  Counts and all six moment sums
    are exact integers (W5 discipline: arbitrary-precision combination,
    then exactly three pinned float ops), so the SQL oracle matches
    bitwise.

    Plan: ``_daily_counts``."""
    import math

    def finalize(group: pa.Table) -> pa.Table:
        et = np.asarray(group.column("event_type"))
        day = np.asarray(group.column("day"), dtype=np.int64)
        cnt = np.asarray(group.column("n"), dtype=np.int64)
        types = sorted(set(et.tolist()))
        out = {"type_a": [], "type_b": [], "lag": [], "n": [],
               "sxy": [], "xcorr": []}
        for i, ta in enumerate(types):
            for tb in types[i + 1:]:
                sel = (et == ta) | (et == tb)
                lo, hi = int(day[sel].min()), int(day[sel].max())
                xa = np.zeros(hi - lo + 1, dtype=np.int64)
                xb = np.zeros(hi - lo + 1, dtype=np.int64)
                ma = et == ta
                mb = et == tb
                xa[day[ma] - lo] = cnt[ma]
                xb[day[mb] - lo] = cnt[mb]
                for L in lags:
                    L = int(L)
                    if hi - lo + 1 <= L:
                        continue
                    x = xa[:len(xa) - L] if L else xa
                    y = xb[L:]
                    n = int(x.shape[0])
                    sx, sy = int(x.sum()), int(y.sum())
                    sxx = int((x * x).sum())
                    syy = int((y * y).sum())
                    sxy = int((x * y).sum())
                    num = n * sxy - sx * sy
                    d1 = n * sxx - sx * sx
                    d2 = n * syy - sy * sy
                    r = None if d1 == 0 or d2 == 0 \
                        else float(num) / math.sqrt(float(d1) * float(d2))
                    out["type_a"].append(ta)
                    out["type_b"].append(tb)
                    out["lag"].append(L)
                    out["n"].append(n)
                    out["sxy"].append(sxy)
                    out["xcorr"].append(r)
        return pa.table({
            "type_a": pa.array(out["type_a"], type=pa.string()),
            "type_b": pa.array(out["type_b"], type=pa.string()),
            "lag": pa.array(out["lag"], type=pa.int64()),
            "n": pa.array(out["n"], type=pa.int64()),
            "sxy": pa.array(out["sxy"], type=pa.int64()),
            "xcorr": pa.array(out["xcorr"], type=pa.float64()),
        })

    return _daily_counts(sf_dir, finalize)


# ---------------------------------------------------------------- T13 ----
def t13_unpivot_lineitem(sf_dir: str):
    """T13 — unpivot / melt (T7's inverse): the four lineitem measures
    become (key, measure, value_cents) long rows — the wide-to-long
    reshape every metrics store and plotting layer needs.  Map-only
    1-to-4 expansion inside the task (no shuffle, no state); values are
    exact cents ints.  Oracle: UNION ALL of four projections."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_quantity",
                "l_extendedprice", "l_discount", "l_tax"])
    measures = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]

    def melt(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ok = np.asarray(batch.column("l_orderkey"), dtype=np.int64)
        ln = np.asarray(batch.column("l_linenumber"), dtype=np.int64)
        keys_ok, keys_ln, names, cents = [], [], [], []
        for m in measures:
            v = np.asarray(batch.column(m), dtype=np.float64)
            keys_ok.append(ok)
            keys_ln.append(ln)
            names.extend([m] * n)
            cents.append(np.floor(v * 100.0 + 0.5).astype(np.int64))
        return pa.table({
            "l_orderkey": pa.array(np.concatenate(keys_ok),
                                   type=pa.int64()),
            "l_linenumber": pa.array(np.concatenate(keys_ln),
                                     type=pa.int64()),
            "measure": pa.array(names, type=pa.string()),
            "value_cents": pa.array(np.concatenate(cents),
                                    type=pa.int64()),
        })

    return ds.map_batches(melt, batch_format="pyarrow",
                          zero_copy_batch=True)


# ---------------------------------------------------------------- S17 ----
def s17_feather_roundtrip(sf_dir: str):
    """S17 — Arrow IPC (Feather v2) source/sink round trip, the fourth
    interchange format next to S6/S7/S13 and the ZERO-COPY one: Feather
    v2 IS the Arrow IPC file format, so a mmap'd read costs no decode at
    all — the right staging format for intermediate tiers that Ray tasks
    re-read.  Same custom source/sink template as S13 (Ray 2.49 has no
    feather reader): task-side ``pyarrow.feather`` shard writes, then
    ``read_binary_files`` + task-side IPC parse.  Verification: the S13
    per-source aggregate triple recomputed from the round-tripped rows
    against the original-parquet oracle."""
    import os
    import shutil
    import tempfile

    import pyarrow.compute as pc
    import ray.data

    out = tempfile.mkdtemp(prefix="anomray_feather_")
    try:
        ds = _read(sf_dir, "documents",
                   ["doc_id", "source", "n_chars", "text"])

        def write_shard(batch: pa.Table) -> pa.Table:
            import pyarrow.feather as feather

            if batch.num_rows == 0:
                return pa.table({"shard_rows": pa.array([], type=pa.int64())})
            first = batch.column("doc_id")[0].as_py()
            path = os.path.join(out, f"shard-{first}-{batch.num_rows}.feather")
            feather.write_feather(batch, path, compression="zstd")
            return pa.table({"shard_rows": pa.array([batch.num_rows],
                                                    type=pa.int64())})

        n_written = sum(r["shard_rows"] for r in
                        ds.map_batches(write_shard, batch_format="pyarrow")
                          .take_all())
        assert n_written > 0

        back = ray.data.read_binary_files(out)

        def parse(batch: pa.Table) -> pa.Table:
            import pyarrow.feather as feather

            tables = [feather.read_table(pa.BufferReader(buf))
                      for buf in batch.column("bytes").to_pylist()]
            if not tables:
                return pa.table({
                    "doc_id": pa.array([], type=pa.int64()),
                    "source": pa.array([], type=pa.string()),
                    "n_chars": pa.array([], type=pa.int64()),
                    "text": pa.array([], type=pa.string()),
                })
            return pa.concat_tables(tables)

        def partial(batch: pa.Table) -> pa.Table:
            t = pa.table({
                "source": batch.column("source"),
                "n_chars": pc.cast(batch.column("n_chars"), pa.int64()),
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
            })
            g = t.group_by("source").aggregate(
                [([], "count_all"), ("n_chars", "sum"), ("doc_id", "sum")])
            return pa.table({
                "source": g.column("source"),
                "n_docs": pc.cast(g.column("count_all"), pa.int64()),
                "chars_sum": pc.cast(g.column("n_chars_sum"), pa.int64()),
                "ids_sum": pc.cast(g.column("doc_id_sum"), pa.int64()),
            })

        def merge(group: pa.Table) -> pa.Table:
            return pa.table({
                "source": group.column("source").slice(0, 1),
                "n_docs": pa.array(
                    [int(pc.sum(group.column("n_docs")).as_py())],
                    type=pa.int64()),
                "chars_sum": pa.array(
                    [int(pc.sum(group.column("chars_sum")).as_py())],
                    type=pa.int64()),
                "ids_sum": pa.array(
                    [int(pc.sum(group.column("ids_sum")).as_py())],
                    type=pa.int64()),
            })

        res = (back.map_batches(parse, batch_format="pyarrow")
               .map_batches(partial, batch_format="pyarrow")
               .groupby("source").map_groups(merge, batch_format="pyarrow"))
        # materialize before the tmp dir vanishes (lazy reads would fail)
        return ray.data.from_arrow(pa.concat_tables(
            list(res.iter_batches(batch_format="pyarrow"))))
    finally:
        shutil.rmtree(out, ignore_errors=True)


# ---------------------------------------------------------------- G18 ----
def g18_weighted_median(sf_dir: str):
    """G18 — weighted (lower) median per group: the quantity-weighted
    median extended price per return flag — the robust "typical traded
    price" (each line weighted by units moved), the weighted sibling of
    G3's plain quantiles.  Lower-median rule, fraction-free: the
    smallest value whose cumulative weight w satisfies ``2*cum >=
    total`` — all-integer, no interpolation, SQL-exact.

    Scale shape: per-block partials collapse to (flag, cents,
    qty_sum) — bounded by the PRICE DOMAIN (distinct cent values), not
    the row count; one exchange on that bounded key; the final per-flag
    pass is one sort + cumsum over the collapsed domain.  Documented
    assumption: the value domain per group fits a task (true for any
    fixed-precision currency; re-quantize to coarser cents if not)."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_extendedprice", "l_quantity"])

    def partial(batch: pa.Table) -> pa.Table:
        cents = np.floor(np.asarray(batch.column("l_extendedprice"),
                                    dtype=np.float64) * 100.0
                         + 0.5).astype(np.int64)
        qty = np.floor(np.asarray(batch.column("l_quantity"),
                                  dtype=np.float64) + 0.5).astype(np.int64)
        t = pa.table({"flag": batch.column("l_returnflag"),
                      "cents": pa.array(cents, type=pa.int64()),
                      "qty": pa.array(qty, type=pa.int64())})
        g = t.group_by(["flag", "cents"]).aggregate([("qty", "sum")])
        return pa.table({"flag": g.column("flag"),
                         "cents": g.column("cents"),
                         "wsum": pc.cast(g.column("qty_sum"), pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def wmedian(group: pa.Table) -> pa.Table:
        g = (group.group_by(["flag", "cents"]).aggregate([("wsum", "sum")])
             .sort_by([("cents", "ascending")]))
        w = np.asarray(g.column("wsum_sum"), dtype=np.int64)
        cents = np.asarray(g.column("cents"), dtype=np.int64)
        cum = np.cumsum(w)
        tot = int(cum[-1])
        idx = int(np.flatnonzero(2 * cum >= tot)[0])
        return pa.table({
            "l_returnflag": g.column("flag").slice(0, 1),
            "total_qty": pa.array([tot], type=pa.int64()),
            "wmedian_cents": pa.array([int(cents[idx])], type=pa.int64()),
        })

    return partials.groupby("flag").map_groups(wmedian,
                                               batch_format="pyarrow")


# ---------------------------------------------------------------- S18 ----
def s18_partition_pruning(sf_dir: str, offset_days: int = 10,
                          span_days: int = 7):
    """S18 — time-partitioned layout + partition-pruned range read: the
    events table is persisted ONCE as a hive layout bucketed by WEEK
    (``bucket = day // 7``, the X3/ANN persisted-index machinery), and a
    day-range query [min_day+offset, +span) then reads ONLY the buckets
    overlapping the range — the layout discipline that turns a 100 TB
    time-range scan into a touch of the few overlapping partitions.
    Returns per-day counts + exact value cents inside the range.

    Scale shape: the layout build is a distributed
    ``write_parquet(partition_cols)`` pass (nothing on the driver); the
    probe hands ONLY the overlapping buckets' files to ``read_parquet``
    (the day bounds come from parquet FOOTER stats — zero data scanned
    to plan).  A residual in-range filter inside the tasks trims the
    bucket edges.  Oracle: the same day-range aggregate over the raw
    events table — values can only match if pruning lost nothing."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data

    from anomalydetection_ray.state.layout import (bucket_files,
                                                   persist_bucketed)

    path = f"{sf_dir}/events.parquet"
    US_DAY = 86_400_000_000

    # day bounds from footer stats only
    md = pq.ParquetFile(path).metadata
    names = [md.schema.column(i).name for i in range(md.num_columns)]
    ci = names.index("ts")
    import datetime as _dt

    def _us(x) -> int:
        if isinstance(x, _dt.datetime):
            return int(x.replace(tzinfo=_dt.timezone.utc).timestamp()
                       * 1_000_000)
        return int(x)

    min_day = min(_us(md.row_group(g).column(ci).statistics.min)
                  for g in range(md.num_row_groups)) // US_DAY
    d0 = min_day + offset_days
    d1 = d0 + span_days - 1

    def build(tmp: str) -> None:
        ds = ray.data.read_parquet(path, columns=["ts", "value"])

        def bucketize(batch: pa.Table) -> pa.Table:
            us = np.asarray(batch.column("ts").cast(pa.int64()),
                            dtype=np.int64)
            day = us // US_DAY
            return pa.table({
                "day": pa.array(day, type=pa.int64()),
                "cents": pa.array(
                    np.floor(np.asarray(batch.column("value"),
                                        dtype=np.float64) * 100.0
                             + 0.5).astype(np.int64), type=pa.int64()),
                "bucket": pa.array(day // 7, type=pa.int64()),
            })

        (ds.map_batches(bucketize, batch_format="pyarrow",
                        zero_copy_batch=True)
           .write_parquet(tmp, partition_cols=["bucket"]))

    layout = persist_bucketed("evweeks", path, "W7", build)
    files = [f for b in range(d0 // 7, d1 // 7 + 1)
             for f in bucket_files(layout, b)]

    def in_range(batch: pa.Table) -> pa.Table:
        day = np.asarray(batch.column("day"), dtype=np.int64)
        keep = (day >= d0) & (day <= d1)
        t = batch.filter(pa.array(keep))
        g = t.group_by(["day"]).aggregate([([], "count_all"),
                                           ("cents", "sum")])
        return pa.table({
            "day": g.column("day"),
            "n": pc.cast(g.column("count_all"), pa.int64()),
            "cents_sum": pc.cast(g.column("cents_sum"), pa.int64()),
        })

    pruned = (ray.data.read_parquet(files, columns=["day", "cents"])
              .map_batches(in_range, batch_format="pyarrow",
                           zero_copy_batch=True))

    def merge(group: pa.Table) -> pa.Table:
        return pa.table({
            "day": group.column("day").slice(0, 1),
            "n": pa.array([int(pc.sum(group.column("n")).as_py())],
                          type=pa.int64()),
            "cents_sum": pa.array(
                [int(pc.sum(group.column("cents_sum")).as_py())],
                type=pa.int64()),
        })

    return pruned.groupby("day").map_groups(merge, batch_format="pyarrow")


# ---------------------------------------------------------------- G19 ----
def g19_rolling_distinct(sf_dir: str, window_days: int = 7,
                         num_partitions: int = 16):
    """G19 — trailing rolling distinct: per (event_type, day), the count
    of DISTINCT users active in the trailing ``window_days``-day window
    — the "7-day actives per surface" metric every engagement dashboard
    leads with, and the classic hard case for windowed aggregation
    (distinct does not decompose like sum).

    Scale shape: per-block pre-distinct shrinks the first exchange to
    unique (type, day, user) triples; each triple then fans out to the
    <= ``window_days`` output days it contributes to (bounded x7 blowup,
    filtered against the observed day grid — a types x span-days
    broadcast, bounded by TIME not data size); one second exchange on
    (type, out_day) and a vectorized run-boundary distinct count.  No
    per-user state, no per-group Python.  Oracle: DISTINCT triples
    joined to the day grid with BETWEEN, count(DISTINCT)."""
    import pandas as pd
    import pyarrow.compute as pc

    from anomalydetection_ray.stages.runs import (
        keep_first_by, partition_apply, run_starts)

    ds = _read(sf_dir, "events", ["ts", "event_type", "user_id"])

    def to_triples(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch.column("ts").cast(pa.int64()), dtype=np.int64)
        day = us // 86_400_000_000
        t = pa.table({"event_type": batch.column("event_type"),
                      "day": pa.array(day, type=pa.int64()),
                      "user_id": batch.column("user_id")})
        return t.group_by(["event_type", "day", "user_id"]).aggregate([])

    pre = ds.map_batches(to_triples, batch_format="pyarrow",
                         zero_copy_batch=True)
    triples = keep_first_by(pre, keys=["event_type", "day", "user_id"],
                            num_partitions=num_partitions)

    # observed (type, day) grid — bounded by types * span-days, the one
    # justified tiny materialize (same contract as a29's day grid)
    grid = (pre.map_batches(
                lambda b: pa.table({"event_type": b.column("event_type"),
                                    "day": b.column("day")})
                .group_by(["event_type", "day"]).aggregate([]),
                batch_format="pyarrow", zero_copy_batch=True)
            .groupby(["event_type", "day"]).count())
    gtbl = grid.take_all()
    types = sorted({r["event_type"] for r in gtbl})
    tcode = {t: i for i, t in enumerate(types)}
    observed = np.unique(np.array(
        [tcode[r["event_type"]] * 1_000_000 + r["day"] for r in gtbl],
        dtype=np.int64))

    def expand(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({"event_type": pa.array([], type=pa.string()),
                             "day": pa.array([], type=pa.int64()),
                             "user_id": pa.array([], type=pa.int64())})
        et = batch.column("event_type").to_pandas()
        code = pd.Categorical(et, categories=types).codes.astype(np.int64)
        day = np.asarray(batch.column("day"), dtype=np.int64)
        uid = np.asarray(batch.column("user_id"), dtype=np.int64)
        w = window_days
        out_day = (day[:, None] + np.arange(w, dtype=np.int64)).ravel()
        out_code = np.repeat(code, w)
        out_uid = np.repeat(uid, w)
        keep = np.isin(out_code * 1_000_000 + out_day, observed)
        out_code, out_day, out_uid = out_code[keep], out_day[keep], out_uid[keep]
        ets = pa.array(np.array(types, dtype=object)[out_code],
                       type=pa.string())
        return pa.table({"event_type": ets,
                         "day": pa.array(out_day, type=pa.int64()),
                         "user_id": pa.array(out_uid, type=pa.int64())})

    contrib = triples.map_batches(expand, batch_format="pyarrow",
                                  zero_copy_batch=True)

    def kernel(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({"event_type": pa.array([], type=pa.string()),
                             "day": pa.array([], type=pa.int64()),
                             "u7": pa.array([], type=pa.int64())})
        part = part.sort_by([("event_type", "ascending"),
                             ("day", "ascending"),
                             ("user_id", "ascending")])
        s3 = run_starts(part, ["event_type", "day", "user_id"])
        dd = part.take(pa.array(s3, type=pa.int64()))
        s2 = run_starts(dd, ["event_type", "day"])
        lens = np.diff(np.append(s2, dd.num_rows))
        head = dd.take(pa.array(s2, type=pa.int64()))
        return pa.table({"event_type": head.column("event_type"),
                         "day": head.column("day"),
                         "u7": pa.array(lens, type=pa.int64())})

    return partition_apply(contrib, ["event_type", "day"], kernel,
                           num_partitions=num_partitions)


# ---------------------------------------------------------------- A35 ----
def a35_seasonal_energy(sf_dir: str):
    """A35 — exact spectral energy at periods 2 and 4 over each event
    type's daily cent-value totals: the DFT power at the two frequencies
    whose twiddle factors are EXACT INTEGERS (cos/sin of multiples of
    90 degrees are in {-1, 0, 1}), so "is there an every-other-day or
    4-day cycle?" becomes pure int64 arithmetic with a bitwise SQL
    oracle — the seasonality-strength screen next to A8's
    period-decomposition and A26's ACF.

    Scale shape: per-block (type, day) sum partials -> one exchange on a
    (types x span-days)-bounded key -> a per-TYPE finalize (bounded
    groups) holding only the daily grid.  Powers are the three pinned
    float ops on exact-int Fourier sums."""

    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        day = np.asarray(group.column("day"), dtype=np.int64)
        x = np.asarray(group.column("sum(x)"), dtype=np.int64)
        # exact Fourier sums at integer twiddles (python-int combine)
        s_alt = sum(int(xi) if d % 2 == 0 else -int(xi)
                    for d, xi in zip(day.tolist(), x.tolist()))
        c4 = sum(int(xi) if d % 4 == 0 else (-int(xi) if d % 4 == 2 else 0)
                 for d, xi in zip(day.tolist(), x.tolist()))
        s4 = sum(int(xi) if d % 4 == 1 else (-int(xi) if d % 4 == 3 else 0)
                 for d, xi in zip(day.tolist(), x.tolist()))
        p2 = float(s_alt) * float(s_alt)
        p4 = float(c4) * float(c4) + float(s4) * float(s4)
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([group.num_rows], type=pa.int64()),
            "s_alt": pa.array([s_alt], type=pa.int64()),
            "c4": pa.array([c4], type=pa.int64()),
            "s4": pa.array([s4], type=pa.int64()),
            "p2": pa.array([p2], type=pa.float64()),
            "p4": pa.array([p4], type=pa.float64()),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- A36 ----
def a36_rescaled_range(sf_dir: str):
    """A36 — rescaled-range (R/S) statistic per event type over the
    observed daily cent-total series (Hurst 1951): the range of the
    mean-adjusted cumulative deviations divided by the standard
    deviation — the long-range-dependence screen (R/S grows like n^H;
    H > 0.5 = persistent trends, < 0.5 = mean reversion).

    Everything before the final division is EXACT: with P_i the prefix
    sum and S/Q the total and sum of squares, the n-scaled deviation
    cumdev_i = n*P_i - i*S is an integer, R = max(cumdev) - min(cumdev)
    an integer, and R/S = R / sqrt(n*Q - S^2) is one pinned sqrt + one
    pinned division (the population-sigma n's cancel).

    Scale shape: A35's — per-block (type, day) partials, one bounded
    exchange, a per-TYPE finalize holding only the daily grid."""

    def finalize(group: pa.Table) -> pa.Table:
        import math

        et = group.column("event_type")[0].as_py()
        order = np.argsort(np.asarray(group.column("day"), dtype=np.int64))
        x = np.asarray(group.column("sum(x)"), dtype=np.int64)[order]
        n = int(x.shape[0])
        xs = [int(v) for v in x.tolist()]           # python-int exactness
        S = sum(xs)
        Q = sum(v * v for v in xs)
        p = 0
        cumdev = []
        for i, v in enumerate(xs, start=1):
            p += v
            cumdev.append(n * p - i * S)
        r_range = max(cumdev) - min(cumdev)
        var_num = n * Q - S * S
        rs = (float(r_range) / math.sqrt(float(var_num))
              if var_num > 0 else None)
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([n], type=pa.int64()),
            "r_range": pa.array([r_range], type=pa.int64()),
            "var_num": pa.array([var_num], type=pa.int64()),
            "rs": pa.array([rs], type=pa.float64(), from_pandas=True),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- J12 ----
def j12_band_join_count(sf_dir: str, window_s: int = 72 * 3600,
                        num_partitions: int = 16):
    """J12 — banded temporal join-aggregate: for every PURCHASE event,
    the count and exact cent-sum of the same user's ERROR events in the
    trailing ``window_s``-second band [t - w, t) — "did failures precede
    this conversion?".  The band join is the third temporal-join shape
    next to J4/J11's as-of point lookup and J5's interval stab.

    Scale shape: ONE co-partitioned ``_pkey`` exchange on user carries
    BOTH roles; the kernel never materializes pairs — both sides sort by
    a composite (dense-user-rank << 42 | rebased-ts-us) key and the band
    resolves as two vectorized ``searchsorted`` probes + a prefix-sum
    difference (O((n+m) log m), zero per-user Python).  Oracle: LEFT
    JOIN with the BETWEEN band + GROUP BY."""
    from anomalydetection_ray.stages.runs import partition_apply

    ev = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type", "value"])

    def kernel(part: pa.Table) -> pa.Table:
        empty = pa.table({
            "event_id": pa.array([], type=pa.int64()),
            "user_id": pa.array([], type=pa.int64()),
            "n_prior_errors": pa.array([], type=pa.int64()),
            "err_cents_sum": pa.array([], type=pa.int64()),
        })
        import pyarrow.compute as pc

        if part.num_rows == 0:
            return empty
        et = part.column("event_type")
        is_p = np.asarray(pc.equal(et, "purchase"))
        is_e = np.asarray(pc.equal(et, "error"))
        if not is_p.any():
            return empty
        uid = np.asarray(part.column("user_id"), dtype=np.int64)
        us = np.asarray(part.column("ts").cast(pa.int64()), dtype=np.int64)
        base = int(us.min())
        # dense user rank over the partition (vectorized, stable)
        uu, ucode = np.unique(uid, return_inverse=True)
        assert (us.max() - base) < (1 << 42) and len(uu) < (1 << 21)
        comp = (ucode.astype(np.int64) << 42) | (us - base)
        p_sel = np.flatnonzero(is_p)
        e_sel = np.flatnonzero(is_e)
        e_order = e_sel[np.argsort(comp[e_sel], kind="stable")]
        e_comp = comp[e_order]
        v = np.asarray(part.column("value"), dtype=np.float64)
        e_cents = np.floor(v[e_order] * 100.0 + 0.5).astype(np.int64)
        pref = np.concatenate(([0], np.cumsum(e_cents)))
        p_comp = comp[p_sel]
        # clamp the band start to the user's own key block so the probe
        # can't spill into the previous user's range
        lo_key = np.maximum(p_comp - window_s * 1_000_000,
                            (ucode[p_sel].astype(np.int64) << 42))
        lo = np.searchsorted(e_comp, lo_key, side="left")
        hi = np.searchsorted(e_comp, p_comp, side="left")
        eid = np.asarray(part.column("event_id"), dtype=np.int64)
        return pa.table({
            "event_id": pa.array(eid[p_sel], type=pa.int64()),
            "user_id": pa.array(uid[p_sel], type=pa.int64()),
            "n_prior_errors": pa.array(hi - lo, type=pa.int64()),
            "err_cents_sum": pa.array(pref[hi] - pref[lo],
                                      type=pa.int64()),
        })

    return partition_apply(ev, ["user_id"], kernel, num_partitions)


# ---------------------------------------------------------------- S19 ----
def s19_gzip_jsonl_roundtrip(sf_dir: str):
    """S19 — COMPRESSED JSONL (.jsonl.gz) source/sink round trip: the
    wire format most external corpora actually arrive in (Common-Crawl
    -style dumps are gzip'd JSON lines).  Documents are serialized to
    gzip shards task-side (pandas' C json writer + one gzip.compress
    per SHARD — no per-row Python), read back through
    ``read_binary_files`` + task-side ``pyarrow.json`` parse, and
    aggregated per source; the oracle computes the same aggregates from
    the original parquet, so the check passes only if compression +
    JSON escaping preserved every row and byte.

    Scale shape: shard-granular codec work on both legs (one gzip call
    per block), streaming reads, no driver materialization beyond the
    bounded per-source result."""
    import gzip
    import io
    import os
    import shutil
    import tempfile

    import pyarrow.compute as pc
    import pyarrow.json as pj
    import ray.data

    out = tempfile.mkdtemp(prefix="anomray_jsonlgz_")
    try:
        def write_shard(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            payload = df.to_json(orient="records", lines=True,
                                 force_ascii=True).encode()
            path = os.path.join(
                out, f"shard-{int(df['doc_id'].iloc[0]):012d}.jsonl.gz")
            with open(path, "wb") as f:
                f.write(gzip.compress(payload, compresslevel=1))
            return pa.table({"path": pa.array([path], type=pa.string()),
                             "rows": pa.array([batch.num_rows],
                                              type=pa.int64())})

        markers = (_read(sf_dir, "documents",
                         ["doc_id", "source", "n_chars", "text"])
                   .map_batches(write_shard, batch_format="pyarrow"))
        n_written = sum(r["rows"] for r in markers.take_all())

        def parse(batch: pa.Table) -> pa.Table:
            tables = []
            for buf in batch.column("bytes").to_pylist():
                # read_binary_files may already have inflated .gz via the
                # arrow codec — decompress only when the magic is present
                raw = gzip.decompress(buf) if buf[:2] == b"\x1f\x8b" else buf
                tables.append(pj.read_json(io.BytesIO(raw)))
            t = pa.concat_tables(tables)
            text = t.column("text")
            if isinstance(text, pa.ChunkedArray):
                text = text.combine_chunks()
            words = pc.list_value_length(pc.split_pattern(text, " "))
            agg = pa.table({
                "source": t.column("source"),
                "n_chars": pc.cast(t.column("n_chars"), pa.int64()),
                "ws_words": pc.cast(words, pa.int64()),
            }).group_by("source").aggregate(
                [([], "count_all"), ("n_chars", "sum"), ("ws_words", "sum")])
            return pa.table({
                "source": agg.column("source"),
                "n_docs": pc.cast(agg.column("count_all"), pa.int64()),
                "chars_sum": pc.cast(agg.column("n_chars_sum"), pa.int64()),
                "words_sum": pc.cast(agg.column("ws_words_sum"), pa.int64()),
            })

        partials = (ray.data.read_binary_files(out)
                    .map_batches(parse, batch_format="pyarrow"))

        def merge(group: pa.Table) -> pa.Table:
            return pa.table({
                "source": group.column("source").slice(0, 1),
                "n_docs": pa.array(
                    [int(pc.sum(group.column("n_docs")).as_py())],
                    type=pa.int64()),
                "chars_sum": pa.array(
                    [int(pc.sum(group.column("chars_sum")).as_py())],
                    type=pa.int64()),
                "words_sum": pa.array(
                    [int(pc.sum(group.column("words_sum")).as_py())],
                    type=pa.int64()),
            })

        res = partials.groupby("source").map_groups(
            merge, batch_format="pyarrow")
        tbl = pa.concat_tables(list(res.iter_batches(batch_format="pyarrow")))
        assert int(pa.compute.sum(tbl.column("n_docs")).as_py()) == n_written
        return ray.data.from_arrow(tbl)
    finally:
        shutil.rmtree(out, ignore_errors=True)


# ---------------------------------------------------------------- A37 ----
def a37_pettitt(sf_dir: str):
    """A37 — Pettitt rank-based changepoint test (Pettitt 1979) per event
    type over the observed daily cent-total series: the nonparametric
    mean-shift locator next to A32's parametric AMOC — robust to outliers
    because it sees only ranks, not magnitudes.

    Exactness: with mid-ranks R_i (average ranks under ties), the
    per-point sign sum is the INTEGER identity
    V_i = sum_j sgn(x_i - x_j) = 2*R_i - (n+1), where
    2*R_i = 2*min_rank_i + ties_i - 1 is itself an integer, and the
    Pettitt statistic U_t = sum_{i<=t} V_i (the i<=t, j<=t block cancels
    by antisymmetry).  K = max_t |U_t| over t = 1..n-1 and the argmax day
    (min-t tiebreak) are exact ints; the only floats are the pinned
    p-approximation 2*exp(-6K^2/(n^3+n^2)) — one int->double cast each
    for numerator and denominator, one libm exp, one multiply, identical
    on the SQL side.

    Plan: ``_daily_cents`` (``_events_grid``), one finalize per type."""

    def finalize(group: pa.Table) -> pa.Table:
        import math

        et = group.column("event_type")[0].as_py()
        day = np.asarray(group.column("day"), dtype=np.int64)
        x = np.asarray(group.column("sum(x)"), dtype=np.int64)
        n = int(x.shape[0])
        # mid-ranks doubled: 2R_i = 2*min_rank + ties - 1 (exact ints)
        sort_idx = np.argsort(x, kind="stable")
        xs = x[sort_idx]
        uniq, first, counts = np.unique(xs, return_index=True,
                                        return_counts=True)
        # min rank (1-based) of each value, broadcast back per element
        min_rank = np.empty(n, dtype=np.int64)
        ties = np.empty(n, dtype=np.int64)
        pos = np.searchsorted(uniq, x)
        min_rank = first[pos] + 1
        ties = counts[pos]
        two_r = 2 * min_rank + ties - 1
        v_i = two_r - (n + 1)
        u = np.cumsum(v_i)                      # U_t for t = 1..n
        if n > 1:
            u_head = u[:-1]                     # t = 1..n-1
            absu = np.abs(u_head)
            k_stat = int(absu.max())
            tau_idx = int(np.argmax(absu))      # first max -> min t
            tau_day = int(day[tau_idx])
            p = 2.0 * math.exp(float(-6 * k_stat * k_stat)
                               / float(n ** 3 + n ** 2))
        else:
            k_stat, tau_day, p = 0, int(day[0]), None
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([n], type=pa.int64()),
            "k_stat": pa.array([k_stat], type=pa.int64()),
            "tau_day": pa.array([tau_day], type=pa.int64()),
            "p_approx": pa.array([p], type=pa.float64(), from_pandas=True),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- G20 ----
def g20_spearman_daily(sf_dir: str):
    """G20 — Spearman rank correlation per event type between the daily
    cent-value total and the daily event count across the observed days:
    "do busier days carry proportionally more value?" answered
    monotonically (rank-based), the robust sibling of G10's Pearson.

    Exactness: both series are replaced by DOUBLED mid-ranks
    (2R_i = 2*min_rank + ties - 1, exact ints — the A37 identity), and
    Spearman rho is Pearson over those integer ranks: with exact int
    moments n, Sa, Sb, Saa, Sbb, Sab the numerator n*Sab - Sa*Sb and the
    two variance terms are ints (the doubling cancels), and rho is the
    pinned float(num) / (sqrt(float(d1)) * sqrt(float(d2))).

    Plan: ``_events_grid`` over the (type, day) grid of the cent sum
    ``x`` and the count ``c``, per-type finalize."""
    def derive(batch: pa.Table) -> pa.Table:
        return pa.table({"event_type": batch.column("event_type"),
                         "day": pa.array(_ts_us(batch) // DAY_US_Q),
                         "x": pa.array(_cents(batch)),
                         "c": _ones(batch.num_rows)})

    def _two_r(vals: np.ndarray) -> np.ndarray:
        n = vals.shape[0]
        uniq, first, counts = np.unique(np.sort(vals, kind="stable"),
                                        return_index=True,
                                        return_counts=True)
        pos = np.searchsorted(uniq, vals)
        return 2 * (first[pos] + 1) + counts[pos] - 1

    def finalize(group: pa.Table) -> pa.Table:
        import math

        et = group.column("event_type")[0].as_py()
        x = np.asarray(group.column("x"), dtype=np.int64)
        c = np.asarray(group.column("c"), dtype=np.int64)
        n = int(x.shape[0])
        a = _two_r(x)
        b = _two_r(c)
        ai = [int(v) for v in a.tolist()]
        bi = [int(v) for v in b.tolist()]
        sa, sb = sum(ai), sum(bi)
        saa = sum(v * v for v in ai)
        sbb = sum(v * v for v in bi)
        sab = sum(p * q for p, q in zip(ai, bi))
        num = n * sab - sa * sb
        d1 = n * saa - sa * sa
        d2 = n * sbb - sb * sb
        rho = (float(num) / (math.sqrt(float(d1)) * math.sqrt(float(d2)))
               if d1 > 0 and d2 > 0 else None)
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([n], type=pa.int64()),
            "num": pa.array([num], type=pa.int64()),
            "d1": pa.array([d1], type=pa.int64()),
            "d2": pa.array([d2], type=pa.int64()),
            "rho": pa.array([rho], type=pa.float64(), from_pandas=True),
        })

    return _events_grid(sf_dir, ["event_type", "ts", "value"], derive,
                        ["event_type", "day"], ["x", "c"], _by_type(finalize))


# ---------------------------------------------------------------- G21 ----
def g21_theil_index(sf_dir: str):
    """G21 — per-source Theil inequality indices over document lengths
    (Theil 1967): T = (1/n)·Σ (x/μ)·ln(x/μ) (top-sensitive) and
    L = (1/n)·Σ ln(μ/x) (bottom-sensitive mean-log-deviation) — the
    decomposable inequality family next to G13's Gini.

    Exactness: the ratio x/μ is computed as the pinned
    float(x·n)/float(S) (one int64 product, one int→double cast each,
    one division); each term's ln is the same libm call DuckDB makes;
    the folds run in the deterministic (n_chars, doc_id) ascending
    order on both sides (G15's list_reduce discipline), and each index
    is one final pinned division by float(n).

    Scale shape: G13's — one exchange keyed on the bounded source
    domain; the kernel is a sort + one sequential fold.  Documented
    tradeoff: the fold is O(docs-per-source) SCALAR work because each
    term's ln must be the libm call the DuckDB oracle makes (numpy's
    SIMD log diverges by 1 ulp); a production deployment that does not
    need bit-parity swaps the loop for np.log over the same order and
    keeps everything else."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def per_source(group: pa.Table) -> pa.Table:
        import math

        t = group.sort_by([("n_chars", "ascending"), ("doc_id", "ascending")])
        x = np.asarray(t.column("n_chars"), dtype=np.int64)
        n = int(x.shape[0])
        s = int(x.sum())
        acc_t = 0.0
        acc_l = 0.0
        for xi in x.tolist():
            ratio = float(int(xi) * n) / float(s)
            lr = math.log(ratio)
            acc_t = acc_t + ratio * lr
            acc_l = acc_l + lr
        theil_t = acc_t / float(n)
        theil_l = -acc_l / float(n)
        return pa.table({
            "source": t.column("source").slice(0, 1),
            "n_docs": pa.array([n], type=pa.int64()),
            "sum_chars": pa.array([s], type=pa.int64()),
            "theil_t": pa.array([theil_t], type=pa.float64()),
            "theil_l": pa.array([theil_l], type=pa.float64()),
        })

    return ds.groupby("source").map_groups(per_source,
                                           batch_format="pyarrow")


# ---------------------------------------------------------------- S20 ----
def s20_zonemap_pruning(sf_dir: str, offset_days: int = 10,
                        span_days: int = 7, rows_per_group: int = 2048):
    """S20 — sorted layout + ROW-GROUP zone-map pruned read: the events
    table is persisted ONCE sorted by day with small row groups (a
    distributed sort -> per-block task-side parquet writes), and a
    day-range probe then plans from FOOTER STATISTICS ONLY which (file,
    row-group) units can contain matching rows, reading nothing else.
    S18 prunes at hive-directory granularity; this is the finer
    intra-file zone-map level — together they are the two-tier pruning
    story a 100 TB time-range scan lives on.

    Scale shape: the layout build is sort + embarrassingly-parallel
    per-block writes (one-time cost, amortized across probes); the probe
    reads only overlapping row groups through a from_items unit list (no
    driver data), with a residual in-range filter trimming unit edges.
    Oracle: the same day-range aggregate over the raw table — values
    match only if pruning lost nothing."""
    import pyarrow.parquet as pq
    import ray.data

    from anomalydetection_ray.state.layout import persist_bucketed

    path = f"{sf_dir}/events.parquet"
    US_DAY = 86_400_000_000

    import datetime as _dt

    def _us(x) -> int:
        if isinstance(x, _dt.datetime):
            return int(x.replace(tzinfo=_dt.timezone.utc).timestamp()
                       * 1_000_000)
        return int(x)

    md = pq.ParquetFile(path).metadata
    names = [md.schema.column(i).name for i in range(md.num_columns)]
    ci = names.index("ts")
    min_day = min(_us(md.row_group(g).column(ci).statistics.min)
                  for g in range(md.num_row_groups)) // US_DAY
    d0 = min_day + offset_days
    d1 = d0 + span_days - 1

    def build(tmp: str) -> None:
        import hashlib as _hl
        import os as _os

        ds = ray.data.read_parquet(path, columns=["ts", "value"])

        def to_day(batch: pa.Table) -> pa.Table:
            us = np.asarray(batch.column("ts").cast(pa.int64()),
                            dtype=np.int64)
            return pa.table({
                "day": pa.array(us // US_DAY, type=pa.int64()),
                "cents": pa.array(
                    np.floor(np.asarray(batch.column("value"),
                                        dtype=np.float64) * 100.0
                             + 0.5).astype(np.int64), type=pa.int64()),
            })

        def write_shard(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return pa.table({"path": pa.array([], type=pa.string()),
                                 "rows": pa.array([], type=pa.int64())})
            day = np.asarray(batch.column("day"), dtype=np.int64)
            tag = _hl.md5(day.tobytes()).hexdigest()[:12]
            f = _os.path.join(
                tmp, f"part-{int(day[0])}-{int(day[-1])}-{tag}.parquet")
            pq.write_table(batch, f, row_group_size=rows_per_group)
            return pa.table({"path": pa.array([f], type=pa.string()),
                             "rows": pa.array([batch.num_rows],
                                              type=pa.int64())})

        (ds.map_batches(to_day, batch_format="pyarrow",
                        zero_copy_batch=True)
           .sort("day")
           .map_batches(write_shard, batch_format="pyarrow",
                        batch_size=None)
           .materialize())

    layout = persist_bucketed(
        "evzone", path, f"S20-rg{rows_per_group}", build)

    # plan from footer stats only: (file, row-group) units overlapping
    # [d0, d1] — and remember the totals so callers can audit pruning
    import glob as _glob
    units, rg_total = [], 0
    for f in sorted(_glob.glob(f"{layout}/part-*.parquet")):
        fmd = pq.ParquetFile(f).metadata
        didx = [fmd.schema.column(i).name
                for i in range(fmd.num_columns)].index("day")
        for g in range(fmd.num_row_groups):
            rg_total += 1
            st = fmd.row_group(g).column(didx).statistics
            if int(st.min) <= d1 and int(st.max) >= d0:
                units.append({"path": f, "rg": g})
    s20_zonemap_pruning.last_plan = {"rg_total": rg_total,
                                     "rg_scanned": len(units)}

    def read_unit(batch: pa.Table) -> pa.Table:
        tabs = []
        for path, rg in zip(batch.column("path").to_pylist(),
                            batch.column("rg").to_pylist()):
            t = pq.ParquetFile(path).read_row_group(rg)
            day = np.asarray(t.column("day"), dtype=np.int64)
            keep = (day >= d0) & (day <= d1)
            t = t.filter(pa.array(keep))
            if t.num_rows:
                g = t.group_by(["day"]).aggregate([([], "count_all"),
                                                   ("cents", "sum")])
                tabs.append(pa.table({
                    "day": g.column("day"),
                    "n": g.column("count_all").cast(pa.int64()),
                    "cents_sum": g.column("cents_sum").cast(pa.int64()),
                }))
        if not tabs:
            return pa.table({"day": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64()),
                             "cents_sum": pa.array([], type=pa.int64())})
        return pa.concat_tables(tabs)

    import ray.data as _rd
    agg = (_rd.from_items(units)
           .map_batches(read_unit, batch_format="pyarrow")
           .groupby("day").sum(["n", "cents_sum"]))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "day": batch.column("day"),
            "n": batch.column("sum(n)").cast(pa.int64()),
            "cents_sum": batch.column("sum(cents_sum)").cast(pa.int64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------- G22 ----
def g22_value_quantiles_by_type(sf_dir: str, qs=(0.5, 0.9, 0.99)):
    """G22 — EXACT per-event-type value quantiles at any scale without a
    sort: the G3 bincount-histogram trick transplanted from the token
    domain to quantized cents — each block emits one bounded cent
    histogram per type (values live in a small integer domain after
    x100 quantization), histograms add associatively per cell, and the
    LOWER quantile (smallest v with cum count
    >= ceil(q*n)) is read off the merged counts.  Plan: ``_cent_hist``."""
    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        v = np.asarray(group.column("v100"), dtype=np.int64)
        c = np.asarray(group.column("n"), dtype=np.int64)
        cum = np.cumsum(c)
        total = int(cum[-1])
        row = {"event_type": [et], "n": [total]}
        for q in qs:
            k = min(int(np.ceil(q * total)), total) if total else 0
            idx = int(np.searchsorted(cum, max(k, 1))) if total else 0
            row[f"p{int(q * 100)}_cents"] = [int(v[idx])]
        return pa.Table.from_pydict(row)

    return _cent_hist(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- J14 ----
def j14_asof_tolerance(sf_dir: str, tolerance_us: int = 43_200_000_000):
    """J14 — backward as-of join WITH TOLERANCE: J4's latest-checkpoint
    lookup, but a match older than ``tolerance_us`` is rejected (nulled)
    instead of silently used — the staleness guard every feature-store /
    calibration pipeline needs ("use the last reading, but never one
    older than 12 h").  Also emits the match age so downstream can audit
    staleness headroom.

    Scale shape: identical to J4 — one co-partitioned ``_pkey`` exchange
    carries both roles; the tolerance test is a post-attach vectorized
    filter (the checkpoint ts ships as one extra payload column), no
    second exchange.  Oracle: DuckDB ASOF LEFT JOIN + the same CASE
    age test."""
    from anomalydetection_ray.stages.join import asof_attach
    from anomalydetection_ray.stages.runs import partition_apply, run_starts

    ev = _read(sf_dir, "events", ["event_id", "ts", "event_type", "value"])

    def cp_kernel(group: pa.Table) -> pa.Table:
        group = group.sort_by(
            [("event_type", "ascending"), ("ts", "ascending"),
             ("event_id", "ascending")])
        starts = run_starts(group, ["event_type"])
        n = group.num_rows
        counts = np.diff(np.append(starts, n))
        rank = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
        keep = np.flatnonzero(rank % 50 == 0)
        cp = group.take(pa.array(keep, type=pa.int64()))
        return pa.table({
            "event_type": cp.column("event_type"),
            "ts": cp.column("ts"),
            "calib_ts": cp.column("ts"),
            "calib_event_id": cp.column("event_id"),
            "calib_value": cp.column("value"),
        })

    checkpoints = partition_apply(ev, ["event_type"], cp_kernel, 8)

    joined = asof_attach(
        ev, checkpoints, by="event_type", on="ts",
        payload_cols=["calib_value", "calib_event_id", "calib_ts"])

    def tolerate(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch.column("ts").cast(pa.int64()),
                        dtype=np.int64)
        cts_col = batch.column("calib_ts").cast(pa.int64())
        has = ~np.asarray(pa.compute.is_null(cts_col))
        cts = np.asarray(cts_col.fill_null(0), dtype=np.int64)
        age = ts - cts
        ok = has & (age <= tolerance_us)
        mask = ~ok
        return pa.table({
            "event_id": batch.column("event_id"),
            "event_type": batch.column("event_type"),
            "value": batch.column("value"),
            "calib_value": pa.array(
                np.asarray(batch.column("calib_value").fill_null(0.0),
                           dtype=np.float64), type=pa.float64(),
                mask=mask),
            "calib_event_id": pa.array(
                np.asarray(batch.column("calib_event_id").fill_null(0),
                           dtype=np.int64), type=pa.int64(), mask=mask),
            "age_us": pa.array(age, type=pa.int64(), mask=mask),
        })

    return joined.map_batches(tolerate, batch_format="pyarrow",
                              zero_copy_batch=True)


# ---------------------------------------------------------------- A38 ----
def a38_mann_whitney(sf_dir: str):
    """A38 — Mann–Whitney rank-sum drift test per event type between the
    even- and odd-parity days of the daily cent-total series (D3's
    split, A12's question, answered by ranks): the distribution-free
    "did the level shift between the halves?" screen that tolerates the
    heavy tails a t-test chokes on.

    Exactness: doubled mid-ranks 2R = 2*min_rank + ties - 1 (the A37
    identity) make the doubled rank-sum W2 and the doubled statistic
    U2 = W2 - n*(n+1) exact ints; the tie-corrected variance numerator
    var2_num = n*m*((N+1)*N*(N-1) - SUM(t^3 - t)) is an exact int too,
    and z = float(U2 - n*m) / sqrt(float(var2_num) / float(3*N*(N-1)))
    is three pinned float ops.

    Scale shape: A35-family — per-block (type, day) partials, one
    bounded exchange, per-TYPE finalize over the daily grid."""

    def finalize(group: pa.Table) -> pa.Table:
        import math

        et = group.column("event_type")[0].as_py()
        day = np.asarray(group.column("day"), dtype=np.int64)
        x = np.asarray(group.column("sum(x)"), dtype=np.int64)
        big_n = int(x.shape[0])
        uniq, first, counts = np.unique(np.sort(x, kind="stable"),
                                        return_index=True,
                                        return_counts=True)
        pos = np.searchsorted(uniq, x)
        two_r = 2 * (first[pos] + 1) + counts[pos] - 1
        even = (day % 2) == 0
        n = int(even.sum())
        m = big_n - n
        w2 = int(two_r[even].sum())
        u2 = w2 - n * (n + 1)
        ties = sum(int(c) ** 3 - int(c) for c in counts.tolist())
        var2_num = n * m * ((big_n + 1) * big_n * (big_n - 1) - ties)
        if n > 0 and m > 0 and var2_num > 0:
            z = (float(u2 - n * m)
                 / math.sqrt(float(var2_num)
                             / float(3 * big_n * (big_n - 1))))
        else:
            z = None
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_even": pa.array([n], type=pa.int64()),
            "n_odd": pa.array([m], type=pa.int64()),
            "u2": pa.array([u2], type=pa.int64()),
            "var2_num": pa.array([var2_num], type=pa.int64()),
            "z": pa.array([z], type=pa.float64(), from_pandas=True),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- A39 ----
def a39_bartels_rvn(sf_dir: str):
    """A39 — Bartels rank von Neumann ratio (Bartels 1982) per event
    type over the daily cent-total series: the rank-based serial-
    randomness test (RVN ~ 2 under independence, < 2 under positive
    serial correlation / trend, > 2 under alternation) — the
    rank-robust sibling of A31's runs test and A9's ACF.

    Exactness: with doubled mid-ranks 2R (A37 identity) the numerator
    NUM2 = SUM (2R_i - 2R_{i+1})^2 is an exact int, and because
    SUM 2R = n*(n+1) exactly, the mean of 2R is the INTEGER n+1, so the
    denominator DEN2 = SUM (2R_i - (n+1))^2 is exact too; the doubling
    cancels in RVN = float(NUM2) / float(DEN2) — one pinned division.

    Plan: ``_daily_cents`` (``_events_grid``), one finalize per type."""

    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        x = np.asarray(group.column("sum(x)"), dtype=np.int64)
        n = int(x.shape[0])
        uniq, first, counts = np.unique(np.sort(x, kind="stable"),
                                        return_index=True,
                                        return_counts=True)
        pos = np.searchsorted(uniq, x)
        two_r = (2 * (first[pos] + 1) + counts[pos] - 1).astype(object)
        tr = [int(v) for v in two_r]
        num2 = sum((tr[i] - tr[i + 1]) ** 2 for i in range(n - 1))
        den2 = sum((v - (n + 1)) ** 2 for v in tr)
        rvn = float(num2) / float(den2) if den2 > 0 else None
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([n], type=pa.int64()),
            "num2": pa.array([num2], type=pa.int64()),
            "den2": pa.array([den2], type=pa.int64()),
            "rvn": pa.array([rvn], type=pa.float64(), from_pandas=True),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- U3 ----
def u3_tombstone_merge(sf_dir: str):
    """U3 — CDC merge WITH DELETES (tombstones): U1's last-writer-wins
    upsert extended with a delete stream — the full MERGE INTO triangle
    (insert / update / delete) a CDC compactor must resolve.  Derived
    deterministically from events (the oracle replays the rules): every
    7th event re-priced one day later (update, op 1); every 17th
    tombstoned two days later (delete, op 2); base rows are op 0.  For
    each event_id the row with the latest (ts, op) wins; a winning
    tombstone REMOVES the key from the output.

    Scale shape: U1's CDC-compaction plan unchanged — per-block local
    argmax (one candidate per key per block), ONE exchange, partition
    re-argmax, then the tombstone filter; never a full sort."""
    DAY_US = 86_400_000_000
    base = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def to_op(batch: pa.Table, op: int) -> pa.Table:
        ts = batch.column("ts")
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        ts_us = np.asarray(ts.cast(pa.int64()))
        v = np.asarray(batch.column("value"), dtype=np.float64)
        eid = np.asarray(batch.column("event_id"), dtype=np.int64)
        uid = np.asarray(batch.column("user_id"), dtype=np.int64)
        if op == 1:
            keep = eid % 7 == 0
            eid, uid = eid[keep], uid[keep]
            ts_us, v = ts_us[keep] + DAY_US, v[keep] + 1000.0
        elif op == 2:
            keep = eid % 17 == 0
            eid, uid = eid[keep], uid[keep]
            ts_us, v = ts_us[keep] + 2 * DAY_US, v[keep]
        return pa.table({
            "event_id": pa.array(eid, type=pa.int64()),
            "ts_us": pa.array(ts_us, type=pa.int64()),
            "user_id": pa.array(uid, type=pa.int64()),
            "value": pa.array(v, type=pa.float64()),
            "op": pa.array(np.full(len(eid), op, dtype=np.int64),
                           type=pa.int64()),
        })

    streams = (base.map_batches(lambda b: to_op(b, 0),
                                batch_format="pyarrow",
                                zero_copy_batch=True)
               .union(base.map_batches(lambda b: to_op(b, 1),
                                       batch_format="pyarrow",
                                       zero_copy_batch=True))
               .union(base.map_batches(lambda b: to_op(b, 2),
                                       batch_format="pyarrow",
                                       zero_copy_batch=True)))

    def local_argmax(batch: pa.Table) -> pa.Table:
        from anomalydetection_ray.stages.runs import run_starts

        if batch.num_rows == 0:
            return batch
        t = batch.sort_by([("event_id", "ascending"),
                           ("ts_us", "ascending"), ("op", "ascending")])
        starts = run_starts(t, ["event_id"])
        last = np.append(starts[1:], t.num_rows) - 1
        return t.take(pa.array(last))

    partials = streams.map_batches(local_argmax, batch_format="pyarrow")

    from anomalydetection_ray.stages.runs import partition_apply
    from anomalydetection_ray.stages.runs import run_starts as _rs

    def merge(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return part
        t = part.sort_by([("event_id", "ascending"),
                          ("ts_us", "ascending"), ("op", "ascending")])
        starts = _rs(t, ["event_id"])
        last = np.append(starts[1:], t.num_rows) - 1
        t = t.take(pa.array(last, type=pa.int64()))
        op = np.asarray(t.column("op"), dtype=np.int64)
        return t.filter(pa.array(op != 2)).rename_columns(
            ["event_id", "ts_us", "user_id", "value", "last_op"])

    return partition_apply(partials, ["event_id"], merge)


# ---------------------------------------------------------------- A40 ----
def a40_exp_gof(sf_dir: str):
    """A40 — exponential goodness-of-fit of the arrival process per
    event type: fit the MLE rate to the inter-arrival gaps and report
    the Kolmogorov-Smirnov distance to Exp(lambda-hat) — "is this a
    Poisson process?" (bursty arrivals reject; the operational premise
    behind every Poisson-based capacity model gets audited here).

    Exactness: gaps are exact int64 microseconds; the scaled exponent
    t_i = float(n * gap_i) / float(S) (one int64 product - products
    bounded by n*span < 2^62 - one division) pins the CDF argument, so
    F_i = 1 - exp(-t_i) is the same libm exp both sides; the KS
    distance is an order-independent max over pinned per-point floats
    (i/n and (i-1)/n are int->double divisions).

    Scale shape: one `_pkey` exchange on the bounded event_type domain;
    the kernel sorts its types' arrivals once and is fully vectorized."""
    from anomalydetection_ray.stages.runs import partition_apply, run_starts

    ev = _read(sf_dir, "events", ["event_type", "ts", "event_id"])

    def kernel(group: pa.Table) -> pa.Table:
        import math

        group = group.sort_by(
            [("event_type", "ascending"), ("ts", "ascending"),
             ("event_id", "ascending")])
        n_rows = group.num_rows
        if n_rows == 0:
            return pa.table({
                "event_type": pa.array([], type=pa.string()),
                "n_gaps": pa.array([], type=pa.int64()),
                "gaps_us_sum": pa.array([], type=pa.int64()),
                "ks_d": pa.array([], type=pa.float64()),
            })
        ts = np.asarray(group.column("ts").cast(pa.int64()),
                        dtype=np.int64)
        starts = run_starts(group, ["event_type"])
        ends = np.append(starts[1:], n_rows)
        ets = group.column("event_type")
        out_t, out_n, out_s, out_d = [], [], [], []
        for s, e in zip(starts.tolist(), ends.tolist()):
            g = np.sort(np.diff(ts[s:e]))
            n = int(g.shape[0])
            if n == 0:
                continue
            total = int(g.sum())
            # pinned per-point CDF: SCALAR libm exp (numpy's SIMD exp
            # can diverge from libm by 1 ulp — the tfidf ln precedent);
            # per-series scalar work is the detector family's documented
            # granularity (ESD/SHESD do the same).  Production swap when
            # bit-parity is not needed: np.exp over the same vector.
            t = (n * g.astype(np.float64)) / float(total)
            f = np.asarray([1.0 - math.exp(-x) for x in t.tolist()],
                           dtype=np.float64)
            i = np.arange(1, n + 1, dtype=np.float64)
            d_plus = (i / float(n)) - f
            d_minus = f - ((i - 1.0) / float(n))
            d = float(np.maximum(d_plus, d_minus).max())
            out_t.append(ets[s].as_py())
            out_n.append(n)
            out_s.append(total)
            out_d.append(d)
        return pa.table({
            "event_type": pa.array(out_t, type=pa.string()),
            "n_gaps": pa.array(out_n, type=pa.int64()),
            "gaps_us_sum": pa.array(out_s, type=pa.int64()),
            "ks_d": pa.array(out_d, type=pa.float64()),
        })

    return partition_apply(ev, ["event_type"], kernel, 8)


# ---------------------------------------------------------------- A41 ----
def a41_variance_ratio(sf_dir: str):
    """A41 — variance-ratio test (Lo & MacKinlay 1988, population form)
    per event type over the daily cent-total series: VR(2) compares the
    variance of 2-day differences to twice the variance of 1-day
    differences — VR ~ 1 for a random walk, > 1 under momentum
    (positive serial correlation), < 1 under mean reversion.  The
    parametric sibling of A39's rank RVN.

    Exactness: 1-day and 2-day differences are exact ints; the
    population variance NUMERATORS n*SUM(d^2) - SUM(d)^2 are exact
    python-ints, and VR = (float(ve) * float(n1^2))
    / (float(vd) * float(n2^2) * 2.0) is four pinned float ops in a
    fixed association order the SQL replays.

    Plan: ``_daily_cents`` (``_events_grid``), one finalize per type."""

    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        x = group.column("sum(x)").to_pylist()
        n = len(x)
        d1 = [x[i + 1] - x[i] for i in range(n - 1)]
        d2 = [x[i + 2] - x[i] for i in range(n - 2)]
        n1, n2 = len(d1), len(d2)
        vd = n1 * sum(v * v for v in d1) - sum(d1) ** 2
        ve = n2 * sum(v * v for v in d2) - sum(d2) ** 2
        vr = ((float(ve) * float(n1 * n1))
              / (float(vd) * float(n2 * n2) * 2.0)
              if n1 > 1 and n2 > 1 and vd > 0 else None)
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([n], type=pa.int64()),
            "var_num_d1": pa.array([vd], type=pa.int64()),
            "var_num_d2": pa.array([ve], type=pa.int64()),
            "vr2": pa.array([vr], type=pa.float64(), from_pandas=True),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- A42 ----
def a42_seasonal_mk(sf_dir: str):
    """A42 — seasonal Mann–Kendall trend test (Hirsch & Slack 1984) per
    event type over the daily cent-total series: A33's distribution-free
    monotone-trend screen made season-proof by comparing days only
    WITHIN the same weekday phase (Monday to Mondays, ...), so a weekly
    cycle cannot masquerade as trend.  S and the tie-corrected variance
    sum over the 7 phases; same continuity-corrected z as A33.

    Exactness: per-phase S and variance numerators are exact
    python-ints (pair loops over the <= ceil(span/7)-point phase
    series inside the bounded-grid finalize); the z tail is A33's
    pinned sqrt(float(var)/18.0) + one division.

    Plan: ``_daily_cents`` (``_events_grid``), one finalize per type.
    The O(g^2) pair work runs on per-phase series of length ~span/7."""

    def finalize(group: pa.Table) -> pa.Table:
        import math

        et = group.column("event_type")[0].as_py()
        day = np.asarray(group.column("day"), dtype=np.int64)
        x = np.asarray(group.column("sum(x)"), dtype=np.int64)
        n = int(x.shape[0])
        ph = (day + 3) % 7
        s_tot = 0
        var_tot = 0
        for p in range(7):
            sel = ph == p
            xs = [int(v) for v in x[sel].tolist()]
            np_len = len(xs)
            for i in range(np_len):
                for j in range(i + 1, np_len):
                    s_tot += (xs[j] > xs[i]) - (xs[j] < xs[i])
            var_tot += np_len * (np_len - 1) * (2 * np_len + 5)
            _, counts = np.unique(np.asarray(xs, dtype=np.int64),
                                  return_counts=True)
            var_tot -= sum(int(c) * (int(c) - 1) * (2 * int(c) + 5)
                           for c in counts.tolist())
        if n >= 2 and var_tot > 0:
            sd = math.sqrt(float(var_tot) / 18.0)
            z = (0.0 if s_tot == 0
                 else (float(s_tot - 1) / sd if s_tot > 0
                       else float(s_tot + 1) / sd))
        else:
            z = None
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([n], type=pa.int64()),
            "s_stat": pa.array([s_tot], type=pa.int64()),
            "var_num": pa.array([var_tot], type=pa.int64()),
            "z_smk": pa.array([z], type=pa.float64(), from_pandas=True),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- R3 ----
def r3_incremental_rollup(sf_dir: str):
    """R3 — incremental continuous-aggregate maintenance: the (user,
    day) rollup is first built WITHOUT the late-arriving slice (every
    13th event, the deterministic stand-in for data that shows up after
    the watermark), then the late slice's partial aggregates MERGE into
    the existing buckets — and the result must equal the full recompute
    bit-for-bit, which is exactly what the oracle (a plain full
    aggregate) checks.  This is the north star's "continuous aggregate"
    obligation in its purest form: time-keyed buckets + associative
    merge = O(late-slice) maintenance instead of O(corpus) recompute.

    Scale shape: both passes are partial-aggregate-before-exchange
    (min/max/sum/count are associative), the merge is ONE groupby over
    the bucket key; nothing re-reads the base data when late rows
    arrive.  All measures exact ints; no floats anywhere."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def partial(batch: pa.Table, late: bool) -> pa.Table:
        eid = np.asarray(batch.column("event_id"), dtype=np.int64)
        sel = (eid % 13 == 0) if late else (eid % 13 != 0)
        us = np.asarray(batch.column("ts").cast(pa.int64()),
                        dtype=np.int64)[sel]
        uid = np.asarray(batch.column("user_id"), dtype=np.int64)[sel]
        v = np.asarray(batch.column("value"), dtype=np.float64)[sel]
        v100 = np.floor(v * 100.0 + 0.5).astype(np.int64)
        day = us // 86_400_000_000
        t = pa.table({"user_id": pa.array(uid, type=pa.int64()),
                      "day": pa.array(day, type=pa.int64()),
                      "v100": pa.array(v100, type=pa.int64()),
                      "one": pa.array(np.ones(len(v100),
                                              dtype=np.int64))})
        g = t.group_by(["user_id", "day"]).aggregate(
            [("v100", "min"), ("v100", "max"), ("v100", "sum"),
             ("one", "sum")])
        return pa.table({
            "user_id": g.column("user_id"),
            "day": g.column("day"),
            "min_cents": g.column("v100_min").cast(pa.int64()),
            "max_cents": g.column("v100_max").cast(pa.int64()),
            "cents_sum": g.column("v100_sum").cast(pa.int64()),
            "n": g.column("one_sum").cast(pa.int64()),
        })

    import functools

    base = ds.map_batches(functools.partial(partial, late=False),
                          batch_format="pyarrow", zero_copy_batch=True)
    late = ds.map_batches(functools.partial(partial, late=True),
                          batch_format="pyarrow", zero_copy_batch=True)

    from ray.data.aggregate import Max, Min, Sum

    merged = (base.union(late)
              .groupby(["user_id", "day"])
              .aggregate(Min("min_cents", alias_name="min_cents"),
                         Max("max_cents", alias_name="max_cents"),
                         Sum("cents_sum", alias_name="cents_sum"),
                         Sum("n", alias_name="n")))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch.column("user_id").cast(pa.int64()),
            "day": batch.column("day").cast(pa.int64()),
            "min_cents": batch.column("min_cents").cast(pa.int64()),
            "max_cents": batch.column("max_cents").cast(pa.int64()),
            "cents_sum": batch.column("cents_sum").cast(pa.int64()),
            "n": batch.column("n").cast(pa.int64()),
        })

    return merged.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------- J15 ----
def j15_next_error_wait(sf_dir: str):
    """J15 — cross-type forward lookup: for every PURCHASE event, the
    same user's NEXT ERROR event at-or-after it and the exact wait in
    microseconds (NULL if the user never errors again) — "did the
    conversion precede a failure, and how soon?", the forward
    counterpart of J12's trailing band count.

    Scale shape: J11's forward ``asof_attach`` unchanged (ONE
    co-partitioned exchange on user carries both roles), with the two
    event-type filters applied map-side before the exchange so only
    purchase/error rows ship.  Equal-ts ties resolve to the smallest
    error event_id (the tiebreak sort), which the oracle mirrors."""
    import pyarrow.compute as pc

    from anomalydetection_ray.stages.join import asof_attach

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])

    def only(batch: pa.Table, typ: str) -> pa.Table:
        keep = pc.equal(batch.column("event_type"), typ)
        return batch.filter(keep).drop_columns(["event_type"])

    purchases = ev.map_batches(lambda b: only(b, "purchase"),
                               batch_format="pyarrow",
                               zero_copy_batch=True)

    def as_right(batch: pa.Table) -> pa.Table:
        t = only(batch, "error")
        return pa.table({
            "user_id": t.column("user_id"),
            "ts": t.column("ts"),
            "next_error_event_id": t.column("event_id"),
            "next_error_ts": t.column("ts"),
        })

    errors = ev.map_batches(as_right, batch_format="pyarrow",
                            zero_copy_batch=True)

    joined = asof_attach(purchases, errors, by="user_id", on="ts",
                         payload_cols=["next_error_event_id",
                                       "next_error_ts"],
                         direction="forward",
                         tiebreak="next_error_event_id")

    def finish(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch.column("ts").cast(pa.int64()),
                        dtype=np.int64)
        nxt_col = batch.column("next_error_ts").cast(pa.int64())
        has = ~np.asarray(pa.compute.is_null(nxt_col))
        nxt = np.asarray(nxt_col.fill_null(0), dtype=np.int64)
        wait = nxt - ts
        return pa.table({
            "event_id": batch.column("event_id"),
            "user_id": batch.column("user_id"),
            "next_error_event_id": batch.column("next_error_event_id"),
            "wait_us": pa.array(wait, type=pa.int64(), mask=~has),
        })

    return joined.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


# ---------------------------------------------------------------- S21 ----
def s21_filter_pushdown(sf_dir: str, min_value: float = 100.0):
    """S21 — predicate-pushdown read: the row filter
    ``event_type = 'purchase' AND value >= min_value`` is handed to the
    PARQUET SCAN itself (a pyarrow dataset expression on
    ``read_parquet``), so row groups whose column statistics exclude
    the predicate are skipped and non-matching rows never materialize
    as Arrow — the "prune at the read" discipline at row granularity,
    next to S18's partition pruning and S20's zone maps.  Result: per
    day, count + exact cent sum of the qualifying rows.

    Scale shape: map-only after the filtered scan; each block collapses
    to per-day partials before one bounded exchange.  Oracle: the same
    WHERE over the raw table — values match only if the pushed filter
    dropped nothing it should not have."""
    import pyarrow.dataset as pds
    import ray.data

    expr = ((pds.field("event_type") == "purchase")
            & (pds.field("value") >= min_value))
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["ts", "event_type", "value"],
                               filter=expr)

    def partial(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch.column("ts").cast(pa.int64()),
                        dtype=np.int64)
        day = us // 86_400_000_000
        v = np.asarray(batch.column("value"), dtype=np.float64)
        v100 = np.floor(v * 100.0 + 0.5).astype(np.int64)
        t = pa.table({"day": pa.array(day, type=pa.int64()),
                      "v100": pa.array(v100, type=pa.int64()),
                      "one": pa.array(np.ones(len(day),
                                              dtype=np.int64))})
        g = t.group_by(["day"]).aggregate([("v100", "sum"),
                                           ("one", "sum")])
        return pa.table({"day": g.column("day"),
                         "cents_sum": g.column("v100_sum").cast(pa.int64()),
                         "n": g.column("one_sum").cast(pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("day").sum(["cents_sum", "n"]))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "day": batch.column("day"),
            "n": batch.column("sum(n)").cast(pa.int64()),
            "cents_sum": batch.column("sum(cents_sum)").cast(pa.int64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------- G24 ----
def g24_beta_to_total(sf_dir: str):
    """G24 — per-type "market beta": the OLS slope of each event type's
    daily cent total against the ALL-TYPES daily total —
    beta = cov(x, m) / var(m) — which types amplify corpus-wide load
    swings (beta > their share) vs absorb them.  The cross-series
    regression next to G10's same-series correlation.

    Exactness: (type, day) and (day) totals are exact ints; the
    covariance and variance NUMERATORS n*S_xm - S_x*S_m and
    n*S_mm - S_m^2 are exact python-ints (the W5/G10 moment
    discipline), and beta is one pinned division.

    Plan: ``_daily_cents``; the market series is the per-day marginal
    of the same grid."""
    def per_type(group: pa.Table, market: dict) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        day = np.asarray(group.column("day"), dtype=np.int64)
        x = np.asarray(group.column("sum(x)"), dtype=np.int64)
        xs = [int(v) for v in x.tolist()]
        ms = [market[int(d)] for d in day.tolist()]
        n = len(xs)
        sx, sm = sum(xs), sum(ms)
        sxm = sum(a * b for a, b in zip(xs, ms))
        smm = sum(b * b for b in ms)
        cov_num = n * sxm - sx * sm
        var_num = n * smm - sm * sm
        beta = float(cov_num) / float(var_num) if var_num > 0 else None
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([n], type=pa.int64()),
            "cov_num": pa.array([cov_num], type=pa.int64()),
            "var_num": pa.array([var_num], type=pa.int64()),
            "beta": pa.array([beta], type=pa.float64(),
                             from_pandas=True),
        })

    def finalize(grid: pa.Table) -> pa.Table:
        m = grid.group_by("day").aggregate([("sum(x)", "sum")])
        market = dict(zip(m.column("day").to_pylist(),
                          m.column("sum(x)_sum").to_pylist()))
        return _by_type(functools.partial(per_type, market=market))(grid)

    return _daily_cents(sf_dir, finalize)


# ---------------------------------------------------------------- A43 ----
def a43_cox_stuart(sf_dir: str):
    """A43 — Cox–Stuart trend test (Cox & Stuart 1955) per event type
    over the daily cent-total series: pair day i with day i + n/2 and
    count sign changes — the positional sign test for trend (cruder but
    assumption-free next to A33's rank pairs; detects level drift even
    when ranks saturate).  Ties (equal pair values) drop, per the
    classic prescription.

    Exactness: pair diffs and counts are exact ints; the continuity-
    corrected z = (|2*S_plus - m| - 1) / sqrt(m) over the m non-tied
    pairs is two pinned float ops.

    Plan: ``_daily_cents`` (``_events_grid``), one finalize per type."""

    def finalize(group: pa.Table) -> pa.Table:
        import math

        et = group.column("event_type")[0].as_py()
        x = np.asarray(group.column("sum(x)"), dtype=np.int64)
        n = int(x.shape[0])
        half = n // 2
        # pair i with i + ceil(n/2) over the first floor(n/2) positions
        shift = n - half
        a = x[:half]
        b = x[shift:shift + half]
        d = b - a
        s_plus = int((d > 0).sum())
        s_minus = int((d < 0).sum())
        m = s_plus + s_minus
        z = ((abs(2 * s_plus - m) - 1) / math.sqrt(float(m))
             if m > 0 else None)
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([n], type=pa.int64()),
            "s_plus": pa.array([s_plus], type=pa.int64()),
            "s_minus": pa.array([s_minus], type=pa.int64()),
            "z_cs": pa.array([z], type=pa.float64(), from_pandas=True),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- R4 ----
def r4_cascade_rollup(sf_dir: str):
    """R4 — retention-ladder cascade: the WEEKLY tier is computed FROM
    the daily tier's partial aggregates (never from raw data), and must
    equal the weekly aggregate computed from raw — the correctness
    contract of every tiered-downsampling retention scheme (the north
    star's raw -> 1k -> 10k ladder): if tier N+1 merges losslessly from
    tier N, raw data can expire after tier N materializes.

    Exactness: min/max/sum/count are associative over exact ints, so
    the cascade is bit-exact by construction — the oracle (weekly from
    raw) catches any non-associative leak.  mean_cents is the one
    pinned int->double division at the END of the cascade.

    Scale shape: raw is read ONCE for the daily tier; the weekly tier
    touches only the (types x days) bounded grid."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch.column("ts").cast(pa.int64()), dtype=np.int64)
        day = us // 86_400_000_000
        v = np.asarray(batch.column("value"), dtype=np.float64)
        v100 = np.floor(v * 100.0 + 0.5).astype(np.int64)
        t = pa.table({"event_type": batch.column("event_type"),
                      "day": pa.array(day, type=pa.int64()),
                      "v100": pa.array(v100, type=pa.int64()),
                      "one": pa.array(np.ones(len(day),
                                              dtype=np.int64))})
        g = t.group_by(["event_type", "day"]).aggregate(
            [("v100", "min"), ("v100", "max"), ("v100", "sum"),
             ("one", "sum")])
        return pa.table({
            "event_type": g.column("event_type"),
            "day": g.column("day"),
            "mn": g.column("v100_min").cast(pa.int64()),
            "mx": g.column("v100_max").cast(pa.int64()),
            "sm": g.column("v100_sum").cast(pa.int64()),
            "n": g.column("one_sum").cast(pa.int64()),
        })

    from ray.data.aggregate import Max, Min, Sum

    daily = (ds.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby(["event_type", "day"])
             .aggregate(Min("mn", alias_name="mn"),
                        Max("mx", alias_name="mx"),
                        Sum("sm", alias_name="sm"),
                        Sum("n", alias_name="n")))

    def to_week(batch: pa.Table) -> pa.Table:
        day = np.asarray(batch.column("day"), dtype=np.int64)
        return pa.table({
            "event_type": batch.column("event_type"),
            "week": pa.array(day // 7, type=pa.int64()),
            "mn": batch.column("mn").cast(pa.int64()),
            "mx": batch.column("mx").cast(pa.int64()),
            "sm": batch.column("sm").cast(pa.int64()),
            "n": batch.column("n").cast(pa.int64()),
        })

    weekly = (daily.map_batches(to_week, batch_format="pyarrow",
                                zero_copy_batch=True)
              .groupby(["event_type", "week"])
              .aggregate(Min("mn", alias_name="min_cents"),
                         Max("mx", alias_name="max_cents"),
                         Sum("sm", alias_name="cents_sum"),
                         Sum("n", alias_name="n")))

    def finalize(batch: pa.Table) -> pa.Table:
        sm = np.asarray(batch.column("cents_sum"), dtype=np.int64)
        n = np.asarray(batch.column("n"), dtype=np.int64)
        return pa.table({
            "event_type": batch.column("event_type"),
            "week": batch.column("week").cast(pa.int64()),
            "min_cents": batch.column("min_cents").cast(pa.int64()),
            "max_cents": batch.column("max_cents").cast(pa.int64()),
            "cents_sum": pa.array(sm, type=pa.int64()),
            "n": pa.array(n, type=pa.int64()),
            "mean_cents": pa.array(sm.astype(np.float64)
                                   / n.astype(np.float64),
                                   type=pa.float64()),
        })

    return weekly.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------- S22 ----
def s22_zstd_parquet_roundtrip(sf_dir: str):
    """S22 — zstd-compressed parquet round trip: the documents table is
    re-written task-side as PER-BLOCK zstd parquet shards (the archival
    codec choice — zstd compresses text ~30-50% tighter than the snappy
    default at similar read speed) and read back; per-source aggregates
    must equal the original table, proving the codec leg lossless.
    Completes the interchange matrix: snappy parquet (native), ORC
    (S13), Feather (S17), JSONL (S6), gzip JSONL (S19), CSV (S7).

    Scale shape: shard-granular codec work on both legs, streaming
    reads, bounded per-source result."""
    import os
    import shutil
    import tempfile

    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data

    out = tempfile.mkdtemp(prefix="anomray_zstd_")
    try:
        def write_shard(batch: pa.Table) -> pa.Table:
            path = os.path.join(
                out,
                f"shard-{int(batch.column('doc_id')[0].as_py()):012d}"
                ".parquet")
            pq.write_table(batch, path, compression="zstd",
                           compression_level=3)
            return pa.table({"path": pa.array([path], type=pa.string()),
                             "rows": pa.array([batch.num_rows],
                                              type=pa.int64())})

        markers = (_read(sf_dir, "documents",
                         ["doc_id", "source", "n_chars", "text"])
                   .map_batches(write_shard, batch_format="pyarrow"))
        n_written = sum(r["rows"] for r in markers.take_all())

        def agg(batch: pa.Table) -> pa.Table:
            text = batch.column("text")
            if isinstance(text, pa.ChunkedArray):
                text = text.combine_chunks()
            words = pc.list_value_length(pc.split_pattern(text, " "))
            g = pa.table({
                "source": batch.column("source"),
                "n_chars": pc.cast(batch.column("n_chars"), pa.int64()),
                "ws_words": pc.cast(words, pa.int64()),
            }).group_by("source").aggregate(
                [([], "count_all"), ("n_chars", "sum"),
                 ("ws_words", "sum")])
            return pa.table({
                "source": g.column("source"),
                "n_docs": g.column("count_all").cast(pa.int64()),
                "chars_sum": g.column("n_chars_sum").cast(pa.int64()),
                "words_sum": g.column("ws_words_sum").cast(pa.int64()),
            })

        back = ray.data.read_parquet(out)
        res = (back.map_batches(agg, batch_format="pyarrow",
                                zero_copy_batch=True)
               .groupby("source")
               .sum(["n_docs", "chars_sum", "words_sum"]))

        def finalize(batch: pa.Table) -> pa.Table:
            return pa.table({
                "source": batch.column("source"),
                "n_docs": batch.column("sum(n_docs)").cast(pa.int64()),
                "chars_sum": batch.column("sum(chars_sum)").cast(
                    pa.int64()),
                "words_sum": batch.column("sum(words_sum)").cast(
                    pa.int64()),
            })

        tbl = pa.concat_tables(list(
            res.map_batches(finalize, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow")))
        assert int(pa.compute.sum(tbl.column("n_docs")).as_py()) \
            == n_written
        return ray.data.from_arrow(tbl)
    finally:
        shutil.rmtree(out, ignore_errors=True)


# ---------------------------------------------------------------- A44 ----
def a44_arch_effect(sf_dir: str):
    """A44 — volatility-clustering screen (the ARCH-effect family,
    Engle 1982; absolute-return variant of Taylor 1986): the lag-1
    autocorrelation of ABSOLUTE daily cent-total differences per event
    type — "big moves follow big moves", which A9's plain ACF on levels
    cannot see.  rho > 0 means calm/turbulent regimes alternate slowly;
    ~0 means shock sizes are memoryless.  (|d| instead of d^2 keeps
    every Pearson moment inside int64 — no HUGEINT->DOUBLE cast exists
    to double-round — and is the MORE robust estimator anyway.)

    Exactness: absolute diffs are exact ints; the five Pearson moments
    are exact int64 sums; rho is the pinned
    float(num) / (sqrt(float(v1)) * sqrt(float(v2))).

    Plan: ``_daily_cents`` (``_events_grid``), one finalize per type."""

    def finalize(group: pa.Table) -> pa.Table:
        import math

        et = group.column("event_type")[0].as_py()
        x = group.column("sum(x)").to_pylist()
        n = len(x)
        s = [abs(x[i + 1] - x[i]) for i in range(n - 1)]   # python ints
        a = s[:-1]
        b = s[1:]
        m = len(a)
        if m >= 2:
            sa, sb = sum(a), sum(b)
            saa = sum(v * v for v in a)
            sbb = sum(v * v for v in b)
            sab = sum(p * q for p, q in zip(a, b))
            num = m * sab - sa * sb
            v1 = m * saa - sa * sa
            v2 = m * sbb - sb * sb
            rho = (float(num)
                   / (math.sqrt(float(v1)) * math.sqrt(float(v2)))
                   if v1 > 0 and v2 > 0 else None)
        else:
            num = v1 = v2 = 0
            rho = None
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([n], type=pa.int64()),
            "n_pairs": pa.array([m], type=pa.int64()),
            "rho_arch": pa.array([rho], type=pa.float64(),
                                 from_pandas=True),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- G25 ----
def g25_stickiness(sf_dir: str):
    """G25 — DAU / trailing-WAU stickiness per day: daily active users
    over the trailing-7-day active users — THE product-engagement
    ratio (a user base that shows up most days sticks near 1/1; a
    weekly-batch crowd sits near 1/7).

    The rows of ``w59_stickiness`` (windows.py) on the days with at
    least one daily active user, from W59's own plan: days without one
    are dropped inside its finalize, so every ratio is defined."""
    from anomalydetection_ray.pipelines.windows import _stickiness

    return _stickiness(sf_dir, active_only=True)


# ---------------------------------------------------------------- A45 ----
def a45_turning_point_test(sf_dir: str):
    """A45 — formal turning-point randomness TEST per event type over
    the daily cent-total series (A25 counts the turning points; this
    adds the Kendall normal approximation): under iid, E[T] = 2(n-2)/3
    and Var[T] = (16n - 29)/90, so z = (T - E) / sqrt(Var) flags both
    too-smooth (trend/momentum, T << E) and too-jagged (alternation,
    T >> E) series.

    Exactness: T is an exact int (strict local extrema; plateau points
    are not turning points); z is the pinned
    float(3*T - 2*(n-2)) / 3.0 / sqrt(float(16*n - 29) / 90.0) — every
    operand an exact int cast once.

    Plan: ``_daily_cents`` (``_events_grid``), one finalize per type."""

    def finalize(group: pa.Table) -> pa.Table:
        import math

        et = group.column("event_type")[0].as_py()
        x = np.asarray(group.column("sum(x)"), dtype=np.int64)
        n = int(x.shape[0])
        if n >= 3:
            mid, lo, hi = x[1:-1], x[:-2], x[2:]
            t_count = int((((mid > lo) & (mid > hi))
                           | ((mid < lo) & (mid < hi))).sum())
        else:
            t_count = 0
        if n >= 4:
            z = (float(3 * t_count - 2 * (n - 2)) / 3.0
                 / math.sqrt(float(16 * n - 29) / 90.0))
        else:
            z = None
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([n], type=pa.int64()),
            "n_turning": pa.array([t_count], type=pa.int64()),
            "z_tp": pa.array([z], type=pa.float64(), from_pandas=True),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- W35 ----
def w35_weekend_contrast(sf_dir: str):
    """W35 — weekend/weekday contrast per event type: exact cent totals
    and day counts for weekend (Sat/Sun) vs weekday days, and the
    pinned ratio of their daily MEANS — the coarse weekly-seasonality
    summary next to A35's exact DFT and G9's mode-day.

    Exactness: day-of-week = (epoch_day + 3) % 7 (epoch day 0 was a
    Thursday); all sums/counts exact ints; the contrast is
    (float(we_sum) * float(wd_days)) / (float(wd_sum) * float(we_days))
    — four casts, two multiplies, one division, fixed order.

    Plan: ``_daily_cents``."""
    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        day = np.asarray(group.column("day"), dtype=np.int64)
        is_we = ((day + 3) % 7 >= 5).astype(np.int64)
        x = np.asarray(group.column("sum(x)"), dtype=np.int64)
        we_sum = int(x[is_we == 1].sum())
        wd_sum = int(x[is_we == 0].sum())
        we_days = int((is_we == 1).sum())
        wd_days = int((is_we == 0).sum())
        contrast = ((float(we_sum) * float(wd_days))
                    / (float(wd_sum) * float(we_days))
                    if wd_sum > 0 and we_days > 0 else None)
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "we_days": pa.array([we_days], type=pa.int64()),
            "wd_days": pa.array([wd_days], type=pa.int64()),
            "we_cents": pa.array([we_sum], type=pa.int64()),
            "wd_cents": pa.array([wd_sum], type=pa.int64()),
            "contrast": pa.array([contrast], type=pa.float64(),
                                 from_pandas=True),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- G26 ----
def g26_kruskal_wallis(sf_dir: str):
    """G26 — Kruskal–Wallis rank one-way test (Kruskal & Wallis 1952)
    across event types over the daily cent totals: "do the types' daily
    distributions differ at all?" — the k-group generalization of A38's
    two-sample Mann–Whitney, distribution-free like everything in the
    rank family.

    Exactness: GLOBAL doubled mid-ranks (A37 identity) make every
    group rank-sum W2_j an exact int; H folds the per-group terms
    float(W2_j)·float(W2_j)/float(4·n_j) in event-type alphabetical
    order (the G15 discipline), then 12/N(N+1) and the −3(N+1) shift
    as pinned ops; the tie-correction divisor is one more pinned
    ratio.

    Plan: ``_daily_cents``, one finalize over the whole grid."""
    def finalize(grid: pa.Table) -> pa.Table:
        et = np.asarray(grid.column("event_type").to_pylist(), dtype=object)
        x = np.asarray(grid.column("sum(x)"), dtype=np.int64)
        big_n = int(x.shape[0])
        uniq, first, counts = np.unique(np.sort(x, kind="stable"),
                                        return_index=True, return_counts=True)
        pos = np.searchsorted(uniq, x)
        two_r = 2 * (first[pos] + 1) + counts[pos] - 1
        groups = sorted(set(et.tolist()))
        acc = 0.0
        w2s, ns = {}, {}
        for g in groups:
            sel = et == g
            ns[g] = int(sel.sum())
            w2s[g] = int(two_r[sel].sum())
        for g in groups:                       # alphabetical pinned fold
            acc = acc + (float(w2s[g]) * float(w2s[g])) / float(4 * ns[g])
        h = (12.0 * acc / float(big_n * (big_n + 1))
             - 3.0 * float(big_n + 1))
        ties = sum(int(c) ** 3 - int(c) for c in counts.tolist())
        d = (1.0 - float(ties) / float(big_n ** 3 - big_n)
             if big_n > 1 else 0.0)
        h_corr = h / d if d > 0 else None
        return pa.table({
            "n_total": pa.array([big_n], type=pa.int64()),
            "n_groups": pa.array([len(groups)], type=pa.int64()),
            "ties": pa.array([ties], type=pa.int64()),
            "h": pa.array([h], type=pa.float64()),
            "h_corr": pa.array([h_corr], type=pa.float64(),
                               from_pandas=True),
        })

    return _daily_cents(sf_dir, finalize)


# ---------------------------------------------------------------- J16 ----
def j16_fanout_histogram(sf_dir: str, num_partitions: int = 16):
    """J16 — join-fanout audit: the histogram of per-order lineitem
    counts — the "will this join explode?" profile every query planner
    wants before a large-large equi-join (J3's input, audited; a fat
    fanout tail multiplies shuffle volume super-linearly).

    Scale shape: per-block (orderkey, count) partials collapse before
    ONE key-partitioned exchange; the per-key merge is the vectorized
    run kernel; the histogram rollup is a second BOUNDED exchange
    (fanout values, not orders).  Orders with no lineitems appear in
    the fanout-0 bucket via a broadcast total from footer metadata."""
    import pyarrow.parquet as pq

    from anomalydetection_ray.stages.runs import agg_by

    li = _read(sf_dir, "lineitem", ["l_orderkey"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"k": batch.column("l_orderkey"),
                      "one": pa.array(np.ones(batch.num_rows,
                                              dtype=np.int64))})
        g = t.group_by(["k"]).aggregate([("one", "sum")])
        return pa.table({"k": g.column("k"),
                         "c": g.column("one_sum").cast(pa.int64())})

    per_order = agg_by(
        li.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["k"], [("c", "sum", "c")])

    def hist(batch: pa.Table) -> pa.Table:
        t = pa.table({"fanout": batch.column("c"),
                      "one": pa.array(np.ones(batch.num_rows,
                                              dtype=np.int64))})
        g = t.group_by(["fanout"]).aggregate([("one", "sum")])
        return pa.table({"fanout": g.column("fanout"),
                         "n_orders": g.column("one_sum").cast(pa.int64())})

    agg = (per_order.map_batches(hist, batch_format="pyarrow",
                                 zero_copy_batch=True)
           .groupby("fanout").sum("n_orders"))

    n_orders_total = int(pq.ParquetFile(
        f"{sf_dir}/orders.parquet").metadata.num_rows)

    def finalize(batch: pa.Table) -> pa.Table:
        f = np.asarray(batch.column("fanout"), dtype=np.int64)
        n = np.asarray(batch.column("sum(n_orders)"), dtype=np.int64)
        return pa.table({
            "fanout": pa.array(f, type=pa.int64()),
            "n_orders": pa.array(n, type=pa.int64()),
        })

    out = agg.map_batches(finalize, batch_format="pyarrow")

    # fanout-0 bucket: orders with no lineitems (footer-count total
    # minus matched orders — one bounded aggregate, no join)
    matched = per_order.count()
    zero = n_orders_total - int(matched)
    if zero > 0:
        import ray.data

        z = ray.data.from_arrow(pa.table({
            "fanout": pa.array([0], type=pa.int64()),
            "n_orders": pa.array([zero], type=pa.int64())}))
        out = out.union(z)
    return out


# ---------------------------------------------------------------- M9 ----
def m9_date_fns(sf_dir: str):
    """M9 — date scalar functions over orders (the temporal half of
    M4's string-function surface): year / quarter extraction from
    o_orderdate and per-(year, quarter) order counts + exact cent
    totals — the partition-key derivation every date-partitioned
    lakehouse write runs first.

    Scale shape: map-only collapse to bounded (year, quarter) partials
    per block, ONE bounded exchange.  Exactness: date parts are
    integer arithmetic on epoch days (proleptic Gregorian, the same
    civil calendar DuckDB's year()/quarter() use via arrow's
    cast-to-date32); totals are exact cents."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        d = batch.column("o_orderdate")
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        yr = pc.cast(pc.year(d), pa.int64())
        mo = np.asarray(pc.cast(pc.month(d), pa.int64()),
                        dtype=np.int64)
        qt = (mo - 1) // 3 + 1
        v = np.asarray(batch.column("o_totalprice"), dtype=np.float64)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        t = pa.table({"year": yr,
                      "quarter": pa.array(qt, type=pa.int64()),
                      "cents": pa.array(cents, type=pa.int64()),
                      "one": pa.array(np.ones(len(qt),
                                              dtype=np.int64))})
        g = t.group_by(["year", "quarter"]).aggregate(
            [("cents", "sum"), ("one", "sum")])
        return pa.table({"year": g.column("year"),
                         "quarter": g.column("quarter"),
                         "cents_sum": g.column("cents_sum").cast(
                             pa.int64()),
                         "n_orders": g.column("one_sum").cast(pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby(["year", "quarter"]).sum(["cents_sum", "n_orders"]))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "year": batch.column("year").cast(pa.int64()),
            "quarter": batch.column("quarter").cast(pa.int64()),
            "n_orders": batch.column("sum(n_orders)").cast(pa.int64()),
            "cents_sum": batch.column("sum(cents_sum)").cast(pa.int64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------- A47 ----
def a47_hurst_aggvar(sf_dir: str):
    """A47 — Hurst exponent by the AGGREGATED-VARIANCE method (Beran
    1994) per event type: variance of non-overlapping block MEANS at
    block sizes 1/2/4 scales like m^(2H-2), so with x = ln m equally
    spaced the OLS slope collapses to the closed form
    H = 1 + (ln v_4 - ln v_1) / (4 ln 2) — the independent cross-check
    of A36's rescaled-range estimate (two estimators agreeing is the
    actual long-memory evidence; one alone is noise).

    Exactness: block sums and the population-variance numerators
    V_m = k_m * SUM y^2 - (SUM y)^2 are exact ints (full blocks only,
    remainder truncated); v_m = float(V_m) / float(k_m^2 * m^2) is one
    pinned division; the closed form is two libm ln's, one subtraction
    and one division by float(4 ln 2)... computed as
    (ln(v4) - ln(v1)) / (4.0 * ln(2.0)) both sides.

    Plan: ``_daily_cents`` (``_events_grid``), one finalize per type."""

    def finalize(group: pa.Table) -> pa.Table:
        import math

        et = group.column("event_type")[0].as_py()
        x = group.column("sum(x)").to_pylist()
        n = len(x)
        vm = {}
        km = {}
        for m in (1, 2, 4):
            k = n // m
            km[m] = k
            ys = [sum(x[i * m:(i + 1) * m]) for i in range(k)]
            s = sum(ys)
            q = sum(y * y for y in ys)
            vm[m] = k * q - s * s
        if all(vm[m] > 0 and km[m] >= 2 for m in (1, 4)):
            v1 = float(vm[1]) / float(km[1] * km[1] * 1 * 1)
            v4 = float(vm[4]) / float(km[4] * km[4] * 4 * 4)
            h = 1.0 + ((math.log(v4) - math.log(v1))
                       / (4.0 * math.log(2.0)))
        else:
            h = None
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([n], type=pa.int64()),
            "v1_num": pa.array([vm[1]], type=pa.int64()),
            "v2_num": pa.array([vm[2]], type=pa.int64()),
            "v4_num": pa.array([vm[4]], type=pa.int64()),
            "h_aggvar": pa.array([h], type=pa.float64(),
                                 from_pandas=True),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- A48 ----
def a48_seasonal_strength(sf_dir: str):
    """A48 — weekly seasonal STRENGTH per event type (Hyndman &
    Athanasopoulos's Fs, median-seasonal variant): with the seasonal
    component estimated as the per-weekday-phase MEDIAN of the daily
    cent totals, Fs = max(0, 1 - Var(residual)/Var(series)) — 0 means
    the weekday pattern explains nothing, 1 means the series IS its
    weekly cycle.  The effect-size companion to A35's spectral test and
    A42's seasonal trend.

    Exactness: phase medians of ints are exact halves, so DOUBLED
    residuals 2x - 2*median are exact ints; both variance NUMERATORS
    (over the same n, denominators cancel) are exact python-ints, and
    Fs is one pinned division inside max(0, 1 - r).

    Scale shape: A35-family bounded daily grid."""

    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        day = np.asarray(group.column("day"), dtype=np.int64)
        x = np.asarray(group.column("sum(x)"), dtype=np.int64)
        ph = (day + 3) % 7
        n = int(x.shape[0])
        # doubled phase medians are exact ints
        med2 = {}
        for p in range(7):
            vals = np.sort(x[ph == p])
            m = vals.shape[0]
            if m == 0:
                continue
            if m % 2 == 1:
                med2[p] = 2 * int(vals[m // 2])
            else:
                med2[p] = int(vals[m // 2 - 1]) + int(vals[m // 2])
        r2 = [2 * int(a) - med2[int(p)] for a, p in zip(x, ph)]
        t2 = [2 * int(a) for a in x]
        def var_num(vs):
            s = sum(vs)
            q = sum(v * v for v in vs)
            return n * q - s * s
        vr = var_num(r2)
        vt = var_num(t2)
        fs = max(0.0, 1.0 - float(vr) / float(vt)) if vt > 0 else None
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([n], type=pa.int64()),
            "var_resid_num": pa.array([vr], type=pa.int64()),
            "var_total_num": pa.array([vt], type=pa.int64()),
            "seasonal_strength": pa.array([fs], type=pa.float64(),
                                          from_pandas=True),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- A49 ----
def a49_brown_forsythe(sf_dir: str):
    """A49 — Brown–Forsythe variance-equality test (Brown & Forsythe
    1974) per event type between the even- and odd-parity days of the
    daily cent-total series: ANOVA on |x - group median| — A38 asks
    "did the LEVEL shift between the halves?", this asks "did the
    VOLATILITY shift?" (robust to non-normality because it centers on
    medians).

    Exactness: group medians of ints are exact halves, so DOUBLED
    absolute deviations z = |2x - 2*median| are exact ints, and for
    k = 2 groups the F statistic collapses to the all-integer closed
    form  F = (N-2) * d^2 / (N * (n2*W1 + n1*W2))  with
    d = n2*s1 - n1*s2 and W_g = n_g*SUM z^2 - s_g^2 — one pinned
    int->double division (the doubling cancels).

    Scale shape: A35-family bounded daily grid."""

    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        day = np.asarray(group.column("day"), dtype=np.int64)
        x = np.asarray(group.column("sum(x)"), dtype=np.int64)
        even = (day % 2) == 0
        stats = []
        for sel in (even, ~even):
            vals = np.sort(x[sel])
            m = len(vals)
            if m == 0:
                stats.append((0, 0, 0))
                continue
            med2 = (2 * int(vals[m // 2]) if m % 2 == 1
                    else int(vals[m // 2 - 1]) + int(vals[m // 2]))
            z = [abs(2 * int(v) - med2) for v in x[sel]]
            s = sum(z)
            w = m * sum(v * v for v in z) - s * s
            stats.append((m, s, w))
        (n1, s1, w1), (n2, s2, w2) = stats
        big_n = n1 + n2
        if n1 >= 2 and n2 >= 2:
            d = n2 * s1 - n1 * s2
            f_num = (big_n - 2) * d * d
            f_den = big_n * (n2 * w1 + n1 * w2)
            fstat = float(f_num) / float(f_den) if f_den > 0 else None
        else:
            fstat = None
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_even": pa.array([n1], type=pa.int64()),
            "n_odd": pa.array([n2], type=pa.int64()),
            "f_bf": pa.array([fstat], type=pa.float64(),
                             from_pandas=True),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- G27 ----
def g27_daily_new_users(sf_dir: str, num_partitions: int = 16):
    """G27 — daily ACQUISITIONS: per day, how many users had their
    first-ever event that day (plus the running cumulative user count)
    — the top line of every growth dashboard, and W36's cohort sizes on
    the day grid.

    Scale shape: per-block (user, min day) partials -> per-user min via
    ONE vectorized agg_by exchange -> bounded per-day rollup; the
    cumulative count is a driver-side prefix sum over the bounded day
    grid."""
    from anomalydetection_ray.stages.runs import agg_by

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch.column("ts").cast(pa.int64()),
                        dtype=np.int64)
        day = us // 86_400_000_000
        t = pa.table({"user_id": batch.column("user_id"),
                      "day": pa.array(day, type=pa.int64())})
        g = t.group_by(["user_id"]).aggregate([("day", "min")])
        return pa.table({"user_id": g.column("user_id"),
                         "day": g.column("day_min").cast(pa.int64())})

    firsts = agg_by(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["user_id"], [("day", "min", "day")])

    def hist(batch: pa.Table) -> pa.Table:
        t = pa.table({"day": batch.column("day"),
                      "one": pa.array(np.ones(batch.num_rows,
                                              dtype=np.int64))})
        g = t.group_by(["day"]).aggregate([("one", "sum")])
        return pa.table({"day": g.column("day"),
                         "n_new": g.column("one_sum").cast(pa.int64())})

    rows = (firsts.map_batches(hist, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("day").sum("n_new").take_all())
    days = sorted(int(r["day"]) for r in rows)
    n_new = {int(r["day"]): int(r["sum(n_new)"]) for r in rows}
    cum = 0
    out_d, out_n, out_c = [], [], []
    for d in days:
        cum += n_new[d]
        out_d.append(d)
        out_n.append(n_new[d])
        out_c.append(cum)
    import ray.data

    return ray.data.from_arrow(pa.table({
        "day": pa.array(out_d, type=pa.int64()),
        "n_new_users": pa.array(out_n, type=pa.int64()),
        "cum_users": pa.array(out_c, type=pa.int64()),
    }))


# ---------------------------------------------------------------- C6 ----
def c6_tpch_q5_like(sf_dir: str, region: str = "ASIA",
                    num_partitions: int = 32):
    """C6 — composed relational analytics #4 (TPC-H Q5 shape): revenue
    per nation within one region where the CUSTOMER and the SUPPLIER
    sit in the same nation — the five-table join chain
    lineitem ⋈ orders ⋈ customer ⋈ supplier ⋈ nation ⋈ region that
    completes the star-schema coverage (region and supplier were the
    two tables no other query touched).

    Scale shape — the textbook Q5 plan: the three SF-scaled sides
    (orders on orderkey, customer on custkey, supplier on suppkey)
    attach by THREE co-partitioned exchanges (J3 machinery — none of
    them is broadcastable at 10^12 scale); only the genuinely tiny
    nation (25) and region (5) relations broadcast into the final
    map.  Revenue cents are the C2/C3 pinned per-row
    floor(price*(1-disc)*100+0.5); sums exact int64."""
    from anomalydetection_ray.stages.join import copartition_attach

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice",
                "l_discount"])

    def to_cents(batch: pa.Table) -> pa.Table:
        price = np.asarray(batch.column("l_extendedprice"),
                           dtype=np.float64)
        disc = np.asarray(batch.column("l_discount"), dtype=np.float64)
        cents = np.floor(price * (1.0 - disc) * 100.0 + 0.5).astype(
            np.int64)
        return pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "l_suppkey": batch.column("l_suppkey"),
            "cents": pa.array(cents, type=pa.int64()),
        })

    li = li.map_batches(to_cents, batch_format="pyarrow",
                        zero_copy_batch=True)
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    with_cust = copartition_attach(li, orders, "l_orderkey",
                                   "o_orderkey", ["o_custkey"],
                                   num_partitions=num_partitions)
    customer = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    with_cn = copartition_attach(with_cust, customer, "o_custkey",
                                 "c_custkey", ["c_nationkey"],
                                 num_partitions=num_partitions)
    supplier = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    with_sn = copartition_attach(with_cn, supplier, "l_suppkey",
                                 "s_suppkey", ["s_nationkey"],
                                 num_partitions=num_partitions)

    # tiny broadcast sides: nation -> (name, regionkey), region -> name
    import pyarrow.parquet as pq

    nat = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    reg = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    region_keys = set(
        reg[reg["r_name"] == region]["r_regionkey"].tolist())
    nk_in_region = {int(r["n_nationkey"]): r["n_name"]
                    for _, r in nat.iterrows()
                    if int(r["n_regionkey"]) in region_keys}

    def rollup(batch: pa.Table) -> pa.Table:
        cn = np.asarray(batch.column("c_nationkey").fill_null(-1),
                        dtype=np.int64)
        sn = np.asarray(batch.column("s_nationkey").fill_null(-2),
                        dtype=np.int64)
        cents = np.asarray(batch.column("cents"), dtype=np.int64)
        keep = (cn == sn) & np.isin(cn, list(nk_in_region))
        names = [nk_in_region[int(v)] for v in cn[keep].tolist()]
        t = pa.table({"n_name": pa.array(names, type=pa.string()),
                      "cents": pa.array(cents[keep], type=pa.int64()),
                      "one": pa.array(np.ones(int(keep.sum()),
                                              dtype=np.int64))})
        g = t.group_by(["n_name"]).aggregate([("cents", "sum"),
                                              ("one", "sum")])
        return pa.table({"n_name": g.column("n_name"),
                         "revenue_cents": g.column("cents_sum").cast(
                             pa.int64()),
                         "n_items": g.column("one_sum").cast(pa.int64())})

    agg = (with_sn.map_batches(rollup, batch_format="pyarrow")
           .groupby("n_name").sum(["revenue_cents", "n_items"]))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "n_name": batch.column("n_name"),
            "revenue_cents": batch.column("sum(revenue_cents)").cast(
                pa.int64()),
            "n_items": batch.column("sum(n_items)").cast(pa.int64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------- W40 ----
def w40_arrival_cadence(sf_dir: str, num_partitions: int = 8):
    """W40 — per-type arrival CADENCE: exact median and mean of the
    inter-arrival gaps of each event type's global stream — the "how
    often does this signal tick?" number that sets every detector's
    window parameter (W26 profiles per-user gaps; this is the per-type
    stream the rollup tiers actually ingest).

    Exactness: gaps are exact int64 microseconds; the median of ints is
    an exact half (DuckDB median() parity, the W12 discipline); the
    mean is one pinned division.

    Scale shape: ONE `_pkey` exchange on the bounded type domain; the
    kernel sorts each type's arrivals once, vectorized diffs."""
    from anomalydetection_ray.stages.runs import partition_apply, run_starts

    ev = _read(sf_dir, "events", ["event_type", "ts", "event_id"])

    def kernel(group: pa.Table) -> pa.Table:
        group = group.sort_by(
            [("event_type", "ascending"), ("ts", "ascending"),
             ("event_id", "ascending")])
        n = group.num_rows
        if n == 0:
            return pa.table({
                "event_type": pa.array([], type=pa.string()),
                "n_gaps": pa.array([], type=pa.int64()),
                "gap_sum_us": pa.array([], type=pa.int64()),
                "median_gap_us": pa.array([], type=pa.float64()),
                "mean_gap_us": pa.array([], type=pa.float64()),
            })
        ts = np.asarray(group.column("ts").cast(pa.int64()),
                        dtype=np.int64)
        starts = run_starts(group, ["event_type"])
        ends = np.append(starts[1:], n)
        ets = group.column("event_type")
        out_t, out_n, out_s, out_md, out_mn = [], [], [], [], []
        for s, e in zip(starts.tolist(), ends.tolist()):
            g = np.sort(np.diff(ts[s:e]))
            m = int(g.shape[0])
            if m == 0:
                continue
            tot = int(g.sum())
            med = (float(int(g[m // 2])) if m % 2 == 1
                   else (int(g[m // 2 - 1]) + int(g[m // 2])) / 2.0)
            out_t.append(ets[s].as_py())
            out_n.append(m)
            out_s.append(tot)
            out_md.append(med)
            out_mn.append(float(tot) / float(m))
        return pa.table({
            "event_type": pa.array(out_t, type=pa.string()),
            "n_gaps": pa.array(out_n, type=pa.int64()),
            "gap_sum_us": pa.array(out_s, type=pa.int64()),
            "median_gap_us": pa.array(out_md, type=pa.float64()),
            "mean_gap_us": pa.array(out_mn, type=pa.float64()),
        })

    return partition_apply(ev, ["event_type"], kernel, num_partitions)


# ---------------------------------------------------------------- G29 ----
def g29_herfindahl(sf_dir: str):
    """G29 — Herfindahl–Hirschman concentration of per-type event volume
    across users: ``HHI = sum_u (c_u / total)^2`` plus the normalized
    ``(HHI - 1/n) / (1 - 1/n)`` — the standard market-concentration index
    (Hirschman 1964) read here as "is this event type one bot or a real
    population?".  The scalar complement of G15's entropy: entropy ranks
    the middle of the distribution, HHI is dominated by the head.

    Exactness: user counts, ``total`` and ``sumsq = sum c_u^2`` are exact
    int64; hhi and hhi_norm are pinned float expressions of those ints
    (one division shape each), replayed verbatim by the oracle.

    Scale shape: per-block Arrow group_by partials (<= types*users rows
    per block), ONE exchange on the bounded type domain, per-type widen
    is O(users) ints."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["event_type", "user_id"]).aggregate(
            [([], "count_all")])
        return pa.table({"event_type": g.column("event_type"),
                         "user_id": g.column("user_id"),
                         "n": pc.cast(g.column("count_all"), pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def finish(group: pa.Table) -> pa.Table:
        t = group.group_by(["event_type", "user_id"]).aggregate(
            [("n", "sum")])
        n = np.asarray(t.column("n_sum"), dtype=np.int64)
        total = int(n.sum())
        sumsq = int((n * n).sum())
        nu = len(n)
        hhi = float(sumsq) / (float(total) * float(total))
        norm = ((hhi - 1.0 / float(nu)) / (1.0 - 1.0 / float(nu))
                if nu > 1 else None)
        return pa.table({
            "event_type": t.column("event_type").slice(0, 1),
            "n_users": pa.array([nu], type=pa.int64()),
            "total": pa.array([total], type=pa.int64()),
            "sumsq": pa.array([sumsq], type=pa.int64()),
            "hhi": pa.array([hhi], type=pa.float64()),
            "hhi_norm": pa.array([norm], type=pa.float64(),
                                 from_pandas=True),
        })

    return partials.groupby("event_type").map_groups(finish,
                                                     batch_format="pyarrow")


# ---------------------------------------------------------------- G30 ----
def g30_topk_share(sf_dir: str, k: int = 4):
    """G30 — concentration ratio CR-k: per event type, the share of
    volume owned by the k heaviest users (ties broken by user_id, so the
    selected set is deterministic) — the regulator's version of G29's
    HHI, and the direct "how much do the whales own" readout.

    Exactness: ``topk_sum`` and ``total`` are exact int64 (per-user
    counts re-aggregated after ONE bounded exchange); ``cr_k`` is the
    single pinned division.

    Scale shape: identical exchange to G15/G29 (<= types*users partial
    rows per block); the per-type widen sorts the bounded user-count
    vector once."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["event_type", "user_id"]).aggregate(
            [([], "count_all")])
        return pa.table({"event_type": g.column("event_type"),
                         "user_id": g.column("user_id"),
                         "n": pc.cast(g.column("count_all"), pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def finish(group: pa.Table) -> pa.Table:
        t = group.group_by(["event_type", "user_id"]).aggregate(
            [("n", "sum")])
        n = np.asarray(t.column("n_sum"), dtype=np.int64)
        uid = np.asarray(t.column("user_id"), dtype=np.int64)
        total = int(n.sum())
        order = np.lexsort((uid, -n))        # n DESC, user_id ASC
        top = int(n[order[:k]].sum())
        return pa.table({
            "event_type": t.column("event_type").slice(0, 1),
            "n_users": pa.array([len(n)], type=pa.int64()),
            "total": pa.array([total], type=pa.int64()),
            "topk_sum": pa.array([top], type=pa.int64()),
            "cr_k": pa.array([float(top) / float(total)],
                             type=pa.float64()),
        })

    return partials.groupby("event_type").map_groups(finish,
                                                     batch_format="pyarrow")


# ---------------------------------------------------------------- J17 ----
def j17_asof_nearest(sf_dir: str):
    """J17 — NEAREST as-of join (either direction): for every ERROR
    event, the same user's closest CLICK event in time — "what was the
    user doing around the failure?".  Completes the as-of family: J4
    backward, J11 forward, J14 tolerance-bounded, J17 nearest.

    Semantics (deterministic, oracle-mirrored): candidate b = latest
    click at-or-before (ties -> largest click event_id), candidate f =
    earliest click at-or-after (ties -> smallest click event_id); the
    winner is the smaller |gap|, equal gaps -> the earlier (backward)
    candidate.  ``gap_us`` is exact integer microseconds; errors of
    users with no clicks keep NULLs.

    Scale shape: a composition of TWO J4 exchanges (backward then
    forward) on the same user key — each is one hash exchange, no
    broadcast, no global sort; the nearest pick is a map-only tail."""
    import pyarrow.compute as pc

    from anomalydetection_ray.stages.join import asof_attach

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id",
                                  "event_type"])

    def only(batch: pa.Table, typ: str) -> pa.Table:
        keep = pc.equal(batch.column("event_type"), typ)
        return batch.filter(keep).drop_columns(["event_type"])

    errors = ev.map_batches(lambda b: only(b, "error"),
                            batch_format="pyarrow", zero_copy_batch=True)

    def clicks_payload(batch: pa.Table, prefix: str) -> pa.Table:
        t = only(batch, "click")
        return pa.table({
            "user_id": t.column("user_id"),
            "ts": t.column("ts"),
            f"{prefix}_click_id": t.column("event_id"),
            f"{prefix}_click_ts": t.column("ts"),
        })

    back = ev.map_batches(lambda b: clicks_payload(b, "prev"),
                          batch_format="pyarrow", zero_copy_batch=True)
    fwd = ev.map_batches(lambda b: clicks_payload(b, "next"),
                         batch_format="pyarrow", zero_copy_batch=True)

    step = asof_attach(errors, back, by="user_id", on="ts",
                       payload_cols=["prev_click_id", "prev_click_ts"],
                       direction="backward", tiebreak="prev_click_id")
    step = asof_attach(step, fwd, by="user_id", on="ts",
                       payload_cols=["next_click_id", "next_click_ts"],
                       direction="forward", tiebreak="next_click_id")

    def finish(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch.column("ts").cast(pa.int64()),
                        dtype=np.int64)
        pc_ts = batch.column("prev_click_ts").cast(pa.int64())
        nc_ts = batch.column("next_click_ts").cast(pa.int64())
        has_p = ~np.asarray(pa.compute.is_null(pc_ts))
        has_n = ~np.asarray(pa.compute.is_null(nc_ts))
        gp = us - np.asarray(pc_ts.fill_null(0), dtype=np.int64)
        gn = np.asarray(nc_ts.fill_null(0), dtype=np.int64) - us
        pid = np.asarray(batch.column("prev_click_id").fill_null(0),
                         dtype=np.int64)
        nid = np.asarray(batch.column("next_click_id").fill_null(0),
                         dtype=np.int64)
        # backward wins when it exists and (no forward or gp <= gn)
        use_p = has_p & (~has_n | (gp <= gn))
        has = has_p | has_n
        gap = np.where(use_p, gp, gn)
        cid = np.where(use_p, pid, nid)
        return pa.table({
            "event_id": batch.column("event_id"),
            "user_id": batch.column("user_id"),
            "nearest_click_id": pa.array(cid, type=pa.int64(),
                                         mask=~has),
            "gap_us": pa.array(gap, type=pa.int64(), mask=~has),
        })

    return step.map_batches(finish, batch_format="pyarrow",
                            zero_copy_batch=True)


# ---------------------------------------------------------------- W41 ----
def w41_daily_type_corr(sf_dir: str):
    """W41 — Pearson correlation between the zero-filled DAILY count
    series of every event-type pair — "do errors co-move with
    purchases?", the cross-signal screen next to A29's lagged
    cross-correlation (which correlates VALUES; this correlates
    arrival-rate series on the calendar grid).

    Zero-fill for free: sums over the zero-filled day grid equal sums
    over the present rows, so only the grid length ``n_days`` (global
    day span) and the aligned cross products need care — all exact
    int64.  ``r`` is the pinned ``num / (sqrt(d1) * sqrt(d2))`` of
    exact ints, NULL when either series is constant on the grid.

    Scale shape: per-block (type, day) count partials, ONE bounded
    exchange (types x days), final single-group widen over the bounded
    grid."""

    def widen(group: pa.Table) -> pa.Table:
        import math

        et = group.column("event_type").to_pylist()
        day = np.asarray(group.column("day"), dtype=np.int64)
        n = np.asarray(group.column("n"), dtype=np.int64)
        d = int(day.max() - day.min() + 1)
        types = sorted(set(et))
        series = {}
        for t in types:
            sel = np.asarray([e == t for e in et], dtype=bool)
            series[t] = dict(zip(day[sel].tolist(), n[sel].tolist()))
        out = {"type_a": [], "type_b": [], "n_days": [], "sxy": [],
               "r": []}
        for i, ta in enumerate(types):
            for tb in types[i + 1:]:
                xa, xb = series[ta], series[tb]
                sx = sum(xa.values())
                sy = sum(xb.values())
                sxx = sum(v * v for v in xa.values())
                syy = sum(v * v for v in xb.values())
                sxy = sum(v * xb[k] for k, v in xa.items() if k in xb)
                d1 = d * sxx - sx * sx
                d2 = d * syy - sy * sy
                r = (float(d * sxy - sx * sy)
                     / (math.sqrt(float(d1)) * math.sqrt(float(d2)))
                     if d1 > 0 and d2 > 0 else None)
                out["type_a"].append(ta)
                out["type_b"].append(tb)
                out["n_days"].append(d)
                out["sxy"].append(sxy)
                out["r"].append(r)
        return pa.table({
            "type_a": pa.array(out["type_a"], type=pa.string()),
            "type_b": pa.array(out["type_b"], type=pa.string()),
            "n_days": pa.array(out["n_days"], type=pa.int64()),
            "sxy": pa.array(out["sxy"], type=pa.int64()),
            "r": pa.array(out["r"], type=pa.float64(),
                          from_pandas=True),
        })

    return _daily_counts(sf_dir, widen)


# ---------------------------------------------------------------- G31 ----
def g31_dispersion_index(sf_dir: str):
    """G31 — Poisson dispersion index (variance-to-mean ratio) of each
    event type's ZERO-FILLED daily count series: D >> 1 = bursty/
    overdispersed arrivals, D ~ 1 = Poisson-like — the daily-grain
    burstiness screen next to W26's inter-arrival-level one, and the
    direct "can I model this stream as Poisson?" answer.

    Zero-fill for free (W41's identity): sums over the zero-filled grid
    equal sums over present rows, so only the global day span enters.
    With n = span days, T = total, Q = sum of squared daily counts (all
    exact int64):  D = var/mean = (n*Q - T^2) / (n*T) — one pinned
    division of exact ints, replayed verbatim.

    Scale shape: per-block (type, day) count partials, ONE bounded
    exchange, single-group widen over the bounded grid."""

    def widen(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_pylist()
        day = np.asarray(group.column("day"), dtype=np.int64)
        n = np.asarray(group.column("n"), dtype=np.int64)
        d = int(day.max() - day.min() + 1)
        types = sorted(set(et))
        out_t, out_tot, out_q, out_d = [], [], [], []
        for t in types:
            sel = np.asarray([e == t for e in et], dtype=bool)
            tot = int(n[sel].sum())
            q = int((n[sel] * n[sel]).sum())
            out_t.append(t)
            out_tot.append(tot)
            out_q.append(q)
            out_d.append(float(d * q - tot * tot) / float(d * tot)
                         if tot > 0 else None)
        return pa.table({
            "event_type": pa.array(out_t, type=pa.string()),
            "n_days": pa.array([d] * len(types), type=pa.int64()),
            "total": pa.array(out_tot, type=pa.int64()),
            "sumsq": pa.array(out_q, type=pa.int64()),
            "dispersion": pa.array(out_d, type=pa.float64(),
                                   from_pandas=True),
        })

    return _daily_counts(sf_dir, widen)


# ---------------------------------------------------------------- G33 ----
def g33_cramers_v(sf_dir: str):
    """G33 — Cramér's V effect size for the event_type x weekday
    association: the standardized [0,1] companion of G16's chi-square
    (which scales with n and says nothing about strength).  V =
    sqrt(chi2 / (n * min(r-1, c-1))) over the PRESENT cells of the
    contingency grid (G16's cell convention).

    Exactness: counts/totals exact int64; each cell term is G16's
    pinned expression; chi2 is a PINNED sequential fold in (type, dow)
    order (the oracle replays it with list_reduce ORDER BY), and V is
    one division + one sqrt of that fold.

    Scale shape: G16's bounded partials (<= types x 7 rows per block),
    ONE exchange, single-group widen over the bounded grid."""
    import math

    import pyarrow.compute as pc

    DAY_US = 86_400_000_000
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts")
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        us = np.asarray(ts.cast(pa.int64()))
        dow = ((us // DAY_US) + 3) % 7
        t = pa.table({"event_type": batch.column("event_type"),
                      "dow": pa.array(dow, type=pa.int64())})
        g = t.group_by(["event_type", "dow"]).aggregate(
            [([], "count_all")])
        return pa.table({"event_type": g.column("event_type"),
                         "dow": g.column("dow"),
                         "n": pc.cast(g.column("count_all"),
                                      pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def widen(group: pa.Table) -> pa.Table:
        t = (group.group_by(["event_type", "dow"])
             .aggregate([("n", "sum")])
             .sort_by([("event_type", "ascending"),
                       ("dow", "ascending")]))
        et = t.column("event_type").to_pylist()
        dow = np.asarray(t.column("dow"), dtype=np.int64)
        n = np.asarray(t.column("n_sum"), dtype=np.int64)
        total = int(n.sum())
        row_tot = {}
        col_tot = {}
        for e, d, c in zip(et, dow, n):
            row_tot[e] = row_tot.get(e, 0) + int(c)
            col_tot[int(d)] = col_tot.get(int(d), 0) + int(c)
        acc = 0.0
        for e, d, c in zip(et, dow, n):   # pinned fold, (type, dow) order
            exp = (float(row_tot[e] * col_tot[int(d)])
                   / float(total))
            diff = float(int(c)) - exp
            acc = acc + diff * diff / exp
        r, cc = len(row_tot), len(col_tot)
        mind = min(r - 1, cc - 1)
        v = (math.sqrt(acc / (float(total) * float(mind)))
             if mind > 0 else None)
        return pa.table({
            "n_types": pa.array([r], type=pa.int64()),
            "n_dows": pa.array([cc], type=pa.int64()),
            "n": pa.array([total], type=pa.int64()),
            "chi2": pa.array([acc], type=pa.float64()),
            "cramers_v": pa.array([v], type=pa.float64(),
                                  from_pandas=True),
        })

    return partials.repartition(1).map_batches(widen, batch_format="pyarrow")


# ---------------------------------------------------------------- W42 ----
def w42_user_profile(sf_dir: str, num_partitions: int = 32):
    """W42 — per-user activity profile: first/last active day, count of
    DISTINCT active days, event count and exact cent total — the
    feature-extraction staple every LTV / churn / cohort model starts
    from, and the per-user flattening of W36's triangle.

    Scale shape: per-block (user, day) partials (count + cent sum)
    collapse each block before ONE `partition_apply` exchange on
    user_id; the per-partition kernel re-merges duplicate (user, day)
    partials with one lexsort + run detection — no per-user Python.
    All exact int64; no floats at all."""
    import pyarrow.compute as pc

    from anomalydetection_ray.stages.runs import partition_apply

    DAY_US = 86_400_000_000
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch.column("ts").cast(pa.int64()),
                        dtype=np.int64)
        v = np.asarray(batch.column("value"), dtype=np.float64)
        v100 = np.floor(v * 100.0 + 0.5).astype(np.int64)
        t = pa.table({"user_id": batch.column("user_id"),
                      "day": pa.array(us // DAY_US, type=pa.int64()),
                      "one": pa.array(np.ones(batch.num_rows,
                                              dtype=np.int64)),
                      "cents": pa.array(v100, type=pa.int64())})
        g = t.group_by(["user_id", "day"]).aggregate(
            [("one", "sum"), ("cents", "sum")])
        return pa.table({"user_id": g.column("user_id"),
                         "day": g.column("day"),
                         "n": pc.cast(g.column("one_sum"), pa.int64()),
                         "cents": pc.cast(g.column("cents_sum"),
                                          pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def kernel(part: pa.Table) -> pa.Table:
        from anomalydetection_ray.stages.runs import run_starts

        if part.num_rows == 0:
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "first_day": pa.array([], type=pa.int64()),
                "last_day": pa.array([], type=pa.int64()),
                "n_active_days": pa.array([], type=pa.int64()),
                "n_events": pa.array([], type=pa.int64()),
                "total_cents": pa.array([], type=pa.int64()),
            })
        part = part.sort_by([("user_id", "ascending"),
                             ("day", "ascending")])
        uid = np.asarray(part.column("user_id"), dtype=np.int64)
        day = np.asarray(part.column("day"), dtype=np.int64)
        n = np.asarray(part.column("n"), dtype=np.int64)
        cents = np.asarray(part.column("cents"), dtype=np.int64)
        ustarts = run_starts(part, ["user_id"])
        uends = np.append(ustarts[1:], part.num_rows)
        dstarts = run_starts(part, ["user_id", "day"])
        # distinct (user, day) runs per user: count day-run starts in
        # each user's row range
        n_days = (np.searchsorted(dstarts, uends, side="left")
                  - np.searchsorted(dstarts, ustarts, side="left"))
        c1 = np.concatenate(([0], np.cumsum(n)))
        c2 = np.concatenate(([0], np.cumsum(cents)))
        return pa.table({
            "user_id": pa.array(uid[ustarts], type=pa.int64()),
            "first_day": pa.array(day[ustarts], type=pa.int64()),
            "last_day": pa.array(day[uends - 1], type=pa.int64()),
            "n_active_days": pa.array(n_days, type=pa.int64()),
            "n_events": pa.array(c1[uends] - c1[ustarts],
                                 type=pa.int64()),
            "total_cents": pa.array(c2[uends] - c2[ustarts],
                                    type=pa.int64()),
        })

    return partition_apply(partials, keys=["user_id"], kernel=kernel,
                           num_partitions=num_partitions)


# ---------------------------------------------------------------- G34 ----
def g34_daily_quantile_band(sf_dir: str):
    """G34 — the "normal band" every ops dashboard draws: nearest-rank
    p10/p50/p90 of each event type's ZERO-FILLED daily count series —
    missing days count as zeros (a type absent for a week has a low p10,
    exactly what the alarm threshold should see).

    Exactness: order statistics of integers with the repo's nearest-rank
    convention rank = ceil(q * n_days) (one IEEE multiply + ceil, same
    in SQL); a rank that lands inside the implicit zeros block returns
    0, else the (rank - zeros)-th smallest present count.  No
    interpolation, no floats in the output.

    Scale shape: the (type, day) bounded count exchange + single-group
    widen (one sort of each type's bounded count vector)."""
    import math


    def widen(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_pylist()
        day = np.asarray(group.column("day"), dtype=np.int64)
        n = np.asarray(group.column("n"), dtype=np.int64)
        d = int(day.max() - day.min() + 1)
        types = sorted(set(et))
        out = {"event_type": [], "n_days": [], "p10": [], "p50": [],
               "p90": []}
        for t in types:
            sel = np.asarray([e == t for e in et], dtype=bool)
            present = np.sort(n[sel])
            z = d - len(present)
            qs = []
            for qq in (0.1, 0.5, 0.9):
                rank = int(math.ceil(qq * d))      # nearest-rank, 1-based
                qs.append(0 if rank <= z
                          else int(present[rank - z - 1]))
            out["event_type"].append(t)
            out["n_days"].append(d)
            out["p10"].append(qs[0])
            out["p50"].append(qs[1])
            out["p90"].append(qs[2])
        return pa.table({
            "event_type": pa.array(out["event_type"], type=pa.string()),
            "n_days": pa.array(out["n_days"], type=pa.int64()),
            "p10": pa.array(out["p10"], type=pa.int64()),
            "p50": pa.array(out["p50"], type=pa.int64()),
            "p90": pa.array(out["p90"], type=pa.int64()),
        })

    return _daily_counts(sf_dir, widen)


# ---------------------------------------------------------------- G35 ----
def g35_hourly_entropy(sf_dir: str):
    """G35 — Shannon entropy of each event type's hour-of-day profile:
    the temporal-concentration screen (low entropy = the type fires in
    a narrow daily window — batch jobs, cron abuse; high = human-flat)
    — G15's user-concentration entropy transposed onto W34's hourly
    grid.  ``norm_entropy`` divides by ln(24), the full-grid maximum.

    Exactness: hour counts exact int64; the entropy is a PINNED
    sequential fold in hour order over PRESENT hours (zero hours
    contribute nothing), replayed by the oracle with list_reduce
    ORDER BY; norm is one more pinned division.

    Scale shape: per-block (type, hour) partials (<= types*24 rows),
    ONE bounded exchange, per-type widen is O(24)."""
    import math

    import pyarrow.compute as pc

    HOUR_US = 3_600_000_000
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch.column("ts").cast(pa.int64()),
                        dtype=np.int64)
        hour = (us // HOUR_US) % 24
        t = pa.table({"event_type": batch.column("event_type"),
                      "hour": pa.array(hour, type=pa.int64())})
        g = t.group_by(["event_type", "hour"]).aggregate(
            [([], "count_all")])
        return pa.table({"event_type": g.column("event_type"),
                         "hour": g.column("hour"),
                         "n": pc.cast(g.column("count_all"),
                                      pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def finish(group: pa.Table) -> pa.Table:
        t = (group.group_by(["event_type", "hour"])
             .aggregate([("n", "sum")])
             .sort_by([("hour", "ascending")]))
        n = np.asarray(t.column("n_sum"), dtype=np.int64)
        total = int(n.sum())
        acc = 0.0
        for c in n:                       # pinned fold, hour order
            p = float(int(c)) / float(total)
            acc = acc + p * math.log(p)
        ent = -acc
        return pa.table({
            "event_type": t.column("event_type").slice(0, 1),
            "total": pa.array([total], type=pa.int64()),
            "n_hours": pa.array([len(n)], type=pa.int64()),
            "entropy": pa.array([ent], type=pa.float64()),
            "norm_entropy": pa.array([ent / math.log(24.0)],
                                     type=pa.float64()),
        })

    return partials.groupby("event_type").map_groups(
        finish, batch_format="pyarrow")


# ---------------------------------------------------------------- G36 ----
def g36_kurtosis(sf_dir: str):
    """G36 — per-group excess kurtosis of the JSON ``k`` property:
    g2 = m4/m2^2 - 3 over the n-scaled central moments (G14's missing
    fourth moment — the tail-weight screen: heavy tails inflate g2 long
    before the variance moves):

        m2s = n*s2 - s1^2                          (= n^2 * m2)
        m4s = n^3*s4 - 4n^2*s1*s3 + 6n*s1^2*s2 - 3*s1^4   (= n^4 * m4)

    whose n powers cancel exactly in the ratio.  Both scaled moments
    are NON-NEGATIVE exact ints carried in Python/HUGEINT (s1^4 blows
    past int64); int->double goes through the PINNED 32-bit split
    (A61's discipline — magnitudes past 2^53 hit DuckDB's
    double-rounding cast), then two pinned float ops."""
    import pyarrow.compute as pc

    from anomalydetection_ray.stages.detectors import _split_double

    ds = _read(sf_dir, "events", ["event_type", "props"])

    def partial(batch: pa.Table) -> pa.Table:
        props = batch.column("props")
        if isinstance(props, pa.ChunkedArray):
            props = props.combine_chunks()
        m = pc.extract_regex(props, r'"k":\s*(?P<k>-?\d+)')
        x = np.asarray(pc.cast(pc.struct_field(m, "k"), pa.int64()))
        t = pa.table({
            "event_type": batch.column("event_type"),
            "x": pa.array(x, type=pa.int64()),
            "x2": pa.array(x * x, type=pa.int64()),
            "x3": pa.array(x * x * x, type=pa.int64()),
            "x4": pa.array(x * x * x * x, type=pa.int64()),
        })
        g = t.group_by("event_type").aggregate(
            [([], "count_all"), ("x", "sum"), ("x2", "sum"),
             ("x3", "sum"), ("x4", "sum")])
        return pa.table({
            "event_type": g.column("event_type"),
            "n": pc.cast(g.column("count_all"), pa.int64()),
            "s1": pc.cast(g.column("x_sum"), pa.int64()),
            "s2": pc.cast(g.column("x2_sum"), pa.int64()),
            "s3": pc.cast(g.column("x3_sum"), pa.int64()),
            "s4": pc.cast(g.column("x4_sum"), pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def kurt(group: pa.Table) -> pa.Table:
        n = int(pc.sum(group.column("n")).as_py())
        s1 = int(pc.sum(group.column("s1")).as_py())
        s2 = int(pc.sum(group.column("s2")).as_py())
        s3 = int(pc.sum(group.column("s3")).as_py())
        s4 = int(pc.sum(group.column("s4")).as_py())
        m2s = n * s2 - s1 * s1
        m4s = (n ** 3 * s4 - 4 * n * n * s1 * s3
               + 6 * n * s1 * s1 * s2 - 3 * s1 ** 4)
        g2 = None if m2s <= 0 else \
            (_split_double(m4s)
             / (_split_double(m2s) * _split_double(m2s)) - 3.0)
        return pa.table({
            "event_type": group.column("event_type").slice(0, 1),
            "n": pa.array([n], type=pa.int64()),
            "m2_scaled": pa.array([m2s], type=pa.int64()),
            "kurtosis": pa.array([g2], type=pa.float64(),
                                 from_pandas=True),
        })

    return partials.groupby("event_type").map_groups(
        kurt, batch_format="pyarrow")


# ---------------------------------------------------------------- J18 ----
def j18_full_outer_daily(sf_dir: str):
    """J18 — FULL OUTER join, completing the join-type matrix (J3
    inner, J7 left, J6 anti, J8 semi): per-day error counts against
    per-day purchase counts, keeping days where EITHER side is absent
    with a NULL on the missing side (NULL, not 0 — "no errors" and
    "zero errors among events" are different facts in an outer join).

    Scale shape: both sides collapse to bounded (day, side) count
    partials map-side; ONE exchange on the bounded day domain; the
    per-day widen emits the nullable pair."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch.column("event_type"),
                        value_set=pa.array(["error", "purchase"]))
        t = batch.filter(keep)
        us = np.asarray(t.column("ts").cast(pa.int64()),
                        dtype=np.int64)
        g = pa.table({
            "day": pa.array(us // 86_400_000_000, type=pa.int64()),
            "side": t.column("event_type"),
        }).group_by(["day", "side"]).aggregate([([], "count_all")])
        return pa.table({"day": g.column("day"),
                         "side": g.column("side"),
                         "n": g.column("count_all").cast(pa.int64())})

    counts = (ds.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby(["day", "side"])
              .aggregate(Sum("n", alias_name="n")))

    def widen(group: pa.Table) -> pa.Table:
        sides = group.column("side").to_pylist()
        n = np.asarray(group.column("n"), dtype=np.int64)
        err = next((int(c) for s, c in zip(sides, n) if s == "error"),
                   None)
        pur = next((int(c) for s, c in zip(sides, n)
                    if s == "purchase"), None)
        return pa.table({
            "day": group.column("day").slice(0, 1).cast(pa.int64()),
            "err_n": pa.array([err], type=pa.int64(),
                              from_pandas=True),
            "purchase_n": pa.array([pur], type=pa.int64(),
                                   from_pandas=True),
        })

    return counts.groupby("day").map_groups(widen,
                                            batch_format="pyarrow")


# ---------------------------------------------------------------- S23 ----
def s23_sharded_roundtrip(sf_dir: str, n_shards: int = 4):
    """S23 — multi-file sharded write + provenance-tracked read-back:
    events split into ``n_shards`` parquet files by ``event_id %
    n_shards`` (the resume-unit layout S4's tier sink uses), then read
    back one file per read task with the shard id attached as a
    provenance column, and audited per shard (count + exact cent sum).
    The multi-file half of the roundtrip family (S6 jsonl, S7 csv, S13
    orc, S17 feather were all single-stream).

    Scale shape: the shard split is one map-side partition pass; the
    read-back is file-granular (each shard a separate read unit — the
    fragment-to-task mapping a multi-node run schedules independently);
    the audit collapses map-side to n_shards rows."""
    import os
    import shutil
    import tempfile

    import pyarrow.parquet as pq
    import ray.data
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_id", "value"])
    out = tempfile.mkdtemp(prefix="s23_shards_")
    try:
        def write_shards(batch: pa.Table) -> pa.Table:
            eid = np.asarray(batch.column("event_id"), dtype=np.int64)
            v = np.asarray(batch.column("value"), dtype=np.float64)
            cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
            shard = eid % n_shards
            for s in range(n_shards):
                sel = shard == s
                if not sel.any():
                    continue
                t = pa.table({
                    "event_id": pa.array(eid[sel], type=pa.int64()),
                    "cents": pa.array(cents[sel], type=pa.int64()),
                })
                d = os.path.join(out, f"shard={s}")
                os.makedirs(d, exist_ok=True)
                pq.write_table(t, os.path.join(
                    d, f"part-{eid[sel][0]}.parquet"))
            return pa.table({"written": pa.array(
                [int(batch.num_rows)], type=pa.int64())})

        # drain the write pass (side-effect stage, S4 discipline)
        ds.map_batches(write_shards,
                       batch_format="pyarrow").materialize()

        back = ray.data.read_parquet(out)  # hive layout: shard column
        agg = (back.map_batches(
            lambda b: pa.table({
                "shard": b.column("shard").cast(pa.int64()),
                "one": pa.array(np.ones(b.num_rows, dtype=np.int64)),
                "cents": b.column("cents"),
            }).group_by(["shard"]).aggregate(
                [("one", "sum"), ("cents", "sum")]),
            batch_format="pyarrow")
            .map_batches(lambda g: pa.table({
                "shard": g.column("shard"),
                "n": g.column("one_sum").cast(pa.int64()),
                "cents_sum": g.column("cents_sum").cast(pa.int64()),
            }), batch_format="pyarrow")
            .groupby("shard")
            .aggregate(Sum("n", alias_name="n"),
                       Sum("cents_sum", alias_name="cents_sum")))

        def finalize(batch: pa.Table) -> pa.Table:
            return pa.table({
                "shard": batch.column("shard").cast(pa.int64()),
                "n": batch.column("n").cast(pa.int64()),
                "cents_sum": batch.column("cents_sum").cast(pa.int64()),
            })

        res = agg.map_batches(finalize, batch_format="pyarrow")
        import ray.data as rd
        return rd.from_arrow(pa.concat_tables(
            list(res.iter_batches(batch_format="pyarrow"))))
    finally:
        shutil.rmtree(out, ignore_errors=True)


# ---------------------------------------------------------------- W44 ----
def w44_daily_acf1(sf_dir: str):
    """W44 — lag-1 autocorrelation of each type's ZERO-FILLED daily
    count series: "does a heavy day predict a heavy tomorrow?" — the
    persistence readout that separates momentum-driven streams from
    G31's memoryless overdispersion (both can show the same variance).

    Zero-fill arithmetic without materializing the grid: with n = day
    span, only consecutive PRESENT days contribute to Sxy, and the
    shifted sums are ``total`` minus the boundary days' counts (zeros
    elsewhere cancel) — all exact int64; acf is A9's pinned single
    division.

    Scale shape: the bounded (type, day) count exchange + single-group
    widen."""

    def widen(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_pylist()
        day = np.asarray(group.column("day"), dtype=np.int64)
        cnt = np.asarray(group.column("n"), dtype=np.int64)
        lo, hi = int(day.min()), int(day.max())
        d = hi - lo + 1
        types = sorted(set(et))
        out_t, out_s, out_a = [], [], []
        for t in types:
            sel = np.asarray([e == t for e in et], dtype=bool)
            dd = day[sel]
            cc = cnt[sel]
            m = dict(zip(dd.tolist(), cc.tolist()))
            s = int(cc.sum())
            q = int((cc * cc).sum())
            sxy = sum(v * m[k + 1] for k, v in m.items()
                      if k + 1 in m)
            sh = s - m.get(hi, 0)
            st = s - m.get(lo, 0)
            den = d * d * q - d * s * s
            num = d * d * sxy - d * s * (sh + st) + (d - 1) * s * s
            out_t.append(t)
            out_s.append(sxy)
            out_a.append(float(num) / float(den) if den != 0 and d > 1
                         else None)
        return pa.table({
            "event_type": pa.array(out_t, type=pa.string()),
            "n_days": pa.array([d] * len(types), type=pa.int64()),
            "sxy": pa.array(out_s, type=pa.int64()),
            "acf1": pa.array(out_a, type=pa.float64(),
                             from_pandas=True),
        })

    return _daily_counts(sf_dir, widen)


# ---------------------------------------------------------------- A63 ----
def a63_kpss(sf_dir: str):
    """A63 — KPSS level-stationarity statistic (lag 0) per event type
    over the observed daily cent-total series (Kwiatkowski-Phillips-
    Schmidt-Shin 1992): eta = sum_t S_t^2 / (n^2 * sigma^2) with S_t the
    partial sums of the mean-adjusted series.  The complement of A36's
    R/S reading — large eta rejects level stationarity (a wandering
    level / unit root), small eta certifies the mean reversion the
    S-H-ESD residual model assumes.

    Exactness: the n-scaled deviation cumdev_t = n*P_t - t*S is A36's
    integer quantity, so num = sum(cumdev^2) and den = n^2*(n*Q - S^2)
    are exact arbitrary-precision ints (cumdev^2 passes int64 — Python
    ints here, HUGEINT in the oracle) and eta is ONE division through
    the pinned 32-bit-split casts (A61's discipline).  n < 2 or zero
    variance emits NULL.

    Scale shape: A36's — per-block (type, day) cent partials, one
    bounded exchange, a per-TYPE finalize holding only the daily grid."""
    from anomalydetection_ray.stages.detectors import _split_double


    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        order = np.argsort(np.asarray(group.column("day"), dtype=np.int64))
        x = np.asarray(group.column("sum(x)"), dtype=np.int64)[order]
        n = int(x.shape[0])
        xs = [int(v) for v in x.tolist()]           # python-int exactness
        S = sum(xs)
        Q = sum(v * v for v in xs)
        p = 0
        num = 0
        for i, v in enumerate(xs, start=1):
            p += v
            cumdev = n * p - i * S
            num += cumdev * cumdev
        var_num = n * Q - S * S
        den = n * n * var_num
        kpss = (_split_double(num) / _split_double(den)
                if n >= 2 and var_num > 0 else None)
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([n], type=pa.int64()),
            "s_total": pa.array([S], type=pa.int64()),
            "kpss": pa.array([kpss], type=pa.float64(), from_pandas=True),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- G37 ----
def g37_mad_by_type(sf_dir: str):
    """G37 — per-type robust location/scale over ALL events of a type:
    exact median and MAD of quantized cents (W12's per-user robust
    statistics lifted to the bounded type domain) over G22's cent
    histogram (``_cent_hist``), never event rows.

    Read-off: median = the LOWER rank statistic (smallest v with
    cum >= (n+1)//2 — G22's q=0.5 rule made float-free), MAD = the SAME
    rule over the |v - median| deviation histogram derived from the
    value histogram already in hand (no second pass over rows);
    robust_sigma = 1.4826 * mad is the single pinned float op."""
    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        v = np.asarray(group.column("v100"), dtype=np.int64)
        c = np.asarray(group.column("n"), dtype=np.int64)
        n = int(c.sum())
        k = (n + 1) // 2
        med = int(v[int(np.searchsorted(np.cumsum(c), k))])
        dev = np.abs(v - med)
        dorder = np.argsort(dev, kind="stable")
        dcum = np.cumsum(c[dorder])
        mad = int(dev[dorder][int(np.searchsorted(dcum, k))])
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n": pa.array([n], type=pa.int64()),
            "median_cents": pa.array([med], type=pa.int64()),
            "mad_cents": pa.array([mad], type=pa.int64()),
            "robust_sigma": pa.array([1.4826 * float(mad)],
                                     type=pa.float64()),
        })

    return _cent_hist(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- G38 ----
def g38_daily_gini(sf_dir: str):
    """G38 — per-type Gini concentration of activity across the
    ZERO-FILLED daily grid (G13's inequality statistic transposed from
    document lengths to the time axis): G = sum_i (2i - d - 1) x_(i)
    / (d * sum x) over the ascending-sorted daily counts INCLUDING the
    zeros of absent days — "is this type's volume spread evenly or
    crammed into a few burst days?".

    Zero-fill for free: zeros sort first and contribute nothing, so
    only present days materialize — with m present days of d total, the
    ascending counts c_(1..m) sit at positions d-m+1..d and
    num = sum_j (d - 2m + 2j - 1) * c_(j) exactly (ties need no rule: a
    tied block's weight sum is position-set-invariant).  num/den are
    exact int64; gini is ONE pinned division.  d is W44's global day
    span (one bounded exchange, single-group widen)."""

    def widen(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_pylist()
        day = np.asarray(group.column("day"), dtype=np.int64)
        cnt = np.asarray(group.column("n"), dtype=np.int64)
        d = int(day.max()) - int(day.min()) + 1
        types = sorted(set(et))
        et_arr = np.asarray(et, dtype=object)
        out = {"event_type": [], "n_days": [], "n_present": [],
               "gini_num": [], "gini_den": [], "gini": []}
        for t in types:
            cc = np.sort(cnt[et_arr == t])
            m = int(cc.shape[0])
            j = np.arange(1, m + 1, dtype=np.int64)
            num = int(((d - 2 * m + 2 * j - 1) * cc).sum())
            den = d * int(cc.sum())
            out["event_type"].append(t)
            out["n_days"].append(d)
            out["n_present"].append(m)
            out["gini_num"].append(num)
            out["gini_den"].append(den)
            out["gini"].append(float(num) / float(den) if den != 0
                               else None)
        return pa.table({
            "event_type": pa.array(out["event_type"], type=pa.string()),
            "n_days": pa.array(out["n_days"], type=pa.int64()),
            "n_present": pa.array(out["n_present"], type=pa.int64()),
            "gini_num": pa.array(out["gini_num"], type=pa.int64()),
            "gini_den": pa.array(out["gini_den"], type=pa.int64()),
            "gini": pa.array(out["gini"], type=pa.float64(),
                             from_pandas=True),
        })

    return _daily_counts(sf_dir, widen)


# ---------------------------------------------------------------- G39 ----
def g39_psi_drift(sf_dir: str):
    """G39 — Population Stability Index of the cent-value distribution
    between the first and second half of the corpus' day span, per
    event type: psi = sum_bins (pA_i - pB_i) * ln(pA_i / pB_i) over 10
    decile bins FITTED ON THE FIRST HALF (the standard model-monitoring
    drift gauge; psi > 0.2 = action threshold in the scorecard folklore).

    Determinism: bin edges are the LOWER rank statistics of half A at
    k_j = ceil(j*nA/10) (G37's float-free rule); a value v falls in bin
    1 + #{edges < v}; duplicate edges leave their bins empty, and ANY
    empty bin on either side emits psi = NULL (no epsilon smoothing —
    the n_empty column says why).  The 10 per-bin float terms fold left
    in bin order from 0.0 — the oracle replays the same fold via
    list_reduce.  Types missing either half entirely are dropped.

    Scale shape: q9's tiny eager day-span aggregate broadcasts the
    half boundary; per-block (type, half, v100) cent histograms, ONE
    bounded exchange, a per-TYPE finalize holding only histograms."""
    import math

    from ray.data.aggregate import Max, Min

    DAY_US = 86_400_000_000
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    span = ds.map_batches(
        lambda b: pa.table({"day": pa.array(
            np.asarray((b.column("ts").combine_chunks()
                        if isinstance(b.column("ts"), pa.ChunkedArray)
                        else b.column("ts")).cast(pa.int64())) // DAY_US,
            type=pa.int64())}),
        batch_format="pyarrow").aggregate(Min("day"), Max("day"))
    lo, hi = int(span["min(day)"]), int(span["max(day)"])
    mid = lo + (hi - lo + 1) // 2

    def hist(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch.column("ts").cast(pa.int64()),
                        dtype=np.int64)
        day = us // DAY_US
        v = np.asarray(batch.column("value"), dtype=np.float64)
        v100 = np.floor(v * 100.0 + 0.5).astype(np.int64)
        t = pa.table({
            "event_type": batch.column("event_type"),
            "half": pa.array((day >= mid).astype(np.int64),
                             type=pa.int64()),
            "v100": pa.array(v100, type=pa.int64()),
            "one": pa.array(np.ones(v100.shape[0], dtype=np.int64)),
        })
        g = t.group_by(["event_type", "half", "v100"]).aggregate(
            [("one", "sum")])
        return pa.table({"event_type": g.column("event_type"),
                         "half": g.column("half"),
                         "v100": g.column("v100"),
                         "c": g.column("one_sum").cast(pa.int64())})

    counts = (ds.map_batches(hist, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby(["event_type", "half", "v100"]).sum("c"))

    EMPTY = pa.table({
        "event_type": pa.array([], type=pa.string()),
        "n_a": pa.array([], type=pa.int64()),
        "n_b": pa.array([], type=pa.int64()),
        "n_empty": pa.array([], type=pa.int64()),
        "psi": pa.array([], type=pa.float64()),
    })

    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        half = np.asarray(group.column("half"), dtype=np.int64)
        v = np.asarray(group.column("v100"), dtype=np.int64)
        c = np.asarray(group.column("sum(c)"), dtype=np.int64)
        sel_a = half == 0
        sel_b = ~sel_a
        if not sel_a.any() or not sel_b.any():
            return EMPTY                       # type missing a half
        ord_a = np.argsort(v[sel_a])
        va, ca = v[sel_a][ord_a], c[sel_a][ord_a]
        cum_a = np.cumsum(ca)
        n_a = int(cum_a[-1])
        n_b = int(c[sel_b].sum())
        ks = np.array([(j * n_a + 9) // 10 for j in range(1, 10)],
                      dtype=np.int64)
        edges = va[np.searchsorted(cum_a, ks)]
        # bin = 1 + #{edges < v}; masses per (half, bin)
        mass = np.zeros((2, 10), dtype=np.int64)
        bins = np.searchsorted(np.sort(edges), v, side="left")
        np.add.at(mass, (half, bins), c)
        empty = (mass[0] == 0) | (mass[1] == 0)
        n_empty = int(empty.sum())
        if n_empty == 0:
            acc = 0.0
            for i in range(10):
                p_a = float(int(mass[0, i])) / float(n_a)
                p_b = float(int(mass[1, i])) / float(n_b)
                acc += (p_a - p_b) * math.log(p_a / p_b)
            psi = acc
        else:
            psi = None
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_a": pa.array([n_a], type=pa.int64()),
            "n_b": pa.array([n_b], type=pa.int64()),
            "n_empty": pa.array([n_empty], type=pa.int64()),
            "psi": pa.array([psi], type=pa.float64(),
                            from_pandas=True),
        })

    return counts.groupby("event_type").map_groups(
        finalize, batch_format="pyarrow")


# ---------------------------------------------------------------- G40 ----
def g40_kendall_daily(sf_dir: str):
    """G40 — Kendall tau-b between the zero-filled DAILY count series
    of every event-type pair: the rank-robust complement of W41's
    Pearson and G20's Spearman (tau survives the burst outliers that
    wreck r, and its tie correction handles the zero-heavy grid
    honestly).  nc/nd = concordant/discordant day pairs, tau_b =
    (nc - nd) / sqrt((n0 - t_x)(n0 - t_y)) with n0 = d(d-1)/2 and
    t_* the tied-pair counts — ALL exact int64; one pinned sqrt of
    one exact product (< 2^53 for any realistic day span), one pinned
    division.  Constant series emit NULL.

    Scale shape: W41's — per-block (type, day) count partials, ONE
    bounded exchange, single-group widen over the bounded grid (the
    O(d^2) pair scan is over DAYS, a domain that grows with history,
    never with corpus size)."""
    import math


    def widen(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_pylist()
        day = np.asarray(group.column("day"), dtype=np.int64)
        cnt = np.asarray(group.column("n"), dtype=np.int64)
        lo, hi = int(day.min()), int(day.max())
        d = hi - lo + 1
        types = sorted(set(et))
        et_arr = np.asarray(et, dtype=object)
        grids = {}
        for t in types:
            g = np.zeros(d, dtype=np.int64)
            sel = et_arr == t
            g[day[sel] - lo] = cnt[sel]
            grids[t] = g

        def tied_pairs(g: np.ndarray) -> int:
            _, c = np.unique(g, return_counts=True)
            return int((c * (c - 1) // 2).sum())

        n0 = d * (d - 1) // 2
        out = {k: [] for k in ["type_a", "type_b", "n_days", "nc",
                               "nd", "tau_b"]}
        for i, ta in enumerate(types):
            for tb in types[i + 1:]:
                x, y = grids[ta], grids[tb]
                # sign-product counts over all day pairs, vectorized
                # via the outer difference (d x d ints, d is bounded)
                sx = np.sign(x[:, None] - x[None, :])
                sy = np.sign(y[:, None] - y[None, :])
                prod = sx * sy
                iu = np.triu_indices(d, k=1)
                nc = int((prod[iu] > 0).sum())
                nd = int((prod[iu] < 0).sum())
                tx, ty = tied_pairs(x), tied_pairs(y)
                den2 = (n0 - tx) * (n0 - ty)
                tau = (float(nc - nd) / math.sqrt(float(den2))
                       if den2 > 0 else None)
                out["type_a"].append(ta)
                out["type_b"].append(tb)
                out["n_days"].append(d)
                out["nc"].append(nc)
                out["nd"].append(nd)
                out["tau_b"].append(tau)
        return pa.table({
            "type_a": pa.array(out["type_a"], type=pa.string()),
            "type_b": pa.array(out["type_b"], type=pa.string()),
            "n_days": pa.array(out["n_days"], type=pa.int64()),
            "nc": pa.array(out["nc"], type=pa.int64()),
            "nd": pa.array(out["nd"], type=pa.int64()),
            "tau_b": pa.array(out["tau_b"], type=pa.float64(),
                              from_pandas=True),
        })

    return _daily_counts(sf_dir, widen)


# ---------------------------------------------------------------- G41 ----
def g41_ks_two_types(sf_dir: str, type_a: str = "error",
                     type_b: str = "purchase"):
    """G41 — two-sample Kolmogorov-Smirnov distance between the
    cent-value distributions of two event types ("do failures carry a
    different value profile than conversions?"): the distributional
    sibling of A12's within-type temporal drift and G39's binned PSI —
    KS needs no bin choice and gives the exact sup-distance.

    Exactness: with c1/c2 the cumulative counts over the merged cent
    support, D_num = max |c1*n2 - c2*n1| is an exact int64 argmax
    (first support value wins ties, ascending), ks = D_num/(n1*n2) is
    ONE pinned division.

    Plan: ``_cent_hist``; the finalize keeps the two types' rows, and
    no row when neither type has an event."""
    import pyarrow.compute as pc

    def widen(group: pa.Table) -> pa.Table:
        group = group.filter(pc.is_in(group.column("event_type"),
                                      value_set=pa.array([type_a, type_b])))
        if not group.num_rows:
            return pa.table({})
        et = np.asarray(group.column("event_type").to_pylist(),
                        dtype=object)
        v = np.asarray(group.column("v100"), dtype=np.int64)
        c = np.asarray(group.column("n"), dtype=np.int64)
        support = np.unique(v)
        ca = np.zeros(support.shape[0], dtype=np.int64)
        cb = np.zeros(support.shape[0], dtype=np.int64)
        sel_a = et == type_a
        sel_b = et == type_b
        ca[np.searchsorted(support, v[sel_a])] = c[sel_a]
        cb[np.searchsorted(support, v[sel_b])] = c[sel_b]
        n_a, n_b = int(ca.sum()), int(cb.sum())
        cca, ccb = np.cumsum(ca), np.cumsum(cb)
        dn = np.abs(cca * n_b - ccb * n_a)
        d_num = int(dn.max())
        at = int(support[int(np.argmax(dn))])
        ks = (float(d_num) / float(n_a * n_b)
              if n_a > 0 and n_b > 0 else None)
        return pa.table({
            "type_a": pa.array([type_a], type=pa.string()),
            "type_b": pa.array([type_b], type=pa.string()),
            "n_a": pa.array([n_a], type=pa.int64()),
            "n_b": pa.array([n_b], type=pa.int64()),
            "d_num": pa.array([d_num], type=pa.int64()),
            "at_cents": pa.array([at], type=pa.int64()),
            "ks": pa.array([ks], type=pa.float64(), from_pandas=True),
        })

    return _cent_hist(sf_dir, widen)


# ---------------------------------------------------------------- J19 ----
def j19_last_touch(sf_dir: str, window_us: int = 7 * 86_400_000_000,
                   num_partitions: int = 16):
    """J19 — last-touch attribution: each PURCHASE looks up the same
    user's most recent CLICK strictly before it; a match older than
    ``window_us`` (7 days) loses the credit.  Per purchase-day report:
    purchases, attributed purchases, and the exact summed lag of the
    attributed ones — the marketing-attribution shape that J4/J11/J14's
    as-of machinery exists for, aggregated the way a campaign dashboard
    reads it.

    Scale shape: ONE co-partitioned ``_pkey`` exchange on user carries
    BOTH roles (map-side filtered to clicks+purchases only); the
    kernel resolves every lookup with one ``searchsorted`` over a
    (dense-user-rank << 45 | rebased-us) composite key — no per-user
    Python; the per-day rollup is a second, day-bounded exchange.
    Oracle: DuckDB ASOF LEFT JOIN + the same window test."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from anomalydetection_ray.stages.runs import partition_apply

    DAY_US = 86_400_000_000
    ev = _read(sf_dir, "events",
               ["event_id", "ts", "user_id", "event_type"])

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch.column("event_type"),
                                     value_set=pa.array(["click",
                                                         "purchase"])))

    both = ev.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)

    def kernel(group: pa.Table) -> pa.Table:
        et = np.asarray(group.column("event_type").to_pylist(),
                        dtype=object)
        uid = np.asarray(group.column("user_id"), dtype=np.int64)
        us = np.asarray(group.column("ts").cast(pa.int64()),
                        dtype=np.int64)
        is_c = et == "click"
        is_p = et == "purchase"
        if not is_p.any():
            return pa.table({
                "day": pa.array([], type=pa.int64()),
                "n_purchases": pa.array([], type=pa.int64()),
                "n_attributed": pa.array([], type=pa.int64()),
                "lag_us_sum": pa.array([], type=pa.int64()),
            })
        base = int(us.min())
        # 2^45 us ~ 1.1 years of span headroom per partition; guard the
        # composite rather than silently corrupting ranks
        assert int(us.max()) - base < (1 << 45), "ts span exceeds key"
        ur = np.unique(uid)
        rank = np.searchsorted(ur, uid).astype(np.int64)
        key = (rank << 45) | (us - base)
        ck = np.sort(key[is_c])
        pk = key[is_p]
        idx = np.searchsorted(ck, pk, side="left") - 1
        found = idx >= 0
        # same-user check: the composite keeps users in disjoint ranges
        prev = np.where(found, ck[np.maximum(idx, 0)], 0)
        found &= (prev >> 45) == (pk >> 45)
        lag = np.where(found, pk - prev, 0)          # us diff: bases cancel
        attributed = found & (lag <= window_us)
        day = us[is_p] // DAY_US
        t = pa.table({
            "day": pa.array(day, type=pa.int64()),
            "one": pa.array(np.ones(day.shape[0], dtype=np.int64)),
            "att": pa.array(attributed.astype(np.int64)),
            "lag": pa.array(np.where(attributed, lag, 0),
                            type=pa.int64()),
        })
        g = t.group_by(["day"]).aggregate([("one", "sum"),
                                           ("att", "sum"),
                                           ("lag", "sum")])
        return pa.table({
            "day": g.column("day"),
            "n_purchases": g.column("one_sum").cast(pa.int64()),
            "n_attributed": g.column("att_sum").cast(pa.int64()),
            "lag_us_sum": g.column("lag_sum").cast(pa.int64()),
        })

    per_day = partition_apply(both, ["user_id"], kernel, num_partitions)
    return (per_day.groupby("day")
            .aggregate(Sum("n_purchases", alias_name="n_purchases"),
                       Sum("n_attributed", alias_name="n_attributed"),
                       Sum("lag_us_sum", alias_name="lag_us_sum")))


# ---------------------------------------------------------------- A68 ----
def a68_von_neumann(sf_dir: str):
    """A68 — von Neumann ratio per event type over the observed daily
    cent-total series: vn = sum(d_i^2) / sum((x - xbar)^2), the raw-
    value sibling of A39's rank-based Bartels test (vn ~ 2 under iid;
    << 2 = positive persistence, >> 2 = alternation) — and unlike A39
    it feels magnitudes, not just order.

    Exactness: vn = n * sum(d^2) / (n*Q - S^2) — numerator and
    denominator exact ints (Python/HUGEINT), ONE division through the
    pinned 32-bit-split casts.  n < 2 or zero variance emits NULL.

    Scale shape: A36's — bounded (type, day) cent partials, one
    exchange, per-type finalize over the daily grid."""
    from anomalydetection_ray.stages.detectors import _split_double


    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        order = np.argsort(np.asarray(group.column("day"),
                                      dtype=np.int64))
        x = np.asarray(group.column("sum(x)"), dtype=np.int64)[order]
        xs = [int(v) for v in x.tolist()]
        n = len(xs)
        S = sum(xs)
        Q = sum(v * v for v in xs)
        d2 = sum((b - a) * (b - a) for a, b in zip(xs, xs[1:]))
        var_num = n * Q - S * S
        vn = (_split_double(n * d2) / _split_double(var_num)
              if n >= 2 and var_num > 0 else None)
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([n], type=pa.int64()),
            "d2_sum": pa.array([d2], type=pa.int64()),
            "vn": pa.array([vn], type=pa.float64(), from_pandas=True),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- Q24 ----
def q24_temperature_mixture(sf_dir: str):
    """Q24 — temperature-scaled mixture plan over sources: sampling
    weight w_s = sqrt(n_s) / sum_s sqrt(n_s) (the alpha = 0.5 case of
    the multilingual upsampling rule — boosts tail sources, damps the
    head; sqrt specifically because IEEE sqrt is correctly rounded, so
    the plan is bit-replayable where a pow(x, 0.7) would not be).
    The PLANNING half of Q13/Q19's mixture samplers: what those
    samplers should converge to.

    Determinism: n_s exact ints; the normalizer folds sqrt terms left
    in source order from 0.0 (list_reduce in the oracle); each share is
    one division.

    Scale shape: one bounded per-source count exchange + single-group
    widen."""
    import math

    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["source"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["source"]).aggregate([([], "count_all")])
        return pa.table({"source": g.column("source"),
                         "n": pc.cast(g.column("count_all"),
                                      pa.int64())})

    counts = (ds.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby("source").aggregate(Sum("n", alias_name="n")))

    def widen(group: pa.Table) -> pa.Table:
        src = group.column("source").to_pylist()
        n = [int(v) for v in group.column("n").to_pylist()]
        order = np.argsort(np.asarray(src, dtype=object))
        total = 0.0
        for i in order:                      # source-order fold
            total = total + math.sqrt(float(n[i]))
        srcs = [src[i] for i in order]
        ns = [n[i] for i in order]
        w = [math.sqrt(float(v)) for v in ns]
        return pa.table({
            "source": pa.array(srcs, type=pa.string()),
            "n_docs": pa.array(ns, type=pa.int64()),
            "weight": pa.array(w, type=pa.float64()),
            "share": pa.array([x / total for x in w],
                              type=pa.float64()),
        })

    return counts.repartition(1).map_batches(widen, batch_format="pyarrow")


# ---------------------------------------------------------------- W47 ----
def w47_burst_runs(sf_dir: str):
    """W47 — burst-run detection per event type on the ZERO-FILLED
    daily grid: a day bursts when its count exceeds TWICE the grid
    mean (d*x > 2*S — exact int compare, no division), and a burst RUN
    is a maximal streak of consecutive calendar days all bursting
    (Kleinberg's two-state burst model collapsed to its threshold
    core).  Reports days, runs, and the longest run per type — the
    "was it one sustained surge or scattered spikes?" readout next to
    W26's burstiness coefficient.

    Zero days can never burst, so only present days materialize; run
    boundaries fall out of day-number gaps (gaps-and-islands).  All
    outputs exact int64.

    Scale shape: W44's bounded (type, day) count exchange +
    single-group widen."""

    def widen(group: pa.Table) -> pa.Table:
        et = np.asarray(group.column("event_type").to_pylist(),
                        dtype=object)
        day = np.asarray(group.column("day"), dtype=np.int64)
        cnt = np.asarray(group.column("n"), dtype=np.int64)
        d = int(day.max()) - int(day.min()) + 1
        out = {k: [] for k in ["event_type", "n_days", "n_burst_days",
                               "n_burst_runs", "longest_run"]}
        for t in sorted(set(et.tolist())):
            sel = et == t
            S = int(cnt[sel].sum())
            bd = np.sort(day[sel][d * cnt[sel] > 2 * S])
            nb = int(bd.shape[0])
            if nb:
                breaks = np.concatenate(
                    ([True], np.diff(bd) != 1))
                starts = np.flatnonzero(breaks)
                runs = np.diff(np.append(starts, nb))
                n_runs, longest = len(starts), int(runs.max())
            else:
                n_runs, longest = 0, 0
            out["event_type"].append(t)
            out["n_days"].append(d)
            out["n_burst_days"].append(nb)
            out["n_burst_runs"].append(n_runs)
            out["longest_run"].append(longest)
        return pa.table({
            "event_type": pa.array(out["event_type"], type=pa.string()),
            "n_days": pa.array(out["n_days"], type=pa.int64()),
            "n_burst_days": pa.array(out["n_burst_days"],
                                     type=pa.int64()),
            "n_burst_runs": pa.array(out["n_burst_runs"],
                                     type=pa.int64()),
            "longest_run": pa.array(out["longest_run"],
                                    type=pa.int64()),
        })

    return _daily_counts(sf_dir, widen)


# ---------------------------------------------------------------- A69 ----
def a69_jarque_bera(sf_dir: str):
    """A69 — Jarque-Bera normality screen per event type over the
    observed daily cent-total series: JB = n/6 * (skew^2 + kurt^2/4)
    from the n-scaled central moments — the gate before any
    Gaussian-assuming control chart (A6's 3-sigma bands mean nothing
    on a skewed heavy-tailed daily series; JB says so first).

    Exactness: power sums s1..s4 are exact ints; the scaled central
    moments m2s = n*s2 - s1^2, m3s = n^2*s3 - 3n*s1*s2 + 2*s1^3,
    m4s (G36's) satisfy skew^2 = m3s^2/m2s^3 and kurt = m4s/m2s^2 - 3
    with all n-powers cancelling.  m2s^3 would blow past HUGEINT, so
    skew^2 evaluates in the RATIO-SPLIT form (r = sd(m3s)/sd(m2s);
    skew2 = r*r/sd(m2s)) — every operand stays <= m4s, inside the
    oracle's HUGEINT + 32-bit-split casts.  n < 2 or zero variance
    emits NULL.

    Scale shape: A36's bounded (type, day) cent partials + per-type
    finalize."""
    from anomalydetection_ray.stages.detectors import _split_double


    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        xs = [int(v) for v in
              np.asarray(group.column("sum(x)"), dtype=np.int64)]
        n = len(xs)
        s1 = sum(xs)
        s2 = sum(v * v for v in xs)
        s3 = sum(v ** 3 for v in xs)
        s4 = sum(v ** 4 for v in xs)
        m2s = n * s2 - s1 * s1
        m3s = n * n * s3 - 3 * n * s1 * s2 + 2 * s1 ** 3
        m4s = (n ** 3 * s4 - 4 * n * n * s1 * s3
               + 6 * n * s1 * s1 * s2 - 3 * s1 ** 4)
        if n >= 2 and m2s > 0:
            r = _split_double(m3s) / _split_double(m2s)
            skew2 = (r * r) / _split_double(m2s)
            kurt = (_split_double(m4s)
                    / (_split_double(m2s) * _split_double(m2s)) - 3.0)
            jb = (float(n) / 6.0) * (skew2 + (kurt * kurt) / 4.0)
        else:
            skew2 = kurt = jb = None
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([n], type=pa.int64()),
            "skew2": pa.array([skew2], type=pa.float64(),
                              from_pandas=True),
            "ex_kurt": pa.array([kurt], type=pa.float64(),
                                from_pandas=True),
            "jb": pa.array([jb], type=pa.float64(), from_pandas=True),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- W49 ----
def w49_weekday_strength(sf_dir: str):
    """W49 — weekday seasonality strength per event type on the
    ZERO-FILLED daily count grid: 1 - var(x - med_{day%7}) / var(x),
    the calendar twin of A48's positional seasonal strength — how much
    of a type's daily variance the weekly rhythm explains (robust
    phase MEDIANS absorb the seasonal level, so one burst day can't
    fake a weekly pattern).

    Determinism: phase medians are lower-rank statistics of ints
    (G37's rule, (m+1)//2), residual/raw variance numerators
    d*Q - S^2 are exact non-negative Python/HUGEINT ints, and the
    strength is ONE split-cast division subtracted from 1.0.  Zero
    raw variance emits NULL; ``med_sum`` pins the medians in the
    hash.

    Scale shape: W44's bounded (type, day) exchange + single-group
    widen over the bounded grid."""

    from anomalydetection_ray.stages.detectors import _split_double


    def widen(group: pa.Table) -> pa.Table:
        et = np.asarray(group.column("event_type").to_pylist(),
                        dtype=object)
        day = np.asarray(group.column("day"), dtype=np.int64)
        cnt = np.asarray(group.column("n"), dtype=np.int64)
        lo, hi = int(day.min()), int(day.max())
        d = hi - lo + 1
        wdays = (np.arange(lo, hi + 1, dtype=np.int64)) % 7
        out = {k: [] for k in ["event_type", "n_days", "med_sum",
                               "strength"]}
        for t in sorted(set(et.tolist())):
            sel = et == t
            grid = np.zeros(d, dtype=np.int64)
            grid[day[sel] - lo] = cnt[sel]
            med = np.zeros(7, dtype=np.int64)
            for w in range(7):
                vals = np.sort(grid[wdays == w])
                m = vals.shape[0]
                if m:
                    med[w] = vals[(m + 1) // 2 - 1]
            resid = grid - med[wdays]
            xs = [int(v) for v in grid.tolist()]
            rs = [int(v) for v in resid.tolist()]
            num_x = d * sum(v * v for v in xs) - sum(xs) ** 2
            num_r = d * sum(v * v for v in rs) - sum(rs) ** 2
            strength = (1.0 - _split_double(num_r)
                        / _split_double(num_x)
                        if num_x > 0 else None)
            out["event_type"].append(t)
            out["n_days"].append(d)
            out["med_sum"].append(int(med.sum()))
            out["strength"].append(strength)
        return pa.table({
            "event_type": pa.array(out["event_type"], type=pa.string()),
            "n_days": pa.array(out["n_days"], type=pa.int64()),
            "med_sum": pa.array(out["med_sum"], type=pa.int64()),
            "strength": pa.array(out["strength"], type=pa.float64(),
                                 from_pandas=True),
        })

    return _daily_counts(sf_dir, widen)


# ---------------------------------------------------------------- W50 ----
def w50_tenure_activity_corr(sf_dir: str):
    """W50 — Pearson correlation between user TENURE (hours between
    first and last event, floored) and event count, across all users:
    "do long-lived accounts actually do more?" — the engagement-economy
    scalar G10's per-type value correlation can't see because it never
    leaves the event grain.

    Exactness: tenure floors to whole hours so every correlation sum
    fits int64 at any realistic user count (hours < 1e5 even for a
    decade; the us-grain squares would not); moments combine as exact
    ints; r is G10's pinned num / (sqrt * sqrt) with the SIGNED
    split cast on the (possibly negative) numerator.

    Scale shape: per-block (user, min, max, count) partials, ONE
    user-keyed exchange, per-block correlation-moment partials over
    the per-user rows (bounded: 6 ints per block), tiny final merge."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Min, Sum

    from anomalydetection_ray.stages.detectors import _split_double

    HOUR_US = 3_600_000_000
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch.column("ts").cast(pa.int64()),
                        dtype=np.int64)
        t = pa.table({"user_id": batch.column("user_id"),
                      "us": pa.array(us, type=pa.int64())})
        g = t.group_by(["user_id"]).aggregate(
            [("us", "min"), ("us", "max"), ([], "count_all")])
        return pa.table({"user_id": g.column("user_id"),
                         "first_us": g.column("us_min"),
                         "last_us": g.column("us_max"),
                         "n": pc.cast(g.column("count_all"),
                                      pa.int64())})

    per_user = (ds.map_batches(partial, batch_format="pyarrow",
                               zero_copy_batch=True)
                .groupby("user_id")
                .aggregate(Min("first_us", alias_name="first_us"),
                           Max("last_us", alias_name="last_us"),
                           Sum("n", alias_name="n")))

    def moments(batch: pa.Table) -> pa.Table:
        x = ((np.asarray(batch.column("last_us"), dtype=np.int64)
              - np.asarray(batch.column("first_us"), dtype=np.int64))
             // HOUR_US)
        y = np.asarray(batch.column("n"), dtype=np.int64)
        return pa.table({
            "nu": pa.array([x.shape[0]], type=pa.int64()),
            "sx": pa.array([int(x.sum())], type=pa.int64()),
            "sy": pa.array([int(y.sum())], type=pa.int64()),
            "sxx": pa.array([int((x * x).sum())], type=pa.int64()),
            "syy": pa.array([int((y * y).sum())], type=pa.int64()),
            "sxy": pa.array([int((x * y).sum())], type=pa.int64()),
        })

    parts = per_user.map_batches(moments, batch_format="pyarrow")

    def finalize(group: pa.Table) -> pa.Table:
        import math

        tot = {c: sum(int(v) for v in group.column(c).to_pylist())
               for c in ["nu", "sx", "sy", "sxx", "syy", "sxy"]}
        n = tot["nu"]
        num = n * tot["sxy"] - tot["sx"] * tot["sy"]
        dx = n * tot["sxx"] - tot["sx"] * tot["sx"]
        dy = n * tot["syy"] - tot["sy"] * tot["sy"]
        r = (_split_double(num)
             / (math.sqrt(_split_double(dx))
                * math.sqrt(_split_double(dy)))
             if dx > 0 and dy > 0 else None)
        return pa.table({
            "n_users": pa.array([n], type=pa.int64()),
            "sxy": pa.array([tot["sxy"]], type=pa.int64()),
            "r": pa.array([r], type=pa.float64(), from_pandas=True),
        })

    return parts.repartition(1).map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------- A70 ----
def a70_df_slope(sf_dir: str):
    """A70 — Dickey-Fuller regression slope per event type over the
    observed daily cent-total series: the OLS coefficient of
    dx_t = alpha + beta * x_{t-1}; beta near 0 = unit root (shocks
    persist), strongly negative = mean reversion.  A63's KPSS tests
    the stationary null; this tests the unit-root null — running the
    classic complementary pair from the same exchange is the whole
    point.

    Exactness: with y = first differences and z = lagged levels over
    the m = n-1 pairs, num = m*Szy - Sz*Sy and den = m*Szz - Sz^2 are
    exact ints (HUGEINT in the oracle); beta is ONE division through
    the SIGNED split casts.  m < 2 or constant z emits NULL.

    Scale shape: A36's bounded (type, day) exchange + per-type
    finalize."""
    from anomalydetection_ray.stages.detectors import _split_double


    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        order = np.argsort(np.asarray(group.column("day"),
                                      dtype=np.int64))
        xs = [int(v) for v in
              np.asarray(group.column("sum(x)"),
                         dtype=np.int64)[order]]
        n = len(xs)
        m = n - 1
        if m >= 2:
            z = xs[:-1]
            y = [b - a for a, b in zip(xs, xs[1:])]
            sz, sy = sum(z), sum(y)
            szz = sum(v * v for v in z)
            szy = sum(a * b for a, b in zip(z, y))
            num = m * szy - sz * sy
            den = m * szz - sz * sz
            beta = (_split_double(num) / _split_double(den)
                    if den > 0 else None)
        else:
            num, den, beta = 0, 0, None
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([n], type=pa.int64()),
            "df_num": pa.array([num], type=pa.int64()),
            "beta": pa.array([beta], type=pa.float64(),
                             from_pandas=True),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- W51 ----
def w51_robust_volatility(sf_dir: str):
    """W51 — robust daily volatility per event type: the LOWER median
    of |day-over-day change| of the observed daily cent totals — W25's
    volatility with the estimator a fat-tailed ops series actually
    needs (one incident day inflates a std beyond use; the median
    absolute change shrugs it off).  Also emits the max |change| so
    the tail is visible next to the robust center.

    Exactness: changes are exact int64; the median is G37's
    (m+1)//2 rank statistic — NO floats anywhere in the output.

    Scale shape: A36's bounded (type, day) exchange + per-type
    finalize over the daily grid."""

    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        order = np.argsort(np.asarray(group.column("day"),
                                      dtype=np.int64))
        x = np.asarray(group.column("sum(x)"), dtype=np.int64)[order]
        n = int(x.shape[0])
        if n >= 2:
            d = np.sort(np.abs(np.diff(x)))
            m = int(d.shape[0])
            med = int(d[(m + 1) // 2 - 1])
            mx = int(d[-1])
            has = True
        else:
            m, med, mx, has = 0, 0, 0, False
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([n], type=pa.int64()),
            "n_changes": pa.array([m], type=pa.int64()),
            "med_abs_change": pa.array([med if has else None],
                                       type=pa.int64(),
                                       from_pandas=True),
            "max_abs_change": pa.array([mx if has else None],
                                       type=pa.int64(),
                                       from_pandas=True),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- A71 ----
def a71_daily_mad_outliers(sf_dir: str):
    """A71 — robust daily outlier count per event type: days whose
    cent total sits more than 3.5 robust sigmas from the median of the
    observed daily series (Iglewicz-Hoaglin's modified z cutoff) —
    detect_mad's per-series screen transplanted to the calendar, the
    "how many bad days did this stream have?" scalar an SRE reads
    first.

    Exactness: median and MAD are G37's lower-rank statistics (exact
    ints), and the 3.5 * 1.4826 threshold compares as the EXACT
    integer inequality 10000*|x - med| > 51891*mad — no float enters
    the decision, so the flag set is bit-stable by construction.
    mad = 0 flags every day with x != med (the degenerate-scale
    convention, documented and oracle-shared).

    Scale shape: A36's bounded (type, day) exchange + per-type
    finalize."""

    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        x = np.sort(np.asarray(group.column("sum(x)"),
                               dtype=np.int64))
        n = int(x.shape[0])
        med = int(x[(n + 1) // 2 - 1])
        dev = np.sort(np.abs(x - med))
        mad = int(dev[(n + 1) // 2 - 1])
        flagged = int((10000 * np.abs(x - med) > 51891 * mad).sum())
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([n], type=pa.int64()),
            "med_cents": pa.array([med], type=pa.int64()),
            "mad_cents": pa.array([mad], type=pa.int64()),
            "n_flagged": pa.array([flagged], type=pa.int64()),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- G42 ----
def g42_activity_hist(sf_dir: str):
    """G42 — the user-activity distribution: how many users fall in
    each power-of-two event-count bucket (bucket = floor(log2(n)),
    computed EXACTLY via the frexp exponent / powers-table join, never
    a float log) — the "is engagement head-heavy?" histogram next to
    G29's HHI scalar, and the skew evidence behind the salted-key
    discipline the engine's exchanges assume.

    Scale shape: per-block (user, count) partials, one user-keyed
    exchange, a per-block bucket histogram collapse, one tiny bounded
    exchange on the <= 64 bucket keys."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["user_id"]).aggregate([([], "count_all")])
        return pa.table({"user_id": g.column("user_id"),
                         "n": pc.cast(g.column("count_all"),
                                      pa.int64())})

    per_user = (ds.map_batches(partial, batch_format="pyarrow",
                               zero_copy_batch=True)
                .groupby("user_id").aggregate(Sum("n", alias_name="n")))

    def hist(batch: pa.Table) -> pa.Table:
        n = np.asarray(batch.column("n"), dtype=np.int64)
        bucket = (np.frexp(n.astype(np.float64))[1] - 1).astype(np.int64)
        uniq, cnt = np.unique(bucket, return_counts=True)
        return pa.table({
            "bucket": pa.array(uniq, type=pa.int64()),
            "n_users": pa.array(cnt.astype(np.int64), type=pa.int64()),
        })

    return (per_user.map_batches(hist, batch_format="pyarrow")
            .groupby("bucket").aggregate(Sum("n_users",
                                             alias_name="n_users")))


# ---------------------------------------------------------------- Q25 ----
def q25_waterfill_allocation(sf_dir: str):
    """Q25 — water-filling token allocation: distribute a training
    budget of HALF the corpus' words across sources under a common
    per-source cap — alloc_s = min(n_s, cap) with the LARGEST integer
    cap whose total fits the budget (the fair-allocation dual of Q24's
    sqrt upsampling: Q24 reweights, this truncates heads so tails
    survive intact).  Leftover = budget - sum(alloc) (< number of
    uncapped sources by construction) is reported, never silently
    spread.

    Exactness: word counts exact ints; the cap solves the piecewise-
    linear fit by the prefix-sum walk (sorted ascending), all integer
    arithmetic; no floats anywhere in the output.

    Scale shape: ONE bounded per-source word-count exchange +
    single-group widen over the tens-of-sources table."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(text, " ")
        flat = pc.list_flatten(words)
        keep = pc.not_equal(flat, "")
        src_of = (batch.column("source").combine_chunks()
                  if isinstance(batch.column("source"), pa.ChunkedArray)
                  else batch.column("source")).take(
                      pc.list_parent_indices(words))
        t = pa.table({"source": src_of.filter(keep)})
        g = t.group_by(["source"]).aggregate([([], "count_all")])
        return pa.table({"source": g.column("source"),
                         "n": pc.cast(g.column("count_all"),
                                      pa.int64())})

    counts = (ds.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby("source").aggregate(Sum("n", alias_name="n")))

    def widen(group: pa.Table) -> pa.Table:
        src = group.column("source").to_pylist()
        n = [int(v) for v in group.column("n").to_pylist()]
        order = sorted(range(len(src)), key=lambda i: (n[i], src[i]))
        total = sum(n)
        budget = total // 2
        m = len(n)
        # prefix walk: largest i with P_i + (m-i)*a_i <= budget
        cap = budget // m if m else 0
        prefix = 0
        for idx, i in enumerate(order):
            remaining = m - idx
            # cap candidate if every remaining source is capped here
            cand = (budget - prefix) // remaining
            if cand <= n[i]:
                cap = cand
                break
            prefix += n[i]
        else:
            cap = n[order[-1]] if m else 0   # budget >= total
        alloc = [min(v, cap) for v in n]
        leftover = budget - sum(alloc)
        out_order = sorted(range(len(src)), key=lambda i: src[i])
        return pa.table({
            "source": pa.array([src[i] for i in out_order],
                               type=pa.string()),
            "n_words": pa.array([n[i] for i in out_order],
                                type=pa.int64()),
            "alloc": pa.array([alloc[i] for i in out_order],
                              type=pa.int64()),
            "cap": pa.array([cap] * m, type=pa.int64()),
            "leftover": pa.array([leftover] * m, type=pa.int64()),
        })

    return counts.repartition(1).map_batches(widen, batch_format="pyarrow")


# ---------------------------------------------------------------- G43 ----
def g43_trimean(sf_dir: str):
    """G43 — Tukey's trimean per event type: (Q1 + 2*median + Q3) / 4
    over quantized cents, the classic robust center that (unlike the
    plain median) still feels the shoulders of the distribution.
    Quartiles are the exact LOWER quantiles (smallest v with cumulative
    count >= ceil(q*n)) read off G22's additive cent histograms —
    ``trimean_x4`` is the exact integer q1 + 2*q2 + q3; the float
    trimean is ONE pinned division by 4.0.  Plan: ``_cent_hist``."""
    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        v = np.asarray(group.column("v100"), dtype=np.int64)
        c = np.asarray(group.column("n"), dtype=np.int64)
        cum = np.cumsum(c)
        total = int(cum[-1])
        qv = []
        for q4 in (1, 2, 3):
            k = -(-q4 * total // 4)          # ceil(q4*n/4), exact int
            qv.append(int(v[int(np.searchsorted(cum, max(k, 1)))]))
        x4 = qv[0] + 2 * qv[1] + qv[2]
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n": pa.array([total], type=pa.int64()),
            "q1_cents": pa.array([qv[0]], type=pa.int64()),
            "q2_cents": pa.array([qv[1]], type=pa.int64()),
            "q3_cents": pa.array([qv[2]], type=pa.int64()),
            "trimean_x4": pa.array([x4], type=pa.int64()),
            "trimean_cents": pa.array([float(x4) / 4.0],
                                      type=pa.float64()),
        })

    return _cent_hist(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- W53 ----
def w53_peak_hour_share(sf_dir: str):
    """W53 — peak-hour concentration per event type: the UTC hour with
    the most events, its count, and its share of the type's total —
    W34's full 24-hour profile reduced to the one number a scheduler or
    anomaly baseline wants ("42% of errors land in hour 03").  Ties
    break to the SMALLEST hour.  Counts exact; share is ONE pinned
    division.  Plan: ``_hour_counts``, W34's grid."""
    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        h = np.asarray(group.column("hour"), dtype=np.int64)
        c = np.asarray(group.column("n"), dtype=np.int64)
        total = int(c.sum())
        best = int(np.argmax(c))             # ties -> smallest hour
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "total_n": pa.array([total], type=pa.int64()),
            "peak_hour": pa.array([int(h[best])], type=pa.int64()),
            "peak_n": pa.array([int(c[best])], type=pa.int64()),
            "peak_share": pa.array([float(int(c[best])) / float(total)],
                                   type=pa.float64()),
        })

    return _hour_counts(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- G44 ----
def g44_simpson_day(sf_dir: str):
    """G44 — daily Simpson concentration of event types: the exact
    probability that two random events drawn (without replacement)
    from one day share a type — num = sum_t c_t*(c_t - 1), den =
    n*(n-1).  The day-granular twin of G29's Herfindahl (which squares
    shares); the without-replacement form stays a ratio of exact ints.
    NULL probability when n < 2.  Plan: ``_daily_counts``."""
    def per_day(batch: pa.Table) -> pa.Table:
        c = np.asarray(batch.column("n"), dtype=np.int64)
        t = pa.table({
            "day": batch.column("day"),
            "n": pa.array(c, type=pa.int64()),
            "num": pa.array(c * (c - 1), type=pa.int64()),
        })
        g = t.group_by(["day"]).aggregate([("n", "sum"), ("num", "sum")])
        n = np.asarray(g.column("n_sum"), dtype=np.int64)
        num = np.asarray(g.column("num_sum"), dtype=np.int64)
        den = n * (n - 1)
        ok = n >= 2
        p = np.zeros(n.shape[0], dtype=np.float64)
        np.divide(num.astype(np.float64), den.astype(np.float64),
                  out=p, where=ok)
        return pa.table({
            "day": g.column("day"),
            "n": pa.array(n, type=pa.int64()),
            "simpson_num": pa.array(num, type=pa.int64()),
            "simpson_den": pa.array(den, type=pa.int64()),
            "p_same_type": pa.array(p, type=pa.float64(), mask=~ok),
        })

    return _daily_counts(sf_dir, per_day)


# ---------------------------------------------------------------- G45 ----
def g45_peak_to_median(sf_dir: str):
    """G45 — peak-to-typical daily load per event type: max daily
    count over the lower-median daily count, across the type's
    OBSERVED days (days with >= 1 event) — the capacity-planning ratio
    ("size for 3x the typical day") and a skew alarm when it
    explodes.  Counts and the median exact ints; ONE pinned division.
    Plan: ``_daily_counts``."""
    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        c = np.sort(np.asarray(group.column("n"), dtype=np.int64))
        nd = c.shape[0]
        med = int(c[(nd + 1) // 2 - 1])
        pk = int(c[-1])
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([nd], type=pa.int64()),
            "peak_daily": pa.array([pk], type=pa.int64()),
            "median_daily": pa.array([med], type=pa.int64()),
            "peak_to_median": pa.array([float(pk) / float(med)],
                                       type=pa.float64()),
        })

    return _daily_counts(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- Q28 ----
def q28_source_reweight(sf_dir: str):
    """Q28 — uniform-mixture importance weights per source: the factor
    w = N / (n_sources * n_src) that re-weights source-s examples so
    every source contributes equally to the training mixture (w > 1
    up-weights rare sources).  The weight table a Q13-style mixture
    sampler consumes when the target is uniform.  Counts exact; the
    weight is ONE pinned division of exact ints.

    Scale shape: per-block source-count partials, one bounded
    exchange, single-block widen for the global N / n_sources."""
    ds = _read(sf_dir, "documents", ["source"])

    def partial(batch: pa.Table) -> pa.Table:
        g = (pa.table({"source": batch.column("source"),
                       "one": pa.array(np.ones(batch.num_rows,
                                               dtype=np.int64))})
             .group_by(["source"]).aggregate([("one", "sum")]))
        return pa.table({"source": g.column("source"),
                         "n_docs": g.column("one_sum").cast(pa.int64())})

    counts = (ds.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby("source").sum("n_docs"))

    def widen(batch: pa.Table) -> pa.Table:
        n = np.asarray(batch.column("sum(n_docs)"), dtype=np.int64)
        total = int(n.sum())
        k = n.shape[0]
        w = np.zeros(k, dtype=np.float64)
        np.divide(float(total), (n * k).astype(np.float64), out=w,
                  where=n > 0)
        return pa.table({
            "source": batch.column("source"),
            "n_docs": pa.array(n, type=pa.int64()),
            "n_total": pa.array([total] * k, type=pa.int64()),
            "n_sources": pa.array([k] * k, type=pa.int64()),
            "weight": pa.array(w, type=pa.float64()),
        })

    # the widen needs every source row together: the counts relation is
    # bounded by the source domain, so one block is safe at any scale
    return counts.repartition(1).map_batches(widen,
                                             batch_format="pyarrow")


# ---------------------------------------------------------------- G46 ----
def g46_bowley_by_type(sf_dir: str):
    """G46 — Bowley skewness + quartile coefficient of dispersion per
    event type, read off G43's additive cent histograms: skew =
    (q1 + q3 - 2*q2)/(q3 - q1) and qcd = (q3 - q1)/(q3 + q1) — the
    robust shape pair for money-like columns where G14's moment skew
    chases single whales.  Quartiles exact lower order statistics;
    each ratio ONE split-double division (NULL on zero denominators).
    Plan: ``_cent_hist``."""
    from anomalydetection_ray.stages.detectors import _split_double

    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        v = np.asarray(group.column("v100"), dtype=np.int64)
        c = np.asarray(group.column("n"), dtype=np.int64)
        cum = np.cumsum(c)
        total = int(cum[-1])
        qv = [int(v[int(np.searchsorted(cum,
                                        max((q4 * total + 3) // 4, 1)))])
              for q4 in (1, 2, 3)]
        num_s = qv[0] + qv[2] - 2 * qv[1]
        den_s = qv[2] - qv[0]
        den_q = qv[2] + qv[0]
        skew = [_split_double(num_s) / _split_double(den_s)] \
            if den_s > 0 else [None]
        qcd = [_split_double(den_s) / _split_double(den_q)] \
            if den_q != 0 else [None]
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n": pa.array([total], type=pa.int64()),
            "q1_cents": pa.array([qv[0]], type=pa.int64()),
            "q2_cents": pa.array([qv[1]], type=pa.int64()),
            "q3_cents": pa.array([qv[2]], type=pa.int64()),
            "bowley_skew": pa.array(skew, type=pa.float64()),
            "qcd": pa.array(qcd, type=pa.float64()),
        })

    return _cent_hist(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- Q29 ----
def q29_shipping_priority(sf_dir: str, segment: str = "BUILDING",
                          cutoff: str = "1998-06-01", k: int = 10):
    """Q29 — TPC-H Q3-shaped shipping priority: top-``k`` unshipped
    orders by revenue for one market segment — customers in ``segment``,
    orders placed before ``cutoff``, lineitems shipping after it;
    revenue = sum(l_extendedprice * (1 - l_discount)) per order.  The
    classic 3-table join + grouped aggregate + top-k pipeline.

    Exactness: price and discount are 2-decimal TPC-H values, so
    p100 = round(price*100) and d100 = round(disc*100) are exact ints
    and revenue*10000 = sum(p100 * (100 - d100)) is an exact int64;
    the float ``revenue`` is ONE pinned split-double / 1e4.

    Scale shape: two co-partitioned exchanges (orders⋈customer on
    custkey, lineitem⋈orders on orderkey — stages/join.py, no
    broadcast of a large side), per-batch revenue partials, a small
    per-order groupby, then the block-pruned top-k (no global sort)."""
    import pyarrow.compute as pc

    from anomalydetection_ray.stages.detectors import _split_double
    from anomalydetection_ray.stages.join import copartition_attach
    from anomalydetection_ray.stages.topk import topk

    cut = np.datetime64(cutoff, "us").astype("int64")

    def _in_segment(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column("c_mktsegment"),
                                     segment))

    cust = (_read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
            .map_batches(_in_segment, batch_format="pyarrow",
                         zero_copy_batch=True))
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])

    def _before(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch.column("o_orderdate").cast(pa.int64()))
        return batch.filter(pa.array(ts < cut))

    orders = orders.map_batches(_before, batch_format="pyarrow",
                                zero_copy_batch=True)

    def _drop_null(col: str):
        def f(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_valid(batch.column(col)))
        return f

    # orders ⋈ customer: attach the segment tag, keep matching orders
    o_seg = copartition_attach(
        orders, cust, left_on="o_custkey", right_on="c_custkey",
        payload_cols=["c_mktsegment"]).map_batches(
            _drop_null("c_mktsegment"), batch_format="pyarrow",
            zero_copy_batch=True)

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_shipdate", "l_extendedprice",
                "l_discount"])

    def _after(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch.column("l_shipdate").cast(pa.int64()))
        return batch.filter(pa.array(ts > cut))

    li = li.map_batches(_after, batch_format="pyarrow",
                        zero_copy_batch=True)
    joined = copartition_attach(
        li, o_seg, left_on="l_orderkey", right_on="o_orderkey",
        payload_cols=["o_orderdate"]).map_batches(
            _drop_null("o_orderdate"), batch_format="pyarrow",
            zero_copy_batch=True)

    def partial(batch: pa.Table) -> pa.Table:
        p = np.asarray(batch.column("l_extendedprice"),
                       dtype=np.float64)
        d = np.asarray(batch.column("l_discount"), dtype=np.float64)
        p100 = np.floor(p * 100.0 + 0.5).astype(np.int64)
        d100 = np.floor(d * 100.0 + 0.5).astype(np.int64)
        t = pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "o_orderdate": batch.column("o_orderdate"),
            "rev": pa.array(p100 * (100 - d100), type=pa.int64()),
        })
        g = t.group_by(["l_orderkey", "o_orderdate"]).aggregate(
            [("rev", "sum")])
        return pa.table({"l_orderkey": g.column("l_orderkey"),
                         "o_orderdate": g.column("o_orderdate"),
                         "rev": g.column("rev_sum").cast(pa.int64())})

    per_order = (joined.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True)
                 .groupby(["l_orderkey", "o_orderdate"]).sum("rev"))

    def widen(batch: pa.Table) -> pa.Table:
        rev = np.asarray(batch.column("sum(rev)"), dtype=np.int64)
        revenue = np.array([_split_double(int(r)) / 10000.0
                            for r in rev], dtype=np.float64)
        return pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "o_orderdate": batch.column("o_orderdate"),
            "rev_x10k": pa.array(rev, type=pa.int64()),
            "revenue": pa.array(revenue, type=pa.float64()),
        })

    wide = per_order.map_batches(widen, batch_format="pyarrow")
    return topk(wide, k, [("rev_x10k", "descending"),
                          ("o_orderdate", "ascending"),
                          ("l_orderkey", "ascending")])


# ---------------------------------------------------------------- W57 ----
def w57_burstiness(sf_dir: str):
    """W57 — Goh-Barabási burstiness parameter per event type over the
    ZERO-FILLED daily count series: B = (sigma - mu) / (sigma + mu) in
    [-1, 1] — B ~ -1 periodic, ~0 Poisson, -> 1 extremely bursty.  The
    bounded-range companion of G31's dispersion index (D is unbounded;
    B is comparable across types with different rates).

    Exactness: G31's zero-fill identities give exact int64 T (total)
    and Q (sum of squared daily counts) over the global day span n;
    var_num = n*Q - T^2 is an exact nonnegative int.  The float tail
    is pinned: mu = split(T)/n, sigma = sqrt(split(var_num))/n,
    B = (sigma - mu)/(sigma + mu) — each a single IEEE op replayed
    verbatim by the oracle.

    Scale shape: per-block (type, day) count partials, ONE bounded
    exchange, single-group widen over the bounded grid (G31's shape)."""

    from anomalydetection_ray.stages.detectors import _split_double


    def widen(group: pa.Table) -> pa.Table:
        import math

        et = group.column("event_type").to_pylist()
        day = np.asarray(group.column("day"), dtype=np.int64)
        n = np.asarray(group.column("n"), dtype=np.int64)
        nd = int(day.max() - day.min() + 1)
        types = sorted(set(et))
        out_t, out_tot, out_v, out_b = [], [], [], []
        for t in types:
            sel = np.asarray([e == t for e in et], dtype=bool)
            tot = int(n[sel].sum())
            q = int((n[sel] * n[sel]).sum())
            var_num = nd * q - tot * tot
            out_t.append(t)
            out_tot.append(tot)
            out_v.append(var_num)
            if tot > 0:
                mu = _split_double(tot) / float(nd)
                sig = math.sqrt(_split_double(var_num)) / float(nd)
                out_b.append((sig - mu) / (sig + mu))
            else:
                out_b.append(None)
        return pa.table({
            "event_type": pa.array(out_t, type=pa.string()),
            "n_days": pa.array([nd] * len(types), type=pa.int64()),
            "total": pa.array(out_tot, type=pa.int64()),
            "var_num": pa.array(out_v, type=pa.int64()),
            "burstiness": pa.array(out_b, type=pa.float64(),
                                   from_pandas=True),
        })

    return _daily_counts(sf_dir, widen)


# ---------------------------------------------------------------- G47 ----
def g47_outlier_days(sf_dir: str):
    """G47 — Tukey-fence outlier days per event type over the OBSERVED
    daily counts: with q1/q3 the exact lower quartiles of the count
    multiset, a day is a low/high outlier when its count falls outside
    [q1 - 1.5*IQR, q3 + 1.5*IQR] — the box-plot whisker census
    ("how many freak days did this stream have?").

    Exactness: ENTIRELY integer — the fence compares are scaled by 4
    (4*c < 4*q1 - 6*(q3 - q1), 4*c > 4*q3 + 6*(q3 - q1)), so there is
    not a single float in the operator.

    Scale shape: per-block (type, day) count partials, ONE bounded
    exchange, per-type finalize over <= grid-days rows."""

    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        c = np.sort(np.asarray(group.column("n"), dtype=np.int64))
        m = int(c.shape[0])
        q1 = int(c[(1 * m + 3) // 4 - 1])
        q3 = int(c[(3 * m + 3) // 4 - 1])
        iqr6 = 6 * (q3 - q1)
        n_low = int(np.count_nonzero(4 * c < 4 * q1 - iqr6))
        n_high = int(np.count_nonzero(4 * c > 4 * q3 + iqr6))
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days_observed": pa.array([m], type=pa.int64()),
            "q1_daily": pa.array([q1], type=pa.int64()),
            "q3_daily": pa.array([q3], type=pa.int64()),
            "n_low_days": pa.array([n_low], type=pa.int64()),
            "n_high_days": pa.array([n_high], type=pa.int64()),
        })

    return _daily_counts(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- Q30 ----
def q30_local_supplier_volume(sf_dir: str, region: str = "ASIA",
                              lo: str = "1996-01-01",
                              hi: str = "1997-01-01"):
    """Q30 — TPC-H Q5-shaped local supplier volume: revenue per nation
    from lineitems where the CUSTOMER and the SUPPLIER sit in the same
    nation, nations restricted to one region, orders in a one-year
    window — the canonical 6-table star join.

    Exactness: Q29's cent*percent quantization (revenue*10^4 exact
    int64 sums; ONE split-double / 1e4 per nation).

    Scale shape: three co-partitioned exchanges on the three distinct
    large keys (orderkey, custkey, suppkey — stages/join.py; orders
    pre-filtered by date so the widest exchange carries only the
    window), nation/region broadcast as plain dict closures (J1
    discipline — 25/5 rows), bounded final groupby on nation."""
    import pyarrow.compute as pc

    from anomalydetection_ray.stages.detectors import _split_double
    from anomalydetection_ray.stages.join import copartition_attach

    lo_us = np.datetime64(lo, "us").astype("int64")
    hi_us = np.datetime64(hi, "us").astype("int64")

    nation = _read(sf_dir, "nation").take_all()      # 25 rows
    regions = _read(sf_dir, "region").take_all()     # 5 rows
    rkey = {r["r_regionkey"]: r["r_name"] for r in regions}
    in_region = {n["n_nationkey"] for n in nation
                 if rkey[n["n_regionkey"]] == region}
    n_name = {n["n_nationkey"]: n["n_name"] for n in nation}

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])

    def _window(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch.column("o_orderdate").cast(pa.int64()))
        return batch.filter(pa.array((ts >= lo_us) & (ts < hi_us)))

    orders = orders.map_batches(_window, batch_format="pyarrow",
                                zero_copy_batch=True)

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice",
                "l_discount"])
    # lineitem ⋈ orders (orderkey): attach o_custkey, drop non-window
    j1 = copartition_attach(li, orders, left_on="l_orderkey",
                            right_on="o_orderkey",
                            payload_cols=["o_custkey"])

    def _has(col: str):
        def f(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_valid(batch.column(col)))
        return f

    j1 = j1.map_batches(_has("o_custkey"), batch_format="pyarrow",
                        zero_copy_batch=True)
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    j2 = copartition_attach(j1, cust, left_on="o_custkey",
                            right_on="c_custkey",
                            payload_cols=["c_nationkey"])
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    j3 = copartition_attach(j2, supp, left_on="l_suppkey",
                            right_on="s_suppkey",
                            payload_cols=["s_nationkey"])

    in_arr = np.array(sorted(in_region), dtype=np.int64)

    def partial(batch: pa.Table) -> pa.Table:
        cn = np.asarray(batch.column("c_nationkey").cast(pa.int64()))
        sn = np.asarray(batch.column("s_nationkey").cast(pa.int64()))
        keep = ((cn == sn)
                & np.isin(cn, in_arr)
                & pc.is_valid(batch.column("c_nationkey")).to_numpy(
                    zero_copy_only=False)
                & pc.is_valid(batch.column("s_nationkey")).to_numpy(
                    zero_copy_only=False))
        b = batch.filter(pa.array(keep))
        if b.num_rows == 0:
            return pa.table({
                "nationkey": pa.array([], type=pa.int64()),
                "rev": pa.array([], type=pa.int64())})
        p = np.asarray(b.column("l_extendedprice"), dtype=np.float64)
        d = np.asarray(b.column("l_discount"), dtype=np.float64)
        p100 = np.floor(p * 100.0 + 0.5).astype(np.int64)
        d100 = np.floor(d * 100.0 + 0.5).astype(np.int64)
        t = pa.table({
            "nationkey": b.column("c_nationkey").cast(pa.int64()),
            "rev": pa.array(p100 * (100 - d100), type=pa.int64())})
        g = t.group_by(["nationkey"]).aggregate([("rev", "sum")])
        return pa.table({"nationkey": g.column("nationkey"),
                         "rev": g.column("rev_sum").cast(pa.int64())})

    agg = (j3.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("nationkey").sum("rev"))

    nk = np.array(sorted(n_name), dtype=np.int64)
    nm = np.array([n_name[k] for k in nk], dtype=object)

    def widen(batch: pa.Table) -> pa.Table:
        key = np.asarray(batch.column("nationkey"), dtype=np.int64)
        rev = np.asarray(batch.column("sum(rev)"), dtype=np.int64)
        pos = np.searchsorted(nk, key)
        revenue = np.array([_split_double(int(r)) / 10000.0
                            for r in rev], dtype=np.float64)
        return pa.table({
            "n_name": pa.array(nm[pos], type=pa.string()),
            "rev_x10k": pa.array(rev, type=pa.int64()),
            "revenue": pa.array(revenue, type=pa.float64()),
        })

    return agg.map_batches(widen, batch_format="pyarrow")


# ------------------------------------------------------------ A95/A96 ----
def _spectral_line(sf_dir: str, period: int, unit_us: int,
                   power_col: str):
    """Shared engine for A95/A96 — the DFT power at ONE known period of
    a type's event-arrival series, computed the cheap exact way: when
    the period divides the time grid into ``period`` residue classes,
    the Fourier sums collapse to per-residue COUNT sums (exact ints),
    and the whole float tail is a ``period``-term ordered fold of
    count * cos / count * sin plus x*x + y*y.  Zero-filled bins are
    free (zeros add nothing to residue sums).  Plan: ``_events_grid``
    over the (type, residue) grid, per-type finalize."""
    import math

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table({"event_type": batch.column("event_type"),
                         "r": pa.array((_ts_us(batch) // unit_us) % period),
                         "n": _ones(batch.num_rows)})

    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        r = np.asarray(group.column("r"), dtype=np.int64)
        n = np.asarray(group.column("n"), dtype=np.int64)
        s = np.zeros(period, dtype=np.int64)
        s[r] = n
        total = int(s.sum())
        # pinned fold: ascending residue, 0.0 seed, one multiply per
        # term (replayed by the oracle's list_reduce)
        x = 0.0
        y = 0.0
        for k in range(period):
            x = x + float(int(s[k])) * math.cos(
                2.0 * math.pi * float(k) / float(period))
            y = y + float(int(s[k])) * math.sin(
                2.0 * math.pi * float(k) / float(period))
        argmax = int(np.argmax(s))  # first max, ties to smallest r
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "total": pa.array([total], type=pa.int64()),
            "r_peak": pa.array([argmax], type=pa.int64()),
            "cos_sum": pa.array([x], type=pa.float64()),
            "sin_sum": pa.array([y], type=pa.float64()),
            power_col: pa.array([x * x + y * y], type=pa.float64()),
        })

    return _events_grid(sf_dir, ["event_type", "ts"], derive,
                        ["event_type", "r"], ["n"], _by_type(finalize))


def a95_weekly_spectrum(sf_dir: str):
    """A95 — weekly spectral line per event type: the DFT power of the
    arrival series at period 7 days — the direct "is there a weekly
    rhythm?" detector (large power7 = strong weekday/weekend cycle),
    complementing W49's variance-ratio seasonal strength with the
    classical Fourier readout.  Exact per-weekday-residue counts; the
    float tail is a pinned 7-term fold."""
    return _spectral_line(sf_dir, 7, 86_400_000_000, "power7")


def a96_diurnal_spectrum(sf_dir: str):
    """A96 — diurnal spectral line per event type: the DFT power of
    the arrival series at period 24 hours (hour-of-day residues) — the
    "does this stream breathe with the day?" detector next to G35's
    hourly entropy.  Exact per-hour counts; pinned 24-term fold."""
    return _spectral_line(sf_dir, 24, 3_600_000_000, "power24")


# ---------------------------------------------------------------- Q31 ----
def q31_promo_revenue_share(sf_dir: str, lo: str = "1996-03-01",
                            hi: str = "1996-04-01"):
    """Q31 — TPC-H Q14-shaped promotion effect: the share of one
    month's revenue that came from parts of type 'PROMO' —
    100 * promo_rev / total_rev, the single-scalar marketing KPI.

    Exactness: Q29's cent*percent revenue quantization keeps both
    sums exact int64; the share is 100.0 * split(promo) / split(total)
    (two pinned IEEE ops).

    Scale shape: lineitem is date-filtered at the map side BEFORE the
    one co-partitioned exchange on partkey (stages/join.py); the final
    aggregate collapses to a single row of int partials."""
    from anomalydetection_ray.stages.detectors import _split_double
    from anomalydetection_ray.stages.join import copartition_attach

    lo_us = np.datetime64(lo, "us").astype("int64")
    hi_us = np.datetime64(hi, "us").astype("int64")

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_shipdate", "l_extendedprice",
                "l_discount"])

    def _window(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch.column("l_shipdate").cast(pa.int64()))
        return batch.filter(pa.array((ts >= lo_us) & (ts < hi_us)))

    li = li.map_batches(_window, batch_format="pyarrow",
                        zero_copy_batch=True)
    parts = _read(sf_dir, "part", ["p_partkey", "p_type"])
    joined = copartition_attach(li, parts, left_on="l_partkey",
                                right_on="p_partkey",
                                payload_cols=["p_type"])

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        p = np.asarray(batch.column("l_extendedprice"),
                       dtype=np.float64)
        d = np.asarray(batch.column("l_discount"), dtype=np.float64)
        rev = (np.floor(p * 100.0 + 0.5).astype(np.int64)
               * (100 - np.floor(d * 100.0 + 0.5).astype(np.int64)))
        promo = pc.fill_null(
            pc.equal(batch.column("p_type"), "PROMO"),
            False).to_numpy(zero_copy_only=False)
        return pa.table({
            "_one": pa.array([0], type=pa.int64()),
            "promo_rev": pa.array([int(rev[promo].sum())],
                                  type=pa.int64()),
            "total_rev": pa.array([int(rev.sum())], type=pa.int64()),
        })

    agg = (joined.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
           .groupby("_one").sum(["promo_rev", "total_rev"]))

    def widen(batch: pa.Table) -> pa.Table:
        p = int(batch.column("sum(promo_rev)")[0].as_py())
        t = int(batch.column("sum(total_rev)")[0].as_py())
        share = ((100.0 * _split_double(p)) / _split_double(t)
                 if t > 0 else None)
        return pa.table({
            "promo_rev_x10k": pa.array([p], type=pa.int64()),
            "total_rev_x10k": pa.array([t], type=pa.int64()),
            "promo_share": pa.array([share], type=pa.float64(),
                                    from_pandas=True),
        })

    return agg.map_batches(widen, batch_format="pyarrow")


# ---------------------------------------------------------------- Q33 ----
def q33_late_shipment_census(sf_dir: str, lo: str = "1996-01-01",
                             hi: str = "1996-07-01",
                             grace_days: int = 90):
    """Q33 — TPC-H Q4-shaped order priority checking: per order
    priority, how many orders placed in the window had AT LEAST ONE
    lineitem shipping more than ``grace_days`` after the order date —
    the EXISTS-with-inequality semi-join shape (J8's equality semi
    join can't express the predicate).

    Scale shape: orders are window-filtered map-side, ONE
    co-partitioned exchange on orderkey attaches (date, priority) to
    lineitems; each output block is exactly one key partition, so the
    per-block distinct-late-orderkey compaction is globally correct
    and only bounded (priority, count) partials reach the final
    exchange.  Exact integer day compare, exact counts."""
    from anomalydetection_ray.stages.join import copartition_attach

    lo_us = np.datetime64(lo, "us").astype("int64")
    hi_us = np.datetime64(hi, "us").astype("int64")
    grace_us = int(grace_days) * 86_400_000_000

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])

    def _window(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch.column("o_orderdate").cast(pa.int64()))
        return batch.filter(pa.array((ts >= lo_us) & (ts < hi_us)))

    orders = orders.map_batches(_window, batch_format="pyarrow",
                                zero_copy_batch=True)
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    joined = copartition_attach(
        li, orders, left_on="l_orderkey", right_on="o_orderkey",
        payload_cols=["o_orderdate", "o_orderpriority"])

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ok = pc.is_valid(batch.column("o_orderdate")).to_numpy(
            zero_copy_only=False)
        b = batch.filter(pa.array(ok))
        if b.num_rows == 0:
            return pa.table({
                "o_orderpriority": pa.array([], type=pa.string()),
                "n_late_orders": pa.array([], type=pa.int64())})
        ship = np.asarray(b.column("l_shipdate").cast(pa.int64()))
        odate = np.asarray(b.column("o_orderdate").cast(pa.int64()))
        late = ship > odate + grace_us
        okey = np.asarray(b.column("l_orderkey"), dtype=np.int64)[late]
        prio = np.asarray(b.column("o_orderpriority"))[late]
        # batch == one orderkey partition (copartition_attach emits one
        # block per key partition; batch_size=None keeps blocks whole),
        # so a within-batch distinct is a global distinct
        _, first = np.unique(okey, return_index=True)
        t = pa.table({
            "o_orderpriority": pa.array(prio[first], type=pa.string()),
            "one": pa.array(np.ones(first.shape[0], dtype=np.int64)),
        })
        g = t.group_by(["o_orderpriority"]).aggregate([("one", "sum")])
        return pa.table({
            "o_orderpriority": g.column("o_orderpriority"),
            "n_late_orders": g.column("one_sum").cast(pa.int64())})

    return (joined.map_batches(partial, batch_format="pyarrow",
                               batch_size=None, zero_copy_batch=True)
            .groupby("o_orderpriority").sum("n_late_orders")
            .map_batches(lambda b: pa.table({
                "o_orderpriority": b.column("o_orderpriority"),
                "n_late_orders": b.column("sum(n_late_orders)")}),
                batch_format="pyarrow"))


# ---------------------------------------------------------------- Q34 ----
def q34_large_volume_orders(sf_dir: str, min_qty: int = 150,
                            k: int = 20):
    """Q34 — TPC-H Q18-shaped large-volume orders: the top-``k``
    orders by total quantity among those exceeding ``min_qty`` units,
    with the ordering customer attached — the HAVING-on-a-grouped-sum
    + top-k shape.

    Exactness: quantities are integral; sums/compares exact int64.

    Scale shape: per-batch (orderkey, qty) partials collapse before
    ONE groupby exchange on orderkey; the HAVING filter prunes to the
    rare whales BEFORE the customer attach (co-partitioned exchange on
    the tiny survivor set) and the block-pruned top-k."""
    import pyarrow.compute as pc

    from anomalydetection_ray.stages.join import copartition_attach
    from anomalydetection_ray.stages.topk import topk

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "qty": pc.cast(batch.column("l_quantity"), pa.int64()),
        })
        g = t.group_by(["l_orderkey"]).aggregate([("qty", "sum")])
        return pa.table({"l_orderkey": g.column("l_orderkey"),
                         "qty": g.column("qty_sum").cast(pa.int64())})

    per_order = (li.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)
                 .groupby("l_orderkey").sum("qty"))

    def having(batch: pa.Table) -> pa.Table:
        q = np.asarray(batch.column("sum(qty)"), dtype=np.int64)
        b = batch.filter(pa.array(q > min_qty))
        return pa.table({
            "l_orderkey": b.column("l_orderkey"),
            "total_qty": b.column("sum(qty)").cast(pa.int64())})

    whales = per_order.map_batches(having, batch_format="pyarrow")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])
    wide = copartition_attach(
        whales, orders, left_on="l_orderkey", right_on="o_orderkey",
        payload_cols=["o_custkey", "o_orderdate"])
    return topk(wide, k, [("total_qty", "descending"),
                          ("l_orderkey", "ascending")])


# ---------------------------------------------------------------- G49 ----
def g49_dow_hour_heatmap(sf_dir: str):
    """G49 — the (event_type, day-of-week residue, hour-of-day)
    activity heatmap with each cell's share of its type's total — the
    operational-dashboard grid behind G35's hourly entropy and A95/
    A96's spectral lines (dow = epoch-day % 7, the repo's residue
    convention).  Exact counts; share = ONE pinned division per cell
    over the bounded |types| x 7 x 24 grid.  Plan: ``_events_grid``."""
    from anomalydetection_ray.stages.detectors import _split_double

    def derive(batch: pa.Table) -> pa.Table:
        us = _ts_us(batch)
        return pa.table({"event_type": batch.column("event_type"),
                         "dow": pa.array((us // DAY_US_Q) % 7),
                         "hour": pa.array((us // 3_600_000_000) % 24),
                         "n": _ones(batch.num_rows)})

    def finalize(group: pa.Table) -> pa.Table:
        n = np.asarray(group.column("n"), dtype=np.int64)
        tot = int(n.sum())
        share = np.array([_split_double(int(x)) / _split_double(tot)
                          for x in n], dtype=np.float64)
        return pa.table({
            "event_type": group.column("event_type"),
            "dow": group.column("dow"),
            "hour": group.column("hour"),
            "n": group.column("n"),
            "type_total": pa.array([tot] * group.num_rows,
                                   type=pa.int64()),
            "share": pa.array(share, type=pa.float64()),
        })

    return _events_grid(sf_dir, ["event_type", "ts"], derive,
                        ["event_type", "dow", "hour"], ["n"],
                        _by_type(finalize))


# ---------------------------------------------------------------- C10 ----
def c10_detector_agreement(sf_dir: str):
    """C10 — detector agreement on the calendar: per event type, the
    overlap between A71's robust-MAD daily outliers and G47's Tukey
    fences, both evaluated on the SAME daily cent-total series — the
    alarm-fatigue diagnostic ("do my two robust screens flag the same
    days, or double my pager volume?").  Jaccard of the two flag sets.

    Exactness: both flag rules are EXACT integer inequalities (A71's
    10000*|x-med| > 51891*mad; G47's x4-scaled fences), so n_mad /
    n_tukey / n_both are bit-stable; jaccard = split(both)/split(union)
    is the single float op (NULL when neither rule fires).

    Scale shape: A36's bounded (type, day) exchange + per-type
    finalize over <= grid-days rows."""
    from anomalydetection_ray.stages.detectors import _split_double


    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        x = np.asarray(group.column("sum(x)"), dtype=np.int64)
        n = int(x.shape[0])
        xs = np.sort(x)
        med = int(xs[(n + 1) // 2 - 1])
        dev = np.sort(np.abs(x - med))
        mad = int(dev[(n + 1) // 2 - 1])
        f_mad = 10000 * np.abs(x - med) > 51891 * mad
        q1 = int(xs[(1 * n + 3) // 4 - 1])
        q3 = int(xs[(3 * n + 3) // 4 - 1])
        iqr6 = 6 * (q3 - q1)
        f_tuk = (4 * x < 4 * q1 - iqr6) | (4 * x > 4 * q3 + iqr6)
        n_mad = int(f_mad.sum())
        n_tuk = int(f_tuk.sum())
        n_both = int((f_mad & f_tuk).sum())
        union = n_mad + n_tuk - n_both
        jac = (_split_double(n_both) / _split_double(union)
               if union > 0 else None)
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([n], type=pa.int64()),
            "n_mad": pa.array([n_mad], type=pa.int64()),
            "n_tukey": pa.array([n_tuk], type=pa.int64()),
            "n_both": pa.array([n_both], type=pa.int64()),
            "jaccard": pa.array([jac], type=pa.float64(),
                                from_pandas=True),
        })

    return _daily_cents(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- W60 ----
def w60_conversion_latency(sf_dir: str):
    """W60 — click-to-purchase conversion latency histogram: per
    converting user, the seconds from their FIRST click to their first
    purchase AT OR AFTER that click, bucketed by floor(log2(sec + 1))
    — the funnel-speed distribution behind C9's daily abandonment
    counts (how fast conversions happen, not just whether).

    Exactness: first-click / first-subsequent-purchase are exact
    microsecond minima; sec = diff // 1e6 and the log2 bucket is the
    exact frexp exponent (G42's discipline) — all integer.

    Scale shape: ONE ``_pkey`` exchange (user-partitioned), bounded
    (bucket, n_users) partials, tiny final sum."""
    from anomalydetection_ray.stages.runs import partition_apply

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def kernel(group: pa.Table) -> pa.Table:
        uid = np.asarray(group.column("user_id"), dtype=np.int64)
        ts = np.asarray(group.column("ts").cast(pa.int64()),
                        dtype=np.int64)
        et = np.asarray(group.column("event_type"))
        is_c = et == "click"
        is_p = et == "purchase"
        # vectorized per-user minima via np.minimum.at
        all_u = np.unique(uid)
        big = np.iinfo(np.int64).max
        first_c = np.full(all_u.shape[0], big, dtype=np.int64)
        np.minimum.at(first_c,
                      np.searchsorted(all_u, uid[is_c]), ts[is_c])
        # first purchase >= first_click, per user
        pu = np.searchsorted(all_u, uid[is_p])
        pt = ts[is_p]
        ok = pt >= first_c[pu]
        first_p = np.full(all_u.shape[0], big, dtype=np.int64)
        np.minimum.at(first_p, pu[ok], pt[ok])
        conv = (first_c < big) & (first_p < big)
        sec = (first_p[conv] - first_c[conv]) // 1_000_000
        b = np.zeros(sec.shape[0], dtype=np.int64)
        nz = sec + 1 > 1
        b[nz] = np.frexp((sec[nz] + 1).astype(np.float64))[1] - 1
        uq, c = np.unique(b, return_counts=True)
        return pa.table({
            "bucket": pa.array(uq, type=pa.int64()),
            "n_users": pa.array(c.astype(np.int64), type=pa.int64()),
        })

    return (partition_apply(ds, ["user_id"], kernel, 16)
            .groupby("bucket").sum("n_users")
            .map_batches(lambda b: pa.table({
                "bucket": b.column("bucket"),
                "n_users": b.column("sum(n_users)")}),
                batch_format="pyarrow"))


# ---------------------------------------------------------------- A97 ----
def a97_daily_mase(sf_dir: str):
    """A97 — MASE-style seasonal-naive skill per event type on the
    ZERO-FILLED daily cent-total grid: mean |x_t - x_{t-7}| over mean
    |x_t - x_{t-1}| — below 1 means the weekly-naive forecast beats
    the daily-naive one (a weekly rhythm worth modeling), the
    forecasting-side confirmation of A95/W49.

    Exactness: both absolute-error sums are exact int64 over the dense
    grid (zero-filled via the per-type dense array, bounded span);
    mase = (split(m7)/n7) / (split(m1)/n1) — three pinned IEEE ops.

    Scale shape: G31's bounded (type, day) exchange, single-group
    widen over the bounded grid."""

    from anomalydetection_ray.stages.detectors import _split_double


    def widen(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_pylist()
        day = np.asarray(group.column("day"), dtype=np.int64)
        x = np.asarray(group.column("sum(x)"), dtype=np.int64)
        lo, hi = int(day.min()), int(day.max())
        span = hi - lo + 1
        types = sorted(set(et))
        out = {"event_type": [], "n_days": [], "mae1_num": [],
               "mae7_num": [], "mase": []}
        for t in types:
            sel = np.asarray([e == t for e in et], dtype=bool)
            dense = np.zeros(span, dtype=np.int64)
            dense[day[sel] - lo] = x[sel]
            m1 = int(np.abs(np.diff(dense)).sum())
            m7 = int(np.abs(dense[7:] - dense[:-7]).sum()) \
                if span > 7 else 0
            out["event_type"].append(t)
            out["n_days"].append(span)
            out["mae1_num"].append(m1)
            out["mae7_num"].append(m7)
            if span > 7 and m1 > 0:
                a = _split_double(m7) / float(span - 7)
                b = _split_double(m1) / float(span - 1)
                out["mase"].append(a / b)
            else:
                out["mase"].append(None)
        return pa.table({
            "event_type": pa.array(out["event_type"],
                                   type=pa.string()),
            "n_days": pa.array(out["n_days"], type=pa.int64()),
            "mae1_num": pa.array(out["mae1_num"], type=pa.int64()),
            "mae7_num": pa.array(out["mae7_num"], type=pa.int64()),
            "mase": pa.array(out["mase"], type=pa.float64(),
                             from_pandas=True),
        })

    return _daily_cents(sf_dir, widen)


# ---------------------------------------------------------------- S25 ----
def s25_day_pruned_read(sf_dir: str, offsets: tuple = (5, 10, 20)):
    """S25 — partition-pruned read: events persisted ONCE as
    day-partitioned parquet (hive ``bucket=<day>`` dirs via the S5
    layout protocol), then a 3-day query reads ONLY those partitions'
    files — the predicate-pushdown / prune-at-the-read pattern that
    makes day-ranged queries O(days touched), not O(corpus).  The
    audit emits per-day exact count + cent sum from the pruned read.

    Scale shape: the partitioned write is map-side; the pruned read
    maps 3 partitions' files to 3 independent read units; the audit is
    a bounded 3-row aggregate.  Idempotent + content-fingerprinted
    layout (state/layout.py), so repeat queries reuse the bytes."""
    import os

    import pyarrow.parquet as _pq
    import ray.data

    from anomalydetection_ray.state.layout import (bucket_files,
                                                   persist_bucketed)

    src = f"{sf_dir}/events.parquet"
    # min day from parquet FOOTER row-group statistics — metadata
    # only, zero data bytes read at any corpus size
    md = _pq.ParquetFile(src).metadata
    ts_idx = [md.schema.column(i).name
              for i in range(md.num_columns)].index("ts")
    lo_ts = min(md.row_group(g).column(ts_idx).statistics.min
                for g in range(md.num_row_groups))
    lo = int(np.datetime64(lo_ts, "us").astype("int64")
             // 86_400_000_000)
    days = [lo + o for o in offsets]

    def build(tmp: str) -> None:
        def add_day(batch: pa.Table) -> pa.Table:
            us = np.asarray(batch.column("ts").cast(pa.int64()),
                            dtype=np.int64)
            v = np.asarray(batch.column("value"), dtype=np.float64)
            day = us // 86_400_000_000
            # day kept as an in-file column too: reads that target
            # partition FILES directly (not the hive root) still see it
            return pa.table({
                "event_id": batch.column("event_id"),
                "cents": pa.array(
                    np.floor(v * 100.0 + 0.5).astype(np.int64),
                    type=pa.int64()),
                "day": pa.array(day, type=pa.int64()),
                "bucket": pa.array(day, type=pa.int64()),
            })

        (ray.data.read_parquet(src,
                               columns=["event_id", "ts", "value"])
            .map_batches(add_day, batch_format="pyarrow",
                         zero_copy_batch=True)
            .write_parquet(tmp, partition_cols=["bucket"]))

    layout = persist_bucketed("daypart", src, "by-day", build)
    files = [f for d in days for f in bucket_files(layout, d)]
    back = ray.data.read_parquet(files)  # ONLY the 3 days' bytes

    def audit(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "day": batch.column("day").cast(pa.int64()),
            "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            "cents": batch.column("cents"),
        })
        g = t.group_by(["day"]).aggregate([("one", "sum"),
                                           ("cents", "sum")])
        return pa.table({
            "day": g.column("day"),
            "n": g.column("one_sum").cast(pa.int64()),
            "cents_sum": g.column("cents_sum").cast(pa.int64()),
        })

    return (back.map_batches(audit, batch_format="pyarrow")
            .groupby("day").sum(["n", "cents_sum"])
            .map_batches(lambda b: pa.table({
                "day": b.column("day"),
                "n": b.column("sum(n)"),
                "cents_sum": b.column("sum(cents_sum)")}),
                batch_format="pyarrow"))


# ---------------------------------------------------------------- G52 ----
def g52_order_total_quartiles(sf_dir: str):
    """G52 — order-total quartiles per order priority: the exact lower
    quartiles of o_totalprice (in cents) for each priority class — the
    money-distribution readout on the relational side, G46's histogram
    discipline transplanted from events to orders.

    Exactness: cent histograms additive; quartiles exact order
    statistics read off the merged cumulative counts; IQR exact int.
    No float leaves the operator except none at all — ALL columns are
    integers.

    Scale shape: per-block (priority, cents) count partials, ONE
    bounded exchange (the cent domain of a priced order book), per-
    priority read-off."""
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def hist_batch(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column("o_totalprice"), dtype=np.float64)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        t = pa.table({
            "o_orderpriority": batch.column("o_orderpriority"),
            "cents": pa.array(cents, type=pa.int64()),
            "one": pa.array(np.ones(cents.shape[0], dtype=np.int64)),
        })
        g = t.group_by(["o_orderpriority", "cents"]).aggregate(
            [("one", "sum")])
        return pa.table({
            "o_orderpriority": g.column("o_orderpriority"),
            "cents": g.column("cents"),
            "c": g.column("one_sum").cast(pa.int64())})

    counts = (ds.map_batches(hist_batch, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby(["o_orderpriority", "cents"]).sum("c"))

    def finalize(group: pa.Table) -> pa.Table:
        prio = group.column("o_orderpriority")[0].as_py()
        order = np.argsort(np.asarray(group.column("cents"),
                                      dtype=np.int64))
        v = np.asarray(group.column("cents"), dtype=np.int64)[order]
        c = np.asarray(group.column("sum(c)"), dtype=np.int64)[order]
        cum = np.cumsum(c)
        total = int(cum[-1])
        qv = [int(v[int(np.searchsorted(cum, (q4 * total + 3) // 4))])
              for q4 in (1, 2, 3)]
        return pa.table({
            "o_orderpriority": pa.array([prio], type=pa.string()),
            "n_orders": pa.array([total], type=pa.int64()),
            "q1_cents": pa.array([qv[0]], type=pa.int64()),
            "q2_cents": pa.array([qv[1]], type=pa.int64()),
            "q3_cents": pa.array([qv[2]], type=pa.int64()),
            "iqr_cents": pa.array([qv[2] - qv[0]], type=pa.int64()),
        })

    return counts.groupby("o_orderpriority").map_groups(
        finalize, batch_format="pyarrow")


# ---------------------------------------------------------------- G53 ----
def g53_longest_drought(sf_dir: str):
    """G53 — longest drought per event type: the maximal run of
    consecutive ZERO-event days (and the total zero-day count) within
    the global observation span — the availability/outage readout
    W47's burst runs mirror on the hot side.  ALL-integer.

    Scale shape: G31's bounded (type, day) exchange; the zero-run
    scan happens on the bounded dense grid in a single-group widen."""

    def widen(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_pylist()
        day = np.asarray(group.column("day"), dtype=np.int64)
        lo, hi = int(day.min()), int(day.max())
        span = hi - lo + 1
        types = sorted(set(et))
        out_t, out_z, out_l = [], [], []
        for t in types:
            sel = np.asarray([e == t for e in et], dtype=bool)
            present = np.zeros(span, dtype=bool)
            present[day[sel] - lo] = True
            zero = ~present
            n_zero = int(zero.sum())
            if n_zero:
                # run lengths via padded diff of run boundaries
                padded = np.concatenate(([False], zero, [False]))
                d = np.diff(padded.astype(np.int8))
                runs = np.flatnonzero(d == -1) - np.flatnonzero(d == 1)
                longest = int(runs.max())
            else:
                longest = 0
            out_t.append(t)
            out_z.append(n_zero)
            out_l.append(longest)
        return pa.table({
            "event_type": pa.array(out_t, type=pa.string()),
            "n_days": pa.array([span] * len(types), type=pa.int64()),
            "n_zero_days": pa.array(out_z, type=pa.int64()),
            "longest_drought": pa.array(out_l, type=pa.int64()),
        })

    return _daily_counts(sf_dir, widen)


# ---------------------------------------------------------------- S26 ----
def s26_integrity_audit(sf_dir: str):
    """S26 — referential-integrity audit across the relational star:
    orphaned orders (o_custkey with no customer), orphaned lineitems
    (l_orderkey with no order; l_partkey with no part) — the
    data-quality gate a warehouse load runs before trusting joins.
    One row of exact counts; no floats.

    Scale shape: three co-partitioned attach exchanges (stages/
    join.py), each collapsing map-side to null-payload counts —
    orphan detection never materializes the join, only its misses."""
    import pyarrow.compute as pc

    from anomalydetection_ray.stages.join import copartition_attach

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    cust = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda b: b.append_column("_c", pa.array(
            np.ones(b.num_rows, dtype=np.int64))),
        batch_format="pyarrow")
    o_tag = copartition_attach(orders, cust, left_on="o_custkey",
                               right_on="c_custkey",
                               payload_cols=["_c"])

    def count_nulls(col: str, total_name: str, orphan_name: str):
        def f(batch: pa.Table) -> pa.Table:
            miss = int(pc.sum(pc.cast(pc.is_null(batch.column(col)),
                                      pa.int64())).as_py() or 0)
            return pa.table({
                "_one": pa.array([0], type=pa.int64()),
                total_name: pa.array([batch.num_rows],
                                     type=pa.int64()),
                orphan_name: pa.array([miss], type=pa.int64()),
            })
        return f

    o_counts = (o_tag.map_batches(
        count_nulls("_c", "n_orders", "orphan_orders"),
        batch_format="pyarrow")
        .groupby("_one").sum(["n_orders", "orphan_orders"]))

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    okeys = _read(sf_dir, "orders", ["o_orderkey"]).map_batches(
        lambda b: b.append_column("_o", pa.array(
            np.ones(b.num_rows, dtype=np.int64))),
        batch_format="pyarrow")
    li_o = copartition_attach(li, okeys, left_on="l_orderkey",
                              right_on="o_orderkey",
                              payload_cols=["_o"])
    parts = _read(sf_dir, "part", ["p_partkey"]).map_batches(
        lambda b: b.append_column("_p", pa.array(
            np.ones(b.num_rows, dtype=np.int64))),
        batch_format="pyarrow")
    li_op = copartition_attach(li_o, parts, left_on="l_partkey",
                               right_on="p_partkey",
                               payload_cols=["_p"])

    def li_counts(batch: pa.Table) -> pa.Table:
        mo = int(pc.sum(pc.cast(pc.is_null(batch.column("_o")),
                                pa.int64())).as_py() or 0)
        mp = int(pc.sum(pc.cast(pc.is_null(batch.column("_p")),
                                pa.int64())).as_py() or 0)
        return pa.table({
            "_one": pa.array([0], type=pa.int64()),
            "n_lineitems": pa.array([batch.num_rows],
                                    type=pa.int64()),
            "orphan_li_order": pa.array([mo], type=pa.int64()),
            "orphan_li_part": pa.array([mp], type=pa.int64()),
        })

    l_counts = (li_op.map_batches(li_counts, batch_format="pyarrow")
                .groupby("_one")
                .sum(["n_lineitems", "orphan_li_order",
                      "orphan_li_part"]))

    o_row = o_counts.take_all()[0]   # bounded: ONE row each
    l_row = l_counts.take_all()[0]
    import ray.data
    return ray.data.from_arrow(pa.table({
        "n_orders": pa.array([o_row["sum(n_orders)"]],
                             type=pa.int64()),
        "orphan_orders": pa.array([o_row["sum(orphan_orders)"]],
                                  type=pa.int64()),
        "n_lineitems": pa.array([l_row["sum(n_lineitems)"]],
                                type=pa.int64()),
        "orphan_li_order": pa.array([l_row["sum(orphan_li_order)"]],
                                    type=pa.int64()),
        "orphan_li_part": pa.array([l_row["sum(orphan_li_part)"]],
                                   type=pa.int64()),
    }))


# ---------------------------------------------------------------- J23 ----
def j23_nearest_event_gap(sf_dir: str, window_s: int = 3600):
    """J23 — nearest-in-time join histogram: for every 'error' event,
    the time distance to the NEAREST same-user 'purchase' in EITHER
    direction within ``window_s`` seconds — the bidirectional cousin
    of J4's backward as-of join (root-cause triage asks "was there a
    purchase NEAR this error?", not only before it).  Unmatched
    errors bucket at -1; matched distances bucket at
    floor(log2(sec + 1)).  ALL-integer.

    Scale shape: ONE ``_pkey`` exchange on user; per-partition sorted
    two-pointer (searchsorted) candidate pick; bounded (bucket, n)
    partials."""
    from anomalydetection_ray.stages.runs import partition_apply

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])
    win_us = int(window_s) * 1_000_000

    def kernel(group: pa.Table) -> pa.Table:
        uid = np.asarray(group.column("user_id"), dtype=np.int64)
        ts = np.asarray(group.column("ts").cast(pa.int64()),
                        dtype=np.int64)
        et = np.asarray(group.column("event_type"))
        is_e = et == "error"
        is_p = et == "purchase"
        eo = np.lexsort((ts[is_e], uid[is_e]))
        eu, ets_ = uid[is_e][eo], ts[is_e][eo]
        po = np.lexsort((ts[is_p], uid[is_p]))
        pu, pts = uid[is_p][po], ts[is_p][po]
        n_e = eu.shape[0]
        empty = pa.table({
            "bucket": pa.array([], type=pa.int64()),
            "n_events": pa.array([], type=pa.int64())})
        if n_e == 0:
            return empty
        # J19's composite key: ONE global searchsorted respects user
        # bounds because the user rank occupies the high bits
        allu = np.unique(uid)
        base = int(ts.min())
        assert int(ts.max()) - base < (1 << 45), \
            "ts span exceeds composite key"
        ekey = (np.searchsorted(allu, eu).astype(np.int64) << 45) \
            | (ets_ - base)
        pkey = (np.searchsorted(allu, pu).astype(np.int64) << 45) \
            | (pts - base)
        j = np.searchsorted(pkey, ekey, side="right")
        big = np.int64(1) << 62
        dt_l = np.full(n_e, big, dtype=np.int64)
        lsel = j > 0
        lsel[lsel] &= pu[j[lsel] - 1] == eu[lsel]
        dt_l[lsel] = ets_[lsel] - pts[j[lsel] - 1]
        dt_r = np.full(n_e, big, dtype=np.int64)
        rsel = j < pkey.shape[0]
        rsel[rsel] &= pu[j[rsel]] == eu[rsel]
        dt_r[rsel] = pts[j[rsel]] - ets_[rsel]
        best = np.minimum(dt_l, dt_r)
        matched = best <= win_us
        buckets = np.full(n_e, -1, dtype=np.int64)
        sec = best[matched] // 1_000_000
        buckets[matched] = np.frexp(
            (sec + 1).astype(np.float64))[1] - 1
        uq, c = np.unique(buckets, return_counts=True)
        return pa.table({
            "bucket": pa.array(uq, type=pa.int64()),
            "n_events": pa.array(c.astype(np.int64),
                                 type=pa.int64()),
        })

    return (partition_apply(ds, ["user_id"], kernel, 16)
            .groupby("bucket").sum("n_events")
            .map_batches(lambda b: pa.table({
                "bucket": b.column("bucket"),
                "n_events": b.column("sum(n_events)")}),
                batch_format="pyarrow"))


# ---------------------------------------------------------------- J24 ----
_BLOOM_BITS = 1 << 16
_BLOOM_HASHES = ((0x9E3779B97F4A7C15, 0x6A09E667F3BCC909),
                 (0xBF58476D1CE4E5B9, 0x3C6EF372FE94F82B),
                 (0x94D049BB133111EB, 0xA54FF53A5F1D36F1))


def j24_bloom_prefilter_audit(sf_dir: str, lo: str = "1996-01-01",
                              hi: str = "1996-07-01"):
    """J24 — Bloom-filter join-prefilter audit: a 2^16-bit Bloom (3
    seeded multiply-shift hashes) built over the window's order keys,
    probed by every lineitem — how many rows PASS the filter vs truly
    JOIN, and the realized false-positive rate.  This is the engine's
    semi-join pushdown measured as data: a pass rate near the match
    rate certifies the Bloom would eliminate almost all of the
    shuffle for the J3/Q29-style joins.

    Exactness: hashes are mod-2^64 multiply+add (numpy uint64
    wraparound == the oracle's _mulmod64 replay), bit = h >> 48; all
    counts exact; the two rates are pinned divisions.

    Scale shape: the bit SET is bounded (<= 65536 ints) — built by a
    distributed distinct over bit positions, collected once, shipped
    in the probe closure (a real broadcast variable); the true-match
    count comes from the same bounded key-window logic, exchanged
    co-partitioned."""
    import pyarrow.compute as pc

    from anomalydetection_ray.stages.detectors import _split_double
    from anomalydetection_ray.stages.join import copartition_attach

    lo_us = np.datetime64(lo, "us").astype("int64")
    hi_us = np.datetime64(hi, "us").astype("int64")

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def _window(batch: pa.Table) -> pa.Table:
        ts = np.asarray(batch.column("o_orderdate").cast(pa.int64()))
        return batch.filter(pa.array((ts >= lo_us) & (ts < hi_us)))

    sub = orders.map_batches(_window, batch_format="pyarrow",
                             zero_copy_batch=True)

    def _bits(keys: np.ndarray) -> list[np.ndarray]:
        k = keys.astype(np.uint64)
        out = []
        for a, b in _BLOOM_HASHES:
            h = k * np.uint64(a) + np.uint64(b)   # mod 2^64 wrap
            out.append((h >> np.uint64(48)).astype(np.int64))
        return out

    def bit_partial(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch.column("o_orderkey"), dtype=np.int64)
        allb = np.unique(np.concatenate(_bits(keys))) \
            if keys.shape[0] else np.empty(0, dtype=np.int64)
        return pa.table({"bit": pa.array(allb, type=pa.int64())})

    # bounded distinct (<= 65536 rows) -> driver set -> broadcast
    bit_rows = (sub.map_batches(bit_partial, batch_format="pyarrow",
                                zero_copy_batch=True)
                .groupby("bit").count().take_all())
    bitset = np.zeros(_BLOOM_BITS, dtype=bool)
    bitset[[r["bit"] for r in bit_rows]] = True

    li = _read(sf_dir, "lineitem", ["l_orderkey"])

    def probe(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch.column("l_orderkey"), dtype=np.int64)
        b1, b2, b3 = _bits(keys)
        passed = bitset[b1] & bitset[b2] & bitset[b3]
        return pa.table({
            "_one": pa.array([0], type=pa.int64()),
            "n_li": pa.array([keys.shape[0]], type=pa.int64()),
            "n_pass": pa.array([int(passed.sum())], type=pa.int64()),
        })

    pass_agg = (li.map_batches(probe, batch_format="pyarrow",
                               zero_copy_batch=True)
                .groupby("_one").sum(["n_li", "n_pass"]))

    # exact match count: co-partitioned attach of the window flag
    sub_tag = sub.map_batches(
        lambda b: pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "_w": pa.array(np.ones(b.num_rows, dtype=np.int64))}),
        batch_format="pyarrow")
    li_tag = copartition_attach(li, sub_tag, left_on="l_orderkey",
                                right_on="o_orderkey",
                                payload_cols=["_w"])
    match_agg = (li_tag.map_batches(
        lambda b: pa.table({
            "_one": pa.array([0], type=pa.int64()),
            "n_match": pa.array(
                [int(pc.sum(pc.cast(pc.is_valid(b.column("_w")),
                                    pa.int64())).as_py() or 0)],
                type=pa.int64())}),
        batch_format="pyarrow")
        .groupby("_one").sum(["n_match"]))

    p = pass_agg.take_all()[0]
    m = match_agg.take_all()[0]
    n_li = int(p["sum(n_li)"])
    n_pass = int(p["sum(n_pass)"])
    n_match = int(m["sum(n_match)"])
    fp = n_pass - n_match
    neg = n_li - n_match
    import ray.data
    return ray.data.from_arrow(pa.table({
        "n_li": pa.array([n_li], type=pa.int64()),
        "n_pass": pa.array([n_pass], type=pa.int64()),
        "n_match": pa.array([n_match], type=pa.int64()),
        "n_false_positive": pa.array([fp], type=pa.int64()),
        "fp_rate": pa.array(
            [_split_double(fp) / _split_double(neg)
             if neg > 0 else None], type=pa.float64(),
            from_pandas=True),
        "pass_rate": pa.array(
            [_split_double(n_pass) / _split_double(n_li)
             if n_li > 0 else None], type=pa.float64(),
            from_pandas=True),
    }))


# ---------------------------------------------------------------- S27 ----
def s27_table_stats(sf_dir: str):
    """S27 — ANALYZE-style column statistics for the events table:
    per numeric column (event_id, user_id, cents = value quantized,
    ts_us), the exact row count, null count, min and max — the
    metadata an optimizer's pruning and join-ordering feed on, emitted
    as data.  ALL-integer.

    Scale shape: per-block 4-row partials, ONE bounded exchange."""
    from ray.data.aggregate import Max, Min, Sum

    ds = _read(sf_dir, "events",
               ["event_id", "user_id", "value", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cols = {}
        cols["event_id"] = np.asarray(
            batch.column("event_id"), dtype=np.int64)
        cols["user_id"] = np.asarray(
            batch.column("user_id"), dtype=np.int64)
        v = np.asarray(batch.column("value"), dtype=np.float64)
        cols["cents"] = np.floor(v * 100.0 + 0.5).astype(np.int64)
        cols["ts_us"] = np.asarray(
            batch.column("ts").cast(pa.int64()), dtype=np.int64)
        names, n, n_null, mn, mx = [], [], [], [], []
        for name in ("cents", "event_id", "ts_us", "user_id"):
            arr = cols[name]
            nul = int(pc.sum(pc.cast(pc.is_null(
                batch.column({"cents": "value",
                              "ts_us": "ts"}.get(name, name))),
                pa.int64())).as_py() or 0)
            names.append(name)
            n.append(batch.num_rows)
            n_null.append(nul)
            mn.append(int(arr.min()) if arr.shape[0] else 0)
            mx.append(int(arr.max()) if arr.shape[0] else 0)
        return pa.table({
            "column": pa.array(names, type=pa.string()),
            "n": pa.array(n, type=pa.int64()),
            "n_null": pa.array(n_null, type=pa.int64()),
            "min_v": pa.array(mn, type=pa.int64()),
            "max_v": pa.array(mx, type=pa.int64()),
        })

    return (ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("column")
            .aggregate(Sum("n", alias_name="n"),
                       Sum("n_null", alias_name="n_null"),
                       Min("min_v", alias_name="min_v"),
                       Max("max_v", alias_name="max_v")))


# ---------------------------------------------------------------- W63 ----
def w63_weekend_effect(sf_dir: str):
    """W63 — weekday-vs-weekend Welch t per event type on the
    ZERO-FILLED daily cent totals (weekday = epoch-day residue 0-4,
    weekend = 5-6 — the repo's residue convention): does the money
    flow differently on the two day classes?  |t| >> 2 = real weekly
    level shift, the two-sample complement of A95/W49's rhythm
    detectors.

    Exactness: class day-counts come from the span arithmetic (exact),
    class sums/squares from present rows (zero-fill identity); the
    float tail is the pinned chain m_i = split(S_i)/n_i, s2_i =
    split(n_i*Q_i - S_i^2)/split(n_i*(n_i-1)), t = (m1 - m2) /
    sqrt(s2_1/n_1 + s2_2/n_2) — each step ONE IEEE op, replayed
    verbatim.  NULL t when either class has < 2 days or both
    variances are 0.

    Scale shape: bounded (type, residue-class) moment partials, ONE
    tiny exchange, single-group widen."""
    import math

    from anomalydetection_ray.stages.detectors import _split_double


    def widen(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_pylist()
        day = np.asarray(group.column("day"), dtype=np.int64)
        x = np.asarray(group.column("sum(x)"), dtype=np.int64)
        lo, hi = int(day.min()), int(day.max())
        grid_r = np.arange(lo, hi + 1, dtype=np.int64) % 7
        n1 = int((grid_r < 5).sum())       # weekday days in span
        n2 = int((grid_r >= 5).sum())      # weekend days in span
        is_we = (day % 7) >= 5
        types = sorted(set(et))
        out = {k: [] for k in ("event_type", "n_wd", "n_we", "s_wd",
                               "s_we", "t_welch")}
        for t in types:
            sel = np.asarray([e == t for e in et], dtype=bool)
            s1 = int(x[sel & ~is_we].sum())
            q1 = int((x[sel & ~is_we] ** 2).sum())
            s2 = int(x[sel & is_we].sum())
            q2 = int((x[sel & is_we] ** 2).sum())
            out["event_type"].append(t)
            out["n_wd"].append(n1)
            out["n_we"].append(n2)
            out["s_wd"].append(s1)
            out["s_we"].append(s2)
            if n1 >= 2 and n2 >= 2:
                m1 = _split_double(s1) / float(n1)
                m2 = _split_double(s2) / float(n2)
                v1 = _split_double(n1 * q1 - s1 * s1) \
                    / _split_double(n1 * (n1 - 1))
                v2 = _split_double(n2 * q2 - s2 * s2) \
                    / _split_double(n2 * (n2 - 1))
                a = v1 / float(n1)
                b = v2 / float(n2)
                den = math.sqrt(a + b)
                out["t_welch"].append((m1 - m2) / den
                                      if den > 0.0 else None)
            else:
                out["t_welch"].append(None)
        return pa.table({
            "event_type": pa.array(out["event_type"],
                                   type=pa.string()),
            "n_wd": pa.array(out["n_wd"], type=pa.int64()),
            "n_we": pa.array(out["n_we"], type=pa.int64()),
            "s_wd": pa.array(out["s_wd"], type=pa.int64()),
            "s_we": pa.array(out["s_we"], type=pa.int64()),
            "t_welch": pa.array(out["t_welch"], type=pa.float64(),
                                from_pandas=True),
        })

    return _daily_cents(sf_dir, widen)


# ---------------------------------------------------------------- G56 ----
def g56_source_pareto(sf_dir: str):
    """G56 — the source concentration (Pareto) curve: sources ranked
    by document count with each source's share and CUMULATIVE share —
    the "how few sources make 80% of my corpus?" diversification
    readout feeding Q24/Q28's re-weighting decisions.

    Exactness: counts and the running total exact ints; share and
    cum_share are single pinned divisions per row.  Bounded by the
    source domain throughout."""
    import pyarrow.compute as pc

    from anomalydetection_ray.stages.detectors import _split_double

    ds = _read(sf_dir, "documents", ["source"])

    def partial(batch: pa.Table) -> pa.Table:
        g = pa.table({"source": batch.column("source")}).group_by(
            ["source"]).aggregate([([], "count_all")])
        return pa.table({"source": g.column("source"),
                         "n_docs": pc.cast(g.column("count_all"),
                                           pa.int64())})

    counts = (ds.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby("source").sum("n_docs"))

    def finalize(group: pa.Table) -> pa.Table:
        src = np.asarray(group.column("source"))
        n = np.asarray(group.column("sum(n_docs)"), dtype=np.int64)
        order = np.lexsort((src, -n))      # n desc, source asc
        src, n = src[order], n[order]
        total = int(n.sum())
        cum = np.cumsum(n)
        share = np.array([_split_double(int(c)) / _split_double(total)
                          for c in n], dtype=np.float64)
        cshare = np.array([_split_double(int(c))
                           / _split_double(total) for c in cum],
                          dtype=np.float64)
        return pa.table({
            "rank": pa.array(np.arange(1, src.shape[0] + 1,
                                       dtype=np.int64)),
            "source": pa.array(src, type=pa.string()),
            "n_docs": pa.array(n, type=pa.int64()),
            "cum_docs": pa.array(cum, type=pa.int64()),
            "share": pa.array(share, type=pa.float64()),
            "cum_share": pa.array(cshare, type=pa.float64()),
        })

    return counts.repartition(1).map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------- G58 ----
def g58_benford(sf_dir: str):
    """G58 — Benford first-digit screen per event type over positive
    cent values: observed first-significant-digit counts vs the
    Benford expectation, with the chi-square distance — the classic
    fabricated-numbers / synthetic-data smell test.

    Exactness: the first digit comes from the DECIMAL STRING of the
    exact cent integer (never a float log10, which misbins at powers
    of ten); counts exact.  chi2 is the repo's pinned ascending-digit
    fold: e_d = split(n)*p_d, term = (split(n_d)-e_d)^2/e_d with
    p_d = log10(1+1/d) evaluated via libm on both sides.

    Plan: ``_benford_counts``, shared with T11; the digits 1-9 are the
    positive cent values (a zero or negative one starts with 0 or -)."""
    import math

    from anomalydetection_ray.stages.detectors import _split_double

    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        counts = dict(zip(group.column("digit").to_pylist(),
                          group.column("n").to_pylist()))
        full = np.array([counts.get(str(d), 0) for d in range(1, 10)],
                        dtype=np.int64)
        total = int(full.sum())
        chi2 = 0.0
        for d in range(1, 10) if total else ():
            p = math.log10(1.0 + 1.0 / float(d))
            e = _split_double(total) * p
            diff = _split_double(int(full[d - 1])) - e
            chi2 = chi2 + (diff * diff) / e
        out = pa.table({
            "event_type": pa.array([et] * 9, type=pa.string()),
            "digit": pa.array(np.arange(1, 10, dtype=np.int64)),
            "n": pa.array(full, type=pa.int64()),
            "n_total": pa.array([total] * 9, type=pa.int64()),
            "chi2_benford": pa.array([chi2] * 9, type=pa.float64()),
        })
        # a type with no positive cent value has no row, as in the SQL
        return out if total else out.slice(0, 0)

    return _benford_counts(sf_dir, finalize)


# ---------------------------------------------------------------- Q35 ----
def q35_ntile_revenue_buckets(sf_dir: str):
    """Q35 — distributed NTILE(4): orders ranked by (total cents,
    orderkey) are dealt into four near-equal buckets with DuckDB's
    remainder rule (the first n mod 4 buckets take the extra row), and
    the result is audited as (priority, bucket) counts — the window-
    function NTILE primitive expressed shuffle-light.

    HOW: a bounded cent histogram gives every distinct value its
    exclusive-cumsum GLOBAL RANK BASE (broadcast as a lookup —
    J1 discipline); one co-partitioned exchange on the cent value
    orders ties by orderkey so row rank = base + within-value index;
    the NTILE bucket is then pure integer arithmetic per row.  Exact
    everywhere; no global sort of the table.

    Scale note: the broadcast is bounded by the distinct-cent domain
    of an order book (documented assumption shared with G52's
    histograms)."""
    from anomalydetection_ray.stages.runs import partition_apply

    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_orderpriority", "o_totalprice"])

    def cents_batch(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column("o_totalprice"), dtype=np.float64)
        return pa.table({
            "o_orderkey": batch.column("o_orderkey"),
            "o_orderpriority": batch.column("o_orderpriority"),
            "cents": pa.array(np.floor(v * 100.0 + 0.5)
                              .astype(np.int64), type=pa.int64()),
        })

    rows = ds.map_batches(cents_batch, batch_format="pyarrow",
                          zero_copy_batch=True)

    # bounded histogram -> exclusive cumsum rank base per cent value
    hist = (rows.map_batches(
        lambda b: pa.table({"cents": b.column("cents"),
                            "one": pa.array(np.ones(b.num_rows,
                                                    dtype=np.int64))})
        .group_by(["cents"]).aggregate([("one", "sum")]),
        batch_format="pyarrow")
        .map_batches(lambda g: pa.table({
            "cents": g.column("cents"),
            "c": g.column("one_sum").cast(pa.int64())}),
            batch_format="pyarrow")
        .groupby("cents").sum("c").take_all())
    cv = np.array([r["cents"] for r in hist], dtype=np.int64)
    cc = np.array([r["sum(c)"] for r in hist], dtype=np.int64)
    order = np.argsort(cv)
    cv, cc = cv[order], cc[order]
    base = np.concatenate(([0], np.cumsum(cc)[:-1]))
    n_total = int(cc.sum())
    q, r = divmod(n_total, 4)

    def kernel(group: pa.Table) -> pa.Table:
        group = group.sort_by(
            [("cents", "ascending"), ("o_orderkey", "ascending")])
        c = np.asarray(group.column("cents"), dtype=np.int64)
        starts = np.flatnonzero(np.concatenate(([True],
                                                c[1:] != c[:-1])))
        lens = np.diff(np.append(starts, c.shape[0]))
        within = np.arange(c.shape[0], dtype=np.int64) \
            - np.repeat(starts, lens)
        rank = base[np.searchsorted(cv, c)] + within
        # DuckDB NTILE remainder rule: first r buckets size q+1
        cut = r * (q + 1)
        bucket = np.where(rank < cut, rank // (q + 1),
                          r + (rank - cut) // q if q else r)
        t = pa.table({
            "o_orderpriority": group.column("o_orderpriority"),
            "bucket": pa.array(bucket + 1, type=pa.int64()),
            "one": pa.array(np.ones(c.shape[0], dtype=np.int64)),
        })
        g = t.group_by(["o_orderpriority", "bucket"]).aggregate(
            [("one", "sum")])
        return pa.table({
            "o_orderpriority": g.column("o_orderpriority"),
            "bucket": g.column("bucket"),
            "n": g.column("one_sum").cast(pa.int64())})

    return (partition_apply(rows, ["cents"], kernel, 16)
            .groupby(["o_orderpriority", "bucket"]).sum("n")
            .map_batches(lambda b: pa.table({
                "o_orderpriority": b.column("o_orderpriority"),
                "bucket": b.column("bucket"),
                "n": b.column("sum(n)")}),
                batch_format="pyarrow"))


# ---------------------------------------------------------------- A98 ----
def a98_arrival_uniformity(sf_dir: str):
    """A98 — KS-style arrival-uniformity screen per event type on the
    daily grid: the maximum deviation between the empirical arrival
    CDF and the uniform CDF over the observation span — D near 0 =
    steady drip, large D = front/back-loaded or regime-switched
    arrivals (the distributional cousin of A63's KPSS level test).

    Exactness: the deviation is compared as the EXACT integer
    |cum_d * span - rank_d * total| over the dense grid (no float
    enters the argmax; ties -> smallest day); D itself is the single
    pinned division split(max_num) / split(total * span).

    Scale shape: G31's bounded (type, day) exchange; dense-grid scan
    in the single-group widen."""

    from anomalydetection_ray.stages.detectors import _split_double


    def widen(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_pylist()
        day = np.asarray(group.column("day"), dtype=np.int64)
        n = np.asarray(group.column("n"), dtype=np.int64)
        lo, hi = int(day.min()), int(day.max())
        span = hi - lo + 1
        rank = np.arange(1, span + 1, dtype=np.int64)
        types = sorted(set(et))
        out = {k: [] for k in ("event_type", "total", "ks_num",
                               "ks_day", "ks_d")}
        for t in types:
            sel = np.asarray([e == t for e in et], dtype=bool)
            dense = np.zeros(span, dtype=np.int64)
            dense[day[sel] - lo] = n[sel]
            total = int(dense.sum())
            cum = np.cumsum(dense)
            dev = np.abs(cum * span - rank * total)
            arg = int(np.argmax(dev))          # first max: smallest day
            out["event_type"].append(t)
            out["total"].append(total)
            out["ks_num"].append(int(dev[arg]))
            out["ks_day"].append(lo + arg)
            out["ks_d"].append(
                _split_double(int(dev[arg]))
                / _split_double(total * span) if total > 0 else None)
        return pa.table({
            "event_type": pa.array(out["event_type"],
                                   type=pa.string()),
            "total": pa.array(out["total"], type=pa.int64()),
            "ks_num": pa.array(out["ks_num"], type=pa.int64()),
            "ks_day": pa.array(out["ks_day"], type=pa.int64()),
            "ks_d": pa.array(out["ks_d"], type=pa.float64(),
                             from_pandas=True),
        })

    return _daily_counts(sf_dir, widen)


# ---------------------------------------------------------------- M10 ----
def m10_unpivot(sf_dir: str):
    """M10 — unpivot (wide -> long): T7's pivoted (event_type,
    dow_0..dow_6) table melted back to (event_type, dow, n) rows,
    zero cells dropped — the inverse transform completing the
    pivot/melt pair (the oracle is the DIRECT long-form count, so the
    round trip is the correctness statement).

    Scale shape: the melt is a map-only 1->7 expansion over T7's
    bounded output."""
    wide = t7_pivot_events(sf_dir)

    def melt(batch: pa.Table) -> pa.Table:
        et = np.asarray(batch.column("event_type"))
        outs_t, outs_d, outs_n = [], [], []
        for d in range(7):
            n = np.asarray(batch.column(f"dow_{d}"), dtype=np.int64)
            keep = n > 0
            outs_t.append(et[keep])
            outs_d.append(np.full(int(keep.sum()), d,
                                  dtype=np.int64))
            outs_n.append(n[keep])
        return pa.table({
            "event_type": pa.array(np.concatenate(outs_t),
                                   type=pa.string()),
            "dow": pa.array(np.concatenate(outs_d), type=pa.int64()),
            "n": pa.array(np.concatenate(outs_n), type=pa.int64()),
        })

    return wide.map_batches(melt, batch_format="pyarrow")


# ---------------------------------------------------------------- G59 ----
def g59_peak_hour_stability(sf_dir: str):
    """G59 — peak-hour stability per event type: each DAY's busiest
    hour (ties -> smallest hour), then the modal peak hour across days
    and the share of days peaking there — W53 names the overall peak
    hour; this asks whether it HOLDS day over day (share near 1 =
    cron-like; low = the "peak" is noise).

    Exactness: both argmax levels are exact integer comparisons with
    smallest-index ties; share = ONE pinned division.

    Plan: ``_events_grid`` over the (type, day, hour) grid, per-type
    finalize."""
    from anomalydetection_ray.stages.detectors import _split_double

    def derive(batch: pa.Table) -> pa.Table:
        us = _ts_us(batch)
        return pa.table({"event_type": batch.column("event_type"),
                         "day": pa.array(us // DAY_US_Q),
                         "hour": pa.array((us // 3_600_000_000) % 24),
                         "n": _ones(batch.num_rows)})

    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        day = np.asarray(group.column("day"), dtype=np.int64)
        hour = np.asarray(group.column("hour"), dtype=np.int64)
        n = np.asarray(group.column("n"), dtype=np.int64)
        # per-day argmax hour, ties -> smallest hour: lexsort by
        # (day asc, n desc, hour asc) and take day firsts
        order = np.lexsort((hour, -n, day))
        day_s, hour_s = day[order], hour[order]
        first = np.concatenate(([True], day_s[1:] != day_s[:-1]))
        peaks = hour_s[first]
        n_days = int(peaks.shape[0])
        uq, c = np.unique(peaks, return_counts=True)
        # modal peak hour, ties -> smallest hour (first max)
        arg = int(np.argmax(c))
        modal = int(uq[arg])
        n_modal = int(c[arg])
        return pa.table({
            "event_type": pa.array([et], type=pa.string()),
            "n_days": pa.array([n_days], type=pa.int64()),
            "modal_peak_hour": pa.array([modal], type=pa.int64()),
            "n_days_at_modal": pa.array([n_modal], type=pa.int64()),
            "stability": pa.array(
                [_split_double(n_modal) / _split_double(n_days)],
                type=pa.float64()),
        })

    return _events_grid(sf_dir, ["event_type", "ts"], derive,
                        ["event_type", "day", "hour"], ["n"],
                        _by_type(finalize))


# ---------------------------------------------------------------- Q36 ----
def q36_hamilton_allocation(sf_dir: str, sample_size: int = 1000):
    """Q36 — largest-remainder (Hamilton) sample apportionment across
    sources: allocate exactly ``sample_size`` draws proportionally to
    document counts — floor(S*n_s/N) each, then one extra to the
    sources with the largest remainders (ties -> source name asc) —
    the integer allocation every stratified sampler actually needs
    (Q24's real-valued weights rounded correctly, total EXACTLY S).

    Exactness: ENTIRELY integer — remainders compare as
    (S*n_s) mod N, never a float; the conservation (sum == S) is
    structural and pytest-gated."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "documents", ["source"])

    def partial(batch: pa.Table) -> pa.Table:
        g = pa.table({"source": batch.column("source")}).group_by(
            ["source"]).aggregate([([], "count_all")])
        return pa.table({"source": g.column("source"),
                         "n_docs": pc.cast(g.column("count_all"),
                                           pa.int64())})

    counts = (ds.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby("source").sum("n_docs"))

    def finalize(group: pa.Table) -> pa.Table:
        src = np.asarray(group.column("source"))
        n = np.asarray(group.column("sum(n_docs)"), dtype=np.int64)
        order = np.argsort(src)
        src, n = src[order], n[order]
        N = int(n.sum())
        S = int(sample_size)
        base = (S * n) // N
        rem = (S * n) % N
        r = S - int(base.sum())
        # top-r remainders, ties -> source asc (already source-sorted,
        # stable sort keeps that order within equal remainders)
        extra = np.zeros(src.shape[0], dtype=np.int64)
        if r > 0:
            pick = np.argsort(-rem, kind="stable")[:r]
            extra[pick] = 1
        return pa.table({
            "source": pa.array(src, type=pa.string()),
            "n_docs": pa.array(n, type=pa.int64()),
            "floor_alloc": pa.array(base, type=pa.int64()),
            "remainder": pa.array(rem, type=pa.int64()),
            "alloc": pa.array(base + extra, type=pa.int64()),
        })

    return counts.repartition(1).map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------- W66 ----
def w66_trailing_bursts(sf_dir: str):
    """W66 — trailing-window burst days per event type: a day bursts
    when its count exceeds TWICE the mean of the preceding 7 days on
    the zero-filled grid — the adaptive-baseline burst detector (W47
    compares to the GLOBAL mean and misses bursts on top of a rising
    trend; a trailing baseline does not).  Exact integer compare
    7*x_d > 2*S_prev7; emits burst-day count and the longest burst
    streak per type.  ALL-integer.

    Scale shape: G31's bounded (type, day) exchange; trailing sums
    via one cumsum on the bounded dense grid."""

    def widen(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_pylist()
        day = np.asarray(group.column("day"), dtype=np.int64)
        n = np.asarray(group.column("n"), dtype=np.int64)
        lo, hi = int(day.min()), int(day.max())
        span = hi - lo + 1
        types = sorted(set(et))
        out = {k: [] for k in ("event_type", "n_eligible_days",
                               "n_burst_days", "longest_burst")}
        for t in types:
            sel = np.asarray([e == t for e in et], dtype=bool)
            dense = np.zeros(span, dtype=np.int64)
            dense[day[sel] - lo] = n[sel]
            cum = np.concatenate(([0], np.cumsum(dense)))
            # days with a full 7-day trailing window: d index >= 7
            if span > 7:
                x = dense[7:]
                prev7 = cum[7:-1] - cum[:-8]
                burst = 7 * x > 2 * prev7
                nb = int(burst.sum())
                if nb:
                    padded = np.concatenate(([False], burst, [False]))
                    d_ = np.diff(padded.astype(np.int8))
                    runs = (np.flatnonzero(d_ == -1)
                            - np.flatnonzero(d_ == 1))
                    longest = int(runs.max())
                else:
                    longest = 0
                elig = span - 7
            else:
                nb, longest, elig = 0, 0, 0
            out["event_type"].append(t)
            out["n_eligible_days"].append(elig)
            out["n_burst_days"].append(nb)
            out["longest_burst"].append(longest)
        return pa.table({
            "event_type": pa.array(out["event_type"],
                                   type=pa.string()),
            "n_eligible_days": pa.array(out["n_eligible_days"],
                                        type=pa.int64()),
            "n_burst_days": pa.array(out["n_burst_days"],
                                     type=pa.int64()),
            "longest_burst": pa.array(out["longest_burst"],
                                      type=pa.int64()),
        })

    return _daily_counts(sf_dir, widen)


# ---------------------------------------------------------------- G60 ----
def g60_dom_profile(sf_dir: str):
    """G60 — day-of-month activity profile per event type: counts per
    calendar day-of-month (1..31) with each type's peak dom and its
    share — the payday/billing-cycle screen on the axis G49's
    dow × hour grid cannot see.  Exact counts (dom from real calendar
    arithmetic, identical on both sides); one pinned division.

    Plan: ``_events_grid`` over the (type, dom) grid, per-type
    finalize."""
    import pyarrow.compute as pc

    from anomalydetection_ray.stages.detectors import _split_double

    def derive(batch: pa.Table) -> pa.Table:
        return pa.table({"event_type": batch.column("event_type"),
                         "dom": pc.cast(pc.day(batch.column("ts")), pa.int64()),
                         "n": _ones(batch.num_rows)})

    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        dom = np.asarray(group.column("dom"), dtype=np.int64)
        n = np.asarray(group.column("n"), dtype=np.int64)
        order = np.lexsort((dom, -n))      # n desc, dom asc
        peak, peak_n = int(dom[order[0]]), int(n[order[0]])
        total = int(n.sum())
        return pa.table({
            "event_type": pa.array([et] * dom.shape[0],
                                   type=pa.string()),
            "dom": pa.array(dom, type=pa.int64()),
            "n": pa.array(n, type=pa.int64()),
            "peak_dom": pa.array([peak] * dom.shape[0],
                                 type=pa.int64()),
            "peak_share": pa.array(
                [_split_double(peak_n) / _split_double(total)]
                * dom.shape[0], type=pa.float64()),
        })

    return _events_grid(sf_dir, ["event_type", "ts"], derive,
                        ["event_type", "dom"], ["n"], _by_type(finalize))


# ---------------------------------------------------------------- A99 ----
def a99_xmr_chart(sf_dir: str):
    """A99 — Shewhart XmR (individuals & moving-range) control chart
    per event type on the ZERO-FILLED daily cent totals: center =
    mean, natural process limits = mean ± 2.66 * mean-moving-range
    (the classic SPC constant d2=1.128 folded in), and the count of
    days outside the limits — the process-behavior chart every ops
    team draws first (Shewhart 1931; Wheeler's XmR formulation).

    Exactness: S (sum) and MR (sum |x_t - x_{t-1}|) are exact ints on
    the bounded dense grid; the float tail is the pinned chain
    xbar = split(S)/n, mrbar = split(MR)/(n-1), ucl = xbar +
    2.66*mrbar, lcl = xbar - 2.66*mrbar; the out-of-limit flags
    compare CAST(x) against those pinned floats, so the counts are
    bit-stable.

    Scale shape: G31's bounded (type, day) exchange; dense-grid scan
    in the single-group widen."""

    from anomalydetection_ray.stages.detectors import _split_double


    def widen(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_pylist()
        day = np.asarray(group.column("day"), dtype=np.int64)
        xs = np.asarray(group.column("sum(x)"), dtype=np.int64)
        lo, hi = int(day.min()), int(day.max())
        span = hi - lo + 1
        types = sorted(set(et))
        out = {k: [] for k in ("event_type", "n_days", "sum_cents",
                               "mr_sum", "ucl", "lcl", "n_out")}
        for t in types:
            sel = np.asarray([e == t for e in et], dtype=bool)
            dense = np.zeros(span, dtype=np.int64)
            dense[day[sel] - lo] = xs[sel]
            S = int(dense.sum())
            MR = int(np.abs(np.diff(dense)).sum())
            xbar = _split_double(S) / float(span)
            mrbar = _split_double(MR) / float(span - 1)
            ucl = xbar + 2.66 * mrbar
            lcl = xbar - 2.66 * mrbar
            xf = dense.astype(np.float64)   # exact: cents < 2^53
            n_out = int(((xf > ucl) | (xf < lcl)).sum())
            out["event_type"].append(t)
            out["n_days"].append(span)
            out["sum_cents"].append(S)
            out["mr_sum"].append(MR)
            out["ucl"].append(ucl)
            out["lcl"].append(lcl)
            out["n_out"].append(n_out)
        return pa.table({
            "event_type": pa.array(out["event_type"],
                                   type=pa.string()),
            "n_days": pa.array(out["n_days"], type=pa.int64()),
            "sum_cents": pa.array(out["sum_cents"], type=pa.int64()),
            "mr_sum": pa.array(out["mr_sum"], type=pa.int64()),
            "ucl": pa.array(out["ucl"], type=pa.float64()),
            "lcl": pa.array(out["lcl"], type=pa.float64()),
            "n_out": pa.array(out["n_out"], type=pa.int64()),
        })

    return _daily_cents(sf_dir, widen)


# ---------------------------------------------------------------- W67 ----
def w67_lead_lag(sf_dir: str, max_shift: int = 7):
    """W67 — cross-type lead-lag discovery: for every type pair
    (a < b), the day shift s in [-max_shift, max_shift] maximizing the
    Pearson correlation between a's zero-filled daily counts x_a(t)
    and b's shifted counts x_b(t+s) — "errors lead purchases by 2
    days" as data, the temporal-direction readout W41's lag-0
    correlation cannot give.  s > 0 means b FOLLOWS a.

    Exactness: per (pair, shift) the moments over the overlap window
    (n = span - |s|) are exact ints; r is A9's pinned division
    split(num) / (sqrt(split(d1)) * sqrt(split(d2))); the argmax runs
    on those pinned floats with ties to the smallest shift —
    deterministic because both sides compare identical doubles.
    Degenerate shifts (zero variance on either side) are excluded.

    Scale shape: G31's bounded (type, day) exchange; the pair x shift
    sweep runs on bounded dense grids in the single-group widen."""
    import math

    from anomalydetection_ray.stages.detectors import _split_double


    def widen(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_pylist()
        day = np.asarray(group.column("day"), dtype=np.int64)
        n = np.asarray(group.column("n"), dtype=np.int64)
        lo, hi = int(day.min()), int(day.max())
        span = hi - lo + 1
        types = sorted(set(et))
        dense = {}
        for t in types:
            sel = np.asarray([e == t for e in et], dtype=bool)
            dv = np.zeros(span, dtype=np.int64)
            dv[day[sel] - lo] = n[sel]
            dense[t] = dv
        out = {k: [] for k in ("type_a", "type_b", "best_shift",
                               "n_overlap", "r_best")}
        for i, a in enumerate(types):
            for b in types[i + 1:]:
                best = None                  # (r, s, n_ov)
                for s in range(-max_shift, max_shift + 1):
                    if s >= 0:
                        xa = dense[a][:span - s]
                        xb = dense[b][s:]
                    else:
                        xa = dense[a][-s:]
                        xb = dense[b][:span + s]
                    nv = int(xa.shape[0])
                    if nv < 2:
                        continue
                    s1 = int(xa.sum())
                    s2 = int(xb.sum())
                    q1 = int((xa * xa).sum())
                    q2 = int((xb * xb).sum())
                    p = int((xa * xb).sum())
                    num = nv * p - s1 * s2
                    d1 = nv * q1 - s1 * s1
                    d2 = nv * q2 - s2 * s2
                    if d1 <= 0 or d2 <= 0:
                        continue
                    r = _split_double(num) / (
                        math.sqrt(_split_double(d1))
                        * math.sqrt(_split_double(d2)))
                    if best is None or r > best[0]:
                        best = (r, s, nv)
                if best is None:
                    continue
                out["type_a"].append(a)
                out["type_b"].append(b)
                out["best_shift"].append(best[1])
                out["n_overlap"].append(best[2])
                out["r_best"].append(best[0])
        return pa.table({
            "type_a": pa.array(out["type_a"], type=pa.string()),
            "type_b": pa.array(out["type_b"], type=pa.string()),
            "best_shift": pa.array(out["best_shift"],
                                   type=pa.int64()),
            "n_overlap": pa.array(out["n_overlap"], type=pa.int64()),
            "r_best": pa.array(out["r_best"], type=pa.float64()),
        })

    return _daily_counts(sf_dir, widen)


# ---------------------------------------------------------------- S29 ----
def s29_snapshot_diff(sf_dir: str):
    """S29 — CDC snapshot diff: given snapshot A (events) and a
    deterministically DERIVED snapshot B (every 97th id deleted, every
    50th surviving id's cents bumped +100, every 101st id re-inserted
    under id+10^9), classify every id as same / updated / deleted /
    inserted and emit the change census — the change-data-capture
    primitive a warehouse sync runs between loads.  The ENGINE does
    not know the derivation rule: it computes the diff by a
    co-partitioned full compare of the two id streams (U1's exchange
    shape), so the oracle's rule-based counts certify the diff
    machinery itself.  ALL-integer."""
    from anomalydetection_ray.stages.runs import partition_apply

    ds = _read(sf_dir, "events", ["event_id", "value"])

    def snapshots(batch: pa.Table) -> pa.Table:
        """Emit (id, cents, side) rows for BOTH snapshots."""
        eid = np.asarray(batch.column("event_id"), dtype=np.int64)
        v = np.asarray(batch.column("value"), dtype=np.float64)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        # snapshot A: as-is
        ids_a, c_a = eid, cents
        # snapshot B: deletes, updates, shifted re-inserts
        keep = eid % 97 != 0
        ids_b = eid[keep]
        c_b = cents[keep] + np.where(ids_b % 50 == 0, 100, 0)
        ins = eid % 101 == 0
        ids_i = eid[ins] + 1_000_000_000
        c_i = cents[ins]
        return pa.table({
            "id": pa.array(np.concatenate([ids_a, ids_b, ids_i]),
                           type=pa.int64()),
            "cents": pa.array(np.concatenate([c_a, c_b, c_i]),
                              type=pa.int64()),
            "side": pa.array(np.concatenate([
                np.zeros(ids_a.shape[0], dtype=np.int64),
                np.ones(ids_b.shape[0], dtype=np.int64),
                np.ones(ids_i.shape[0], dtype=np.int64)]),
                type=pa.int64()),
        })

    rows = ds.map_batches(snapshots, batch_format="pyarrow",
                          zero_copy_batch=True)

    def diff(group: pa.Table) -> pa.Table:
        ids = np.asarray(group.column("id"), dtype=np.int64)
        cents = np.asarray(group.column("cents"), dtype=np.int64)
        side = np.asarray(group.column("side"), dtype=np.int64)
        order = np.lexsort((side, ids))
        ids, cents, side = ids[order], cents[order], side[order]
        starts = np.flatnonzero(np.concatenate(([True],
                                                ids[1:] != ids[:-1])))
        lens = np.diff(np.append(starts, ids.shape[0]))
        n_same = n_upd = n_del = n_ins = 0
        both = lens == 2
        n_same = int((both & (cents[starts]
                              == cents[np.minimum(starts + 1,
                                                  ids.shape[0] - 1)])
                      ).sum())
        n_upd = int(both.sum()) - n_same
        only = lens == 1
        n_del = int((only & (side[starts] == 0)).sum())
        n_ins = int((only & (side[starts] == 1)).sum())
        return pa.table({
            "_one": pa.array([0], type=pa.int64()),
            "n_same": pa.array([n_same], type=pa.int64()),
            "n_updated": pa.array([n_upd], type=pa.int64()),
            "n_deleted": pa.array([n_del], type=pa.int64()),
            "n_inserted": pa.array([n_ins], type=pa.int64()),
        })

    return (partition_apply(rows, ["id"], diff, 16)
            .groupby("_one")
            .sum(["n_same", "n_updated", "n_deleted", "n_inserted"])
            .map_batches(lambda b: pa.table({
                "n_same": b.column("sum(n_same)"),
                "n_updated": b.column("sum(n_updated)"),
                "n_deleted": b.column("sum(n_deleted)"),
                "n_inserted": b.column("sum(n_inserted)")}),
                batch_format="pyarrow"))


# ---------------------------------------------------------------- Q37 ----
def q37_topk_with_ties(sf_dir: str, k: int = 5):
    """Q37 — grouped top-k WITH TIES (the ANSI ``FETCH FIRST k ROWS
    WITH TIES`` / ``RANK() <= k`` surface): per event type, every
    event whose cent value ranks in the top ``k`` INCLUDING ties —
    Q5's grouped top-k truncates ties arbitrarily; this shape never
    drops a peer row, which is what audit queries need.

    HOW: the per-type cent histogram (bounded) yields the k-th
    largest value (threshold) and the strictly-greater counts, so
    rank = 1 + n_greater is computed per row from a broadcast lookup
    — no global sort, no per-type row materialization.  ALL-integer.

    Plan: ``_cent_hist``, then one map over the rows on ``sized_plan``.
    The broadcast is bounded by the per-type distinct cent domain (G52's
    documented assumption)."""
    hist = _cent_hist(sf_dir, lambda g: g).take_all()
    # per type: descending cumsum -> threshold (k-th largest value)
    # and the strictly-greater count per kept value
    by_type: dict = {}
    for r in hist:
        by_type.setdefault(r["event_type"], []).append(
            (int(r["v100"]), int(r["n"])))
    thr = {}
    greater = {}
    for et, vals in by_type.items():
        vals.sort(reverse=True)
        cum = 0
        for cents, c in vals:
            if cum < k:
                thr[et] = cents
                greater[(et, cents)] = cum
            cum += c

    types_sorted = np.array(sorted(thr), dtype=object)
    thr_arr = np.array([thr[t] for t in types_sorted],
                       dtype=np.int64)

    def flag(batch: pa.Table) -> pa.Table:
        et = np.asarray(batch.column("event_type"))
        cents = _cents(batch)
        ti = np.searchsorted(types_sorted, et)
        keep = cents >= thr_arr[ti]         # vectorized threshold test
        kidx = np.flatnonzero(keep)         # survivors: ~k per type
        rnk = np.array([1 + greater[(et[i], int(cents[i]))]
                        for i in kidx], dtype=np.int64)
        sel = pa.array(kidx)
        return pa.table({
            "event_type": batch.column("event_type").take(sel),
            "event_id": batch.column("event_id").take(sel),
            "cents": pa.array(cents[kidx], type=pa.int64()),
            "rnk": pa.array(rnk, type=pa.int64()),
        })

    return sized_plan(sf_dir, "events", ["event_id", "event_type", "value"],
                      flag, lambda ds: ds.map_batches(
                          flag, batch_format="pyarrow", zero_copy_batch=True))


# --------------------------------------------------------------- A100 ----
def a100_today_rank(sf_dir: str):
    """A100 — "is today weird?": the percentile rank of the LAST
    day's cent total within each type's zero-filled daily history —
    A93's last-value rank transplanted to the calendar, the one-line
    answer an on-call dashboard leads with (pct near 1 = today is a
    record, near 0 = a record drought).

    Exactness: strict/weak counts exact ints over the bounded dense
    grid; pct = ONE pinned division n_leq / n_days.

    Scale shape: G31's bounded (type, day) exchange, single-group
    widen."""

    from anomalydetection_ray.stages.detectors import _split_double


    def widen(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_pylist()
        day = np.asarray(group.column("day"), dtype=np.int64)
        xs = np.asarray(group.column("sum(x)"), dtype=np.int64)
        lo, hi = int(day.min()), int(day.max())
        span = hi - lo + 1
        types = sorted(set(et))
        out = {k: [] for k in ("event_type", "n_days", "last_cents",
                               "n_less", "n_leq", "pct_rank")}
        for t in types:
            sel = np.asarray([e == t for e in et], dtype=bool)
            dense = np.zeros(span, dtype=np.int64)
            dense[day[sel] - lo] = xs[sel]
            last = int(dense[-1])
            n_less = int((dense < last).sum())
            n_leq = int((dense <= last).sum())
            out["event_type"].append(t)
            out["n_days"].append(span)
            out["last_cents"].append(last)
            out["n_less"].append(n_less)
            out["n_leq"].append(n_leq)
            out["pct_rank"].append(_split_double(n_leq)
                                   / _split_double(span))
        return pa.table({
            "event_type": pa.array(out["event_type"],
                                   type=pa.string()),
            "n_days": pa.array(out["n_days"], type=pa.int64()),
            "last_cents": pa.array(out["last_cents"],
                                   type=pa.int64()),
            "n_less": pa.array(out["n_less"], type=pa.int64()),
            "n_leq": pa.array(out["n_leq"], type=pa.int64()),
            "pct_rank": pa.array(out["pct_rank"], type=pa.float64()),
        })

    return _daily_cents(sf_dir, widen)


# ---------------------------------------------------------------- E8 ----
def e8_ts_dod_size(sf_dir: str):
    """E8 — timestamp delta-of-delta codec surface over per-user event
    streams (the Gorilla timestamp scheme on the events table): each
    user's (ts, event_id)-ordered stream costs 8 bytes for the first
    timestamp, LEB128(zigzag(delta)) for the second, and
    LEB128(zigzag(delta-of-delta)) after that — near-constant arrival
    cadences compress to ~1 byte/event.  Emits the corpus totals and
    the compression ratio vs raw 8-byte timestamps.

    Exactness: all byte widths are exact integer threshold counts
    (E4's widths); ratio = ONE pinned division split(8*n)/split(B).

    Scale shape: ONE ``_pkey`` exchange on user; vectorized per-
    partition width arithmetic; single-row result."""
    from anomalydetection_ray.stages.detectors import _split_double
    from anomalydetection_ray.stages.runs import partition_apply

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def widths(u: np.ndarray) -> np.ndarray:
        return (1 + (u >= (1 << 7)).astype(np.int64)
                + (u >= (1 << 14)).astype(np.int64)
                + (u >= (1 << 21)).astype(np.int64)
                + (u >= (1 << 28)).astype(np.int64)
                + (u >= (1 << 35)).astype(np.int64)
                + (u >= (1 << 42)).astype(np.int64)
                + (u >= (1 << 49)).astype(np.int64)
                + (u >= (1 << 56)).astype(np.int64)
                + (u >= np.uint64(1 << 63)).astype(np.int64))

    def kernel(group: pa.Table) -> pa.Table:
        group = group.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"),
             ("event_id", "ascending")])
        n = group.num_rows
        if n == 0:
            return pa.table({
                "_one": pa.array([], type=pa.int64()),
                "n_events": pa.array([], type=pa.int64()),
                "n_users": pa.array([], type=pa.int64()),
                "n_bytes": pa.array([], type=pa.int64())})
        uid = np.asarray(group.column("user_id"), dtype=np.int64)
        ts = np.asarray(group.column("ts").cast(pa.int64()),
                        dtype=np.int64)
        starts = np.flatnonzero(np.concatenate(([True],
                                                uid[1:] != uid[:-1])))
        first = np.zeros(n, dtype=bool)
        first[starts] = True
        second = np.zeros(n, dtype=bool)
        s2 = starts + 1
        s2 = s2[s2 < n]
        second[s2] = uid[s2] == uid[s2 - 1]
        d = np.zeros(n, dtype=np.int64)
        d[1:] = ts[1:] - ts[:-1]
        dod = np.zeros(n, dtype=np.int64)
        dod[1:] = d[1:] - d[:-1]
        val = np.where(second, d, dod)      # first rows overridden below
        zz = ((val << 1) ^ (val >> 63)).astype(np.uint64)
        b = widths(zz)
        b[first] = 8
        total = int(b.sum())
        return pa.table({
            "_one": pa.array([0], type=pa.int64()),
            "n_events": pa.array([n], type=pa.int64()),
            "n_users": pa.array([int(starts.shape[0])],
                                type=pa.int64()),
            "n_bytes": pa.array([total], type=pa.int64())})

    agg = (partition_apply(ds, ["user_id"], kernel, 16)
           .groupby("_one").sum(["n_events", "n_users", "n_bytes"]))

    def widen(batch: pa.Table) -> pa.Table:
        ne = int(batch.column("sum(n_events)")[0].as_py())
        nu = int(batch.column("sum(n_users)")[0].as_py())
        nb = int(batch.column("sum(n_bytes)")[0].as_py())
        ratio = (_split_double(8 * ne) / _split_double(nb)
                 if nb > 0 else None)
        return pa.table({
            "n_events": pa.array([ne], type=pa.int64()),
            "n_users": pa.array([nu], type=pa.int64()),
            "n_bytes": pa.array([nb], type=pa.int64()),
            "compression_ratio": pa.array([ratio], type=pa.float64(),
                                          from_pandas=True)})

    return agg.map_batches(widen, batch_format="pyarrow")


# ---------------------------------------------------------------- S30 ----
def _key_skew(ds, col: str, key_name: str):
    """(key_name, n_keys, n_rows, max_group, max_share, p50_group,
    p99_group) for one key column — group sizes -> bounded size
    histogram -> exact order statistics; max_share is the single
    pinned division."""
    import pyarrow.compute as pc

    from anomalydetection_ray.stages.detectors import _split_double

    def partial(batch: pa.Table) -> pa.Table:
        g = pa.table({"k": batch.column(col)}).group_by(
            ["k"]).aggregate([([], "count_all")])
        return pa.table({"k": g.column("k"),
                         "c": pc.cast(g.column("count_all"),
                                      pa.int64())})

    sizes = (ds.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby("k").sum("c"))

    def hist(batch: pa.Table) -> pa.Table:
        t = pa.table({"size": batch.column("sum(c)").cast(pa.int64()),
                      "one": pa.array(np.ones(batch.num_rows,
                                              dtype=np.int64))})
        g = t.group_by(["size"]).aggregate([("one", "sum")])
        return pa.table({"size": g.column("size"),
                         "n": g.column("one_sum").cast(pa.int64())})

    counts = (sizes.map_batches(hist, batch_format="pyarrow")
              .groupby("size").sum("n"))

    def finalize(group: pa.Table) -> pa.Table:
        order = np.argsort(np.asarray(group.column("size"),
                                      dtype=np.int64))
        v = np.asarray(group.column("size"), dtype=np.int64)[order]
        c = np.asarray(group.column("sum(n)"), dtype=np.int64)[order]
        cum = np.cumsum(c)
        n_keys = int(cum[-1])
        n_rows = int((v * c).sum())
        p50 = int(v[int(np.searchsorted(cum,
                                        (50 * n_keys + 99) // 100))])
        p99 = int(v[int(np.searchsorted(cum,
                                        (99 * n_keys + 99) // 100))])
        mx = int(v[-1])
        return pa.table({
            "key_name": pa.array([key_name], type=pa.string()),
            "n_keys": pa.array([n_keys], type=pa.int64()),
            "n_rows": pa.array([n_rows], type=pa.int64()),
            "max_group": pa.array([mx], type=pa.int64()),
            "max_share": pa.array(
                [_split_double(mx) / _split_double(n_rows)],
                type=pa.float64()),
            "p50_group": pa.array([p50], type=pa.int64()),
            "p99_group": pa.array([p99], type=pa.int64()),
        })

    return counts.repartition(1).map_batches(finalize, batch_format="pyarrow")


def s30_skew_report(sf_dir: str):
    """S30 — exchange-skew report: for the engine's three main
    partition keys (events.user_id, events.event_type,
    lineitem.l_orderkey), the key cardinality, the hottest key's row
    share and the p50/p99 group sizes — the introspection that tells a
    planner which exchanges need salting (G2's salted path) BEFORE a
    straggler appears.  ALL-integer except the one share division per
    key.

    Scale shape: per key ONE group-size aggregate then a bounded
    size-histogram exchange; exact nearest-rank percentiles read off
    the cumulative counts."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    li = _read(sf_dir, "lineitem", ["l_orderkey"])
    a = _key_skew(ev, "user_id", "events.user_id")
    b = _key_skew(ev, "event_type", "events.event_type")
    c = _key_skew(li, "l_orderkey", "lineitem.l_orderkey")
    return a.union(b).union(c)


# ---------------------------------------------------------------- Q38 ----
def q38_diverse_topk(sf_dir: str, k: int = 10, per_type: int = 2):
    """Q38 — diversity-constrained top-k: the global top-``k`` events
    by cent value with AT MOST ``per_type`` rows per event type — the
    result-diversification primitive every retrieval surface applies
    (a plain top-k is one hot type's monoculture).  Ties (cents desc,
    event_id asc) at both levels.

    Scale shape: the per-type cap is a GROUPED block prune (each
    map task keeps per_type per type, the per-type reduce keeps
    per_type survivors), so the global sort-limit sees at most
    |types| * per_type rows — never the corpus."""
    import pyarrow.compute as pc

    from anomalydetection_ray.stages.topk import topk

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def prune(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column("value"), dtype=np.float64)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        et = np.asarray(batch.column("event_type"))
        eid = np.asarray(batch.column("event_id"), dtype=np.int64)
        order = np.lexsort((eid, -cents, et))
        et_s = et[order]
        starts = np.flatnonzero(np.concatenate(([True],
                                                et_s[1:]
                                                != et_s[:-1])))
        lens = np.diff(np.append(starts, et_s.shape[0]))
        within = np.arange(et_s.shape[0], dtype=np.int64) \
            - np.repeat(starts, lens)
        keep = order[within < per_type]
        sel = pa.array(np.sort(keep))
        return pa.table({
            "event_type": batch.column("event_type").take(sel),
            "event_id": batch.column("event_id").take(sel),
            "cents": pa.array(cents[np.sort(keep)], type=pa.int64()),
        })

    pruned = ds.map_batches(prune, batch_format="pyarrow",
                            zero_copy_batch=True)

    def refine(group: pa.Table) -> pa.Table:
        g = group.sort_by([("cents", "descending"),
                           ("event_id", "ascending")])
        return g.slice(0, per_type)

    per_type_top = pruned.groupby("event_type").map_groups(
        refine, batch_format="pyarrow")
    return topk(per_type_top, k, [("cents", "descending"),
                                  ("event_id", "ascending")])
