"""The engine's partition-granular key exchange and the kernels built on it.

``groupby(keys).map_groups(fn)`` costs one Python call per group — fine
for thousands of groups, hopeless for 10^9.  ``partition_apply`` does the
exchange once at PARTITION granularity instead: every row gets a
deterministic ``_pkey = hash(keys) % num_partitions`` (vectorized siphash
via ``pd.util.hash_array``, fixed key -> stable across processes), the
groupby exchanges on that single int column, and the kernel runs once per
partition on the whole partition, without ``_pkey`` — per-group Python
work is gone.  (With ``DataContext.shuffle_strategy = HASH_SHUFFLE`` the
same shape could use ``repartition(keys=...)``; the groupby form works
under the default sort shuffle too.)

``partition_apply`` is the one user-, key- or bucket-partitioned exchange
of the query and dedup pipelines; ``keep_first_by`` (grouped first /
distinct) and ``agg_by`` (grouped sum/min/max/count/first/last) are
kernels on it.  Two exchanges tag rows themselves: J3's two-sided union in
``stages/join.py``, which tags both sides before one groupby, and the
distributed G1 merge in ``stages/merge.py``, which keys on its own
``bucket2`` column.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

PKEY = "_pkey"


def configure_shuffle(strategy: str | None = None) -> str:
    """Select the all-to-all exchange implementation for every ``_pkey``
    groupby in the engine: ``partition_apply`` (and with it
    ``keep_first_by`` and ``agg_by``), J3's two-sided join and the G1
    merge.

    ``strategy``: ``"hash"`` (Ray's hash-shuffle aggregators — the
    cluster-native form: rows route straight to their reducer, no global
    sort), ``"sort-pull"`` / ``"sort-push"`` (sort-based shuffles), or
    None to read ``$ANOMRAY_SHUFFLE`` (unset -> leave Ray's default).
    Sets the session ``DataContext``, so call it once after ``ray.init``
    (bench.py / cli do); operators never mutate the context themselves.
    Outputs are strategy-independent — every per-partition kernel sorts
    its own partition — which is pytest-gated."""
    import os

    import ray.data
    from ray.data.context import ShuffleStrategy

    strategy = strategy or os.environ.get("ANOMRAY_SHUFFLE", "")
    mapping = {
        "hash": ShuffleStrategy.HASH_SHUFFLE,
        "sort-pull": ShuffleStrategy.SORT_SHUFFLE_PULL_BASED,
        "sort-push": ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED,
    }
    ctx = ray.data.DataContext.get_current()
    if strategy:
        if strategy not in mapping:
            raise ValueError(f"unknown shuffle strategy {strategy!r}; "
                             f"expected one of {sorted(mapping)}")
        ctx.shuffle_strategy = mapping[strategy]
        if strategy == "hash":
            # Size the aggregator pool to the cluster: Ray's default (64
            # actors at 0.25 CPU = 16 CPUs) deadlocks a small session —
            # map tasks hold every slot and the aggregators never start.
            import ray

            total = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
            ctx.max_hash_shuffle_aggregators = max(2, total // 4)
            ctx.default_hash_shuffle_parallelism = max(16, total * 4)
    return str(ctx.shuffle_strategy)


def add_partition_key(batch: pa.Table, keys: list[str], num_partitions: int) -> pa.Table:
    """Deterministic combined hash of ``keys`` mod num_partitions, vectorized."""
    import pandas as pd

    h = np.zeros(batch.num_rows, dtype=np.uint64)
    for k in keys:
        c = batch.column(k)
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        if pa.types.is_string(c.type) or pa.types.is_large_string(c.type):
            arr = np.asarray(c.to_pandas(), dtype=object)
        else:
            arr = c.to_numpy(zero_copy_only=False)
        h = h * np.uint64(1000003) + pd.util.hash_array(arr, categorize=False)
    return batch.append_column(PKEY, pa.array(h % np.uint64(num_partitions), type=pa.int32()))


def run_starts(batch: pa.Table, keys: list[str]) -> np.ndarray:
    """Start indices of equal-``keys`` runs in a batch sorted by keys."""
    n = batch.num_rows
    neq = np.zeros(max(n - 1, 0), dtype=bool)
    for k in keys:
        c = batch.column(k)
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        neq |= np.asarray(pc.not_equal(c.slice(1), c.slice(0, n - 1)))
    return np.concatenate((np.zeros(1, dtype=np.int64), np.flatnonzero(neq) + 1))


def _first_of_runs(batch: pa.Table, keys: list[str], order_by: list[str]) -> pa.Table:
    if batch.num_rows == 0:
        return batch
    sort_keys = [(k, "ascending") for k in (*keys, *order_by)]
    batch = batch.sort_by(sort_keys)
    starts = run_starts(batch, keys)
    return batch.take(pa.array(starts, type=pa.int64()))


def keep_first_by(ds, keys: list[str], order_by: list[str] | None = None,
                  num_partitions: int = 64):
    """One row per distinct ``keys`` value: the first under ascending
    ``keys + order_by`` order (deterministic tiebreak).  Exactly equivalent
    to ``groupby(keys).map_groups(sort + take first)``."""
    kernel = functools.partial(_first_of_runs, keys=keys,
                               order_by=order_by or [])
    return partition_apply(ds, keys, kernel, num_partitions)


def partition_apply(ds, keys: list[str], kernel, num_partitions: int = 64):
    """One hash exchange on ``keys`` at PARTITION granularity, then
    ``kernel(partition_table)`` once per partition (``num_partitions``
    Python calls TOTAL, independent of key cardinality).  The kernel
    receives the whole partition WITHOUT the ``_pkey`` column and must
    handle many key groups itself (sort + ``run_starts`` + reduceat) —
    the scale-safe replacement for ``groupby(keys).map_groups(fn)`` on
    high-cardinality keys (vocab words, user ids, doc ids)."""
    tagged = ds.map_batches(
        functools.partial(add_partition_key, keys=keys,
                          num_partitions=num_partitions),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def run(group: pa.Table) -> pa.Table:
        if PKEY in group.column_names:
            group = group.drop_columns([PKEY])
        return kernel(group)

    return tagged.groupby(PKEY).map_groups(run, batch_format="pyarrow")


_REDUCERS = {
    "sum": lambda v, s: np.add.reduceat(v, s),
    "min": lambda v, s: np.minimum.reduceat(v, s),
    "max": lambda v, s: np.maximum.reduceat(v, s),
}


def _np_col(batch: pa.Table, name: str) -> np.ndarray:
    c = batch.column(name)
    if isinstance(c, pa.ChunkedArray):
        c = c.combine_chunks()
    return c.to_numpy(zero_copy_only=False)


def agg_by(ds, keys: list[str], aggs: list[tuple[str, str, str]],
           num_partitions: int = 64):
    """Vectorized grouped aggregation: one row per distinct ``keys``
    value with each ``(in_col, kind, out_col)`` of ``aggs`` applied,
    ``kind`` in ``{"sum", "min", "max", "count", "first", "last"}``.
    Exactly ``groupby(keys).agg(...)`` but with ONE ``_pkey`` exchange
    and per-partition C-level sort + ``ufunc.reduceat`` — zero per-group
    Python.  Integer sums reduce in int64 (exact, same as the per-group
    form); ``first``/``last`` are under ascending ``keys`` order only
    (deterministic when the value is constant per group — pass an
    explicit kernel to :func:`partition_apply` otherwise)."""

    def kernel(part: pa.Table) -> pa.Table:
        out_fields: list[tuple[str, pa.DataType]] = []
        for in_col, kind, out_col in aggs:
            t = (pa.int64() if kind == "count"
                 else part.schema.field(in_col).type)
            out_fields.append((out_col, t))
        if part.num_rows == 0:
            cols = {k: part.column(k) for k in keys}
            cols.update({o: pa.array([], type=t) for o, t in out_fields})
            return pa.table(cols)
        part = part.sort_by([(k, "ascending") for k in keys])
        starts = run_starts(part, keys)
        ends = np.append(starts[1:], part.num_rows)
        take_starts = pa.array(starts, type=pa.int64())
        cols = {k: part.column(k).take(take_starts) for k in keys}
        for in_col, kind, out_col in aggs:
            if kind == "count":
                cols[out_col] = pa.array(ends - starts, type=pa.int64())
            elif kind == "first":
                cols[out_col] = part.column(in_col).take(take_starts)
            elif kind == "last":
                cols[out_col] = part.column(in_col).take(
                    pa.array(ends - 1, type=pa.int64()))
            else:
                v = _np_col(part, in_col)
                out_t = part.schema.field(in_col).type
                if v.dtype == np.bool_:
                    red = _REDUCERS[kind](v.astype(np.int8), starts)
                    cols[out_col] = pa.array(red.astype(bool), type=out_t)
                else:
                    cols[out_col] = pa.array(_REDUCERS[kind](v, starts),
                                             type=out_t)
        return pa.table(cols)

    return partition_apply(ds, keys, kernel, num_partitions=num_partitions)
