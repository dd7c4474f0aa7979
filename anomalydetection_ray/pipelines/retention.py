"""R1 — retention / TTL expiry for the tiered rollup layouts.

The third noun of the north star ("rollup + downsample + retention"):
each tier keeps a trailing window of time buckets (raw tier0 the
shortest, coarser tiers longer), and expiry is a PARTITION-LEVEL
operation — the persisted layouts are hive-partitioned by day bucket, so
expiring data is a metadata walk that drops whole directories, never a
row-level scan.  At 100 TB this is the difference between a retention
pass that runs in seconds (list + unlink of expired partitions) and one
that rewrites the corpus.

Two surfaces:

- ``retention_plan_events`` — the SQL-checkable planning query: per
  (tier, day bucket), the event count and whether the bucket survives
  each tier's policy, horizon-anchored at the corpus' max day (watermark
  semantics: retention follows the newest data, not wall-clock, so a
  backfilled corpus plans identically).
- ``retention_apply_events`` — the side-effectful form, ALSO
  SQL-checked: materializes a day-partitioned layout of the events
  table, applies the tier0 policy by atomically dropping expired
  ``day=`` directories (rename-to-trash then unlink, so a reader never
  sees a half-deleted partition), and returns the surviving buckets
  RE-READ from the pruned layout — the driver oracle independently
  reproduces exactly the rows that must have survived.

``compact_events`` (R2) is their sibling maintenance pass.  All three run
as ONE task when the events input fits one read target (``sized_plan``):
that task writes the layout, prunes or compacts it and counts from its
footers.  Only above one read target do they keep the distributed plan:
a ``write_parquet(partition_cols=...)`` exchange and, for compaction, one
Ray task per day partition.  That threshold was measured for these
queries too (``tools/plan_crossover.py``): the one task applied retention
2.5-6x faster at every size; it compacted 1.9-3x faster on one CPU slot,
and on four slots near the target it and the per-day tasks were within
noise of each other.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

DAY_US = 86_400_000_000
# (tier, keep_days); None = keep forever — coarser tiers keep longer
RETENTION_TIERS = (("tier0", 7), ("tier1", 14), ("tier2", None))


def _with_day(batch: pa.Table) -> pa.Table:
    ts = batch.column("ts")
    if isinstance(ts, pa.ChunkedArray):
        ts = ts.combine_chunks()
    day = np.asarray(ts.cast(pa.int64())) // DAY_US
    return batch.append_column("day", pa.array(day, type=pa.int64()))


def retention_plan_events(sf_dir: str):
    """R1 planning query: per (tier, day), event count and survival under
    the tier's policy, horizon = max day (watermark) − keep_days.  Per-block
    Arrow (day, n) partials, a per-day sum, then the day grid — tiny,
    bounded by the corpus' time span — crossed with the 3-row policy table
    on one block (one task on small input, ``sized_plan``)."""
    from anomalydetection_ray.pipelines.queries import sized_plan

    def partial(batch: pa.Table) -> pa.Table:
        g = _with_day(batch).group_by("day").aggregate([([], "count_all")])
        return pa.table({"day": g.column("day"),
                         "n": pc.cast(g.column("count_all"), pa.int64())})

    def merge(t: pa.Table) -> pa.Table:
        g = t.group_by("day").aggregate([("n", "sum")])
        return pa.table({"day": g.column("day"), "n": g.column("n_sum")})

    def cross(days: pa.Table) -> pa.Table:
        if not days.num_rows:
            return pa.table({})
        day = np.asarray(days.column("day"), dtype=np.int64)
        md = int(day.max())
        return pa.concat_tables(pa.table({
            "tier": pa.array([tier] * len(day), type=pa.string()),
            "day": pa.array(day, type=pa.int64()),
            "n_events": days.column("n"),
            "kept": pa.array(np.ones_like(day) if keep is None
                             else (day > md - keep).astype(np.int64), type=pa.int64()),
        }) for tier, keep in RETENTION_TIERS)

    return sized_plan(sf_dir, "events", ["ts"], lambda t: cross(merge(partial(t))),
                      lambda ds: ds.map_batches(partial, batch_format="pyarrow",
                                                zero_copy_batch=True)
                      .groupby("day").map_groups(merge, batch_format="pyarrow")
                      .repartition(1).map_batches(cross, batch_format="pyarrow"))


def apply_retention(layout_dir: str, keep_days: int, max_day: int) -> int:
    """Drop expired ``day=<d>`` hive partitions (d <= max_day − keep_days)
    from a layout: atomic rename-to-trash then delete, so concurrent
    readers see either the whole partition or none of it.  Returns the
    number of partitions dropped.  Pure directory metadata — never opens
    a data file."""
    dropped = 0
    for name in sorted(os.listdir(layout_dir)):
        if not name.startswith("day="):
            continue
        day = int(name.split("=", 1)[1])
        if day <= max_day - keep_days:
            src = os.path.join(layout_dir, name)
            trash = os.path.join(layout_dir, f"._trash_{name}")
            os.replace(src, trash)
            shutil.rmtree(trash)
            dropped += 1
    return dropped


def _day_dirs(layout_dir: str) -> list[tuple[int, str]]:
    """(day, dir) of the layout's ``day=<d>`` partitions, by day."""
    return sorted((int(n.split("=", 1)[1]), os.path.join(layout_dir, n))
                  for n in os.listdir(layout_dir) if n.startswith("day="))


def _footer_rows(ddir: str) -> tuple[int, int]:
    """(rows, files) of the parquet files directly in ``ddir``, from their
    FOOTERS — a pure metadata pass (no data pages read), exactly the
    cheapness retention needs at scale; the counts are evidence of what
    the layout holds after its mutation."""
    files = [f for f in os.listdir(ddir) if f.endswith(".parquet")]
    return sum(pq.ParquetFile(os.path.join(ddir, f)).metadata.num_rows
               for f in files), len(files)


def _on_layout(sf_dir: str, prefix: str, columns, keyed, partition_cols, finish):
    """``finish(layout_dir, run)`` over a hive layout of ``events`` written
    to a fresh temp dir, partitioned by ``partition_cols`` of
    ``keyed(batch)``; ``run(f, args)`` maps ``f`` over ``args``.  On input
    of one read target (``sized_plan``) ONE task writes the layout, with
    the writer Ray's ``write_parquet`` uses, and runs ``finish`` in
    place; above it, a distributed ``write_parquet`` and ``finish`` on the
    driver with one Ray task per ``run`` item.  Both plans finish before
    this returns, so the layout can be removed here.  The one task starts
    by clearing the layout dir, so a retry after a worker death rewrites
    the layout from scratch instead of failing on the half-written one.
    The per-item tasks are not retried: a ``compact_day`` retried after
    it unlinked some shards would compact only the rest."""
    import ray
    import ray.data

    from anomalydetection_ray.pipelines.queries import sized_plan

    out = tempfile.mkdtemp(prefix=prefix)

    def whole(t: pa.Table) -> pa.Table:
        import pyarrow.dataset as pads

        shutil.rmtree(out, ignore_errors=True)
        # a partition per distinct key at most, so never more than rows
        pads.write_dataset(keyed(t), out, format="parquet", partitioning=partition_cols,
                           partitioning_flavor="hive", max_partitions=t.num_rows)
        return finish(out, lambda f, args: [f(a) for a in args])

    def exchange(ds):
        ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True) \
            .write_parquet(out, partition_cols=partition_cols)
        return ray.data.from_arrow(finish(out, lambda f, args: ray.get(
            list(map(ray.remote(max_retries=0)(f).remote, args)))))

    try:
        return sized_plan(sf_dir, "events", columns, whole, exchange)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def retention_apply_events(sf_dir: str, keep_days: int = 7):
    """R1 applied end-to-end: day-partitioned layout → partition-level
    expiry (``apply_retention``) → surviving buckets re-counted from the
    footers of the pruned layout (``_on_layout``: one task on input of one
    read target).  The returned rows are therefore evidence of the side
    effect itself, and the SQL oracle reproduces them independently from
    the raw table."""
    def survivors(out: str, run) -> pa.Table:
        days = _day_dirs(out)
        if not days:
            return pa.table({})
        apply_retention(out, keep_days, days[-1][0])
        kept = [(d, _footer_rows(ddir)[0]) for d, ddir in _day_dirs(out)]
        return pa.table({"day": pa.array([d for d, _ in kept], type=pa.int64()),
                         "n_events": pa.array([n for _, n in kept], type=pa.int64())})

    return _on_layout(sf_dir, "anomray_retention_", ["event_id", "ts"], _with_day,
                      ["day"], survivors)


# ------------------------------------------------------------------ R2 ----
N_SHARDS = 4


def _with_day_shard(batch: pa.Table) -> pa.Table:
    eid = np.asarray(batch.column("event_id"), dtype=np.int64)
    return _with_day(batch).append_column("shard", pa.array(eid % N_SHARDS, type=pa.int64()))


def compact_day(day_dir: str) -> int:
    """Rewrite the ``shard=<s>`` fragments of one day partition into ONE
    ``compacted.parquet`` sorted by event_id: ``.compact.tmp`` is written
    then ``os.replace``d into place before the shard dirs are unlinked, so
    a concurrent reader sees either the old fragments or the finished
    file, never a half-written one.  Returns the number of shards it
    replaced."""
    shards = sorted(os.path.join(day_dir, sh) for sh in os.listdir(day_dir)
                    if sh.startswith("shard="))
    tbl = pa.concat_tables(
        pq.ParquetFile(os.path.join(sdir, f)).read(columns=["event_id", "value"])
        for sdir in shards for f in sorted(os.listdir(sdir))
        if f.endswith(".parquet")).sort_by("event_id")
    tmp = os.path.join(day_dir, ".compact.tmp")
    pq.write_table(tbl, tmp)
    os.replace(tmp, os.path.join(day_dir, "compacted.parquet"))
    for sdir in shards:
        shutil.rmtree(sdir)
    return len(shards)


def compact_events(sf_dir: str):
    """R2 — small-file compaction, retention's sibling maintenance pass:
    a day-partitioned layout deliberately fragmented into ``shard =
    event_id % N_SHARDS`` sub-files (so the *before* file count is a
    deterministic function of the data, and therefore SQL-checkable) is
    rewritten partition-by-partition into ONE file per day
    (``compact_day``).

    Scale shape: on input of one read target one task writes and compacts
    the whole layout (``_on_layout``); above it, the layout is written by
    a distributed ``write_parquet`` and compacted by one Ray task per day
    partition (bounded by partition size — the same unit retention drops;
    a day that outgrows one task would be sub-partitioned by the layout,
    not by compaction).  The returned rows re-read the mutated layout's
    FOOTERS — evidence the rewrite actually happened — and the SQL oracle
    reproduces (rows, before-files = distinct shards present, after-files
    = 1) independently from the raw table."""
    def compacted(out: str, run) -> pa.Table:
        days = _day_dirs(out)
        if not days:
            return pa.table({})
        before = run(compact_day, [ddir for _, ddir in days])
        after = [_footer_rows(ddir) for _, ddir in days]
        return pa.table({
            "day": pa.array([d for d, _ in days], type=pa.int64()),
            "n_rows": pa.array([n for n, _ in after], type=pa.int64()),
            "files_before": pa.array(before, type=pa.int64()),
            "files_after": pa.array([f for _, f in after], type=pa.int64()),
        })

    return _on_layout(sf_dir, "anomray_compact_", ["event_id", "ts", "value"],
                      _with_day_shard, ["day", "shard"], compacted)
