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
  table (distributed ``write_parquet(partition_cols=['day'])``), applies
  the tier0 policy by atomically dropping expired ``day=`` directories
  (rename-to-trash then unlink, so a reader never sees a half-deleted
  partition), and returns the surviving buckets RE-READ from the pruned
  layout — the driver oracle independently reproduces exactly the rows
  that must have survived.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DAY_US = 86_400_000_000
# (tier, keep_days); None = keep forever — coarser tiers keep longer
RETENTION_TIERS = (("tier0", 7), ("tier1", 14), ("tier2", None))


def _day_counts(sf_dir: str):
    """(day, n_events) over the events table: per-block Arrow group_by
    partials, tiny final per-day sum (one task on small input, ``sized_plan``)."""
    from anomalydetection_ray.pipelines.queries import sized_plan

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts")
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        day = np.asarray(ts.cast(pa.int64())) // DAY_US
        t = pa.table({"day": pa.array(day, type=pa.int64())})
        g = t.group_by("day").aggregate([([], "count_all")])
        return pa.table({"day": g.column("day"),
                         "n": pc.cast(g.column("count_all"), pa.int64())})

    def merge(t: pa.Table) -> pa.Table:
        g = t.group_by("day").aggregate([("n", "sum")])
        return pa.table({"day": g.column("day"), "n": g.column("n_sum")})

    return sized_plan(sf_dir, "events", ["ts"], lambda t: merge(partial(t)),
                  lambda ds: ds.map_batches(partial, batch_format="pyarrow",
                                            zero_copy_batch=True)
                  .groupby("day").map_groups(merge, batch_format="pyarrow"))


def retention_plan_events(sf_dir: str):
    """R1 planning query: per (tier, day), event count and survival under
    the tier's policy, horizon = max day (watermark) − keep_days.  The
    day grid is tiny (bounded by the corpus' time span), so collecting it
    to cross with the 3-row policy table is metadata-scale work."""
    import ray.data

    rows = _day_counts(sf_dir).take_all()
    days = np.array([r["day"] for r in rows], dtype=np.int64)
    ns = np.array([r["n"] for r in rows], dtype=np.int64)
    md = int(days.max())
    tiers, keeps, day_o, n_o, kept = [], [], [], [], []
    for tier, keep in RETENTION_TIERS:
        for d, n in zip(days.tolist(), ns.tolist()):
            tiers.append(tier)
            day_o.append(d)
            n_o.append(n)
            kept.append(1 if keep is None or d > md - keep else 0)
    return ray.data.from_arrow(pa.table({
        "tier": pa.array(tiers, type=pa.string()),
        "day": pa.array(day_o, type=pa.int64()),
        "n_events": pa.array(n_o, type=pa.int64()),
        "kept": pa.array(kept, type=pa.int64()),
    }))


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


def retention_apply_events(sf_dir: str, keep_days: int = 7):
    """R1 applied end-to-end: day-partitioned layout (distributed write) →
    partition-level expiry (``apply_retention``) → surviving buckets
    re-counted from a pruned re-read of the mutated layout.  The returned
    rows are therefore evidence of the side effect itself, and the SQL
    oracle reproduces them independently from the raw table."""
    import ray.data

    out = tempfile.mkdtemp(prefix="anomray_retention_")
    try:
        ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                                   columns=["event_id", "ts"])

        def add_day(batch: pa.Table) -> pa.Table:
            ts = batch.column("ts")
            if isinstance(ts, pa.ChunkedArray):
                ts = ts.combine_chunks()
            day = np.asarray(ts.cast(pa.int64())) // DAY_US
            return batch.append_column("day",
                                       pa.array(day, type=pa.int64()))

        ds.map_batches(add_day, batch_format="pyarrow",
                       zero_copy_batch=True).write_parquet(
            out, partition_cols=["day"])
        days = [int(n.split("=", 1)[1]) for n in os.listdir(out)
                if n.startswith("day=")]
        max_day = max(days)
        apply_retention(out, keep_days, max_day)

        # surviving counts from parquet FOOTERS of the pruned layout — a
        # pure metadata pass (no data pages read), exactly the cheapness
        # retention needs at scale; the footer row counts are evidence
        # the expired partitions are truly gone
        import pyarrow.parquet as pq

        surv_days, surv_n = [], []
        for name in sorted(os.listdir(out)):
            if not name.startswith("day="):
                continue
            d = int(name.split("=", 1)[1])
            bdir = os.path.join(out, name)
            n = sum(pq.ParquetFile(os.path.join(bdir, f)).metadata.num_rows
                    for f in os.listdir(bdir) if f.endswith(".parquet"))
            surv_days.append(d)
            surv_n.append(n)
        return ray.data.from_arrow(pa.table({
            "day": pa.array(surv_days, type=pa.int64()),
            "n_events": pa.array(surv_n, type=pa.int64()),
        }))
    finally:
        shutil.rmtree(out, ignore_errors=True)


# ------------------------------------------------------------------ R2 ----
N_SHARDS = 4


def compact_events(sf_dir: str):
    """R2 — small-file compaction, retention's sibling maintenance pass:
    a day-partitioned layout deliberately fragmented into ``shard =
    event_id % N_SHARDS`` sub-files (so the *before* file count is a
    deterministic function of the data, and therefore SQL-checkable) is
    rewritten partition-by-partition into ONE file per day.

    Scale shape: the fragment->compacted rewrite is one Ray task per day
    partition (bounded by partition size — the same unit retention drops;
    a day that outgrows one task would be sub-partitioned by the layout,
    not by compaction).  Each task writes ``.compact.tmp`` then
    ``os.replace``s it into place before unlinking the shard dirs, so a
    concurrent reader sees either the old fragments or the finished file,
    never a half-written one.  The returned rows re-read the mutated
    layout's FOOTERS — evidence the rewrite actually happened — and the
    SQL oracle reproduces (rows, before-files = distinct shards present,
    after-files = 1) independently from the raw table."""
    import ray
    import ray.data

    out = tempfile.mkdtemp(prefix="anomray_compact_")
    try:
        ds = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                                   columns=["event_id", "ts", "value"])

        def add_keys(batch: pa.Table) -> pa.Table:
            ts = batch.column("ts")
            if isinstance(ts, pa.ChunkedArray):
                ts = ts.combine_chunks()
            day = np.asarray(ts.cast(pa.int64())) // DAY_US
            eid = np.asarray(batch.column("event_id"), dtype=np.int64)
            return (batch
                    .append_column("day", pa.array(day, type=pa.int64()))
                    .append_column("shard", pa.array(eid % N_SHARDS,
                                                     type=pa.int64())))

        ds.map_batches(add_keys, batch_format="pyarrow",
                       zero_copy_batch=True).write_parquet(
            out, partition_cols=["day", "shard"])

        @ray.remote
        def compact_day(day_dir: str) -> tuple[int, int]:
            import os

            import pyarrow.parquet as pq

            frags = []
            n_before = 0
            for sh in sorted(os.listdir(day_dir)):
                if not sh.startswith("shard="):
                    continue
                sdir = os.path.join(day_dir, sh)
                for f in sorted(os.listdir(sdir)):
                    if f.endswith(".parquet"):
                        frags.append(os.path.join(sdir, f))
                n_before += 1
            tbl = pa.concat_tables(
                pq.read_table(f, columns=["event_id", "value"])
                for f in frags).sort_by("event_id")
            tmp = os.path.join(day_dir, ".compact.tmp")
            pq.write_table(tbl, tmp)
            os.replace(tmp, os.path.join(day_dir, "compacted.parquet"))
            for sh in os.listdir(day_dir):
                if sh.startswith("shard="):
                    shutil.rmtree(os.path.join(day_dir, sh))
            return n_before, tbl.num_rows

        day_dirs = sorted(os.path.join(out, n) for n in os.listdir(out)
                          if n.startswith("day="))
        results = ray.get([compact_day.remote(d) for d in day_dirs])

        import pyarrow.parquet as pq

        days, rows, before, after = [], [], [], []
        for ddir, (n_before, _) in zip(day_dirs, results):
            files = [f for f in os.listdir(ddir) if f.endswith(".parquet")]
            n = sum(pq.ParquetFile(os.path.join(ddir, f)).metadata.num_rows
                    for f in files)
            days.append(int(os.path.basename(ddir).split("=", 1)[1]))
            rows.append(n)
            before.append(n_before)
            after.append(len(files))
        return ray.data.from_arrow(pa.table({
            "day": pa.array(days, type=pa.int64()),
            "n_rows": pa.array(rows, type=pa.int64()),
            "files_before": pa.array(before, type=pa.int64()),
            "files_after": pa.array(after, type=pa.int64()),
        }))
    finally:
        shutil.rmtree(out, ignore_errors=True)
