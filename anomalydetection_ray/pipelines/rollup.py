"""P1 — the flagship rollup pipeline (SURVEY.md §3 P1).

read_parquet (Arrow fragments -> blocks) -> S3 validate/split -> M1 bucket
kernel -> [optional Q1 sort] -> S4 partitioned parquet tiers.

Everything is a stateless ``map_batches`` task over zero-copy Arrow
batches; no cross-row state anywhere, so the Ray Data streaming executor
pipelines and backpressures freely (SURVEY.md §4).  No stage materializes
the dataset; consumption happens at the sink (write_parquet) or in the
caller's aggregation.

NOTE per driver contract: nothing in this module calls ray.init() — the
caller (driver / bench.py / test fixture) owns the Ray session.
"""

from __future__ import annotations

import functools

import pyarrow as pa

from anomalydetection_ray.sources.validate import validate_batch
from anomalydetection_ray.stages.rollup import rollup_batch

SEQUENCE_COLUMNS = ["doc_id", "tokens", "n_tok", "source"]

# target bytes of compressed row groups per read task (block ~2-4x this
# in memory; sized so batch x concurrency fits worker heaps)
_READ_TARGET_BYTES = 32 * 1024 * 1024


def read_sequences(path: str, override_num_blocks: int | None = None,
                   columns: list[str] | None = None, num_cpus: float = 2):
    """S1: parquet source with explicit column pruning (SURVEY.md §2.2 S1).

    A row-group-granular direct reader: the driver scans only footers
    (metadata), packs row-group ranges into ~32 MB read units, and each
    task decodes its ranges with pyarrow C++ (`pq.read_table`).  Measured
    on this box, Ray 2.49's generic `read_parquet` scan burned ~20x the
    CPU of a direct footer-planned read on list<int32> payloads; at 100 TB
    the same plan (central metadata scan -> distributed range reads) is
    how the read should be laid out anyway.
    """
    import ray.data

    cols = columns or SEQUENCE_COLUMNS
    units = plan_read_units(path)
    packed = pack_read_units(units, override_num_blocks)

    def read_unit_rows(batch: pa.Table) -> pa.Table:
        return read_packed_units(batch.to_pydict(), cols)

    # one block per read unit and batch_size=None everywhere downstream, so
    # the streaming executor fuses read -> validate -> rollup into a single
    # task: token blocks never round-trip through the object store.  (Not
    # slot_blocks: packing units here would make the token blocks bigger.)
    ds = ray.data.from_items(packed, override_num_blocks=len(packed))
    return ds.map_batches(read_unit_rows, batch_size=None, batch_format="pyarrow",
                          num_cpus=num_cpus)


def plan_read_units(path: str, target_bytes: int = _READ_TARGET_BYTES) -> list[dict]:
    """Central (driver-side) read plan: scan parquet footers only, emit
    ~target_bytes row-group ranges.  Deterministic for a given input dir —
    the unit index doubles as the resume partition id of rollup_persist."""
    import glob as _glob
    import os

    import pyarrow.parquet as pq

    if os.path.isdir(path):
        files = sorted(
            f for f in _glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True)
        )
    else:
        files = [path]
    if not files:
        raise FileNotFoundError(f"no parquet files under {path}")
    units: list[dict] = []
    for f in files:
        md = pq.ParquetFile(f).metadata
        nrg = md.num_row_groups
        cur_start, cur_bytes = 0, 0
        for rg in range(nrg):
            cur_bytes += md.row_group(rg).total_byte_size
            if cur_bytes >= target_bytes:
                units.append({"path": f, "rg_start": cur_start, "rg_end": rg + 1,
                              "bytes": cur_bytes})
                cur_start, cur_bytes = rg + 1, 0
        if cur_start < nrg:
            units.append({"path": f, "rg_start": cur_start, "rg_end": nrg, "bytes": cur_bytes})
    return units


def fits_one_target(units: list[dict]) -> bool:
    """Whether ``units`` (dicts with planned ``bytes``) total at most one
    read target, the input one task may hold.  ``read_committed`` and the
    events queries' ``sized_plan`` pick their plan by it."""
    return sum(u["bytes"] for u in units) <= _READ_TARGET_BYTES


def pack_read_units(units: list[dict], override_num_blocks: int | None) -> list[dict]:
    """Pack row-group units into task-sized items, each tagged with a
    deterministic unit_id (the resume key) and its planned ``bytes``."""
    if override_num_blocks is not None and override_num_blocks < len(units):
        per = -(-len(units) // override_num_blocks)
        groups = [units[i : i + per] for i in range(0, len(units), per)]
    else:
        groups = [[u] for u in units]
    return [
        {
            "unit_id": k,
            "path": [u["path"] for u in g],
            "rg_start": [u["rg_start"] for u in g],
            "rg_end": [u["rg_end"] for u in g],
            "bytes": sum(u["bytes"] for u in g),
        }
        for k, g in enumerate(groups)
    ]


def slot_blocks(units: list[dict], num_cpus: float = 1,
                target_bytes: int = _READ_TARGET_BYTES) -> list[list[dict]]:
    """Split per-unit work into contiguous Ray Data blocks balanced by the
    units' ``bytes``: ``k = min(units, max(CPU slots, ceil(bytes /
    target_bytes)))`` blocks, unit i in block ``floor(k * mid_i / bytes)``
    where ``mid_i`` is the byte offset of the unit's middle.

    Each Ray Data block costs a fixed scheduling cycle (~25 ms measured on
    one core), so a block per unit pays it once per unit while only the
    slots run at once.  That matters for units far below ``target_bytes``
    (small files, file tails), and only those are packed: a block carries
    about ``bytes / k <= target_bytes``, so units of ``target_bytes`` or
    more never share a block with each other, and with ``k == units``
    every unit keeps its own block.  The CPU snapshot can only add blocks:
    a cluster whose head has no CPUs or whose workers join later still
    gets one block per ~``target_bytes`` of input.  Without a Ray session
    (the engine never starts one) every unit is its own block."""
    import itertools

    import numpy as np
    import ray

    sizes = np.array([u["bytes"] for u in units], dtype=np.float64)
    total = sizes.sum()
    if not ray.is_initialized() or total <= 0:
        return [[u] for u in units]
    slots = int(ray.cluster_resources().get("CPU", 0) // num_cpus)
    k = min(len(units), max(slots, int(-(-total // target_bytes))))
    if k == len(units):
        return [[u] for u in units]
    block = np.floor(k * (np.cumsum(sizes) - sizes / 2) / total)
    return [[u for _, u in g] for _, g in itertools.groupby(zip(block, units),
                                                             key=lambda t: t[0])]


def slot_dataset(packed: list[dict], num_cpus: float,
                 target_bytes: int = _READ_TARGET_BYTES):
    """The packed units as a Dataset with one ``slot_blocks`` block per row
    (``{"units": [unit, ...]}``); ``block_units`` flattens a batch back."""
    import ray.data

    groups = slot_blocks(packed, num_cpus, target_bytes)
    return ray.data.from_items([{"units": g} for g in groups], override_num_blocks=len(groups))


def block_units(batch: pa.Table) -> list[dict]:
    return [u for g in batch.column("units").to_pylist() for u in g]


def read_committed(root: str):
    """Read the committed ``root/unit=<k>/data.parquet`` files of a persist
    run back as a Dataset.  ``read_parquet`` splits files among its read
    tasks by count, not bytes, so only output of at most one read target
    gets ``slot_blocks`` tasks; larger output keeps Ray Data's default."""
    import glob
    import os

    import ray.data

    files = [{"bytes": os.path.getsize(f)} for f in glob.glob(os.path.join(root, "*", "*.parquet"))]
    n = len(slot_blocks(files)) if fits_one_target(files) else 0
    return ray.data.read_parquet(root, override_num_blocks=n or None)


def write_unit(table: pa.Table, udir: str) -> None:
    """Atomically write one unit's ``udir/data.parquet`` (tmp + rename); a
    write that fails or is interrupted (task cancelled) leaves no tmp."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(udir, exist_ok=True)
    tmp = os.path.join(udir, ".tmp-data.parquet")
    try:
        pq.write_table(table, tmp)
        os.replace(tmp, os.path.join(udir, "data.parquet"))
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_packed_units(batch, cols: list[str]) -> pa.Table:
    import pyarrow.parquet as pq

    tbls = []
    for paths, rga, rgb in zip(batch["path"], batch["rg_start"], batch["rg_end"]):
        for p, a, b in zip(paths, rga, rgb):
            pf = pq.ParquetFile(p)
            tbls.append(pf.read_row_groups(list(range(a, b)), columns=cols))
    return pa.concat_tables(tbls)


def validated(ds, num_cpus: float = 2):
    """S3 as a dataset stage.

    ``num_cpus=2`` (uniform across read/validate/rollup so the executor can
    fuse them into one task): the token kernels are memory-bandwidth-bound,
    and one task per hardware thread oversubscribes the memory system —
    measured on this node class, 2 vCPUs per task is ~1.7x faster than 1
    at the same cluster size.  Stage-level knob, overridable per pipeline."""
    return ds.map_batches(validate_batch, batch_format="pyarrow", zero_copy_batch=True,
                          num_cpus=num_cpus)


def rollup_pipeline(ds, policy: str = "locf", num_cpus: float = 2):
    """validate + rollup; returns the tier1+tier2 Dataset (lazy).  Whole
    blocks go to the kernel, which bounds its own temporaries
    (``SLICE_TOKENS``)."""
    kernel = functools.partial(rollup_batch, policy=policy)
    return validated(ds, num_cpus=num_cpus).map_batches(
        kernel, batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
        num_cpus=num_cpus,
    )


def tiers_checksum(tiers: pa.Table) -> str:
    """Deterministic content hash of one unit's tier rows: the Arrow IPC
    stream bytes of the (chunk-normalized) table.  Stored in the manifest's
    lineage column and surfaced in the persist summary, so rows-only driver
    checks pin the rolled-up CONTENT, not just row counts."""
    import hashlib
    import io

    t = tiers.combine_chunks()
    sink = io.BytesIO()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return hashlib.md5(sink.getvalue()).hexdigest()[:16]


def write_tiers(tiers_ds, out_dir: str):
    """S4: partitioned parquet tier sink — one directory per tier so a
    resumed/verifying run can address tiers independently."""
    tiers_ds.write_parquet(out_dir, partition_cols=["tier"])


def topk_anomalies(tiers_ds, k: int = 100, tier: int = 1):
    """Q2: the reference family's 'report anomalies' surface.  Map-side
    block prune + tiny final sort (stages/topk.py) instead of a global
    sort shuffle; deterministic tiebreak on (doc_id, bucket)."""
    from anomalydetection_ray.stages.topk import topk

    return topk(
        tiers_ds.filter(expr=f"tier == {tier}"),
        k,
        [("anomaly_score", "descending"), ("doc_id", "ascending"), ("bucket", "ascending")],
    )


def rollup_persist(
    path: str,
    out_dir: str,
    policy: str = "locf",
    resume: bool = True,
    override_num_blocks: int | None = None,
    num_cpus: float = 2,
):
    """Resumable P1: per-read-unit tier output + atomic manifest, NO shuffle.

    Each task takes one ``slot_blocks`` block of read units and handles
    them one at a time: it reads a unit's row-group ranges, validates,
    rolls up, writes ``out_dir/tiers/unit=<k>/data.parquet`` atomically and
    commits the unit's manifest row (unit_id as the partition key; lineage
    = the input row-group ranges) before it reads the next unit.  So peak
    memory is one unit per task, and a task that fails keeps the units it
    committed before the failure.  ``resume=True`` skips committed units
    before any read happens — the deterministic footer plan makes unit ids
    stable.  Returns the per-unit summary Dataset (consume to execute)."""
    import os as _os
    import time as _time

    import pyarrow.compute as pc
    import ray.data

    from anomalydetection_ray.constants import ENGINE_VERSION
    from anomalydetection_ray.state.manifest import finished_part_ids, write_manifest_row

    summary = pa.schema([("unit_id", pa.int32()), ("rows_emitted", pa.int64()),
                         ("tokens_processed", pa.int64()), ("tiers_checksum", pa.string())])
    units = plan_read_units(path)
    packed = pack_read_units(units, override_num_blocks)
    if resume:
        done = finished_part_ids(out_dir)
        packed = [u for u in packed if u["unit_id"] not in done]
    if not packed:
        return ray.data.from_arrow(summary.empty_table())

    def persist_unit(u: dict) -> dict:
        # one unit's tables are freed on return, before the next unit is read
        uid, paths, rga, rgb = u["unit_id"], u["path"], u["rg_start"], u["rg_end"]
        t0 = _time.monotonic()
        raw = read_packed_units({"path": [paths], "rg_start": [rga], "rg_end": [rgb]},
                                SEQUENCE_COLUMNS)
        v = validate_batch(raw)
        tiers = rollup_batch(v, policy=policy)
        write_unit(tiers, _os.path.join(out_dir, "tiers", f"unit={uid:06d}"))
        tokens = int(pc.sum(v.column("n_tok")).as_py() or 0)
        csum = tiers_checksum(tiers)
        write_manifest_row(
            out_dir,
            {
                "part_id": int(uid),
                "input_fragments": [f"{p}:{a}-{b}" for p, a, b in zip(paths, rga, rgb)],
                "encoder_state_hash": csum,
                "rows_emitted": tiers.num_rows,
                "tokens_processed": tokens,
                "wall_s": _time.monotonic() - t0,
                "engine_version": ENGINE_VERSION,
            },
        )
        return {"unit_id": int(uid), "rows_emitted": tiers.num_rows,
                "tokens_processed": tokens, "tiers_checksum": csum}

    def process(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pylist([persist_unit(u) for u in block_units(batch)],
                                    schema=summary)

    return slot_dataset(packed, num_cpus).map_batches(
        process, batch_size=None, batch_format="pyarrow", num_cpus=num_cpus)


def read_tiers(out_dir: str, tier: int | None = None):
    """Read committed rollup tiers back as a Dataset."""
    ds = read_committed(f"{out_dir}/tiers")
    if tier is not None:
        ds = ds.filter(expr=f"tier == {tier}")
    return ds
