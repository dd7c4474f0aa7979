"""P2 — ingest/encode to the tier0 retention tier, resumable (SURVEY.md §3).

read -> S3 validate/split -> assign hash partition (crc32(doc_id) %
num_parts — the ONE partitioning key, reused by dedup and rollup-merge) ->
J2 resume filter (drop rows of already-committed partitions BEFORE the
shuffle) -> explicit groupby("pid") shuffle -> EncodePartition actor pool
(partition-local Gorilla/DoD state) -> atomic per-partition tier0 parquet
+ manifest commit.

Kill/resume contract: a partition either has its manifest row (data file
complete — manifest is written after the atomic data rename) or it is
fully absent; re-running with the same input + num_parts recomputes only
absent partitions and the final output is byte-identical to a single
uninterrupted run (property-tested in tests/test_ingest_resume.py).
"""

from __future__ import annotations

import functools

import pyarrow as pa

from anomalydetection_ray.pipelines.rollup import read_committed, validated
from anomalydetection_ray.stages.encode import EncodePartition, assign_partition, decode_batch
from anomalydetection_ray.state.manifest import finished_part_ids, manifest_table


def ingest_pipeline(
    ds,
    out_dir: str,
    num_parts: int = 64,
    resume: bool = True,
    encoder_concurrency: int | tuple[int, int] | None = None,
):
    """Returns the per-partition summary Dataset (consume it to execute).

    ``num_parts`` is the partitioning contract — a resumed run MUST reuse
    the value (it is implicitly recorded by the manifest file names)."""
    # num_cpus=1 throughout P2: the encode loop is CPU-bound (not
    # memory-bandwidth-bound like the rollup kernel), and >1-cpu tasks can
    # starve the encoder actor pool outright on tiny clusters (a 2-cpu
    # session with a 2-cpu read task + a reserved actor CPU deadlocks).
    v = validated(ds, num_cpus=1)
    part = v.map_batches(
        functools.partial(assign_partition, num_parts=num_parts),
        batch_format="pyarrow",
        zero_copy_batch=True,
        num_cpus=1,
    )
    if resume:
        done = finished_part_ids(out_dir)
        if done:
            done_list = sorted(done)
            part = part.filter(expr=f"pid not in {done_list}")
    import ray.data

    if encoder_concurrency is None:
        encoder_concurrency = (1, 8)
    if isinstance(encoder_concurrency, int):
        compute = ray.data.ActorPoolStrategy(size=encoder_concurrency)
    else:
        compute = ray.data.ActorPoolStrategy(
            min_size=encoder_concurrency[0], max_size=encoder_concurrency[1]
        )
    grouped = part.groupby("pid")
    return grouped.map_groups(
        EncodePartition,
        fn_constructor_kwargs={"out_dir": out_dir},
        compute=compute,
        batch_format="pyarrow",
    )


def ingest_persist(
    path: str,
    out_dir: str,
    resume: bool = True,
    override_num_blocks: int | None = None,
    num_cpus: float = 1,
    target_unit_bytes: int | None = None,
):
    """Resumable P2 without a shuffle (the 100-TB path): the encoder
    partition = a deterministic footer-planned read unit, so no byte of
    token data ever crosses the wire.  Each task takes one ``slot_blocks``
    block of units and handles them one at a time: it reads a unit's
    row-group ranges, validates/splits, encodes (Gorilla + a
    partition-local DoD n_tok stream), writes
    ``out_dir/tier0/unit=<k>/data.parquet`` atomically and commits the
    unit's manifest row before it reads the next unit, so peak memory is
    one unit per task and a failed task keeps its committed units.  Use
    ``ingest_pipeline`` instead when rows must be co-located by doc_id hash
    (its groupby shuffle moves all data and is ~10x more expensive;
    SURVEY.md §4 skew notes apply there)."""
    import os as _os
    import time as _time

    import numpy as np
    import pyarrow.compute as pc
    import ray.data

    from anomalydetection_ray.codecs import state_hash
    from anomalydetection_ray.constants import ENGINE_VERSION
    from anomalydetection_ray.pipelines.rollup import (
        _READ_TARGET_BYTES,
        SEQUENCE_COLUMNS,
        block_units,
        pack_read_units,
        plan_read_units,
        read_packed_units,
        slot_dataset,
        write_unit,
    )
    from anomalydetection_ray.sources.validate import validate_batch
    from anomalydetection_ray.stages.encode import SUMMARY_SCHEMA, encode_rows
    from anomalydetection_ray.state.manifest import finished_part_ids, write_manifest_row

    target = _READ_TARGET_BYTES if target_unit_bytes is None else target_unit_bytes
    packed = pack_read_units(plan_read_units(path, target_bytes=target), override_num_blocks)
    if resume:
        done = finished_part_ids(out_dir)
        packed = [u for u in packed if u["unit_id"] not in done]
    if not packed:
        return ray.data.from_arrow(SUMMARY_SCHEMA.empty_table())

    def persist_unit(u: dict) -> dict:
        # one unit's tables are freed on return, before the next unit is read
        uid, paths, rga, rgb = u["unit_id"], u["path"], u["rg_start"], u["rg_end"]
        t0 = _time.monotonic()
        raw = read_packed_units(
            {"path": [paths], "rg_start": [rga], "rg_end": [rgb]}, SEQUENCE_COLUMNS
        )
        v = validate_batch(raw)
        tier0, dod = encode_rows(v)
        write_unit(tier0, _os.path.join(out_dir, "tier0", f"unit={uid:06d}"))
        tokens = int(np.asarray(tier0.column("n_tok"), dtype=np.int64).sum())
        enc_bytes = int(pc.sum(pc.binary_length(tier0.column("gorilla_xor"))).as_py() or 0)
        sh = state_hash(dod)
        wall = _time.monotonic() - t0
        write_manifest_row(
            out_dir,
            {
                "part_id": int(uid),
                "input_fragments": [f"{p}:{a}-{b}" for p, a, b in zip(paths, rga, rgb)],
                "encoder_state_hash": sh,
                "rows_emitted": tier0.num_rows,
                "tokens_processed": tokens,
                "wall_s": wall,
                "engine_version": ENGINE_VERSION,
            },
        )
        return {"part_id": int(uid), "rows_emitted": tier0.num_rows,
                "tokens_processed": tokens, "encoded_bytes": enc_bytes,
                "encoder_state_hash": sh, "wall_s": wall}

    def process(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pylist([persist_unit(u) for u in block_units(batch)],
                                    schema=SUMMARY_SCHEMA)

    return slot_dataset(packed, num_cpus, target).map_batches(
        process, batch_size=None, batch_format="pyarrow", num_cpus=num_cpus)


def read_tier0(out_dir: str):
    """Read the committed tier0 partitions back as a Dataset."""
    return read_committed(f"{out_dir}/tier0")


def verify_tier0(out_dir: str):
    """P3 scale-path verification: decode every committed part and check
    its checksum (stateless E3 stage).  Returns Dataset of per-row
    verdicts; aggregate checksum_ok for the gate."""
    return read_tier0(out_dir).map_batches(
        decode_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def ingest_manifest(out_dir: str) -> pa.Table:
    """The lineage/checkpoint table (one row per committed partition)."""
    return manifest_table(out_dir)
