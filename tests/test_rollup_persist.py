"""Resumable P1 (rollup_persist): kill/resume == single run, no shuffle."""

import os
import pathlib
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from anomalydetection_ray.oracle import TIER_SCHEMA, rollup_table
from anomalydetection_ray.sources.fixtures import fixture_table
from tests.test_rollup_engine import assert_tiers_bitequal


@pytest.fixture(scope="module")
def seq_dir(tmp_path_factory):
    tbl = fixture_table(include_giant=False)
    d = tmp_path_factory.mktemp("seqs_persist")
    for i, lo in enumerate(range(0, tbl.num_rows, 20)):
        pq.write_table(tbl.slice(lo, 20), d / f"f{i:03d}.parquet", row_group_size=5)
    return str(d), tbl


def _run(path, out, resume=True):
    from anomalydetection_ray.pipelines.rollup import rollup_persist

    return rollup_persist(path, out, resume=resume, override_num_blocks=8).take_all()


def test_persist_matches_oracle(ray_session, seq_dir, tmp_path):
    path, tbl = seq_dir
    out = str(tmp_path / "o1")
    summary = _run(path, out)
    assert 1 < len(summary) <= 8  # packed into <=8 units (ceil division)
    from anomalydetection_ray.pipelines.rollup import read_tiers

    got = pq.read_table(os.path.join(out, "tiers")).select(TIER_SCHEMA.names).cast(TIER_SCHEMA)
    t1, t2 = rollup_table(tbl)
    assert_tiers_bitequal(got, pa.concat_tables([t1, t2]))
    # read_tiers round trip + tier filter
    n1 = read_tiers(out, tier=1).count()
    assert n1 == t1.num_rows


def test_persist_resume(ray_session, seq_dir, tmp_path):
    path, _ = seq_dir
    full, partial = str(tmp_path / "full"), str(tmp_path / "part")
    _run(path, full)
    _run(path, partial)
    from anomalydetection_ray.state.manifest import finished_part_ids, manifest_dir

    killed = [0, 3, 6]
    for uid in killed:
        shutil.rmtree(os.path.join(partial, "tiers", f"unit={uid:06d}"))
        os.remove(os.path.join(manifest_dir(partial), f"part={uid:06d}.json"))
    s2 = _run(path, partial, resume=True)
    assert sorted(r["unit_id"] for r in s2) == killed
    a = pq.read_table(os.path.join(full, "tiers")).select(TIER_SCHEMA.names)
    b = pq.read_table(os.path.join(partial, "tiers")).select(TIER_SCHEMA.names)
    assert a.sort_by([("doc_id", "ascending"), ("tier", "ascending"), ("bucket", "ascending")]).equals(
        b.sort_by([("doc_id", "ascending"), ("tier", "ascending"), ("bucket", "ascending")])
    )
    # second resume is a no-op
    assert _run(path, partial, resume=True) == []


def test_persist_incremental_append(ray_session, tmp_path):
    """Continuous-aggregate semantics: a delta file appended to the input
    dir (sorting AFTER the existing files, the append-at-end contract that
    keeps footer-plan unit ids stable) is rolled up incrementally — the
    resume run computes ONLY the new units, and the merged layout is
    bit-identical to a from-scratch run over the full input."""
    from anomalydetection_ray.pipelines.rollup import rollup_persist

    tbl = fixture_table(include_giant=False)
    d = tmp_path / "seqs"
    d.mkdir()
    half = tbl.num_rows // 2
    pq.write_table(tbl.slice(0, half), d / "f000.parquet", row_group_size=10)

    out = str(tmp_path / "inc")
    s1 = rollup_persist(str(d), out).take_all()
    assert len(s1) > 0

    pq.write_table(tbl.slice(half), d / "f001.parquet", row_group_size=10)
    s2 = rollup_persist(str(d), out, resume=True).take_all()
    # only the delta's units ran, and their ids extend the old plan
    assert len(s2) > 0
    assert min(r["unit_id"] for r in s2) >= len(s1)

    full = str(tmp_path / "full")
    rollup_persist(str(d), full).take_all()
    key = [("doc_id", "ascending"), ("tier", "ascending"),
           ("bucket", "ascending")]
    a = pq.read_table(os.path.join(out, "tiers")).select(TIER_SCHEMA.names)
    b = pq.read_table(os.path.join(full, "tiers")).select(TIER_SCHEMA.names)
    assert a.sort_by(key).equals(b.sort_by(key))
    # third run over the unchanged input is a no-op
    assert rollup_persist(str(d), out, resume=True).take_all() == []


def test_slot_blocks(ray_session, monkeypatch):
    """Small units share one block per CPU slot of the 4-CPU session; units
    of a full read target never share a block with each other; the CPU
    snapshot only adds blocks; one block per unit without a Ray session."""
    import ray

    from anomalydetection_ray.pipelines.rollup import _READ_TARGET_BYTES as T
    from anomalydetection_ray.pipelines.rollup import slot_blocks

    def units(sizes):
        return [{"unit_id": k, "bytes": b} for k, b in enumerate(sizes)]

    def ids(sizes, num_cpus):
        blocks = slot_blocks(units(sizes), num_cpus=num_cpus)
        assert [u for b in blocks for u in b] == units(sizes)  # contiguous, in order
        return [[u["unit_id"] for u in b] for b in blocks]

    for n in (1, 2, 3, 4, 12):
        assert len(ids([1000] * n, 1)) == min(n, 4)
        assert len(ids([1000] * n, 2)) == min(n, 2)
    assert ids([1000] * 12, 1) == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
    # one slot (num_cpus=4): full-size units keep a block each
    assert ids([T] * 12, 4) == [[k] for k in range(12)]
    uneven = [T, 1000, 1000, 2 * T, 1000, T, T // 2]
    for b in ids(uneven, 4):
        assert sum(uneven[k] >= T for k in b) <= 1
    # no slot at all (num_cpus=8 > 4 CPUs): one block per ~T bytes
    assert len(ids([1000] * 12, 8)) == 1
    assert len(ids([T] * 12, 8)) == 12
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    assert ids([1000] * 12, 1) == [[k] for k in range(12)]


@pytest.fixture(scope="module")
def twelve_files(tmp_path_factory):
    tbl = fixture_table(include_giant=False)
    d = tmp_path_factory.mktemp("seqs_twelve")
    n = tbl.num_rows
    for i in range(12):
        lo, hi = i * n // 12, (i + 1) * n // 12
        pq.write_table(tbl.slice(lo, hi - lo), d / f"f{i:03d}.parquet")
    return str(d)


def _unit_files(out, sub):
    root = pathlib.Path(out, sub)
    return {d.name: (d / "data.parquet").read_bytes() for d in sorted(root.iterdir())}


@pytest.mark.parametrize("sub", ["tiers", "tier0"])
def test_persist_task_fails_partway(ray_session, twelve_files, tmp_path, sub):
    """12 one-file units on 4 one-CPU slots: each task commits its block of
    units one at a time.  A unit whose input vanished fails its task; the
    task's earlier unit stays committed, no tmp data file is left, and the
    resume redoes exactly the units without a manifest, byte-identical to
    a fresh run."""
    import ray

    from anomalydetection_ray.pipelines.ingest import ingest_persist
    from anomalydetection_ray.pipelines.rollup import (
        pack_read_units,
        plan_read_units,
        rollup_persist,
        slot_blocks,
    )
    from anomalydetection_ray.state.manifest import finished_part_ids

    run = {"tiers": rollup_persist, "tier0": ingest_persist}[sub]
    id_col = {"tiers": "unit_id", "tier0": "part_id"}[sub]
    blocks = slot_blocks(pack_read_units(plan_read_units(twelve_files), None), num_cpus=1)
    assert len(blocks) == 4
    task = next([u["unit_id"] for u in b] for b in blocks if len(b) >= 3)
    fresh, out = str(tmp_path / "fresh"), str(tmp_path / "out")
    run(twelve_files, fresh, resume=False, num_cpus=1).take_all()

    ds = run(twelve_files, out, resume=False, num_cpus=1)
    hidden = os.path.join(twelve_files, f"f{task[1]:03d}.parquet")
    os.rename(hidden, hidden + ".hidden")
    try:
        with pytest.raises(Exception):
            ds.take_all()
        # the failure cancels the other tasks without waiting for them:
        # a task needing every CPU runs only once they have all stopped
        barrier = ray.remote(num_cpus=ray.cluster_resources()["CPU"])(lambda: None)
        ray.get(barrier.remote(), timeout=120)
    finally:
        os.rename(hidden + ".hidden", hidden)

    assert [f for _, _, fs in os.walk(os.path.join(out, sub)) for f in fs
            if f.startswith(".tmp")] == []
    committed = finished_part_ids(out)
    assert task[0] in committed and not set(task[1:]) & committed

    redone = run(twelve_files, out, resume=True, num_cpus=1).take_all()
    assert sorted(r[id_col] for r in redone) == sorted(set(range(12)) - committed)
    assert _unit_files(out, sub) == _unit_files(fresh, sub)
