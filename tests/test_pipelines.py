"""End-to-end P1 through Ray Data (read_parquet -> validate -> rollup) vs
the oracle, plus the driver entry() smoke and source determinism."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from anomalydetection_ray.oracle import TIER_SCHEMA, rollup_table
from anomalydetection_ray.sources.fixtures import fixture_table
from tests.test_rollup_engine import assert_tiers_bitequal


@pytest.fixture(scope="module")
def fixture_parquet(tmp_path_factory):
    # small giant rows (150k > a shrunken part would be nice, but MAX is a
    # constant — use 1.5M to exercise splitting while keeping IO modest)
    tbl = fixture_table(include_giant=True, giant_len=1_500_000)
    d = tmp_path_factory.mktemp("seqs")
    # several files so ray reads multiple fragments
    n = tbl.num_rows
    for i, lo in enumerate(range(0, n, 32)):
        pq.write_table(tbl.slice(lo, 32), d / f"part-{i:03d}.parquet")
    return str(d), tbl


def test_p1_ray_matches_oracle(ray_session, fixture_parquet):
    path, tbl = fixture_parquet
    from anomalydetection_ray.pipelines.rollup import read_sequences, rollup_pipeline

    tiers = rollup_pipeline(read_sequences(path))
    engine = pa.concat_tables(_collect(tiers))
    t1, t2 = rollup_table(tbl)
    assert_tiers_bitequal(engine, pa.concat_tables([t1, t2]))


def _collect(ds):
    import ray

    return [ray.get(ref) for ref in ds.to_arrow_refs()]


def test_entry_smoke(ray_session):
    import __ray_entry__ as e

    ds = e.entry()
    rows = ds.take_all()
    assert len(rows) > 0
    assert set(rows[0].keys()) == set(TIER_SCHEMA.names)


def test_write_tiers_partitioned(ray_session, fixture_parquet, tmp_path):
    path, _ = fixture_parquet
    from anomalydetection_ray.pipelines.rollup import read_sequences, rollup_pipeline, write_tiers

    write_tiers(rollup_pipeline(read_sequences(path)), str(tmp_path / "tiers"))
    import os

    subdirs = sorted(os.listdir(tmp_path / "tiers"))
    assert subdirs == ["tier=1", "tier=2"]
    back = pq.read_table(str(tmp_path / "tiers"))
    assert back.num_rows > 0


def test_tokenizer_known_values(ray_session):
    from anomalydetection_ray.sources.tokenize import tokenize_batch

    batch = pa.table({"doc_id": ["a", "b", "c"], "text": ["hello world", "abc", ""],
                      "source": ["s", "s", "s"]})
    out = tokenize_batch(batch)
    lens = [len(t) for t in out.column("tokens").to_pylist()]
    assert lens == [8, 0, 0]  # 11-3, <4 bytes -> 0
    # deterministic
    out2 = tokenize_batch(batch)
    assert out.equals(out2)
    toks = np.array(out.column("tokens")[0].values)
    assert (toks >= 0).all() and (toks < 50257).all()


def test_topk_equals_sort_limit(ray_session):
    """stages/topk.py must agree with a full sort+limit, ties included."""
    import ray.data

    from anomalydetection_ray.stages.topk import topk

    rng = np.random.default_rng(7)
    n = 5000
    tbl = pa.table(
        {
            "id": pa.array(np.arange(n, dtype=np.int64)),
            # few distinct values -> many cross-block ties at the cutoff
            "score": pa.array(rng.integers(0, 40, n).astype(np.float64)),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(16)
    keys = [("score", "descending"), ("id", "ascending")]
    got = topk(ds, 100, keys).to_pandas()
    want = (
        ds.sort(["score", "id"], descending=[True, False]).limit(100).to_pandas()
    )
    assert got[["score", "id"]].values.tolist() == want[["score", "id"]].values.tolist()


def test_keep_first_by_equals_groupby_first(ray_session):
    """stages/runs.py keep_first_by == groupby + per-group sorted first."""
    import ray.data

    from anomalydetection_ray.stages.runs import keep_first_by

    rng = np.random.default_rng(3)
    n = 4000
    tbl = pa.table(
        {
            "k": pa.array([f"key-{int(x):03d}" for x in rng.integers(0, 150, n)]),
            "o": pa.array(rng.permutation(n).astype(np.int64)),
            "payload": pa.array(rng.integers(0, 1000, n).astype(np.int64)),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(8)
    got = keep_first_by(ds, keys=["k"], order_by=["o"], num_partitions=8).to_pandas()
    got = got.sort_values("k").reset_index(drop=True)

    df = tbl.to_pandas().sort_values(["k", "o"]).groupby("k", as_index=False).first()
    assert got[["k", "o", "payload"]].values.tolist() == df[["k", "o", "payload"]].values.tolist()


def test_partition_apply_kernels_never_see_pkey(ray_session):
    """The ``_pkey`` tag stays inside ``partition_apply``: its kernel never
    sees the column, and neither it nor ``keep_first_by`` / ``agg_by``
    return it."""
    import ray
    import ray.data

    from anomalydetection_ray.stages.runs import (PKEY, agg_by, keep_first_by,
                                                  partition_apply)

    tbl = pa.table({"k": pa.array(np.arange(200, dtype=np.int64) % 13),
                    "v": pa.array(np.arange(200, dtype=np.int64))})
    ds = ray.data.from_arrow(tbl).repartition(4)

    def kernel(part: pa.Table) -> pa.Table:
        assert PKEY not in part.column_names
        return part

    outs = [partition_apply(ds, ["k"], kernel, 4),
            keep_first_by(ds, ["k"], ["v"], 4),
            agg_by(ds, ["k"], [("v", "sum", "v")], 4)]
    for out in outs:
        for t in ray.get(out.to_arrow_refs()):
            assert PKEY not in t.column_names
    assert sorted(outs[0].to_pandas()["v"]) == list(range(200))


def test_copartition_attach_matches_pandas_join(ray_session):
    """J3: the co-partitioned equi-join equals a pandas left merge,
    including unmatched-key nulls and duplicate left keys."""
    import pandas as pd
    import ray.data

    from anomalydetection_ray.stages.join import copartition_attach

    rng = np.random.default_rng(21)
    left = pd.DataFrame({
        "k": rng.integers(0, 50, 300),
        "v": rng.integers(0, 1000, 300),
    })
    right = pd.DataFrame({
        "rk": np.arange(0, 40),  # keys 40..49 unmatched on purpose
        "payload": [f"p{i}" for i in range(40)],
        "extra": np.arange(0, 40) * 10,
    })
    lds = ray.data.from_pandas(left)
    rds = ray.data.from_pandas(right)
    out = copartition_attach(lds, rds, left_on="k", right_on="rk",
                             payload_cols=["payload", "extra"],
                             num_partitions=8).to_pandas()
    expect = left.merge(right, left_on="k", right_on="rk", how="left").drop(columns=["rk"])
    key = ["k", "v", "payload", "extra"]
    out_s = out[key].sort_values(key).reset_index(drop=True)
    exp_s = expect[key].sort_values(key).reset_index(drop=True)
    assert len(out_s) == len(exp_s)
    assert (out_s["k"].to_numpy() == exp_s["k"].to_numpy()).all()
    assert (out_s["v"].to_numpy() == exp_s["v"].to_numpy()).all()
    pay_o = out_s["payload"].fillna("~").to_numpy()
    pay_e = exp_s["payload"].fillna("~").to_numpy()
    assert (pay_o == pay_e).all()
    ex_o = out_s["extra"].fillna(-1).to_numpy()
    ex_e = exp_s["extra"].fillna(-1).to_numpy()
    assert (ex_o == ex_e).all()


def test_gapfill_injection_matches_oracle(ray_session):
    """A5 driver surface: inject_gaps (value/doc-based null rules) through
    the engine rollup == oracle rollup of the same injected table, for
    both the locf and drop policies (drop exercises filled=true carry)."""
    import ray.data

    from anomalydetection_ray.pipelines.queries import inject_gaps
    from anomalydetection_ray.pipelines.rollup import rollup_pipeline

    rng = np.random.default_rng(7)
    doc_ids, toks = [], []
    for i in range(44):  # i % 11 == 0 docs go all-null
        n = int(rng.integers(5, 2500))
        doc_ids.append(str(i))
        toks.append(rng.integers(0, 50257, n, dtype=np.int32))
    flat = np.concatenate(toks)
    offs = np.concatenate([[0], np.cumsum([len(t) for t in toks])])
    tbl = pa.table({
        "doc_id": pa.array(doc_ids),
        "tokens": pa.ListArray.from_arrays(pa.array(offs, type=pa.int32()),
                                           pa.array(flat, type=pa.int32())),
        "n_tok": pa.array([len(t) for t in toks], type=pa.int32()),
        "source": pa.array(["s"] * len(doc_ids)),
    })
    gapped = inject_gaps(tbl)
    child = gapped.column("tokens").combine_chunks().values
    assert child.null_count > 0  # the injection actually fired
    for policy in ("locf", "drop"):
        ds = ray.data.from_arrow(gapped)
        engine = pa.concat_tables(_collect(rollup_pipeline(ds, policy=policy)))
        t1, t2 = rollup_table(gapped, policy=policy)
        assert_tiers_bitequal(engine, pa.concat_tables([t1, t2]))
    # drop must emit filled=true empty buckets for the all-null docs
    t1d, _ = rollup_table(gapped, policy="drop")
    filled = t1d.filter(t1d.column("filled"))
    assert filled.num_rows > 0
