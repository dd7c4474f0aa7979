"""The one bucket kernel (stages/rollup.py ``bucket_stats`` /
``_robust_scores``) against the oracle, bit for bit, on adversarial
buckets, on the ``drop`` gap policy and on the events bucket width."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from anomalydetection_ray.constants import MAX_TOKENS_PER_PART
from anomalydetection_ray.functions.stats import robust_score
from anomalydetection_ray.oracle import TIER_SCHEMA, rollup_table
from anomalydetection_ray.sources.validate import validate_batch
from anomalydetection_ray.stages import rollup
from anomalydetection_ray.stages.rollup import bucket_stats, rollup_batch

I32_MIN, I32_MAX = -(2**31), 2**31 - 1


def _table(rows: list[list]) -> pa.Table:
    n = len(rows)
    return pa.table({
        "doc_id": [f"doc-{i:04d}" for i in range(n)],
        "source": ["adv"] * n,
        "tokens": pa.array(rows, type=pa.list_(pa.int32())),
        "n_tok": pa.array([len(r) for r in rows], type=pa.int32()),
    })


def _assert_bitequal(engine: pa.Table, oracle_t: pa.Table) -> None:
    keys = [("doc_id", "ascending"), ("tier", "ascending"), ("bucket", "ascending")]
    e, o = engine.sort_by(keys), oracle_t.sort_by(keys)
    assert e.schema == TIER_SCHEMA
    assert e.num_rows == o.num_rows
    for name in TIER_SCHEMA.names:
        a, b = e.column(name).combine_chunks(), o.column(name).combine_chunks()
        if pa.types.is_floating(a.type):
            assert np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64)), name
        else:
            assert a.equals(b), name


def _check(rows: list[list], policy: str) -> pa.Table:
    tbl = _table(rows)
    engine = rollup_batch(validate_batch(tbl), policy=policy)
    _assert_bitequal(engine, pa.concat_tables(rollup_table(tbl, policy=policy)))
    return engine


def _adversarial_rows() -> list[list]:
    rng = np.random.default_rng(15)
    rows = []
    for n in (1, 2, 3, 999, 1000, 1001):
        rows.append(rng.integers(I32_MIN, I32_MAX, n, endpoint=True).tolist())
        rows.append(np.where(np.arange(n) % 2 == 0, I32_MIN, I32_MAX).tolist())
        rows.append([7] * n)
    # both extremes in one bucket among ordinary values, and at the bucket edges
    both = rng.integers(0, 50_257, 2_500).tolist()
    both[10], both[500], both[999], both[1000] = I32_MIN, I32_MAX, I32_MAX, I32_MIN
    rows.append(both)
    # constant buckets (MAD = 0) next to a one-outlier bucket (MAD still 0)
    rows.append([3] * 1000 + [3] * 999 + [I32_MAX] + [-5] * 1000)
    # a two-value bucket whose MAD is not zero
    rows.append(([I32_MIN] * 500 + [I32_MAX] * 500) * 3)
    return rows


@pytest.mark.parametrize("policy", ["locf", "linear", "drop"])
def test_adversarial_buckets_match_oracle(policy):
    _check(_adversarial_rows(), policy)


def test_scores_across_slice_bounds(monkeypatch):
    """Slices smaller than a bucket, and many buckets per slice, give the
    same scores (each bucket is whole in exactly one slice)."""
    rows = _adversarial_rows()
    want = rollup_batch(validate_batch(_table(rows)))
    for bound in (1, 7, 1000, 2999):
        monkeypatch.setattr(rollup, "SLICE_TOKENS", bound)
        _assert_bitequal(rollup_batch(validate_batch(_table(rows))), want)
        _check(rows, "drop")


def test_events_width_buckets_match_oracle():
    """``rollup_events_tier1``'s kernel: width-100 buckets per user."""
    from anomalydetection_ray.pipelines.queries import EVENTS_BUCKET

    rng = np.random.default_rng(100)
    lens = np.array([1, 2, 3, 99, 100, 101, 250, 1000, 37], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lens)))
    v = rng.integers(0, 400, offsets[-1]).astype(np.int32)
    v[offsets[3] : offsets[4]] = np.where(np.arange(lens[3]) % 2 == 0, I32_MIN, I32_MAX)
    v[offsets[4] : offsets[5]] = 9
    v[offsets[5] + 50] = I32_MAX
    v[offsets[5] + 51] = I32_MIN
    rows, local, counts, mins, maxs, sums, scores = bucket_stats(v, None, offsets, EVENTS_BUCKET)
    assert rows.shape[0] == int((-(-lens // EVENTS_BUCKET)).sum())
    for i in range(rows.shape[0]):
        a = offsets[rows[i]] + local[i] * EVENTS_BUCKET
        sl = v[a : min(a + EVENTS_BUCKET, offsets[rows[i] + 1])]
        assert counts[i] == sl.size
        assert (mins[i], maxs[i], sums[i]) == (sl.min(), sl.max(), sl.astype(np.int64).sum())
        want = robust_score(sl.astype(np.float64))
        assert np.float64(scores[i]).view(np.uint64) == np.float64(want).view(np.uint64)


def _gapped_rows() -> list[list]:
    rng = np.random.default_rng(3)
    vals = rng.integers(0, 50_257, 35_000).tolist()
    # nulls: a whole tier2 bucket (positions 10,000-19,999, so ten empty
    # tier1 buckets), one more empty tier1 bucket, and a leading gap
    gapped = [None if (10_000 <= i < 20_000 or 27_000 <= i < 28_000 or i < 1_500) else x
              for i, x in enumerate(vals)]
    sparse = [x if i % 997 == 0 else None for i, x in enumerate(vals[:5_000])]
    return [gapped, [None] * 12_345, [None], sparse, vals[:1001], [None] * 3 + [4]]


def test_drop_gaps_match_oracle():
    engine = _check(_gapped_rows(), "drop")
    filled = engine.filter(pc.field("filled"))
    assert {1, 2} <= set(filled.column("tier").to_pylist())
    assert filled.column("min").null_count == filled.num_rows


def test_drop_giant_row_restarts_mean_carry():
    """Part 1 of a split row opens with empty buckets: their mean is 0.0
    (the carry restarts per part), not part 0's last mean."""
    rng = np.random.default_rng(4)
    n = MAX_TOKENS_PER_PART + 25_000
    vals = rng.integers(0, 50_257, n).tolist()
    for i in range(MAX_TOKENS_PER_PART, MAX_TOKENS_PER_PART + 12_000):
        vals[i] = None
    engine = _check([vals, [5, None, 6]], "drop")
    part1 = engine.filter(pc.field("bucket") == MAX_TOKENS_PER_PART // 1000)
    assert part1.column("filled").to_pylist() == [True]
    assert part1.column("mean").to_pylist() == [0.0]


def test_drop_batch_splitting_invariance():
    rows = _gapped_rows() + _adversarial_rows()
    rows = [[None if i % 5 == 0 else x for i, x in enumerate(r)] if k % 2 else r
            for k, r in enumerate(rows)]
    v = validate_batch(_table(rows))
    whole = rollup_batch(v, policy="drop")
    parts = pa.concat_tables([rollup_batch(v.slice(i, 4), policy="drop")
                              for i in range(0, v.num_rows, 4)])
    _assert_bitequal(parts, whole)


@pytest.mark.parametrize("rows", [[[1, 2, 3]], [[1, None, 3]], []])
def test_unknown_gap_policy_raises(rows):
    with pytest.raises(ValueError, match="gap policy"):
        rollup_batch(validate_batch(_table(rows)), policy="nearest")

