"""M1 — the vectorized bucket-rollup kernel (SURVEY.md §2.2 M1, §2.1 A1/A4/A5).

One stateless ``map_batches(rollup_batch, batch_format="pyarrow",
zero_copy_batch=True)`` stage turns validated ``sequences`` parts into
tier1 + tier2 rollup rows.  It is the flagship hot path: everything is
NumPy-vectorized over the batch's flat token buffer —

- bucket boundaries via repeat/arange index algebra, min/max/sum via
  ``np.{minimum,maximum,add}.reduceat`` (the bucket starts tile the flat
  buffer exactly, so one reduceat covers every bucket of every row);
- per-bucket median/MAD/max-deviation for the anomaly score via one
  segmented integer sort per slice of at most ``SLICE_TOKENS`` tokens,
  the same for buckets of any length (``_robust_scores``);
- the ``drop`` gap policy as compaction: the valid tokens keep the bucket
  of their original position, and empty buckets roll up as ``filled``;
- tier2 as the G1 merge of tier1 computed with reduceat over the tier1
  arrays; the tier2 mean is the exact integer value-sum divided once
  (order-free, bit-identical to the oracle and to SQL sum(v)/count).

Bit-for-bit parity with ``anomalydetection_ray.oracle`` is a test gate
(tests/test_rollup_engine.py): every float here is produced by the same
IEEE operations in the same order as the oracle's per-bucket loops.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import pyarrow as pa

from anomalydetection_ray.constants import (
    MAD_SCALE,
    MAX_TOKENS_PER_PART,
    SLICE_TOKENS,
    TIER1_BUCKET,
    TIER2_BUCKET,
)
from anomalydetection_ray.functions.stats import GAP_POLICIES
from anomalydetection_ray.oracle import TIER_SCHEMA

_R = TIER2_BUCKET // TIER1_BUCKET
_PARTS1 = MAX_TOKENS_PER_PART // TIER1_BUCKET
_PARTS2 = MAX_TOKENS_PER_PART // TIER2_BUCKET


def _flat_tokens(batch: pa.Table) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """(flat int32 values, validity or None, rebased int64 offsets) — the
    child buffer is zero-copy when null-free."""
    tokens = batch.column("tokens")
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    offsets = np.asarray(tokens.offsets, dtype=np.int64)
    base = offsets[0]
    child = tokens.values.slice(base, offsets[-1] - base)
    offsets = offsets - base
    if child.null_count:
        valid = np.asarray(child.is_valid())
        vals = np.asarray(child.fill_null(0), dtype=np.int32)
    else:
        valid = None
        vals = child.to_numpy(zero_copy_only=True)
    return vals, valid, offsets


def _locf_flat(vals: np.ndarray, valid: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Vectorized per-row LOCF over the whole flat buffer: identical result
    to ``stats.gap_fill(..., "locf")`` applied row by row."""
    n = vals.shape[0]
    idx = np.arange(n, dtype=np.int64)
    last_valid = np.maximum.accumulate(np.where(valid, idx, -1))
    lens = np.diff(offsets)
    row_start = np.repeat(offsets[:-1], lens)
    out = np.where(last_valid >= row_start, vals[np.maximum(last_valid, 0)], 0)
    return out.astype(np.int32, copy=False)


def _linear_flat(vals: np.ndarray, valid: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Vectorized per-row LINEAR gap fill over the whole flat buffer:
    identical result to ``stats.gap_fill(..., "linear")`` applied row by
    row (exact integer interpolation, round half to even, edge clamp,
    all-null rows -> 0) — replaces the per-affected-row Python loop."""
    n = vals.shape[0]
    idx = np.arange(n, dtype=np.int64)
    lens = np.diff(offsets)
    row_start = np.repeat(offsets[:-1], lens)
    row_end = np.repeat(offsets[1:], lens)
    prev = np.maximum.accumulate(np.where(valid, idx, -1))
    nxt = np.minimum.accumulate(np.where(valid, idx, n)[::-1])[::-1]
    has_prev = prev >= row_start
    has_next = nxt < row_end
    out = vals.astype(np.int64, copy=True)
    gap = ~valid
    lead = gap & ~has_prev & has_next
    out[lead] = vals[nxt[lead]]
    trail = gap & has_prev & ~has_next
    out[trail] = vals[prev[trail]]
    out[gap & ~has_prev & ~has_next] = 0
    mid = gap & has_prev & has_next
    if mid.any():
        p, q, i = prev[mid], nxt[mid], idx[mid]
        vp = vals[p].astype(np.int64)
        vq = vals[q].astype(np.int64)
        den = q - p
        num = vp * (q - i) + vq * (i - p)
        quo = num // den
        r2 = (num - quo * den) * 2
        out[mid] = quo + ((r2 > den) | ((r2 == den) & (quo % 2 != 0)))
    return out.astype(np.int32, copy=False)


def _slices(lens: np.ndarray, bound: int) -> Iterator[tuple[int, int]]:
    """Consecutive ``[start, end)`` ranges of items (rows or buckets) ``lens``
    tokens long, at most ``bound`` tokens each; a longer item is a range of
    its own.  One iteration per range, not per item."""
    ends = np.cumsum(lens)
    r = 0
    while r < lens.shape[0]:
        e = int(np.searchsorted(ends, ends[r] - lens[r] + bound, side="right"))
        e = max(e, r + 1)
        yield r, e
        r = e


def _robust_scores(vals: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Robust anomaly score of each bucket; the buckets, ``counts`` tokens
    long (all > 0), tile ``vals`` in order.

    One segmented sort per slice of whole buckets of at most
    ``SLICE_TOKENS`` tokens (the bound keeps each sort cache-sized).  With
    ``lb`` the bucket's index in its slice and ``m`` the slice minimum:
      s = sort(lb << 32 | (v - m))             -> med2 = s[k1] + s[k2]
      d = sort(lb << 34 | |2(v - m) - med2|)   (= 2 * |v - median|)
      mad = (d[k1] + d[k2]) / 4,  max dev = d[last] / 2
    with k1, k2 the bucket's two middle positions.  Every value is an exact
    integer (or an exact quotient by a power of two) for any int32 input,
    so the floats are the oracle's ``robust_score`` bit for bit."""
    scores = np.empty(counts.shape[0], dtype=np.float64)
    ends = np.cumsum(counts)
    for b0, b1 in _slices(counts, SLICE_TOKENS):
        L = counts[b0:b1]
        t0 = ends[b0] - L[0]
        start = ends[b0:b1] - L - t0  # each bucket's first token in the slice
        v = vals[t0 : ends[b1 - 1]].astype(np.int64)
        v -= v.min()
        lb = np.repeat(np.arange(b1 - b0, dtype=np.int64), L)
        k1 = start + ((L - 1) >> 1)
        k2 = start + (L >> 1)
        s = np.sort(lb << 32 | v) - (lb << 32)
        med2 = s[k1] + s[k2]
        d = np.sort(lb << 34 | np.abs(2 * v - np.repeat(med2, L))) - (lb << 34)
        mad = (d[k1] + d[k2]) * 0.25  # exact: /4 is a power of two
        mx = d[start + L - 1] * 0.5
        with np.errstate(divide="ignore", invalid="ignore"):
            scores[b0:b1] = np.where(mad == 0.0, 0.0, mx / (MAD_SCALE * mad))
    return scores


def bucket_stats(
    vals: np.ndarray, valid: np.ndarray | None, offsets: np.ndarray, width: int,
) -> tuple[np.ndarray, ...]:
    """Tumbling buckets of ``width`` positions over each row of a flat
    buffer (row ``i`` = positions ``offsets[i]:offsets[i+1]``) ->
    ``(rows, local, counts, mins, maxs, sums, scores)``, one entry per
    bucket in row-major order.  ``local`` is the bucket's index in its row.

    With a ``valid`` mask only the valid positions count (the ``drop`` gap
    policy): the valid tokens are compacted, each keeps the bucket of its
    original position, and an all-null bucket gets ``counts == 0``, min
    INT32_MAX, max INT32_MIN, sum 0 and score 0.0."""
    lens = np.diff(offsets)
    nb = -(-lens // width)
    total = int(nb.sum())
    rows = np.repeat(np.arange(lens.shape[0], dtype=np.int64), nb)
    local = np.arange(total, dtype=np.int64) - (np.cumsum(nb) - nb)[rows]
    starts = offsets[rows] + local * width
    if valid is None:
        counts = np.minimum(width, offsets[rows + 1] - starts)
    else:
        counts = np.add.reduceat(valid, starts, dtype=np.int64)
        vals = vals[valid]
    nz = np.flatnonzero(counts)
    at = (np.cumsum(counts) - counts)[nz]
    mins = np.full(total, np.iinfo(np.int32).max, dtype=np.int32)
    maxs = np.full(total, np.iinfo(np.int32).min, dtype=np.int32)
    sums = np.zeros(total, dtype=np.int64)
    scores = np.zeros(total, dtype=np.float64)
    mins[nz] = np.minimum.reduceat(vals, at)
    maxs[nz] = np.maximum.reduceat(vals, at)
    sums[nz] = np.add.reduceat(vals.astype(np.int64), at)
    scores[nz] = _robust_scores(vals, counts[nz])
    return rows, local, counts, mins, maxs, sums, scores


def _means(sums: np.ndarray, counts: np.ndarray, local: np.ndarray) -> np.ndarray:
    """Exact ``sum / count`` per bucket; an empty bucket carries the mean of
    the last non-empty bucket of its row (0.0 when there is none), as the
    oracle's ``prev_mean``."""
    idx = np.arange(counts.shape[0], dtype=np.int64)
    last = np.maximum.accumulate(np.where(counts > 0, idx, -1))
    means = sums / np.maximum(counts, 1)
    return np.where(last >= idx - local, means[np.maximum(last, 0)], 0.0)


def rollup_batch(batch: pa.Table, policy: str = "locf") -> pa.Table:
    """Validated parts -> tier1 + tier2 rollup rows (one Arrow table, both
    tiers distinguished by the ``tier`` column)."""
    if policy not in GAP_POLICIES:
        raise ValueError(f"unknown gap policy {policy!r}")
    if batch.num_rows == 0:
        return TIER_SCHEMA.empty_table()
    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None and policy != "drop":
        fill = _locf_flat if policy == "locf" else _linear_flat
        vals, valid = fill(vals, valid, offsets), None
    part_ids = np.asarray(batch.column("part_id"), dtype=np.int64)

    # ---- tier1 ----
    rows1, local1, counts, mins, maxs, sums, scores = bucket_stats(
        vals, valid, offsets, TIER1_BUCKET)

    # ---- tier2 = G1 merge of tier1 (exact integer sums, order-free) ----
    cstart = np.flatnonzero(local1 % _R == 0)
    rows2 = rows1[cstart]
    local2 = local1[cstart] // _R
    min2 = np.minimum.reduceat(mins, cstart)
    max2 = np.maximum.reduceat(maxs, cstart)
    count2 = np.add.reduceat(counts, cstart)
    score2 = np.maximum.reduceat(scores, cstart)
    # exact integer value-sums per tier2 bucket -> one IEEE division,
    # order-free and identical to SQL sum(v)/count (oracle semantics)
    sum2 = np.add.reduceat(sums, cstart)

    doc_col = batch.column("doc_id")
    src_col = batch.column("source")
    if isinstance(doc_col, pa.ChunkedArray):
        doc_col = doc_col.combine_chunks()
    if isinstance(src_col, pa.ChunkedArray):
        src_col = src_col.combine_chunks()

    def tier_table(tier, parts, rows, local, mn, mx, tsum, cnt, score):
        empty = cnt == 0
        take = pa.array(rows, type=pa.int64())
        return pa.table(
            {
                "doc_id": doc_col.take(take),
                "source": src_col.take(take),
                "tier": pa.array(np.full(rows.shape[0], tier, dtype=np.int8)),
                "bucket": pa.array(part_ids[rows] * parts + local, type=pa.int64()),
                "min": pa.array(mn, type=pa.int32(), mask=empty),
                "max": pa.array(mx, type=pa.int32(), mask=empty),
                "mean": pa.array(_means(tsum, cnt, local), type=pa.float64()),
                "count": pa.array(cnt, type=pa.int64()),
                "anomaly_score": pa.array(score, type=pa.float64()),
                "filled": pa.array(empty),
            }
        )

    t1 = tier_table(1, _PARTS1, rows1, local1, mins, maxs, sums, counts, scores)
    t2 = tier_table(2, _PARTS2, rows2, local2, min2, max2, sum2, count2, score2)
    return pa.concat_tables([t1, t2])
