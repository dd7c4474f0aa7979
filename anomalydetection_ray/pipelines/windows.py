"""Timeseries window operators over the events table (round-3 additions
W1/W2/J5 — the session/feature/interval family a training-data pipeline
needs next to the A-family bucket rollups).

- ``w1_sessionize_events``: gaps-and-islands sessionization — per user,
  events separated by more than ``gap_us`` start a new session; one output
  row per session (count, bounds, duration, exact value extrema).
- ``w2_lag_features_events``: per-key lag/delta feature generation — for
  every event, the previous event's value, the single-op float delta, the
  inter-arrival gap and the per-user sequence number.
- ``j5_interval_stats``: many-to-many interval stab join — a small seeded
  window table (overlapping, derived deterministically from the corpus
  time span) broadcast into a ``map_batches`` stab kernel; per-window
  exact aggregates.

Scale shape: W1/W2 are ONE hash exchange on ``user_id`` (the engine's
``_pkey`` machinery, same layout J3/J4 use) + per-partition vectorized
numpy; no global sort.  J5 broadcasts the tiny window table into every
task (the J1 broadcast assumption: small side rides the closure) and
pre-aggregates per batch, so the final exchange carries at most
``n_windows`` rows per block.  All SQL-checked outputs avoid distributed
float summation (counts / int64 sums / min / max / single-op deltas).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from anomalydetection_ray.stages.runs import partition_apply, run_starts

GAP_US = 43_200_000_000  # 12 h session gap (driver events are hours apart
                         # per user; 12 h yields real multi-event sessions)
N_WINDOWS = 48
WINDOW_MIX = 2654435761  # Knuth multiplicative hash constant


def _read_events(sf_dir: str, columns):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=columns)


def _ts_us(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Microseconds-since-epoch int64 view of a timestamp[us] column
    (equals DuckDB ``epoch_us``)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    v = np.asarray(col)
    return v.view("int64") if v.dtype.kind == "M" else v.astype(np.int64, copy=False)


# ---------------------------------------------------------------- W1 ----
def _sessionize_kernel(group: pa.Table, gap_us: int) -> pa.Table:
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "session_seq": pa.array([], type=pa.int64()),
            "n_events": pa.array([], type=pa.int64()),
            "start_ts": pa.array([], type=pa.timestamp("us")),
            "end_ts": pa.array([], type=pa.timestamp("us")),
            "duration_us": pa.array([], type=pa.int64()),
            "min_value": pa.array([], type=pa.float64()),
            "max_value": pa.array([], type=pa.float64()),
        })
    starts = run_starts(group, ["user_id"])
    ts = _ts_us(group.column("ts"))
    value = np.asarray(group.column("value").combine_chunks()
                       if isinstance(group.column("value"), pa.ChunkedArray)
                       else group.column("value"), dtype=np.float64)
    is_new = np.zeros(n, dtype=bool)
    is_new[starts] = True
    if n > 1:
        is_new[1:] |= (ts[1:] - ts[:-1]) > gap_us
    sstarts = np.flatnonzero(is_new)
    nsess = sstarts.shape[0]
    sends = np.append(sstarts[1:], n)
    n_events = sends - sstarts
    # per-user session sequence: global session index minus the user's
    # first session index (sessions always break at user starts)
    sess_id = np.cumsum(is_new) - 1
    user_first = sess_id[starts]
    user_of = np.searchsorted(user_first, np.arange(nsess), side="right") - 1
    session_seq = np.arange(nsess, dtype=np.int64) - user_first[user_of]
    take = pa.array(sstarts, type=pa.int64())
    return pa.table({
        "user_id": group.column("user_id").take(take),
        "session_seq": pa.array(session_seq, type=pa.int64()),
        "n_events": pa.array(n_events, type=pa.int64()),
        "start_ts": group.column("ts").take(take),
        "end_ts": group.column("ts").take(pa.array(sends - 1, type=pa.int64())),
        "duration_us": pa.array(ts[sends - 1] - ts[sstarts], type=pa.int64()),
        "min_value": pa.array(np.minimum.reduceat(value, sstarts), type=pa.float64()),
        "max_value": pa.array(np.maximum.reduceat(value, sstarts), type=pa.float64()),
    })


def w1_sessionize_events(sf_dir: str, gap_us: int = GAP_US,
                         num_partitions: int = 16):
    """W1 — sessionize events per user: one hash exchange on ``user_id``,
    then a per-partition vectorized gaps-and-islands kernel (sort, run
    starts, cumsum of break flags, reduceat aggregates).  Oracle: the
    classic lag/sum-over-breaks window SQL."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    kernel = functools.partial(_sessionize_kernel, gap_us=gap_us)
    return partition_apply(ev, ["user_id"], kernel, num_partitions)


# ---------------------------------------------------------------- W2 ----
def _lag_kernel(group: pa.Table) -> pa.Table:
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "event_id": pa.array([], type=pa.int64()),
            "user_id": pa.array([], type=pa.int64()),
            "value": pa.array([], type=pa.float64()),
            "prev_value": pa.array([], type=pa.float64()),
            "delta_value": pa.array([], type=pa.float64()),
            "gap_us": pa.array([], type=pa.int64()),
            "seq": pa.array([], type=pa.int64()),
        })
    starts = run_starts(group, ["user_id"])
    ts = _ts_us(group.column("ts"))
    value = np.asarray(group.column("value").combine_chunks()
                       if isinstance(group.column("value"), pa.ChunkedArray)
                       else group.column("value"), dtype=np.float64)
    first = np.zeros(n, dtype=bool)
    first[starts] = True
    prev = np.empty(n, dtype=np.float64)
    prev[1:] = value[:-1]
    prev[0] = np.nan
    gap = np.empty(n, dtype=np.int64)
    gap[1:] = ts[1:] - ts[:-1]
    gap[0] = 0
    lens = np.diff(np.append(starts, n))
    seq = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
    # null at each user's first event, like SQL lag()
    return pa.table({
        "event_id": group.column("event_id"),
        "user_id": group.column("user_id"),
        "value": group.column("value"),
        "prev_value": pa.array(prev, type=pa.float64(), mask=first),
        "delta_value": pa.array(value - prev, type=pa.float64(), mask=first),
        "gap_us": pa.array(gap, type=pa.int64(), mask=first),
        "seq": pa.array(seq, type=pa.int64()),
    })


def w2_lag_features_events(sf_dir: str, num_partitions: int = 16):
    """W2 — per-key lag/delta feature generation (the standard
    training-feature shift): previous value, single-op float delta,
    inter-arrival gap and per-user sequence number for every event.  Same
    one-exchange layout as W1.  Oracle: lag()/row_number() window SQL."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    return partition_apply(ev, ["user_id"], _lag_kernel, num_partitions)


# ---------------------------------------------------------------- W3 ----
VSCALE = 1_000_000  # value quantization for exact order-free rolling sums


def _rolling_kernel(group: pa.Table, window: int) -> pa.Table:
    """Per-key rolling stats over the trailing ``window`` rows (ts,
    event_id order), windows clipped at each key's start.  The rolling
    sum is computed over the micro-quantized value ``floor(value * 1e6 +
    0.5)`` in int64 — associative, so the result is independent of
    summation order and reproducible verbatim by the SQL oracle's
    ``SUM(CAST(...)) OVER (... ROWS BETWEEN n PRECEDING AND CURRENT
    ROW)``; ``roll_avg`` is the single float division int_sum /
    (1e6 * n) on top.  Min/max/count are exact by nature.  The kernel is
    fully vectorized: ``window - 1`` shifted numpy ops, no Python row
    loop."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "event_id": pa.array([], type=pa.int64()),
            "user_id": pa.array([], type=pa.int64()),
            "value": pa.array([], type=pa.float64()),
            "roll_n": pa.array([], type=pa.int64()),
            "roll_sum_q": pa.array([], type=pa.int64()),
            "roll_avg": pa.array([], type=pa.float64()),
            "roll_min": pa.array([], type=pa.float64()),
            "roll_max": pa.array([], type=pa.float64()),
        })
    starts = run_starts(group, ["user_id"])
    value = np.asarray(group.column("value").combine_chunks()
                       if isinstance(group.column("value"), pa.ChunkedArray)
                       else group.column("value"), dtype=np.float64)
    vq = np.floor(value * VSCALE + 0.5).astype(np.int64)
    lens = np.diff(np.append(starts, n))
    seq = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
    rsum = vq.copy()
    rmin = value.copy()
    rmax = value.copy()
    rn = np.ones(n, dtype=np.int64)
    for s in range(1, window):
        idx = np.flatnonzero(seq >= s)
        if idx.size == 0:
            break
        rsum[idx] += vq[idx - s]
        rmin[idx] = np.minimum(rmin[idx], value[idx - s])
        rmax[idx] = np.maximum(rmax[idx], value[idx - s])
        rn[idx] += 1
    return pa.table({
        "event_id": group.column("event_id"),
        "user_id": group.column("user_id"),
        "value": group.column("value"),
        "roll_n": pa.array(rn, type=pa.int64()),
        "roll_sum_q": pa.array(rsum, type=pa.int64()),
        "roll_avg": pa.array(rsum / (float(VSCALE) * rn), type=pa.float64()),
        "roll_min": pa.array(rmin, type=pa.float64()),
        "roll_max": pa.array(rmax, type=pa.float64()),
    })


def w3_rolling_stats_events(sf_dir: str, window: int = 5,
                            num_partitions: int = 16):
    """W3 — per-key trailing-window rolling aggregates (count / exact
    quantized sum / avg / min / max over the last ``window`` events per
    user): the standard timeseries feature next to W2's lags.  Same
    one-exchange ``_pkey`` layout; the kernel is ``window - 1`` shifted
    vectorized ops per partition.  Oracle: SQL window frame ``ROWS
    BETWEEN window-1 PRECEDING AND CURRENT ROW``."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    kernel = functools.partial(_rolling_kernel, window=window)
    return partition_apply(ev, ["user_id"], kernel, num_partitions)


# ---------------------------------------------------------------- W4 ----
DAY_US = 86_400_000_000


def _ohlc_kernel(group: pa.Table, bucket_us: int) -> pa.Table:
    """Per-(user, time-bucket) OHLC resample: open/close are the values
    at the first/last (ts, event_id) of the bucket, high/low exact
    extrema, count exact.  Vectorized with run-starts + reduceat over the
    (user, bucket)-sorted partition slice."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "bucket": pa.array([], type=pa.int64()),
            "n_events": pa.array([], type=pa.int64()),
            "open": pa.array([], type=pa.float64()),
            "high": pa.array([], type=pa.float64()),
            "low": pa.array([], type=pa.float64()),
            "close": pa.array([], type=pa.float64()),
        })
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    bucket = _ts_us(group.column("ts")) // bucket_us
    value = np.asarray(group.column("value"), dtype=np.float64)
    brk = np.ones(n, dtype=bool)
    brk[1:] = (uid[1:] != uid[:-1]) | (bucket[1:] != bucket[:-1])
    starts = np.flatnonzero(brk)
    ends = np.append(starts[1:], n) - 1
    return pa.table({
        "user_id": pa.array(uid[starts], type=pa.int64()),
        "bucket": pa.array(bucket[starts], type=pa.int64()),
        "n_events": pa.array(ends - starts + 1, type=pa.int64()),
        "open": pa.array(value[starts], type=pa.float64()),
        "high": pa.array(np.maximum.reduceat(value, starts), type=pa.float64()),
        "low": pa.array(np.minimum.reduceat(value, starts), type=pa.float64()),
        "close": pa.array(value[ends], type=pa.float64()),
    })


def w4_ohlc_resample_events(sf_dir: str, bucket_us: int = DAY_US,
                            num_partitions: int = 16):
    """W4 — time-bucket downsample (daily OHLC bars per user): the
    resample half of the timeseries feature family.  Same one-exchange
    ``_pkey`` layout as W1-W3 — a bucket belongs to exactly one user, so
    partitioning by user co-locates every bucket; no second shuffle.
    Oracle: first/last by (ts, event_id) via row_number, exact extrema."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    kernel = functools.partial(_ohlc_kernel, bucket_us=bucket_us)
    return partition_apply(ev, ["user_id"], kernel, num_partitions)


# ---------------------------------------------------------------- W5 ----
HOUR_US = 3_600_000_000


def _trend_kernel(group: pa.Table) -> pa.Table:
    """Per-user OLS trend of value on time: exact integer moment sums
    (x = whole hours since the user's first event, y = micro-quantized
    value), then the closed-form slope as three pinned float ops.  The
    final ``n·Sxy − Sx·Sy`` products are taken in arbitrary-precision
    Python ints per group (one scalar op per user, NOT the hot path —
    the per-row reductions stay vectorized), matching the SQL oracle's
    HUGEINT arithmetic exactly at any magnitude."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "n": pa.array([], type=pa.int64()),
            "sx": pa.array([], type=pa.int64()),
            "sy_q": pa.array([], type=pa.int64()),
            "sxy_q": pa.array([], type=pa.int64()),
            "sxx": pa.array([], type=pa.int64()),
            "slope_per_hour": pa.array([], type=pa.float64()),
        })
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    ts = _ts_us(group.column("ts"))
    vq = np.floor(np.asarray(group.column("value"), dtype=np.float64)
                  * 1_000_000 + 0.5).astype(np.int64)
    starts = run_starts(group, ["user_id"])
    lens = np.diff(np.append(starts, n))
    x = (ts - np.repeat(ts[starts], lens)) // HOUR_US
    cnt = lens.astype(np.int64)
    sx = np.add.reduceat(x, starts)
    sy = np.add.reduceat(vq, starts)
    sxy = np.add.reduceat(x * vq, starts)
    sxx = np.add.reduceat(x * x, starts)
    slope = np.empty(len(starts), dtype=np.float64)
    mask = np.zeros(len(starts), dtype=bool)
    for i in range(len(starts)):  # per GROUP, exact bigint arithmetic
        num = int(cnt[i]) * int(sxy[i]) - int(sx[i]) * int(sy[i])
        den = int(cnt[i]) * int(sxx[i]) - int(sx[i]) * int(sx[i])
        if den == 0:
            mask[i] = True
            slope[i] = 0.0
        else:
            slope[i] = (float(num) / float(den)) / 1_000_000.0
    return pa.table({
        "user_id": pa.array(uid[starts], type=pa.int64()),
        "n": pa.array(cnt, type=pa.int64()),
        "sx": pa.array(sx, type=pa.int64()),
        "sy_q": pa.array(sy, type=pa.int64()),
        "sxy_q": pa.array(sxy, type=pa.int64()),
        "sxx": pa.array(sxx, type=pa.int64()),
        "slope_per_hour": pa.array(slope, type=pa.float64(), mask=mask),
    })


def w5_trend_events(sf_dir: str, num_partitions: int = 16):
    """W5 — per-key OLS trend (drift) detection: the slope of value over
    time per user, the linear-regression sibling of the A-family
    detectors (a sustained drift that never trips a per-bucket z test).
    Same one-exchange ``_pkey`` layout; all moment sums are exact
    integers so the distributed result is block-order independent, and
    the slope itself is pinned to three float ops the SQL oracle replays
    verbatim.  Degenerate keys (all events in one hour) emit NULL."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    return partition_apply(ev, ["user_id"], _trend_kernel, num_partitions)


# ---------------------------------------------------------------- W6 ----
def _rank_kernel(group: pa.Table) -> pa.Table:
    """Per-user percent-rank of value (DuckDB ``percent_rank()``
    semantics: ties share the min rank, pct = (rank−1)/(n−1), 0.0 for
    single-row keys).  Rank and n−1 are exact integers; the pct is one
    IEEE division the SQL oracle replays verbatim."""
    group = group.sort_by(
        [("user_id", "ascending"), ("value", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "event_id": pa.array([], type=pa.int64()),
            "user_id": pa.array([], type=pa.int64()),
            "value": pa.array([], type=pa.float64()),
            "rk": pa.array([], type=pa.int64()),
            "nm1": pa.array([], type=pa.int64()),
            "pct": pa.array([], type=pa.float64()),
        })
    ustarts = run_starts(group, ["user_id"])
    vstarts = run_starts(group, ["user_id", "value"])
    ulens = np.diff(np.append(ustarts, n))
    pos = np.arange(n, dtype=np.int64)
    # rank−1 of each row = position of its (user, value)-run start,
    # relative to the user-run start (ties collapse to the run start)
    vrun_of_row = np.repeat(vstarts, np.diff(np.append(vstarts, n)))
    rk = vrun_of_row - np.repeat(ustarts, ulens)
    nm1 = np.repeat(ulens, ulens) - 1
    pct = np.divide(rk, nm1, out=np.zeros(n, dtype=np.float64),
                    where=nm1 > 0)
    return pa.table({
        "event_id": group.column("event_id"),
        "user_id": group.column("user_id"),
        "value": group.column("value"),
        "rk": pa.array(rk, type=pa.int64()),
        "nm1": pa.array(nm1, type=pa.int64()),
        "pct": pa.array(pct, type=pa.float64()),
    })


def w6_rank_normalize_events(sf_dir: str, num_partitions: int = 16):
    """W6 — per-key rank / CDF normalization (percent-rank of value per
    user), the standard monotone feature transform before training.  Same
    one-exchange ``_pkey`` layout as W1–W5; the kernel is two run-length
    passes over one sort, no Python row loop.  Rank arithmetic is exact
    integers so the distributed result is block-order independent; the
    normalized pct is a single pinned IEEE division (0.0 for
    single-event keys, matching DuckDB ``percent_rank``)."""
    ev = _read_events(sf_dir, ["event_id", "user_id", "value"])
    return partition_apply(ev, ["user_id"], _rank_kernel, num_partitions)


# ---------------------------------------------------------------- W7 ----
W7_VSCALE = 1_000_000


def _trimmed_kernel(group: pa.Table) -> pa.Table:
    """Per-user 10%-trimmed mean: drop the n//10 smallest and largest
    values (total order (value, event_id) — tie-safe), exact integer sum
    of the quantized middle, one pinned division."""
    group = group.sort_by(
        [("user_id", "ascending"), ("value", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "n": pa.array([], type=pa.int64()),
            "n_trim": pa.array([], type=pa.int64()),
            "sum_q": pa.array([], type=pa.int64()),
            "trimmed_mean": pa.array([], type=pa.float64()),
        })
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    vq = np.floor(np.asarray(group.column("value"), dtype=np.float64)
                  * W7_VSCALE + 0.5).astype(np.int64)
    starts = run_starts(group, ["user_id"])
    lens = np.diff(np.append(starts, n)).astype(np.int64)
    m = lens // 10
    rank = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
    keep = (rank >= np.repeat(m, lens)) & (rank < np.repeat(lens - m, lens))
    sums = np.add.reduceat(np.where(keep, vq, 0), starts)
    denom = (lens - 2 * m).astype(np.float64) * W7_VSCALE
    return pa.table({
        "user_id": pa.array(uid[starts], type=pa.int64()),
        "n": pa.array(lens, type=pa.int64()),
        "n_trim": pa.array(m, type=pa.int64()),
        "sum_q": pa.array(sums, type=pa.int64()),
        "trimmed_mean": pa.array(sums.astype(np.float64) / denom,
                                 type=pa.float64()),
    })


def w7_trimmed_mean_events(sf_dir: str, num_partitions: int = 16):
    """W7 — per-key 10%-trimmed mean (the robust location feature next to
    W6's rank transform: outlier-resistant without the median's
    interpolation subtleties).  Same one-exchange ``_pkey`` layout; the
    trim set is selected under a deterministic total order so the
    distributed result is block-order independent; the quantized middle
    sums exactly and the mean is a single IEEE division the SQL oracle
    replays."""
    ev = _read_events(sf_dir, ["event_id", "user_id", "value"])
    return partition_apply(ev, ["user_id"], _trimmed_kernel, num_partitions)


# ---------------------------------------------------------------- W8 ----
W8_WINDOW_US = 3_600_000_000  # 1 hour


def _time_window_kernel(group: pa.Table) -> pa.Table:
    """Per-user trailing TIME-RANGE window (SQL ``RANGE BETWEEN INTERVAL
    1 HOUR PRECEDING AND CURRENT ROW``: all events with ts in
    [t−1h, t], ties-by-ts are peers and all count).  Fully vectorized:
    per-user ts runs are made globally monotone by a per-user offset
    larger than the corpus time span, so ONE ``searchsorted`` per bound
    serves every user at once; counts/sums come from prefix-sum
    differences over exact quantized ints."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "event_id": pa.array([], type=pa.int64()),
            "user_id": pa.array([], type=pa.int64()),
            "n_1h": pa.array([], type=pa.int64()),
            "sum_q_1h": pa.array([], type=pa.int64()),
        })
    ts = _ts_us(group.column("ts"))
    vq = np.floor(np.asarray(group.column("value"), dtype=np.float64)
                  * 1_000_000 + 0.5).astype(np.int64)
    starts = run_starts(group, ["user_id"])
    lens = np.diff(np.append(starts, n))
    uidx = np.repeat(np.arange(len(starts), dtype=np.int64), lens)
    span = int(ts.max() - ts.min()) + W8_WINDOW_US + 2
    shifted = ts + uidx * span
    lo = np.searchsorted(shifted, shifted - W8_WINDOW_US, side="left")
    hi = np.searchsorted(shifted, shifted, side="right")
    csum = np.concatenate(([0], np.cumsum(vq)))
    return pa.table({
        "event_id": group.column("event_id"),
        "user_id": group.column("user_id"),
        "n_1h": pa.array(hi - lo, type=pa.int64()),
        "sum_q_1h": pa.array(csum[hi] - csum[lo], type=pa.int64()),
    })


def w8_time_window_events(sf_dir: str, num_partitions: int = 16):
    """W8 — trailing time-range window features (events per user in the
    last hour + their exact quantized value sum), the time-based sibling
    of W3's row-count windows: rate limiting, burst detection, activity
    features.  Same one-exchange ``_pkey`` layout; the kernel is two
    global ``searchsorted`` calls and one prefix sum — no per-event or
    per-user Python."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    return partition_apply(ev, ["user_id"], _time_window_kernel,
                           num_partitions)


# ---------------------------------------------------------------- J5 ----
def seeded_windows(t0_us: int, t1_us: int,
                   n_windows: int = N_WINDOWS) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic overlapping audit windows over [t0, t1]: lo offsets
    from a Knuth multiplicative mix of the window id (plain int64
    arithmetic, reproduced literally in the SQL oracle), length span/6."""
    span = t1_us - t0_us + 1
    i = np.arange(n_windows, dtype=np.int64)
    lo = t0_us + ((i * WINDOW_MIX) % 4294967296) % span
    hi = lo + span // 6
    return lo, hi


def j5_interval_stats(sf_dir: str, n_windows: int = N_WINDOWS):
    """J5 — many-to-many interval stab join: events against a small
    overlapping window table (broadcast; J1's small-side assumption).
    The stab kernel pre-aggregates per batch (count / min / max per
    window), so the exchange after the map carries at most ``n_windows``
    rows per block — the partial-aggregate-before-groupby discipline.
    Windows with no events produce no row (inner-join semantics, as the
    SQL oracle's JOIN has)."""
    import ray.data
    from ray.data.aggregate import Max, Min

    ev = _read_events(sf_dir, ["ts", "value"])
    bounds = ev.aggregate(Min("ts"), Max("ts"))
    t0 = int(np.datetime64(bounds["min(ts)"], "us").astype(np.int64))
    t1 = int(np.datetime64(bounds["max(ts)"], "us").astype(np.int64))
    lo, hi = seeded_windows(t0, t1, n_windows)

    def stab(batch: pa.Table) -> pa.Table:
        ts = _ts_us(batch.column("ts"))
        value = batch.column("value")
        if isinstance(value, pa.ChunkedArray):
            value = value.combine_chunks()
        v = np.asarray(value, dtype=np.float64)
        wid, cnt, mn, mx = [], [], [], []
        for k in range(lo.shape[0]):
            m = (ts >= lo[k]) & (ts < hi[k])
            c = int(np.count_nonzero(m))
            if c:
                wid.append(k)
                cnt.append(c)
                mn.append(float(v[m].min()))
                mx.append(float(v[m].max()))
        return pa.table({
            "window_id": pa.array(wid, type=pa.int64()),
            "n_events": pa.array(cnt, type=pa.int64()),
            "min_value": pa.array(mn, type=pa.float64()),
            "max_value": pa.array(mx, type=pa.float64()),
        })

    def merge(group: pa.Table) -> pa.Table:
        k = int(group.column("window_id")[0].as_py())
        return pa.table({
            "window_id": pa.array([k], type=pa.int64()),
            "lo_us": pa.array([int(lo[k])], type=pa.int64()),
            "hi_us": pa.array([int(hi[k])], type=pa.int64()),
            "n_events": pa.array(
                [pa.compute.sum(group.column("n_events")).as_py()], type=pa.int64()),
            "min_value": pa.array(
                [pa.compute.min(group.column("min_value")).as_py()], type=pa.float64()),
            "max_value": pa.array(
                [pa.compute.max(group.column("max_value")).as_py()], type=pa.float64()),
        })

    partials = ev.map_batches(stab, batch_format="pyarrow", zero_copy_batch=True)
    return partials.groupby("window_id").map_groups(merge, batch_format="pyarrow")


# ---------------------------------------------------------------- W9 ----
def _cumsum_kernel(group: pa.Table) -> pa.Table:
    """Per-user running total (SQL ``SUM() OVER (PARTITION BY user ORDER BY
    ts, event_id ROWS UNBOUNDED PRECEDING)``) over the micro-quantized
    value — exact int64, so the distributed result is bit-identical to the
    window SUM whatever the block layout.  Vectorized: one global cumsum,
    rebased at each user-run start by subtraction."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "event_id": pa.array([], type=pa.int64()),
            "user_id": pa.array([], type=pa.int64()),
            "vq": pa.array([], type=pa.int64()),
            "running_vq": pa.array([], type=pa.int64()),
            "running_n": pa.array([], type=pa.int64()),
        })
    starts = run_starts(group, ["user_id"])
    lens = np.diff(np.append(starts, n))
    value = group.column("value")
    if isinstance(value, pa.ChunkedArray):
        value = value.combine_chunks()
    vq = np.floor(np.asarray(value, dtype=np.float64) * VSCALE
                  + 0.5).astype(np.int64)
    c = np.cumsum(vq)
    base = np.repeat(np.concatenate(([0], c[starts[1:] - 1])), lens)
    running = c - base
    seq = np.arange(n, dtype=np.int64) - np.repeat(starts, lens) + 1
    return pa.table({
        "event_id": group.column("event_id"),
        "user_id": group.column("user_id"),
        "vq": pa.array(vq, type=pa.int64()),
        "running_vq": pa.array(running, type=pa.int64()),
        "running_n": pa.array(seq, type=pa.int64()),
    })


def w9_running_total_events(sf_dir: str, num_partitions: int = 16):
    """W9 — per-key running cumulative sum + count (the prefix-sum window
    frame, the most common feature window of all).  Same one-exchange
    ``_pkey`` layout as W1–W8; the kernel is one cumsum + one rebase
    subtraction, no per-row Python."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    return partition_apply(ev, ["user_id"], _cumsum_kernel, num_partitions)


# --------------------------------------------------------------- W12 ----
def _robust_scale_kernel(group: pa.Table) -> pa.Table:
    """Per-user median + MAD of the micro-quantized value — the robust
    location/scale feature pair (Iglewicz & Hoaglin 1993).  Medians of
    int64 are exact halves and MADs exact quarters, so both match DuckDB's
    ``median``/``mad`` bitwise.  Vectorized: ONE lexsort over the whole
    partition serves every user's median (`segment_medians`)."""
    from anomalydetection_ray.functions.stats import segment_medians

    group = group.sort_by([("user_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "n": pa.array([], type=pa.int64()),
            "med_vq": pa.array([], type=pa.float64()),
            "mad_vq": pa.array([], type=pa.float64()),
        })
    starts = run_starts(group, ["user_id"])
    lens = np.diff(np.append(starts, n))
    value = group.column("value")
    if isinstance(value, pa.ChunkedArray):
        value = value.combine_chunks()
    vq = np.floor(np.asarray(value, dtype=np.float64) * VSCALE
                  + 0.5)
    seg_of = np.repeat(np.arange(starts.shape[0], dtype=np.int64), lens)
    med = segment_medians(vq, seg_of, starts.shape[0], starts, lens)
    dev = np.abs(vq - med[seg_of])
    mad = segment_medians(dev, seg_of, starts.shape[0], starts, lens)
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    return pa.table({
        "user_id": pa.array(uid[starts], type=pa.int64()),
        "n": pa.array(lens, type=pa.int64()),
        "med_vq": pa.array(med, type=pa.float64()),
        "mad_vq": pa.array(mad, type=pa.float64()),
    })


def w12_robust_scale_events(sf_dir: str, num_partitions: int = 16):
    """W12 — per-key robust location/scale (median + MAD of value), the
    outlier-resistant normalization statistics computed before training.
    Same one-exchange ``_pkey`` layout as W1–W9."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    return partition_apply(ev, ["user_id"], _robust_scale_kernel,
                           num_partitions)


# --------------------------------------------------------------- W13 ----
def _twa_kernel(group: pa.Table) -> pa.Table:
    """Per-user time-weighted average of value under step-function
    semantics: twa = Σ cents_i·(t_{i+1}−t_i) / (t_n−t_0) over the user's
    ts-ordered events.  All weights are exact int64 (Σ gaps telescopes to
    the user's span, so Σ cents·gap <= max_cents·span — far inside
    int64); the average is ONE pinned division.  Single-event / zero-span
    users emit NULL."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "n": pa.array([], type=pa.int64()),
            "num_cents_us": pa.array([], type=pa.int64()),
            "span_us": pa.array([], type=pa.int64()),
            "twa_cents": pa.array([], type=pa.float64()),
        })
    starts = run_starts(group, ["user_id"])
    lens = np.diff(np.append(starts, n))
    ts = _ts_us(group.column("ts"))
    value = group.column("value")
    if isinstance(value, pa.ChunkedArray):
        value = value.combine_chunks()
    cents = np.floor(np.asarray(value, dtype=np.float64) * 100
                     + 0.5).astype(np.int64)
    is_last = np.zeros(n, dtype=bool)
    is_last[np.append(starts[1:], n) - 1] = True
    gap = np.empty(n, dtype=np.int64)
    gap[:-1] = ts[1:] - ts[:-1]
    gap[-1] = 0
    gap[is_last] = 0  # no weight after a user's final event
    w = cents * gap
    c = np.concatenate(([0], np.cumsum(w)))
    ends = np.append(starts[1:], n)
    num = c[ends] - c[starts]
    span = ts[ends - 1] - ts[starts]
    twa = np.zeros(starts.shape[0], dtype=np.float64)
    mask = span == 0
    np.divide(num, span, out=twa, where=~mask)
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    return pa.table({
        "user_id": pa.array(uid[starts], type=pa.int64()),
        "n": pa.array(lens, type=pa.int64()),
        "num_cents_us": pa.array(num, type=pa.int64()),
        "span_us": pa.array(span, type=pa.int64()),
        "twa_cents": pa.array(twa, type=pa.float64(), mask=mask),
    })


def w13_time_weighted_avg_events(sf_dir: str, num_partitions: int = 16):
    """W13 — per-key time-weighted average (step-function integral over
    the event timeline), the metric that makes irregularly-sampled series
    comparable.  Same one-exchange ``_pkey`` layout as W1–W12."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    return partition_apply(ev, ["user_id"], _twa_kernel, num_partitions)


# --------------------------------------------------------------- W14 ----
def _event_flags_kernel(group: pa.Table, window: int, c: float) -> pa.Table:
    """Per-user A6 control chart over the event value series (ts order):
    flag |cents_i - m_i| > c * s_i with m/s from the trailing ``window``
    events' EXACT int64 cents sums (cents^2 sums stay far inside int64 at
    any realistic per-user history), then report the order-insensitive
    per-user flag summary the SQL window oracle reproduces bit-for-bit —
    the docs-table A6 detector re-expressed over the events table."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "n": pa.array([], type=pa.int64()),
            "n_flags": pa.array([], type=pa.int64()),
            "pos_sum": pa.array([], type=pa.int64()),
            "pos_sumsq": pa.array([], type=pa.int64()),
        })
    starts = run_starts(group, ["user_id"])
    lens = np.diff(np.append(starts, n))
    value = group.column("value")
    if isinstance(value, pa.ChunkedArray):
        value = value.combine_chunks()
    cents = np.floor(np.asarray(value, dtype=np.float64) * 100
                     + 0.5).astype(np.int64)
    seg_of = np.repeat(np.arange(starts.shape[0], dtype=np.int64), lens)
    local = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
    # trailing-window sums via per-user-rebased cumsums: a window never
    # crosses a user boundary because it is clipped at local index w-1
    c1 = np.cumsum(cents)
    c2 = np.cumsum(cents * cents)
    base1 = np.repeat(np.concatenate(([0], c1[starts[1:] - 1])), lens)
    base2 = np.repeat(np.concatenate(([0], c2[starts[1:] - 1])), lens)
    r1 = c1 - base1  # inclusive prefix within user
    r2 = c2 - base2
    w = window
    eligible = local >= w - 1
    lag = np.maximum(local - w, -1)
    gstart = np.repeat(starts, lens)
    l1 = np.where(lag >= 0, c1[gstart + lag] - base1, 0)
    l2 = np.where(lag >= 0, c2[gstart + lag] - base2, 0)
    s1 = r1 - l1
    s2 = r2 - l2
    m = s1 / w
    var = s2 / w - m * m
    np.maximum(var, 0.0, out=var)
    sd = np.sqrt(var)
    flags = eligible & (np.abs(cents - m) > c * sd)
    nseg = starts.shape[0]
    n_flags = np.zeros(nseg, dtype=np.int64)
    pos_sum = np.zeros(nseg, dtype=np.int64)
    pos_sumsq = np.zeros(nseg, dtype=np.int64)
    hit = np.flatnonzero(flags)
    np.add.at(n_flags, seg_of[hit], 1)
    np.add.at(pos_sum, seg_of[hit], local[hit])
    np.add.at(pos_sumsq, seg_of[hit], local[hit] * local[hit])
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    return pa.table({
        "user_id": pa.array(uid[starts], type=pa.int64()),
        "n": pa.array(lens, type=pa.int64()),
        "n_flags": pa.array(n_flags, type=pa.int64()),
        "pos_sum": pa.array(pos_sum, type=pa.int64()),
        "pos_sumsq": pa.array(pos_sumsq, type=pa.int64()),
    })


def w14_event_anomaly_flags(sf_dir: str, window: int = 20, c: float = 3.0,
                            num_partitions: int = 16):
    """W14 — the A6 control-chart detector over the EVENTS table: per-user
    trailing-window robust flags on the value series, summarized per user.
    Same one-exchange ``_pkey`` layout; the kernel is four cumsums and a
    gather — no per-row Python."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    kernel = functools.partial(_event_flags_kernel, window=window, c=c)
    return partition_apply(ev, ["user_id"], kernel, num_partitions)


# ---------------------------------------------------------------- T8 ----
RETAIN_US = 7 * 86_400_000_000


def _cohort_kernel(group: pa.Table) -> pa.Table:
    """Per-user cohort facts: signup day (first 'signup' event) and
    whether a 'purchase' follows within the retention window.  Emits one
    row per signed-up user; users who never signed up are skipped (they
    belong to no cohort)."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "cohort_day": pa.array([], type=pa.int64()),
            "retained": pa.array([], type=pa.int64()),
        })
    starts = run_starts(group, ["user_id"])
    lens = np.diff(np.append(starts, n))
    seg_of = np.repeat(np.arange(starts.shape[0], dtype=np.int64), lens)
    ts = _ts_us(group.column("ts"))
    et = group.column("event_type")
    if isinstance(et, pa.ChunkedArray):
        et = et.combine_chunks()
    is_signup = np.asarray(pa.compute.equal(et, "signup"))
    is_purchase = np.asarray(pa.compute.equal(et, "purchase"))
    BIG = np.iinfo(np.int64).max
    nseg = starts.shape[0]
    t_signup = np.full(nseg, BIG, dtype=np.int64)
    np.minimum.at(t_signup, seg_of[is_signup], ts[is_signup])
    # purchase within [t_signup, t_signup + window]
    pw = is_purchase & (ts >= t_signup[seg_of]) \
        & (ts <= t_signup[seg_of] + RETAIN_US)
    retained = np.zeros(nseg, dtype=np.int64)
    retained[seg_of[np.flatnonzero(pw)]] = 1
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    live = t_signup != BIG
    return pa.table({
        "user_id": pa.array(uid[starts][live], type=pa.int64()),
        "cohort_day": pa.array(t_signup[live] // 86_400_000_000,
                               type=pa.int64()),
        "retained": pa.array(retained[live], type=pa.int64()),
    })


def t8_cohort_retention(sf_dir: str, num_partitions: int = 16):
    """T8 — cohort retention: per signup-day cohort, how many users made
    a purchase within 7 days of their first signup.  Two exchanges, both
    tiny: the per-user `_pkey` kernel emits ONE row per signed-up user,
    then a per-cohort-day count.  The SQL oracle replays the window rule
    with FILTERed mins + EXISTS."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "event_type"])
    per_user = partition_apply(ev, ["user_id"], _cohort_kernel, num_partitions)

    def merge(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "cohort_day": group.column("cohort_day").slice(0, 1),
            "n_users": pa.array([group.num_rows], type=pa.int64()),
            "n_retained": pa.array(
                [int(pc.sum(group.column("retained")).as_py())],
                type=pa.int64()),
        })

    return per_user.groupby("cohort_day").map_groups(
        merge, batch_format="pyarrow")


# --------------------------------------------------------------- W16 ----
def _share_kernel(group: pa.Table) -> pa.Table:
    """Per-event share of its user's total (SQL ``ratio_to_report``):
    vq / Σ_user vq, exact int numerator/denominator and ONE pinned
    division per event.  Zero-total users emit NULL shares."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "event_id": pa.array([], type=pa.int64()),
            "user_id": pa.array([], type=pa.int64()),
            "vq": pa.array([], type=pa.int64()),
            "user_total_vq": pa.array([], type=pa.int64()),
            "share": pa.array([], type=pa.float64()),
        })
    starts = run_starts(group, ["user_id"])
    lens = np.diff(np.append(starts, n))
    value = group.column("value")
    if isinstance(value, pa.ChunkedArray):
        value = value.combine_chunks()
    vq = np.floor(np.asarray(value, dtype=np.float64) * VSCALE
                  + 0.5).astype(np.int64)
    c = np.concatenate(([0], np.cumsum(vq)))
    ends = np.append(starts[1:], n)
    tot = np.repeat(c[ends] - c[starts], lens)
    share = np.zeros(n, dtype=np.float64)
    mask = tot == 0
    np.divide(vq, tot, out=share, where=~mask)
    return pa.table({
        "event_id": group.column("event_id"),
        "user_id": group.column("user_id"),
        "vq": pa.array(vq, type=pa.int64()),
        "user_total_vq": pa.array(tot, type=pa.int64()),
        "share": pa.array(share, type=pa.float64(), mask=mask),
    })


def w16_share_of_total_events(sf_dir: str, num_partitions: int = 16):
    """W16 — per-key share-of-total normalization (`ratio_to_report`),
    the proportion feature next to W6's rank transform.  Same
    one-exchange ``_pkey`` layout as W1–W14."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    return partition_apply(ev, ["user_id"], _share_kernel, num_partitions)


# ---------------------------------------------------------------- W10 ----
def _transition_kernel(group: pa.Table) -> pa.Table:
    """Per-partition partial transition counts: adjacent (event_type ->
    next event_type) pairs within each user's (ts, event_id)-ordered
    stream, counted with Arrow's C-level ``group_by``.  Emits at most
    ``n_types**2`` rows per partition regardless of partition size — the
    partial-before-exchange discipline."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")])
    n = group.num_rows
    empty = pa.table({
        "from_type": pa.array([], type=pa.string()),
        "to_type": pa.array([], type=pa.string()),
        "cnt": pa.array([], type=pa.int64()),
    })
    if n < 2:
        return empty
    starts = run_starts(group, ["user_id"])
    et = group.column("event_type")
    if isinstance(et, pa.ChunkedArray):
        et = et.combine_chunks()
    # pair i: (et[i], et[i+1]) unless i+1 starts a new user
    keep = np.ones(n - 1, dtype=bool)
    keep[starts[starts > 0] - 1] = False
    if not keep.any():
        return empty
    idx = np.flatnonzero(keep)
    pairs = pa.table({"from_type": et.take(pa.array(idx)),
                      "to_type": et.take(pa.array(idx + 1))})
    out = pairs.group_by(["from_type", "to_type"]).aggregate([([], "count_all")])
    return pa.table({
        "from_type": out.column("from_type"),
        "to_type": out.column("to_type"),
        "cnt": out.column("count_all").cast(pa.int64()),
    })


def _transition_merge(group: pa.Table) -> pa.Table:
    """Final per-``from_type`` merge: sum partial counts per ``to_type``,
    then the row-conditional probability ``cnt / from_total`` — exact
    int64 counts, ONE pinned float division per row (both sides compute
    float(cnt) / float(from_total))."""
    t = group.group_by(["from_type", "to_type"]).aggregate([("cnt", "sum")])
    cnt = np.asarray(t.column("cnt_sum"), dtype=np.int64)
    total = int(cnt.sum())
    prob = cnt.astype(np.float64) / float(total)
    return pa.table({
        "from_type": t.column("from_type"),
        "to_type": t.column("to_type"),
        "cnt": pa.array(cnt, type=pa.int64()),
        "from_total": pa.array(np.full(len(cnt), total), type=pa.int64()),
        "prob": pa.array(prob, type=pa.float64()),
    })


def w10_markov_transitions(sf_dir: str, num_partitions: int = 16):
    """W10 — per-user event-type Markov transition matrix: corpus-wide
    counts of adjacent (from_type -> to_type) steps within each user's
    timeline, plus the conditional transition probability per from_type.

    Scale shape: one ``_pkey`` hash exchange on ``user_id`` co-locates
    each user's timeline; the per-partition kernel collapses pairs to at
    most ``n_types**2`` partial-count rows BEFORE the second (tiny)
    exchange on ``from_type``, so shuffle volume is independent of event
    count.  Oracle: ``lead() OVER (PARTITION BY user_id ORDER BY ts,
    event_id)`` + grouped counts + a windowed per-from_type total."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "event_type"])
    partials = partition_apply(ev, ["user_id"], _transition_kernel,
                               num_partitions)
    return partials.groupby("from_type").map_groups(_transition_merge,
                                                    batch_format="pyarrow")


# ---------------------------------------------------------------- A10 ----
def _hampel_kernel(group: pa.Table, window: int, c: float) -> pa.Table:
    """Per-partition Hampel filter (Pearson/Hampel robust outlier
    detector): rolling median and rolling MAD over the trailing
    ``window`` rows of each user's (ts, event_id)-ordered value series;
    a point is anomalous when ``|x - med| > c * (1.4826 * mad)``.  Rows
    are emitted only where the window is FULL (local index >= window-1),
    mirroring the oracle's ``rn >= window`` filter.

    Vectorized via ``sliding_window_view`` + ``np.median`` along axis 1
    (two medians, no Python row loop).  Medians of doubles are an element
    or an exact midpoint — one IEEE op — so ``median``/``mad`` match
    DuckDB's window ``median()``/``mad()`` bitwise (the w12 discipline);
    the threshold comparison pins the float sequence ``c * (1.4826 *
    mad)`` identically on both sides."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")])
    n = group.num_rows
    empty = pa.table({
        "event_id": pa.array([], type=pa.int64()),
        "user_id": pa.array([], type=pa.int64()),
        "value": pa.array([], type=pa.float64()),
        "med": pa.array([], type=pa.float64()),
        "mad": pa.array([], type=pa.float64()),
        "is_anomaly": pa.array([], type=pa.bool_()),
    })
    if n < window:
        return empty
    starts = run_starts(group, ["user_id"])
    lens = np.diff(np.append(starts, n))
    seq = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
    value = group.column("value")
    if isinstance(value, pa.ChunkedArray):
        value = value.combine_chunks()
    x = np.asarray(value, dtype=np.float64)
    # window ending at global row i uses x[i-window+1 .. i]; valid only
    # when the whole window lies inside one user's run (seq >= window-1)
    keep = np.flatnonzero(seq >= window - 1)
    if keep.size == 0:
        return empty
    sw = np.lib.stride_tricks.sliding_window_view(x, window)[keep - (window - 1)]
    med = np.median(sw, axis=1)
    mad = np.median(np.abs(sw - med[:, None]), axis=1)
    xs = x[keep]
    flag = np.abs(xs - med) > c * (1.4826 * mad)
    ids = pa.array(keep)
    return pa.table({
        "event_id": group.column("event_id").take(ids),
        "user_id": group.column("user_id").take(ids),
        "value": pa.array(xs, type=pa.float64()),
        "med": pa.array(med, type=pa.float64()),
        "mad": pa.array(mad, type=pa.float64()),
        "is_anomaly": pa.array(flag, type=pa.bool_()),
    })


def a10_hampel_filter(sf_dir: str, window: int = 7, c: float = 3.0,
                      num_partitions: int = 16):
    """A10 — Hampel rolling-median/MAD outlier filter per user over the
    events value series: the robust sibling of the A6 moving-mean/std
    control chart (median/MAD shrug off the very outliers a mean/std
    window absorbs).  Classic timeseries-cleaning operator (Hampel 1974;
    Pearson 2002 "Outliers in process modeling and identification").

    Scale shape: ONE ``_pkey`` hash exchange on ``user_id`` (the same
    layout every W-family operator uses), then a fully vectorized
    per-partition kernel — two ``np.median`` calls over a strided window
    view.  Oracle: DuckDB ``median()``/``mad()`` window aggregates over
    ``ROWS BETWEEN window-1 PRECEDING AND CURRENT ROW``."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    kernel = functools.partial(_hampel_kernel, window=window, c=c)
    return partition_apply(ev, ["user_id"], kernel, num_partitions)


# ---------------------------------------------------------------- D7 ----
def _debounce_kernel(group: pa.Table, min_gap_us: int) -> pa.Table:
    """Per-partition debounce: an event is a duplicate when the previous
    event of the SAME (user_id, event_type) is closer than
    ``min_gap_us``.  Gap is relative to the previous observed event (SQL
    ``lag()`` semantics), not the previous kept one — keeps the kernel a
    pure vectorized shift, no sequential keep-state."""
    group = group.sort_by(
        [("user_id", "ascending"), ("event_type", "ascending"),
         ("ts", "ascending"), ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "event_id": pa.array([], type=pa.int64()),
            "user_id": pa.array([], type=pa.int64()),
            "event_type": pa.array([], type=pa.string()),
            "gap_same_type_us": pa.array([], type=pa.int64()),
            "is_dup": pa.array([], type=pa.bool_()),
        })
    starts = run_starts(group, ["user_id", "event_type"])
    ts = _ts_us(group.column("ts"))
    first = np.zeros(n, dtype=bool)
    first[starts] = True
    gap = np.empty(n, dtype=np.int64)
    gap[1:] = ts[1:] - ts[:-1]
    gap[0] = 0
    is_dup = (~first) & (gap < min_gap_us)
    return pa.table({
        "event_id": group.column("event_id"),
        "user_id": group.column("user_id"),
        "event_type": group.column("event_type"),
        "gap_same_type_us": pa.array(gap, type=pa.int64(), mask=first),
        "is_dup": pa.array(is_dup, type=pa.bool_()),
    })


def d7_debounce_events(sf_dir: str, min_gap_us: int = 86_400_000_000,
                       num_partitions: int = 16):
    """D7 — event-level near-time duplicate suppression (telemetry
    debounce): flag events whose previous same-(user, type) event is
    closer than ``min_gap_us`` (default 24 h).  The row-level sibling of
    the document dedup family — the same operator a click/beacon
    pipeline runs before counting.

    Scale shape: ONE ``_pkey`` hash exchange on ``user_id``; the kernel
    is a sort + one shifted subtraction, no Python loop.  Oracle:
    ``lag(ts) OVER (PARTITION BY user_id, event_type ...)``."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "event_type"])
    kernel = functools.partial(_debounce_kernel, min_gap_us=min_gap_us)
    return partition_apply(ev, ["user_id"], kernel, num_partitions)


# ---------------------------------------------------------------- W15 ----
DAY_US_W15 = 86_400_000_000


def _pop_partial(batch: pa.Table) -> pa.Table:
    """Per-block partial: (event_type, day) count + quantized value sum
    via Arrow's C-level group_by — at most ``types * days`` rows leave
    each block."""
    ts = _ts_us(batch.column("ts"))
    value = batch.column("value")
    if isinstance(value, pa.ChunkedArray):
        value = value.combine_chunks()
    vq = np.floor(np.asarray(value, dtype=np.float64) * VSCALE
                  + 0.5).astype(np.int64)
    t = pa.table({
        "event_type": batch.column("event_type"),
        "day": pa.array(ts // DAY_US_W15, type=pa.int64()),
        "vq": pa.array(vq, type=pa.int64()),
    })
    out = t.group_by(["event_type", "day"]).aggregate(
        [([], "count_all"), ("vq", "sum")])
    return pa.table({
        "event_type": out.column("event_type"),
        "day": out.column("day"),
        "cnt": out.column("count_all").cast(pa.int64()),
        "sum_vq": out.column("vq_sum").cast(pa.int64()),
    })


def _pop_merge(group: pa.Table) -> pa.Table:
    """Final per-type merge: sum day partials, order by day, then the
    lag/delta/pct-change columns.  ``pct_change = (cnt - prev) / prev``
    — exact int numerator/denominator, ONE pinned float division."""
    t = group.group_by(["event_type", "day"]).aggregate(
        [("cnt", "sum"), ("sum_vq", "sum")]).sort_by([("day", "ascending")])
    n = t.num_rows
    day = np.asarray(t.column("day"), dtype=np.int64)
    cnt = np.asarray(t.column("cnt_sum"), dtype=np.int64)
    first = np.zeros(n, dtype=bool)
    first[0] = True
    prev = np.empty(n, dtype=np.int64)
    prev[1:] = cnt[:-1]
    prev[0] = 0
    day_gap = np.empty(n, dtype=np.int64)
    day_gap[1:] = day[1:] - day[:-1]
    day_gap[0] = 0
    delta = cnt - prev
    with np.errstate(divide="ignore", invalid="ignore"):
        pct = delta.astype(np.float64) / prev.astype(np.float64)
    return pa.table({
        "event_type": t.column("event_type"),
        "day": t.column("day"),
        "cnt": pa.array(cnt, type=pa.int64()),
        "sum_vq": pa.array(np.asarray(t.column("sum_vq_sum"),
                                      dtype=np.int64), type=pa.int64()),
        "prev_cnt": pa.array(prev, type=pa.int64(), mask=first),
        "delta_cnt": pa.array(delta, type=pa.int64(), mask=first),
        "day_gap": pa.array(day_gap, type=pa.int64(), mask=first),
        "pct_change": pa.array(pct, type=pa.float64(), mask=first),
    })


def w15_period_over_period(sf_dir: str):
    """W15 — period-over-period comparison: per (event_type, day) counts
    and exact quantized value sums, with lag-to-previous-observed-day
    delta and percent change — the report-layer staple next to T7's
    pivot.  ``prev`` follows SQL ``lag()`` semantics (previous observed
    day, not calendar-previous; ``day_gap`` exposes holes).

    Scale shape: per-block Arrow group_by partials (≤ types·days rows per
    block) → one tiny exchange on event_type → per-type vectorized
    shift.  Oracle: grouped counts + ``lag() OVER (PARTITION BY
    event_type ORDER BY day)``."""
    ev = _read_events(sf_dir, ["ts", "event_type", "value"])
    partials = ev.map_batches(_pop_partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    return partials.groupby("event_type").map_groups(_pop_merge,
                                                     batch_format="pyarrow")


# ---------------------------------------------------------------- W17 ----
def _basket_kernel(group: pa.Table) -> pa.Table:
    """Per-partition basket pass: dedup (user, type) pairs, expand each
    user's sorted distinct-type set into unordered pairs (a < b), and
    emit partial counts — pair rows (type_a, type_b, cnt), per-type user
    counts (type_a, NULL, cnt) and a user-count row ('__users__', NULL,
    n).  Pair expansion is vectorized per distinct basket SIZE (segments
    gathered into a (num_seg, L) matrix, triu index pairs taken
    column-wise), so the only Python loop is over the <= n_types basket
    sizes."""
    tbl = group.sort_by(
        [("user_id", "ascending"), ("event_type", "ascending")])
    empty = pa.table({
        "type_a": pa.array([], type=pa.string()),
        "type_b": pa.array([], type=pa.string()),
        "cnt": pa.array([], type=pa.int64()),
    })
    n = tbl.num_rows
    if n == 0:
        return empty
    uid = np.asarray(tbl.column("user_id"), dtype=np.int64)
    et = tbl.column("event_type")
    if isinstance(et, pa.ChunkedArray):
        et = et.combine_chunks()
    codes_arr = et.dictionary_encode()
    codes = np.asarray(codes_arr.indices, dtype=np.int64)
    vocab = codes_arr.dictionary.to_pylist()
    # distinct (user, code) rows
    keep = np.ones(n, dtype=bool)
    keep[1:] = (uid[1:] != uid[:-1]) | (codes[1:] != codes[:-1])
    uid, codes = uid[keep], codes[keep]
    m = len(uid)
    starts = np.flatnonzero(np.concatenate(([True], uid[1:] != uid[:-1])))
    lens = np.diff(np.append(starts, m))
    out_a, out_b = [], []
    for L in np.unique(lens):
        if L < 2:
            continue
        segs = starts[lens == L]
        mat = codes[segs[:, None] + np.arange(L)]       # (num_seg, L)
        ii, jj = np.triu_indices(int(L), k=1)
        out_a.append(mat[:, ii].ravel())
        out_b.append(mat[:, jj].ravel())
    rows_a, rows_b, rows_c = [], [], []
    if out_a:
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        pairs = pa.table({"type_a": pa.array([vocab[i] for i in a],
                                             type=pa.string()),
                          "type_b": pa.array([vocab[i] for i in b],
                                             type=pa.string())})
        g = pairs.group_by(["type_a", "type_b"]).aggregate([([], "count_all")])
        rows_a += g.column("type_a").to_pylist()
        rows_b += g.column("type_b").to_pylist()
        rows_c += g.column("count_all").to_pylist()
    # per-type user counts (distinct by construction within partition)
    tcodes, tcnt = np.unique(codes, return_counts=True)
    rows_a += [vocab[i] for i in tcodes]
    rows_b += [None] * len(tcodes)
    rows_c += [int(c) for c in tcnt]
    # partition user count
    rows_a.append("__users__")
    rows_b.append(None)
    rows_c.append(int(len(starts)))
    return pa.table({"type_a": pa.array(rows_a, type=pa.string()),
                     "type_b": pa.array(rows_b, type=pa.string()),
                     "cnt": pa.array(rows_c, type=pa.int64())})


def _lift_final(group: pa.Table) -> pa.Table:
    """Single tiny final group: sum partials, then ``lift = (co * n) /
    (count_a * count_b)`` — both products exact int64, ONE pinned float
    division."""
    t = group.group_by(["type_a", "type_b"]).aggregate([("cnt", "sum")])
    ta = t.column("type_a").to_pylist()
    tb = t.column("type_b").to_pylist()
    cnt = np.asarray(t.column("cnt_sum"), dtype=np.int64)
    singles = {a: int(c) for a, b, c in zip(ta, tb, cnt) if b is None}
    n_users = singles.pop("__users__")
    out = {"type_a": [], "type_b": [], "co": [], "count_a": [],
           "count_b": [], "n_users": [], "lift": []}
    for a, b, c in zip(ta, tb, cnt):
        if b is None:
            continue
        ca, cb = singles[a], singles[b]
        out["type_a"].append(a)
        out["type_b"].append(b)
        out["co"].append(int(c))
        out["count_a"].append(ca)
        out["count_b"].append(cb)
        out["n_users"].append(n_users)
        out["lift"].append(float(int(c) * n_users) / float(ca * cb))
    return pa.table({
        "type_a": pa.array(out["type_a"], type=pa.string()),
        "type_b": pa.array(out["type_b"], type=pa.string()),
        "co": pa.array(out["co"], type=pa.int64()),
        "count_a": pa.array(out["count_a"], type=pa.int64()),
        "count_b": pa.array(out["count_b"], type=pa.int64()),
        "n_users": pa.array(out["n_users"], type=pa.int64()),
        "lift": pa.array(out["lift"], type=pa.float64()),
    })


def w17_cooccurrence_lift(sf_dir: str, num_partitions: int = 16):
    """W17 — market-basket co-occurrence with lift: for every unordered
    event-type pair, how many users exhibit both, and the lift
    ``P(a,b) / (P(a)P(b))`` — the association-mining staple behind
    recommendations and feature-interaction audits (Agrawal et al. 1993).

    Scale shape: per-user baskets co-locate under ONE ``_pkey`` exchange
    on ``user_id``; the kernel collapses its partition to at most
    ``n_types**2 + n_types + 1`` partial-count rows before the second
    (tiny) exchange; lift is exact-int arithmetic + one division.
    Oracle: distinct-basket self-join in SQL."""
    ev = _read_events(sf_dir, ["user_id", "event_type"])

    def dedup_block(batch: pa.Table) -> pa.Table:
        # per-block distinct (user, type) before the exchange
        return batch.group_by(["user_id", "event_type"]).aggregate([])

    slim = ev.map_batches(dedup_block, batch_format="pyarrow",
                          zero_copy_batch=True)
    partials = partition_apply(slim, ["user_id"], _basket_kernel,
                               num_partitions)

    return partials.repartition(1).map_batches(_lift_final,
                                               batch_format="pyarrow")


# ---------------------------------------------------------------- W18 ----
def _lttb_kernel(group: pa.Table, bucket_pts: int) -> pa.Table:
    """Per-partition LTTB downsample (bucket-mean-anchor variant).  For
    each user's (ts, event_id)-ordered series, split into buckets of
    ``bucket_pts`` points; the first/last buckets keep the series'
    first/last point, every interior bucket keeps the point forming the
    LARGEST TRIANGLE with the neighbor buckets' mean points.

    All geometry is EXACT int64: x = seconds since the user's first
    event, y = value cents; the triangle area (doubled, scaled by
    ``n_left * n_right``) is
    ``|(SXl - x*nl)*(SYr - y*nr) - (SXr - x*nr)*(SYl - y*nl)|`` —
    integer products well under 2**63 at these magnitudes.  The winner
    per bucket is argmax(score) with min-seq tiebreak, found by ONE
    lexsort + run-take (no Python loop over rows)."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")])
    n = group.num_rows
    empty = pa.table({
        "user_id": pa.array([], type=pa.int64()),
        "bucket": pa.array([], type=pa.int64()),
        "event_id": pa.array([], type=pa.int64()),
        "x": pa.array([], type=pa.int64()),
        "y": pa.array([], type=pa.int64()),
        "score": pa.array([], type=pa.int64()),
    })
    if n == 0:
        return empty
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    eid = np.asarray(group.column("event_id"), dtype=np.int64)
    ts = _ts_us(group.column("ts"))
    value = group.column("value")
    if isinstance(value, pa.ChunkedArray):
        value = value.combine_chunks()
    y = np.floor(np.asarray(value, dtype=np.float64) * 100.0
                 + 0.5).astype(np.int64)
    starts = run_starts(group, ["user_id"])
    lens = np.diff(np.append(starts, n))
    seq = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
    x = (ts - np.repeat(ts[starts], lens)) // 1_000_000
    bucket = seq // bucket_pts
    nb_user = (lens + bucket_pts - 1) // bucket_pts

    # global bucket runs: change on new user or new bucket
    chg = np.ones(n, dtype=bool)
    chg[1:] = (uid[1:] != uid[:-1]) | (bucket[1:] != bucket[:-1])
    bstarts = np.flatnonzero(chg)
    g = np.cumsum(chg) - 1                       # row -> global bucket id
    cnt = np.diff(np.append(bstarts, n))
    sx = np.add.reduceat(x, bstarts)
    sy = np.add.reduceat(y, bstarts)

    nb_row = np.repeat(nb_user, lens)
    interior = (bucket > 0) & (bucket < nb_row - 1)
    out_rows = []
    if interior.any():
        gi = g[interior]
        xi, yi = x[interior], y[interior]
        nl, nr = cnt[gi - 1], cnt[gi + 1]
        score = np.abs((sx[gi - 1] - xi * nl) * (sy[gi + 1] - yi * nr)
                       - (sx[gi + 1] - xi * nr) * (sy[gi - 1] - yi * nl))
        order = np.lexsort((seq[interior], -score, gi))
        win_pos = order[np.concatenate(
            ([True], gi[order][1:] != gi[order][:-1]))]
        idx = np.flatnonzero(interior)[win_pos]
        out_rows.append(pa.table({
            "user_id": pa.array(uid[idx], type=pa.int64()),
            "bucket": pa.array(bucket[idx], type=pa.int64()),
            "event_id": pa.array(eid[idx], type=pa.int64()),
            "x": pa.array(x[idx], type=pa.int64()),
            "y": pa.array(y[idx], type=pa.int64()),
            "score": pa.array(score[win_pos], type=pa.int64()),
        }))
    # edges: first point of the first bucket, last point of the last
    firsts = starts
    lasts = starts + lens - 1
    single = nb_user == 1
    edge_idx = np.concatenate([firsts, lasts[~single]])
    out_rows.append(pa.table({
        "user_id": pa.array(uid[edge_idx], type=pa.int64()),
        "bucket": pa.array(bucket[edge_idx], type=pa.int64()),
        "event_id": pa.array(eid[edge_idx], type=pa.int64()),
        "x": pa.array(x[edge_idx], type=pa.int64()),
        "y": pa.array(y[edge_idx], type=pa.int64()),
        "score": pa.array([None] * len(edge_idx), type=pa.int64()),
    }))
    return pa.concat_tables(out_rows)


def w18_lttb_downsample(sf_dir: str, bucket_pts: int = 5,
                        num_partitions: int = 16):
    """W18 — LTTB downsample (Steinarsson 2013, "Downsampling time
    series for visual representation"), bucket-mean-anchor variant: keep
    one visually-maximal point per bucket so a dashboard plots thousands
    of points instead of billions — the read-side sibling of the W4 OHLC
    downsample.  The anchor simplification (neighbor bucket MEANS rather
    than the previously-selected point) removes LTTB's sequential
    dependency, so the kernel is fully parallel AND the whole selection
    is SQL-expressible.

    Scale shape: ONE ``_pkey`` exchange on ``user_id``; per-partition
    kernel = reduceat bucket sums + one lexsort.  Exact int64 geometry
    throughout — the oracle reproduces every score."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    kernel = functools.partial(_lttb_kernel, bucket_pts=bucket_pts)
    return partition_apply(ev, ["user_id"], kernel, num_partitions)


# ---------------------------------------------------------------- U2 ----
def _scd2_kernel(group: pa.Table) -> pa.Table:
    """Per-partition SCD type-2 build: each user's (ts, event_id)-ordered
    value stream becomes validity intervals — ``valid_from`` = the row's
    ts, ``valid_to`` = the NEXT row's ts (NULL on the current row),
    ``version`` = per-user sequence, ``is_current`` on the last row.
    One vectorized shift, no Python loop."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "event_id": pa.array([], type=pa.int64()),
            "value": pa.array([], type=pa.float64()),
            "version": pa.array([], type=pa.int64()),
            "valid_from_us": pa.array([], type=pa.int64()),
            "valid_to_us": pa.array([], type=pa.int64()),
            "is_current": pa.array([], type=pa.bool_()),
        })
    starts = run_starts(group, ["user_id"])
    lens = np.diff(np.append(starts, n))
    seq = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
    ts = _ts_us(group.column("ts"))
    last = np.zeros(n, dtype=bool)
    last[starts + lens - 1] = True
    nxt = np.empty(n, dtype=np.int64)
    nxt[:-1] = ts[1:]
    nxt[-1] = 0
    return pa.table({
        "user_id": group.column("user_id"),
        "event_id": group.column("event_id"),
        "value": group.column("value"),
        "version": pa.array(seq + 1, type=pa.int64()),
        "valid_from_us": pa.array(ts, type=pa.int64()),
        "valid_to_us": pa.array(nxt, type=pa.int64(), mask=last),
        "is_current": pa.array(last, type=pa.bool_()),
    })


def u2_scd2_intervals(sf_dir: str, num_partitions: int = 16):
    """U2 — slowly-changing-dimension type-2 history build: turn a
    change-event stream into validity intervals (valid_from, valid_to,
    version, is_current) per key — the lakehouse dimension-table staple
    next to U1's last-writer-wins upsert.  A point-in-time lookup then
    becomes a range predicate (J4's as-of join consumes exactly this
    shape).

    Scale shape: ONE ``_pkey`` exchange on ``user_id``, one vectorized
    shift per partition.  Oracle: ``lead(ts)``/``row_number()`` window
    functions."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    return partition_apply(ev, ["user_id"], _scd2_kernel, num_partitions)


# ---------------------------------------------------------------- W19 ----
def _ntile_kernel(group: pa.Table, k: int) -> pa.Table:
    """Per-partition ntile: within each user (ordered by value,
    event_id), assign 1..k tiles with SQL ntile() sizing — the first
    ``n % k`` tiles get ``n // k + 1`` rows, the rest ``n // k``.
    Vectorized closed form, no loop."""
    group = group.sort_by(
        [("user_id", "ascending"), ("value", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "event_id": pa.array([], type=pa.int64()),
            "user_id": pa.array([], type=pa.int64()),
            "value": pa.array([], type=pa.float64()),
            "tile": pa.array([], type=pa.int64()),
        })
    starts = run_starts(group, ["user_id"])
    lens = np.diff(np.append(starts, n))
    i = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
    ln = np.repeat(lens, lens)
    size = ln // k
    rem = ln % k
    cut = rem * (size + 1)
    big = i < cut
    tile = np.where(big, i // np.maximum(size + 1, 1),
                    rem + (i - cut) // np.maximum(size, 1)) + 1
    return pa.table({
        "event_id": group.column("event_id"),
        "user_id": group.column("user_id"),
        "value": group.column("value"),
        "tile": pa.array(tile, type=pa.int64()),
    })


def w19_ntile_quartiles(sf_dir: str, k: int = 4, num_partitions: int = 16):
    """W19 — per-key ntile binning (quartile feature transform): each
    user's values split into k equal-count tiles under the deterministic
    (value, event_id) order — the bucketed sibling of W6's percent-rank
    normalize.  Scale shape: the standard ONE ``_pkey`` exchange on
    ``user_id``.  Oracle: SQL ``ntile(k)`` (sizing semantics reproduced
    in closed form)."""
    ev = _read_events(sf_dir, ["event_id", "user_id", "value"])
    kernel = functools.partial(_ntile_kernel, k=k)
    return partition_apply(ev, ["user_id"], kernel, num_partitions)


# ---------------------------------------------------------------- J9 ----
def _coalesce_kernel(group: pa.Table, hold_us: int) -> pa.Table:
    """Per-partition interval coalescing: each event holds the line busy
    for ``hold_us``; overlapping/touching intervals within a day merge
    into maximal busy islands.  Vectorized: one sort, a running-max of
    interval ends (shifted), break flags, cumsum, reduceat aggregates."""
    group = group.sort_by(
        [("day", "ascending"), ("lo", "ascending"), ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "day": pa.array([], type=pa.int64()),
            "island": pa.array([], type=pa.int64()),
            "lo_us": pa.array([], type=pa.int64()),
            "hi_us": pa.array([], type=pa.int64()),
            "n_events": pa.array([], type=pa.int64()),
        })
    day = np.asarray(group.column("day"), dtype=np.int64)
    lo = np.asarray(group.column("lo"), dtype=np.int64)
    hi = lo + hold_us
    starts = run_starts(group, ["day"])
    # SEGMENTED running max via day-offset rebase: lift each day's values
    # into a disjoint band (BIG > any intra-day hi range), so a plain
    # accumulate can never carry a previous day's maximum into this one.
    BIG = np.int64(2) * np.int64(86_400_000_000) + np.int64(hold_us)
    day0 = day - day[0]
    lifted_hi = day0 * BIG + (hi - day * np.int64(86_400_000_000))
    lifted_lo = day0 * BIG + (lo - day * np.int64(86_400_000_000))
    runmax = np.maximum.accumulate(lifted_hi)
    brk = np.ones(n, dtype=bool)
    brk[1:] = lifted_lo[1:] > runmax[:-1]
    brk[starts] = True
    istarts = np.flatnonzero(brk)
    ilens = np.diff(np.append(istarts, n))
    max_hi = np.maximum.reduceat(hi, istarts)
    # per-day island ordinal (0-based within day)
    iday = day[istarts]
    ifirst = np.flatnonzero(np.concatenate(([True], iday[1:] != iday[:-1])))
    iord = (np.arange(len(istarts), dtype=np.int64)
            - np.repeat(ifirst, np.diff(np.append(ifirst, len(istarts)))))
    return pa.table({
        "day": pa.array(iday, type=pa.int64()),
        "island": pa.array(iord, type=pa.int64()),
        "lo_us": pa.array(lo[istarts], type=pa.int64()),
        "hi_us": pa.array(max_hi, type=pa.int64()),
        "n_events": pa.array(ilens, type=pa.int64()),
    })


def j9_interval_coalesce(sf_dir: str, hold_us: int = 300_000_000,
                         num_partitions: int = 16):
    """J9 — interval coalescing (merge-overlapping-intervals): every
    event opens a ``hold_us`` busy window (default 5 min); windows that
    overlap within a calendar day merge into maximal busy islands — the
    uptime/burst/coverage primitive (the inverse of W1's gap-based
    sessionization, keyed by day instead of user).  Islands are scoped to
    calendar days by definition; the kernel's day-offset rebase makes the
    running max exactly segmented, so a window spilling past midnight
    never bridges into the next day's islands.

    Scale shape: ONE ``_pkey`` exchange on ``day`` (calendar days are
    numerous and balanced); the kernel is sort + running max + cumsum +
    reduceat.  Oracle: the classic ``max(hi) OVER (... ROWS BETWEEN
    UNBOUNDED PRECEDING AND 1 PRECEDING)`` gaps-and-islands SQL."""
    assert hold_us <= 86_400_000_000
    ev = _read_events(sf_dir, ["event_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        ts = _ts_us(batch.column("ts"))
        return pa.table({
            "event_id": batch.column("event_id"),
            "day": pa.array(ts // 86_400_000_000, type=pa.int64()),
            "lo": pa.array(ts, type=pa.int64()),
        })

    prepped = ev.map_batches(prep, batch_format="pyarrow",
                             zero_copy_batch=True)
    kernel = functools.partial(_coalesce_kernel, hold_us=hold_us)
    return partition_apply(prepped, ["day"], kernel, num_partitions)


# ---------------------------------------------------------------- W20 ----
def w20_time_decay_score(sf_dir: str, half_life_days: int = 4,
                         num_partitions: int = 16):
    """W20 — per-user time-decayed engagement score: recent activity
    counts more, with weight halving every ``half_life_days`` — the
    recency feature every ranking/engagement model wants.

    Exactness trick: the decay weight is the INTEGER ``2^20 >>
    (age_days // half_life)`` — an exact power-of-two ladder instead of
    ``exp(-lambda t)`` — so every contribution ``vq * w`` and the
    per-user sum are exact int64 and the score is ONE pinned float
    division.  (A float ``exp`` would pit numpy's SIMD exp against
    DuckDB's libm exp — last-bit divergence; the ladder sidesteps it
    with the standard "approximate the kernel, keep the arithmetic
    exact" move used across this engine.)

    Scale shape: one tiny anchor aggregate (max ts) broadcast into the
    partial pass; per-block (user, n, sum) Arrow partials; one exchange
    on user_id."""
    DAY = 86_400_000_000
    W0 = 1 << 20
    ev = _read_events(sf_dir, ["user_id", "ts", "value"])
    # tiny anchor aggregate: ds.max returns a python scalar (Timestamp);
    # normalize to an epoch day through arrow's timestamp[us]
    anchor_day = int(pa.scalar(ev.max("ts")).cast(pa.timestamp("us")).value) \
        // DAY

    def partial(batch: pa.Table) -> pa.Table:
        ts = _ts_us(batch.column("ts"))
        v = batch.column("value")
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        vq = np.floor(np.asarray(v, dtype=np.float64) * VSCALE
                      + 0.5).astype(np.int64)
        age = anchor_day - ts // DAY
        w = (W0 >> np.minimum(age // half_life_days, 63)).astype(np.int64)
        t = pa.table({"user_id": batch.column("user_id"),
                      "dq": pa.array(vq * w, type=pa.int64())})
        g = t.group_by(["user_id"]).aggregate([("dq", "sum"),
                                               ([], "count_all")])
        return pa.table({
            "user_id": g.column("user_id"),
            "n": g.column("count_all").cast(pa.int64()),
            "dq": g.column("dq_sum").cast(pa.int64()),
        })

    partials = ev.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    from anomalydetection_ray.stages.runs import agg_by

    merged = agg_by(partials, ["user_id"],
                    [("n", "sum", "n_events"), ("dq", "sum", "decay_sum_q")],
                    num_partitions=num_partitions)

    def finish(batch: pa.Table) -> pa.Table:
        dq = np.asarray(batch.column("decay_sum_q"), dtype=np.int64)
        return batch.append_column(
            "decay_score",
            pa.array(dq.astype(np.float64) / (float(W0) * float(VSCALE)),
                     type=pa.float64()))

    return merged.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


# ---------------------------------------------------------------- W21 ----
def _grid_locf_kernel(group: pa.Table) -> pa.Table:
    """Per-partition regular-grid resample: for each user, one row per
    calendar day from their first to their last event; the value is the
    last observation at or before the end of that day (LOCF).  Fully
    vectorized: per-user day grids by repeat/arange, one global
    ``searchsorted`` over lifted (user-banded) timestamps."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "day": pa.array([], type=pa.int64()),
            "value_locf": pa.array([], type=pa.float64()),
            "is_observed": pa.array([], type=pa.bool_()),
        })
    DAY = 86_400_000_000
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    ts = _ts_us(group.column("ts"))
    value = np.asarray(group.column("value").combine_chunks()
                       if isinstance(group.column("value"), pa.ChunkedArray)
                       else group.column("value"), dtype=np.float64)
    starts = run_starts(group, ["user_id"])
    lens = np.diff(np.append(starts, n))
    day = ts // DAY
    d0 = day[starts]
    d1 = day[starts + lens - 1]
    span = d1 - d0 + 1
    # grid rows: user u repeated span_u times, day = d0_u + arange
    gu = np.repeat(uid[starts], span)
    goff = (np.arange(int(span.sum()), dtype=np.int64)
            - np.repeat(np.concatenate(([0], np.cumsum(span)[:-1])), span))
    gday = np.repeat(d0, span) + goff
    # lift each user's timeline into a disjoint band so ONE searchsorted
    # serves all users (the W8 trick): band index = user ordinal
    uord = np.cumsum(np.concatenate(([True], uid[1:] != uid[:-1]))) - 1
    SPAN_BAND = np.int64(1) << np.int64(50)      # > any ts range in us
    ts_rel = ts - np.repeat(ts[starts], lens)
    lifted = uord * SPAN_BAND + ts_rel
    g_uord = np.repeat(np.arange(len(starts), dtype=np.int64), span)
    # last event with ts < (day+1)*DAY, i.e. ts <= (day+1)*DAY - 1
    bound_rel = (gday + 1) * DAY - 1 - np.repeat(ts[starts], span)
    lifted_bound = g_uord * SPAN_BAND + np.minimum(bound_rel,
                                                   SPAN_BAND - np.int64(1))
    idx = np.searchsorted(lifted, lifted_bound, side="right") - 1
    # idx always >= the user's first event (grid starts at their d0)
    vals = value[idx]
    obs_day_sorted = uord * np.int64(1 << 20) + (day - d0[uord])
    grid_key = g_uord * np.int64(1 << 20) + goff
    observed = np.isin(grid_key, obs_day_sorted)
    return pa.table({
        "user_id": pa.array(gu, type=pa.int64()),
        "day": pa.array(gday, type=pa.int64()),
        "value_locf": pa.array(vals, type=pa.float64()),
        "is_observed": pa.array(observed, type=pa.bool_()),
    })


def w21_grid_resample_locf(sf_dir: str, num_partitions: int = 16):
    """W21 — resample each user's irregular event series onto a regular
    daily grid with last-observation-carried-forward fill — the
    event-table sibling of the A5 token gap-fill, and the step that
    makes irregular series joinable/comparable on a shared time axis.
    One row per (user, day in their active span); ``is_observed`` marks
    days with a real event.

    Scale shape: ONE ``_pkey`` exchange on ``user_id``; the kernel
    builds all grids with repeat/arange index algebra and resolves every
    LOCF lookup with ONE ``searchsorted`` over user-banded timestamps.
    Oracle: per-grid-row correlated last-event subquery in SQL."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    return partition_apply(ev, ["user_id"], _grid_locf_kernel, num_partitions)


# ---------------------------------------------------------------- W25 ----
def _volatility_kernel(group: pa.Table) -> pa.Table:
    """Per-partition volatility: median and MAD of the absolute
    successive value deltas (cents) within each user's (ts, event_id)
    order — robust roughness, immune to level and to isolated spikes.
    Two `segment_medians` passes (exact halves/quarters, the w12
    discipline), no Python loop."""
    from anomalydetection_ray.functions.stats import segment_medians

    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")])
    n = group.num_rows
    empty = pa.table({
        "user_id": pa.array([], type=pa.int64()),
        "n_deltas": pa.array([], type=pa.int64()),
        "med_abs_delta": pa.array([], type=pa.float64()),
        "mad_abs_delta": pa.array([], type=pa.float64()),
    })
    if n == 0:
        return empty
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    value = group.column("value")
    if isinstance(value, pa.ChunkedArray):
        value = value.combine_chunks()
    cents = np.floor(np.asarray(value, dtype=np.float64) * 100.0
                     + 0.5).astype(np.int64)
    starts = run_starts(group, ["user_id"])
    first = np.zeros(n, dtype=bool)
    first[starts] = True
    ad = np.abs(cents[1:] - cents[:-1])[~first[1:]].astype(np.float64)
    seg_uid = uid[1:][~first[1:]]
    if len(ad) == 0:
        return empty
    # deltas are already grouped by user (order preserved)
    dstarts = np.flatnonzero(np.concatenate(
        ([True], seg_uid[1:] != seg_uid[:-1])))
    dlens = np.diff(np.append(dstarts, len(ad)))
    seg_of = np.repeat(np.arange(len(dstarts), dtype=np.int64), dlens)
    med = segment_medians(ad, seg_of, len(dstarts), dstarts, dlens)
    dev = np.abs(ad - med[seg_of])
    mad = segment_medians(dev, seg_of, len(dstarts), dstarts, dlens)
    return pa.table({
        "user_id": pa.array(seg_uid[dstarts], type=pa.int64()),
        "n_deltas": pa.array(dlens, type=pa.int64()),
        "med_abs_delta": pa.array(med, type=pa.float64()),
        "mad_abs_delta": pa.array(mad, type=pa.float64()),
    })


def w25_volatility(sf_dir: str, num_partitions: int = 16):
    """W25 — per-key series roughness/volatility: the median absolute
    successive delta and its MAD per user — the robust dispersion pair
    for CHANGE (w12 gives it for LEVEL); flags erratic streams before a
    model trusts their features.

    Scale shape: the standard ONE ``_pkey`` exchange; the kernel is one
    shifted subtraction + two lexsort-median passes.  Oracle: lag()
    deltas + DuckDB ``median()`` (exact halves/quarters on cent ints)."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    return partition_apply(ev, ["user_id"], _volatility_kernel, num_partitions)


def _burstiness_kernel(group: pa.Table) -> pa.Table:
    """Per-partition inter-event gap stats: per user the gap count, exact
    gap-seconds sum, exact-halves median gap, and the burstiness index
    B = (sigma - mu)/(sigma + mu) (Goh & Barabasi 2008) evaluated as the
    pinned expression (sn - S)/(sn + S) with sn = sqrt(n*Q - S^2) — the
    n-scaled identity keeps everything exact-int until one sqrt and one
    division.  B -> -1 for perfectly regular streams, 0 for Poisson,
    -> +1 for extreme burstiness."""
    import math

    from anomalydetection_ray.functions.stats import segment_medians

    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    empty = pa.table({
        "user_id": pa.array([], type=pa.int64()),
        "n_gaps": pa.array([], type=pa.int64()),
        "gap_sum_s": pa.array([], type=pa.int64()),
        "med_gap_s": pa.array([], type=pa.float64()),
        "burstiness": pa.array([], type=pa.float64()),
    })
    if n == 0:
        return empty
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    us = np.asarray(group.column("ts").cast(pa.int64()), dtype=np.int64)
    starts = run_starts(group, ["user_id"])
    first = np.zeros(n, dtype=bool)
    first[starts] = True
    gaps = ((us[1:] - us[:-1]) // 1_000_000)[~first[1:]]
    seg_uid = uid[1:][~first[1:]]
    if len(gaps) == 0:
        return empty
    dstarts = np.flatnonzero(np.concatenate(
        ([True], seg_uid[1:] != seg_uid[:-1])))
    dlens = np.diff(np.append(dstarts, len(gaps)))
    seg_of = np.repeat(np.arange(len(dstarts), dtype=np.int64), dlens)
    med = segment_medians(gaps.astype(np.float64), seg_of, len(dstarts),
                          dstarts, dlens)
    s_sum = np.add.reduceat(gaps, dstarts)
    burst = np.full(len(dstarts), np.nan)
    for j in range(len(dstarts)):     # pinned scalar float tail per user
        ng = int(dlens[j])
        S = int(s_sum[j])
        sl = gaps[dstarts[j]:dstarts[j] + ng]
        # sum(gap^2) <= max_gap * sum(gap) <= span^2 — int64-safe; the
        # n*Q - S^2 radicand is taken in Python ints (can exceed int64)
        Q = int((sl * sl).sum())
        sn = math.sqrt(float(ng * Q - S * S))
        if sn + float(S) > 0.0:
            burst[j] = (sn - float(S)) / (sn + float(S))
    return pa.table({
        "user_id": pa.array(seg_uid[dstarts], type=pa.int64()),
        "n_gaps": pa.array(dlens, type=pa.int64()),
        "gap_sum_s": pa.array(s_sum, type=pa.int64()),
        "med_gap_s": pa.array(med, type=pa.float64()),
        "burstiness": pa.array(burst, type=pa.float64(),
                               from_pandas=True),
    })


def w26_burstiness(sf_dir: str, num_partitions: int = 16):
    """W26 — per-user inter-event time statistics + burstiness index:
    gap count, total gap seconds, median gap and B = (sigma - mu)/
    (sigma + mu) over the gap distribution — the stream-regularity
    screen (bots are regular, humans are bursty; Goh & Barabasi 2008)
    next to W25's value-change volatility.

    Scale shape: the standard ONE ``_pkey`` exchange; kernel = one
    shifted subtraction, one lexsort-median pass, exact-int moments,
    pinned sqrt/division tail.  Oracle: lag() gaps + median() +
    the same (sn - S)/(sn + S) expression."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id"])
    return partition_apply(ev, ["user_id"], _burstiness_kernel, num_partitions)


def _monotone_streak_kernel(group: pa.Table) -> pa.Table:
    """Per-partition longest strictly-increasing value streak per user.
    One sort, one shifted compare, two reduceat passes — no per-row or
    per-group Python.  A streak is a maximal run of consecutive events
    (ts order) with value[i] > value[i-1]; a lone event is a streak of
    length 1; equal values break the streak."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "n_events": pa.array([], type=pa.int64()),
            "longest_streak": pa.array([], type=pa.int64()),
            "n_up_runs": pa.array([], type=pa.int64()),
        })
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    v = np.asarray(group.column("value"), dtype=np.float64)
    inc = np.zeros(n, dtype=bool)
    inc[1:] = (uid[1:] == uid[:-1]) & (v[1:] > v[:-1])
    rstarts = np.flatnonzero(~inc)              # every streak start
    rlens = np.diff(np.append(rstarts, n))
    run_uid = uid[rstarts]
    ustarts = np.flatnonzero(np.concatenate(
        ([True], run_uid[1:] != run_uid[:-1])))
    return pa.table({
        "user_id": pa.array(run_uid[ustarts], type=pa.int64()),
        "n_events": pa.array(np.add.reduceat(rlens, ustarts),
                             type=pa.int64()),
        "longest_streak": pa.array(np.maximum.reduceat(rlens, ustarts),
                                   type=pa.int64()),
        "n_up_runs": pa.array(
            np.add.reduceat((rlens >= 2).astype(np.int64), ustarts),
            type=pa.int64()),
    })


def w27_monotone_streaks(sf_dir: str, num_partitions: int = 16):
    """W27 — per-user longest strictly-increasing value streak and count
    of up-runs: the monotone-momentum screen (how long do a user's
    successive event values keep climbing?) next to A25's turning-point
    counts and A33's Mann-Kendall global trend — run-structure rather
    than rank-structure.

    Scale shape: the standard ONE ``_pkey`` exchange; the kernel is one
    C-level sort + one shifted compare + ``reduceat`` folds, zero
    per-group Python.  Oracle: the gaps-and-islands identity — island id
    = rn - running_sum(is_increase), run lengths by GROUP BY."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    return partition_apply(ev, ["user_id"], _monotone_streak_kernel,
                           num_partitions)


def _rolling_extrema_kernel(group: pa.Table, k: int) -> pa.Table:
    """Per-partition trailing k-row max/min of value per user: k-1
    shifted-compare passes (O(k·n) vectorized, no per-row Python) — the
    monotonic-deque result without the deque."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "event_id": pa.array([], type=pa.int64()),
            "user_id": pa.array([], type=pa.int64()),
            "value": pa.array([], type=pa.float64()),
            "rmax": pa.array([], type=pa.float64()),
            "rmin": pa.array([], type=pa.float64()),
            "rrange": pa.array([], type=pa.float64()),
        })
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    v = np.asarray(group.column("value"), dtype=np.float64)
    rmax = v.copy()
    rmin = v.copy()
    for j in range(1, k):
        same = uid[j:] == uid[:-j]       # sorted by user => rank >= j
        np.maximum(rmax[j:], np.where(same, v[:-j], -np.inf), out=rmax[j:])
        np.minimum(rmin[j:], np.where(same, v[:-j], np.inf), out=rmin[j:])
    return pa.table({
        "event_id": group.column("event_id"),
        "user_id": group.column("user_id"),
        "value": group.column("value"),
        "rmax": pa.array(rmax, type=pa.float64()),
        "rmin": pa.array(rmin, type=pa.float64()),
        "rrange": pa.array(rmax - rmin, type=pa.float64()),
    })


def w28_rolling_extrema(sf_dir: str, k: int = 5, num_partitions: int = 16):
    """W28 — per-event trailing ``k``-row max/min/range of value within
    the user's stream: the envelope features (breakout / drawdown
    detection) next to W3's rolling mean-std — order statistics where
    W3 is moments.

    Scale shape: ONE ``_pkey`` exchange; the kernel replaces the
    classical monotonic deque with k-1 shifted vectorized compares
    (O(k·n), zero per-row Python).  Oracle: max/min OVER (... ROWS k-1
    PRECEDING); the range is the same two IEEE operands subtracted on
    both sides."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    kernel = functools.partial(_rolling_extrema_kernel, k=k)
    return partition_apply(ev, ["user_id"], kernel, num_partitions)


def w29_arrival_lateness(sf_dir: str):
    """W29 — out-of-order arrival audit per event type: how late (in
    event time) do records arrive relative to the running event-time
    high-water mark, in ARRIVAL order (event_id = generation sequence)?
    The statistic every streaming watermark / allowed-lateness knob is
    tuned from.  Outputs per type: event count, late count, max and
    total lateness seconds, exact-halves median lateness of late rows.

    Scale shape: per-type partition kernel (bounded key domain —
    event_type, same contract as A29/A35's finalize); inside: one sort
    by arrival sequence, ``np.maximum.accumulate`` high-water mark,
    lexsort median.  Oracle: running max() OVER arrival order."""
    from anomalydetection_ray.stages.runs import partition_apply

    ev = _read_events(sf_dir, ["event_id", "ts", "event_type"])

    def kernel(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({
                "event_type": pa.array([], type=pa.string()),
                "n_events": pa.array([], type=pa.int64()),
                "n_late": pa.array([], type=pa.int64()),
                "max_late_s": pa.array([], type=pa.int64()),
                "sum_late_s": pa.array([], type=pa.int64()),
                "med_late_s": pa.array([], type=pa.float64()),
            })
        part = part.sort_by([("event_type", "ascending"),
                             ("event_id", "ascending")])
        et = part.column("event_type")
        us = np.asarray(part.column("ts").cast(pa.int64()), dtype=np.int64)
        starts = run_starts(part, ["event_type"])
        n = part.num_rows
        lens = np.diff(np.append(starts, n))
        # per-type running event-time high-water mark (bounded run count
        # — the event_type domain — so the per-run accumulate loop is
        # O(types) Python, not O(rows))
        rmax = us.copy()
        for s, ln in zip(starts.tolist(), lens.tolist()):
            np.maximum.accumulate(us[s:s + ln], out=rmax[s:s + ln])
        late = us < rmax
        late_s = (rmax - us) // 1_000_000
        out_et, out_n, out_nl, out_mx, out_sm, out_md = [], [], [], [], [], []
        for j, (s, ln) in enumerate(zip(starts.tolist(), lens.tolist())):
            sl = slice(s, s + ln)
            lm = late[sl]
            ls = late_s[sl][lm]
            out_et.append(et[s].as_py())
            out_n.append(ln)
            out_nl.append(int(lm.sum()))
            out_mx.append(int(ls.max()) if ls.size else 0)
            out_sm.append(int(ls.sum()) if ls.size else 0)
            out_md.append(float(np.median(ls)) if ls.size else None)
        return pa.table({
            "event_type": pa.array(out_et, type=pa.string()),
            "n_events": pa.array(out_n, type=pa.int64()),
            "n_late": pa.array(out_nl, type=pa.int64()),
            "max_late_s": pa.array(out_mx, type=pa.int64()),
            "sum_late_s": pa.array(out_sm, type=pa.int64()),
            "med_late_s": pa.array(out_md, type=pa.float64(),
                                   from_pandas=True),
        })

    return partition_apply(ev, ["event_type"], kernel, num_partitions=8)


# ---------------------------------------------------------------- W30 ----
def _winsor_kernel(group: pa.Table) -> pa.Table:
    """Per-user 10%-winsorized mean: CLAMP the m = n//10 smallest values
    to the (m+1)-th and the m largest to the (n-m)-th (deterministic
    total order (value, event_id)), exact integer sum of the clamped
    quantized values, one pinned division.  W7 drops the tails; W30
    keeps their count but caps their leverage — the estimator of choice
    when sample size must not shrink."""
    group = group.sort_by(
        [("user_id", "ascending"), ("value", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "n": pa.array([], type=pa.int64()),
            "n_wins": pa.array([], type=pa.int64()),
            "sum_q": pa.array([], type=pa.int64()),
            "winsor_mean": pa.array([], type=pa.float64()),
        })
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    vq = np.floor(np.asarray(group.column("value"), dtype=np.float64)
                  * W7_VSCALE + 0.5).astype(np.int64)
    starts = run_starts(group, ["user_id"])
    lens = np.diff(np.append(starts, n)).astype(np.int64)
    m = lens // 10
    rank = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
    lo_q = vq[starts + m]                      # (m+1)-th smallest per user
    hi_q = vq[starts + lens - m - 1]           # (n-m)-th smallest per user
    clamped = np.where(rank < np.repeat(m, lens), np.repeat(lo_q, lens),
                       np.where(rank >= np.repeat(lens - m, lens),
                                np.repeat(hi_q, lens), vq))
    sums = np.add.reduceat(clamped, starts)
    means = sums.astype(np.float64) / (lens.astype(np.float64) * W7_VSCALE)
    return pa.table({
        "user_id": pa.array(uid[starts], type=pa.int64()),
        "n": pa.array(lens, type=pa.int64()),
        "n_wins": pa.array(m, type=pa.int64()),
        "sum_q": pa.array(sums, type=pa.int64()),
        "winsor_mean": pa.array(means, type=pa.float64()),
    })


def w30_winsorized_mean(sf_dir: str, num_partitions: int = 16):
    """W30 — per-key 10%-winsorized mean: W7's one-exchange ``_pkey``
    layout, tail CLAMPING instead of tail dropping.  The clamp
    boundaries are selected under the deterministic (value, event_id)
    total order so the distributed result is block-order independent;
    the clamped quantized sum is exact int64 and the mean one IEEE
    division the SQL oracle replays via row_number boundary lookups."""
    ev = _read_events(sf_dir, ["event_id", "user_id", "value"])
    return partition_apply(ev, ["user_id"], _winsor_kernel, num_partitions)


# ---------------------------------------------------------------- J13 ----
def j13_interval_anti(sf_dir: str, n_windows: int = N_WINDOWS):
    """J13 — interval ANTI stab: the events covered by NO audit window
    (J5's complement — "what happened outside every maintenance
    window?"), summarized per event type as exact counts, cent sums and
    the outside share.  The fourth temporal-join shape next to J4/J11
    (as-of), J5 (stab), and J12 (band).

    Scale shape: the 48 seeded windows are driver state merged into
    disjoint spans (a ~48-row sort, O(1)); coverage per event is ONE
    vectorized searchsorted against the merged span starts; each block
    collapses to <= |event_type| partial rows before the bounded
    exchange.  Oracle: NOT EXISTS against the same window CTE."""
    import ray.data
    from ray.data.aggregate import Max, Min

    ev = _read_events(sf_dir, ["event_type", "ts", "value"])
    bounds = ev.aggregate(Min("ts"), Max("ts"))
    t0 = int(np.datetime64(bounds["min(ts)"], "us").astype(np.int64))
    t1 = int(np.datetime64(bounds["max(ts)"], "us").astype(np.int64))
    lo, hi = seeded_windows(t0, t1, n_windows)
    order = np.argsort(lo, kind="stable")
    mlo, mhi = [], []
    for k in order.tolist():
        if mhi and int(lo[k]) <= mhi[-1]:
            mhi[-1] = max(mhi[-1], int(hi[k]))
        else:
            mlo.append(int(lo[k]))
            mhi.append(int(hi[k]))
    mlo_a = np.asarray(mlo, dtype=np.int64)
    mhi_a = np.asarray(mhi, dtype=np.int64)

    def partial(batch: pa.Table) -> pa.Table:
        ts = _ts_us(batch.column("ts"))
        idx = np.searchsorted(mlo_a, ts, side="right") - 1
        covered = (idx >= 0) & (ts < mhi_a[np.maximum(idx, 0)])
        v = np.asarray(batch.column("value"), dtype=np.float64)
        v100 = np.floor(v * 100.0 + 0.5).astype(np.int64)
        outside = ~covered
        t = pa.table({
            "event_type": batch.column("event_type"),
            "n_outside": pa.array(outside.astype(np.int64)),
            "cents_outside": pa.array(np.where(outside, v100, 0)),
            "n_total": pa.array(np.ones(len(v100), dtype=np.int64)),
        })
        g = t.group_by(["event_type"]).aggregate(
            [("n_outside", "sum"), ("cents_outside", "sum"),
             ("n_total", "sum")])
        return pa.table({
            "event_type": g.column("event_type"),
            "n_outside": g.column("n_outside_sum").cast(pa.int64()),
            "cents_outside": g.column("cents_outside_sum").cast(pa.int64()),
            "n_total": g.column("n_total_sum").cast(pa.int64()),
        })

    agg = (ev.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("event_type")
           .sum(["n_outside", "cents_outside", "n_total"]))

    def finalize(batch: pa.Table) -> pa.Table:
        n_out = np.asarray(batch.column("sum(n_outside)"), dtype=np.int64)
        cents = np.asarray(batch.column("sum(cents_outside)"),
                           dtype=np.int64)
        n_tot = np.asarray(batch.column("sum(n_total)"), dtype=np.int64)
        frac = n_out.astype(np.float64) / n_tot.astype(np.float64)
        return pa.table({
            "event_type": batch.column("event_type"),
            "n_outside": pa.array(n_out, type=pa.int64()),
            "cents_outside": pa.array(cents, type=pa.int64()),
            "n_total": pa.array(n_tot, type=pa.int64()),
            "outside_frac": pa.array(frac, type=pa.float64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------- W31 ----
def _session_summary_kernel(group: pa.Table,
                            gap_us: int = GAP_US) -> pa.Table:
    """Per-user session SUMMARY in one pass: the W1 gaps-and-islands
    machinery collapsed to per-user aggregates (session count, longest
    session by event count, exact total in-session microseconds) plus
    the two pinned per-user divisions (mean events / mean duration per
    session).  Every user lives wholly inside one partition, so the
    summary needs no second exchange."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "n_events": pa.array([], type=pa.int64()),
            "n_sessions": pa.array([], type=pa.int64()),
            "max_session_events": pa.array([], type=pa.int64()),
            "in_session_us": pa.array([], type=pa.int64()),
            "mean_session_events": pa.array([], type=pa.float64()),
            "mean_session_us": pa.array([], type=pa.float64()),
        })
    starts = run_starts(group, ["user_id"])
    nu = starts.shape[0]
    ts = _ts_us(group.column("ts"))
    is_new = np.zeros(n, dtype=bool)
    is_new[starts] = True
    if n > 1:
        is_new[1:] |= (ts[1:] - ts[:-1]) > gap_us
    sstarts = np.flatnonzero(is_new)
    sends = np.append(sstarts[1:], n)
    sess_events = (sends - sstarts).astype(np.int64)
    sess_dur = (ts[sends - 1] - ts[sstarts]).astype(np.int64)
    # map sessions back to users
    user_lens = np.diff(np.append(starts, n))
    sess_user = np.searchsorted(starts, sstarts, side="right") - 1
    u_sess_starts = np.searchsorted(sess_user,
                                    np.arange(nu, dtype=np.int64))
    n_sessions = np.diff(np.append(u_sess_starts,
                                   sess_user.shape[0])).astype(np.int64)
    max_events = np.maximum.reduceat(sess_events, u_sess_starts)
    in_sess = np.add.reduceat(sess_dur, u_sess_starts)
    mean_ev = user_lens.astype(np.float64) / n_sessions.astype(np.float64)
    mean_us = in_sess.astype(np.float64) / n_sessions.astype(np.float64)
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    return pa.table({
        "user_id": pa.array(uid[starts], type=pa.int64()),
        "n_events": pa.array(user_lens.astype(np.int64), type=pa.int64()),
        "n_sessions": pa.array(n_sessions, type=pa.int64()),
        "max_session_events": pa.array(max_events, type=pa.int64()),
        "in_session_us": pa.array(in_sess, type=pa.int64()),
        "mean_session_events": pa.array(mean_ev, type=pa.float64()),
        "mean_session_us": pa.array(mean_us, type=pa.float64()),
    })


def w31_session_summary(sf_dir: str, gap_us: int = GAP_US,
                        num_partitions: int = 16):
    """W31 — per-user session summary (the engagement-profile rollup of
    W1's session table): session count, longest session, exact total
    in-session time, mean session size/length.  One ``_pkey`` exchange,
    one vectorized kernel, zero per-user Python; oracle = W1's
    lag/sum-over-breaks CTE aggregated per user."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id"])
    kernel = functools.partial(_session_summary_kernel, gap_us=gap_us)
    return partition_apply(ev, ["user_id"], kernel, num_partitions)


# ---------------------------------------------------------------- W32 ----
def _drawdown_kernel(group: pa.Table) -> pa.Table:
    """Per-user maximum drawdown of the cumulative cent-value series in
    (ts, event_id) order: dd_i = running_max(cum) - cum_i, reported as
    the exact int64 max with its peak and trough positions — the
    worst-case give-back statistic (risk/engagement collapse) next to
    W9's running total and W28's extrema envelope."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "n": pa.array([], type=pa.int64()),
            "final_cents": pa.array([], type=pa.int64()),
            "max_drawdown_cents": pa.array([], type=pa.int64()),
            "trough_event_id": pa.array([], type=pa.int64()),
        })
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    eid = np.asarray(group.column("event_id"), dtype=np.int64)
    vq = np.floor(np.asarray(group.column("value"), dtype=np.float64)
                  * 100.0 + 0.5).astype(np.int64)
    starts = run_starts(group, ["user_id"])
    lens = np.diff(np.append(starts, n))
    # per-user cumulative sum: global cumsum minus the user's base
    csum = np.cumsum(vq)
    base = np.repeat(csum[starts] - vq[starts], lens)
    cum = csum - base
    # per-user running max via segmented maximum.accumulate: reset at
    # run starts by lifting each segment with an offset larger than the
    # per-user cum range (cum is already per-user-rebased, so the lift
    # bound is the max per-user total, not the corpus total)
    seg = np.repeat(np.arange(len(starts), dtype=np.int64), lens)
    maxabs = int(np.abs(cum).max())
    if len(starts) * (maxabs + 1) * 2 < (1 << 62):  # exact Python-int bound
        lift = seg * np.int64((maxabs + 1) * 2)
        peak = np.maximum.accumulate(cum + lift) - lift
    else:
        # overflow guard: the lift trick would wrap int64 when
        # n_users x max|cum| x 2 approaches 2^63 — fall back to direct
        # per-segment accumulates (same values, no lift arithmetic)
        peak = np.empty_like(cum)
        for s, ln in zip(starts, lens):
            np.maximum.accumulate(cum[s:s + ln], out=peak[s:s + ln])
    dd = peak - cum
    out_dd = np.maximum.reduceat(dd, starts)
    # first argmax per run, vectorized: stable order by (seg, -dd),
    # the head of each seg block is the earliest maximum
    order = np.lexsort((np.arange(n, dtype=np.int64), -dd, seg))
    heads = order[np.searchsorted(seg[order],
                                  np.arange(len(starts), dtype=np.int64))]
    trough = eid[heads]
    return pa.table({
        "user_id": pa.array(uid[starts], type=pa.int64()),
        "n": pa.array(lens.astype(np.int64), type=pa.int64()),
        "final_cents": pa.array(cum[np.append(starts[1:], n) - 1],
                                type=pa.int64()),
        "max_drawdown_cents": pa.array(out_dd, type=pa.int64()),
        "trough_event_id": pa.array(trough, type=pa.int64()),
    })


def w32_max_drawdown(sf_dir: str, num_partitions: int = 16):
    """W32 — per-user maximum drawdown over the cumulative value
    series: ONE ``_pkey`` exchange, a segmented running-max kernel
    (cumsum + lifted maximum.accumulate, exact int64 cents end to end),
    deterministic first-trough tiebreak.  Oracle: running-max window
    minus running sum, argmax via ORDER BY (dd DESC, ts, event_id)."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    return partition_apply(ev, ["user_id"], _drawdown_kernel, num_partitions)


# ---------------------------------------------------------------- W33 ----
def w33_type_diversity(sf_dir: str, num_partitions: int = 16):
    """W33 — per-user event-type diversity by the Gini-Simpson index
    (Simpson 1949): D = 1 - SUM (n_t/n)^2 — the log-free diversity
    measure (0 = monomaniac, -> 1 - 1/T = uniform over T types), the
    behavioral-breadth feature next to W10's transition structure.

    Exactness: D is EXACT RATIONAL — num = n^2 - SUM n_t^2 and
    den = n^2 are exact ints (type domain bounded), D one pinned
    division; no logarithm exists to diverge.  Scale shape: per-block
    (user, type) count collapse, ONE exchange, vectorized run kernel —
    no per-user Python."""
    ev = _read_events(sf_dir, ["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"user_id": batch.column("user_id"),
                      "event_type": batch.column("event_type"),
                      "one": pa.array(np.ones(batch.num_rows,
                                              dtype=np.int64))})
        g = t.group_by(["user_id", "event_type"]).aggregate(
            [("one", "sum")])
        return pa.table({"user_id": g.column("user_id"),
                         "event_type": g.column("event_type"),
                         "c": g.column("one_sum").cast(pa.int64())})

    counts = (ev.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby(["user_id", "event_type"]).sum("c"))

    def kernel(part: pa.Table) -> pa.Table:
        part = part.sort_by(
            [("user_id", "ascending")])
        n_rows = part.num_rows
        if n_rows == 0:
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "n_events": pa.array([], type=pa.int64()),
                "n_types": pa.array([], type=pa.int64()),
                "div_num": pa.array([], type=pa.int64()),
                "div_den": pa.array([], type=pa.int64()),
                "gini_simpson": pa.array([], type=pa.float64()),
            })
        starts = run_starts(part, ["user_id"])
        uid = np.asarray(part.column("user_id"), dtype=np.int64)
        c = np.asarray(part.column("sum(c)"), dtype=np.int64)
        n = np.add.reduceat(c, starts)
        ssq = np.add.reduceat(c * c, starts)
        lens = np.diff(np.append(starts, n_rows)).astype(np.int64)
        num = n * n - ssq
        den = n * n
        return pa.table({
            "user_id": pa.array(uid[starts], type=pa.int64()),
            "n_events": pa.array(n, type=pa.int64()),
            "n_types": pa.array(lens, type=pa.int64()),
            "div_num": pa.array(num, type=pa.int64()),
            "div_den": pa.array(den, type=pa.int64()),
            "gini_simpson": pa.array(num.astype(np.float64)
                                     / den.astype(np.float64),
                                     type=pa.float64()),
        })

    return partition_apply(counts, ["user_id"], kernel, num_partitions)


# ---------------------------------------------------------------- W34 ----
def w34_hourly_profile(sf_dir: str):
    """W34 — time-of-day load profile per event type: the 24-hour
    histogram of event counts plus each hour's share — the capacity /
    cron-collision picture every ops team draws first, and the
    seasonality input A8/A35 assume.  Peak detection is left to the
    reader of the share column (deterministic output keeps every hour's
    row).  Plan: ``queries._hour_counts``, pinned share division."""
    from anomalydetection_ray.pipelines.queries import _by_type, _hour_counts

    def finalize(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        hour = np.asarray(group.column("hour"), dtype=np.int64)
        n = np.asarray(group.column("n"), dtype=np.int64)
        tot = int(n.sum())
        return pa.table({
            "event_type": pa.array([et] * len(hour), type=pa.string()),
            "hour": pa.array(hour, type=pa.int64()),
            "n": pa.array(n, type=pa.int64()),
            "share": pa.array(n.astype(np.float64) / np.float64(tot),
                              type=pa.float64()),
        })

    return _hour_counts(sf_dir, _by_type(finalize))


# ---------------------------------------------------------------- W36 ----
def w36_retention_triangle(sf_dir: str, num_partitions: int = 16):
    """W36 — the weekly retention TRIANGLE: users cohorted by their
    first-activity week, and for every (cohort_week, week_offset) cell
    the count of cohort members active in that later week — the full
    retention matrix T8's single-window rate summarizes (every growth
    dashboard's lower-triangle heatmap).

    Scale shape: ONE ``_pkey`` exchange on user; the kernel derives
    each user's cohort week AND distinct active weeks in the same
    vectorized pass (run boundaries over sorted (user, week)), then
    collapses to per-(cohort, offset) partial counts — the second
    exchange is bounded by the week-span triangle, not by users."""
    ev = _read_events(sf_dir, ["user_id", "ts"])

    def to_weeks(batch: pa.Table) -> pa.Table:
        us = _ts_us(batch.column("ts"))
        week = us // (86_400_000_000 * 7)
        t = pa.table({"user_id": batch.column("user_id"),
                      "week": pa.array(week, type=pa.int64())})
        return t.group_by(["user_id", "week"]).aggregate([])

    pre = ev.map_batches(to_weeks, batch_format="pyarrow",
                         zero_copy_batch=True)

    def kernel(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({
                "cohort_week": pa.array([], type=pa.int64()),
                "week_offset": pa.array([], type=pa.int64()),
                "n_users": pa.array([], type=pa.int64()),
            })
        part = part.sort_by(
            [("user_id", "ascending"), ("week", "ascending")])
        u = np.asarray(part.column("user_id"), dtype=np.int64)
        w = np.asarray(part.column("week"), dtype=np.int64)
        n = part.num_rows
        starts = run_starts(part, ["user_id"])
        lens = np.diff(np.append(starts, n))
        # drop duplicate (user, week) rows surviving across blocks
        keep = np.ones(n, dtype=bool)
        keep[1:] = (u[1:] != u[:-1]) | (w[1:] != w[:-1])
        u, w = u[keep], w[keep]
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        lens = np.diff(np.append(starts, len(u)))
        cohort = np.repeat(w[starts], lens)   # first week per user
        offset = w - cohort
        t = pa.table({"cohort_week": pa.array(cohort, type=pa.int64()),
                      "week_offset": pa.array(offset, type=pa.int64()),
                      "one": pa.array(np.ones(len(offset),
                                              dtype=np.int64))})
        g = t.group_by(["cohort_week", "week_offset"]).aggregate(
            [("one", "sum")])
        return pa.table({"cohort_week": g.column("cohort_week"),
                         "week_offset": g.column("week_offset"),
                         "n_users": g.column("one_sum").cast(pa.int64())})

    agg = (partition_apply(pre, ["user_id"], kernel, num_partitions)
           .groupby(["cohort_week", "week_offset"]).sum("n_users"))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "cohort_week": batch.column("cohort_week").cast(pa.int64()),
            "week_offset": batch.column("week_offset").cast(pa.int64()),
            "n_users": batch.column("sum(n_users)").cast(pa.int64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------- W37 ----
def w37_conversion_lag(sf_dir: str, num_partitions: int = 16):
    """W37 — funnel TIMING (W11 counts the stage survivors; this times
    them): per user, the first 'view' and first 'purchase' timestamps
    and the exact microsecond lag between them (NULL when the user
    never purchased after first viewing, or never did one of the two) —
    the time-to-convert distribution every growth experiment reads.

    Scale shape: ONE ``_pkey`` exchange on user; the kernel derives
    both firsts from the same sorted pass (run boundaries + per-type
    masked minima), zero per-user Python."""
    ev = _read_events(sf_dir, ["user_id", "ts", "event_type"])

    def pre(batch: pa.Table) -> pa.Table:
        us = _ts_us(batch.column("ts"))
        et = batch.column("event_type")
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        keep = np.asarray(
            pa.compute.is_in(et, value_set=pa.array(["view",
                                                     "purchase"])))
        t = pa.table({"user_id": batch.column("user_id"),
                      "us": pa.array(us, type=pa.int64()),
                      "is_view": pa.array(
                          np.asarray(pa.compute.equal(et, "view")),
                          type=pa.bool_())}).filter(pa.array(keep))
        # per-block partial: min ts per (user, kind)
        g = t.group_by(["user_id", "is_view"]).aggregate([("us", "min")])
        return pa.table({"user_id": g.column("user_id"),
                         "is_view": g.column("is_view"),
                         "us": g.column("us_min").cast(pa.int64())})

    partials = ev.map_batches(pre, batch_format="pyarrow",
                              zero_copy_batch=True)

    def kernel(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "first_view_us": pa.array([], type=pa.int64()),
                "first_purchase_us": pa.array([], type=pa.int64()),
                "lag_us": pa.array([], type=pa.int64()),
            })
        part = part.sort_by(
            [("user_id", "ascending")])
        uid = np.asarray(part.column("user_id"), dtype=np.int64)
        us = np.asarray(part.column("us"), dtype=np.int64)
        isv = np.asarray(part.column("is_view"))
        starts = run_starts(part, ["user_id"])
        big = np.int64(2**62)
        v = np.where(isv, us, big)
        p = np.where(~isv, us, big)
        fv = np.minimum.reduceat(v, starts)
        fp = np.minimum.reduceat(p, starts)
        has_v = fv < big
        has_p = fp < big
        lag = fp - fv
        ok = has_v & has_p & (lag >= 0)
        return pa.table({
            "user_id": pa.array(uid[starts], type=pa.int64()),
            "first_view_us": pa.array(fv, type=pa.int64(), mask=~has_v),
            "first_purchase_us": pa.array(fp, type=pa.int64(),
                                          mask=~has_p),
            "lag_us": pa.array(lag, type=pa.int64(), mask=~ok),
        })

    return partition_apply(partials, ["user_id"], kernel, num_partitions)


# ---------------------------------------------------------------- W38 ----
def w38_active_streak(sf_dir: str, num_partitions: int = 16):
    """W38 — longest consecutive-active-day streak per user (the
    habit-formation metric next to W27's value streaks and G25's
    stickiness): gaps-and-islands over each user's distinct active
    DAYS, reporting the longest run, its start day, and the count of
    maximal runs.

    Scale shape: per-block distinct (user, day) pairs collapse before
    ONE ``_pkey`` exchange; the kernel is the W1 run machinery on the
    day grid (island id = day - rank is constant within a run), fully
    vectorized."""
    ev = _read_events(sf_dir, ["user_id", "ts"])

    def to_days(batch: pa.Table) -> pa.Table:
        us = _ts_us(batch.column("ts"))
        day = us // 86_400_000_000
        t = pa.table({"user_id": batch.column("user_id"),
                      "day": pa.array(day, type=pa.int64())})
        return t.group_by(["user_id", "day"]).aggregate([])

    pre = ev.map_batches(to_days, batch_format="pyarrow",
                         zero_copy_batch=True)

    def kernel(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "n_active_days": pa.array([], type=pa.int64()),
                "longest_streak": pa.array([], type=pa.int64()),
                "streak_start_day": pa.array([], type=pa.int64()),
                "n_max_streaks": pa.array([], type=pa.int64()),
            })
        part = part.sort_by(
            [("user_id", "ascending"), ("day", "ascending")])
        u = np.asarray(part.column("user_id"), dtype=np.int64)
        d = np.asarray(part.column("day"), dtype=np.int64)
        n = part.num_rows
        # drop duplicate (user, day) rows surviving across blocks
        keep = np.ones(n, dtype=bool)
        keep[1:] = (u[1:] != u[:-1]) | (d[1:] != d[:-1])
        u, d = u[keep], d[keep]
        n = len(u)
        ustarts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        # island breaks: new user OR day gap > 1
        brk = np.ones(n, dtype=bool)
        brk[1:] = (u[1:] != u[:-1]) | (d[1:] - d[:-1] > 1)
        istart = np.flatnonzero(brk)
        ilen = np.diff(np.append(istart, n))
        iday = d[istart]
        iuser_idx = np.searchsorted(ustarts, istart, side="right") - 1
        # per user: max island length, first start achieving it, count
        out_u, out_nd, out_ls, out_sd, out_nm = [], [], [], [], []
        ulens = np.diff(np.append(ustarts, n))
        # vectorized per-user reduction over islands
        iu_starts = np.flatnonzero(np.r_[True,
                                         iuser_idx[1:] != iuser_idx[:-1]])
        max_len = np.maximum.reduceat(ilen, iu_starts)
        # first island achieving the max (islands are in day order)
        order = np.lexsort((np.arange(len(ilen)), -ilen, iuser_idx))
        heads = order[np.searchsorted(iuser_idx[order],
                                      iuser_idx[iu_starts])]
        n_max = np.add.reduceat(
            (ilen == np.repeat(max_len,
                               np.diff(np.append(iu_starts,
                                                 len(ilen))))).astype(
                np.int64), iu_starts)
        return pa.table({
            "user_id": pa.array(u[ustarts], type=pa.int64()),
            "n_active_days": pa.array(ulens.astype(np.int64),
                                      type=pa.int64()),
            "longest_streak": pa.array(max_len.astype(np.int64),
                                       type=pa.int64()),
            "streak_start_day": pa.array(iday[heads], type=pa.int64()),
            "n_max_streaks": pa.array(n_max, type=pa.int64()),
        })

    return partition_apply(pre, ["user_id"], kernel, num_partitions)


# ---------------------------------------------------------------- W39 ----
def w39_dwell_time(sf_dir: str, num_partitions: int = 16):
    """W39 — state DWELL-TIME shares: how long users SIT in each event
    type (the time between an event and the same user's next event,
    attributed to the current type) — the duration complement of W10's
    transition counts (a Markov chain needs both the jump matrix and
    the holding times).

    Scale shape: ONE ``_pkey`` exchange on user; per-partition sorted
    diff, per-type partial sums collapse before one bounded exchange.
    Exactness: dwell microseconds are exact int64; the share is one
    pinned division."""
    ev = _read_events(sf_dir, ["event_id", "user_id", "ts",
                               "event_type"])

    def kernel(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({"event_type": pa.array([], type=pa.string()),
                             "n_dwells": pa.array([], type=pa.int64()),
                             "dwell_us": pa.array([], type=pa.int64())})
        part = part.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"),
             ("event_id", "ascending")])
        n = part.num_rows
        ts = _ts_us(part.column("ts"))
        uid = np.asarray(part.column("user_id"), dtype=np.int64)
        dwell = np.zeros(n, dtype=np.int64)
        has = np.zeros(n, dtype=bool)
        if n > 1:
            same = uid[1:] == uid[:-1]
            dwell[:-1] = np.where(same, ts[1:] - ts[:-1], 0)
            has[:-1] = same
        t = pa.table({"event_type": part.column("event_type"),
                      "one": pa.array(has.astype(np.int64)),
                      "d": pa.array(dwell, type=pa.int64())})
        g = t.group_by(["event_type"]).aggregate([("one", "sum"),
                                                  ("d", "sum")])
        return pa.table({"event_type": g.column("event_type"),
                         "n_dwells": g.column("one_sum").cast(pa.int64()),
                         "dwell_us": g.column("d_sum").cast(pa.int64())})

    agg = (partition_apply(ev, ["user_id"], kernel, num_partitions)
           .groupby("event_type").sum(["n_dwells", "dwell_us"]))

    # ONE execution: collect the bounded per-type rows (one per event
    # type), compute the total + shares from them, and return a new tiny
    # Dataset — re-reading `agg` after a take_all() would re-execute the
    # whole _pkey exchange pipeline a second time
    rows = agg.take_all()   # bounded: one row per event type
    total = sum(int(r["sum(dwell_us)"]) for r in rows)
    nd = np.array([int(r["sum(n_dwells)"]) for r in rows], dtype=np.int64)
    du = np.array([int(r["sum(dwell_us)"]) for r in rows], dtype=np.int64)
    import ray.data

    return ray.data.from_arrow(pa.table({
        "event_type": pa.array([r["event_type"] for r in rows],
                               type=pa.string()),
        "n_dwells": pa.array(nd, type=pa.int64()),
        "dwell_us": pa.array(du, type=pa.int64()),
        "share": pa.array(du.astype(np.float64) / np.float64(total),
                          type=pa.float64()),
    }))


# ---------------------------------------------------------------- W43 ----
def _rolling_median_kernel(group: pa.Table, window: int) -> pa.Table:
    """Per-user trailing-window rolling MEDIAN of quantized cents —
    emitted only for FULL windows (each user's first window-1 rows are
    warm-up).  With an odd window the median of ints is exact; the
    window columns are ``window`` shifted gathers and the median is one
    ``np.partition`` over the stacked matrix — no per-row Python."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    empty = pa.table({
        "event_id": pa.array([], type=pa.int64()),
        "user_id": pa.array([], type=pa.int64()),
        "roll_median_cents": pa.array([], type=pa.int64()),
    })
    if n == 0:
        return empty
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    eid = np.asarray(group.column("event_id"), dtype=np.int64)
    v = np.asarray(group.column("value"), dtype=np.float64)
    cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
    starts = run_starts(group, ["user_id"])
    pos_in_user = (np.arange(n, dtype=np.int64)
                   - np.repeat(starts, np.diff(np.append(starts, n))))
    full = pos_in_user >= window - 1
    if not full.any():
        return empty
    idx = np.flatnonzero(full)
    mat = np.empty((idx.shape[0], window), dtype=np.int64)
    for j in range(window):
        mat[:, j] = cents[idx - j]
    med = np.partition(mat, window // 2, axis=1)[:, window // 2]
    return pa.table({
        "event_id": pa.array(eid[idx], type=pa.int64()),
        "user_id": pa.array(uid[idx], type=pa.int64()),
        "roll_median_cents": pa.array(med, type=pa.int64()),
    })


def w43_rolling_median(sf_dir: str, window: int = 5,
                       num_partitions: int = 16):
    """W43 — per-user trailing rolling MEDIAN (window 5, full windows
    only): the robust companion of W3's rolling mean — one outlier
    bends the mean band, the median band holds, which is exactly why
    A10's Hampel filter exists; this is its plain-window cousin on the
    events stream.

    Exactness: odd-window median of quantized int cents is an exact
    int64 — no floats anywhere.  Oracle: SQL ``median() OVER (ROWS
    BETWEEN 4 PRECEDING AND CURRENT ROW)`` filtered to full windows.

    Scale shape: W3's ONE ``_pkey`` exchange; the kernel is ``window``
    shifted gathers + one ``np.partition``."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id", "value"])
    kernel = functools.partial(_rolling_median_kernel, window=window)
    return partition_apply(ev, ["user_id"], kernel, num_partitions)


# ---------------------------------------------------------------- W45 ----
def _purchase_cadence_kernel(group: pa.Table) -> pa.Table:
    """Per-user purchase-gap order statistics in (ts, event_id) order:
    n_purchases, n_gaps, and the LOWER-median / min / max inter-purchase
    gap in exact int64 microseconds (G37's float-free rank rule — the
    (m+1)//2-th smallest gap).  Vectorized: one lexsort by (user-seg,
    gap) serves every user's rank read-off at once."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "n_purchases": pa.array([], type=pa.int64()),
            "n_gaps": pa.array([], type=pa.int64()),
            "median_gap_us": pa.array([], type=pa.int64()),
            "min_gap_us": pa.array([], type=pa.int64()),
            "max_gap_us": pa.array([], type=pa.int64()),
        })
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    ts = _ts_us(group.column("ts"))
    starts = run_starts(group, ["user_id"])
    lens = np.diff(np.append(starts, n))
    seg = np.repeat(np.arange(len(starts), dtype=np.int64), lens)
    same = np.zeros(n, dtype=bool)
    if n > 1:
        same[1:] = seg[1:] == seg[:-1]
    gaps = np.zeros(n, dtype=np.int64)
    if n > 1:
        gaps[1:] = ts[1:] - ts[:-1]
    g = gaps[same]
    gseg = seg[same]
    m = np.zeros(len(starts), dtype=np.int64)
    np.add.at(m, gseg, 1)
    med = np.zeros(len(starts), dtype=np.int64)
    gmin = np.zeros(len(starts), dtype=np.int64)
    gmax = np.zeros(len(starts), dtype=np.int64)
    has = m > 0
    if g.shape[0]:
        order = np.lexsort((g, gseg))
        gs, gg = gseg[order], g[order]
        seg_starts = np.searchsorted(gs, np.arange(len(starts),
                                                   dtype=np.int64))
        idx = seg_starts[has] + (m[has] + 1) // 2 - 1
        med[has] = gg[idx]
        gmin[has] = gg[seg_starts[has]]
        gmax[has] = gg[seg_starts[has] + m[has] - 1]
    return pa.table({
        "user_id": pa.array(uid[starts], type=pa.int64()),
        "n_purchases": pa.array(lens.astype(np.int64), type=pa.int64()),
        "n_gaps": pa.array(m, type=pa.int64()),
        "median_gap_us": pa.array(med, type=pa.int64(), mask=~has),
        "min_gap_us": pa.array(gmin, type=pa.int64(), mask=~has),
        "max_gap_us": pa.array(gmax, type=pa.int64(), mask=~has),
    })


def w45_purchase_cadence(sf_dir: str, num_partitions: int = 16):
    """W45 — repeat-purchase cadence per user: lower-median / min / max
    inter-PURCHASE gap (W40's cadence idea narrowed to the revenue
    stream and keyed per user — "how often does this customer come
    back?", the retention-forecast input next to W37's first-conversion
    lag and J15's error-wait).  Single-purchase users emit NULL gaps.

    Scale shape: the purchase filter runs map-side BEFORE the exchange
    (only purchase rows ship), then W1's ONE ``_pkey`` exchange and a
    vectorized order-statistics kernel."""
    import pyarrow.compute as pc

    ev = _read_events(sf_dir, ["event_id", "ts", "user_id",
                               "event_type"])

    def keep(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch.column("event_type"),
                                  "purchase"))
        return t.drop_columns(["event_type"])

    purchases = ev.map_batches(keep, batch_format="pyarrow",
                               zero_copy_batch=True)
    return partition_apply(purchases, ["user_id"], _purchase_cadence_kernel,
                           num_partitions)


# ---------------------------------------------------------------- W46 ----
def _trans_entropy_kernel(group: pa.Table) -> pa.Table:
    """Per-user entropy of the consecutive event-type transition
    distribution in (ts, event_id) order: counts are exact ints; each
    user's entropy folds its <= n_types^2 pair terms left in (t1, t2)
    order from 0.0 with scalar libm ``p*ln(p)`` (the W10/G35 parity
    discipline — the oracle replays the fold via list_reduce)."""
    import math

    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "n_transitions": pa.array([], type=pa.int64()),
            "n_pairs": pa.array([], type=pa.int64()),
            "trans_entropy": pa.array([], type=pa.float64()),
        })
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    et = group.column("event_type")
    if isinstance(et, pa.ChunkedArray):
        et = et.combine_chunks()
    same = uid[1:] == uid[:-1]
    pairs = pa.table({
        "user_id": pa.array(uid[1:][same], type=pa.int64()),
        "t1": et.slice(0, n - 1).filter(pa.array(same)),
        "t2": et.slice(1, n - 1).filter(pa.array(same)),
    }).group_by(["user_id", "t1", "t2"]).aggregate([([], "count_all")])
    pairs = pairs.sort_by([("user_id", "ascending"),
                           ("t1", "ascending"), ("t2", "ascending")])
    pu = np.asarray(pairs.column("user_id"), dtype=np.int64)
    pc_ = np.asarray(pairs.column("count_all"), dtype=np.int64)
    users = np.unique(uid)
    tot = np.zeros(users.shape[0], dtype=np.int64)
    np.add.at(tot, np.searchsorted(users, pu), pc_)
    n_pairs = np.zeros(users.shape[0], dtype=np.int64)
    np.add.at(n_pairs, np.searchsorted(users, pu), 1)
    ent = np.zeros(users.shape[0], dtype=np.float64)
    urank = np.searchsorted(users, pu)
    # bounded fold: <= n_types^2 terms per user, scalar libm for parity
    accs = [0.0] * users.shape[0]
    for r in range(pu.shape[0]):
        u = int(urank[r])
        p = float(int(pc_[r])) / float(int(tot[u]))
        accs[u] = accs[u] + p * math.log(p)
    has = tot > 0
    for u in range(users.shape[0]):
        ent[u] = -accs[u]
    return pa.table({
        "user_id": pa.array(users, type=pa.int64()),
        "n_transitions": pa.array(tot, type=pa.int64()),
        "n_pairs": pa.array(n_pairs, type=pa.int64()),
        "trans_entropy": pa.array(ent, type=pa.float64(), mask=~has),
    })


def w46_transition_entropy(sf_dir: str, num_partitions: int = 16):
    """W46 — per-user behavioral predictability: the entropy of the
    user's consecutive event-type TRANSITION distribution (W10's Markov
    pair counts, collapsed per user into one number; G15's session
    entropy measures WHAT a user does — this measures how predictable
    the ORDER is).  Single-event users emit NULL.

    Scale shape: W1's ONE ``_pkey`` exchange; the kernel's fold is
    bounded by n_types^2 terms per user."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id",
                               "event_type"])
    return partition_apply(ev, ["user_id"], _trans_entropy_kernel,
                           num_partitions)


# ---------------------------------------------------------------- W48 ----
def _trigram_kernel(group: pa.Table) -> pa.Table:
    """Per-partition (t1, t2, t3) path counts over each user's
    (ts, event_id)-ordered stream — bounded output (<= n_types^3 rows
    per partition) regardless of event volume."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    empty = pa.table({
        "t1": pa.array([], type=pa.string()),
        "t2": pa.array([], type=pa.string()),
        "t3": pa.array([], type=pa.string()),
        "n": pa.array([], type=pa.int64()),
    })
    if n < 3:
        return empty
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    et = group.column("event_type")
    if isinstance(et, pa.ChunkedArray):
        et = et.combine_chunks()
    ok = (uid[:-2] == uid[1:-1]) & (uid[1:-1] == uid[2:])
    if not ok.any():
        return empty
    sel = pa.array(ok)
    g = pa.table({
        "t1": et.slice(0, n - 2).filter(sel),
        "t2": et.slice(1, n - 2).filter(sel),
        "t3": et.slice(2, n - 2).filter(sel),
    }).group_by(["t1", "t2", "t3"]).aggregate([([], "count_all")])
    return pa.table({
        "t1": g.column("t1"), "t2": g.column("t2"),
        "t3": g.column("t3"),
        "n": g.column("count_all").cast(pa.int64()),
    })


def w48_top_paths(sf_dir: str, k: int = 10, num_partitions: int = 16):
    """W48 — the corpus' top-k three-step behavioral paths: counts of
    consecutive event-type TRIGRAMS within each user's stream, ranked
    (n desc, then lexicographic) — the path-mining readout one step
    beyond W10's Markov pairs (a funnel you DISCOVER instead of the
    funnel you assert in W11).

    Scale shape: ONE ``_pkey`` exchange; per-partition counts are
    bounded by n_types^3, the global merge and top-k are tiny."""
    from ray.data.aggregate import Sum

    ev = _read_events(sf_dir, ["event_id", "ts", "user_id",
                               "event_type"])
    counts = (partition_apply(ev, ["user_id"], _trigram_kernel, num_partitions)
              .groupby(["t1", "t2", "t3"])
              .aggregate(Sum("n", alias_name="n")))

    from anomalydetection_ray.stages.topk import topk

    return topk(counts, k, [("n", "descending"), ("t1", "ascending"),
                            ("t2", "ascending"), ("t3", "ascending")])


# ---------------------------------------------------------------- W52 ----
def _trans_time_kernel(group: pa.Table) -> pa.Table:
    """Per-partition (t1, t2) transition counts + second-floored gap
    sums over each user's (ts, event_id)-ordered stream — bounded
    output (<= n_types^2 rows per partition)."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    empty = pa.table({
        "t1": pa.array([], type=pa.string()),
        "t2": pa.array([], type=pa.string()),
        "n": pa.array([], type=pa.int64()),
        "gap_s_sum": pa.array([], type=pa.int64()),
    })
    if n < 2:
        return empty
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    ts = _ts_us(group.column("ts"))
    et = group.column("event_type")
    if isinstance(et, pa.ChunkedArray):
        et = et.combine_chunks()
    same = uid[1:] == uid[:-1]
    if not same.any():
        return empty
    gap_s = (ts[1:] - ts[:-1]) // 1_000_000
    sel = pa.array(same)
    g = pa.table({
        "t1": et.slice(0, n - 1).filter(sel),
        "t2": et.slice(1, n - 1).filter(sel),
        "g": pa.array(gap_s[same], type=pa.int64()),
    }).group_by(["t1", "t2"]).aggregate([([], "count_all"),
                                         ("g", "sum")])
    return pa.table({
        "t1": g.column("t1"), "t2": g.column("t2"),
        "n": g.column("count_all").cast(pa.int64()),
        "gap_s_sum": g.column("g_sum").cast(pa.int64()),
    })


def w52_transition_times(sf_dir: str, num_partitions: int = 16):
    """W52 — the transition TIME matrix: mean seconds between each
    consecutive event-type pair within a user's stream (W10 counts the
    transitions; this says how long they take — "error -> purchase in
    90 s" and "error -> purchase in 2 days" are different products).
    Gap sums floor to whole seconds so they stay int64 at any scale;
    the mean is ONE pinned division per pair.

    Scale shape: ONE ``_pkey`` exchange, bounded n_types^2 partials
    per partition, tiny final merge."""
    from ray.data.aggregate import Sum

    ev = _read_events(sf_dir, ["event_id", "ts", "user_id",
                               "event_type"])
    agg = (partition_apply(ev, ["user_id"], _trans_time_kernel, num_partitions)
           .groupby(["t1", "t2"])
           .aggregate(Sum("n", alias_name="n"),
                      Sum("gap_s_sum", alias_name="gap_s_sum")))

    def finish(batch: pa.Table) -> pa.Table:
        nn = np.asarray(batch.column("n"), dtype=np.int64)
        gs = np.asarray(batch.column("gap_s_sum"), dtype=np.int64)
        mean = np.zeros(nn.shape[0], dtype=np.float64)
        np.divide(gs.astype(np.float64), nn.astype(np.float64),
                  out=mean, where=nn > 0)
        return pa.table({
            "t1": batch.column("t1"), "t2": batch.column("t2"),
            "n": pa.array(nn, type=pa.int64()),
            "gap_s_sum": pa.array(gs, type=pa.int64()),
            "mean_gap_s": pa.array(mean, type=pa.float64(),
                                   mask=nn == 0),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


# ----------------------------------------------------------------- C9 ----
def _abandon_kernel(group: pa.Table) -> pa.Table:
    """Per-partition (day, n_sessions, n_abandoned, n_converted)
    partials over W1's 12-hour-gap sessions — vectorized run detection
    + ``reduceat`` aggregates, bounded day-domain output."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    empty = pa.table({
        "day": pa.array([], type=pa.int64()),
        "n_sessions": pa.array([], type=pa.int64()),
        "n_abandoned": pa.array([], type=pa.int64()),
        "n_converted": pa.array([], type=pa.int64()),
    })
    if n == 0:
        return empty
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    ts = _ts_us(group.column("ts"))
    et = np.asarray(group.column("event_type").to_pylist(),
                    dtype=object)
    brk = np.ones(n, dtype=bool)
    if n > 1:
        brk[1:] = (uid[1:] != uid[:-1]) | (ts[1:] - ts[:-1]
                                           > 43_200_000_000)
    starts = np.flatnonzero(brk)
    is_click = (et == "click").astype(np.int64)
    is_purch = (et == "purchase").astype(np.int64)
    clicks = np.add.reduceat(is_click, starts)
    purch = np.add.reduceat(is_purch, starts)
    day = ts[starts] // 86_400_000_000       # session start day
    t = pa.table({
        "day": pa.array(day, type=pa.int64()),
        "one": pa.array(np.ones(starts.shape[0], dtype=np.int64)),
        "ab": pa.array(((clicks >= 1) & (purch == 0))
                       .astype(np.int64)),
        "cv": pa.array((purch > 0).astype(np.int64)),
    }).group_by(["day"]).aggregate([("one", "sum"), ("ab", "sum"),
                                    ("cv", "sum")])
    return pa.table({
        "day": t.column("day"),
        "n_sessions": t.column("one_sum").cast(pa.int64()),
        "n_abandoned": t.column("ab_sum").cast(pa.int64()),
        "n_converted": t.column("cv_sum").cast(pa.int64()),
    })


def c9_abandoned_sessions(sf_dir: str, num_partitions: int = 16):
    """C9 — the abandoned-session report: per session-START day, how
    many W1 sessions there were, how many clicked but never purchased
    (the abandoned carts) and how many converted — W1's sessionization
    and W11's funnel verdict composed into the daily operations
    readout a growth team actually opens.

    Scale shape: ONE ``_pkey`` exchange; per-partition session
    detection is W1's vectorized run machinery; partials are bounded
    by the day domain."""
    from ray.data.aggregate import Sum

    ev = _read_events(sf_dir, ["event_id", "ts", "user_id",
                               "event_type"])
    return (partition_apply(ev, ["user_id"], _abandon_kernel, num_partitions)
            .groupby("day")
            .aggregate(Sum("n_sessions", alias_name="n_sessions"),
                       Sum("n_abandoned", alias_name="n_abandoned"),
                       Sum("n_converted", alias_name="n_converted")))


# ---------------------------------------------------------------- W54 ----
def _pingpong_kernel(group: pa.Table) -> pa.Table:
    """Per-partition ping-pong triple counts over each user's
    (ts, event_id)-ordered stream: a triple (e_i, e_{i+1}, e_{i+2})
    with e_i = e_{i+2} <> e_{i+1} keyed by (t_a = e_i, t_b = e_{i+1}),
    plus the partition's total within-user triple count carried on a
    separate 'total' kind row — bounded <= n_types^2 + 1 rows."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    empty = pa.table({
        "t_a": pa.array([], type=pa.string()),
        "t_b": pa.array([], type=pa.string()),
        "n_pingpong": pa.array([], type=pa.int64()),
        "n_triples": pa.array([], type=pa.int64()),
    })
    if n < 3:
        return empty
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    et = group.column("event_type")
    if isinstance(et, pa.ChunkedArray):
        et = et.combine_chunks()
    c = np.asarray(et.dictionary_encode().indices, dtype=np.int64)
    same3 = (uid[2:] == uid[:-2])            # triple within one user
    if not same3.any():
        return empty
    n_triples = int(same3.sum())
    pp = same3 & (c[:-2] == c[2:]) & (c[:-2] != c[1:-1])
    if not pp.any():
        return pa.table({
            "t_a": pa.array(["__total__"], type=pa.string()),
            "t_b": pa.array(["__total__"], type=pa.string()),
            "n_pingpong": pa.array([0], type=pa.int64()),
            "n_triples": pa.array([n_triples], type=pa.int64()),
        })
    sel = pa.array(pp)
    g = pa.table({
        "t_a": et.slice(0, n - 2).filter(sel),
        "t_b": et.slice(1, n - 2).filter(sel),
    }).group_by(["t_a", "t_b"]).aggregate([([], "count_all")])
    return pa.table({
        "t_a": pa.concat_arrays([g.column("t_a").combine_chunks(),
                                 pa.array(["__total__"])]),
        "t_b": pa.concat_arrays([g.column("t_b").combine_chunks(),
                                 pa.array(["__total__"])]),
        "n_pingpong": pa.concat_arrays([
            g.column("count_all").cast(pa.int64()).combine_chunks(),
            pa.array([0], type=pa.int64())]),
        "n_triples": pa.array([0] * g.num_rows + [n_triples],
                              type=pa.int64()),
    })


def w54_pingpong(sf_dir: str, num_partitions: int = 16):
    """W54 — ping-pong alternation matrix: among each user's
    consecutive event-type TRIPLES, count the A-B-A patterns keyed by
    (A, B) with A <> B, plus the global triple total on a sentinel
    ``__total__`` row — the oscillation screen (retry loops, bouncing
    between two pages) that W10's pair matrix can't see because both
    A->B and B->A look normal pairwise.  All counts exact ints.

    Scale shape: ONE ``_pkey`` exchange (user-partitioned), bounded
    n_types^2 partials per partition, tiny final sum."""
    from ray.data.aggregate import Sum

    ev = _read_events(sf_dir, ["event_id", "ts", "user_id",
                               "event_type"])
    return (partition_apply(ev, ["user_id"], _pingpong_kernel, num_partitions)
            .groupby(["t_a", "t_b"])
            .aggregate(Sum("n_pingpong", alias_name="n_pingpong"),
                       Sum("n_triples", alias_name="n_triples")))


# ---------------------------------------------------------------- W55 ----
def _time_to_kth_kernel(group: pa.Table, k: int = 5) -> pa.Table:
    """Per-partition (user_id, n_events, latency_s) rows over each
    user's (ts, event_id)-ordered stream: whole seconds from the 1st
    to the k-th event (NULL when the user has fewer than k).  Users
    are partition-local (the exchange key), so output is exact."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "n_events": pa.array([], type=pa.int64()),
            "latency_s": pa.array([], type=pa.int64()),
        })
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    ts = _ts_us(group.column("ts"))
    starts = np.flatnonzero(np.concatenate(([True], uid[1:] != uid[:-1])))
    counts = np.diff(np.concatenate((starts, [n])))
    has_k = counts >= k
    lat = np.zeros(starts.shape[0], dtype=np.int64)
    lat[has_k] = (ts[starts[has_k] + (k - 1)] - ts[starts[has_k]]) \
        // 1_000_000
    return pa.table({
        "user_id": pa.array(uid[starts], type=pa.int64()),
        "n_events": pa.array(counts, type=pa.int64()),
        "latency_s": pa.array(lat, type=pa.int64(), mask=~has_k),
    })


def w55_time_to_kth(sf_dir: str, k: int = 5, num_partitions: int = 16):
    """W55 — activation latency per user: whole seconds from a user's
    FIRST event to their k-th (default 5th) — the classic
    time-to-activation funnel metric ("how long until a user is truly
    engaged"); NULL for users who never got there.  Exact int seconds.

    Scale shape: ONE ``_pkey`` exchange (user-partitioned), vectorized
    first/k-th gathers per partition, one output row per user."""
    ev = _read_events(sf_dir, ["event_id", "ts", "user_id"])
    kernel = functools.partial(_time_to_kth_kernel, k=k)
    return partition_apply(ev, ["user_id"], kernel, num_partitions)


# ---------------------------------------------------------------- W56 ----
def _return_gap_kernel(group: pa.Table) -> pa.Table:
    """Per-partition histogram partial of first-return gaps: for each
    user with >= 2 DISTINCT active days, the day gap between the first
    and second active day — emitted as bounded (gap_days, n_users)
    rows plus a ``gap_days = -1`` row counting never-returned users."""
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    day = _ts_us(group.column("ts")) // 86_400_000_000
    order = np.lexsort((day, uid))
    uid, day = uid[order], day[order]
    # distinct (user, day) rows
    keep = np.concatenate(([True],
                           (uid[1:] != uid[:-1]) | (day[1:] != day[:-1])))
    uid, day = uid[keep], day[keep]
    starts = np.flatnonzero(np.concatenate(([True],
                                            uid[1:] != uid[:-1])))
    counts = np.diff(np.concatenate((starts, [uid.shape[0]])))
    gaps = np.full(starts.shape[0], -1, dtype=np.int64)
    has2 = counts >= 2
    gaps[has2] = day[starts[has2] + 1] - day[starts[has2]]
    uq, c = np.unique(gaps, return_counts=True)
    return pa.table({
        "gap_days": pa.array(uq, type=pa.int64()),
        "n_users": pa.array(c.astype(np.int64), type=pa.int64()),
    })


def w56_return_gap_hist(sf_dir: str, num_partitions: int = 16):
    """W56 — first-return gap histogram: for every user, the number of
    days between their first active day and their SECOND distinct
    active day (the canonical "time to second visit" retention
    distribution; ``gap_days = -1`` buckets the users who never came
    back).  Exact integer day gaps over a bounded gap domain.

    Scale shape: ONE ``_pkey`` exchange (user-partitioned), per-
    partition vectorized distinct-day compaction + bounded histogram
    partials, tiny final sum."""
    ev = _read_events(sf_dir, ["ts", "user_id"])
    return (partition_apply(ev, ["user_id"], _return_gap_kernel,
                            num_partitions)
            .groupby("gap_days").sum("n_users")
            .map_batches(lambda b: pa.table({
                "gap_days": b.column("gap_days"),
                "n_users": b.column("sum(n_users)")}),
                batch_format="pyarrow"))


def _w58_cohort_kernel(group: pa.Table) -> pa.Table:
    """Per-partition retention-cohort partial: distinct (user, day)
    activity -> per-user first day -> distinct (cohort_week = first
    day // 7, offset_week = (day - first_day) // 7) pairs, counted.
    Users never span partitions (the exchange keys on user_id), so the
    per-partition counts add exactly."""
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    day = _ts_us(group.column("ts")) // 86_400_000_000
    order = np.lexsort((day, uid))
    uid, day = uid[order], day[order]
    keep = np.concatenate(([True],
                           (uid[1:] != uid[:-1]) | (day[1:] != day[:-1])))
    uid, day = uid[keep], day[keep]
    starts = np.flatnonzero(np.concatenate(([True],
                                            uid[1:] != uid[:-1])))
    lens = np.diff(np.concatenate((starts, [uid.shape[0]])))
    fd = np.repeat(day[starts], lens)
    cohort = np.repeat(day[starts] // 7, lens)
    offset = (day - fd) // 7
    # distinct (user, cohort, offset): days within one user are sorted,
    # so equal offsets are adjacent within the user's run
    u_keep = np.concatenate(([True], (uid[1:] != uid[:-1])
                             | (offset[1:] != offset[:-1])))
    t = pa.table({
        "cohort_week": pa.array(cohort[u_keep], type=pa.int64()),
        "offset_week": pa.array(offset[u_keep], type=pa.int64()),
        "one": pa.array(np.ones(int(u_keep.sum()), dtype=np.int64)),
    })
    g = t.group_by(["cohort_week", "offset_week"]).aggregate(
        [("one", "sum")])
    return pa.table({
        "cohort_week": g.column("cohort_week"),
        "offset_week": g.column("offset_week"),
        "n_users": g.column("one_sum").cast(pa.int64()),
    })


def w58_retention_cohorts(sf_dir: str, num_partitions: int = 16):
    """W58 — USER-ANCHORED weekly retention: users grouped by the week
    of their FIRST activity (cohort_week = first active day // 7),
    counted as active at each 7-day offset SINCE THAT FIRST DAY
    (offset_week = (day - first_day) // 7).  The signup-anchored
    retention curve next to W36's calendar-anchored triangle (W36
    buckets activity by calendar week, so a Sunday signup "retains"
    after one day; this op measures true elapsed weeks) and T8's
    signup-event 7-day binary flag.

    Exactness: pure integer day/week arithmetic, exact distinct-user
    counts (a user lives wholly in one partition, so partition partials
    add exactly).

    Scale shape: ONE ``_pkey`` exchange (user-partitioned), per-
    partition vectorized distinct compaction + bounded (cohort, offset)
    partials, tiny final sum over the bounded week grid."""
    ev = _read_events(sf_dir, ["ts", "user_id"])
    return (partition_apply(ev, ["user_id"], _w58_cohort_kernel,
                            num_partitions)
            .groupby(["cohort_week", "offset_week"]).sum("n_users")
            .map_batches(lambda b: pa.table({
                "cohort_week": b.column("cohort_week"),
                "offset_week": b.column("offset_week"),
                "n_users": b.column("sum(n_users)")}),
                batch_format="pyarrow"))


def _stickiness_kernel(group: pa.Table) -> pa.Table:
    """Per-partition DAU/WAU partials: distinct (user, day) pairs give
    (day, dau) counts directly, and each user's trailing-7-day WAU
    membership is a UNION OF INTERVALS [day, day+6] — emitted as
    (start, +1) / (end+1, -1) boundary deltas after an in-partition
    merge of overlapping intervals (vectorized: interval breaks where
    the user changes or the gap exceeds 6 days).  A global per-day sum
    + cumsum turns deltas into WAU without ever materializing the
    (user x day) membership grid."""
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    day = _ts_us(group.column("ts")) // 86_400_000_000
    order = np.lexsort((day, uid))
    uid, day = uid[order], day[order]
    keep = np.concatenate(([True],
                           (uid[1:] != uid[:-1]) | (day[1:] != day[:-1])))
    uid, day = uid[keep], day[keep]
    # DAU partial: users are partition-local, so per-day counts add
    ud, uc = np.unique(day, return_counts=True)
    # WAU deltas: merge [day, day+6] runs per user
    brk = np.concatenate(([True], (uid[1:] != uid[:-1])
                          | (day[1:] > day[:-1] + 6)))
    iid = np.cumsum(brk) - 1
    starts = day[brk]
    ends = np.zeros(starts.shape[0], dtype=np.int64)
    np.maximum.at(ends, iid, day)          # last day of each interval
    d_day = np.concatenate((ud, starts, ends + 7))
    dau = np.concatenate((uc.astype(np.int64),
                          np.zeros(2 * starts.shape[0],
                                   dtype=np.int64)))
    wdelta = np.concatenate((np.zeros(ud.shape[0], dtype=np.int64),
                             np.ones(starts.shape[0], dtype=np.int64),
                             -np.ones(starts.shape[0],
                                      dtype=np.int64)))
    return pa.table({
        "day": pa.array(d_day, type=pa.int64()),
        "dau": pa.array(dau, type=pa.int64()),
        "wdelta": pa.array(wdelta, type=pa.int64()),
    })


def w59_stickiness(sf_dir: str, num_partitions: int = 16):
    """W59 — the DAU/WAU stickiness curve: for every day in the active
    span, distinct daily actives, distinct trailing-7-day actives, and
    their ratio (the canonical engagement-quality metric; 1/7 = users
    show up once a week, 1.0 = every active user is daily).

    The trailing-window DISTINCT is computed WITHOUT a (user x day)
    grid: each user's WAU membership is a union of [day, day+6]
    intervals -> boundary deltas -> one bounded per-day sum + a
    cumsum over the <= span+7 day domain.  Exact integer counts; the
    ratio is the one pinned division.

    Scale shape: ONE ``_pkey`` exchange (user-partitioned), bounded
    (day, partials) exchange, single-group cumsum finalize over the
    bounded day grid."""
    return _stickiness(sf_dir, active_only=False,
                       num_partitions=num_partitions)


def _stickiness(sf_dir: str, active_only: bool, num_partitions: int = 16):
    """W59's plan.  ``active_only`` keeps only the days with a daily
    active user (G25's rows), inside the finalize both plans run."""
    from anomalydetection_ray.pipelines.queries import sized_plan
    from anomalydetection_ray.stages.detectors import _split_double

    def finalize(group: pa.Table) -> pa.Table:
        day = np.asarray(group.column("day"), dtype=np.int64)
        dau = np.asarray(group.column("sum(dau)"), dtype=np.int64)
        wd = np.asarray(group.column("sum(wdelta)"), dtype=np.int64)
        order = np.argsort(day)
        day, dau, wd = day[order], dau[order], wd[order]
        active = dau > 0
        lo, hi = int(day[active].min()), int(day[active].max())
        # dense delta domain up to hi (deltas past hi don't matter)
        span = np.arange(lo, hi + 1, dtype=np.int64)
        dense_w = np.zeros(span.shape[0], dtype=np.int64)
        dense_d = np.zeros(span.shape[0], dtype=np.int64)
        inside = (day >= lo) & (day <= hi)
        dense_w[day[inside] - lo] = wd[inside]
        # deltas BEFORE lo (none: intervals start at an active day) --
        # intervals starting before lo are impossible by construction
        dense_d[day[inside] - lo] = dau[inside]
        wau = np.cumsum(dense_w)
        stick = np.full(span.shape[0], np.nan)
        ok = wau > 0
        stick[ok] = np.array(
            [_split_double(int(d)) / _split_double(int(w))
             for d, w in zip(dense_d[ok], wau[ok])])
        out = pa.table({
            "day": pa.array(span, type=pa.int64()),
            "dau": pa.array(dense_d, type=pa.int64()),
            "wau": pa.array(wau, type=pa.int64()),
            "stickiness": pa.array(stick, type=pa.float64(),
                                   mask=~ok),
        })
        return out.filter(pa.array(dense_d > 0)) if active_only else out

    def whole(t: pa.Table) -> pa.Table:
        g = _stickiness_kernel(t).group_by("day").aggregate(
            [("dau", "sum"), ("wdelta", "sum")])
        return finalize(g.select(["day", "dau_sum", "wdelta_sum"])
                        .rename_columns(["day", "sum(dau)", "sum(wdelta)"]))

    def exchange(ev):
        return (partition_apply(ev, ["user_id"], _stickiness_kernel,
                                num_partitions)
            .groupby("day").sum(["dau", "wdelta"])
            .repartition(1).map_batches(finalize, batch_format="pyarrow"))

    return sized_plan(sf_dir, "events", ["ts", "user_id"], whole, exchange)


def w61_second_order_entropy(sf_dir: str, num_partitions: int = 16):
    """W61 — second-order transition entropy: for every event-type
    PAIR (t1, t2), the entropy of the next-step distribution
    P(t3 | t1, t2) over the whole corpus — W46 measures per-user
    first-order predictability; this asks whether TWO steps of context
    pin the third (low H = strong second-order structure W10's pair
    matrix cannot see).

    Exactness: W48's trigram counts (exact ints); the entropy is the
    repo's pinned ascending fold — term p = split(n_c)/split(tot),
    acc + p*ln(p), 0.0 seed, negated once — replayed by the oracle's
    list_reduce ORDER BY t3.

    Scale shape: W48's ONE ``_pkey`` exchange + bounded n_types^3
    partials; the finalize runs over the bounded pair grid."""
    import math

    from anomalydetection_ray.stages.detectors import _split_double

    ev = _read_events(sf_dir, ["event_id", "ts", "user_id",
                               "event_type"])
    counts = (partition_apply(ev, ["user_id"], _trigram_kernel, num_partitions)
        .groupby(["t1", "t2", "t3"]).sum("n"))

    def finalize(group: pa.Table) -> pa.Table:
        t1 = group.column("t1")[0].as_py()
        t2 = group.column("t2")[0].as_py()
        t3 = np.asarray(group.column("t3"))
        n = np.asarray(group.column("sum(n)"), dtype=np.int64)
        order = np.argsort(t3)             # ascending t3 fold order
        n = n[order]
        tot = int(n.sum())
        acc = 0.0
        for c in n:
            p = _split_double(int(c)) / _split_double(tot)
            acc = acc + p * math.log(p)
        return pa.table({
            "t1": pa.array([t1], type=pa.string()),
            "t2": pa.array([t2], type=pa.string()),
            "n_trigrams": pa.array([tot], type=pa.int64()),
            "n_distinct_next": pa.array([int(n.shape[0])],
                                        type=pa.int64()),
            "h_next": pa.array([-acc], type=pa.float64()),
        })

    return counts.groupby(["t1", "t2"]).map_groups(
        finalize, batch_format="pyarrow")


def _new_returning_kernel(group: pa.Table) -> pa.Table:
    """Per-partition (day, n_new, n_active) partials over distinct
    (user, day) activity: a user is NEW on their first-ever active day
    (users never span partitions, so partials add exactly)."""
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    day = _ts_us(group.column("ts")) // 86_400_000_000
    order = np.lexsort((day, uid))
    uid, day = uid[order], day[order]
    keep = np.concatenate(([True],
                           (uid[1:] != uid[:-1]) | (day[1:] != day[:-1])))
    uid, day = uid[keep], day[keep]
    first = np.concatenate(([True], uid[1:] != uid[:-1]))
    ad, ac = np.unique(day, return_counts=True)
    nd, nc = np.unique(day[first], return_counts=True)
    newc = np.zeros(ad.shape[0], dtype=np.int64)
    newc[np.searchsorted(ad, nd)] = nc
    return pa.table({
        "day": pa.array(ad, type=pa.int64()),
        "n_new": pa.array(newc, type=pa.int64()),
        "n_active": pa.array(ac.astype(np.int64), type=pa.int64()),
    })


def g51_new_vs_returning(sf_dir: str, num_partitions: int = 16):
    """G51 — daily new-vs-returning user split: per day, how many
    active users were seen for the FIRST time ever vs returning — the
    growth-accounting decomposition every DAU chart hides (is the
    line new blood or retention?).  new_share = n_new / n_active is
    the one pinned division.

    Scale shape: ONE ``_pkey`` exchange, bounded (day, partials)
    rows, tiny final sum."""
    from anomalydetection_ray.stages.detectors import _split_double

    ev = _read_events(sf_dir, ["ts", "user_id"])
    agg = (partition_apply(ev, ["user_id"], _new_returning_kernel,
                           num_partitions)
        .groupby("day").sum(["n_new", "n_active"]))

    def widen(batch: pa.Table) -> pa.Table:
        new = np.asarray(batch.column("sum(n_new)"), dtype=np.int64)
        act = np.asarray(batch.column("sum(n_active)"),
                         dtype=np.int64)
        share = np.array([_split_double(int(a))
                          / _split_double(int(b))
                          for a, b in zip(new, act)],
                         dtype=np.float64)
        return pa.table({
            "day": batch.column("day"),
            "n_new": pa.array(new, type=pa.int64()),
            "n_returning": pa.array(act - new, type=pa.int64()),
            "n_active": pa.array(act, type=pa.int64()),
            "new_share": pa.array(share, type=pa.float64()),
        })

    return agg.map_batches(widen, batch_format="pyarrow")


def w62_session_length_quartiles(sf_dir: str):
    """W62 — global session-length distribution: the exact quartiles
    (and max) of events-per-session over W1's sessionization — the
    "how long is a visit?" scalar summary next to W1's per-session
    rows and G15's what-they-did entropy.

    Exactness: session lengths are exact ints from W1's kernel; the
    quartiles are exact order statistics read off a bounded
    (length, count) histogram — no float anywhere.

    Scale shape: W1's ONE ``_pkey`` exchange; session rows collapse
    map-side to bounded length-histogram partials; single tiny
    finalize."""
    sess = w1_sessionize_events(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        ln = np.asarray(batch.column("n_events"), dtype=np.int64)
        uq, c = np.unique(ln, return_counts=True)
        return pa.table({
            "len": pa.array(uq, type=pa.int64()),
            "c": pa.array(c.astype(np.int64), type=pa.int64()),
        })

    counts = (sess.map_batches(partial, batch_format="pyarrow",
                               zero_copy_batch=True)
              .groupby("len").sum("c"))

    def finalize(group: pa.Table) -> pa.Table:
        order = np.argsort(np.asarray(group.column("len"),
                                      dtype=np.int64))
        v = np.asarray(group.column("len"), dtype=np.int64)[order]
        c = np.asarray(group.column("sum(c)"), dtype=np.int64)[order]
        cum = np.cumsum(c)
        total = int(cum[-1])
        qv = [int(v[int(np.searchsorted(cum, (q4 * total + 3) // 4))])
              for q4 in (1, 2, 3)]
        return pa.table({
            "n_sessions": pa.array([total], type=pa.int64()),
            "q1_len": pa.array([qv[0]], type=pa.int64()),
            "q2_len": pa.array([qv[1]], type=pa.int64()),
            "q3_len": pa.array([qv[2]], type=pa.int64()),
            "max_len": pa.array([int(v[-1])], type=pa.int64()),
        })

    return counts.repartition(1).map_batches(finalize, batch_format="pyarrow")


def _persistence_kernel(group: pa.Table) -> pa.Table:
    """Per-partition partials for W65: over distinct (user, day)
    pairs, how many have day < hi (denominator candidates) and how
    many of those also have day+1 active for the SAME user.  The
    global hi is attached per row upstream so partials stay exact."""
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    day = _ts_us(group.column("ts")) // 86_400_000_000
    hi = int(np.asarray(group.column("_hi"), dtype=np.int64)[0])
    order = np.lexsort((day, uid))
    uid, day = uid[order], day[order]
    keep = np.concatenate(([True],
                           (uid[1:] != uid[:-1]) | (day[1:] != day[:-1])))
    uid, day = uid[keep], day[keep]
    cand = day < hi
    followed = np.zeros(uid.shape[0], dtype=bool)
    if uid.shape[0] > 1:
        followed[:-1] = (uid[1:] == uid[:-1]) & (day[1:] == day[:-1] + 1)
    return pa.table({
        "_one": pa.array([0], type=pa.int64()),
        "n_candidates": pa.array([int(cand.sum())], type=pa.int64()),
        "n_followed": pa.array([int((cand & followed).sum())],
                               type=pa.int64()),
    })


def w65_activity_persistence(sf_dir: str, num_partitions: int = 16):
    """W65 — user-level day-over-day persistence: of all (user, day)
    active pairs that could have a tomorrow (day < corpus max day),
    what fraction were followed by the SAME user being active on
    day+1 — P(active tomorrow | active today), the user-grain
    stickiness scalar next to W59's population-level DAU/WAU and
    W44's type-level count ACF.

    Exactness: exact distinct-pair counts (users partition-local);
    p_continue is the one pinned division.

    Scale shape: the global max day is ONE tiny pre-aggregate
    attached map-side; then ONE ``_pkey`` exchange and single-row
    partials."""
    from anomalydetection_ray.stages.detectors import _split_double

    ev = _read_events(sf_dir, ["ts", "user_id"])
    hi = ev.map_batches(
        lambda b: pa.table({"d": pa.array(
            [int((_ts_us(b.column("ts")) // 86_400_000_000).max())]
            if b.num_rows else [], type=pa.int64())}),
        batch_format="pyarrow").max("d")

    def attach_hi(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_hi", pa.array(np.full(batch.num_rows, hi,
                                    dtype=np.int64)))

    ev = ev.map_batches(attach_hi, batch_format="pyarrow",
                        zero_copy_batch=True)
    agg = (partition_apply(ev, ["user_id"], _persistence_kernel,
                           num_partitions)
           .groupby("_one").sum(["n_candidates", "n_followed"]))

    def widen(batch: pa.Table) -> pa.Table:
        cand = int(batch.column("sum(n_candidates)")[0].as_py())
        fol = int(batch.column("sum(n_followed)")[0].as_py())
        p = (_split_double(fol) / _split_double(cand)
             if cand > 0 else None)
        return pa.table({
            "n_candidates": pa.array([cand], type=pa.int64()),
            "n_followed": pa.array([fol], type=pa.int64()),
            "p_continue": pa.array([p], type=pa.float64(),
                                   from_pandas=True),
        })

    return agg.map_batches(widen, batch_format="pyarrow")


def _typemask_kernel(group: pa.Table, type_order: tuple) -> pa.Table:
    """Per-partition (mask, n_users) partials: each user's set of
    event types as a bitmask over the FIXED type order — the bounded
    (2^n_types) sufficient statistic for every pairwise set overlap."""
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    et = np.asarray(group.column("event_type"))
    bit = np.zeros(uid.shape[0], dtype=np.int64)
    for i, t in enumerate(type_order):
        bit[et == t] = 1 << i
    order = np.argsort(uid, kind="stable")
    uid, bit = uid[order], bit[order]
    starts = np.flatnonzero(np.concatenate(([True],
                                            uid[1:] != uid[:-1])))
    masks = np.bitwise_or.reduceat(bit, starts)
    uq, c = np.unique(masks, return_counts=True)
    return pa.table({
        "mask": pa.array(uq, type=pa.int64()),
        "n_users": pa.array(c.astype(np.int64), type=pa.int64()),
    })


def g57_type_user_jaccard(sf_dir: str, num_partitions: int = 16):
    """G57 — event-type co-activity matrix: for every type pair, the
    Jaccard overlap of their USER sets (|users doing both| / |users
    doing either|) — "do people who error also purchase?", the
    audience-overlap readout W10's transition matrix (sequence-local)
    cannot give.

    The whole computation reduces to the bounded (<= 2^n_types)
    mask histogram: per user ONE bitmask of types used, counted; every
    pair's intersection/union is a mask-table scan.  Exact counts; one
    pinned division per pair.

    Scale shape: ONE ``_pkey`` exchange; bounded mask partials; the
    pair read-off runs over <= 32 rows."""
    from anomalydetection_ray.stages.detectors import _split_double

    ev = _read_events(sf_dir, ["user_id", "event_type"])
    # fixed, data-independent type order (sorted distinct — tiny agg)
    types = tuple(sorted(
        r["event_type"] for r in ev.groupby("event_type").count()
        .select_columns(["event_type"]).take_all()))
    kernel = functools.partial(_typemask_kernel, type_order=types)
    masks = (partition_apply(ev, ["user_id"], kernel, num_partitions)
             .groupby("mask").sum("n_users"))

    def finalize(group: pa.Table) -> pa.Table:
        m = np.asarray(group.column("mask"), dtype=np.int64)
        n = np.asarray(group.column("sum(n_users)"), dtype=np.int64)
        out = {k: [] for k in ("type_a", "type_b", "n_a", "n_b",
                               "n_both", "jaccard")}
        for i in range(len(types)):
            for j in range(i + 1, len(types)):
                ba, bb = 1 << i, 1 << j
                na = int(n[(m & ba) > 0].sum())
                nb = int(n[(m & bb) > 0].sum())
                nab = int(n[((m & ba) > 0) & ((m & bb) > 0)].sum())
                union = na + nb - nab
                out["type_a"].append(types[i])
                out["type_b"].append(types[j])
                out["n_a"].append(na)
                out["n_b"].append(nb)
                out["n_both"].append(nab)
                out["jaccard"].append(
                    _split_double(nab) / _split_double(union)
                    if union > 0 else None)
        return pa.table({
            "type_a": pa.array(out["type_a"], type=pa.string()),
            "type_b": pa.array(out["type_b"], type=pa.string()),
            "n_a": pa.array(out["n_a"], type=pa.int64()),
            "n_b": pa.array(out["n_b"], type=pa.int64()),
            "n_both": pa.array(out["n_both"], type=pa.int64()),
            "jaccard": pa.array(out["jaccard"], type=pa.float64(),
                                from_pandas=True),
        })

    return masks.repartition(1).map_batches(finalize, batch_format="pyarrow")


def _action_run_kernel(group: pa.Table) -> pa.Table:
    """Per-partition (type, n_runs, n_events) partials over each
    user's (ts, event_id)-ordered stream: a run is a maximal streak of
    the SAME event type within one user."""
    group = group.sort_by(
        [("user_id", "ascending"), ("ts", "ascending"),
         ("event_id", "ascending")])
    n = group.num_rows
    if n == 0:
        return pa.table({
            "event_type": pa.array([], type=pa.string()),
            "n_runs": pa.array([], type=pa.int64()),
            "n_events": pa.array([], type=pa.int64())})
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    et = group.column("event_type")
    if isinstance(et, pa.ChunkedArray):
        et = et.combine_chunks()
    ets = np.asarray(et)
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (uid[1:] != uid[:-1]) | (ets[1:] != ets[:-1])
    t = pa.table({
        "event_type": et,
        "run": pa.array(new_run.astype(np.int64)),
        "one": pa.array(np.ones(n, dtype=np.int64)),
    })
    g = t.group_by(["event_type"]).aggregate([("run", "sum"),
                                              ("one", "sum")])
    return pa.table({
        "event_type": g.column("event_type"),
        "n_runs": g.column("run_sum").cast(pa.int64()),
        "n_events": g.column("one_sum").cast(pa.int64()),
    })


def w64_action_runs(sf_dir: str, num_partitions: int = 16):
    """W64 — same-action streakiness per event type: total events,
    maximal same-type runs within user streams, and the mean run
    length — "do users repeat this action back-to-back?"
    (mean_run_len ~ 1 = interleaved; >> 1 = batched/compulsive) —
    the stream-local persistence readout next to W54's ping-pong
    alternations.

    Exactness: run counting is exact boundary arithmetic (users never
    span partitions); mean_run_len = split(n_events)/split(n_runs) is
    the one pinned division.

    Scale shape: ONE ``_pkey`` exchange; bounded per-type partials."""
    from anomalydetection_ray.stages.detectors import _split_double

    ev = _read_events(sf_dir, ["event_id", "ts", "user_id",
                               "event_type"])
    agg = (partition_apply(ev, ["user_id"], _action_run_kernel, num_partitions)
        .groupby("event_type").sum(["n_runs", "n_events"]))

    def widen(batch: pa.Table) -> pa.Table:
        runs = np.asarray(batch.column("sum(n_runs)"),
                          dtype=np.int64)
        evs = np.asarray(batch.column("sum(n_events)"),
                         dtype=np.int64)
        mean = np.array([_split_double(int(e)) / _split_double(int(r))
                         for e, r in zip(evs, runs)],
                        dtype=np.float64)
        return pa.table({
            "event_type": batch.column("event_type"),
            "n_events": pa.array(evs, type=pa.int64()),
            "n_runs": pa.array(runs, type=pa.int64()),
            "mean_run_len": pa.array(mean, type=pa.float64()),
        })

    return agg.map_batches(widen, batch_format="pyarrow")


def _growth_kernel(group: pa.Table) -> pa.Table:
    """Per-partition growth-accounting partials over each user's
    DISTINCT active weeks: new (first-ever week), retained (active
    previous week too), resurrected (re-appearing after a gap),
    churned (attributed to the week AFTER each activity run ends,
    capped at the global max week carried in ``_hiw``)."""
    uid = np.asarray(group.column("user_id"), dtype=np.int64)
    wk = (_ts_us(group.column("ts")) // 86_400_000_000) // 7
    hiw = int(np.asarray(group.column("_hiw"), dtype=np.int64)[0])
    order = np.lexsort((wk, uid))
    uid, wk = uid[order], wk[order]
    keep = np.concatenate(([True],
                           (uid[1:] != uid[:-1]) | (wk[1:] != wk[:-1])))
    uid, wk = uid[keep], wk[keep]
    ufirst = np.concatenate(([True], uid[1:] != uid[:-1]))
    prev_active = np.zeros(uid.shape[0], dtype=bool)
    prev_active[1:] = (uid[1:] == uid[:-1]) & (wk[1:] == wk[:-1] + 1)
    run_start = ufirst | ~prev_active
    new = ufirst
    retained = prev_active
    resurrected = run_start & ~ufirst
    # churn at run_end + 1: run ends where the NEXT row starts a run
    run_end = np.concatenate((run_start[1:], [True]))
    churn_wk = wk[run_end] + 1
    churn_ok = churn_wk <= hiw
    weeks = np.concatenate([wk[new], wk[retained], wk[resurrected],
                            churn_wk[churn_ok]])
    kinds = np.concatenate([
        np.full(int(new.sum()), 0, dtype=np.int64),
        np.full(int(retained.sum()), 1, dtype=np.int64),
        np.full(int(resurrected.sum()), 2, dtype=np.int64),
        np.full(int(churn_ok.sum()), 3, dtype=np.int64)])
    t = pa.table({
        "week": pa.array(weeks, type=pa.int64()),
        "kind": pa.array(kinds, type=pa.int64()),
        "one": pa.array(np.ones(weeks.shape[0], dtype=np.int64)),
    })
    g = t.group_by(["week", "kind"]).aggregate([("one", "sum")])
    return pa.table({
        "week": g.column("week"),
        "kind": g.column("kind"),
        "n": g.column("one_sum").cast(pa.int64()),
    })


def w68_growth_accounting(sf_dir: str, num_partitions: int = 16):
    """W68 — weekly growth accounting: per active week, the user
    counts of NEW (first-ever week), RETAINED (also active the
    previous week), RESURRECTED (back after a gap) and CHURNED (active
    the previous week, absent this week) — the four-quadrant
    decomposition every growth model runs on, completing G51's daily
    new-vs-returning and W59's DAU/WAU.  The identity active = new +
    retained + resurrected is structural and pytest-gated.

    Exactness: all classifications are exact set logic on each user's
    distinct week list (users partition-local); counts exact ints.

    Scale shape: the global max week is ONE tiny pre-aggregate
    attached map-side; ONE ``_pkey`` exchange; bounded (week, kind)
    partials."""
    ev = _read_events(sf_dir, ["ts", "user_id"])
    hiw = ev.map_batches(
        lambda b: pa.table({"w": pa.array(
            [int(((_ts_us(b.column("ts")) // 86_400_000_000)
                  // 7).max())] if b.num_rows else [],
            type=pa.int64())}),
        batch_format="pyarrow").max("w")

    def attach(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_hiw", pa.array(np.full(batch.num_rows, hiw,
                                     dtype=np.int64)))

    ev = ev.map_batches(attach, batch_format="pyarrow",
                        zero_copy_batch=True)
    counts = (partition_apply(ev, ["user_id"], _growth_kernel,
                              num_partitions)
              .groupby(["week", "kind"]).sum("n"))

    def widen(group: pa.Table) -> pa.Table:
        wk = np.asarray(group.column("week"), dtype=np.int64)
        kind = np.asarray(group.column("kind"), dtype=np.int64)
        n = np.asarray(group.column("sum(n)"), dtype=np.int64)
        weeks = np.unique(wk)
        grid = {int(w): [0, 0, 0, 0] for w in weeks}
        for w, k, c in zip(wk, kind, n):
            grid[int(w)][int(k)] = int(c)
        rows = sorted(grid)
        arr = np.array([grid[w] for w in rows], dtype=np.int64)
        return pa.table({
            "week": pa.array(rows, type=pa.int64()),
            "n_new": pa.array(arr[:, 0], type=pa.int64()),
            "n_retained": pa.array(arr[:, 1], type=pa.int64()),
            "n_resurrected": pa.array(arr[:, 2], type=pa.int64()),
            "n_churned": pa.array(arr[:, 3], type=pa.int64()),
            "n_active": pa.array(arr[:, 0] + arr[:, 1] + arr[:, 2],
                                 type=pa.int64()),
        })

    return counts.repartition(1).map_batches(widen, batch_format="pyarrow")
