"""X1 — pluggable per-series detector registry (SURVEY.md §2.2 X1).

Mirrors the reference family's pluggable-algorithm surface: a detector is
``fn(values: np.ndarray, **params) -> dict of np arrays`` producing
per-position or per-series outputs.  Registered detectors run inside a
stateless ``map_batches`` kernel over validated sequences rows.

Built-ins: A2 EWMA smoother, A3 generalized-ESD anomaly count (robust
S-H-ESD default), A6 moving-window threshold flags, a global robust-z
(median/MAD) detector ``mad``, A7 CUSUM change-point (``cusum``), and the
A8 seasonal-hybrid ESD (``shesd``, per-phase-median de-seasonalize).

Batch output is scalar-only per (doc, part): ``n_anomalies`` plus the
order-insensitive position checksums ``pos_sum`` / ``pos_sumsq`` — a
schema a SQL oracle can reproduce exactly (list columns can't be
value-hashed portably).  The A6 threshold detector additionally has a
fully vectorized flat-buffer batch path (``_threshold_batch_fast``): one
pass of row-boundary-aware int64 cumsums over the whole batch, no
per-row Python; ESD stays per-row (iterative by definition) and EWMA's
inner scan is vectorized per row.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np
import pyarrow as pa

from anomalydetection_ray.functions.stats import esd, ewma, threshold_flags

_REGISTRY: dict[str, Callable] = {}


def register_detector(name: str, fn: Callable) -> None:
    _REGISTRY[name] = fn


def get_detector(name: str) -> Callable:
    return _REGISTRY[name]


def detectors() -> list[str]:
    return sorted(_REGISTRY)


def _det_esd(values: np.ndarray, alpha: float = 0.05, k_max: int | None = None,
             robust: bool = True, direction: str = "both") -> dict:
    n_anom, idx = esd(values.astype(np.float64), alpha=alpha, k_max=k_max,
                      robust=robust, direction=direction)
    return {"n_anomalies": int(n_anom), "anomaly_positions": np.sort(idx)}


def _det_threshold(values: np.ndarray, window: int = 50, c: float = 3.0) -> dict:
    flags = threshold_flags(values, window, c)
    pos = np.flatnonzero(flags)
    return {"n_anomalies": int(pos.size), "anomaly_positions": pos}


def _det_ewma_resid(values: np.ndarray, alpha: float = 0.1, c: float = 4.0) -> dict:
    """EWMA control chart (Roberts 1959): flag |x_i - s_{i-1}| > c * robust
    sigma of the one-step residuals."""
    x = values.astype(np.float64)
    if x.shape[0] < 3:
        return {"n_anomalies": 0, "anomaly_positions": np.empty(0, dtype=np.int64)}
    s = ewma(x, alpha)
    resid = x[1:] - s[:-1]
    med = np.median(resid)
    mad = np.median(np.abs(resid - med))
    if mad == 0.0:
        return {"n_anomalies": 0, "anomaly_positions": np.empty(0, dtype=np.int64)}
    sigma = 1.4826 * mad
    pos = (np.flatnonzero(np.abs(resid - med) > c * sigma) + 1)
    return {"n_anomalies": int(pos.size), "anomaly_positions": pos}


def _det_mad(values: np.ndarray, c: float = 3.5) -> dict:
    """Global robust z-score detector (Iglewicz & Hoaglin 1993): flag
    positions where |x - median| > c * 1.4826 * MAD.  MAD == 0 series
    report no anomalies (same convention as the EWMA chart)."""
    x = values.astype(np.float64)
    if x.shape[0] == 0:
        return {"n_anomalies": 0, "anomaly_positions": np.empty(0, dtype=np.int64)}
    med = np.median(x)
    dev = np.abs(x - med)
    mad = np.median(dev)
    if mad == 0.0:
        return {"n_anomalies": 0, "anomaly_positions": np.empty(0, dtype=np.int64)}
    sigma = 1.4826 * mad
    pos = np.flatnonzero(dev > c * sigma)
    return {"n_anomalies": int(pos.size), "anomaly_positions": pos}


def _det_cusum(values: np.ndarray, c: float = 5.0) -> dict:
    """Two-sided zero-slack CUSUM change-point detector (Page 1954):
    flag positions where the cumulative deviation from the series mean
    exceeds ``c * n * sigma`` on either side.  Closed form instead of the
    textbook recurrence — with p = cumsum(n*x - S):
        s+_t = p_t - min(0, min_{j<=t} p_j)
        s-_t = max(0, max_{j<=t} p_j) - p_t
    so the whole detector is cumsum + running min/max, no sequential
    Python.  All statistics are EXACT integers in n-scaled units
    (inc = n*x - S); the threshold h = c * sqrt(n*Q - S^2) (= c*n*sigma)
    takes the radicand in arbitrary-precision Python ints, then one IEEE
    double conversion + one correctly-rounded sqrt — pinned ops a SQL
    oracle replays verbatim.  Zero-variance series alarm nowhere."""
    x = values.astype(np.int64)
    n = x.shape[0]
    if n == 0:
        return {"n_anomalies": 0, "anomaly_positions": np.empty(0, dtype=np.int64)}
    S = int(x.sum())
    inc = n * x - S
    p = np.cumsum(inc)
    sp = p - np.minimum(np.minimum.accumulate(p), 0)
    sm = np.maximum(np.maximum.accumulate(p), 0) - p
    Q = int((x.astype(object) * x).sum()) if n * int(np.abs(x).max() or 0) ** 2 > 2**62 \
        else int((x * x).sum())
    h = c * math.sqrt(float(n * Q - S * S))
    pos = np.flatnonzero((sp > h) | (sm > h))
    return {"n_anomalies": int(pos.size), "anomaly_positions": pos}


def _det_shesd(values: np.ndarray, period: int = 24, alpha: float = 0.05,
               k_max: int | None = None, direction: str = "both") -> dict:
    """A8: seasonal-hybrid ESD (Hochenbaum, Vallis & Kejariwal 2017,
    arXiv:1704.07706 §3.2) with the piecewise-median seasonal estimate:
    the seasonal component at phase p (= position mod ``period``) is the
    median of that phase's values, and the robust generalized-ESD test
    runs on the residual x - seasonal.  Robust ESD re-centers every
    iteration, so the level/trend-median term of the paper's decomposition
    is a no-op here and is omitted.

    Bit-reproducibility: phase medians of integer token values are exact
    dyadic rationals (k/2), residuals therefore k/2 too, and every
    downstream median/MAD the ESD iteration takes stays an exact binary
    fraction — the SQL oracle replays the whole thing verbatim."""
    x = values.astype(np.float64)
    n = x.shape[0]
    if n < 3:
        return {"n_anomalies": 0, "anomaly_positions": np.empty(0, dtype=np.int64)}
    pmed = np.zeros(period, dtype=np.float64)
    for p in range(period):  # <= period iterations, each median vectorized
        sl = x[p::period]
        if sl.size:
            pmed[p] = np.median(sl)
    resid = x - pmed[np.arange(n, dtype=np.int64) % period]
    n_anom, idx = esd(resid, alpha=alpha, k_max=k_max, robust=True,
                      direction=direction)
    return {"n_anomalies": int(n_anom), "anomaly_positions": np.sort(idx)}


def _det_shesd_trend(values: np.ndarray, period: int = 24,
                     alpha: float = 0.05, k_max: int | None = None,
                     direction: str = "both") -> dict:
    """A52: S-H-ESD with a robust piecewise-median TREND term — the
    engine's median-based stand-in for the family's STL decomposition
    step (Hochenbaum et al. 2017 §3.2 decompose with STL before the
    robust test; LOESS smoothing is float-iterative and cannot be
    replayed bitwise by a SQL oracle, so the trend here is the median of
    each full seasonal cycle — the robust low-pass in the RobustSTL
    spirit):

        seasonal[p]  = median of phase p's values       (exact halves)
        deseason     = x - seasonal[pos % period]
        trend[c]     = median of cycle c's deseasoned   (exact quarters)
        resid        = deseason - trend[pos // period]

    then the robust generalized-ESD test on ``resid``.  Every median of
    integer inputs stays an exact dyadic rational, so the full iteration
    remains bit-reproducible by the DuckDB oracle."""
    x = values.astype(np.float64)
    n = x.shape[0]
    if n < 3:
        return {"n_anomalies": 0,
                "anomaly_positions": np.empty(0, dtype=np.int64)}
    pos = np.arange(n, dtype=np.int64)
    pmed = np.zeros(period, dtype=np.float64)
    for p in range(period):
        sl = x[p::period]
        if sl.size:
            pmed[p] = np.median(sl)
    deseason = x - pmed[pos % period]
    cyc = pos // period
    ncyc = int(cyc[-1]) + 1
    tmed = np.zeros(ncyc, dtype=np.float64)
    for c in range(ncyc):  # <= n/period iterations, each median vectorized
        tmed[c] = np.median(deseason[c * period:(c + 1) * period])
    resid = deseason - tmed[cyc]
    n_anom, idx = esd(resid, alpha=alpha, k_max=k_max, robust=True,
                      direction=direction)
    return {"n_anomalies": int(n_anom), "anomaly_positions": np.sort(idx)}


_THRESHOLD_Q = {"p95": 0.95, "p99": 0.99}


def _det_shesd_threshold(values: np.ndarray, period: int = 24,
                         alpha: float = 0.05, k_max: int | None = None,
                         threshold: str = "med_max",
                         direction: str = "pos") -> dict:
    """A53: the reference family's ``threshold=`` knob (AnomalyDetectionTs
    exposes ``med_max``/``p95``/``p99``): run S-H-ESD, then keep only
    anomalies whose RAW value clears a threshold computed from the
    per-cycle maxima of the series — cycle = consecutive ``period``-point
    chunk, the engine's pinned stand-in for the family's calendar-day
    maxima (positions are integer indexes here, not timestamps; a final
    partial cycle counts, as a partial day does in the family).

    ``med_max`` = median of the cycle maxima (integers -> exact dyadic
    half); ``p95``/``p99`` = nearest-rank order statistic at rank
    ``ceil(q * n_cycles)`` — rank arithmetic only, no interpolation, so
    the DuckDB oracle replays the same IEEE ``ceil(q*n)`` and the same
    integer order statistic verbatim.  Defaults to ``direction='pos'``:
    an upper-value threshold only filters upper-tail anomalies
    meaningfully (the family applies it to its positive-direction use
    case)."""
    if threshold not in ("med_max", *_THRESHOLD_Q):
        raise ValueError(f"unknown threshold {threshold!r}; "
                         f"accepted: med_max, p95, p99")
    out = _det_shesd(values, period=period, alpha=alpha, k_max=k_max,
                     direction=direction)
    pos = np.asarray(out["anomaly_positions"], dtype=np.int64)
    if pos.size == 0:
        return out
    x = values.astype(np.float64)
    cmax = np.maximum.reduceat(x, np.arange(0, x.shape[0], period))
    if threshold == "med_max":
        thr = float(np.median(cmax))
    else:
        q = _THRESHOLD_Q[threshold]
        s = np.sort(cmax)
        thr = float(s[math.ceil(q * s.size) - 1])
    pos = pos[x[pos] >= thr]
    return {"n_anomalies": int(pos.size), "anomaly_positions": pos}


def _det_shesd_onlylast(values: np.ndarray, period: int = 24,
                        alpha: float = 0.05, k_max: int | None = None,
                        only_last: int = 1,
                        direction: str = "both") -> dict:
    """A55: the reference family's ``only_last=`` knob (AnomalyDetectionTs
    exposes ``'day'``/``'hr'``): run S-H-ESD over the WHOLE series — the
    seasonal medians and the ESD iteration still see every point — then
    report only the anomalies that fall in the last ``only_last`` cycles.
    Cycle = consecutive ``period``-point chunk, the engine's pinned
    stand-in for the family's calendar day (positions are integer
    indexes, not timestamps); the trailing PARTIAL cycle counts as the
    last cycle, exactly as a partial final day does in the family.

    The cutoff is pure integer arithmetic —
    ``max(0, (ceil(n / period) - only_last) * period)`` with the ceil
    taken as ``(n + period - 1) // period`` — so the DuckDB oracle
    replays it verbatim with integer division, no float ceil."""
    if only_last < 1:
        raise ValueError(f"only_last must be >= 1, got {only_last}")
    out = _det_shesd(values, period=period, alpha=alpha, k_max=k_max,
                     direction=direction)
    pos = np.asarray(out["anomaly_positions"], dtype=np.int64)
    if pos.size == 0:
        return out
    n = values.shape[0]
    cutoff = max(0, ((n + period - 1) // period - only_last) * period)
    pos = pos[pos >= cutoff]
    return {"n_anomalies": int(pos.size), "anomaly_positions": pos}


def _piecewise(values: np.ndarray, window: int, det: Callable,
               **params) -> dict:
    """The reference family's ``longterm`` mode: split the series into
    consecutive ``window``-point pieces (remainder = one shorter final
    piece) and run the detector independently per piece, so the
    center/scale estimates stay local — long-horizon drift cannot mask a
    local spike (Hochenbaum et al. 2017 §3.1; the family slides on
    period-aligned chunks — consecutive fixed windows are this engine's
    pinned, SQL-replicable variant of that split).  Positions are
    reported series-global."""
    pos_parts = []
    for w0 in range(0, values.shape[0], window):
        out = det(values[w0:w0 + window], **params)
        p = np.asarray(out["anomaly_positions"], dtype=np.int64)
        if p.size:
            pos_parts.append(p + w0)
    pos = (np.concatenate(pos_parts) if pos_parts
           else np.empty(0, dtype=np.int64))
    return {"n_anomalies": int(pos.size), "anomaly_positions": pos}


def _det_esd_piecewise(values: np.ndarray, window: int = 100,
                       alpha: float = 0.05, k_max: int | None = None,
                       robust: bool = True,
                       direction: str = "both") -> dict:
    return _piecewise(values, window, _det_esd, alpha=alpha, k_max=k_max,
                      robust=robust, direction=direction)


def _det_shesd_piecewise(values: np.ndarray, window: int = 100,
                         period: int = 24, alpha: float = 0.05,
                         k_max: int | None = None,
                         direction: str = "both") -> dict:
    return _piecewise(values, window, _det_shesd, period=period,
                      alpha=alpha, k_max=k_max, direction=direction)


register_detector("esd", _det_esd)
register_detector("shesd", _det_shesd)
register_detector("shesd_trend", _det_shesd_trend)
register_detector("shesd_threshold", _det_shesd_threshold)
register_detector("shesd_onlylast", _det_shesd_onlylast)
register_detector("esd_piecewise", _det_esd_piecewise)
register_detector("shesd_piecewise", _det_shesd_piecewise)
register_detector("cusum", _det_cusum)
register_detector("threshold", _det_threshold)
register_detector("ewma", _det_ewma_resid)
register_detector("mad", _det_mad)


def _report_table(batch: pa.Table, detector: str, n_anom: np.ndarray,
                  pos_sum: np.ndarray, pos_sumsq: np.ndarray) -> pa.Table:
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "part_id": batch.column("part_id"),
            "detector": pa.array([detector] * batch.num_rows, type=pa.string()),
            "n_anomalies": pa.array(n_anom, type=pa.int64()),
            "pos_sum": pa.array(pos_sum, type=pa.int64()),
            "pos_sumsq": pa.array(pos_sumsq, type=pa.int64()),
        }
    )


def _threshold_batch_fast(batch: pa.Table, window: int, c: float) -> pa.Table:
    """Vectorized A6 over the batch's flat token buffer: padded int64
    cumsums once for every row, window sums by subtraction, eligibility =
    local index >= window-1.  Bit-identical to `_det_threshold` row by row
    (same IEEE ops in the same order)."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0).astype(np.int64)
    v = vals.astype(np.int64)
    nrows = offsets.shape[0] - 1
    lens = np.diff(offsets)
    n = v.shape[0]
    n_anom = np.zeros(nrows, dtype=np.int64)
    pos_sum = np.zeros(nrows, dtype=np.int64)
    pos_sumsq = np.zeros(nrows, dtype=np.int64)
    w = window
    if n and w > 0 and (not n or int(np.abs(v).max(initial=0)) <= (1 << 20)):
        c1 = np.concatenate(([0], np.cumsum(v)))
        c2 = np.concatenate(([0], np.cumsum(v * v)))
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        local = np.arange(n, dtype=np.int64) - np.repeat(offsets[:-1], lens)
        elig = local >= w - 1
        t = np.flatnonzero(elig)
        s1 = c1[t + 1] - c1[t + 1 - w]
        s2 = c2[t + 1] - c2[t + 1 - w]
        m = s1 / w
        var = s2 / w - m * m
        np.maximum(var, 0.0, out=var)
        flags = np.abs(v[t].astype(np.float64) - m) > c * np.sqrt(var)
        hit = t[flags]
        hrow = row_of[hit]
        hloc = local[hit]
        np.add.at(n_anom, hrow, 1)
        np.add.at(pos_sum, hrow, hloc)
        np.add.at(pos_sumsq, hrow, hloc * hloc)
    elif n:
        # magnitude fallback: per-row float path (identical to the registry)
        tokens = batch.column("tokens")
        if isinstance(tokens, pa.ChunkedArray):
            tokens = tokens.combine_chunks()
        for i in range(nrows):
            arr = tokens[i].values
            x = np.asarray(arr.fill_null(0) if arr.null_count else arr, dtype=np.int32) \
                if len(arr) else np.empty(0, dtype=np.int32)
            out = _det_threshold(x, window=w, c=c)
            p = np.asarray(out["anomaly_positions"], dtype=np.int64)
            n_anom[i] = out["n_anomalies"]
            pos_sum[i] = int(p.sum())
            pos_sumsq[i] = int((p * p).sum())
    return _report_table(batch, "threshold", n_anom, pos_sum, pos_sumsq)


def _ewma_batch_fast(batch: pa.Table, alpha: float, c: float) -> pa.Table:
    """Vectorized A2 control chart over the batch's flat token buffer:
    one segmented blocked EWMA scan for every row at once (`ewma_flat`,
    bit-identical to the per-row `ewma`), residuals by shifted
    subtraction, per-row median/MAD via two global lexsorts
    (`segment_medians`) — no per-row Python.  Rows shorter than 3
    positions report 0 anomalies, MAD == 0 rows report 0 (both as the
    per-row registry path defines)."""
    from anomalydetection_ray.functions.stats import ewma_flat, segment_medians
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0).astype(np.int32)
    x = vals.astype(np.float64)
    nrows = offsets.shape[0] - 1
    lens = np.diff(offsets)
    n_anom = np.zeros(nrows, dtype=np.int64)
    pos_sum = np.zeros(nrows, dtype=np.int64)
    pos_sumsq = np.zeros(nrows, dtype=np.int64)
    eligible = lens >= 3
    if eligible.any() and x.shape[0]:
        s = ewma_flat(x, offsets, alpha)
        # residual r_t = x_t - s_{t-1} for non-rowstart positions
        rowstart = np.zeros(x.shape[0], dtype=bool)
        rowstart[offsets[:-1][lens > 0]] = True
        t = np.flatnonzero(~rowstart)
        row_of_all = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        t = t[eligible[row_of_all[t]]]
        resid = x[t] - s[t - 1]
        rows_t = row_of_all[t]
        # per-row resid segments (contiguous because t ascends by row)
        seg_rows, seg_counts = np.unique(rows_t, return_counts=True)
        seg_starts = np.concatenate(([0], np.cumsum(seg_counts)[:-1]))
        seg_idx = np.searchsorted(seg_rows, rows_t)
        med = segment_medians(resid, seg_idx, seg_rows.shape[0], seg_starts, seg_counts)
        dev = np.abs(resid - med[seg_idx])
        mad = segment_medians(dev, seg_idx, seg_rows.shape[0], seg_starts, seg_counts)
        sigma = 1.4826 * mad
        ok = mad[seg_idx] != 0.0
        flags = ok & (dev > c * sigma[seg_idx])
        hit = np.flatnonzero(flags)
        hrow = rows_t[hit]
        # position = row-local index of t (resid index + 1 == local idx)
        hloc = t[hit] - offsets[:-1][hrow]
        np.add.at(n_anom, hrow, 1)
        np.add.at(pos_sum, hrow, hloc)
        np.add.at(pos_sumsq, hrow, hloc * hloc)
    return _report_table(batch, "ewma", n_anom, pos_sum, pos_sumsq)


def _mad_batch_fast(batch: pa.Table, c: float) -> pa.Table:
    """Vectorized robust-z (MAD) detector over the batch's flat token
    buffer: per-row median and MAD via two global lexsorts
    (`segment_medians`, rows ARE the segments), flags by one vectorized
    comparison — bit-identical to `_det_mad` row by row (same IEEE ops in
    the same order: dev > c * (1.4826 * mad))."""
    from anomalydetection_ray.functions.stats import segment_medians
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0).astype(np.int32)
    x = vals.astype(np.float64)
    nrows = offsets.shape[0] - 1
    lens = np.diff(offsets)
    n_anom = np.zeros(nrows, dtype=np.int64)
    pos_sum = np.zeros(nrows, dtype=np.int64)
    pos_sumsq = np.zeros(nrows, dtype=np.int64)
    if x.shape[0]:
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        med = segment_medians(x, row_of, nrows, offsets[:-1], lens)
        dev = np.abs(x - med[row_of])
        mad = segment_medians(dev, row_of, nrows, offsets[:-1], lens)
        sigma = 1.4826 * mad
        ok = mad[row_of] != 0.0
        flags = ok & (dev > c * sigma[row_of])
        hit = np.flatnonzero(flags)
        hrow = row_of[hit]
        hloc = hit - offsets[:-1][hrow]
        np.add.at(n_anom, hrow, 1)
        np.add.at(pos_sum, hrow, hloc)
        np.add.at(pos_sumsq, hrow, hloc * hloc)
    return _report_table(batch, "mad", n_anom, pos_sum, pos_sumsq)


def autocorr_batch(batch: pa.Table, lag: int = 24) -> pa.Table:
    """A9 — per-series lag-``lag`` autocorrelation feature (the standard
    biased ACF estimator r_L = c_L / c_0) over validated sequences rows.

    Exactness discipline (same as W5's OLS trend): every moment sum is an
    exact integer computed vectorized over the flat token buffer (cumsum
    differences — no per-token Python), and the mean-centered combination
        num = n²·Sxy − n·S·(Sh + St) + (n−L)·S²     (× n² of c_L·n)
        den = n²·Q   − n·S²                          (× n² of c_0·n)
    is taken per ROW in arbitrary-precision Python ints, then ONE IEEE
    division — which a SQL oracle replays verbatim in BIGINT (driver-size
    series fit; overflow would raise loudly, not corrupt).  Series with
    n <= lag or zero variance emit NULL."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    nrows = offsets.shape[0] - 1
    lens = np.diff(offsets)
    starts = offsets[:-1]
    c1 = np.concatenate(([0], np.cumsum(v)))
    c2 = np.concatenate(([0], np.cumsum(v * v)))
    S = c1[offsets[1:]] - c1[starts]
    Q = c2[offsets[1:]] - c2[starts]
    prod = v[:-lag] * v[lag:] if v.shape[0] > lag else np.empty(0, dtype=np.int64)
    cp = np.concatenate(([0], np.cumsum(prod)))
    hi = np.minimum(np.maximum(offsets[1:] - lag, starts), cp.shape[0] - 1)
    lo = np.minimum(starts, cp.shape[0] - 1)
    sxy = cp[hi] - cp[lo]
    sh = c1[np.maximum(offsets[1:] - lag, starts)] - c1[starts]
    st = c1[offsets[1:]] - c1[np.minimum(starts + lag, offsets[1:])]
    npairs = np.maximum(lens - lag, 0)
    acf = np.zeros(nrows, dtype=np.float64)
    mask = np.zeros(nrows, dtype=bool)
    for r in range(nrows):  # per ROW, exact bigint arithmetic
        n = int(lens[r])
        den = n * n * int(Q[r]) - n * int(S[r]) * int(S[r])
        if n <= lag or den == 0:
            mask[r] = True
            continue
        num = (n * n * int(sxy[r]) - n * int(S[r]) * (int(sh[r]) + int(st[r]))
               + (n - lag) * int(S[r]) * int(S[r]))
        acf[r] = float(num) / float(den)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "lag": pa.array(np.full(nrows, lag, dtype=np.int64), type=pa.int64()),
        "n": pa.array(lens, type=pa.int64()),
        "n_pairs": pa.array(npairs, type=pa.int64()),
        "acf": pa.array(acf, type=pa.float64(), mask=mask),
    })


_FAST_PARAMS = {"threshold": {"window", "c"}, "ewma": {"alpha", "c"},
                "mad": {"c"}}
_BUILTINS = {"threshold": _det_threshold, "ewma": _det_ewma_resid,
             "mad": _det_mad}


def detect_batch(batch: pa.Table, detector: str = "esd", **params) -> pa.Table:
    """Validated sequences rows -> per-series detector report.

    ``threshold`` / ``ewma`` take fully vectorized flat-buffer fast paths,
    but only while the registry still maps them to the built-ins — a
    ``register_detector`` override wins over the fast path, and a typo'd
    keyword raises instead of being silently dropped."""
    if detector in _BUILTINS and _REGISTRY.get(detector) is _BUILTINS[detector]:
        extra = set(params) - _FAST_PARAMS[detector]
        if extra:
            raise TypeError(
                f"detector {detector!r} got unexpected params {sorted(extra)}; "
                f"accepted: {sorted(_FAST_PARAMS[detector])}"
            )
        if detector == "threshold":
            return _threshold_batch_fast(
                batch, window=params.get("window", 50), c=params.get("c", 3.0)
            )
        if detector == "mad":
            return _mad_batch_fast(batch, c=params.get("c", 3.5))
        return _ewma_batch_fast(
            batch, alpha=params.get("alpha", 0.1), c=params.get("c", 4.0)
        )
    fn = get_detector(detector)
    tokens = batch.column("tokens")
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    nrows = batch.num_rows
    n_anom = np.zeros(nrows, dtype=np.int64)
    pos_sum = np.zeros(nrows, dtype=np.int64)
    pos_sumsq = np.zeros(nrows, dtype=np.int64)
    for i in range(nrows):
        arr = tokens[i].values
        vals = np.asarray(arr.fill_null(0) if arr.null_count else arr, dtype=np.int32) \
            if len(arr) else np.empty(0, dtype=np.int32)
        out = fn(vals, **params)
        p = np.asarray(out["anomaly_positions"], dtype=np.int64)
        n_anom[i] = out["n_anomalies"]
        pos_sum[i] = int(p.sum())
        pos_sumsq[i] = int((p * p).sum())
    return _report_table(batch, detector, n_anom, pos_sum, pos_sumsq)


def shesd_expected_batch(batch: pa.Table, period: int = 24,
                         alpha: float = 0.05) -> pa.Table:
    """A54 — the reference family's ``e_value`` surface: per series part,
    the S-H-ESD anomaly count plus the SUM of the model's expected values
    at the anomaly positions.  The family reports seasonal+trend as each
    anomaly's expected value; plain shesd has no trend term, so expected =
    the seasonal phase median the detector subtracted.  Phase medians of
    integer token values are exact halves, so ``2 * expected`` is an exact
    int64 — reported as ``exp2_sum`` so the SQL oracle compares integers,
    never accumulated floats.  ESD is iterative by definition, so the
    per-row loop matches the registry detectors' granularity; the medians
    inside are vectorized."""
    tokens = batch.column("tokens")
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    nrows = batch.num_rows
    n_anom = np.zeros(nrows, dtype=np.int64)
    pos_sum = np.zeros(nrows, dtype=np.int64)
    exp2_sum = np.zeros(nrows, dtype=np.int64)
    for i in range(nrows):
        arr = tokens[i].values
        vals = np.asarray(arr.fill_null(0) if arr.null_count else arr,
                          dtype=np.int32) if len(arr) else np.empty(
                              0, dtype=np.int32)
        out = _det_shesd(vals, period=period, alpha=alpha)
        p = np.asarray(out["anomaly_positions"], dtype=np.int64)
        n_anom[i] = out["n_anomalies"]
        pos_sum[i] = int(p.sum())
        if p.size:
            x = vals.astype(np.float64)
            pmed = np.zeros(period, dtype=np.float64)
            for ph in range(period):
                sl = x[ph::period]
                if sl.size:
                    pmed[ph] = np.median(sl)
            # each term is an exact integer (2 * k/2); the sum of a few
            # dozen such terms stays exact in float64
            exp2_sum[i] = int((2.0 * pmed[p % period]).sum())
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "detector": pa.array(["shesd_evalue"] * nrows, type=pa.string()),
        "n_anomalies": pa.array(n_anom, type=pa.int64()),
        "pos_sum": pa.array(pos_sum, type=pa.int64()),
        "exp2_sum": pa.array(exp2_sum, type=pa.int64()),
    })


def longest_run_batch(batch: pa.Table) -> pa.Table:
    """A13 — per-series longest run of consecutive positions above the
    series mean (+ the above-mean count): the runs-test-flavored burst
    feature.  The mean is the one pinned division S/n (exact int S), the
    comparison exact, and the run-length machinery fully vectorized over
    the flat buffer: run starts = above-positions whose predecessor is
    out-of-row or not-above, lengths by cumsum gathers, per-row max via
    ``np.maximum.at``."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    c1 = np.concatenate(([0], np.cumsum(v)))
    S = c1[offsets[1:]] - c1[offsets[:-1]]
    n_above = np.zeros(nrows, dtype=np.int64)
    longest = np.zeros(nrows, dtype=np.int64)
    if v.shape[0]:
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        mean = np.zeros(nrows, dtype=np.float64)
        np.divide(S, lens, out=mean, where=lens > 0)
        above = v.astype(np.float64) > mean[row_of]
        np.add.at(n_above, row_of[above], 1)
        is_row_start = np.zeros(v.shape[0], dtype=bool)
        is_row_start[offsets[:-1][lens > 0]] = True
        prev_above = np.concatenate(([False], above[:-1]))
        run_start = above & (is_row_start | ~prev_above)
        starts_idx = np.flatnonzero(run_start)
        if starts_idx.size:
            # run end = last consecutive above position within the row
            nxt = np.concatenate((above[1:], [False]))
            is_row_end = np.zeros(v.shape[0], dtype=bool)
            is_row_end[offsets[1:][lens > 0] - 1] = True
            run_end = above & (is_row_end | ~nxt)
            ends_idx = np.flatnonzero(run_end)
            rl = ends_idx - starts_idx + 1
            np.maximum.at(longest, row_of[starts_idx], rl)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "n_above": pa.array(n_above, type=pa.int64()),
        "longest_run": pa.array(longest, type=pa.int64()),
    })


def grubbs_lambda(n: int, alpha: float = 0.05) -> float:
    """Grubbs-1950 critical value for the single-outlier test:
    ``((n-1)/sqrt(n)) * sqrt(t^2 / (n-2+t^2))`` with
    ``t = t_ppf(1 - alpha/(2n), n-2)`` — from the engine's own t-PPF, so
    oracle and engine share every bit of the constant."""
    from anomalydetection_ray.functions.tppf import t_ppf

    if n < 3:
        return math.inf
    t = t_ppf(1.0 - alpha / (2.0 * n), float(n - 2))
    return ((n - 1) / math.sqrt(float(n))) * math.sqrt(
        t * t / (n - 2 + t * t))


def _det_grubbs(values: np.ndarray, alpha: float = 0.05) -> dict:
    """A22: Grubbs' single-outlier test (Grubbs 1950) — the classical
    k=1 ancestor of the A3 generalized ESD, with the textbook ddof=1
    sample std.  Exact integer statistics in n-scaled units:

        G > lambda  <=>  max|n*x - S|
                         > lambda * sqrt((n*Q - S^2) * (n / (n-1)))

    (both sides multiplied by n; S = sum, Q = sum of squares, all exact
    ints) — so the only floats are the pinned lambda constant, one exact
    int -> double conversion each side, one multiply, one sqrt: a SQL
    oracle replays the comparison verbatim.  Ties on the max deviation
    break to the lowest index."""
    x = values.astype(np.int64)
    n = x.shape[0]
    none = {"n_anomalies": 0,
            "anomaly_positions": np.empty(0, dtype=np.int64)}
    if n < 3:
        return none
    S = int(x.sum())
    Q = int((x.astype(object) * x).sum()) if n * int(
        np.abs(x).max() or 0) ** 2 > 2**62 else int((x * x).sum())
    m2 = n * Q - S * S
    if m2 <= 0:
        return none
    dev = np.abs(n * x.astype(object) - S) if abs(S) > 2**62 // max(n, 1) \
        else np.abs(n * x - S)
    i = int(np.argmax(dev))
    lam = grubbs_lambda(n, alpha)
    rhs = lam * math.sqrt(float(m2) * (float(n) / float(n - 1)))
    if float(int(dev[i])) > rhs:
        return {"n_anomalies": 1,
                "anomaly_positions": np.array([i], dtype=np.int64)}
    return none


register_detector("grubbs", _det_grubbs)


def tukey_batch(batch: pa.Table, k: float = 1.5) -> pa.Table:
    """A23 — per-series Tukey boxplot fences: Q1/Q3 via the DuckDB
    ``quantile_cont`` interpolation ``(1-t)*lo + t*hi``, IQR, and counts
    outside ``[Q1 - k*IQR, Q3 + k*IQR]`` — the nonparametric outlier
    screen older than every control chart (Tukey 1977).

    Fully vectorized across rows: ONE lexsort of the flat buffer keyed
    (row, value) yields every row's order statistics; the outlier counts
    come from two global ``searchsorted`` calls over row-banded sorted
    values (band = row * 2^20 dominates the < 2^20 token ids, so one
    sorted array serves all rows)."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    q1 = np.full(nrows, np.nan)
    q3 = np.full(nrows, np.nan)
    n_low = np.zeros(nrows, dtype=np.int64)
    n_high = np.zeros(nrows, dtype=np.int64)
    if v.shape[0]:
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        order = np.lexsort((v, row_of))
        sv = v[order].astype(np.float64)
        live = lens > 0
        st = offsets[:-1]

        def _qcont(p: float) -> np.ndarray:
            idx = p * (lens - 1).astype(np.float64)
            lo = np.floor(idx).astype(np.int64)
            t = idx - lo
            a_i = st + np.minimum(lo, np.maximum(lens - 1, 0))
            b_i = st + np.minimum(lo + 1, np.maximum(lens - 1, 0))
            out = np.full(nrows, np.nan)
            out[live] = ((1.0 - t[live]) * sv[a_i[live]]
                         + t[live] * sv[b_i[live]])
            return out

        q1 = _qcont(0.25)
        q3 = _qcont(0.75)
        iqr = q3 - q1
        lo_f = q1 - k * iqr
        hi_f = q3 + k * iqr
        BAND = np.float64(1 << 20)          # token ids < 2^20
        lifted = row_of[order] * BAND + sv  # exact: values < 2^53
        rows_idx = np.arange(nrows, dtype=np.int64)
        lo_b = np.searchsorted(lifted, rows_idx * BAND
                               + np.where(live, lo_f, 0.0), side="left")
        hi_b = np.searchsorted(lifted, rows_idx * BAND
                               + np.where(live, hi_f, 0.0), side="right")
        n_low = np.where(live, lo_b - st, 0).astype(np.int64)
        n_high = np.where(live, offsets[1:] - hi_b, 0).astype(np.int64)
    iqr_out = q3 - q1
    nan = np.isnan(q1)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "q1": pa.array(np.where(nan, 0.0, q1), type=pa.float64(), mask=nan),
        "q3": pa.array(np.where(nan, 0.0, q3), type=pa.float64(), mask=nan),
        "iqr": pa.array(np.where(nan, 0.0, iqr_out), type=pa.float64(),
                        mask=nan),
        "n_low_outliers": pa.array(n_low, type=pa.int64()),
        "n_high_outliers": pa.array(n_high, type=pa.int64()),
    })


def forecast_error_batch(batch: pa.Table, period: int = 24) -> pa.Table:
    """A24 — seasonal-naive forecast-baseline errors per series: the
    sum of absolute errors of the naive forecast ``x[t-1]`` and the
    seasonal-naive forecast ``x[t-period]``, and their MASE-style ratio
    (Hyndman & Koehler 2006) — the sanity bar every fancier forecaster
    must beat, and a direct seasonality-strength readout (ratio << 1
    means the seasonal lag explains the series much better than the
    last value).

    All error sums are exact int64 over the flat buffer (two shifted
    subtractions); the two MAEs and their ratio are pinned float ops."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
    pos = np.arange(v.shape[0], dtype=np.int64) - np.repeat(offsets[:-1],
                                                            lens)
    sae1 = np.zeros(nrows, dtype=np.int64)
    saep = np.zeros(nrows, dtype=np.int64)
    if v.shape[0]:
        d1 = np.abs(v[1:] - v[:-1])
        ok1 = pos[1:] >= 1
        np.add.at(sae1, row_of[1:][ok1], d1[ok1])
        if v.shape[0] > period:
            dp = np.abs(v[period:] - v[:-period])
            okp = pos[period:] >= period
            np.add.at(saep, row_of[period:][okp], dp[okp])
    n1 = np.maximum(lens - 1, 0)
    np_ = np.maximum(lens - period, 0)
    mae1 = np.full(nrows, np.nan)
    maep = np.full(nrows, np.nan)
    l1 = n1 > 0
    lp = np_ > 0
    mae1[l1] = sae1[l1].astype(np.float64) / n1[l1].astype(np.float64)
    maep[lp] = saep[lp].astype(np.float64) / np_[lp].astype(np.float64)
    ratio = np.full(nrows, np.nan)
    both = l1 & lp & (mae1 > 0)
    ratio[both] = maep[both] / mae1[both]
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "sae_naive": pa.array(sae1, type=pa.int64()),
        "n_naive": pa.array(n1, type=pa.int64()),
        "sae_seasonal": pa.array(saep, type=pa.int64()),
        "n_seasonal": pa.array(np_, type=pa.int64()),
        "mase_ratio": pa.array(np.where(np.isnan(ratio), 0.0, ratio),
                               type=pa.float64(), mask=np.isnan(ratio)),
    })


def turning_points_batch(batch: pa.Table) -> pa.Table:
    """A25 — per-series turning-point counts (strict local maxima and
    minima): the classical randomness/smoothness screen (a pure-noise
    series has ~2(n-2)/3 turning points; trends and smoothing depress
    the count).  Exact integer comparisons, fully vectorized."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
    pos = np.arange(v.shape[0], dtype=np.int64) - np.repeat(offsets[:-1],
                                                            lens)
    n_max = np.zeros(nrows, dtype=np.int64)
    n_min = np.zeros(nrows, dtype=np.int64)
    if v.shape[0] > 2:
        interior = (pos[1:-1] >= 1) & (pos[1:-1] <= np.repeat(lens, lens)[1:-1] - 2)
        is_max = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]) & interior
        is_min = (v[1:-1] < v[:-2]) & (v[1:-1] < v[2:]) & interior
        np.add.at(n_max, row_of[1:-1][is_max], 1)
        np.add.at(n_min, row_of[1:-1][is_min], 1)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "n_local_max": pa.array(n_max, type=pa.int64()),
        "n_local_min": pa.array(n_min, type=pa.int64()),
        "n_turning_points": pa.array(n_max + n_min, type=pa.int64()),
    })


def acf_table_batch(batch: pa.Table,
                    lags: tuple = (1, 2, 3, 4, 6, 8, 12, 24)) -> pa.Table:
    """A26 — the full ACF table: the A9 lag-L autocorrelation evaluated
    at a ladder of lags per series (the correlogram every periodicity /
    whiteness analysis reads; seasonal strength = the lag-period spike,
    AR signature = the low-lag decay).  One vectorized A9 sweep per lag,
    same exact-bigint per-row combination."""
    return pa.concat_tables([autocorr_batch(batch, lag=int(L))
                             for L in lags])


def perm_entropy_batch(batch: pa.Table) -> pa.Table:
    """A27 — per-series permutation entropy of order 3 (Bandt & Pompe,
    Phys. Rev. Lett. 88:174102, 2002): Shannon entropy of the ordinal
    patterns of consecutive value triples — the standard
    complexity/regularity screen (white noise -> ~1.0 normalized, a
    monotone ramp -> 0.0).  Ties are broken by position (stable argsort:
    the earlier element sorts first on equality), which reduces each
    triple to three boolean comparisons:

        b01 = v[i]   <= v[i+1]
        b02 = v[i]   <= v[i+2]
        b12 = v[i+1] <= v[i+2]

    (b01,b02,b12) -> pattern: 111=012, 110=021, 011=102, 001=120,
    101=201, 000=210 (the remaining two combinations are transitivity-
    impossible).  Pattern counts are exact integers computed fully
    vectorized; the entropy tail is a PINNED six-term fold in fixed
    pattern order — the same libm expression sequence the SQL oracle
    evaluates, so the float values compare bitwise."""
    import math

    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
    pos = np.arange(v.shape[0], dtype=np.int64) - np.repeat(offsets[:-1],
                                                            lens)
    counts = np.zeros((nrows, 8), dtype=np.int64)
    if v.shape[0] > 2:
        # triple starts: flat positions i with pos[i] <= len-3 (same row)
        start = pos[:-2] <= np.repeat(lens, lens)[:-2] - 3
        b01 = (v[:-2] <= v[1:-1])[start]
        b02 = (v[:-2] <= v[2:])[start]
        b12 = (v[1:-1] <= v[2:])[start]
        code = 4 * b01.astype(np.int64) + 2 * b02 + b12
        np.add.at(counts, (row_of[:-2][start], code), 1)
    # map the 6 possible codes to canonical pattern order
    # (012, 021, 102, 120, 201, 210) = codes (7, 6, 3, 1, 4, 0)
    order = [7, 6, 3, 1, 4, 0]
    c = counts[:, order]
    assert int(counts[:, [2, 5]].sum()) == 0  # transitivity-impossible
    m = c.sum(axis=1)
    ent = np.zeros(nrows, dtype=np.float64)
    norm = np.full(nrows, np.nan, dtype=np.float64)
    ln6 = math.log(6.0)
    for r in range(nrows):              # <= batch rows; 6-term fold each
        tot = int(m[r])
        if tot == 0:
            continue
        acc = 0.0
        for j in range(6):              # FIXED pattern order — pinned
            cj = int(c[r, j])
            if cj:
                p = float(cj) / float(tot)
                acc = acc + p * math.log(p)
        ent[r] = -acc
        norm[r] = -acc / ln6
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "m_triples": pa.array(m, type=pa.int64()),
        "c_012": pa.array(c[:, 0], type=pa.int64()),
        "c_021": pa.array(c[:, 1], type=pa.int64()),
        "c_102": pa.array(c[:, 2], type=pa.int64()),
        "c_120": pa.array(c[:, 3], type=pa.int64()),
        "c_201": pa.array(c[:, 4], type=pa.int64()),
        "c_210": pa.array(c[:, 5], type=pa.int64()),
        "perm_entropy": pa.array(ent, type=pa.float64()),
        # from_pandas=True: NaN (series shorter than 3) -> SQL NULL
        "norm_perm_entropy": pa.array(norm, type=pa.float64(),
                                      from_pandas=True),
    })


def sax_batch(batch: pa.Table, n_frames: int = 8) -> pa.Table:
    """A28 — SAX symbolization (Lin, Keogh et al., DMKD 2007): each
    series is reduced to ``n_frames`` PAA frames and each frame mean is
    quantized against the standardized series with the alphabet-4
    Gaussian breakpoints (-0.6745, 0, 0.6745 — the N(0,1) quartiles),
    yielding an 8-char string like 'bcadbcdd' — the classic symbolic
    index for motif/novelty search over massive time-series tiers.

    Frame f covers positions [ceil(f*n/F), ceil((f+1)*n/F)), so
    frame-of(i) = F*i // n — the same closed form the SQL oracle uses.
    Exactness: frame/series sums are exact ints; the standardized
    comparison ``z_f < b`` is evaluated as

        float(Fs*n - S*Fl)  <  b * (float(Fl) * sqrt(float(n*Q - S*S)))

    — all-int left side (arbitrary-precision Python), exactly one sqrt /
    two multiplies on the right, the same pinned expression DuckDB
    evaluates, so the symbols (integer comparisons of identical doubles)
    match bitwise.  A zero-variance series maps every frame to 'd'
    (documented edge: every strict '<' against 0 fails)."""
    import math

    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    cs = np.concatenate(([0], np.cumsum(v, dtype=np.int64)))
    cq = np.concatenate(([0], np.cumsum(v * v, dtype=np.int64)))
    S = cs[offsets[1:]] - cs[offsets[:-1]]
    Q = cq[offsets[1:]] - cq[offsets[:-1]]
    # frame sums/lengths: ceil boundaries, vectorized per frame index
    Fs = np.zeros((nrows, n_frames), dtype=np.int64)
    Fl = np.zeros((nrows, n_frames), dtype=np.int64)
    for f in range(n_frames):
        a = offsets[:-1] + (f * lens + n_frames - 1) // n_frames
        b = offsets[:-1] + ((f + 1) * lens + n_frames - 1) // n_frames
        Fs[:, f] = cs[b] - cs[a]
        Fl[:, f] = b - a
    bps = (-0.6745, 0.0, 0.6745)
    sax = []
    for r in range(nrows):            # 8 frames/row; Python-int exactness
        n = int(lens[r])
        if n == 0:
            sax.append(None)
            continue
        s_, q_ = int(S[r]), int(Q[r])
        nqs2 = n * q_ - s_ * s_
        chars = []
        for f in range(n_frames):
            fl = int(Fl[r, f])
            if fl == 0:               # series shorter than n_frames
                chars.append("_")
                continue
            a_int = int(Fs[r, f]) * n - s_ * fl
            fa = float(a_int)
            rhs = float(fl) * math.sqrt(float(nqs2))
            if fa < bps[0] * rhs:
                chars.append("a")
            elif fa < bps[1] * rhs:
                chars.append("b")
            elif fa < bps[2] * rhs:
                chars.append("c")
            else:
                chars.append("d")
        sax.append("".join(chars))
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "s_sum": pa.array(S, type=pa.int64()),
        "sax": pa.array(sax, type=pa.string()),
    })


def runs_test_batch(batch: pa.Table) -> pa.Table:
    """A31 — Wald–Wolfowitz runs test per series (Wald & Wolfowitz 1940):
    dichotomize against the series median (values equal to the median are
    dropped, the standard convention), count the runs of consecutive
    same-sign values, and z-score the count against its null mean/variance

        mu  = 1 + 2*n1*n2 / N
        var = 2*n1*n2*(2*n1*n2 - N) / (N^2 * (N - 1)),  N = n1 + n2

    — the randomness screen that catches level shifts and clustering that
    A25's turning points miss.  n1/n2/R are exact integers; the median is
    an exact dyadic (DuckDB ``median()`` parity); mu/var/z are pinned
    float expressions of exact ints, replayed verbatim by the oracle.
    Fully vectorized: ONE lexsort serves every row's median, sign changes
    are one shifted comparison over the kept flat buffer."""
    import math

    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    med = np.full(nrows, np.nan)
    n_above = np.zeros(nrows, dtype=np.int64)
    n_below = np.zeros(nrows, dtype=np.int64)
    n_runs = np.zeros(nrows, dtype=np.int64)
    if v.shape[0]:
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        order = np.lexsort((v, row_of))
        sv = v[order].astype(np.float64)
        live = lens > 0
        st = offsets[:-1]
        lo_i = st + np.maximum((lens - 1) // 2, 0)
        hi_i = st + np.minimum(lens // 2, np.maximum(lens - 1, 0))
        med[live] = 0.5 * (sv[lo_i[live]] + sv[hi_i[live]])
        vm = med[row_of]
        sg = np.where(v > vm, 1, np.where(v < vm, -1, 0)).astype(np.int64)
        kept = sg != 0
        np.add.at(n_above, row_of[kept & (sg > 0)], 1)
        np.add.at(n_below, row_of[kept & (sg < 0)], 1)
        kr = row_of[kept]
        ks = sg[kept]
        has = np.zeros(nrows, dtype=bool)
        has[kr] = True
        n_runs[has] = 1
        if kr.shape[0] > 1:
            chg = (kr[1:] == kr[:-1]) & (ks[1:] != ks[:-1])
            np.add.at(n_runs, kr[1:][chg], 1)
    mu_z = np.full(nrows, np.nan)
    z = np.full(nrows, np.nan)
    for r in range(nrows):            # pinned scalar float tail per row
        n1, n2 = int(n_above[r]), int(n_below[r])
        N = n1 + n2
        a = 2 * n1 * n2
        if N < 2 or a == 0 or a == N:
            continue
        mu = 1.0 + float(a) / float(N)
        var = float(a * (a - N)) / float(N * N * (N - 1))
        if var <= 0.0:
            continue
        mu_z[r] = mu
        z[r] = (float(int(n_runs[r])) - mu) / math.sqrt(var)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "n_above": pa.array(n_above, type=pa.int64()),
        "n_below": pa.array(n_below, type=pa.int64()),
        "n_runs": pa.array(n_runs, type=pa.int64()),
        "mu_runs": pa.array(mu_z, type=pa.float64(), from_pandas=True),
        "z_runs": pa.array(z, type=pa.float64(), from_pandas=True),
    })


def amoc_split_batch(batch: pa.Table) -> pa.Table:
    """A32 — at-most-one-changepoint (AMOC) mean-shift split per series:
    the split k (1 <= k < n) maximizing |mean(x[:k]) - mean(x[k:])| — the
    CUSUM-style level-shift locator (Hinkley 1970's AMOC framing) that
    complements detect_cusum's sequential alarm with an exact offline
    argmax.  All candidate statistics are exact integers:

        a_k = P_k*n - S*k      (P_k = prefix sum, S = series sum)
        d_k = k*(n - k)        gap(k) = |a_k| / d_k

    |a_k| <= 5e16 and the cross products |a|*d <= 1.25e28 bound the
    arithmetic: a/d fit int64 vectorized; exact argmax cross-compares are
    Python big-ints over the float-pruned candidate set {k : q_k >=
    qmax*(1-1e-12)} — a superset of every exactly-tied candidate on both
    engine and oracle side, so both exact argmaxes agree (ties -> smallest
    k).  Output floats are pinned int64->double casts and one division,
    replayed verbatim by the DuckDB oracle (HUGEINT cross-compares)."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    split_pos = np.full(nrows, -1, dtype=np.int64)
    gap = np.full(nrows, np.nan)
    mean_l = np.full(nrows, np.nan)
    mean_r = np.full(nrows, np.nan)
    if v.shape[0]:
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        csum = np.cumsum(v)
        row_start = np.repeat(offsets[:-1], lens)
        base = np.concatenate(([0], csum))[row_start]
        prefix = csum - base                       # P_{i+1} inclusive prefix
        n_row = lens[row_of]
        s_row = np.concatenate(([0], csum))[offsets[1:]] - np.concatenate(([0], csum))[offsets[:-1]]
        idx = np.arange(v.shape[0], dtype=np.int64)
        k = idx - row_start + 1                    # candidate split after pos
        is_cand = k < n_row                        # k in 1..n-1
        a = prefix * n_row - s_row[row_of] * k
        d = k * (n_row - k)
        q = np.where(is_cand, np.abs(a).astype(np.float64)
                     / np.maximum(d, 1).astype(np.float64), -np.inf)
        # float prune per row, exact big-int confirm over the tied set
        qmax = np.full(nrows, -np.inf)
        np.maximum.at(qmax, row_of, q)
        near = is_cand & (q >= qmax[row_of] * (1.0 - 1e-12) - 1e-300)
        cand_idx = idx[near]
        for r in range(nrows):
            lo = np.searchsorted(cand_idx, offsets[r])
            hi = np.searchsorted(cand_idx, offsets[r + 1])
            best = -1
            ba = bd = 0
            for ci in cand_idx[lo:hi]:
                ka = abs(int(a[ci]))
                kd = int(d[ci])
                if best < 0 or ka * bd > ba * kd:
                    best, ba, bd = int(k[ci]), ka, kd
            if best >= 0:
                split_pos[r] = best
                pk = int(prefix[offsets[r] + best - 1])
                s = int(s_row[r])
                n = int(lens[r])
                gap[r] = float(ba) / float(bd)
                mean_l[r] = float(pk) / float(best)
                mean_r[r] = float(s - pk) / float(n - best)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "split_pos": pa.array(np.where(split_pos >= 0, split_pos, 0),
                              type=pa.int64(),
                              mask=split_pos < 0),
        "gap": pa.array(gap, type=pa.float64(), from_pandas=True),
        "mean_l": pa.array(mean_l, type=pa.float64(), from_pandas=True),
        "mean_r": pa.array(mean_r, type=pa.float64(), from_pandas=True),
    })


def ljung_box_batch(batch: pa.Table, lags: tuple = (1, 2, 3)) -> pa.Table:
    """A46 — Ljung-Box portmanteau whiteness test (Ljung & Box 1978)
    over the first ``lags`` autocorrelations of each series:
    LB = n(n+2) * SUM_k r_k^2 / (n-k) — the one-number "is there ANY
    serial structure?" gate run before trusting iid-based thresholds
    (A26 shows the correlogram; this is its scalar summary, chi^2_k
    under whiteness).

    Exactness: each r_k is A9's exact-bigint ratio (one pinned
    division); the LB accumulation is a FIXED-ORDER fold
    acc += r_k*r_k / float(n-k), then one multiply by float(n*(n+2)) —
    the same expression sequence the SQL oracle evaluates.  Series too
    short for the deepest lag (or zero variance) emit NULL."""
    tabs = [autocorr_batch(batch, lag=int(k)) for k in lags]
    n = np.asarray(tabs[0].column("n"), dtype=np.int64)
    nrows = n.shape[0]
    rks = [t.column("acf").to_pandas().to_numpy(dtype=np.float64,
                                                na_value=np.nan)
           for t in tabs]
    lb = np.zeros(nrows, dtype=np.float64)
    mask = np.zeros(nrows, dtype=bool)
    for r in range(nrows):
        ni = int(n[r])
        if any(np.isnan(rk[r]) for rk in rks):
            mask[r] = True
            continue
        acc = 0.0
        for j, k in enumerate(lags):        # fixed lag order — pinned
            acc = acc + (float(rks[j][r]) * float(rks[j][r])
                         / float(ni - int(k)))
        lb[r] = float(ni * (ni + 2)) * acc
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(n, type=pa.int64()),
        "lb3": pa.array(lb, type=pa.float64(), mask=mask),
    })


def wilcoxon_halves_batch(batch: pa.Table) -> pa.Table:
    """A57 — Wilcoxon signed-rank test between the two halves of each
    series (Wilcoxon 1945): pair x_i with x_{i+n//2}, drop zero
    differences, midrank |d|, and z-score the positive-rank sum — the
    nonparametric level-shift test that complements A32's AMOC point
    estimate and A38's (unpaired) Mann-Whitney with a PAIRED design
    (phase-aligned halves cancel shared seasonality).

    Exactness: midranks of integer |d| are exact halves, so
    ``w2_plus = 2*W+`` and the tie term ``T = sum(t^3 - t)`` are exact
    int64; with ``var48 = 2m(m+1)(2m+1) - T`` the z-score is the pinned

        z = (2*w2_plus - m(m+1)) / sqrt(var48 / 3)

    (numerator/denominator both scaled 4x) — one int->double cast each,
    one division, one sqrt, replayed verbatim by the oracle.  Fully
    vectorized: ONE lexsort serves every row's ranking; tie runs and
    their first/last ranks come from shifted comparisons."""
    import math

    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    h = lens // 2
    m = np.zeros(nrows, dtype=np.int64)
    w2 = np.zeros(nrows, dtype=np.int64)
    tsum = np.zeros(nrows, dtype=np.int64)
    npairs = int(h.sum())
    if npairs:
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), h)
        pstart = np.concatenate(([0], np.cumsum(h)))
        i_in = np.arange(npairs, dtype=np.int64) - pstart[row_of]
        base = offsets[:-1][row_of]
        d = v[base + i_in + h[row_of]] - v[base + i_in]
        keep = d != 0
        r = row_of[keep]
        dk = d[keep]
        a = np.abs(dk)
        np.add.at(m, r, 1)
        if r.shape[0]:
            order = np.lexsort((a, r))
            rs = r[order]
            av = a[order]
            row_first = np.searchsorted(rs, np.arange(nrows))
            rn = np.arange(rs.shape[0], dtype=np.int64) - row_first[rs] + 1
            newrun = np.ones(rs.shape[0], dtype=bool)
            newrun[1:] = (rs[1:] != rs[:-1]) | (av[1:] != av[:-1])
            run_id = np.cumsum(newrun) - 1
            first_rn = rn[newrun]
            last_idx = np.flatnonzero(
                np.concatenate((newrun[1:], [True])))
            last_rn = rn[last_idx]
            mr2 = (first_rn + last_rn)[run_id]
            pos = dk[order] > 0
            np.add.at(w2, rs[pos], mr2[pos])
            tl = np.bincount(run_id).astype(np.int64)
            np.add.at(tsum, rs[newrun], tl * tl * tl - tl)
    z = np.full(nrows, np.nan)
    for i in range(nrows):            # pinned scalar float tail per row
        mi = int(m[i])
        if mi < 1:
            continue
        var48 = 2 * mi * (mi + 1) * (2 * mi + 1) - int(tsum[i])
        if var48 <= 0:
            continue
        z[i] = (float(2 * int(w2[i]) - mi * (mi + 1))
                / math.sqrt(float(var48) / 3.0))
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "m": pa.array(m, type=pa.int64()),
        "w2_plus": pa.array(w2, type=pa.int64()),
        "z_wilcoxon": pa.array(z, type=pa.float64(), from_pandas=True),
    })


def friedman_seasonality_batch(batch: pa.Table,
                               period: int = 24) -> pa.Table:
    """A58 — Friedman rank test for a seasonal (phase) effect
    (Friedman 1937): each complete cycle of ``period`` points is a
    block, phases are the treatments; rank within each block (midranks
    for ties) and score the phase rank-sums.  This certifies the
    assumption the whole S-H-ESD family rests on — "is there a seasonal
    effect at all?" — nonparametrically, before phase medians are
    trusted.  The tail cycle (incomplete block) is dropped, the
    balanced-design convention.

    Exactness: midranks are exact halves, so the per-phase doubled
    rank-sum ``r2_j = 2*R_j`` and ``s4 = sum_j r2_j^2 = 4*sum R_j^2``
    are exact int64; the statistic is the pinned

        chi2 = 3*s4 / (b*p*(p+1)) - 3*b*(p+1)

    (the classical 12/(bp(p+1))*sum R^2 - 3b(p+1) with both terms
    4x-scaled), replayed verbatim by the oracle.  No tie correction —
    the documented pinned variant (midranks already damp ties).
    Fully vectorized: ONE lexsort ranks every block in the batch."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    p = period
    b = lens // p
    used = b * p
    s4 = np.zeros(nrows, dtype=np.int64)
    total = int(used.sum())
    if total:
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), used)
        ustart = np.concatenate(([0], np.cumsum(used)))
        j = np.arange(total, dtype=np.int64) - ustart[row_of]
        x = v[offsets[:-1][row_of] + j]
        bstart = np.concatenate(([0], np.cumsum(b)))
        gblk = bstart[row_of] + j // p
        phase = j % p
        order = np.lexsort((x, gblk))
        gs = gblk[order]
        xs = x[order]
        blk_first = np.searchsorted(gs, np.arange(int(b.sum()),
                                                  dtype=np.int64))
        rn = np.arange(total, dtype=np.int64) - blk_first[gs] + 1
        newrun = np.ones(total, dtype=bool)
        newrun[1:] = (gs[1:] != gs[:-1]) | (xs[1:] != xs[:-1])
        run_id = np.cumsum(newrun) - 1
        first_rn = rn[newrun]
        last_rn = rn[np.flatnonzero(np.concatenate((newrun[1:],
                                                    [True])))]
        mr2 = (first_rn + last_rn)[run_id]
        key = row_of[order] * p + phase[order]
        r2 = np.bincount(key, weights=mr2.astype(np.float64),
                         minlength=nrows * p).astype(np.int64)
        s4 = (r2.reshape(nrows, p) ** 2).sum(axis=1)
    chi2 = np.full(nrows, np.nan)
    for i in range(nrows):            # pinned scalar float tail per row
        bi = int(b[i])
        if bi < 1:
            continue
        chi2[i] = (3.0 * float(int(s4[i]))
                   / float(bi * p * (p + 1))
                   - 3.0 * float(bi * (p + 1)))
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "n_blocks": pa.array(b, type=pa.int64()),
        "s4": pa.array(s4, type=pa.int64()),
        "chi2_friedman": pa.array(chi2, type=pa.float64(),
                                  from_pandas=True),
    })


PERIOD_LAGS = (2, 3, 4, 6, 8, 12, 24, 48)


def period_detect_batch(batch: pa.Table,
                        lags: tuple = PERIOD_LAGS) -> pa.Table:
    """A59 — seasonal period auto-detection: the lag with the maximal
    ACF over a candidate grid (ties -> the smallest lag) — the engine's
    stand-in for the reference family's frequency inference (the family
    derives `period` from the data's timestamp granularity; integer
    positions have none, so the dominant-ACF lag IS the inferable
    period).  Feed the result into detect_shesd(period=...).

    Exactness: all candidate ACFs share one positive denominator
    ``den = n^2 Q - n S^2``, so argmax over lags reduces to comparing
    the exact-int numerators ``num_k = n^2 Sxy_k - n S (Sh_k + St_k)
    + (n-k) S^2`` (A9's x n^2 scaling) — the winner is chosen with NO
    float arithmetic at all; ``acf_best`` is the single pinned division
    of the winning numerator.  Constant series (den = 0) and series
    with no valid lag emit NULLs.  Vectorized per lag via A9's cumsum
    machinery; the argmax is a per-row exact-int fold."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    nrows = offsets.shape[0] - 1
    lens = np.diff(offsets)
    starts = offsets[:-1]
    c1 = np.concatenate(([0], np.cumsum(v)))
    c2 = np.concatenate(([0], np.cumsum(v * v)))
    S = c1[offsets[1:]] - c1[starts]
    Q = c2[offsets[1:]] - c2[starts]
    per_lag = []
    for lag in lags:
        if v.shape[0] > lag:
            prod = v[:-lag] * v[lag:]
        else:
            prod = np.empty(0, dtype=np.int64)
        cp = np.concatenate(([0], np.cumsum(prod)))
        hi = np.minimum(np.maximum(offsets[1:] - lag, starts),
                        cp.shape[0] - 1)
        lo = np.minimum(starts, cp.shape[0] - 1)
        sxy = cp[hi] - cp[lo]
        sh = c1[np.maximum(offsets[1:] - lag, starts)] - c1[starts]
        st = c1[offsets[1:]] - c1[np.minimum(starts + lag,
                                             offsets[1:])]
        per_lag.append((lag, sxy, sh, st))
    best_lag = np.zeros(nrows, dtype=np.int64)
    best_num = np.zeros(nrows, dtype=np.int64)
    acf_best = np.zeros(nrows, dtype=np.float64)
    null = np.zeros(nrows, dtype=bool)
    for r in range(nrows):  # per ROW, exact bigint arithmetic
        n = int(lens[r])
        den = n * n * int(Q[r]) - n * int(S[r]) * int(S[r])
        if den == 0:
            null[r] = True
            continue
        win = None
        for lag, sxy, sh, st in per_lag:
            if n <= lag:
                continue
            num = (n * n * int(sxy[r])
                   - n * int(S[r]) * (int(sh[r]) + int(st[r]))
                   + (n - lag) * int(S[r]) * int(S[r]))
            if win is None or num > win[1]:
                win = (lag, num)
        if win is None:
            null[r] = True
            continue
        best_lag[r] = win[0]
        best_num[r] = win[1]
        acf_best[r] = float(win[1]) / float(den)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "best_lag": pa.array(best_lag, type=pa.int64(), mask=null),
        "best_num": pa.array(best_num, type=pa.int64(), mask=null),
        "acf_best": pa.array(acf_best, type=pa.float64(), mask=null),
    })


def _split_double(v: int) -> float:
    """Exact-int -> double with a PINNED rounding shape shared with the
    SQL oracle: |v| split as hi*2^32 + lo (each half an exact double),
    combined with two IEEE ops — avoids DuckDB's double-rounding
    HUGEINT->DOUBLE cast for magnitudes past 2^53."""
    u = v if v >= 0 else -v
    d = float(u >> 32) * 4294967296.0 + float(u & 0xFFFFFFFF)
    return d if v >= 0 else -d


def remainder_acf_batch(batch: pa.Table, period: int = 24,
                        lag: int = 24) -> pa.Table:
    """A61 — decomposition-adequacy diagnostic: the lag-``period`` ACF
    of the REMAINDER after A52's robust decomposition (phase medians +
    per-cycle trend medians).  The family's "check the STL remainder"
    step: |acf| near 0 certifies the seasonal+trend model absorbed the
    structure; a large positive remainder ACF at the seasonal lag means
    the period (or the model) is wrong and S-H-ESD's residuals are not
    exchangeable.

    Exactness: the remainder is an exact quarter-integer (int - half -
    quarter), so ``r4 = 4*resid`` is an exact int64 series and the A9
    ACF numerator/denominator are exact arbitrary-precision ints (the
    oracle replays them in HUGEINT — the x4 scaling pushes worst-case
    n^2*Sxy past BIGINT); ``acf_resid`` is the single pinned division.
    Series with n <= lag or zero remainder variance emit NULL."""
    tokens = batch.column("tokens")
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    nrows = batch.num_rows
    lens = np.zeros(nrows, dtype=np.int64)
    acf = np.full(nrows, np.nan)
    for r in range(nrows):
        arr = tokens[r].values
        if arr.null_count:
            arr = arr.fill_null(0)
        v = np.asarray(arr, dtype=np.int64) if len(arr) else \
            np.empty(0, dtype=np.int64)
        n = v.shape[0]
        lens[r] = n
        if n <= lag:
            continue
        x = v.astype(np.float64)
        pos = np.arange(n, dtype=np.int64)
        pmed = np.zeros(period, dtype=np.float64)
        for p in range(period):
            sl = x[p::period]
            if sl.size:
                pmed[p] = np.median(sl)
        deseason = x - pmed[pos % period]
        cyc = pos // period
        ncyc = int(cyc[-1]) + 1
        tmed = np.zeros(ncyc, dtype=np.float64)
        for c in range(ncyc):
            tmed[c] = np.median(deseason[c * period:(c + 1) * period])
        resid = deseason - tmed[cyc]
        r4 = (4.0 * resid).astype(np.int64)   # exact: quarters x 4
        s = int(r4.sum())
        q = int((r4 * r4).sum())
        den = n * n * q - n * s * s
        if den == 0:
            continue
        sxy = int((r4[:-lag] * r4[lag:]).sum())
        sh = int(r4[:n - lag].sum())
        st = int(r4[lag:].sum())
        num = n * n * sxy - n * s * (sh + st) + (n - lag) * s * s
        # pinned int->double via 32-bit split: the x4 scaling pushes
        # |num|/den past 2^53 where DuckDB's HUGEINT cast double-rounds;
        # hi*2^32 + lo (both halves exact doubles) is bit-identical on
        # both sides
        acf[r] = _split_double(num) / _split_double(den)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "acf_resid": pa.array(acf, type=pa.float64(),
                              from_pandas=True),
    })


def _amoc_argmax_seg(seg: np.ndarray):
    """Exact AMOC argmax over one segment (A32's discipline in helper
    form): k in 1..m-1 maximizing |P_k*m - S*k| / (k*(m-k)), ties ->
    smallest k; float prune + exact big-int cross-compare confirm.
    Returns the in-segment k, or None for m < 2."""
    m = int(seg.shape[0])
    if m < 2:
        return None
    s = int(seg.sum())
    p = np.cumsum(seg[:-1])
    k = np.arange(1, m, dtype=np.int64)
    a = np.abs(p * m - s * k)
    d = k * (m - k)
    q = a.astype(np.float64) / d.astype(np.float64)
    qmax = float(q.max())
    near = np.flatnonzero(q >= qmax * (1.0 - 1e-12) - 1e-300)
    best = None
    ba = bd = 0
    for j in near:
        ka, kd = int(a[j]), int(d[j])
        if best is None or ka * bd > ba * kd:
            best, ba, bd = int(k[j]), ka, kd
    return best


def binseg_batch(batch: pa.Table) -> pa.Table:
    """A62 — depth-2 binary segmentation (Scott & Knott 1974 lineage;
    the family's breakout-detection kin): A32's exact AMOC split k1,
    then AMOC again inside each half — up to three mean-shift
    changepoints located offline, where A32 stops at one.  Positions
    are series-global; a half too short for a split (< 2 points)
    emits NULL.

    Exactness: identical to A32 — every candidate is the exact integer
    fraction |P_k*m - S*k| / (k*(m-k)); argmaxes are float-pruned then
    confirmed with big-int cross-compares (ties -> smallest k), so the
    oracle's HUGEINT NOT-EXISTS replay agrees bit-for-bit.  No floats
    in the output at all."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    out = {name: np.zeros(nrows, dtype=np.int64)
           for name in ("k1", "k_left", "k_right")}
    mask = {name: np.ones(nrows, dtype=bool)
            for name in ("k1", "k_left", "k_right")}
    for r in range(nrows):
        seg = v[offsets[r]:offsets[r + 1]]
        k1 = _amoc_argmax_seg(seg)
        if k1 is None:
            continue
        out["k1"][r] = k1
        mask["k1"][r] = False
        kl = _amoc_argmax_seg(seg[:k1])
        if kl is not None:
            out["k_left"][r] = kl
            mask["k_left"][r] = False
        kr = _amoc_argmax_seg(seg[k1:])
        if kr is not None:
            out["k_right"][r] = k1 + kr
            mask["k_right"][r] = False
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "k1": pa.array(out["k1"], type=pa.int64(), mask=mask["k1"]),
        "k_left": pa.array(out["k_left"], type=pa.int64(),
                           mask=mask["k_left"]),
        "k_right": pa.array(out["k_right"], type=pa.int64(),
                            mask=mask["k_right"]),
    })


def diff_sign_batch(batch: pa.Table) -> pa.Table:
    """A64 — difference-sign randomness test per series (Brockwell &
    Davis §1.6 family): among the m = n-1 consecutive pairs, count the
    STRICT ascents n_asc (v_{i+1} > v_i; ties count as non-ascents, the
    convention the SQL oracle replays).  Under iid-ness E[n_asc] = m/2
    and Var[n_asc] = (n+1)/12, so z = (2*n_asc - m) / (2*sqrt((n+1)/12))
    — trends inflate n_asc long before A25's turning-point count reacts.
    Counts are exact vectorized ints; z is the pinned two-float-op tail.
    Series with n < 2 emit NULL z."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    n_asc = np.zeros(nrows, dtype=np.int64)
    if v.shape[0] > 1:
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        asc = (v[1:] > v[:-1]) & (row_of[1:] == row_of[:-1])
        np.add.at(n_asc, row_of[1:][asc], 1)
    m = lens - 1
    z = np.empty(nrows, dtype=np.float64)
    ok = lens >= 2
    for i in np.flatnonzero(ok):
        z[i] = (float(2 * int(n_asc[i]) - int(m[i]))
                / (2.0 * math.sqrt(float(int(lens[i]) + 1) / 12.0)))
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "n_asc": pa.array(n_asc, type=pa.int64()),
        "z_diff_sign": pa.array(z, type=pa.float64(), mask=~ok),
    })


def hjorth_batch(batch: pa.Table) -> pa.Table:
    """A65 — Hjorth parameters per series (Hjorth 1970, the EEG-era
    time-domain triple still standard in signal screens): activity =
    population variance, mobility = sqrt(var(dx)/var(x)), complexity =
    mobility(dx)/mobility(x) — a three-number spectral summary (mean
    frequency + bandwidth proxies) with no FFT.

    Exactness: with m_j = n_j*Q_j - S_j^2 the n-scaled variance
    numerators of the series, its first and second differences (exact
    Python/HUGEINT ints), the pinned float chains are
        activity   = sd(m0) / (n0 * n0)
        mobility   = sqrt(sd(m1) / sd(m0)) * (n0 / n1)
        complexity = sqrt(sd(m2) / sd(m1)) * (n1 / n2) / mobility
    (sd = the 32-bit-split cast; each n as double).  The ratio form
    keeps magnitudes at the m_j themselves — no m*n^2 products.  NULL
    mobility when n < 2 or m0 = 0; NULL complexity when n < 3, m1 = 0
    or mobility = 0."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    act = np.zeros(nrows, dtype=np.float64)
    mob = np.zeros(nrows, dtype=np.float64)
    cpx = np.zeros(nrows, dtype=np.float64)
    act_ok = np.zeros(nrows, dtype=bool)
    mob_ok = np.zeros(nrows, dtype=bool)
    cpx_ok = np.zeros(nrows, dtype=bool)

    def mvar(x: np.ndarray) -> int:
        n = int(x.shape[0])
        s = int(x.sum())
        q = sum(int(t) * int(t) for t in x.tolist())
        return n * q - s * s

    for i in range(nrows):
        x = v[offsets[i]:offsets[i + 1]]
        n0 = int(x.shape[0])
        if n0 == 0:
            continue
        m0 = mvar(x)
        act[i] = _split_double(m0) / (float(n0) * float(n0))
        act_ok[i] = True
        if n0 < 2 or m0 == 0:
            continue
        d1 = np.diff(x)
        n1 = n0 - 1
        m1 = mvar(d1)
        mob[i] = (math.sqrt(_split_double(m1) / _split_double(m0))
                  * (float(n0) / float(n1)))
        mob_ok[i] = True
        if n0 < 3 or m1 == 0 or mob[i] == 0.0:
            continue
        d2 = np.diff(d1)
        n2 = n0 - 2
        m2 = mvar(d2)
        cpx[i] = (math.sqrt(_split_double(m2) / _split_double(m1))
                  * (float(n1) / float(n2))) / mob[i]
        cpx_ok[i] = True
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "activity": pa.array(act, type=pa.float64(), mask=~act_ok),
        "mobility": pa.array(mob, type=pa.float64(), mask=~mob_ok),
        "complexity": pa.array(cpx, type=pa.float64(), mask=~cpx_ok),
    })


def records_batch(batch: pa.Table) -> pa.Table:
    """A66 — record-count randomness test per series: the number of
    strict upper records (x_i beats every earlier value, i >= 2) and
    lower records, against the iid expectation sum_{i=2..n} 1/i
    (= H_n - 1; Foster-Stuart's record machinery) — trends mint upper
    records far beyond the harmonic rate, making this the cheapest
    trend screen after A64's difference signs.

    Counts are exact ints (prefix max/min compares, vectorized per
    series); ``expected_records`` folds 1/i left in ascending-i order
    from 0.0 — the oracle replays the fold via list_transform +
    list_reduce.  ``np.add.accumulate`` is that same sequential fold, so
    one table of its prefixes, indexed by series length, serves every
    row."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    n_high = np.zeros(nrows, dtype=np.int64)
    n_low = np.zeros(nrows, dtype=np.int64)
    for r in range(nrows):
        x = v[offsets[r]:offsets[r + 1]]
        if x.shape[0] >= 2:
            pmax = np.maximum.accumulate(x)[:-1]
            pmin = np.minimum.accumulate(x)[:-1]
            n_high[r] = int((x[1:] > pmax).sum())
            n_low[r] = int((x[1:] < pmin).sum())
    maxlen = int(lens.max(initial=0))
    h = np.concatenate(([0.0, 0.0], np.add.accumulate(
        1.0 / np.arange(2, maxlen + 1, dtype=np.float64))))
    exp = h[lens]
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "n_high_records": pa.array(n_high, type=pa.int64()),
        "n_low_records": pa.array(n_low, type=pa.int64()),
        "expected_records": pa.array(exp, type=pa.float64()),
    })


def cusum_squares_batch(batch: pa.Table) -> pa.Table:
    """A67 — CUSUM-of-squares variance-changepoint screen per series
    (Brown-Durbin-Evans): D_k = Q_k/Q - k/n over the prefix sums of
    x^2; the max |D_k| locates a variance break the mean-tracking A7 /
    A32 family is blind to (centered noise with a burst of volatility).

    Exactness: num_k = n*Q_k - k*Q is an exact arbitrary-precision int
    (Python here, HUGEINT in the oracle); the argmax over k = 1..n-1
    takes the largest |num_k| with the SMALLEST k on ties, and the
    statistic |num|/(n*Q) is ONE division through the 32-bit-split
    casts.  n < 2 or Q = 0 emits NULL."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    stat = np.zeros(nrows, dtype=np.float64)
    at_k = np.zeros(nrows, dtype=np.int64)
    ok = np.zeros(nrows, dtype=bool)
    for r in range(nrows):
        x = v[offsets[r]:offsets[r + 1]]
        n = int(x.shape[0])
        if n < 2:
            continue
        xs = [int(t) * int(t) for t in x.tolist()]
        Q = sum(xs)
        if Q == 0:
            continue
        best = 0
        best_k = 0
        qk = 0
        for k in range(1, n):
            qk += xs[k - 1]
            num = n * qk - k * Q
            a = num if num >= 0 else -num
            if a > best:
                best = a
                best_k = k
        stat[r] = _split_double(best) / _split_double(n * Q)
        at_k[r] = best_k
        ok[r] = True
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "cusum_sq": pa.array(stat, type=pa.float64(), mask=~ok),
        "at_k": pa.array(at_k, type=pa.int64(), mask=~ok),
    })


def slope_break_batch(batch: pa.Table) -> pa.Table:
    """A72 — at-most-one SLOPE-break per series: a change in trend
    slope at position k is exactly a change in MEAN of the first-
    difference series at diff-index k, so the detector is A32's AMOC
    argmax run on the differences — the third changepoint type next to
    A32/A62 (level) and A67 (variance), sharing their bit-exact
    big-int argmax discipline for free.  ``slope_l/slope_r`` are the
    segment mean slopes (pinned divisions); series with n < 3 (fewer
    than 2 diffs) emit NULL.

    Construction is zero-copy-ish: one vectorized diff over the flat
    buffer with row-boundary drops, offsets shift by the row index
    (every validated row has n >= 1)."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    N = v.shape[0]
    nrows = lens.shape[0]
    if N > 1:
        d = v[1:] - v[:-1]
        keep = np.ones(N - 1, dtype=bool)
        inner = offsets[1:-1]
        inner = inner[(inner >= 1) & (inner <= N - 1)]
        keep[inner - 1] = False
        dflat = d[keep].astype(np.int32)
    else:
        dflat = np.empty(0, dtype=np.int32)
    new_off = (offsets - np.arange(nrows + 1, dtype=np.int64)
               ).clip(min=0).astype(np.int32)
    diffs = pa.ListArray.from_arrays(pa.array(new_off,
                                              type=pa.int32()),
                                     pa.array(dflat, type=pa.int32()))
    db = pa.table({"doc_id": batch.column("doc_id"),
                   "part_id": batch.column("part_id"),
                   "tokens": diffs})
    out = amoc_split_batch(db)
    return pa.table({
        "doc_id": out.column("doc_id"),
        "part_id": out.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "split_pos": out.column("split_pos"),
        "gap": out.column("gap"),
        "slope_l": out.column("mean_l"),
        "slope_r": out.column("mean_r"),
    })


def mean_side_batch(batch: pa.Table) -> pa.Table:
    """A73 — mean-side statistics per series (the tsfresh
    ``count_above_mean`` / ``count_below_mean`` / ``number_crossing_m``
    trio, Christ et al. 2018): with S = sum(v) and n the length, an
    element is ABOVE iff v*n > S and BELOW iff v*n < S (exact int64
    compares — v <= 50256 and n <= 1e6 keep v*n under 2^63; elements
    equal to the mean are neither), and a CROSSING is an adjacent pair
    whose ABOVE flags differ.  Mean-reverting noise crosses ~n/2 times;
    trends and level shifts crash the crossing count, making this the
    cheapest stationarity screen in the registry.  All outputs exact
    ints — no float tail at all."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    n_above = np.zeros(nrows, dtype=np.int64)
    n_below = np.zeros(nrows, dtype=np.int64)
    n_cross = np.zeros(nrows, dtype=np.int64)
    if v.shape[0]:
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        s_row = np.zeros(nrows, dtype=np.int64)
        np.add.at(s_row, row_of, v)
        lhs = v * lens[row_of]
        rhs = s_row[row_of]
        above = lhs > rhs
        np.add.at(n_above, row_of[above], 1)
        below = lhs < rhs
        np.add.at(n_below, row_of[below], 1)
        if v.shape[0] > 1:
            cross = (above[1:] != above[:-1]) & (row_of[1:] == row_of[:-1])
            np.add.at(n_cross, row_of[1:][cross], 1)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "n_above": pa.array(n_above, type=pa.int64()),
        "n_below": pa.array(n_below, type=pa.int64()),
        "n_cross": pa.array(n_cross, type=pa.int64()),
    })


def energy_chunks_batch(batch: pa.Table, k: int = 4) -> pa.Table:
    """A74 — energy distribution over k equal chunks per series (the
    tsfresh ``energy_ratio_by_chunks`` statistic): element at within-row
    position i belongs to chunk (i*k)//n, and each chunk's energy is its
    sum of squares.  A stationary series spreads energy ~uniformly; a
    ramp or late burst concentrates it in the last chunks.  Energies are
    exact int64 (v^2 <= 50256^2 ~ 2.5e9, times <= 1e6 elements ~ 2.5e15
    per series); ``peak_chunk`` is the argmax with smallest-index
    tie-break — no float tail."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    e = np.zeros((nrows, k), dtype=np.int64)
    if v.shape[0]:
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        i_in = np.arange(v.shape[0], dtype=np.int64) - offsets[:-1][row_of]
        chunk = (i_in * k) // lens[row_of]
        np.add.at(e, (row_of, chunk), v * v)
    total = e.sum(axis=1)
    peak = e.argmax(axis=1).astype(np.int64)  # ties -> smallest index
    cols = {
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
    }
    for c in range(k):
        cols[f"e{c}"] = pa.array(e[:, c], type=pa.int64())
    cols["e_total"] = pa.array(total, type=pa.int64())
    cols["peak_chunk"] = pa.array(peak, type=pa.int64())
    return pa.table(cols)


def extremum_location_batch(batch: pa.Table) -> pa.Table:
    """A76 — extremum locations per series (the tsfresh
    ``first/last_location_of_maximum/minimum`` quartet): the within-row
    positions (0-based) of the first and last occurrence of the series
    max and min, plus the extrema themselves.  An anomaly detector's
    cheapest "WHERE is the spike" companion to A23/A10's "is there
    one".  Everything exact ints, fully vectorized (masked min/max
    scatter over the flat buffer, no per-row Python)."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    big = np.int64(1) << 62
    vmax = np.full(nrows, -big, dtype=np.int64)
    vmin = np.full(nrows, big, dtype=np.int64)
    fmax = np.full(nrows, big, dtype=np.int64)
    lmax = np.full(nrows, -1, dtype=np.int64)
    fmin = np.full(nrows, big, dtype=np.int64)
    lmin = np.full(nrows, -1, dtype=np.int64)
    if v.shape[0]:
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        i_in = np.arange(v.shape[0], dtype=np.int64) - offsets[:-1][row_of]
        np.maximum.at(vmax, row_of, v)
        np.minimum.at(vmin, row_of, v)
        at_max = v == vmax[row_of]
        np.minimum.at(fmax, row_of[at_max], i_in[at_max])
        np.maximum.at(lmax, row_of[at_max], i_in[at_max])
        at_min = v == vmin[row_of]
        np.minimum.at(fmin, row_of[at_min], i_in[at_min])
        np.maximum.at(lmin, row_of[at_min], i_in[at_min])
    ok = lens > 0
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "v_max": pa.array(vmax, type=pa.int64(), mask=~ok),
        "v_min": pa.array(vmin, type=pa.int64(), mask=~ok),
        "first_max_pos": pa.array(fmax, type=pa.int64(), mask=~ok),
        "last_max_pos": pa.array(lmax, type=pa.int64(), mask=~ok),
        "first_min_pos": pa.array(fmin, type=pa.int64(), mask=~ok),
        "last_min_pos": pa.array(lmin, type=pa.int64(), mask=~ok),
    })


def reoccurring_batch(batch: pa.Table) -> pa.Table:
    """A79 — reoccurring-value statistics per series (the tsfresh
    ``percentage/sum_of_reoccurring_datapoints/values`` family): over
    the per-series value multiset, count the distinct values, the
    distinct values with multiplicity >= 2, the data points whose value
    reoccurs, and the two sums (each reoccurring value once; every
    reoccurring data point).  A near-constant or heavily quantized
    series is almost all reoccurring mass; a high-entropy one almost
    none — the registry's duplicate-structure screen at the value level
    (D-family looks across docs, this looks within).  Exact ints; the
    per-row np.unique sort is O(n log n) on the row only."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    n_distinct = np.zeros(nrows, dtype=np.int64)
    n_reocc_vals = np.zeros(nrows, dtype=np.int64)
    n_reocc_pts = np.zeros(nrows, dtype=np.int64)
    sum_reocc_vals = np.zeros(nrows, dtype=np.int64)
    sum_reocc_pts = np.zeros(nrows, dtype=np.int64)
    for i in range(nrows):
        x = v[offsets[i]:offsets[i + 1]]
        if not x.shape[0]:
            continue
        uq, cnt = np.unique(x, return_counts=True)
        re = cnt >= 2
        n_distinct[i] = uq.shape[0]
        n_reocc_vals[i] = int(re.sum())
        n_reocc_pts[i] = int(cnt[re].sum())
        sum_reocc_vals[i] = int(uq[re].sum())
        sum_reocc_pts[i] = int((uq[re] * cnt[re]).sum())
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "n_distinct": pa.array(n_distinct, type=pa.int64()),
        "n_reocc_vals": pa.array(n_reocc_vals, type=pa.int64()),
        "n_reocc_pts": pa.array(n_reocc_pts, type=pa.int64()),
        "sum_reocc_vals": pa.array(sum_reocc_vals, type=pa.int64()),
        "sum_reocc_pts": pa.array(sum_reocc_pts, type=pa.int64()),
    })


def index_mass_quantile_batch(batch: pa.Table) -> pa.Table:
    """A82 — index-mass quantiles per series (the tsfresh
    ``index_mass_quantile`` statistic at q = 0.25/0.5/0.75): the
    smallest 0-based position p whose INCLUSIVE prefix sum carries at
    least a q-fraction of the series total, i.e. min p with
    4*prefix(p) >= q4*total (q4 = 1, 2, 3) — token values are
    non-negative so the prefix is monotone and the compare is an exact
    int64 one (4*prefix <= 4*50256*1e6 ~ 2e11).  Early mass (bursty
    head) pulls all three indices toward 0; a ramp pushes them right.
    An all-zero series trivially satisfies every quantile at p = 0 —
    the convention the SQL oracle replays.  NULL for empty series."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    out = np.zeros((nrows, 3), dtype=np.int64)
    totals = np.zeros(nrows, dtype=np.int64)
    for i in range(nrows):
        x = v[offsets[i]:offsets[i + 1]]
        if not x.shape[0]:
            continue
        c4 = np.cumsum(x) * 4
        t = int(c4[-1]) // 4
        totals[i] = t
        for j, q4 in enumerate((1, 2, 3)):
            out[i, j] = int(np.searchsorted(c4, q4 * t, side="left"))
    ok = lens > 0
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "total": pa.array(totals, type=pa.int64()),
        "imq_25": pa.array(out[:, 0], type=pa.int64(), mask=~ok),
        "imq_50": pa.array(out[:, 1], type=pa.int64(), mask=~ok),
        "imq_75": pa.array(out[:, 2], type=pa.int64(), mask=~ok),
    })


def beyond_sigma_batch(batch: pa.Table) -> pa.Table:
    """A80 — beyond-r-sigma counts per series (the tsfresh
    ``ratio_beyond_r_sigma`` statistic at r = 1 and 2): how many
    elements sit strictly more than r population-sd from the mean.
    The compare |v - mean| > r*sd is lifted to exact integers:
    (v*n - S)^2 > r^2 * (n*Q - S^2)  <=>  |v*n - S| >= isqrt(y) + 1
    with y = r^2*(n*Q - S^2) (floor-isqrt; the equivalence is exact
    because s = isqrt(y) gives s^2 <= y < (s+1)^2).  y is a Python int
    (n*Q can pass 2^63); the per-element compare is a vectorized int64
    one against the scalar threshold.  A heavy-tailed series blows the
    2-sigma count far past the ~4.6% Gaussian rate."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    b1 = np.zeros(nrows, dtype=np.int64)
    b2 = np.zeros(nrows, dtype=np.int64)
    for i in range(nrows):
        x = v[offsets[i]:offsets[i + 1]]
        n = int(x.shape[0])
        if n == 0:
            continue
        s = int(x.sum())
        q = int((x * x).sum())
        m_ = n * q - s * s                 # n^2-scaled variance, exact
        d = np.abs(x * n - s)
        b1[i] = int((d > math.isqrt(m_)).sum())
        b2[i] = int((d > math.isqrt(4 * m_)).sum())
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "n_beyond_1s": pa.array(b1, type=pa.int64()),
        "n_beyond_2s": pa.array(b2, type=pa.int64()),
    })


def abs_change_batch(batch: pa.Table) -> pa.Table:
    """A84 — absolute-change statistics per series (the tsfresh
    ``mean_abs_change`` / ``absolute_maximum``-of-diff pair): over the
    m = n-1 first differences, the exact |diff| sum and max, and the
    mean as ONE pinned division.  The roughness companion to A64's
    direction signs — a slow drift and a jagged oscillation have the
    same diff-sign balance but wildly different |diff| mass.  NULL
    mean for n < 2."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    s_abs = np.zeros(nrows, dtype=np.int64)
    mx_abs = np.zeros(nrows, dtype=np.int64)
    if v.shape[0] > 1:
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        d = np.abs(v[1:] - v[:-1])
        same = row_of[1:] == row_of[:-1]
        np.add.at(s_abs, row_of[1:][same], d[same])
        np.maximum.at(mx_abs, row_of[1:][same], d[same])
    ok = lens >= 2
    mean = np.zeros(nrows, dtype=np.float64)
    np.divide(s_abs.astype(np.float64),
              (lens - 1).astype(np.float64), out=mean, where=ok)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "sum_abs_change": pa.array(s_abs, type=pa.int64()),
        "max_abs_change": pa.array(mx_abs, type=pa.int64()),
        "mean_abs_change": pa.array(mean, type=pa.float64(), mask=~ok),
    })


def monotone_run_batch(batch: pa.Table) -> pa.Table:
    """A85 — longest strictly monotone runs per series: the maximum
    count of CONSECUTIVE strict ascents and of strict descents (a run
    of k ascents spans k+1 elements; ties break both).  A13 measures
    above-mean bursts; this measures uninterrupted trends — the
    longest-ascent length is the classic nonparametric ramp detector.
    Fully vectorized over the flat buffer with the A13 run machinery
    (run starts -> cumsum gathers -> per-row max); exact ints."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]

    def longest(mask: np.ndarray, row_of: np.ndarray) -> np.ndarray:
        out = np.zeros(nrows, dtype=np.int64)
        if not mask.any():
            return out
        prev = np.empty_like(mask)
        prev[0] = False
        prev[1:] = mask[:-1] & (row_of[1:] == row_of[:-1])
        starts = np.flatnonzero(mask & ~prev)
        # run length of the run beginning at each start: count of mask
        # positions before the NEXT start
        cum = np.cumsum(mask.astype(np.int64))
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1] = mask.shape[0]
        run_len = cum[ends - 1] - cum[starts] + 1
        np.maximum.at(out, row_of[starts], run_len)
        return out

    if v.shape[0] > 1:
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        same = row_of[1:] == row_of[:-1]
        asc = (v[1:] > v[:-1]) & same
        desc = (v[1:] < v[:-1]) & same
        l_asc = longest(asc, row_of[1:])
        l_desc = longest(desc, row_of[1:])
    else:
        l_asc = np.zeros(nrows, dtype=np.int64)
        l_desc = np.zeros(nrows, dtype=np.int64)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "longest_asc": pa.array(l_asc, type=pa.int64()),
        "longest_desc": pa.array(l_desc, type=pa.int64()),
    })


def symmetry_batch(batch: pa.Table) -> pa.Table:
    """A86 — symmetry-looking flag per series (the tsfresh
    ``symmetry_looking`` test at r = 0.05): a distribution "looks
    symmetric" when |mean - median| <= r * (max - min).  Lifted to
    exact integers with the lower median med (the ceil(n/2)-th order
    statistic): asym_lhs = 20*|S - n*med| vs asym_rhs = n*(max - min);
    the series is asymmetric when lhs > rhs.  Both sides exact int64
    (|S - n*med| <= 5e10, n*range <= 5e10).  NULL for empty series."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    med = np.zeros(nrows, dtype=np.int64)
    lhs = np.zeros(nrows, dtype=np.int64)
    rhs = np.zeros(nrows, dtype=np.int64)
    asym = np.zeros(nrows, dtype=bool)
    for i in range(nrows):
        x = v[offsets[i]:offsets[i + 1]]
        n = int(x.shape[0])
        if n == 0:
            continue
        k = (n + 1) // 2                    # lower median, 1-indexed
        m = int(np.partition(x, k - 1)[k - 1])
        med[i] = m
        lhs[i] = 20 * abs(int(x.sum()) - n * m)
        rhs[i] = n * (int(x.max()) - int(x.min()))
        asym[i] = lhs[i] > rhs[i]
    ok = lens > 0
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "median": pa.array(med, type=pa.int64(), mask=~ok),
        "asym_lhs": pa.array(lhs, type=pa.int64(), mask=~ok),
        "asym_rhs": pa.array(rhs, type=pa.int64(), mask=~ok),
        "is_asymmetric": pa.array(asym, type=pa.bool_(), mask=~ok),
    })


def binned_entropy_batch(batch: pa.Table, n_bins: int = 10,
                         bin_width: int = 5026) -> pa.Table:
    """A83 — binned entropy per series (the tsfresh ``binned_entropy``
    statistic over a FIXED grid): tokens fall into 10 fixed-width bins
    of the vocab domain (bin = v // 5026 covers 0..50256 in bins
    0..9), and the entropy of the occupancy distribution
    -sum p*ln(p) says whether the series roams the domain or camps in
    one band.  Counts exact; the float tail replays the oracle's
    fold EXACTLY: the p*ln(p) terms are accumulated left-to-right in
    ascending-bin order from 0.0 over OCCUPIED bins only, then negated
    (the G15 pinned-fold convention).  NULL for empty series."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64) // bin_width
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    ent = np.zeros(nrows, dtype=np.float64)
    used = np.zeros(nrows, dtype=np.int64)
    for i in range(nrows):
        x = v[offsets[i]:offsets[i + 1]]
        n = int(x.shape[0])
        if n == 0:
            continue
        c = np.bincount(x, minlength=n_bins)
        used[i] = int((c > 0).sum())
        acc = 0.0
        for cb in c.tolist():
            if cb:
                p = float(cb) / float(n)
                acc = acc + p * math.log(p)
        ent[i] = -acc
    ok = lens > 0
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "n_bins_used": pa.array(used, type=pa.int64(), mask=~ok),
        "entropy": pa.array(ent, type=pa.float64(), mask=~ok),
    })


def c3_batch(batch: pa.Table) -> pa.Table:
    """A87 — the c3 nonlinearity statistic per series (tsfresh ``c3``
    at lag 1; Schreiber & Schmitz 1997's higher-order autocovariance):
    mean of v[i] * v[i+1] * v[i+2] over the n-2 in-row triples — a
    linear Gaussian process has no consistent triple-product skew, so
    c3 drifting from (mean)^3 flags nonlinear structure.

    Exactness without HUGEINT columns: each triple product is < 2^48
    (tokens < 2^16), so the batch splits products into hi = p >> 32
    and lo = p & (2^32-1) and accumulates both halves per row in
    int64 (each half-sum < 2^56 at the 1e6-element part cap); the
    total re-assembles as an exact Python int, shipped as the
    (c3_hi, c3_lo) 2^32 pair with the pinned split-double / (n-2)
    mean.  NULL c3 for n < 3."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    hi = np.zeros(nrows, dtype=np.int64)
    lo = np.zeros(nrows, dtype=np.int64)
    if v.shape[0] > 2:
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        p = v[:-2] * v[1:-1] * v[2:]
        same = row_of[:-2] == row_of[2:]
        r = row_of[:-2][same]
        p = p[same]
        np.add.at(hi, r, p >> 32)
        np.add.at(lo, r, p & 0xFFFFFFFF)
    c3 = np.zeros(nrows, dtype=np.float64)
    out_hi = np.zeros(nrows, dtype=np.int64)
    out_lo = np.zeros(nrows, dtype=np.int64)
    ok = lens >= 3
    for i in np.flatnonzero(ok):
        total = (int(hi[i]) << 32) + int(lo[i])   # lo carries re-fold
        out_hi[i] = total >> 32
        out_lo[i] = total & 0xFFFFFFFF
        c3[i] = _split_double(total) / float(int(lens[i]) - 2)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "c3_hi": pa.array(out_hi, type=pa.int64(), mask=~ok),
        "c3_lo": pa.array(out_lo, type=pa.int64(), mask=~ok),
        "c3": pa.array(c3, type=pa.float64(), mask=~ok),
    })


def bowley_batch(batch: pa.Table) -> pa.Table:
    """A88 — Bowley quartile skewness per series: with the exact LOWER
    quartiles q1/q2/q3 (k-th order statistics at k = ceil(q4*n/4)),
    skew = (q1 + q3 - 2*q2) / (q3 - q1) — the robust skewness that
    ignores everything outside the box, complementing A86's
    mean-median test and G14's moment skewness.  Numerator and
    denominator exact ints; the ratio is the pinned split-double
    division (NULL when q3 = q1 or the series is empty)."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    q = np.zeros((nrows, 3), dtype=np.int64)
    skew = np.zeros(nrows, dtype=np.float64)
    ok = np.zeros(nrows, dtype=bool)
    has = lens > 0
    for i in np.flatnonzero(has):
        x = np.sort(v[offsets[i]:offsets[i + 1]])
        n = int(x.shape[0])
        for j, q4 in enumerate((1, 2, 3)):
            q[i, j] = int(x[(q4 * n + 3) // 4 - 1])
        den = int(q[i, 2] - q[i, 0])
        if den > 0:
            num = int(q[i, 0] + q[i, 2] - 2 * q[i, 1])
            skew[i] = _split_double(num) / _split_double(den)
            ok[i] = True
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "q1": pa.array(q[:, 0], type=pa.int64(), mask=~has),
        "q2": pa.array(q[:, 1], type=pa.int64(), mask=~has),
        "q3": pa.array(q[:, 2], type=pa.int64(), mask=~has),
        "bowley_skew": pa.array(skew, type=pa.float64(), mask=~ok),
    })


def last_value_rank_batch(batch: pa.Table) -> pa.Table:
    """A93 — percentile rank of the LAST value per series: n_less /
    n_leq counts of the final element against the whole series and the
    pinned percentile n_leq / n — the streaming-alert primitive ("is
    the latest reading extreme for this series?") evaluated in batch.
    Counts exact, fully vectorized (one gather of the row-final values
    broadcast back over the flat buffer)."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    n_less = np.zeros(nrows, dtype=np.int64)
    n_leq = np.zeros(nrows, dtype=np.int64)
    last = np.zeros(nrows, dtype=np.int64)
    has = lens > 0
    if v.shape[0]:
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        last[has] = v[offsets[1:][has] - 1]
        lb = last[row_of]
        np.add.at(n_less, row_of[v < lb], 1)
        np.add.at(n_leq, row_of[v <= lb], 1)
    pct = np.zeros(nrows, dtype=np.float64)
    np.divide(n_leq.astype(np.float64), lens.astype(np.float64),
              out=pct, where=has)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "last_value": pa.array(last, type=pa.int64(), mask=~has),
        "n_less": pa.array(n_less, type=pa.int64(), mask=~has),
        "n_leq": pa.array(n_leq, type=pa.int64(), mask=~has),
        "pct_rank": pa.array(pct, type=pa.float64(), mask=~has),
    })


def time_reversal_batch(batch: pa.Table) -> pa.Table:
    """A89 — time-reversal asymmetry statistic per series (tsfresh
    ``time_reversal_asymmetry_statistic`` at lag 1; Fulcher & Jones
    2014 trev): mean of v[i+2]^2*v[i+1] - v[i+1]*v[i]^2 over the n-2
    in-row triples.  Reversible (e.g. linear Gaussian) series score
    ~0; a consistent sign means rises and falls are shaped differently
    — the cheapest "is this series time-asymmetric?" screen next to
    A87's c3.

    Exactness: each signed triple term |d| < 2^48 (tokens < 2^16), so
    the batch accumulates d >> 32 (arithmetic shift) and d & (2^32-1)
    per row in int64 — both half-sums stay < 2^56 at the 1e6-element
    part cap — and the total re-assembles as an exact Python int.
    Shipped as sign + |total| 2^32 hi/lo pair with the pinned
    split-double / (n-2) mean.  NULL for n < 3."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    hi = np.zeros(nrows, dtype=np.int64)
    lo = np.zeros(nrows, dtype=np.int64)
    if v.shape[0] > 2:
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        d = v[2:] * v[2:] * v[1:-1] - v[1:-1] * v[:-2] * v[:-2]
        same = row_of[:-2] == row_of[2:]
        r = row_of[:-2][same]
        d = d[same]
        np.add.at(hi, r, d >> 32)
        np.add.at(lo, r, d & 0xFFFFFFFF)
    trev = np.zeros(nrows, dtype=np.float64)
    out_hi = np.zeros(nrows, dtype=np.int64)
    out_lo = np.zeros(nrows, dtype=np.int64)
    sign = np.zeros(nrows, dtype=np.int64)
    ok = lens >= 3
    for i in np.flatnonzero(ok):
        total = (int(hi[i]) << 32) + int(lo[i])
        sign[i] = 0 if total == 0 else (1 if total > 0 else -1)
        a = abs(total)
        out_hi[i] = a >> 32
        out_lo[i] = a & 0xFFFFFFFF
        trev[i] = _split_double(total) / float(int(lens[i]) - 2)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "trev_sign": pa.array(sign, type=pa.int64(), mask=~ok),
        "trev_hi": pa.array(out_hi, type=pa.int64(), mask=~ok),
        "trev_lo": pa.array(out_lo, type=pa.int64(), mask=~ok),
        "trev": pa.array(trev, type=pa.float64(), mask=~ok),
    })


def cid_ce_batch(batch: pa.Table) -> pa.Table:
    """A90 — CID complexity estimate per series (tsfresh ``cid_ce``;
    Batista et al. 2014 complexity-invariant distance): sqrt of the
    sum of squared first differences — a straight line scores 0, a
    jagged series scores high; the standard "how wiggly is it"
    normalizer for distance-based matching.

    Exactness: each diff^2 < 2^33 and the per-row sum < 2^53 at the
    1e6-element part cap, so ss_diff is an exact int64 and DuckDB's
    BIGINT sum replays it; ce = ONE libm sqrt of the pinned
    split-double.  NULL for n < 2."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    ss = np.zeros(nrows, dtype=np.int64)
    if v.shape[0] > 1:
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        d = v[1:] - v[:-1]
        same = row_of[1:] == row_of[:-1]
        np.add.at(ss, row_of[1:][same], (d * d)[same])
    ok = lens >= 2
    ce = np.zeros(nrows, dtype=np.float64)
    for i in np.flatnonzero(ok):
        ce[i] = math.sqrt(_split_double(int(ss[i])))
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "ss_diff": pa.array(ss, type=pa.int64(), mask=~ok),
        "cid_ce": pa.array(ce, type=pa.float64(), mask=~ok),
    })


def second_derivative_batch(batch: pa.Table) -> pa.Table:
    """A91 — mean central second derivative per series (tsfresh
    ``mean_second_derivative_central``): mean of
    (v[i+2] - 2*v[i+1] + v[i]) / 2 over the n-2 interior points — the
    average curvature ("is the trend accelerating?").  The sum
    TELESCOPES to (v[n-1] - v[n-2]) - (v[1] - v[0]), so the kernel is
    four gathers per row, no scan.

    Exactness: the telescoped numerator is an exact small int;
    msdc = split-double(num) / (2*(n-2)) is the single pinned
    division.  NULL for n < 3."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    num = np.zeros(nrows, dtype=np.int64)
    ok = lens >= 3
    idx = np.flatnonzero(ok)
    if idx.shape[0]:
        o = offsets[:-1][ok]
        e = offsets[1:][ok] - 1
        num[ok] = (v[e] - v[e - 1]) - (v[o + 1] - v[o])
    msdc = np.zeros(nrows, dtype=np.float64)
    for i in idx:
        msdc[i] = _split_double(int(num[i])) / float(2 * (int(lens[i]) - 2))
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "d2_num": pa.array(num, type=pa.int64(), mask=~ok),
        "msdc": pa.array(msdc, type=pa.float64(), mask=~ok),
    })


def peaks_batch(batch: pa.Table) -> pa.Table:
    """A94 — peak counts per series (tsfresh ``number_peaks`` at
    support 1 and 2): an interior element is a support-``s`` peak when
    it is STRICTLY greater than all s neighbors on each side (boundary
    elements without full support never qualify).  The burst-density
    readout next to A22's turning points (which count direction
    changes, ties excluded but plateaus folded).

    Exactness: pure integer comparisons, fully vectorized with
    row-boundary masks; counts are exact int64."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    p1 = np.zeros(nrows, dtype=np.int64)
    p2 = np.zeros(nrows, dtype=np.int64)
    if v.shape[0] > 2:
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        c = v[1:-1]
        in1 = (row_of[:-2] == row_of[2:]) & (c > v[:-2]) & (c > v[2:])
        np.add.at(p1, row_of[1:-1][in1], 1)
    if v.shape[0] > 4:
        c = v[2:-2]
        in2 = ((row_of[:-4] == row_of[4:])
               & (c > v[:-4]) & (c > v[1:-3])
               & (c > v[3:-1]) & (c > v[4:]))
        np.add.at(p2, row_of[2:-2][in2], 1)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "n_peaks1": pa.array(p1, type=pa.int64()),
        "n_peaks2": pa.array(p2, type=pa.int64()),
    })
