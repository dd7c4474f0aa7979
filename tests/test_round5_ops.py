"""Round-5 operator tests: each new op re-derived by an independent
brute-force reference (straight numpy/Python — the SQL oracles are
exercised separately by tools/driver_check.py / tools/battery.py)."""
import math

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def _tok_batch(series: list[list[int]]) -> pa.Table:
    return pa.table({
        "doc_id": pa.array([f"t-{i:04d}" for i in range(len(series))]),
        "part_id": pa.array([0] * len(series), type=pa.int32()),
        "tokens": pa.array(series, type=pa.list_(pa.int32())),
    })


# ---------------------------------------------------------------- A57 ----
def _wilcoxon_brute(v: list[int]):
    n = len(v)
    h = n // 2
    d = [v[i + h] - v[i] for i in range(h)]
    d = [x for x in d if x != 0]
    m = len(d)
    if m == 0:
        return m, 0, None
    a = sorted((abs(x), i) for i, x in enumerate(d))
    rank = {}
    i = 0
    while i < len(a):
        j = i
        while j < len(a) and a[j][0] == a[i][0]:
            j += 1
        mr2 = (i + 1) + j        # first rank + last rank
        for k in range(i, j):
            rank[a[k][1]] = mr2
        i = j
    w2 = sum(rank[i] for i, x in enumerate(d) if x > 0)
    t = 0
    i = 0
    while i < len(a):
        j = i
        while j < len(a) and a[j][0] == a[i][0]:
            j += 1
        tl = j - i
        t += tl * tl * tl - tl
        i = j
    var48 = 2 * m * (m + 1) * (2 * m + 1) - t
    z = (float(2 * w2 - m * (m + 1)) / math.sqrt(float(var48) / 3.0)
         if var48 > 0 else None)
    return m, w2, z


def test_wilcoxon_halves_bruteforce():
    from anomalydetection_ray.stages.detectors import wilcoxon_halves_batch

    rng = np.random.default_rng(7)
    series = [rng.integers(0, 50, size=rng.integers(5, 60)).tolist()
              for _ in range(50)]
    series.append([3, 3, 3, 3])          # all-zero diffs -> m == 0
    out = wilcoxon_halves_batch(_tok_batch(series)).to_pylist()
    for row, v in zip(out, series):
        m, w2, z = _wilcoxon_brute(v)
        assert row["n"] == len(v)
        assert row["m"] == m
        assert row["w2_plus"] == w2
        if z is None:
            assert row["z_wilcoxon"] is None
        else:
            assert row["z_wilcoxon"] == z


def test_wilcoxon_detects_level_shift():
    from anomalydetection_ray.stages.detectors import wilcoxon_halves_batch

    rng = np.random.default_rng(11)
    base = rng.integers(100, 120, size=48)
    shifted = np.concatenate([base[:24], base[24:] + 40])
    flat = np.concatenate([base[:24], base[:24]])
    out = wilcoxon_halves_batch(
        _tok_batch([shifted.tolist(), flat.tolist()])).to_pylist()
    assert out[0]["z_wilcoxon"] > 3.5          # strong one-sided shift
    assert out[1]["m"] == 0                    # identical halves


# ---------------------------------------------------------------- A58 ----
def _friedman_brute(v: list[int], p: int = 24):
    b = len(v) // p
    if b == 0:
        return 0, 0, None
    r2 = [0] * p
    for blk in range(b):
        vals = v[blk * p:(blk + 1) * p]
        order = sorted((x, i) for i, x in enumerate(vals))
        i = 0
        while i < p:
            j = i
            while j < p and order[j][0] == order[i][0]:
                j += 1
            mr2 = (i + 1) + j
            for k in range(i, j):
                r2[order[k][1]] += mr2
            i = j
    s4 = sum(x * x for x in r2)
    chi2 = (3.0 * float(s4) / float(b * p * (p + 1))
            - 3.0 * float(b * (p + 1)))
    return b, s4, chi2


def test_friedman_bruteforce():
    from anomalydetection_ray.stages.detectors import (
        friedman_seasonality_batch,
    )

    rng = np.random.default_rng(13)
    series = [rng.integers(0, 99, size=rng.integers(10, 150)).tolist()
              for _ in range(40)]
    out = friedman_seasonality_batch(_tok_batch(series)).to_pylist()
    for row, v in zip(out, series):
        b, s4, chi2 = _friedman_brute(v)
        assert row["n_blocks"] == b
        assert row["s4"] == s4
        if chi2 is None:
            assert row["chi2_friedman"] is None
        else:
            assert row["chi2_friedman"] == chi2


def test_friedman_detects_phase_effect():
    from anomalydetection_ray.stages.detectors import (
        friedman_seasonality_batch,
    )

    rng = np.random.default_rng(17)
    # strong phase effect: value ~ phase + tiny noise, 6 cycles
    seasonal = [(i % 24) * 10 + int(rng.integers(0, 3))
                for i in range(144)]
    iid = rng.integers(0, 1000, size=144).tolist()
    out = friedman_seasonality_batch(
        _tok_batch([seasonal, iid])).to_pylist()
    # chi2 upper bound is b-scaled; seasonal must dwarf iid
    assert out[0]["chi2_friedman"] > 100.0
    assert out[1]["chi2_friedman"] < 50.0


# ---------------------------------------------------------------- A59 ----
def test_period_detect_planted_cycle():
    from anomalydetection_ray.stages.detectors import period_detect_batch

    rng = np.random.default_rng(19)
    wave12 = [[100, 120, 140, 160, 180, 200,
               200, 180, 160, 140, 120, 100][i % 12]
              + int(rng.integers(0, 5)) for i in range(240)]
    wave24 = [int(100 + 80 * math.sin(2 * math.pi * (i % 24) / 24))
              for i in range(240)]
    const = [7] * 100
    out = period_detect_batch(
        _tok_batch([wave12, wave24, const])).to_pylist()
    assert out[0]["best_lag"] == 12
    assert out[1]["best_lag"] == 24
    assert out[2]["best_lag"] is None          # zero variance
    assert out[0]["acf_best"] > 0.8


def test_period_detect_matches_acf_argmax():
    """best_num must equal the A9 numerator of the winning lag."""
    from anomalydetection_ray.sources.tokenize import tokenize_batch
    from anomalydetection_ray.stages.detectors import (
        PERIOD_LAGS,
        period_detect_batch,
    )

    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text", "source"])
    tok = tokenize_batch(docs)
    tok = tok.append_column(
        "part_id", pa.array([0] * tok.num_rows, type=pa.int32()))
    out = period_detect_batch(tok).to_pylist()
    for row, rec in list(zip(out, tok.to_pylist()))[:30]:
        v = [int(x) for x in rec["tokens"]]
        n = len(v)
        s = sum(v)
        q = sum(x * x for x in v)
        den = n * n * q - n * s * s
        if den == 0:
            assert row["best_lag"] is None
            continue
        best = None
        for k in PERIOD_LAGS:
            if n <= k:
                continue
            sxy = sum(v[i] * v[i + k] for i in range(n - k))
            sh = sum(v[:n - k])
            st = sum(v[k:])
            num = n * n * sxy - n * s * (sh + st) + (n - k) * s * s
            if best is None or num > best[1]:
                best = (k, num)
        assert (row["best_lag"], row["best_num"]) == best


# ---------------------------------------------------------------- W41 ----
def test_daily_type_corr_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["w41_daily_type_corr"](SF).to_pandas()
           .set_index(["type_a", "type_b"]).sort_index())
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    counts = ev.groupby(["event_type", "day"]).size()
    days = counts.index.get_level_values("day")
    d = int(days.max() - days.min() + 1)
    types = sorted(ev["event_type"].unique())
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            xa = counts[ta].to_dict()
            xb = counts[tb].to_dict()
            sx, sy = sum(xa.values()), sum(xb.values())
            sxx = sum(v * v for v in xa.values())
            syy = sum(v * v for v in xb.values())
            sxy = sum(v * xb[k] for k, v in xa.items() if k in xb)
            row = got.loc[(ta, tb)]
            assert row["n_days"] == d
            assert row["sxy"] == sxy
            d1, d2 = d * sxx - sx * sx, d * syy - sy * sy
            if d1 > 0 and d2 > 0:
                r = (float(d * sxy - sx * sy)
                     / (math.sqrt(float(d1)) * math.sqrt(float(d2))))
                assert row["r"] == r


# ------------------------------------------------------------ G29/G30 ----
def test_concentration_bruteforce(ray_session):
    import __ray_entry__ as e

    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "user_id"]).to_pandas()
    counts = ev.groupby(["event_type", "user_id"]).size()

    hhi = (e.queries()["g29_herfindahl"](SF).to_pandas()
           .set_index("event_type"))
    cr = (e.queries()["g30_topk_share"](SF).to_pandas()
          .set_index("event_type"))
    for t in sorted(ev["event_type"].unique()):
        c = counts[t]
        total = int(c.sum())
        sumsq = int((c * c).sum())
        nu = len(c)
        row = hhi.loc[t]
        assert (row["n_users"], row["total"], row["sumsq"]) \
            == (nu, total, sumsq)
        assert row["hhi"] == float(sumsq) / (float(total) * float(total))
        top4 = int(c.reset_index()
                   .sort_values(["user_id"])
                   .sort_values(0, ascending=False, kind="stable")
                   .head(4)[0].sum())
        row = cr.loc[t]
        assert (row["total"], row["topk_sum"]) == (total, top4)
        assert row["cr_k"] == float(top4) / float(total)


# ---------------------------------------------------------------- J17 ----
def test_asof_nearest_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["j17_asof_nearest"](SF).to_pandas()
           .set_index("event_id").sort_index())
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    ev["us"] = ev["ts"].astype("int64")
    errors = ev[ev.event_type == "error"]
    clicks = ev[ev.event_type == "click"]
    assert len(got) == len(errors)
    for _, er in errors.iterrows():
        cand = clicks[clicks.user_id == er.user_id]
        row = got.loc[er.event_id]
        if len(cand) == 0:
            assert row["nearest_click_id"] is None or \
                np.isnan(row["nearest_click_id"])
            continue
        back = cand[cand.us <= er.us]
        fwd = cand[cand.us >= er.us]
        b = (back.sort_values(["us", "event_id"]).iloc[-1]
             if len(back) else None)
        f = (fwd.sort_values(["us", "event_id"]).iloc[0]
             if len(fwd) else None)
        if b is not None and (f is None
                              or er.us - b.us <= f.us - er.us):
            want_id, want_gap = b.event_id, er.us - b.us
        else:
            want_id, want_gap = f.event_id, f.us - er.us
        assert int(row["nearest_click_id"]) == int(want_id)
        assert int(row["gap_us"]) == int(want_gap)


# ---------------------------------------------------------------- D19 ----
def test_keep_best_dedup_policy(ray_session, tmp_path):
    import __ray_entry__ as e

    docs = pa.table({
        "doc_id": pa.array([f"doc-{i:08d}" for i in range(6)]),
        "text": pa.array(["same same", "same same", "longer doc kept",
                          "longer doc kept", "unique one", "short"]),
        "n_chars": pa.array([9, 9, 15, 15, 10, 5], type=pa.int64()),
        "lang": pa.array(["en"] * 6),
        "source": pa.array(["s"] * 6),
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    out = (e.queries()["d19_keep_best_dedup"](str(tmp_path))
           .to_pandas().sort_values("doc_id"))
    # 3 hash groups; equal-length dup groups keep the min doc_id
    assert out["doc_id"].tolist() == ["doc-00000000", "doc-00000002",
                                      "doc-00000004", "doc-00000005"]
    assert out["n_chars"].tolist() == [9, 15, 10, 5]


# ---------------------------------------------------------------- T19 ----
def test_word_len_hist_bruteforce(ray_session):
    import re

    import __ray_entry__ as e

    got = (e.queries()["t19_word_len_hist"](SF).to_pandas()
           .set_index(["source", "word_len"]).sort_index())
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["source", "text"]).to_pandas()
    want: dict = {}
    for _, row in docs.iterrows():
        for w in re.split(r"\s+", row["text"]):
            if w:
                k = (row["source"], len(w))
                want[k] = want.get(k, 0) + 1
    assert len(got) == len(want)
    for k, n in want.items():
        assert int(got.loc[k, "n"]) == n


# ----------------------------------------------------------------- E4 ----
def test_varint_roundtrip_and_size_parity():
    from anomalydetection_ray import codecs
    from anomalydetection_ray.sources.tokenize import tokenize_batch

    rng = np.random.default_rng(23)
    for _ in range(40):
        v = rng.integers(0, 50257,
                         size=rng.integers(1, 300)).astype(np.int64)
        enc = codecs.varint_delta_encode(v)
        assert np.array_equal(codecs.varint_delta_decode(enc, len(v)), v)
    # negative / large deltas exercise every LEB128 width
    v = np.array([0, 1, -1, 2**20, -(2**20), 2**30, 0], dtype=np.int64)
    enc = codecs.varint_delta_encode(v)
    assert np.array_equal(codecs.varint_delta_decode(enc, len(v)), v)

    # the stats kernel's analytic size == len(real encoder output)
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text", "source"])
    tok = tokenize_batch(docs)
    tok = tok.append_column(
        "part_id", pa.array([0] * tok.num_rows, type=pa.int32()))
    out = codecs.varint_size_batch(tok).to_pylist()
    for row, rec in list(zip(out, tok.to_pylist()))[:50]:
        v = np.asarray(rec["tokens"], dtype=np.int64)
        assert row["n_bytes"] == len(codecs.varint_delta_encode(v))


def test_g31_dispersion_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["g31_dispersion_index"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    counts = ev.groupby(["event_type", "day"]).size()
    days = counts.index.get_level_values("day")
    d = int(days.max() - days.min() + 1)
    for t in sorted(ev["event_type"].unique()):
        c = counts[t]
        total, sumsq = int(c.sum()), int((c * c).sum())
        row = got.loc[t]
        assert (row["n_days"], row["total"], row["sumsq"]) \
            == (d, total, sumsq)
        assert row["dispersion"] == \
            float(d * sumsq - total * total) / float(d * total)


# --------------------------------------------------------- V17/T20 ----
def test_fertility_and_charset_bruteforce(ray_session):
    import re

    import __ray_entry__ as e

    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["source", "text"]).to_pandas()

    fert = (e.queries()["v17_subword_fertility"](SF).to_pandas()
            .set_index("source"))
    prof = (e.queries()["t20_charset_profile"](SF).to_pandas()
            .set_index("source"))
    bpe_re = re.compile(r"[A-Za-z]+|[0-9]|[^A-Za-z0-9\s]")
    for src, grp in docs.groupby("source"):
        words = sum(len([w for w in re.split(r"\s+", t) if w])
                    for t in grp["text"])
        bpe = sum(len(bpe_re.findall(t)) for t in grp["text"])
        row = fert.loc[src]
        assert (row["words"], row["bpe"]) == (words, bpe)
        assert row["fertility"] == float(bpe) / float(words)
        blob = "".join(grp["text"])
        alpha = sum(c.isascii() and c.isalpha() for c in blob)
        digit = sum(c.isdigit() and c.isascii() for c in blob)
        ws = sum(c in "\t\n\x0b\x0c\r " for c in blob)
        nb = len(blob.encode())
        row = prof.loc[src]
        assert (row["n_bytes"], row["alpha"], row["digit"], row["ws"],
                row["cont"]) == (nb, alpha, digit, ws, 0)
        assert row["other"] == nb - alpha - digit - ws


# --------------------------------------------------------- G33/W42 ----
def test_cramers_v_bruteforce(ray_session):
    import __ray_entry__ as e

    got = e.queries()["g33_cramers_v"](SF).to_pandas().iloc[0]
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["dow"] = (ev["ts"].astype("int64") // 86_400_000_000 + 3) % 7
    cells = ev.groupby(["event_type", "dow"]).size().sort_index()
    total = int(cells.sum())
    rt = cells.groupby(level=0).sum()
    ct = cells.groupby(level=1).sum()
    acc = 0.0
    for (t, d), n in cells.items():
        exp = float(int(rt[t]) * int(ct[d])) / float(total)
        diff = float(int(n)) - exp
        acc = acc + diff * diff / exp
    mind = min(len(rt) - 1, len(ct) - 1)
    assert got["n"] == total
    assert got["chi2"] == acc
    assert got["cramers_v"] == math.sqrt(
        acc / (float(total) * float(mind)))


def test_user_profile_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["w42_user_profile"](SF).to_pandas()
           .set_index("user_id").sort_index())
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    ev["cents"] = np.floor(ev["value"] * 100 + 0.5).astype("int64")
    g = ev.groupby("user_id")
    assert len(got) == g.ngroups
    for uid, grp in g:
        row = got.loc[uid]
        assert row["first_day"] == grp["day"].min()
        assert row["last_day"] == grp["day"].max()
        assert row["n_active_days"] == grp["day"].nunique()
        assert row["n_events"] == len(grp)
        assert row["total_cents"] == int(grp["cents"].sum())


# ----------------------------------------------------------------- A61 ----
def test_remainder_acf_absorbs_planted_structure():
    """A pure seasonal+trend series must leave ~no lag-24 remainder ACF,
    while the RAW series ACF at 24 is large — the adequacy scenario."""
    from anomalydetection_ray.stages.detectors import (
        autocorr_batch,
        remainder_acf_batch,
    )

    rng = np.random.default_rng(29)
    season = np.array([(i % 24) * 7 for i in range(240)])
    trend = np.repeat(np.arange(10) * 50, 24)
    noise = rng.integers(0, 3, size=240)
    series = (1000 + season + trend + noise).tolist()
    batch = _tok_batch([series])
    raw = autocorr_batch(batch, lag=24).to_pylist()[0]
    rem = remainder_acf_batch(batch).to_pylist()[0]
    assert raw["acf"] > 0.5
    assert abs(rem["acf_resid"]) < 0.2


def test_remainder_acf_bruteforce():
    from anomalydetection_ray.sources.tokenize import tokenize_batch
    from anomalydetection_ray.stages.detectors import (
        _split_double,
        remainder_acf_batch,
    )

    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text", "source"])
    tok = tokenize_batch(docs)
    tok = tok.append_column(
        "part_id", pa.array([0] * tok.num_rows, type=pa.int32()))
    out = remainder_acf_batch(tok).to_pylist()
    for row, rec in list(zip(out, tok.to_pylist()))[:25]:
        v = np.asarray(rec["tokens"], dtype=np.int64)
        n = len(v)
        if n <= 24:
            assert row["acf_resid"] is None
            continue
        x = v.astype(np.float64)
        pos = np.arange(n)
        pmed = np.array([np.median(x[p::24]) if len(x[p::24]) else 0.0
                         for p in range(24)])
        de = x - pmed[pos % 24]
        ncyc = (n - 1) // 24 + 1
        tmed = np.array([np.median(de[c * 24:(c + 1) * 24])
                         for c in range(ncyc)])
        r4 = (4.0 * (de - tmed[pos // 24])).astype(np.int64)
        s = int(r4.sum())
        q = int((r4 * r4).sum())
        den = n * n * q - n * s * s
        if den == 0:
            assert row["acf_resid"] is None
            continue
        sxy = int((r4[:-24] * r4[24:]).sum())
        sh, st = int(r4[:n - 24].sum()), int(r4[24:].sum())
        num = n * n * sxy - n * s * (sh + st) + (n - 24) * s * s
        assert row["acf_resid"] == _split_double(num) / _split_double(den)


# --------------------------------------------------------- G34/P9 ----
def test_daily_quantile_band_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["g34_daily_quantile_band"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    counts = ev.groupby(["event_type", "day"]).size()
    days = counts.index.get_level_values("day")
    d = int(days.max() - days.min() + 1)
    for t in sorted(ev["event_type"].unique()):
        present = sorted(counts[t].tolist())
        full = [0] * (d - len(present)) + present
        row = got.loc[t]
        assert row["n_days"] == d
        for q, col in ((0.1, "p10"), (0.5, "p50"), (0.9, "p90")):
            assert row[col] == full[int(math.ceil(q * d)) - 1]


def test_padding_waste_bruteforce(ray_session):
    import __ray_entry__ as e
    from anomalydetection_ray.sources.tokenize import tokenize_batch

    got = (e.queries()["p9_padding_waste"](SF).to_pandas()
           .set_index("bucket"))
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text", "source"])
    lens = [len(r["tokens"]) for r in tokenize_batch(docs).to_pylist()]
    for b in (128, 256, 512, 1024):
        padded = sum(-(-n // b) * b for n in lens)
        tot = sum(lens)
        row = got.loc[b]
        assert (row["n_docs"], row["total_tokens"],
                row["total_padded"]) == (len(lens), tot, padded)
        assert row["waste"] == padded - tot
        assert row["waste_frac"] == float(padded - tot) / float(padded)


# --------------------------------------------------------- W43/G35 ----
def test_rolling_median_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["w43_rolling_median"](SF).to_pandas()
           .set_index("event_id").sort_index())
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    ev["cents"] = np.floor(ev["value"] * 100 + 0.5).astype("int64")
    ev = ev.sort_values(["user_id", "ts", "event_id"])
    n_checked = 0
    for _, grp in ev.groupby("user_id"):
        c = grp["cents"].to_numpy()
        eids = grp["event_id"].to_numpy()
        for i in range(4, len(c)):
            want = int(np.median(c[i - 4:i + 1]))
            assert int(got.loc[eids[i], "roll_median_cents"]) == want
            n_checked += 1
    assert n_checked == len(got)


def test_hourly_entropy_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["g35_hourly_entropy"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["hour"] = (ev["ts"].astype("int64") // 3_600_000_000) % 24
    for t, grp in ev.groupby("event_type"):
        counts = grp.groupby("hour").size().sort_index()
        total = int(counts.sum())
        acc = 0.0
        for c in counts:
            p = float(int(c)) / float(total)
            acc = acc + p * math.log(p)
        row = got.loc[t]
        assert (row["total"], row["n_hours"]) == (total, len(counts))
        assert row["entropy"] == -acc
        assert row["norm_entropy"] == -acc / math.log(24.0)


# --------------------------------------------------------- X9/D20 ----
def test_dup_degree_hist_bruteforce(ray_session):
    import __ray_entry__ as e

    pairs = (e.queries()["dedup_minhash_pairs"](SF).to_pandas())
    got = (e.queries()["x9_dup_degree_hist"](SF).to_pandas()
           .set_index("degree").sort_index())
    # engine pair set at min_est 0.5 (x8/x9 convention)
    pairs = pairs[pairs["est_jaccard"] >= 0.5]
    from collections import Counter

    deg = Counter()
    for _, r in pairs.iterrows():
        deg[int(r["doc_a"])] += 1
        deg[int(r["doc_b"])] += 1
    hist = Counter(deg.values())
    assert len(got) == len(hist)
    for d, n in hist.items():
        assert int(got.loc[d, "n_docs"]) == n


def test_top_dup_sentences_bruteforce(ray_session):
    from collections import Counter

    import __ray_entry__ as e

    got = e.queries()["d20_top_dup_sentences"](SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    occ: Counter = Counter()
    dd: dict = {}
    for _, r in docs.iterrows():
        for s in r["text"].split(". "):
            if s:
                occ[s] += 1
                dd.setdefault(s, set()).add(r["doc_id"])
    want = sorted(occ.items(), key=lambda kv: (-kv[1], kv[0]))[:25]
    assert list(zip(got["sent"], got["n_occ"])) == want
    for _, row in got.iterrows():
        assert row["n_docs"] == len(dd[row["sent"]])


# --------------------------------------------------- G36/J18/S23 ----
def test_kurtosis_bruteforce(ray_session):
    import json

    import __ray_entry__ as e
    from anomalydetection_ray.stages.detectors import _split_double

    got = (e.queries()["g36_kurtosis"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "props"]).to_pandas()
    ev["k"] = ev["props"].map(lambda p: int(json.loads(p)["k"]))
    for t, grp in ev.groupby("event_type"):
        x = [int(v) for v in grp["k"]]
        n = len(x)
        s1, s2 = sum(x), sum(v * v for v in x)
        s3, s4 = sum(v ** 3 for v in x), sum(v ** 4 for v in x)
        m2s = n * s2 - s1 * s1
        m4s = (n ** 3 * s4 - 4 * n * n * s1 * s3
               + 6 * n * s1 * s1 * s2 - 3 * s1 ** 4)
        row = got.loc[t]
        assert row["m2_scaled"] == m2s
        assert row["kurtosis"] == _split_double(m4s) / (
            _split_double(m2s) * _split_double(m2s)) - 3.0


def test_full_outer_daily_has_nulls(ray_session):
    import __ray_entry__ as e

    got = e.queries()["j18_full_outer_daily"](SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    err = ev[ev.event_type == "error"].groupby("day").size()
    pur = ev[ev.event_type == "purchase"].groupby("day").size()
    days = set(err.index) | set(pur.index)
    assert len(got) == len(days)
    g = got.set_index("day")
    for d in days:
        if d in err.index:
            assert int(g.loc[d, "err_n"]) == int(err[d])
        else:
            assert np.isnan(g.loc[d, "err_n"])
        if d in pur.index:
            assert int(g.loc[d, "purchase_n"]) == int(pur[d])
        else:
            assert np.isnan(g.loc[d, "purchase_n"])


def test_full_outer_daily_null_sides(ray_session, tmp_path):
    """Disjoint-day fixture: the OUTER part provably produces NULLs."""
    import __ray_entry__ as e

    day = 86_400_000_000
    ev = pa.table({
        "event_id": pa.array(range(6), type=pa.int64()),
        "ts": pa.array([0, 0, day, day, 2 * day, 2 * day],
                       type=pa.timestamp("us")),
        "user_id": pa.array([1] * 6, type=pa.int64()),
        "event_type": pa.array(["error", "error", "purchase",
                                "purchase", "error", "purchase"]),
        "value": pa.array([1.0] * 6),
        "props": pa.array(["{}"] * 6),
    })
    import pyarrow.parquet as pqw

    pqw.write_table(ev, str(tmp_path / "events.parquet"))
    got = (e.queries()["j18_full_outer_daily"](str(tmp_path))
           .to_pandas().set_index("day").sort_index())
    assert len(got) == 3
    assert int(got.loc[0, "err_n"]) == 2 and \
        np.isnan(got.loc[0, "purchase_n"])
    assert np.isnan(got.loc[1, "err_n"]) and \
        int(got.loc[1, "purchase_n"]) == 2
    assert int(got.loc[2, "err_n"]) == 1 and \
        int(got.loc[2, "purchase_n"]) == 1


def test_sharded_roundtrip_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["s23_sharded_roundtrip"](SF).to_pandas()
           .set_index("shard").sort_index())
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "value"]).to_pandas()
    ev["shard"] = ev["event_id"] % 4
    ev["cents"] = np.floor(ev["value"] * 100 + 0.5).astype("int64")
    for s, grp in ev.groupby("shard"):
        assert int(got.loc[s, "n"]) == len(grp)
        assert int(got.loc[s, "cents_sum"]) == int(grp["cents"].sum())


# --------------------------------------------------------- T21/A62 ----
def test_readability_bruteforce(ray_session):
    import re

    import __ray_entry__ as e

    got = (e.queries()["t21_readability"](SF).to_pandas()
           .set_index("source"))
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["source", "text"]).to_pandas()
    vowels = re.compile(r"[aeiouAEIOU]+")
    for src, grp in docs.groupby("source"):
        w = sum(len([x for x in re.split(r"\s+", t) if x])
                for t in grp["text"])
        s = sum(len([x for x in t.split(". ") if x])
                for t in grp["text"])
        y = sum(len(vowels.findall(t)) for t in grp["text"])
        row = got.loc[src]
        assert (row["words"], row["sentences"],
                row["syllables"]) == (w, s, y)
        assert row["flesch_ease"] == (
            206.835 - 1.015 * (float(w) / float(s))
            - 84.6 * (float(y) / float(w)))


def test_binseg_finds_planted_shifts():
    from anomalydetection_ray.stages.detectors import binseg_batch

    # staircase 100/500/900: k1 ties exactly between 60 and 120
    # (-> smallest, 60); the right half then finds 120; the constant
    # left half degenerates to the all-zero-gap tie k=1
    series = [100] * 60 + [500] * 60 + [900] * 60
    out = binseg_batch(_tok_batch([series])).to_pylist()[0]
    assert out["k1"] == 60
    assert out["k_right"] == 120
    assert out["k_left"] == 1


def test_binseg_matches_bruteforce():
    from anomalydetection_ray.stages.detectors import binseg_batch

    def amoc(v):
        m = len(v)
        if m < 2:
            return None
        s = sum(v)
        best = None
        ba = bd = 0
        p = 0
        for k in range(1, m):
            p += v[k - 1]
            a, d = abs(p * m - s * k), k * (m - k)
            if best is None or a * bd > ba * d:
                best, ba, bd = k, a, d
        return best

    rng = np.random.default_rng(31)
    series = [rng.integers(0, 500, size=rng.integers(2, 80)).tolist()
              for _ in range(40)]
    series += [[5], [7, 7, 7, 7]]
    out = binseg_batch(_tok_batch(series)).to_pylist()
    for row, v in zip(out, series):
        k1 = amoc(v)
        if k1 is None:
            assert row["k1"] is None
            continue
        assert row["k1"] == k1
        kl = amoc(v[:k1])
        kr = amoc(v[k1:])
        assert row["k_left"] == kl
        assert row["k_right"] == (None if kr is None else k1 + kr)


# --------------------------------------------------------- K18/W44 ----
def test_label_medoids_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["k18_label_medoids"](SF).to_pandas()
           .set_index("label").sort_index())
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    for lab, grp in emb.groupby("label"):
        q = np.floor(np.stack(grp["embedding"].to_numpy())
                     * (1 << 20) + 0.5).astype(np.int64)
        vid = grp["vec_id"].to_numpy()
        n = len(vid)
        best = None
        for i in range(n):
            tot = sum(int(((q[i] - q[j]) ** 2).sum())
                      for j in range(n) if j != i)
            key = (tot, int(vid[i]))
            if best is None or key < best:
                best = key
        row = got.loc[lab]
        assert (row["n"], row["medoid_vec_id"],
                row["total_d2"]) == (n, best[1], best[0])


def test_daily_acf1_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["w44_daily_acf1"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    counts = ev.groupby(["event_type", "day"]).size()
    lo = int(ev["day"].min())
    hi = int(ev["day"].max())
    d = hi - lo + 1
    for t in sorted(ev["event_type"].unique()):
        grid = np.zeros(d, dtype=np.int64)
        for day, c in counts[t].items():
            grid[int(day) - lo] = int(c)
        s, q = int(grid.sum()), int((grid * grid).sum())
        sxy = int((grid[:-1] * grid[1:]).sum())
        sh, st = int(grid[:-1].sum()), int(grid[1:].sum())
        num = d * d * sxy - d * s * (sh + st) + (d - 1) * s * s
        den = d * d * q - d * s * s
        row = got.loc[t]
        assert (row["n_days"], row["sxy"]) == (d, sxy)
        assert row["acf1"] == float(num) / float(den)


# ------------------------------------------------------ A63/G37/G38 ----
def _sd(u: int) -> float:
    """The pinned 32-bit-split int->double (detectors._split_double)."""
    return float(u >> 32) * 4294967296.0 + float(u & 0xFFFFFFFF)


def test_kpss_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["a63_kpss"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts", "value"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    ev["v100"] = np.floor(ev["value"].to_numpy() * 100.0
                          + 0.5).astype(np.int64)
    for t, grp in ev.groupby("event_type"):
        daily = grp.groupby("day")["v100"].sum().sort_index()
        xs = [int(v) for v in daily.to_numpy()]
        n = len(xs)
        S = sum(xs)
        Q = sum(v * v for v in xs)
        p = 0
        num = 0
        for i, v in enumerate(xs, start=1):
            p += v
            cd = n * p - i * S
            num += cd * cd
        var_num = n * Q - S * S
        row = got.loc[t]
        assert (row["n_days"], row["s_total"]) == (n, S)
        if n >= 2 and var_num > 0:
            assert row["kpss"] == _sd(num) / _sd(n * n * var_num)
        else:
            assert row["kpss"] is None or np.isnan(row["kpss"])


def test_mad_by_type_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["g37_mad_by_type"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "value"]).to_pandas()
    ev["v100"] = np.floor(ev["value"].to_numpy() * 100.0
                          + 0.5).astype(np.int64)
    for t, grp in ev.groupby("event_type"):
        x = np.sort(grp["v100"].to_numpy())
        n = len(x)
        med = int(x[(n + 1) // 2 - 1])            # lower rank statistic
        dev = np.sort(np.abs(x - med))
        mad = int(dev[(n + 1) // 2 - 1])
        row = got.loc[t]
        assert (row["n"], row["median_cents"], row["mad_cents"]) \
            == (n, med, mad)
        assert row["robust_sigma"] == 1.4826 * float(mad)


def test_daily_gini_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["g38_daily_gini"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    lo, hi = int(ev["day"].min()), int(ev["day"].max())
    d = hi - lo + 1
    for t, grp in ev.groupby("event_type"):
        counts = grp.groupby("day").size()
        grid = np.zeros(d, dtype=np.int64)
        for day, c in counts.items():
            grid[int(day) - lo] = int(c)
        x = np.sort(grid)                          # zeros first
        i = np.arange(1, d + 1, dtype=np.int64)
        num = int(((2 * i - d - 1) * x).sum())     # G13's formula
        den = d * int(x.sum())
        row = got.loc[t]
        assert (row["n_days"], row["n_present"]) \
            == (d, int((grid > 0).sum()))
        assert (row["gini_num"], row["gini_den"]) == (num, den)
        assert row["gini"] == float(num) / float(den)


# -------------------------------------------------------- E5/V19 ----
def test_rle_roundtrip_and_size_parity():
    from anomalydetection_ray.codecs import (rle_decode, rle_encode,
                                             rle_size_batch)

    rng = np.random.default_rng(11)
    series = [
        [],
        [7],
        [3, 3, 3, 3, 3],
        [0, 0, 1, 2, 2, 2, 2, 1, 0],
        list(rng.integers(0, 5, size=400)),            # run-heavy
        list(rng.integers(0, 200_000, size=300)),      # run-free
        list(np.repeat(rng.integers(0, 2**30, size=50),
                       rng.integers(1, 200, size=50))),
    ]
    for s in series:
        arr = np.asarray(s, dtype=np.int64)
        enc = rle_encode(arr)
        assert np.array_equal(rle_decode(enc), arr)
    # analytic size == real encoder byte count, per row of one batch
    batch = _tok_batch([s for s in series if len(s) > 0])
    out = rle_size_batch(batch).to_pylist()
    for row, s in zip(out, [s for s in series if len(s) > 0]):
        enc = rle_encode(np.asarray(s, dtype=np.int64))
        assert row["n_bytes"] == len(enc)
        assert row["n"] == len(s)
        brk = sum(1 for i in range(len(s)) if i == 0 or s[i] != s[i - 1])
        assert row["n_runs"] == brk
        assert row["bytes_per_token"] == len(enc) / len(s)


def test_freq_spectrum_bruteforce(ray_session):
    from collections import Counter

    import __ray_entry__ as e

    got = (e.queries()["v19_freq_spectrum"](SF).to_pandas()
           .set_index("k").sort_index())
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["text"]).to_pandas()
    wc = Counter()
    for t in docs["text"]:
        for w in t.split(" "):
            if w != "":
                wc[w] += 1
    spec = Counter(wc.values())
    assert sorted(spec.keys()) == list(got.index)
    for k, n in spec.items():
        assert int(got.loc[k, "n_types"]) == n
    # Good-Turing identity: sum k*N_k = corpus token count
    assert int((got.index.to_numpy() * got["n_types"].to_numpy()).sum()) \
        == sum(wc.values())


# -------------------------------------------------------- A64/G39 ----
def test_diff_sign_bruteforce():
    from anomalydetection_ray.stages.detectors import diff_sign_batch

    rng = np.random.default_rng(23)
    series = [list(rng.integers(0, 40, size=rng.integers(1, 120)))
              for _ in range(25)]
    series.append(list(range(50)))          # pure trend: z maximal
    series.append([7] * 30)                 # all ties: n_asc = 0
    out = diff_sign_batch(_tok_batch(series)).to_pylist()
    for row, s in zip(out, series):
        n = len(s)
        n_asc = sum(1 for i in range(1, n) if s[i] > s[i - 1])
        assert (row["n"], row["n_asc"]) == (n, n_asc)
        if n >= 2:
            assert row["z_diff_sign"] == \
                float(2 * n_asc - (n - 1)) / (2.0 * math.sqrt((n + 1) / 12.0))
        else:
            assert row["z_diff_sign"] is None


def test_psi_drift_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["g39_psi_drift"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts", "value"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    ev["v"] = np.floor(ev["value"].to_numpy() * 100.0
                       + 0.5).astype(np.int64)
    lo, hi = int(ev["day"].min()), int(ev["day"].max())
    mid = lo + (hi - lo + 1) // 2
    for t, grp in ev.groupby("event_type"):
        a = np.sort(grp.loc[grp["day"] < mid, "v"].to_numpy())
        b = grp.loc[grp["day"] >= mid, "v"].to_numpy()
        if len(a) == 0 or len(b) == 0:
            assert t not in got.index
            continue
        n_a, n_b = len(a), len(b)
        edges = np.sort([a[(j * n_a + 9) // 10 - 1] for j in range(1, 10)])
        ca = np.zeros(10, dtype=np.int64)
        cb = np.zeros(10, dtype=np.int64)
        for v in a:
            ca[np.searchsorted(edges, v, side="left")] += 1
        for v in b:
            cb[np.searchsorted(edges, v, side="left")] += 1
        n_empty = int(((ca == 0) | (cb == 0)).sum())
        row = got.loc[t]
        assert (row["n_a"], row["n_b"], row["n_empty"]) \
            == (n_a, n_b, n_empty)
        if n_empty == 0:
            acc = 0.0
            for i in range(10):
                pa_ = float(int(ca[i])) / float(n_a)
                pb_ = float(int(cb[i])) / float(n_b)
                acc += (pa_ - pb_) * math.log(pa_ / pb_)
            assert row["psi"] == acc
        else:
            assert np.isnan(row["psi"])


# ------------------------------------------------------------- C7 ----
def test_consensus_report_cross_consistency(ray_session):
    """C7's votes must agree with the three individual detector
    queries, and the emitted rows must be the top-25 under the
    documented total order."""
    import pandas as pd

    import __ray_entry__ as e

    q = e.queries()
    got = q["c7_consensus_report"](SF).to_pandas()
    dets = {}
    for name in ["detect_esd", "detect_cusum", "detect_threshold"]:
        dets[name] = (q[name](SF).to_pandas()
                      .set_index(["doc_id", "part_id"])["n_anomalies"])
    full = pd.DataFrame({
        "n_esd": dets["detect_esd"],
        "n_cusum": dets["detect_cusum"],
        "n_threshold": dets["detect_threshold"],
    })
    full["votes"] = ((full["n_esd"] > 0).astype(int)
                     + (full["n_cusum"] > 0).astype(int)
                     + (full["n_threshold"] > 0).astype(int))
    full = full.reset_index()
    expect = full.sort_values(
        ["votes", "n_esd", "doc_id", "part_id"],
        ascending=[False, False, True, True]).head(25)
    key = ["votes", "n_esd", "n_cusum", "n_threshold", "doc_id",
           "part_id"]
    got_s = got[key].sort_values(key).reset_index(drop=True)
    exp_s = expect[key].sort_values(key).reset_index(drop=True)
    assert got_s.equals(exp_s.astype(got_s.dtypes.to_dict()))


# ------------------------------------------------------------ G40 ----
def test_kendall_daily_bruteforce(ray_session):
    from itertools import combinations

    import __ray_entry__ as e

    got = (e.queries()["g40_kendall_daily"](SF).to_pandas()
           .set_index(["type_a", "type_b"]))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    lo, hi = int(ev["day"].min()), int(ev["day"].max())
    d = hi - lo + 1
    grids = {}
    for t, grp in ev.groupby("event_type"):
        g = np.zeros(d, dtype=np.int64)
        for day, c in grp.groupby("day").size().items():
            g[int(day) - lo] = int(c)
        grids[t] = g

    def ties(g):
        _, c = np.unique(g, return_counts=True)
        return int((c * (c - 1) // 2).sum())

    n0 = d * (d - 1) // 2
    for ta, tb in combinations(sorted(grids), 2):
        x, y = grids[ta], grids[tb]
        nc = nd = 0
        for i in range(d):            # O(d^2) reference loop
            for j in range(i + 1, d):
                p = (x[i] - x[j]) * (y[i] - y[j])
                nc += p > 0
                nd += p < 0
        row = got.loc[(ta, tb)]
        assert (row["n_days"], row["nc"], row["nd"]) == (d, nc, nd)
        den2 = (n0 - ties(x)) * (n0 - ties(y))
        if den2 > 0:
            assert row["tau_b"] == float(nc - nd) / math.sqrt(float(den2))
        else:
            assert np.isnan(row["tau_b"])


# ------------------------------------------------------------ V20 ----
def test_bigram_entropy_bruteforce(ray_session):
    from collections import Counter

    import __ray_entry__ as e

    got = (e.queries()["v20_bigram_entropy"](SF).to_pandas()
           .set_index("source"))
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["source", "text"]).to_pandas()
    for src, grp in docs.groupby("source"):
        pairs = Counter()
        for t in grp["text"]:
            b = t.encode("utf-8")
            for i in range(len(b) - 1):
                pairs[(b[i], b[i + 1])] += 1
        total = sum(pairs.values())
        acc2 = 0.0
        for k in sorted(pairs):
            p = float(pairs[k]) / float(total)
            acc2 = acc2 + p * math.log(p)
        marg = Counter()
        for (b1, _), n in pairs.items():
            marg[b1] += n
        acc1 = 0.0
        for k in sorted(marg):
            p = float(marg[k]) / float(total)
            acc1 = acc1 + p * math.log(p)
        row = got.loc[src]
        assert (row["total_pairs"], row["n_distinct_pairs"]) \
            == (total, len(pairs))
        assert row["h2"] == -acc2
        assert row["h1"] == -acc1
        assert row["cond_entropy"] == (-acc2) - (-acc1)
        assert row["h2"] >= row["h1"] - 1e-12       # H2 >= H1 identity


# ------------------------------------------------------------ K19 ----
def test_anova_f_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["k19_anova_f"](SF).to_pandas()
           .set_index("dim").sort_index())
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    q = np.floor(np.stack(emb["embedding"].to_numpy())
                 * (1 << 20) + 0.5).astype(np.int64)
    lab = emb["label"].to_numpy()
    labels = sorted(set(lab.tolist()))
    N, D = q.shape
    k = len(labels)
    for d in range(D):
        col = q[:, d]
        ssw = 0.0
        for g in labels:
            x = col[lab == g]
            ng = len(x)
            sg, qg = int(x.sum()), int((x * x).sum())
            ssw = ssw + (float(qg) - float(sg) * float(sg) / float(ng))
        S, Q = int(col.sum()), int((col * col).sum())
        sst = float(Q) - float(S) * float(S) / float(N)
        ssb = sst - ssw
        row = got.loc[d]
        assert (row["n"], row["k_labels"]) == (N, k)
        assert row["ssw"] == ssw and row["ssb"] == ssb
        if k >= 2 and N > k and ssw > 0:
            assert row["f_stat"] == \
                (ssb / float(k - 1)) / (ssw / float(N - k))
        else:
            assert np.isnan(row["f_stat"])


# ------------------------------------------------------------ A65 ----
def test_hjorth_bruteforce():
    from anomalydetection_ray.stages.detectors import (_split_double,
                                                       hjorth_batch)

    rng = np.random.default_rng(31)
    series = [list(rng.integers(0, 1000, size=rng.integers(1, 200)))
              for _ in range(20)]
    series.append([42] * 10)                # zero variance
    series.append(list(range(0, 100, 3)))   # linear: d2 all zero
    out = hjorth_batch(_tok_batch(series)).to_pylist()
    for row, s in zip(out, series):
        x = [int(v) for v in s]
        n0 = len(x)

        def m(xs):
            nn = len(xs)
            return nn * sum(t * t for t in xs) - sum(xs) ** 2

        m0 = m(x)
        assert row["n"] == n0
        assert row["activity"] == \
            _split_double(m0) / (float(n0) * float(n0))
        if n0 < 2 or m0 == 0:
            assert row["mobility"] is None
            continue
        d1 = [x[i + 1] - x[i] for i in range(n0 - 1)]
        m1 = m(d1)
        mob = (math.sqrt(_split_double(m1) / _split_double(m0))
               * (float(n0) / float(n0 - 1)))
        assert row["mobility"] == mob
        if n0 < 3 or m1 == 0 or mob == 0.0:
            assert row["complexity"] is None
            continue
        d2 = [d1[i + 1] - d1[i] for i in range(len(d1) - 1)]
        m2 = m(d2)
        assert row["complexity"] == \
            (math.sqrt(_split_double(m2) / _split_double(m1))
             * (float(n0 - 1) / float(n0 - 2))) / mob


# ------------------------------------------------------------ W45 ----
def test_purchase_cadence_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["w45_purchase_cadence"](SF).to_pandas()
           .set_index("user_id").sort_index())
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "ts", "user_id",
                                "event_type"]).to_pandas()
    p = ev[ev["event_type"] == "purchase"].copy()
    p["us"] = p["ts"].astype("int64")
    assert len(got) == p["user_id"].nunique()
    for uid, grp in p.groupby("user_id"):
        grp = grp.sort_values(["us", "event_id"])
        us = grp["us"].to_numpy()
        gaps = sorted((us[1:] - us[:-1]).tolist())
        row = got.loc[uid]
        assert (row["n_purchases"], row["n_gaps"]) \
            == (len(grp), len(gaps))
        if gaps:
            assert row["median_gap_us"] == gaps[(len(gaps) + 1) // 2 - 1]
            assert row["min_gap_us"] == gaps[0]
            assert row["max_gap_us"] == gaps[-1]
        else:
            assert row[["median_gap_us", "min_gap_us",
                        "max_gap_us"]].isna().all()


# ------------------------------------------------------------ V21 ----
def test_sttr_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["v21_sttr"](SF).to_pandas()
           .set_index("source"))
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["source", "text"]).to_pandas()
    agg = {}
    for src, grp in docs.groupby("source"):
        nc = st = 0
        for t in grp["text"]:
            ws = [w for w in t.split(" ") if w != ""]
            for c in range(len(ws) // 25):
                nc += 1
                st += len(set(ws[c * 25:(c + 1) * 25]))
        if nc:
            agg[src] = (nc, st)
    assert sorted(agg) == sorted(got.index)
    for src, (nc, st) in agg.items():
        row = got.loc[src]
        assert (row["n_chunks"], row["sum_types"]) == (nc, st)
        assert row["sttr"] == float(st) / float(25 * nc)


# ------------------------------------------------------------ G41 ----
def test_ks_two_types_bruteforce(ray_session):
    import __ray_entry__ as e

    got = e.queries()["g41_ks_two_types"](SF).to_pandas().iloc[0]
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "value"]).to_pandas()
    a = np.sort(np.floor(
        ev.loc[ev["event_type"] == "error", "value"].to_numpy()
        * 100.0 + 0.5).astype(np.int64))
    b = np.sort(np.floor(
        ev.loc[ev["event_type"] == "purchase", "value"].to_numpy()
        * 100.0 + 0.5).astype(np.int64))
    support = np.unique(np.concatenate([a, b]))
    best = (-1, None)
    for v in support:
        dn = abs(int((a <= v).sum()) * len(b)
                 - int((b <= v).sum()) * len(a))
        if dn > best[0]:
            best = (dn, int(v))
    assert (got["n_a"], got["n_b"]) == (len(a), len(b))
    assert (got["d_num"], got["at_cents"]) == best
    assert got["ks"] == float(best[0]) / float(len(a) * len(b))


# ------------------------------------------------------------ A66 ----
def test_records_bruteforce():
    from anomalydetection_ray.stages.detectors import records_batch

    rng = np.random.default_rng(41)
    series = [list(rng.integers(0, 50, size=rng.integers(1, 150)))
              for _ in range(20)]
    series.append([7])                    # one token: expectation 0.0
    series.append(list(rng.integers(0, 1000, size=3000)))
    series.append(list(range(30)))        # every step an upper record
    series.append([9] * 12)               # no records at all
    out = records_batch(_tok_batch(series)).to_pylist()
    for row, s in zip(out, series):
        n = len(s)
        hi = lo = 0
        for i in range(1, n):
            if s[i] > max(s[:i]):
                hi += 1
            if s[i] < min(s[:i]):
                lo += 1
        acc = 0.0
        for i in range(2, n + 1):
            acc = acc + 1.0 / float(i)
        assert (row["n"], row["n_high_records"],
                row["n_low_records"]) == (n, hi, lo)
        assert row["expected_records"] == acc
    assert out[-2]["n_high_records"] == 29   # the pure trend


# ------------------------------------------------------------ J19 ----
def test_last_touch_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["j19_last_touch"](SF).to_pandas()
           .set_index("day").sort_index())
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["ts", "user_id", "event_type"]).to_pandas()
    ev["us"] = ev["ts"].astype("int64")
    W = 7 * 86_400_000_000
    clicks = {u: np.sort(g["us"].to_numpy())
              for u, g in ev[ev["event_type"] == "click"].groupby("user_id")}
    agg = {}
    for _, r in ev[ev["event_type"] == "purchase"].iterrows():
        day = int(r["us"]) // 86_400_000_000
        n, a, s = agg.get(day, (0, 0, 0))
        n += 1
        cs = clicks.get(r["user_id"])
        if cs is not None:
            i = int(np.searchsorted(cs, int(r["us"]), side="left")) - 1
            if i >= 0:
                lag = int(r["us"]) - int(cs[i])
                if lag <= W:
                    a += 1
                    s += lag
        agg[day] = (n, a, s)
    assert sorted(agg) == list(got.index)
    for day, (n, a, s) in agg.items():
        row = got.loc[day]
        assert (row["n_purchases"], row["n_attributed"],
                row["lag_us_sum"]) == (n, a, s)


# ------------------------------------------------------------ A67 ----
def test_cusum_squares_bruteforce():
    from anomalydetection_ray.stages.detectors import (_split_double,
                                                       cusum_squares_batch)

    rng = np.random.default_rng(43)
    series = [list(rng.integers(0, 30, size=rng.integers(1, 120)))
              for _ in range(20)]
    series.append([1] * 40 + [20] * 40)    # planted variance break
    series.append([0, 0, 0])               # Q = 0 -> NULL
    out = cusum_squares_batch(_tok_batch(series)).to_pylist()
    for row, s in zip(out, series):
        n = len(s)
        xs = [t * t for t in s]
        Q = sum(xs)
        if n < 2 or Q == 0:
            assert row["cusum_sq"] is None and row["at_k"] is None
            continue
        best, best_k, qk = 0, 0, 0
        for k in range(1, n):
            qk += xs[k - 1]
            a = abs(n * qk - k * Q)
            if a > best:
                best, best_k = a, k
        assert row["at_k"] == best_k
        assert row["cusum_sq"] == \
            _split_double(best) / _split_double(n * Q)
    assert out[-2]["at_k"] == 40            # the planted break point


# ------------------------------------------------------------ W46 ----
def test_transition_entropy_bruteforce(ray_session):
    from collections import Counter

    import __ray_entry__ as e

    got = (e.queries()["w46_transition_entropy"](SF).to_pandas()
           .set_index("user_id").sort_index())
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "ts", "user_id",
                                "event_type"]).to_pandas()
    ev["us"] = ev["ts"].astype("int64")
    assert len(got) == ev["user_id"].nunique()
    for uid, grp in ev.groupby("user_id"):
        grp = grp.sort_values(["us", "event_id"])
        ts_ = grp["event_type"].tolist()
        pairs = Counter(zip(ts_[:-1], ts_[1:]))
        total = sum(pairs.values())
        row = got.loc[uid]
        assert (row["n_transitions"], row["n_pairs"]) \
            == (total, len(pairs))
        if total == 0:
            assert np.isnan(row["trans_entropy"])
            continue
        acc = 0.0
        for k in sorted(pairs):
            p = float(pairs[k]) / float(total)
            acc = acc + p * math.log(p)
        assert row["trans_entropy"] == -acc


# ------------------------------------------------------------ D22 ----
def test_normalized_dedup_bruteforce(ray_session):
    import re
    import tempfile

    import __ray_entry__ as e

    got = e.queries()["d22_normalized_dedup"](SF).to_pandas().iloc[0]
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["text"]).to_pandas()
    norm = docs["text"].map(
        lambda t: re.sub(r"\s+", " ", t).strip().lower())
    assert got["n_docs"] == len(docs)
    assert got["n_raw_groups"] == docs["text"].nunique()
    assert got["n_norm_groups"] == norm.nunique()
    assert got["extra_dups"] == docs["text"].nunique() - norm.nunique()

    # planted blind spot: case/whitespace variants of one doc
    with tempfile.TemporaryDirectory() as tmp:
        base = pq.read_table(f"{SF}/documents.parquet")
        texts = base.column("text").to_pylist()[:10]
        texts += [texts[0].upper(), "  " + texts[1] + "  ",
                  texts[2].replace(" ", "  ")]
        import pyarrow as pa_
        t = pa_.table({
            "doc_id": pa_.array(range(len(texts)), type=pa_.int64()),
            "text": pa_.array(texts),
            "lang": pa_.array(["en"] * len(texts)),
            "source": pa_.array(["s0"] * len(texts)),
            "n_chars": pa_.array([len(x) for x in texts],
                                 type=pa_.int64()),
        })
        pq.write_table(t, f"{tmp}/documents.parquet")
        planted = e.queries()["d22_normalized_dedup"](tmp).to_pandas().iloc[0]
        assert planted["n_docs"] == 13
        assert planted["n_raw_groups"] == 13       # all raw-distinct
        assert planted["n_norm_groups"] == 10      # 3 variants merge
        assert planted["extra_dups"] == 3


# ------------------------------------------------------------ A68 ----
def test_von_neumann_bruteforce(ray_session):
    from anomalydetection_ray.stages.detectors import _split_double

    import __ray_entry__ as e

    got = (e.queries()["a68_von_neumann"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts", "value"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    ev["v100"] = np.floor(ev["value"].to_numpy() * 100.0
                          + 0.5).astype(np.int64)
    for t, grp in ev.groupby("event_type"):
        daily = grp.groupby("day")["v100"].sum().sort_index()
        xs = [int(v) for v in daily.to_numpy()]
        n = len(xs)
        S, Q = sum(xs), sum(v * v for v in xs)
        d2 = sum((b - a) ** 2 for a, b in zip(xs, xs[1:]))
        row = got.loc[t]
        assert (row["n_days"], row["d2_sum"]) == (n, d2)
        var_num = n * Q - S * S
        if n >= 2 and var_num > 0:
            assert row["vn"] == \
                _split_double(n * d2) / _split_double(var_num)
        else:
            assert np.isnan(row["vn"])


# ------------------------------------------------------------ K20 ----
def test_confusion_matrix_consistency(ray_session):
    """K20's matrix must marginalize to K16's purity rows and to the
    true label counts of the embeddings table."""
    import __ray_entry__ as e

    q = e.queries()
    cm = q["k20_confusion_matrix"](SF).to_pandas()
    k16 = q["k16_cluster_purity"](SF).to_pandas().set_index("cid")
    emb = pq.read_table(f"{SF}/embeddings.parquet",
                        columns=["label"]).to_pandas()
    # row marginal == cluster sizes; argmax == (top_label, top_count)
    for cid, grp in cm.groupby("cid"):
        row = k16.loc[cid]
        assert grp["n"].sum() == row["n_vecs"]
        top = grp.sort_values(["n", "label"],
                              ascending=[False, True]).iloc[0]
        assert (top["label"], top["n"]) \
            == (row["top_label"], row["top_count"])
    # column marginal == true label histogram
    lab_hist = emb["label"].value_counts()
    for label, grp in cm.groupby("label"):
        assert grp["n"].sum() == lab_hist[label]


# ------------------------------------------------------------- E6 ----
def test_for_roundtrip_and_size_parity():
    from anomalydetection_ray.codecs import (for_decode, for_encode,
                                             for_size_batch)

    rng = np.random.default_rng(53)
    series = [
        [5],
        [7] * 200,                                    # w = 0 blocks
        list(rng.integers(-1000, 50_000, size=300)),
        list(rng.integers(0, 3, size=129)),           # partial block
        [2**31 - 1, -2**31, 0],                       # full int32 range
        list(rng.integers(0, 2**20, size=513)),
    ]
    for s in series:
        arr = np.asarray(s, dtype=np.int64)
        enc = for_encode(arr)
        assert np.array_equal(for_decode(enc, len(arr)), arr)
    batch = _tok_batch(series)
    out = for_size_batch(batch).to_pylist()
    for row, s in zip(out, series):
        enc = for_encode(np.asarray(s, dtype=np.int64))
        assert row["n_bytes"] == len(enc)
        assert row["n_blocks"] == (len(s) + 127) // 128
        assert row["bytes_per_token"] == len(enc) / len(s)


# -------------------------------------------------------- Q24/W47 ----
def test_temperature_mixture_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["q24_temperature_mixture"](SF).to_pandas()
           .set_index("source"))
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["source"]).to_pandas()
    counts = docs["source"].value_counts().sort_index()
    total = 0.0
    for s in counts.index:
        total = total + math.sqrt(float(counts[s]))
    assert list(got.index) == list(counts.index)
    for s in counts.index:
        row = got.loc[s]
        w = math.sqrt(float(counts[s]))
        assert (row["n_docs"], row["weight"]) == (counts[s], w)
        assert row["share"] == w / total
    assert abs(got["share"].sum() - 1.0) < 1e-12


def test_burst_runs_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["w47_burst_runs"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    lo, hi = int(ev["day"].min()), int(ev["day"].max())
    d = hi - lo + 1
    for t, grp in ev.groupby("event_type"):
        counts = grp.groupby("day").size()
        S = int(counts.sum())
        burst = sorted(int(day) for day, c in counts.items()
                       if d * int(c) > 2 * S)
        runs = []
        for day in burst:
            if runs and day == runs[-1][-1] + 1:
                runs[-1].append(day)
            else:
                runs.append([day])
        row = got.loc[t]
        assert (row["n_days"], row["n_burst_days"],
                row["n_burst_runs"]) == (d, len(burst), len(runs))
        assert row["longest_run"] == \
            (max(len(r) for r in runs) if runs else 0)


# ------------------------------------------------------------ T22 ----
def test_balance_audit_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["t22_balance_audit"](SF).to_pandas()
           .set_index("source"))
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["source", "text"]).to_pandas()
    for src, grp in docs.groupby("source"):
        bad = sum(1 for t in grp["text"]
                  if t.count("(") != t.count(")")
                  or t.count('"') % 2 == 1)
        row = got.loc[src]
        assert (row["n_docs"], row["n_unbalanced"]) == (len(grp), bad)
        assert row["unbalanced_share"] == \
            float(bad) / float(len(grp))


# ------------------------------------------------------------ X10 ----
def test_near_search_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["x10_near_search"](SF).to_pandas()
           .set_index("doc_id").sort_index())
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    expect = {}
    for _, r in docs.iterrows():
        ws = [w for w in r["text"].split(" ") if w != ""]
        p1 = [i for i, w in enumerate(ws) if w == "batch"]
        p2 = [i for i, w in enumerate(ws) if w == "stream"]
        pairs = [(a, b) for a in p1 for b in p2 if 0 < b - a <= 5]
        if pairs:
            expect[int(r["doc_id"])] = (len(pairs),
                                        min(a for a, _ in pairs))
    assert sorted(expect) == list(got.index)
    for d, (n, fp) in expect.items():
        row = got.loc[d]
        assert (row["n_pairs"], row["first_pos"]) == (n, fp)


# ------------------------------------------------------------ W48 ----
def test_top_paths_bruteforce(ray_session):
    from collections import Counter

    import __ray_entry__ as e

    got = e.queries()["w48_top_paths"](SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "ts", "user_id",
                                "event_type"]).to_pandas()
    ev["us"] = ev["ts"].astype("int64")
    tri = Counter()
    for _, grp in ev.groupby("user_id"):
        seq = grp.sort_values(["us", "event_id"])["event_type"].tolist()
        for i in range(len(seq) - 2):
            tri[(seq[i], seq[i + 1], seq[i + 2])] += 1
    top = sorted(tri.items(),
                 key=lambda kv: (-kv[1], kv[0]))[:10]
    got_rows = sorted(
        ((r["t1"], r["t2"], r["t3"]), int(r["n"]))
        for _, r in got.iterrows())
    assert got_rows == sorted(top)


# ------------------------------------------------------------ D23 ----
def test_cluster_keep_best_consistency(ray_session):
    """D23's survivors must be exactly: per dedup_clusters cluster the
    (max n_chars, min doc_id) member, plus every unclustered doc."""
    import __ray_entry__ as e

    q = e.queries()
    got = (q["d23_cluster_keep_best"](SF).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    cl = q["dedup_clusters"](SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "n_chars"]).to_pandas()
    merged = docs.merge(cl, on="doc_id", how="left")
    merged["cluster"] = merged["cluster"].fillna(
        merged["doc_id"]).astype("int64")
    expect = (merged.sort_values(["cluster", "n_chars", "doc_id"],
                                 ascending=[True, False, True])
              .groupby("cluster").head(1)
              .sort_values("doc_id").reset_index(drop=True))
    assert len(got) == len(expect)
    assert (got["doc_id"].to_numpy()
            == expect["doc_id"].to_numpy()).all()
    assert (got["cluster"].to_numpy()
            == expect["cluster"].to_numpy()).all()
    # every non-surviving doc shares a cluster with a longer survivor
    assert len(got) == merged["cluster"].nunique()


# ------------------------------------------------------------ A69 ----
def test_jarque_bera_bruteforce(ray_session):
    from anomalydetection_ray.stages.detectors import _split_double

    import __ray_entry__ as e

    got = (e.queries()["a69_jarque_bera"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts", "value"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    ev["v100"] = np.floor(ev["value"].to_numpy() * 100.0
                          + 0.5).astype(np.int64)
    for t, grp in ev.groupby("event_type"):
        xs = [int(v) for v in
              grp.groupby("day")["v100"].sum().to_numpy()]
        n = len(xs)
        s1, s2 = sum(xs), sum(v * v for v in xs)
        s3, s4 = sum(v ** 3 for v in xs), sum(v ** 4 for v in xs)
        m2s = n * s2 - s1 * s1
        m3s = n * n * s3 - 3 * n * s1 * s2 + 2 * s1 ** 3
        m4s = (n ** 3 * s4 - 4 * n * n * s1 * s3
               + 6 * n * s1 * s1 * s2 - 3 * s1 ** 4)
        row = got.loc[t]
        assert row["n_days"] == n
        if n >= 2 and m2s > 0:
            r = _split_double(m3s) / _split_double(m2s)
            skew2 = (r * r) / _split_double(m2s)
            kurt = (_split_double(m4s)
                    / (_split_double(m2s) * _split_double(m2s)) - 3.0)
            assert row["skew2"] == skew2
            assert row["ex_kurt"] == kurt
            assert row["jb"] == \
                (float(n) / 6.0) * (skew2 + (kurt * kurt) / 4.0)
        else:
            assert np.isnan(row["jb"])


# ------------------------------------------------------------ W49 ----
def test_weekday_strength_bruteforce(ray_session):
    from anomalydetection_ray.stages.detectors import _split_double

    import __ray_entry__ as e

    got = (e.queries()["w49_weekday_strength"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    lo, hi = int(ev["day"].min()), int(ev["day"].max())
    d = hi - lo + 1
    wd = np.arange(lo, hi + 1) % 7
    for t, grp in ev.groupby("event_type"):
        grid = np.zeros(d, dtype=np.int64)
        for day, c in grp.groupby("day").size().items():
            grid[int(day) - lo] = int(c)
        med = np.zeros(7, dtype=np.int64)
        for w in range(7):
            vals = sorted(grid[wd == w].tolist())
            if vals:
                med[w] = vals[(len(vals) + 1) // 2 - 1]
        resid = grid - med[wd]
        xs = [int(v) for v in grid]
        rs = [int(v) for v in resid]
        num_x = d * sum(v * v for v in xs) - sum(xs) ** 2
        num_r = d * sum(v * v for v in rs) - sum(rs) ** 2
        row = got.loc[t]
        assert (row["n_days"], row["med_sum"]) == (d, int(med.sum()))
        if num_x > 0:
            assert row["strength"] == \
                1.0 - _split_double(num_r) / _split_double(num_x)
        else:
            assert np.isnan(row["strength"])


# ------------------------------------------------------------ W50 ----
def test_tenure_activity_corr_bruteforce(ray_session):
    from anomalydetection_ray.stages.detectors import _split_double

    import __ray_entry__ as e

    got = e.queries()["w50_tenure_activity_corr"](SF).to_pandas().iloc[0]
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id", "ts"]).to_pandas()
    ev["us"] = ev["ts"].astype("int64")
    g = ev.groupby("user_id")["us"].agg(["min", "max", "count"])
    x = [(int(b) - int(a)) // 3_600_000_000
         for a, b in zip(g["min"], g["max"])]
    y = [int(v) for v in g["count"]]
    n = len(x)
    sx, sy = sum(x), sum(y)
    sxx = sum(v * v for v in x)
    syy = sum(v * v for v in y)
    sxy = sum(a * b for a, b in zip(x, y))
    num = n * sxy - sx * sy
    dx, dy = n * sxx - sx * sx, n * syy - sy * sy
    assert (got["n_users"], got["sxy"]) == (n, sxy)
    assert got["r"] == _split_double(num) / (
        math.sqrt(_split_double(dx)) * math.sqrt(_split_double(dy)))


# ------------------------------------------------------------ A70 ----
def test_df_slope_bruteforce(ray_session):
    from anomalydetection_ray.stages.detectors import _split_double

    import __ray_entry__ as e

    got = (e.queries()["a70_df_slope"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts", "value"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    ev["v100"] = np.floor(ev["value"].to_numpy() * 100.0
                          + 0.5).astype(np.int64)
    for t, grp in ev.groupby("event_type"):
        xs = [int(v) for v in
              grp.groupby("day")["v100"].sum().sort_index().to_numpy()]
        n, m = len(xs), len(xs) - 1
        row = got.loc[t]
        assert row["n_days"] == n
        if m >= 2:
            z = xs[:-1]
            y = [b - a for a, b in zip(xs, xs[1:])]
            num = m * sum(a * b for a, b in zip(z, y)) \
                - sum(z) * sum(y)
            den = m * sum(v * v for v in z) - sum(z) ** 2
            assert row["df_num"] == num
            if den > 0:
                assert row["beta"] == \
                    _split_double(num) / _split_double(den)


# ------------------------------------------------------------ W51 ----
def test_robust_volatility_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["w51_robust_volatility"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts", "value"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    ev["v100"] = np.floor(ev["value"].to_numpy() * 100.0
                          + 0.5).astype(np.int64)
    for t, grp in ev.groupby("event_type"):
        xs = grp.groupby("day")["v100"].sum().sort_index().to_numpy()
        diffs = sorted(abs(int(b) - int(a))
                       for a, b in zip(xs, xs[1:]))
        row = got.loc[t]
        assert (row["n_days"], row["n_changes"]) \
            == (len(xs), len(diffs))
        if diffs:
            assert row["med_abs_change"] == \
                diffs[(len(diffs) + 1) // 2 - 1]
            assert row["max_abs_change"] == diffs[-1]


# ------------------------------------------------------------- C8 ----
def test_quality_sweep_consistency(ray_session):
    """C8's retained counts must be monotone non-increasing in the
    threshold and agree with a direct scan of quality_scores_full."""
    import __ray_entry__ as e

    q = e.queries()
    got = (q["c8_quality_sweep"](SF).to_pandas()
           .sort_values("threshold").reset_index(drop=True))
    scores = q["quality_scores_full"](SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "n_chars"]).to_pandas()
    m = scores.merge(docs, on="doc_id")
    assert list(got["threshold"]) == [0.2, 0.4, 0.6, 0.8]
    prev = None
    for _, r in got.iterrows():
        keep = m[m["quality_score"] >= r["threshold"]]
        assert r["n_docs"] == len(keep)
        assert r["n_chars"] == int(keep["n_chars"].sum())
        if prev is not None:
            assert r["n_docs"] <= prev
        prev = r["n_docs"]


# ------------------------------------------------------------ W52 ----
def test_transition_times_bruteforce(ray_session):
    from collections import defaultdict

    import __ray_entry__ as e

    got = (e.queries()["w52_transition_times"](SF).to_pandas()
           .set_index(["t1", "t2"]))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "ts", "user_id",
                                "event_type"]).to_pandas()
    ev["us"] = ev["ts"].astype("int64")
    agg = defaultdict(lambda: [0, 0])
    for _, grp in ev.groupby("user_id"):
        grp = grp.sort_values(["us", "event_id"])
        ts_ = grp["event_type"].tolist()
        us_ = grp["us"].tolist()
        for i in range(len(ts_) - 1):
            a = agg[(ts_[i], ts_[i + 1])]
            a[0] += 1
            a[1] += (us_[i + 1] - us_[i]) // 1_000_000
    assert len(got) == len(agg)
    for k, (n, s) in agg.items():
        row = got.loc[k]
        assert (row["n"], row["gap_s_sum"]) == (n, s)
        assert row["mean_gap_s"] == float(s) / float(n)


# ------------------------------------------------------------ D25 ----
def test_trigram_redundancy_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["d25_trigram_redundancy"](SF).to_pandas()
           .set_index("source"))
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["source", "text"]).to_pandas()
    for src, grp in docs.groupby("source"):
        total = 0
        seen = set()
        for t in grp["text"]:
            ws = [w for w in t.split(" ") if w != ""]
            for i in range(len(ws) - 2):
                total += 1
                seen.add((ws[i], ws[i + 1], ws[i + 2]))
        row = got.loc[src]
        assert (row["n_total"], row["n_distinct"]) \
            == (total, len(seen))
        if total:
            assert row["distinct_share"] == \
                float(len(seen)) / float(total)


# ------------------------------------------------------------ A71 ----
def test_daily_mad_outliers_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["a71_daily_mad_outliers"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts", "value"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    ev["v100"] = np.floor(ev["value"].to_numpy() * 100.0
                          + 0.5).astype(np.int64)
    for t, grp in ev.groupby("event_type"):
        xs = sorted(int(v) for v in grp.groupby("day")["v100"].sum())
        n = len(xs)
        med = xs[(n + 1) // 2 - 1]
        devs = sorted(abs(v - med) for v in xs)
        mad = devs[(n + 1) // 2 - 1]
        flagged = sum(1 for v in xs
                      if 10000 * abs(v - med) > 51891 * mad)
        row = got.loc[t]
        assert (row["n_days"], row["med_cents"], row["mad_cents"],
                row["n_flagged"]) == (n, med, mad, flagged)


# ------------------------------------------------------------ G42 ----
def test_activity_hist_bruteforce(ray_session):
    from collections import Counter

    import __ray_entry__ as e

    got = (e.queries()["g42_activity_hist"](SF).to_pandas()
           .set_index("bucket").sort_index())
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id"]).to_pandas()
    counts = ev["user_id"].value_counts()
    hist = Counter(int(n).bit_length() - 1 for n in counts)
    assert sorted(hist) == list(got.index)
    for b, c in hist.items():
        assert int(got.loc[b, "n_users"]) == c
    assert int(got["n_users"].sum()) == len(counts)


# ------------------------------------------------------------ Q25 ----
def test_waterfill_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["q25_waterfill_allocation"](SF).to_pandas()
           .set_index("source").sort_index())
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["source", "text"]).to_pandas()
    counts = {}
    for src, grp in docs.groupby("source"):
        counts[src] = sum(
            sum(1 for w in t.split(" ") if w != "")
            for t in grp["text"])
    total = sum(counts.values())
    budget = total // 2
    # exact brute force: try every cap until the budget breaks
    best = 0
    for cap in range(0, max(counts.values()) + 1):
        if sum(min(n, cap) for n in counts.values()) <= budget:
            best = cap
        else:
            break
    alloc = {s: min(n, best) for s, n in counts.items()}
    leftover = budget - sum(alloc.values())
    assert list(got.index) == sorted(counts)
    for s in counts:
        row = got.loc[s]
        assert (row["n_words"], row["alloc"], row["cap"],
                row["leftover"]) == (counts[s], alloc[s], best,
                                     leftover)
    # the cap is maximal: cap+1 must break the budget
    assert sum(min(n, best + 1) for n in counts.values()) > budget


# ------------------------------------------------------------ V22 ----
def test_bpe_candidates_bruteforce(ray_session):
    from collections import Counter

    import __ray_entry__ as e

    got = e.queries()["v22_bpe_candidates"](SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["text"]).to_pandas()
    pairs = Counter()
    for t in docs["text"]:
        b = t.encode("utf-8")
        for i in range(len(b) - 1):
            if b[i] != 0x20 and b[i + 1] != 0x20:
                pairs[(b[i], b[i + 1])] += 1
    top = sorted(pairs.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    got_rows = [((int(r["b1"]), int(r["b2"])), int(r["n"]))
                for _, r in got.iterrows()]
    assert sorted(got_rows) == sorted(top)


# ------------------------------------------------------------- C9 ----
def test_abandoned_sessions_bruteforce(ray_session):
    from collections import defaultdict

    import __ray_entry__ as e

    got = (e.queries()["c9_abandoned_sessions"](SF).to_pandas()
           .set_index("day").sort_index())
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "ts", "user_id",
                                "event_type"]).to_pandas()
    ev["us"] = ev["ts"].astype("int64")
    agg = defaultdict(lambda: [0, 0, 0])
    GAP = 43_200_000_000
    for _, grp in ev.groupby("user_id"):
        grp = grp.sort_values(["us", "event_id"])
        sessions = []
        for _, r in grp.iterrows():
            if not sessions or r["us"] - sessions[-1][-1][0] > GAP:
                sessions.append([])
            sessions[-1].append((r["us"], r["event_type"]))
        for sess in sessions:
            day = sess[0][0] // 86_400_000_000
            types = [t for _, t in sess]
            a = agg[day]
            a[0] += 1
            a[1] += types.count("click") >= 1 \
                and types.count("purchase") == 0
            a[2] += types.count("purchase") > 0
    assert sorted(agg) == list(got.index)
    for day, (ns, ab, cv) in agg.items():
        row = got.loc[day]
        assert (row["n_sessions"], row["n_abandoned"],
                row["n_converted"]) == (ns, ab, cv)


# ------------------------------------------------------------ K21 ----
def test_cluster_radii_bruteforce(ray_session):
    import math

    from anomalydetection_ray.pipelines.kmeans import (ESCALE,
                                                       kmeans_state)
    from anomalydetection_ray.stages.detectors import _split_double

    import __ray_entry__ as e

    q = e.queries()
    got = (q["k21_cluster_radii"](SF).to_pandas()
           .set_index("cid").sort_index())
    asg = q["kmeans_assign"](SF).to_pandas().set_index("vec_id")
    cnt, s, dim = kmeans_state(SF)
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    qm = np.floor(np.stack(emb["embedding"].to_numpy())
                  * ESCALE + 0.5).astype(np.int64)
    by_cid = {}
    for vid, row in zip(emb["vec_id"].to_numpy(), qm):
        c = int(asg.loc[int(vid), "cid"])
        cc = int(cnt[c])
        r2s = sum((cc * int(row[p]) - int(s[c][p])) ** 2
                  for p in range(dim))
        by_cid.setdefault(c, []).append(r2s)
    assert sorted(by_cid) == list(got.index)
    for c, vals in by_cid.items():
        vals.sort()
        m = len(vals)
        mx, md = vals[-1], vals[(m + 1) // 2 - 1]
        den = float(int(cnt[c])) * float(ESCALE)
        row = got.loc[c]
        assert (row["n"], row["r2max_hi"], row["r2max_lo"]) \
            == (m, mx >> 32, mx & 0xFFFFFFFF)
        assert row["radius_max"] == math.sqrt(_split_double(mx)) / den
        assert row["radius_med"] == math.sqrt(_split_double(md)) / den


# ------------------------------------------------------------ A72 ----
def test_slope_break_bruteforce():
    from fractions import Fraction

    from anomalydetection_ray.stages.detectors import slope_break_batch

    rng = np.random.default_rng(61)
    series = [list(rng.integers(0, 100, size=rng.integers(1, 80)))
              for _ in range(15)]
    # planted slope break: up-ramp then flat
    series.append(list(range(0, 120, 3)) + [117] * 40)
    out = slope_break_batch(_tok_batch(series)).to_pylist()
    for row, sr in zip(out, series):
        d = [b - a for a, b in zip(sr, sr[1:])]
        m = len(d)
        assert row["n"] == len(sr)
        if m < 2:
            assert row["split_pos"] is None
            continue
        S = sum(d)
        best_k, best_gap = None, Fraction(-1)
        pk = 0
        for k in range(1, m):
            pk += d[k - 1]
            gap = Fraction(abs(pk * m - S * k), k * (m - k))
            if gap > best_gap:
                best_gap, best_k = gap, k
        assert row["split_pos"] == best_k
        pk = sum(d[:best_k])
        assert row["slope_l"] == float(pk) / float(best_k)
        assert row["slope_r"] == float(S - pk) / float(m - best_k)
    # planted break: 39 ramp diffs (range(0,120,3) has 40 values),
    # then 41 zero diffs -> split at diff index 39
    assert out[-1]["split_pos"] == 39


def test_mean_side_bruteforce():
    from anomalydetection_ray.stages.detectors import mean_side_batch

    rng = np.random.default_rng(73)
    series = [list(rng.integers(0, 50, size=rng.integers(1, 60)))
              for _ in range(20)]
    series.append([5, 5, 5, 5])            # constant: nothing above/below
    series.append([0, 10, 0, 10, 0, 10])   # alternating: crosses every step
    out = mean_side_batch(_tok_batch(series)).to_pylist()
    for row, sr in zip(out, series):
        n, s = len(sr), sum(sr)
        above = [v * n > s for v in sr]
        assert row["n"] == n
        assert row["n_above"] == sum(above)
        assert row["n_below"] == sum(v * n < s for v in sr)
        assert row["n_cross"] == sum(a != b for a, b in zip(above, above[1:]))
    assert out[-2]["n_above"] == 0 and out[-2]["n_cross"] == 0
    assert out[-1]["n_cross"] == 5


def test_energy_chunks_bruteforce():
    from anomalydetection_ray.stages.detectors import energy_chunks_batch

    rng = np.random.default_rng(74)
    series = [list(rng.integers(0, 100, size=rng.integers(1, 70)))
              for _ in range(20)]
    series.append([0] * 30 + [50] * 10)    # all energy in the last chunk
    out = energy_chunks_batch(_tok_batch(series)).to_pylist()
    for row, sr in zip(out, series):
        n = len(sr)
        e = [0, 0, 0, 0]
        for i, v in enumerate(sr):
            e[(i * 4) // n] += v * v
        assert [row[f"e{c}"] for c in range(4)] == e
        assert row["e_total"] == sum(e)
        assert row["peak_chunk"] == max(range(4), key=lambda c: (e[c], -c))
    assert out[-1]["peak_chunk"] == 3


def test_extremum_location_bruteforce():
    from anomalydetection_ray.stages.detectors import extremum_location_batch

    rng = np.random.default_rng(76)
    series = [list(rng.integers(0, 20, size=rng.integers(1, 50)))
              for _ in range(20)]
    out = extremum_location_batch(_tok_batch(series)).to_pylist()
    for row, sr in zip(out, series):
        mx, mn = max(sr), min(sr)
        assert row["v_max"] == mx and row["v_min"] == mn
        assert row["first_max_pos"] == sr.index(mx)
        assert row["last_max_pos"] == len(sr) - 1 - sr[::-1].index(mx)
        assert row["first_min_pos"] == sr.index(mn)
        assert row["last_min_pos"] == len(sr) - 1 - sr[::-1].index(mn)


def test_reoccurring_bruteforce():
    from collections import Counter

    from anomalydetection_ray.stages.detectors import reoccurring_batch

    rng = np.random.default_rng(79)
    series = [list(rng.integers(0, 12, size=rng.integers(1, 60)))
              for _ in range(20)]
    series.append([1, 2, 3, 4, 5])          # all unique: zero reoccurring
    out = reoccurring_batch(_tok_batch(series)).to_pylist()
    for row, sr in zip(out, series):
        c = Counter(sr)
        re = {v: k for v, k in c.items() if k >= 2}
        assert row["n_distinct"] == len(c)
        assert row["n_reocc_vals"] == len(re)
        assert row["n_reocc_pts"] == sum(re.values())
        assert row["sum_reocc_vals"] == sum(re.keys())
        assert row["sum_reocc_pts"] == sum(v * k for v, k in re.items())
    assert out[-1]["n_reocc_vals"] == 0


def test_index_mass_quantile_bruteforce():
    from anomalydetection_ray.stages.detectors import index_mass_quantile_batch

    rng = np.random.default_rng(82)
    series = [list(rng.integers(0, 40, size=rng.integers(1, 60)))
              for _ in range(20)]
    series.append([0, 0, 0])                # zero mass: p = 0 everywhere
    series.append([100] + [0] * 20)         # all mass at the head
    out = index_mass_quantile_batch(_tok_batch(series)).to_pylist()
    for row, sr in zip(out, series):
        t = sum(sr)
        assert row["total"] == t
        for q4, col in ((1, "imq_25"), (2, "imq_50"), (3, "imq_75")):
            c = 0
            p = None
            for i, v in enumerate(sr):
                c += v
                if 4 * c >= q4 * t:
                    p = i
                    break
            assert row[col] == p
    assert out[-2]["imq_75"] == 0
    assert out[-1]["imq_75"] == 0


def test_pingpong_bruteforce(ray_session):
    from collections import Counter

    import __ray_entry__ as e

    got = (e.queries()["w54_pingpong"](SF).to_pandas()
           .set_index(["t_a", "t_b"]))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "ts", "user_id",
                                "event_type"]).to_pandas()
    ev["us"] = ev["ts"].astype("int64")
    pp = Counter()
    n_triples = 0
    for _, grp in ev.groupby("user_id"):
        ts_ = grp.sort_values(["us", "event_id"])["event_type"].tolist()
        for i in range(len(ts_) - 2):
            n_triples += 1
            if ts_[i] == ts_[i + 2] and ts_[i] != ts_[i + 1]:
                pp[(ts_[i], ts_[i + 1])] += 1
    assert len(got) == len(pp) + 1
    for k, n in pp.items():
        assert got.loc[k]["n_pingpong"] == n
        assert got.loc[k]["n_triples"] == 0
    tot = got.loc[("__total__", "__total__")]
    assert (tot["n_pingpong"], tot["n_triples"]) == (0, n_triples)


def test_peak_hour_share_bruteforce(ray_session):
    from collections import Counter

    import __ray_entry__ as e

    got = (e.queries()["w53_peak_hour_share"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["hour"] = (ev["ts"].astype("int64") // 3_600_000_000) % 24
    for et, grp in ev.groupby("event_type"):
        c = Counter(grp["hour"].tolist())
        peak_h = min(c, key=lambda h: (-c[h], h))
        row = got.loc[et]
        assert (row["total_n"], row["peak_hour"], row["peak_n"]) \
            == (len(grp), peak_h, c[peak_h])
        assert row["peak_share"] == float(c[peak_h]) / float(len(grp))


def test_trimean_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["g43_trimean"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "value"]).to_pandas()
    ev["v100"] = np.floor(ev["value"] * 100.0 + 0.5).astype("int64")
    for et, grp in ev.groupby("event_type"):
        v = np.sort(grp["v100"].to_numpy())
        n = len(v)
        qv = [int(v[-(-q4 * n // 4) - 1]) for q4 in (1, 2, 3)]
        x4 = qv[0] + 2 * qv[1] + qv[2]
        row = got.loc[et]
        assert (row["n"], row["q1_cents"], row["q2_cents"],
                row["q3_cents"], row["trimean_x4"]) \
            == (n, qv[0], qv[1], qv[2], x4)
        assert row["trimean_cents"] == float(x4) / 4.0


def test_yule_k_bruteforce(ray_session):
    from collections import Counter

    import __ray_entry__ as e

    got = (e.queries()["v24_yule_k"](SF).to_pandas()
           .set_index("source"))
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["source", "text"]).to_pandas()
    for src, grp in docs.groupby("source"):
        c = Counter()
        for t in grp["text"]:
            c.update(w for w in t.split(" ") if w != "")
        n = sum(c.values())
        m2 = sum(f * f for f in c.values())
        row = got.loc[src]
        assert (row["n_words"], row["n_types"]) == (n, len(c))
        assert (int(row["m2_hi"]) << 32) + int(row["m2_lo"]) == m2
        if n:
            from anomalydetection_ray.stages.detectors import \
                _split_double
            assert row["yule_k"] == (_split_double(10000 * (m2 - n))
                                     / _split_double(n * n))


def test_beyond_sigma_bruteforce():
    from anomalydetection_ray.stages.detectors import beyond_sigma_batch

    rng = np.random.default_rng(80)
    series = [list(rng.integers(0, 200, size=rng.integers(1, 80)))
              for _ in range(20)]
    series.append([10] * 20)                # zero variance
    series.append([0] * 30 + [1000])        # one huge outlier
    out = beyond_sigma_batch(_tok_batch(series)).to_pylist()
    for row, sr in zip(out, series):
        n, s = len(sr), sum(sr)
        q = sum(v * v for v in sr)
        y = n * q - s * s
        b1 = sum((v * n - s) ** 2 > y for v in sr)
        b2 = sum((v * n - s) ** 2 > 4 * y for v in sr)
        assert (row["n_beyond_1s"], row["n_beyond_2s"]) == (b1, b2)
    assert out[-2]["n_beyond_1s"] == 0
    assert out[-1]["n_beyond_2s"] == 1


def test_abs_change_bruteforce():
    from anomalydetection_ray.stages.detectors import abs_change_batch

    rng = np.random.default_rng(84)
    series = [list(rng.integers(0, 100, size=rng.integers(1, 60)))
              for _ in range(20)]
    out = abs_change_batch(_tok_batch(series)).to_pylist()
    for row, sr in zip(out, series):
        d = [abs(b - a) for a, b in zip(sr, sr[1:])]
        assert row["sum_abs_change"] == sum(d)
        assert row["max_abs_change"] == (max(d) if d else 0)
        if len(sr) >= 2:
            assert row["mean_abs_change"] == \
                float(sum(d)) / float(len(sr) - 1)
        else:
            assert row["mean_abs_change"] is None


def test_monotone_runs_bruteforce():
    from anomalydetection_ray.stages.detectors import monotone_run_batch

    rng = np.random.default_rng(85)
    series = [list(rng.integers(0, 10, size=rng.integers(1, 60)))
              for _ in range(25)]
    series.append(list(range(15)) + [3, 2, 1, 0])  # 14 ascents, 4 descents

    def brute(sr, up):
        best = cur = 0
        for a, b in zip(sr, sr[1:]):
            step = b > a if up else b < a
            cur = cur + 1 if step else 0
            best = max(best, cur)
        return best

    out = monotone_run_batch(_tok_batch(series)).to_pylist()
    for row, sr in zip(out, series):
        assert row["longest_asc"] == brute(sr, True)
        assert row["longest_desc"] == brute(sr, False)
    assert out[-1]["longest_asc"] == 14
    assert out[-1]["longest_desc"] == 4


def test_symmetry_bruteforce():
    from anomalydetection_ray.stages.detectors import symmetry_batch

    rng = np.random.default_rng(86)
    series = [list(rng.integers(0, 50, size=rng.integers(1, 60)))
              for _ in range(20)]
    series.append([0] * 10 + [100])         # heavily right-skewed
    out = symmetry_batch(_tok_batch(series)).to_pylist()
    for row, sr in zip(out, series):
        n = len(sr)
        med = sorted(sr)[(n + 1) // 2 - 1]
        lhs = 20 * abs(sum(sr) - n * med)
        rhs = n * (max(sr) - min(sr))
        assert (row["median"], row["asym_lhs"], row["asym_rhs"]) \
            == (med, lhs, rhs)
        assert row["is_asymmetric"] == (lhs > rhs)
    assert out[-1]["is_asymmetric"]


def test_simpson_day_bruteforce(ray_session):
    from collections import Counter, defaultdict

    import __ray_entry__ as e

    got = (e.queries()["g44_simpson_day"](SF).to_pandas()
           .set_index("day"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    days = defaultdict(Counter)
    for d, et in zip(ev["day"], ev["event_type"]):
        days[d][et] += 1
    assert len(got) == len(days)
    for d, c in days.items():
        n = sum(c.values())
        num = sum(k * (k - 1) for k in c.values())
        row = got.loc[d]
        assert (row["n"], row["simpson_num"], row["simpson_den"]) \
            == (n, num, n * (n - 1))
        if n >= 2:
            assert row["p_same_type"] == \
                float(num) / float(n * (n - 1))


def test_binned_entropy_bruteforce():
    from anomalydetection_ray.stages.detectors import binned_entropy_batch

    rng = np.random.default_rng(83)
    series = [list(rng.integers(0, 50257, size=rng.integers(1, 80)))
              for _ in range(20)]
    series.append([100] * 30)               # one bin -> entropy 0
    out = binned_entropy_batch(_tok_batch(series)).to_pylist()
    for row, sr in zip(out, series):
        n = len(sr)
        c = [0] * 10
        for v in sr:
            c[v // 5026] += 1
        acc = 0.0
        for cb in c:
            if cb:
                p = float(cb) / float(n)
                acc = acc + p * math.log(p)
        assert row["n_bins_used"] == sum(1 for cb in c if cb)
        assert row["entropy"] == -acc
    assert out[-1]["entropy"] == 0.0


def test_time_to_kth_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["w55_time_to_kth"](SF).to_pandas()
           .set_index("user_id"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "ts", "user_id"]).to_pandas()
    ev["us"] = ev["ts"].astype("int64")
    n_users = 0
    for uid, grp in ev.groupby("user_id"):
        n_users += 1
        us = grp.sort_values(["us", "event_id"])["us"].tolist()
        row = got.loc[uid]
        assert row["n_events"] == len(us)
        if len(us) >= 5:
            assert row["latency_s"] == (us[4] - us[0]) // 1_000_000
        else:
            assert np.isnan(row["latency_s"])
    assert len(got) == n_users


def test_word_shapes_bruteforce(ray_session):
    import re
    from collections import Counter

    import __ray_entry__ as e

    got = (e.queries()["t23_word_shapes"](SF).to_pandas()
           .set_index(["source", "shape"]))
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["source", "text"]).to_pandas()
    pats = [("num", re.compile(r"^[0-9]+$")),
            ("caps", re.compile(r"^[A-Z][A-Z]+$")),
            ("title", re.compile(r"^[A-Z][a-z]*$")),
            ("lower", re.compile(r"^[a-z]+$"))]
    exp = Counter()
    for src, t in zip(docs["source"], docs["text"]):
        for w in t.split(" "):
            if w == "":
                continue
            for name, p in pats:
                if p.match(w):
                    exp[(src, name)] += 1
                    break
            else:
                exp[(src, "other")] += 1
    assert len(got) == len(exp)
    for k, n in exp.items():
        assert got.loc[k]["n_words"] == n


def test_hapax_sichel_bruteforce(ray_session):
    from collections import Counter

    import __ray_entry__ as e

    got = (e.queries()["v25_hapax_sichel"](SF).to_pandas()
           .set_index("source"))
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["source", "text"]).to_pandas()
    for src, grp in docs.groupby("source"):
        c = Counter()
        for t in grp["text"]:
            c.update(w for w in t.split(" ") if w != "")
        v1 = sum(1 for f in c.values() if f == 1)
        v2 = sum(1 for f in c.values() if f == 2)
        row = got.loc[src]
        assert (row["n_tokens"], row["n_types"], row["v1"],
                row["v2"]) == (sum(c.values()), len(c), v1, v2)
        assert row["hapax_share"] == float(v1) / float(len(c))
        assert row["sichel_s"] == float(v2) / float(len(c))


def test_peak_to_median_bruteforce(ray_session):
    from collections import Counter

    import __ray_entry__ as e

    got = (e.queries()["g45_peak_to_median"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    for et, grp in ev.groupby("event_type"):
        c = sorted(Counter(grp["day"].tolist()).values())
        med = c[(len(c) + 1) // 2 - 1]
        row = got.loc[et]
        assert (row["n_days"], row["peak_daily"], row["median_daily"]) \
            == (len(c), c[-1], med)
        assert row["peak_to_median"] == float(c[-1]) / float(med)


def test_c3_bruteforce():
    from anomalydetection_ray.stages.detectors import _split_double, c3_batch

    rng = np.random.default_rng(87)
    series = [list(rng.integers(0, 50257, size=rng.integers(1, 80)))
              for _ in range(20)]
    series.append([50256] * 50)             # max-magnitude products
    out = c3_batch(_tok_batch(series)).to_pylist()
    for row, sr in zip(out, series):
        n = len(sr)
        if n < 3:
            assert row["c3"] is None
            continue
        tot = sum(sr[i] * sr[i + 1] * sr[i + 2] for i in range(n - 2))
        assert (int(row["c3_hi"]) << 32) + int(row["c3_lo"]) == tot
        assert row["c3"] == _split_double(tot) / float(n - 2)
    assert ((int(out[-1]["c3_hi"]) << 32) + int(out[-1]["c3_lo"])
            == 48 * 50256 ** 3)


def test_source_reweight_bruteforce(ray_session):
    from collections import Counter

    import __ray_entry__ as e

    got = (e.queries()["q28_source_reweight"](SF).to_pandas()
           .set_index("source"))
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["source"]).to_pandas()
    c = Counter(docs["source"])
    total, k = sum(c.values()), len(c)
    assert len(got) == k
    for src, n in c.items():
        row = got.loc[src]
        assert (row["n_docs"], row["n_total"], row["n_sources"]) \
            == (n, total, k)
        assert row["weight"] == float(total) / float(n * k)
    # weighted doc mass is uniform across sources
    assert all(abs(got.loc[s]["weight"] * c[s] - total / k) < 1e-6
               for s in c)


def test_return_gap_bruteforce(ray_session):
    from collections import Counter

    import __ray_entry__ as e

    got = (e.queries()["w56_return_gap_hist"](SF).to_pandas()
           .set_index("gap_days"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["ts", "user_id"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    gaps = Counter()
    for _, grp in ev.groupby("user_id"):
        days = sorted(set(grp["day"]))
        gaps[days[1] - days[0] if len(days) >= 2 else -1] += 1
    assert len(got) == len(gaps)
    for g, n in gaps.items():
        assert got.loc[g]["n_users"] == n


# ---------------------------------------------------------------- A88 ----
def test_bowley_bruteforce():
    from anomalydetection_ray.stages.detectors import bowley_batch

    rng = np.random.default_rng(23)
    series = [rng.integers(0, 500, size=rng.integers(1, 80)).tolist()
              for _ in range(60)]
    series.append([7])                    # n=1: q1=q2=q3 -> NULL skew
    series.append([4, 4, 4, 4, 4])        # constant -> NULL skew
    out = bowley_batch(_tok_batch(series)).to_pylist()
    for row, v in zip(out, series):
        x = sorted(v)
        n = len(x)
        q = [x[(q4 * n + 3) // 4 - 1] for q4 in (1, 2, 3)]
        assert row["n"] == n
        assert (row["q1"], row["q2"], row["q3"]) == tuple(q)
        if q[2] > q[0]:
            assert row["bowley_skew"] == \
                float(q[0] + q[2] - 2 * q[1]) / float(q[2] - q[0])
        else:
            assert row["bowley_skew"] is None


def test_bowley_detects_right_skew():
    from anomalydetection_ray.stages.detectors import bowley_batch

    rng = np.random.default_rng(29)
    sym = rng.integers(0, 100, size=200).tolist()
    skewed = (rng.integers(0, 10, size=140).tolist()
              + rng.integers(50, 100, size=60).tolist())
    out = bowley_batch(_tok_batch([sym, skewed])).to_pylist()
    assert abs(out[0]["bowley_skew"]) < 0.3
    assert out[1]["bowley_skew"] > 0.5


# ---------------------------------------------------------------- A93 ----
def test_last_value_rank_bruteforce():
    from anomalydetection_ray.stages.detectors import last_value_rank_batch

    rng = np.random.default_rng(31)
    series = [rng.integers(0, 40, size=rng.integers(1, 70)).tolist()
              for _ in range(60)]
    series.append([9] * 12)               # all-equal: pct = 1.0
    out = last_value_rank_batch(_tok_batch(series)).to_pylist()
    for row, v in zip(out, series):
        last = v[-1]
        n_less = sum(1 for x in v if x < last)
        n_leq = sum(1 for x in v if x <= last)
        assert row["n"] == len(v)
        assert row["last_value"] == last
        assert row["n_less"] == n_less
        assert row["n_leq"] == n_leq
        assert row["pct_rank"] == float(n_leq) / float(len(v))


# ---------------------------------------------------------------- G46 ----
def test_g46_bowley_by_type_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["g46_bowley_by_type"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "value"]).to_pandas()
    ev["cents"] = np.floor(ev["value"] * 100.0 + 0.5).astype(np.int64)
    for et, grp in ev.groupby("event_type"):
        x = np.sort(grp["cents"].to_numpy())
        n = len(x)
        q = [int(x[(q4 * n + 3) // 4 - 1]) for q4 in (1, 2, 3)]
        row = got.loc[et]
        assert row["n"] == n
        assert (row["q1_cents"], row["q2_cents"], row["q3_cents"]) \
            == tuple(q)
        if q[2] > q[0]:
            assert row["bowley_skew"] == \
                float(q[0] + q[2] - 2 * q[1]) / float(q[2] - q[0])


# ---------------------------------------------------------------- K23 ----
def test_k23_margin_matches_k13_pairs(ray_session):
    import __ray_entry__ as e

    pairs = e.queries()["k13_centroid_cosines"](SF).to_pandas()
    got = (e.queries()["k23_centroid_margin"](SF).to_pandas()
           .set_index("cid"))
    # brute-force the per-centroid argmax from the full K13 matrix
    best: dict[int, tuple[int, float]] = {}
    for _, r in pairs.iterrows():
        for a, b in ((int(r["cid_a"]), int(r["cid_b"])),
                     (int(r["cid_b"]), int(r["cid_a"]))):
            cur = best.get(a)
            c = float(r["cosine"])
            if cur is None or c > cur[1] or (c == cur[1] and b < cur[0]):
                best[a] = (b, c)
    assert set(got.index) == set(best)
    for cid, (b, c) in best.items():
        assert got.loc[cid]["nearest_cid"] == b
        assert got.loc[cid]["max_cosine"] == c


# ---------------------------------------------------------------- A89 ----
def test_time_reversal_bruteforce():
    from anomalydetection_ray.stages.detectors import (_split_double,
                                                       time_reversal_batch)

    rng = np.random.default_rng(37)
    series = [rng.integers(0, 50257, size=rng.integers(1, 90)).tolist()
              for _ in range(60)]
    series.append([5, 5, 5, 5])           # reversible constant: trev 0
    out = time_reversal_batch(_tok_batch(series)).to_pylist()
    for row, v in zip(out, series):
        n = len(v)
        assert row["n"] == n
        if n < 3:
            assert row["trev"] is None
            continue
        total = sum(v[i + 2] * v[i + 2] * v[i + 1]
                    - v[i + 1] * v[i] * v[i] for i in range(n - 2))
        assert row["trev_sign"] == (0 if total == 0
                                    else (1 if total > 0 else -1))
        assert (row["trev_hi"] << 32) + row["trev_lo"] == abs(total)
        assert row["trev"] == _split_double(total) / float(n - 2)


def test_time_reversal_detects_sawtooth_asymmetry():
    from anomalydetection_ray.stages.detectors import time_reversal_batch

    # slow rise, instant fall: strongly time-asymmetric; reversing the
    # series must flip the statistic's sign (trev is odd under reversal
    # up to the boundary triples, exactly odd for this periodic shape)
    saw = ([i for i in range(50)] + [0]) * 4
    out = time_reversal_batch(_tok_batch([saw, saw[::-1]])).to_pylist()
    assert out[0]["trev"] > 100
    assert out[1]["trev"] < -100


# ---------------------------------------------------------------- A90 ----
def test_cid_ce_bruteforce():
    import math

    from anomalydetection_ray.stages.detectors import cid_ce_batch

    rng = np.random.default_rng(43)
    series = [rng.integers(0, 50257, size=rng.integers(1, 90)).tolist()
              for _ in range(60)]
    series.append([3, 3, 3])              # straight line: ce 0
    out = cid_ce_batch(_tok_batch(series)).to_pylist()
    for row, v in zip(out, series):
        if len(v) < 2:
            assert row["ss_diff"] is None
            continue
        ss = sum((v[i + 1] - v[i]) ** 2 for i in range(len(v) - 1))
        assert row["ss_diff"] == ss
        assert row["cid_ce"] == math.sqrt(float(ss))


# ---------------------------------------------------------------- A91 ----
def test_second_derivative_bruteforce():
    from anomalydetection_ray.stages.detectors import (
        _split_double, second_derivative_batch)

    rng = np.random.default_rng(47)
    series = [rng.integers(0, 1000, size=rng.integers(1, 90)).tolist()
              for _ in range(60)]
    series.append([1, 5, 9, 13])          # linear: curvature 0
    series.append([0, 4, 0])              # n=3 overlap at i=1
    out = second_derivative_batch(_tok_batch(series)).to_pylist()
    for row, v in zip(out, series):
        n = len(v)
        if n < 3:
            assert row["msdc"] is None
            continue
        num = sum(v[i + 2] - 2 * v[i + 1] + v[i] for i in range(n - 2))
        assert row["d2_num"] == num
        assert row["msdc"] == _split_double(num) / float(2 * (n - 2))
    assert out[-2]["msdc"] == 0.0
    assert out[-1]["d2_num"] == -8        # (0-4) - (4-0)


# ---------------------------------------------------------------- A94 ----
def test_peaks_bruteforce():
    from anomalydetection_ray.stages.detectors import peaks_batch

    rng = np.random.default_rng(53)
    series = [rng.integers(0, 30, size=rng.integers(1, 90)).tolist()
              for _ in range(60)]
    series.append([1, 9, 1, 9, 1, 9, 1])  # alternating: 3 support-1 peaks
    out = peaks_batch(_tok_batch(series)).to_pylist()
    for row, v in zip(out, series):
        n = len(v)
        p1 = sum(1 for i in range(1, n - 1)
                 if v[i] > v[i - 1] and v[i] > v[i + 1])
        p2 = sum(1 for i in range(2, n - 2)
                 if all(v[i] > v[i + d] for d in (-2, -1, 1, 2)))
        assert row["n_peaks1"] == p1
        assert row["n_peaks2"] == p2
    assert out[-1]["n_peaks1"] == 3 and out[-1]["n_peaks2"] == 0


# ---------------------------------------------------------------- Q29 ----
def test_q29_shipping_priority_bruteforce(ray_session):
    import duckdb

    import __ray_entry__ as e

    got = e.queries()["q29_shipping_priority"](SF).to_pandas()
    # independent brute force in pandas (not the registered SQL oracle)
    li = pq.read_table(f"{SF}/lineitem.parquet").to_pandas()
    od = pq.read_table(f"{SF}/orders.parquet").to_pandas()
    cu = pq.read_table(f"{SF}/customer.parquet").to_pandas()
    cut = np.datetime64("1998-06-01")
    cu = cu[cu["c_mktsegment"] == "BUILDING"]
    od = od[(od["o_orderdate"] < cut)
            & od["o_custkey"].isin(cu["c_custkey"])]
    li = li[(li["l_shipdate"] > cut)
            & li["l_orderkey"].isin(od["o_orderkey"])].copy()
    li["rev"] = (np.floor(li["l_extendedprice"] * 100 + 0.5).astype(np.int64)
                 * (100 - np.floor(li["l_discount"] * 100
                                   + 0.5).astype(np.int64)))
    agg = li.groupby("l_orderkey")["rev"].sum().reset_index()
    agg = agg.merge(od[["o_orderkey", "o_orderdate"]],
                    left_on="l_orderkey", right_on="o_orderkey")
    agg = agg.sort_values(["rev", "o_orderdate", "l_orderkey"],
                          ascending=[False, True, True]).head(10)
    assert list(got["l_orderkey"]) == list(agg["l_orderkey"])
    assert list(got["rev_x10k"]) == list(agg["rev"])
    for r, x in zip(got["revenue"], agg["rev"]):
        assert r == float(x) / 10000.0


# ---------------------------------------------------------------- W57 ----
def test_w57_burstiness_bruteforce(ray_session):
    import math

    import __ray_entry__ as e

    got = (e.queries()["w57_burstiness"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    nd = int(ev["day"].max() - ev["day"].min() + 1)
    for et, grp in ev.groupby("event_type"):
        c = grp.groupby("day").size().to_numpy().astype(np.int64)
        tot = int(c.sum())
        q = int((c * c).sum())
        vn = nd * q - tot * tot
        row = got.loc[et]
        assert row["n_days"] == nd
        assert row["total"] == tot
        assert row["var_num"] == vn
        mu = float(tot) / float(nd)
        sig = math.sqrt(float(vn)) / float(nd)
        assert row["burstiness"] == (sig - mu) / (sig + mu)
        assert -1.0 <= row["burstiness"] <= 1.0


# ---------------------------------------------------------------- G47 ----
def test_g47_outlier_days_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["g47_outlier_days"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    for et, grp in ev.groupby("event_type"):
        c = np.sort(grp.groupby("day").size().to_numpy().astype(np.int64))
        m = len(c)
        q1 = int(c[(m + 3) // 4 - 1])
        q3 = int(c[(3 * m + 3) // 4 - 1])
        row = got.loc[et]
        assert row["n_days_observed"] == m
        assert (row["q1_daily"], row["q3_daily"]) == (q1, q3)
        assert row["n_low_days"] == int(
            np.count_nonzero(4 * c < 4 * q1 - 6 * (q3 - q1)))
        assert row["n_high_days"] == int(
            np.count_nonzero(4 * c > 4 * q3 + 6 * (q3 - q1)))


# ---------------------------------------------------------------- W58 ----
def test_w58_retention_cohorts_bruteforce(ray_session):
    from collections import Counter

    import __ray_entry__ as e

    got = e.queries()["w58_retention_cohorts"](SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["ts", "user_id"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    want = Counter()
    for uid, grp in ev.groupby("user_id"):
        days = sorted(set(grp["day"]))
        fd = days[0]
        for off in sorted({(d - fd) // 7 for d in days}):
            want[(fd // 7, off)] += 1
    have = {(r["cohort_week"], r["offset_week"]): r["n_users"]
            for _, r in got.iterrows()}
    assert have == dict(want)
    # every cohort has an offset-0 row covering all its users
    week0 = {k[0]: v for k, v in want.items() if k[1] == 0}
    for cw, n in week0.items():
        assert have[(cw, 0)] == n


# ---------------------------------------------------------------- Q30 ----
def test_q30_local_supplier_volume_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["q30_local_supplier_volume"](SF).to_pandas()
           .set_index("n_name"))
    li = pq.read_table(f"{SF}/lineitem.parquet").to_pandas()
    od = pq.read_table(f"{SF}/orders.parquet").to_pandas()
    cu = pq.read_table(f"{SF}/customer.parquet").to_pandas()
    su = pq.read_table(f"{SF}/supplier.parquet").to_pandas()
    na = pq.read_table(f"{SF}/nation.parquet").to_pandas()
    re_ = pq.read_table(f"{SF}/region.parquet").to_pandas()
    asia = set(na.merge(re_, left_on="n_regionkey",
                        right_on="r_regionkey")
               .query("r_name == 'ASIA'")["n_nationkey"])
    lo, hi = np.datetime64("1996-01-01"), np.datetime64("1997-01-01")
    od = od[(od["o_orderdate"] >= lo) & (od["o_orderdate"] < hi)]
    j = (li.merge(od[["o_orderkey", "o_custkey"]],
                  left_on="l_orderkey", right_on="o_orderkey")
         .merge(cu[["c_custkey", "c_nationkey"]],
                left_on="o_custkey", right_on="c_custkey")
         .merge(su[["s_suppkey", "s_nationkey"]],
                left_on="l_suppkey", right_on="s_suppkey"))
    j = j[(j["c_nationkey"] == j["s_nationkey"])
          & j["c_nationkey"].isin(asia)].copy()
    j["rev"] = (np.floor(j["l_extendedprice"] * 100 + 0.5).astype(np.int64)
                * (100 - np.floor(j["l_discount"] * 100
                                  + 0.5).astype(np.int64)))
    want = j.groupby("c_nationkey")["rev"].sum()
    names = na.set_index("n_nationkey")["n_name"]
    assert len(got) == len(want)
    for nk, rev in want.items():
        row = got.loc[names[nk]]
        assert row["rev_x10k"] == rev
        assert row["revenue"] == float(rev) / 10000.0


# ------------------------------------------------------------ A95/A96 ----
def test_spectral_lines_bruteforce(ray_session):
    import math

    import __ray_entry__ as e

    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    us = ev["ts"].astype("int64")
    for name, period, unit, col in [
            ("a95_weekly_spectrum", 7, 86_400_000_000, "power7"),
            ("a96_diurnal_spectrum", 24, 3_600_000_000, "power24")]:
        got = (e.queries()[name](SF).to_pandas()
               .set_index("event_type"))
        ev["r"] = (us // unit) % period
        for et, grp in ev.groupby("event_type"):
            s = np.zeros(period, dtype=np.int64)
            for r, c in grp["r"].value_counts().items():
                s[int(r)] = int(c)
            x = y = 0.0
            for k in range(period):
                x = x + float(int(s[k])) * math.cos(
                    2.0 * math.pi * float(k) / float(period))
                y = y + float(int(s[k])) * math.sin(
                    2.0 * math.pi * float(k) / float(period))
            row = got.loc[et]
            assert row["total"] == int(s.sum())
            assert row["r_peak"] == int(np.argmax(s))
            assert row["cos_sum"] == x and row["sin_sum"] == y
            assert row[col] == x * x + y * y


def test_spectral_line_detects_planted_weekly_cycle(ray_session):
    import ray.data

    from anomalydetection_ray.pipelines.queries import _spectral_line

    # synth parquet: type "weekly" fires only on residue-0 days, type
    # "flat" uniformly -> power7 huge vs ~0
    import tempfile, os
    import pyarrow.parquet as _pq

    d = tempfile.mkdtemp(prefix="a95_")
    days = np.arange(140)
    rows = []
    for day in days:
        if day % 7 == 0:
            rows += [("weekly", day)] * 10
        rows += [("flat", day)]
    t = pa.table({
        "event_id": pa.array(range(len(rows)), type=pa.int64()),
        "ts": pa.array(
            np.array([d_ * 86_400_000_000 + 1 for _, d_ in rows],
                     dtype="datetime64[us]")),
        "user_id": pa.array([0] * len(rows), type=pa.int64()),
        "event_type": pa.array([k for k, _ in rows]),
        "value": pa.array([0.0] * len(rows)),
        "props": pa.array(["{}"] * len(rows)),
    })
    _pq.write_table(t, os.path.join(d, "events.parquet"))
    got = (_spectral_line(d, 7, 86_400_000_000, "power7").to_pandas()
           .set_index("event_type"))
    assert got.loc["weekly"]["power7"] > 100 * max(
        got.loc["flat"]["power7"], 1e-9)


# ---------------------------------------------------------------- Q31 ----
def test_q31_promo_share_bruteforce(ray_session):
    import __ray_entry__ as e

    got = e.queries()["q31_promo_revenue_share"](SF).to_pandas()
    li = pq.read_table(f"{SF}/lineitem.parquet").to_pandas()
    pt = pq.read_table(f"{SF}/part.parquet",
                       columns=["p_partkey", "p_type"]).to_pandas()
    lo, hi = np.datetime64("1996-03-01"), np.datetime64("1996-04-01")
    li = li[(li["l_shipdate"] >= lo) & (li["l_shipdate"] < hi)]
    j = li.merge(pt, left_on="l_partkey", right_on="p_partkey")
    rev = (np.floor(j["l_extendedprice"] * 100 + 0.5).astype(np.int64)
           * (100 - np.floor(j["l_discount"] * 100
                             + 0.5).astype(np.int64)))
    promo = int(rev[j["p_type"] == "PROMO"].sum())
    total = int(rev.sum())
    assert len(got) == 1
    assert got["promo_rev_x10k"][0] == promo
    assert got["total_rev_x10k"][0] == total
    assert got["promo_share"][0] == (100.0 * float(promo)) / float(total)


# ---------------------------------------------------------------- Q33 ----
def test_q33_late_shipments_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["q33_late_shipment_census"](SF).to_pandas()
           .set_index("o_orderpriority"))
    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_orderkey", "l_shipdate"]).to_pandas()
    od = pq.read_table(f"{SF}/orders.parquet").to_pandas()
    lo, hi = np.datetime64("1996-01-01"), np.datetime64("1996-07-01")
    od = od[(od["o_orderdate"] >= lo) & (od["o_orderdate"] < hi)]
    j = li.merge(od[["o_orderkey", "o_orderdate", "o_orderpriority"]],
                 left_on="l_orderkey", right_on="o_orderkey")
    late = j[j["l_shipdate"].astype("int64")
             > j["o_orderdate"].astype("int64") + 90 * 86_400_000_000]
    want = (late.drop_duplicates("l_orderkey")
            .groupby("o_orderpriority").size())
    assert len(got) == len(want)
    for prio, n in want.items():
        assert got.loc[prio]["n_late_orders"] == n


# ---------------------------------------------------------------- Q34 ----
def test_q34_large_volume_bruteforce(ray_session):
    import __ray_entry__ as e

    got = e.queries()["q34_large_volume_orders"](SF).to_pandas()
    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_orderkey", "l_quantity"]).to_pandas()
    od = pq.read_table(f"{SF}/orders.parquet").to_pandas()
    s = (li.assign(q=li["l_quantity"].astype(np.int64))
         .groupby("l_orderkey")["q"].sum())
    s = s[s > 150].reset_index().merge(
        od[["o_orderkey", "o_custkey"]],
        left_on="l_orderkey", right_on="o_orderkey")
    s = s.sort_values(["q", "l_orderkey"],
                      ascending=[False, True]).head(20)
    assert list(got["l_orderkey"]) == list(s["l_orderkey"])
    assert list(got["total_qty"]) == list(s["q"])
    assert list(got["o_custkey"]) == list(s["o_custkey"])


# ---------------------------------------------------------------- G49 ----
def test_g49_heatmap_bruteforce(ray_session):
    import __ray_entry__ as e

    got = e.queries()["g49_dow_hour_heatmap"](SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    us = ev["ts"].astype("int64")
    ev["dow"] = (us // 86_400_000_000) % 7
    ev["hour"] = (us // 3_600_000_000) % 24
    want = ev.groupby(["event_type", "dow", "hour"]).size()
    totals = ev.groupby("event_type").size()
    assert len(got) == len(want)
    for _, r in got.iterrows():
        n = want.loc[(r["event_type"], r["dow"], r["hour"])]
        assert r["n"] == n
        assert r["type_total"] == totals.loc[r["event_type"]]
        assert r["share"] == float(n) / float(totals.loc[r["event_type"]])
        assert 0.0 < r["share"] <= 1.0


# ---------------------------------------------------------------- D28 ----
def test_d28_lsh_precision_consistent_with_pairs(ray_session):
    import __ray_entry__ as e

    audit = e.queries()["d28_lsh_precision"](SF).to_pandas()
    confirmed = e.queries()["dedup_embedding_pairs"](SF).to_pandas()
    assert audit["n_confirmed"][0] == len(confirmed)
    assert audit["n_candidates"][0] >= audit["n_confirmed"][0]
    p = audit["lsh_precision"][0]
    assert p == float(audit["n_confirmed"][0]) / float(
        audit["n_candidates"][0])
    assert 0.0 <= p <= 1.0


# ---------------------------------------------------------------- X12 ----
def test_x12_cooccurrence_bruteforce(ray_session):
    import __ray_entry__ as e

    got = e.queries()["x12_cooccurrence_lift"](SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["text"]).to_pandas()
    n1 = n2 = nb = 0
    for t in docs["text"].fillna(""):
        w = t.split(" ")
        h1, h2 = "batch" in w, "stream" in w
        n1 += h1
        n2 += h2
        nb += h1 and h2
    assert got["n_docs"][0] == len(docs)
    assert (got["n_w1"][0], got["n_w2"][0], got["n_both"][0]) \
        == (n1, n2, nb)
    assert got["lift"][0] == float(nb * len(docs)) / float(n1 * n2)


# ---------------------------------------------------------------- E7 ----
def test_dict_codec_roundtrip_and_size_parity():
    from anomalydetection_ray.codecs import (dict_decode, dict_encode,
                                             dict_size_batch)

    rng = np.random.default_rng(59)
    series = []
    for _ in range(50):
        card = int(rng.integers(1, 300))
        series.append(rng.integers(0, card,
                                   size=rng.integers(1, 400)).tolist())
    series.append([7] * 30)               # constant: w = 0
    series.append([0])                    # k = 1, n = 1
    out = dict_size_batch(_tok_batch(series)).to_pylist()
    for row, v in zip(out, series):
        arr = np.asarray(v, dtype=np.int64)
        enc = dict_encode(arr)
        assert row["n"] == len(v)
        assert row["n_distinct"] == len(set(v))
        assert row["n_bytes"] == len(enc), (row, len(enc))
        assert np.array_equal(dict_decode(enc, len(v)), arr)
        assert row["bytes_per_token"] == float(len(enc)) / float(len(v))


def test_dict_codec_beats_varint_on_low_cardinality():
    from anomalydetection_ray.codecs import dict_size_batch, varint_size_batch

    rng = np.random.default_rng(61)
    # huge values, tiny cardinality: dict should crush varint deltas
    vals = rng.choice([10_000_019, 49_999_991, 33_333_331], size=2000)
    t = _tok_batch([vals.tolist()])
    d = dict_size_batch(t).to_pylist()[0]
    v = varint_size_batch(t).to_pylist()[0]
    assert d["n_bytes"] < v["n_bytes"]


# ---------------------------------------------------------------- C10 ----
def test_c10_agreement_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["c10_detector_agreement"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts", "value"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    ev["c"] = np.floor(ev["value"] * 100 + 0.5).astype(np.int64)
    for et, grp in ev.groupby("event_type"):
        x = grp.groupby("day")["c"].sum().to_numpy()
        n = len(x)
        xs = np.sort(x)
        med = int(xs[(n + 1) // 2 - 1])
        mad = int(np.sort(np.abs(x - med))[(n + 1) // 2 - 1])
        q1 = int(xs[(n + 3) // 4 - 1])
        q3 = int(xs[(3 * n + 3) // 4 - 1])
        fm = 10000 * np.abs(x - med) > 51891 * mad
        ft = (4 * x < 4 * q1 - 6 * (q3 - q1)) \
            | (4 * x > 4 * q3 + 6 * (q3 - q1))
        row = got.loc[et]
        assert row["n_days"] == n
        assert row["n_mad"] == int(fm.sum())
        assert row["n_tukey"] == int(ft.sum())
        assert row["n_both"] == int((fm & ft).sum())
        union = int(fm.sum()) + int(ft.sum()) - int((fm & ft).sum())
        if union:
            assert row["jaccard"] == float(int((fm & ft).sum())) / float(union)


# ---------------------------------------------------------------- W59 ----
def test_w59_stickiness_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["w59_stickiness"](SF).to_pandas()
           .set_index("day"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["ts", "user_id"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    pairs = ev[["user_id", "day"]].drop_duplicates()
    lo, hi = int(pairs["day"].min()), int(pairs["day"].max())
    assert list(got.index) == list(range(lo, hi + 1))
    for d in range(lo, hi + 1):
        dau = pairs[pairs["day"] == d]["user_id"].nunique()
        wau = pairs[(pairs["day"] >= d - 6)
                    & (pairs["day"] <= d)]["user_id"].nunique()
        row = got.loc[d]
        assert row["dau"] == dau
        assert row["wau"] == wau
        if wau:
            assert row["stickiness"] == float(dau) / float(wau)


def test_w59_interval_union_handles_gaps(ray_session, tmp_path):
    import os

    import pandas as pd
    import pyarrow.parquet as _pq

    from anomalydetection_ray.pipelines.queries import g25_stickiness
    from anomalydetection_ray.pipelines.windows import w59_stickiness

    # one user active days 0 and 20: WAU must drop to 0-coverage
    # between the two intervals (days 7..19 wau=0 until day 20)
    rows = [(1, 0), (1, 20), (2, 0), (2, 1)]
    t = pa.table({
        "event_id": pa.array(range(len(rows)), type=pa.int64()),
        "ts": pa.array(np.array([d * 86_400_000_000 for _, d in rows],
                                dtype="datetime64[us]")),
        "user_id": pa.array([u for u, _ in rows], type=pa.int64()),
        "event_type": pa.array(["click"] * len(rows)),
        "value": pa.array([0.0] * len(rows)),
        "props": pa.array(["{}"] * len(rows)),
    })
    _pq.write_table(t, os.path.join(tmp_path, "events.parquet"))
    got = (w59_stickiness(str(tmp_path)).to_pandas()
           .set_index("day"))
    assert got.loc[0]["dau"] == 2 and got.loc[0]["wau"] == 2
    assert got.loc[6]["dau"] == 0 and got.loc[6]["wau"] == 2
    assert got.loc[7]["wau"] == 1          # user 2 active day 1
    assert got.loc[10]["wau"] == 0
    assert got.loc[20]["dau"] == 1 and got.loc[20]["wau"] == 1
    # G25 is W59 on the days with a daily active user
    g25 = g25_stickiness(str(tmp_path)).to_pandas().set_index("day")
    assert list(g25.index) == [0, 1, 20]
    pd.testing.assert_frame_equal(g25, got[got["dau"] > 0])


# ---------------------------------------------------------------- K26 ----
def test_k26_label_norms_bruteforce(ray_session):
    import math

    import __ray_entry__ as e

    got = (e.queries()["k26_label_norms"](SF).to_pandas()
           .set_index("label"))
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    for lab, grp in emb.groupby("label"):
        m = np.stack(grp["embedding"].to_numpy()).astype(np.float64)
        q = np.floor(m * 1048576.0 + 0.5).astype(np.int64)
        n2 = (q * q).sum(axis=1)
        row = got.loc[lab]
        assert row["n_vecs"] == len(grp)
        assert row["min_norm2_q"] == int(n2.min())
        assert row["max_norm2_q"] == int(n2.max())
        tot = int(n2.sum())
        assert (int(row["sum_norm2_hi"]) << 32) \
            + int(row["sum_norm2_lo"]) == tot
        assert row["rms_norm"] == \
            math.sqrt(float(tot) / float(len(grp))) / 1048576.0


# ---------------------------------------------------------------- W60 ----
def test_w60_conversion_latency_bruteforce(ray_session):
    from collections import Counter

    import __ray_entry__ as e

    got = (e.queries()["w60_conversion_latency"](SF).to_pandas()
           .set_index("bucket"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id", "event_type",
                                "ts"]).to_pandas()
    ev["us"] = ev["ts"].astype("int64")
    want = Counter()
    for uid, grp in ev.groupby("user_id"):
        clicks = grp[grp["event_type"] == "click"]["us"]
        if clicks.empty:
            continue
        c = int(clicks.min())
        purch = grp[(grp["event_type"] == "purchase")
                    & (grp["us"] >= c)]["us"]
        if purch.empty:
            continue
        sec = (int(purch.min()) - c) // 1_000_000
        want[(sec + 1).bit_length() - 1] += 1
    assert {b: n for b, n in got["n_users"].items()} == dict(want)


# ---------------------------------------------------------------- A97 ----
def test_a97_daily_mase_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["a97_daily_mase"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts", "value"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    ev["c"] = np.floor(ev["value"] * 100 + 0.5).astype(np.int64)
    lo, hi = int(ev["day"].min()), int(ev["day"].max())
    for et, grp in ev.groupby("event_type"):
        dense = np.zeros(hi - lo + 1, dtype=np.int64)
        for d, s in grp.groupby("day")["c"].sum().items():
            dense[int(d) - lo] = int(s)
        m1 = int(np.abs(np.diff(dense)).sum())
        m7 = int(np.abs(dense[7:] - dense[:-7]).sum())
        row = got.loc[et]
        assert row["n_days"] == hi - lo + 1
        assert (row["mae1_num"], row["mae7_num"]) == (m1, m7)
        a = float(m7) / float(hi - lo + 1 - 7)
        b = float(m1) / float(hi - lo)
        assert row["mase"] == a / b


def test_a97_mase_detects_weekly_rhythm(ray_session, tmp_path):
    import os

    import pyarrow.parquet as _pq

    from anomalydetection_ray.pipelines.queries import a97_daily_mase

    # strict 7-periodic series: weekly-naive error is ZERO -> mase 0
    rows = [("w", d, float(10 + 5 * (d % 7))) for d in range(56)]
    t = pa.table({
        "event_id": pa.array(range(len(rows)), type=pa.int64()),
        "ts": pa.array(np.array([d * 86_400_000_000
                                 for _, d, _ in rows],
                                dtype="datetime64[us]")),
        "user_id": pa.array([0] * len(rows), type=pa.int64()),
        "event_type": pa.array([k for k, _, _ in rows]),
        "value": pa.array([v for _, _, v in rows]),
        "props": pa.array(["{}"] * len(rows)),
    })
    _pq.write_table(t, os.path.join(tmp_path, "events.parquet"))
    got = a97_daily_mase(str(tmp_path)).to_pandas()
    assert got["mase"][0] == 0.0


# ---------------------------------------------------------------- S25 ----
def test_s25_day_pruned_read_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["s25_day_pruned_read"](SF).to_pandas()
           .set_index("day"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["ts", "value"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    ev["c"] = np.floor(ev["value"] * 100 + 0.5).astype(np.int64)
    lo = int(ev["day"].min())
    assert sorted(got.index) == [lo + 5, lo + 10, lo + 20]
    for d in got.index:
        sel = ev[ev["day"] == d]
        assert got.loc[d]["n"] == len(sel)
        assert got.loc[d]["cents_sum"] == int(sel["c"].sum())


# ---------------------------------------------------------------- W61 ----
def test_w61_second_order_entropy_bruteforce(ray_session):
    import math
    from collections import Counter, defaultdict

    import __ray_entry__ as e

    got = (e.queries()["w61_second_order_entropy"](SF).to_pandas()
           .set_index(["t1", "t2"]))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "ts", "user_id",
                                "event_type"]).to_pandas()
    ev = ev.sort_values(["user_id", "ts", "event_id"])
    tri = Counter()
    for _, grp in ev.groupby("user_id"):
        ets = list(grp["event_type"])
        for i in range(len(ets) - 2):
            tri[(ets[i], ets[i + 1], ets[i + 2])] += 1
    by_pair = defaultdict(dict)
    for (a, b, c), n in tri.items():
        by_pair[(a, b)][c] = n
    assert len(got) == len(by_pair)
    for (a, b), nexts in by_pair.items():
        row = got.loc[(a, b)]
        tot = sum(nexts.values())
        assert row["n_trigrams"] == tot
        assert row["n_distinct_next"] == len(nexts)
        acc = 0.0
        for c in sorted(nexts):
            p = float(nexts[c]) / float(tot)
            acc = acc + p * math.log(p)
        assert row["h_next"] == -acc
        assert row["h_next"] >= 0.0


# ---------------------------------------------------------------- G51 ----
def test_g51_new_vs_returning_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["g51_new_vs_returning"](SF).to_pandas()
           .set_index("day"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["ts", "user_id"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    pairs = ev[["user_id", "day"]].drop_duplicates()
    fd = pairs.groupby("user_id")["day"].min()
    for d, grp in pairs.groupby("day"):
        act = len(grp)
        new = int((fd.loc[grp["user_id"]] == d).sum())
        row = got.loc[d]
        assert row["n_active"] == act
        assert row["n_new"] == new
        assert row["n_returning"] == act - new
        assert row["new_share"] == float(new) / float(act)
    # conservation: total new users across days == distinct users
    assert got["n_new"].sum() == pairs["user_id"].nunique()


# ---------------------------------------------------------------- G52 ----
def test_g52_order_quartiles_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["g52_order_total_quartiles"](SF).to_pandas()
           .set_index("o_orderpriority"))
    od = pq.read_table(f"{SF}/orders.parquet",
                       columns=["o_orderpriority",
                                "o_totalprice"]).to_pandas()
    od["cents"] = np.floor(od["o_totalprice"] * 100
                           + 0.5).astype(np.int64)
    for prio, grp in od.groupby("o_orderpriority"):
        x = np.sort(grp["cents"].to_numpy())
        n = len(x)
        q = [int(x[(q4 * n + 3) // 4 - 1]) for q4 in (1, 2, 3)]
        row = got.loc[prio]
        assert row["n_orders"] == n
        assert (row["q1_cents"], row["q2_cents"], row["q3_cents"]) \
            == tuple(q)
        assert row["iqr_cents"] == q[2] - q[0]


# ---------------------------------------------------------------- W62 ----
def test_w62_session_quartiles_bruteforce(ray_session):
    import __ray_entry__ as e

    got = e.queries()["w62_session_length_quartiles"](SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "ts", "user_id"]).to_pandas()
    ev = ev.sort_values(["user_id", "ts", "event_id"])
    lens = []
    for _, grp in ev.groupby("user_id"):
        us = grp["ts"].astype("int64").to_numpy()
        brk = np.concatenate(([True], np.diff(us) > 43_200_000_000))
        for s in np.split(np.arange(len(us)), np.flatnonzero(brk)[1:]):
            lens.append(len(s))
    x = np.sort(np.array(lens))
    n = len(x)
    q = [int(x[(q4 * n + 3) // 4 - 1]) for q4 in (1, 2, 3)]
    assert got["n_sessions"][0] == n
    assert (got["q1_len"][0], got["q2_len"][0], got["q3_len"][0]) \
        == tuple(q)
    assert got["max_len"][0] == int(x[-1])


# ---------------------------------------------------------------- G53 ----
def test_g53_drought_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["g53_longest_drought"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    lo, hi = int(ev["day"].min()), int(ev["day"].max())
    for et, grp in ev.groupby("event_type"):
        present = set(grp["day"])
        longest = cur = nz = 0
        for d in range(lo, hi + 1):
            if d in present:
                cur = 0
            else:
                nz += 1
                cur += 1
                longest = max(longest, cur)
        row = got.loc[et]
        assert row["n_days"] == hi - lo + 1
        assert row["n_zero_days"] == nz
        assert row["longest_drought"] == longest


def test_g53_drought_planted(ray_session, tmp_path):
    import os

    import pyarrow.parquet as _pq

    from anomalydetection_ray.pipelines.queries import g53_longest_drought

    # type "gappy": days 0..4 and 15..19 (drought of 10); "full": all
    rows = ([("gappy", d) for d in list(range(5)) + list(range(15, 20))]
            + [("full", d) for d in range(20)])
    t = pa.table({
        "event_id": pa.array(range(len(rows)), type=pa.int64()),
        "ts": pa.array(np.array([d * 86_400_000_000
                                 for _, d in rows],
                                dtype="datetime64[us]")),
        "user_id": pa.array([0] * len(rows), type=pa.int64()),
        "event_type": pa.array([k for k, _ in rows]),
        "value": pa.array([0.0] * len(rows)),
        "props": pa.array(["{}"] * len(rows)),
    })
    _pq.write_table(t, os.path.join(tmp_path, "events.parquet"))
    got = (g53_longest_drought(str(tmp_path)).to_pandas()
           .set_index("event_type"))
    assert got.loc["gappy"]["longest_drought"] == 10
    assert got.loc["gappy"]["n_zero_days"] == 10
    assert got.loc["full"]["longest_drought"] == 0


# ---------------------------------------------------------------- X13 ----
def test_x13_boolean_search_bruteforce(ray_session):
    import __ray_entry__ as e

    got = e.queries()["x13_boolean_search"](SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["text"]).to_pandas()
    n1 = n2 = n3 = nm = 0
    for t in docs["text"].fillna(""):
        w = t.split(" ")
        h1, h2, h3 = "batch" in w, "stream" in w, "error" in w
        n1 += h1
        n2 += h2
        n3 += h3
        nm += h1 and h2 and not h3
    assert got["n_docs"][0] == len(docs)
    assert (got["df_w1"][0], got["df_w2"][0], got["df_w3"][0],
            got["n_match"][0]) == (n1, n2, n3, nm)


# ----------------------------------------------------------- ann multi ----
def test_ann_multi_matches_single_query_results(ray_session):
    import __ray_entry__ as e

    multi = e.queries()["ann_multi_topk"](SF).to_pandas()
    single = e.queries()["ann_topk"](SF).to_pandas()
    q0 = multi[multi["query_id"] == 0]
    assert list(q0["vec_id"]) == list(single["vec_id"])
    assert len(multi) == 50 and multi["query_id"].nunique() == 5
    # a query never retrieves itself
    assert not ((multi["query_id"] == multi["vec_id"]).any())


# ---------------------------------------------------------------- S26 ----
def test_s26_integrity_bruteforce(ray_session):
    import __ray_entry__ as e

    got = e.queries()["s26_integrity_audit"](SF).to_pandas()
    od = pq.read_table(f"{SF}/orders.parquet",
                       columns=["o_orderkey", "o_custkey"]).to_pandas()
    cu = set(pq.read_table(f"{SF}/customer.parquet",
                           columns=["c_custkey"]).to_pandas()["c_custkey"])
    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_orderkey", "l_partkey"]).to_pandas()
    pt = set(pq.read_table(f"{SF}/part.parquet",
                           columns=["p_partkey"]).to_pandas()["p_partkey"])
    ok = set(od["o_orderkey"])
    assert got["n_orders"][0] == len(od)
    assert got["orphan_orders"][0] == int((~od["o_custkey"]
                                           .isin(cu)).sum())
    assert got["n_lineitems"][0] == len(li)
    assert got["orphan_li_order"][0] == int((~li["l_orderkey"]
                                             .isin(ok)).sum())
    assert got["orphan_li_part"][0] == int((~li["l_partkey"]
                                            .isin(pt)).sum())


# ---------------------------------------------------------------- J23 ----
def test_j23_nearest_gap_bruteforce(ray_session):
    from collections import Counter

    import __ray_entry__ as e

    got = (e.queries()["j23_nearest_event_gap"](SF).to_pandas()
           .set_index("bucket"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id", "event_type",
                                "ts"]).to_pandas()
    ev["us"] = ev["ts"].astype("int64")
    want = Counter()
    purch = {u: np.sort(g["us"].to_numpy())
             for u, g in ev[ev["event_type"] == "purchase"]
             .groupby("user_id")}
    for _, r in ev[ev["event_type"] == "error"].iterrows():
        p = purch.get(r["user_id"])
        if p is None or len(p) == 0:
            want[-1] += 1
            continue
        dt = int(np.abs(p - r["us"]).min())
        if dt > 3_600_000_000:
            want[-1] += 1
        else:
            want[((dt // 1_000_000) + 1).bit_length() - 1] += 1
    assert {b: n for b, n in got["n_events"].items()} == dict(want)


# ---------------------------------------------------------------- J24 ----
def test_j24_bloom_audit_bruteforce(ray_session):
    import __ray_entry__ as e
    from anomalydetection_ray.pipelines.queries import (_BLOOM_BITS,
                                                        _BLOOM_HASHES)

    got = e.queries()["j24_bloom_prefilter_audit"](SF).to_pandas()
    od = pq.read_table(f"{SF}/orders.parquet",
                       columns=["o_orderkey", "o_orderdate"]).to_pandas()
    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_orderkey"]).to_pandas()
    lo, hi = np.datetime64("1996-01-01"), np.datetime64("1996-07-01")
    sub = set(od[(od["o_orderdate"] >= lo)
                 & (od["o_orderdate"] < hi)]["o_orderkey"])
    bitset = np.zeros(_BLOOM_BITS, dtype=bool)
    for key in sub:
        for a, b in _BLOOM_HASHES:
            h = (key * a + b) % (1 << 64)
            bitset[h >> 48] = True
    n_pass = n_match = 0
    for key in li["l_orderkey"]:
        key = int(key)
        ok = all(bitset[((key * a + b) % (1 << 64)) >> 48]
                 for a, b in _BLOOM_HASHES)
        n_pass += ok
        n_match += key in sub
    assert got["n_li"][0] == len(li)
    assert got["n_pass"][0] == n_pass
    assert got["n_match"][0] == n_match
    # every true match must pass (no false negatives, ever)
    assert n_pass >= n_match
    assert got["n_false_positive"][0] == n_pass - n_match
    assert got["fp_rate"][0] == float(n_pass - n_match) / float(
        len(li) - n_match)


# ---------------------------------------------------------------- S27 ----
def test_s27_table_stats_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["s27_table_stats"](SF).to_pandas()
           .set_index("column"))
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    cents = np.floor(ev["value"] * 100 + 0.5).astype(np.int64)
    want = {
        "event_id": (ev["event_id"].min(), ev["event_id"].max()),
        "user_id": (ev["user_id"].min(), ev["user_id"].max()),
        "cents": (cents.min(), cents.max()),
        "ts_us": (ev["ts"].astype("int64").min(),
                  ev["ts"].astype("int64").max()),
    }
    assert set(got.index) == set(want)
    for col, (mn, mx) in want.items():
        row = got.loc[col]
        assert row["n"] == len(ev)
        assert row["n_null"] == 0
        assert (row["min_v"], row["max_v"]) == (mn, mx)


# ---------------------------------------------------------------- W63 ----
def test_w63_weekend_effect_bruteforce(ray_session):
    import math

    import __ray_entry__ as e

    got = (e.queries()["w63_weekend_effect"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts", "value"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    ev["c"] = np.floor(ev["value"] * 100 + 0.5).astype(np.int64)
    lo, hi = int(ev["day"].min()), int(ev["day"].max())
    grid = np.arange(lo, hi + 1)
    n1 = int(((grid % 7) < 5).sum())
    n2 = int(((grid % 7) >= 5).sum())
    for et, grp in ev.groupby("event_type"):
        daily = grp.groupby("day")["c"].sum()
        wd = daily[daily.index % 7 < 5]
        we = daily[daily.index % 7 >= 5]
        s1, q1 = int(wd.sum()), int((wd ** 2).sum())
        s2, q2 = int(we.sum()), int((we ** 2).sum())
        row = got.loc[et]
        assert (row["n_wd"], row["n_we"]) == (n1, n2)
        assert (row["s_wd"], row["s_we"]) == (s1, s2)
        m1, m2 = float(s1) / n1, float(s2) / n2
        v1 = float(n1 * q1 - s1 * s1) / float(n1 * (n1 - 1))
        v2 = float(n2 * q2 - s2 * s2) / float(n2 * (n2 - 1))
        den = math.sqrt(v1 / n1 + v2 / n2)
        assert row["t_welch"] == (m1 - m2) / den


def test_w63_detects_planted_weekend_shift(ray_session, tmp_path):
    import os

    import pyarrow.parquet as _pq

    from anomalydetection_ray.pipelines.queries import w63_weekend_effect

    # weekend days (residue 5,6) pay 10x: strongly negative t
    rows = []
    for d in range(56):
        v = 1000.0 if d % 7 >= 5 else 100.0
        rows.append(("pay", d, v + (d % 3)))   # tiny within-class noise
    t = pa.table({
        "event_id": pa.array(range(len(rows)), type=pa.int64()),
        "ts": pa.array(np.array([d * 86_400_000_000 + 1
                                 for _, d, _ in rows],
                                dtype="datetime64[us]")),
        "user_id": pa.array([0] * len(rows), type=pa.int64()),
        "event_type": pa.array([k for k, _, _ in rows]),
        "value": pa.array([v for _, _, v in rows]),
        "props": pa.array(["{}"] * len(rows)),
    })
    _pq.write_table(t, os.path.join(tmp_path, "events.parquet"))
    got = w63_weekend_effect(str(tmp_path)).to_pandas()
    assert got["t_welch"][0] < -10


# ---------------------------------------------------------------- G56 ----
def test_g56_pareto_bruteforce(ray_session):
    import __ray_entry__ as e

    got = e.queries()["g56_source_pareto"](SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["source"]).to_pandas()
    want = (docs.groupby("source").size()
            .sort_values(ascending=False).reset_index())
    want.columns = ["source", "n"]
    want = want.sort_values(["n", "source"],
                            ascending=[False, True])
    total = len(docs)
    assert list(got["source"]) == list(want["source"])
    assert list(got["n_docs"]) == list(want["n"])
    assert list(got["rank"]) == list(range(1, len(want) + 1))
    cum = 0
    for _, r in got.iterrows():
        cum += r["n_docs"]
        assert r["cum_docs"] == cum
        assert r["share"] == float(r["n_docs"]) / float(total)
        assert r["cum_share"] == float(cum) / float(total)
    assert got["cum_share"].iloc[-1] == 1.0


# ---------------------------------------------------------------- W65 ----
def test_w65_persistence_bruteforce(ray_session):
    import __ray_entry__ as e

    got = e.queries()["w65_activity_persistence"](SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["ts", "user_id"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    pairs = set(map(tuple, ev[["user_id", "day"]]
                    .drop_duplicates().to_numpy()))
    hi = max(d for _, d in pairs)
    cand = [(u, d) for u, d in pairs if d < hi]
    fol = sum(1 for u, d in cand if (u, d + 1) in pairs)
    assert got["n_candidates"][0] == len(cand)
    assert got["n_followed"][0] == fol
    assert got["p_continue"][0] == float(fol) / float(len(cand))


# ---------------------------------------------------------------- X15 ----
def test_x15_prefix_search_bruteforce(ray_session):
    from collections import Counter

    import __ray_entry__ as e

    got = e.queries()["x15_prefix_search"](SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["text"]).to_pandas()
    c = Counter()
    for t in docs["text"].fillna(""):
        for w in t.split(" "):
            if w and w.startswith("s"):
                c[w] += 1
    ranked = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    head = got[got["word"] != ""]
    assert list(head["word"]) == [w for w, _ in ranked]
    assert list(head["n"]) == [n for _, n in ranked]
    summary = got[got["word"] == ""]
    assert summary["n"].iloc[0] == sum(c.values())
    assert summary["n_distinct"].iloc[0] == len(c)


# ---------------------------------------------------------------- G57 ----
def test_g57_type_jaccard_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["g57_type_user_jaccard"](SF).to_pandas()
           .set_index(["type_a", "type_b"]))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id", "event_type"]).to_pandas()
    sets = {t: set(g["user_id"]) for t, g in ev.groupby("event_type")}
    types = sorted(sets)
    n_pairs = 0
    for i, a in enumerate(types):
        for b in types[i + 1:]:
            n_pairs += 1
            row = got.loc[(a, b)]
            inter = len(sets[a] & sets[b])
            union = len(sets[a] | sets[b])
            assert row["n_a"] == len(sets[a])
            assert row["n_b"] == len(sets[b])
            assert row["n_both"] == inter
            assert row["jaccard"] == float(inter) / float(union)
    assert len(got) == n_pairs


# ---------------------------------------------------------------- V26 ----
def test_v26_heaps_bruteforce(ray_session):
    import math

    import __ray_entry__ as e

    got = e.queries()["v26_heaps_exponent"](SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["source", "text"]).to_pandas()
    stats = {}
    for src, grp in docs.groupby("source"):
        words = [w for t in grp["text"].fillna("")
                 for w in t.split(" ") if w]
        stats[src] = (len(words), len(set(words)))
    srcs = sorted(stats)
    xs = [math.log(float(stats[s][0])) for s in srcs]
    ys = [math.log(float(stats[s][1])) for s in srcs]
    k = len(srcs)
    sx = sy = 0.0
    for v in xs:
        sx = sx + v
    for v in ys:
        sy = sy + v
    mx, my = sx / k, sy / k
    sxx = sxy = 0.0
    for xv in xs:
        sxx = sxx + (xv - mx) * (xv - mx)
    for xv, yv in zip(xs, ys):
        sxy = sxy + (xv - mx) * (yv - my)
    assert got["n_sources"][0] == k
    assert got["beta"][0] == sxy / sxx
    assert got["log_k"][0] == my - (sxy / sxx) * mx
    # natural-ish text: exponent in a sane band
    assert 0.0 < got["beta"][0] < 1.5


# ---------------------------------------------------------------- G58 ----
def test_g58_benford_bruteforce(ray_session):
    import math
    from collections import Counter

    import __ray_entry__ as e

    got = e.queries()["g58_benford"](SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "value"]).to_pandas()
    ev["c"] = np.floor(ev["value"] * 100 + 0.5).astype(np.int64)
    for et, grp in ev.groupby("event_type"):
        c = Counter(int(str(x)[0]) for x in grp["c"] if x > 0)
        total = sum(c.values())
        sub = got[got["event_type"] == et].set_index("digit")
        assert len(sub) == 9
        chi2 = 0.0
        for d in range(1, 10):
            assert sub.loc[d]["n"] == c.get(d, 0)
            assert sub.loc[d]["n_total"] == total
            p = math.log10(1.0 + 1.0 / float(d))
            e_ = float(total) * p
            diff = float(c.get(d, 0)) - e_
            chi2 = chi2 + (diff * diff) / e_
        assert sub["chi2_benford"].iloc[0] == chi2


@pytest.mark.parametrize("name", ["t11_benford_digits", "g58_benford"])
def test_benford_zero_and_negative_cents(ray_session, tmp_path, name):
    """The Benford grid G58 shares with T11 also counts zero cents (digit
    "0") and negative ones ("-"); both keep digits 1-9 only, and a type
    with no positive cent value has no row, as in their SQL oracles."""
    import duckdb
    import pandas as pd

    import __ray_entry__ as e

    ev = pq.read_table(f"{SF}/events.parquet")
    values = ev.column("value").to_pylist()
    types = ev.column("event_type").to_pylist()
    values[:3] = [0.004, -1.0, 0.004]     # 0 cents, -100 cents, 0 cents
    types[2] = "zero_only"
    ev = ev.set_column(ev.schema.get_field_index("value"), "value",
                       pa.array(values, type=pa.float64()))
    ev = ev.set_column(ev.schema.get_field_index("event_type"), "event_type",
                       pa.array(types, type=pa.string()))
    pq.write_table(ev, str(tmp_path / "events.parquet"))

    got = e.queries()[name](str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{tmp_path}/events.parquet')")
    want = con.execute(e.oracle_sql()[name]).fetchdf()

    def canon(df):
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    assert "zero_only" not in set(got["event_type"])
    assert set(got["digit"]) <= set(range(1, 10))
    pd.testing.assert_frame_equal(canon(got), canon(want), check_dtype=False,
                                  check_exact=True)


# ---------------------------------------------------------------- Q35 ----
def test_q35_ntile_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["q35_ntile_revenue_buckets"](SF).to_pandas()
           .set_index(["o_orderpriority", "bucket"]))
    od = pq.read_table(f"{SF}/orders.parquet").to_pandas()
    od["cents"] = np.floor(od["o_totalprice"] * 100
                           + 0.5).astype(np.int64)
    od = od.sort_values(["cents", "o_orderkey"]).reset_index(drop=True)
    n = len(od)
    q, r = divmod(n, 4)
    ranks = np.arange(n)
    cut = r * (q + 1)
    od["bucket"] = np.where(ranks < cut, ranks // (q + 1),
                            r + (ranks - cut) // q) + 1
    want = od.groupby(["o_orderpriority", "bucket"]).size()
    assert len(got) == len(want)
    for key, v in want.items():
        assert got.loc[key]["n"] == v
    # bucket sizes near-equal: the remainder rule
    sizes = od.groupby("bucket").size()
    assert sizes.max() - sizes.min() <= 1


# ---------------------------------------------------------------- K27 ----
def test_k27_outliers_bruteforce(ray_session):
    import __ray_entry__ as e

    got = e.queries()["k27_centroid_outliers"](SF).to_pandas()
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    m = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    q = np.floor(m * 1048576.0 + 0.5).astype(np.int64)
    n = q.shape[0]
    mu = (q.sum(axis=0).astype(np.float64) / n) / 1048576.0
    ex2 = (q.astype(np.float64) ** 2).sum(axis=0) / n
    # replicate k5's pinned chain per dim with exact int moments
    mu_l, sd_l = [], []
    for p in range(q.shape[1]):
        s = float(int(q[:, p].sum()))
        ss = float(int((q[:, p].astype(object) ** 2).sum()))
        me = s / float(n)
        sd_l.append(np.sqrt(ss / float(n) - me * me) / 1048576.0)
        mu_l.append(me / 1048576.0)
    mu = np.array(mu_l)
    sd = np.array(sd_l)
    score = np.zeros(n)
    for p in range(q.shape[1]):
        z = (m[:, p] - mu[p]) / sd[p]
        score = score + z * z
    order = np.lexsort((emb["vec_id"].to_numpy(), -score))[:10]
    assert list(got["vec_id"]) == list(emb["vec_id"].to_numpy()[order])
    assert np.allclose(got["score"], score[order], rtol=0, atol=0)


# ---------------------------------------------------------------- A98 ----
def test_a98_uniformity_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["a98_arrival_uniformity"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    lo, hi = int(ev["day"].min()), int(ev["day"].max())
    span = hi - lo + 1
    for et, grp in ev.groupby("event_type"):
        dense = np.zeros(span, dtype=np.int64)
        for d, c in grp.groupby("day").size().items():
            dense[int(d) - lo] = int(c)
        total = int(dense.sum())
        cum = np.cumsum(dense)
        rank = np.arange(1, span + 1)
        dev = np.abs(cum * span - rank * total)
        arg = int(np.argmax(dev))
        row = got.loc[et]
        assert row["total"] == total
        assert row["ks_num"] == int(dev[arg])
        assert row["ks_day"] == lo + arg
        assert row["ks_d"] == float(int(dev[arg])) / float(total * span)
        assert 0.0 <= row["ks_d"] < 1.0


def test_a98_detects_frontloaded_arrivals(ray_session, tmp_path):
    import os

    import pyarrow.parquet as _pq

    from anomalydetection_ray.pipelines.queries import a98_arrival_uniformity

    # "burst" fires only in the first 10% of the span; "steady" daily
    rows = [("steady", d) for d in range(100)]
    rows += [("burst", d) for d in range(10) for _ in range(10)]
    t = pa.table({
        "event_id": pa.array(range(len(rows)), type=pa.int64()),
        "ts": pa.array(np.array([d * 86_400_000_000 + 1
                                 for _, d in rows],
                                dtype="datetime64[us]")),
        "user_id": pa.array([0] * len(rows), type=pa.int64()),
        "event_type": pa.array([k for k, _ in rows]),
        "value": pa.array([0.0] * len(rows)),
        "props": pa.array(["{}"] * len(rows)),
    })
    _pq.write_table(t, os.path.join(tmp_path, "events.parquet"))
    got = (a98_arrival_uniformity(str(tmp_path)).to_pandas()
           .set_index("event_type"))
    assert got.loc["burst"]["ks_d"] > 0.8
    assert got.loc["steady"]["ks_d"] < 0.05


# ---------------------------------------------------------------- M10 ----
def test_m10_unpivot_roundtrip(ray_session):
    import __ray_entry__ as e

    long = e.queries()["m10_unpivot"](SF).to_pandas()
    wide = e.queries()["t7_pivot_events"](SF).to_pandas()
    # melted rows scatter back to exactly the pivoted cells
    back = {}
    for _, r in long.iterrows():
        back[(r["event_type"], r["dow"])] = r["n"]
    for _, r in wide.iterrows():
        for d in range(7):
            cell = int(r[f"dow_{d}"])
            if cell:
                assert back.pop((r["event_type"], d)) == cell
    assert not back          # no extra melted rows


# ---------------------------------------------------------------- W64 ----
def test_w64_action_runs_bruteforce(ray_session):
    from collections import Counter

    import __ray_entry__ as e

    got = (e.queries()["w64_action_runs"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "ts", "user_id",
                                "event_type"]).to_pandas()
    ev = ev.sort_values(["user_id", "ts", "event_id"])
    runs, events = Counter(), Counter()
    for _, grp in ev.groupby("user_id"):
        prev = None
        for t in grp["event_type"]:
            events[t] += 1
            if t != prev:
                runs[t] += 1
            prev = t
    for t in events:
        row = got.loc[t]
        assert row["n_events"] == events[t]
        assert row["n_runs"] == runs[t]
        assert row["mean_run_len"] == float(events[t]) / float(runs[t])
        assert row["mean_run_len"] >= 1.0


# ---------------------------------------------------------------- S28 ----
def test_s28_codec_advisor_consistent(ray_session):
    import __ray_entry__ as e

    adv = e.queries()["s28_codec_advisor"](SF).to_pandas()
    cols = {"varint": "varint_bytes", "rle": "rle_bytes",
            "for": "for_bytes", "dict": "dict_bytes"}
    order = ["varint", "rle", "for", "dict"]
    for _, r in adv.iterrows():
        sizes = [r[cols[c]] for c in order]
        assert r["best_bytes"] == min(sizes)
        assert r["best_codec"] == order[int(np.argmin(sizes))]
    # every codec's advertised size matches its standalone surface
    e4 = e.queries()["e4_varint_size"](SF).to_pandas() \
        .set_index(["doc_id", "part_id"])
    sub = adv.set_index(["doc_id", "part_id"])
    assert (sub["varint_bytes"] == e4.loc[sub.index]["n_bytes"]).all()


def test_s28_advisor_prefers_right_codec():
    from anomalydetection_ray.codecs import codec_advisor_batch

    rng = np.random.default_rng(67)
    const = [7] * 300                          # RLE territory
    lowcard_big = rng.choice(
        [10_000_019, 49_999_991, 33_333_331], size=300).tolist()
    ramp = list(range(1000, 1300))             # small deltas: varint/FOR
    out = codec_advisor_batch(_tok_batch([const, lowcard_big, ramp])
                              ).to_pylist()
    assert out[0]["best_codec"] == "rle"
    assert out[1]["best_codec"] in ("dict", "rle", "for")
    assert out[1]["dict_bytes"] < out[1]["varint_bytes"]
    assert out[2]["best_codec"] in ("varint", "for")


# ---------------------------------------------------------------- G59 ----
def test_g59_peak_stability_bruteforce(ray_session):
    from collections import Counter

    import __ray_entry__ as e

    got = (e.queries()["g59_peak_hour_stability"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    us = ev["ts"].astype("int64")
    ev["day"] = us // 86_400_000_000
    ev["hour"] = (us // 3_600_000_000) % 24
    for et, grp in ev.groupby("event_type"):
        peaks = []
        for _, dgrp in grp.groupby("day"):
            c = dgrp.groupby("hour").size()
            best = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            peaks.append(best[0])
        mode = Counter(peaks)
        modal, n_modal = sorted(mode.items(),
                                key=lambda kv: (-kv[1], kv[0]))[0]
        row = got.loc[et]
        assert row["n_days"] == len(peaks)
        assert row["modal_peak_hour"] == modal
        assert row["n_days_at_modal"] == n_modal
        assert row["stability"] == float(n_modal) / float(len(peaks))


# ---------------------------------------------------------------- Q36 ----
def test_q36_hamilton_bruteforce(ray_session):
    import __ray_entry__ as e

    got = e.queries()["q36_hamilton_allocation"](SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["source"]).to_pandas()
    counts = docs.groupby("source").size().sort_index()
    N, S = int(counts.sum()), 1000
    base = {s: (S * int(n)) // N for s, n in counts.items()}
    rem = {s: (S * int(n)) % N for s, n in counts.items()}
    r = S - sum(base.values())
    winners = set(sorted(rem, key=lambda s: (-rem[s], s))[:r])
    g = got.set_index("source")
    for s, n in counts.items():
        assert g.loc[s]["n_docs"] == n
        assert g.loc[s]["floor_alloc"] == base[s]
        assert g.loc[s]["remainder"] == rem[s]
        assert g.loc[s]["alloc"] == base[s] + (s in winners)
    # conservation: the whole point of Hamilton apportionment
    assert got["alloc"].sum() == S


# ---------------------------------------------------------------- X16 ----
def test_x16_two_hop_bruteforce(ray_session):
    from collections import defaultdict

    import __ray_entry__ as e

    got = (e.queries()["x16_two_hop_reach"](SF).to_pandas()
           .set_index("doc"))
    pairs = e.queries()["dedup_minhash_pairs"](SF).to_pandas()
    adj = defaultdict(set)
    for _, r in pairs.iterrows():
        a, b = int(r["doc_a"]), int(r["doc_b"])
        adj[a].add(b)
        adj[b].add(a)
    for v, nb in adj.items():
        reach = set(nb)
        for m in nb:
            reach |= adj[m]
        reach.discard(v)
        assert got.loc[v]["reach2"] == len(reach)
    assert set(got.index) == set(adj)
    # reach is never below the 1-hop degree
    for v, nb in adj.items():
        assert got.loc[v]["reach2"] >= len(nb)


# ---------------------------------------------------------------- W66 ----
def test_w66_trailing_bursts_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["w66_trailing_bursts"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    lo, hi = int(ev["day"].min()), int(ev["day"].max())
    span = hi - lo + 1
    for et, grp in ev.groupby("event_type"):
        dense = np.zeros(span, dtype=np.int64)
        for d, c in grp.groupby("day").size().items():
            dense[int(d) - lo] = int(c)
        bursts = []
        for i in range(7, span):
            bursts.append(7 * dense[i] > 2 * int(dense[i - 7:i].sum()))
        bursts = np.array(bursts, dtype=bool)
        longest = cur = 0
        for b in bursts:
            cur = cur + 1 if b else 0
            longest = max(longest, cur)
        row = got.loc[et]
        assert row["n_eligible_days"] == span - 7
        assert row["n_burst_days"] == int(bursts.sum())
        assert row["longest_burst"] == longest


def test_w66_detects_burst_on_trend(ray_session, tmp_path):
    import os

    import pyarrow.parquet as _pq

    from anomalydetection_ray.pipelines.queries import w66_trailing_bursts

    # rising trend + one 10x day: trailing baseline flags only the spike
    rows = []
    for d in range(40):
        k = 5 + d // 4                       # slow ramp
        if d == 30:
            k *= 10                          # the burst
        rows += [("ramp", d)] * k
    t = pa.table({
        "event_id": pa.array(range(len(rows)), type=pa.int64()),
        "ts": pa.array(np.array([d * 86_400_000_000 + 1
                                 for _, d in rows],
                                dtype="datetime64[us]")),
        "user_id": pa.array([0] * len(rows), type=pa.int64()),
        "event_type": pa.array([k for k, _ in rows]),
        "value": pa.array([0.0] * len(rows)),
        "props": pa.array(["{}"] * len(rows)),
    })
    _pq.write_table(t, os.path.join(tmp_path, "events.parquet"))
    got = w66_trailing_bursts(str(tmp_path)).to_pandas()
    assert got["n_burst_days"][0] == 1
    assert got["longest_burst"][0] == 1


# ---------------------------------------------------------------- G60 ----
def test_g60_dom_profile_bruteforce(ray_session):
    import __ray_entry__ as e

    got = e.queries()["g60_dom_profile"](SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["dom"] = ev["ts"].dt.day
    for et, grp in ev.groupby("event_type"):
        c = grp.groupby("dom").size()
        sub = got[got["event_type"] == et].set_index("dom")
        assert len(sub) == len(c)
        for d, n in c.items():
            assert sub.loc[d]["n"] == n
        peak = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        assert sub["peak_dom"].iloc[0] == peak[0]
        assert sub["peak_share"].iloc[0] == \
            float(peak[1]) / float(len(grp))


# ---------------------------------------------------------------- V27 ----
def test_v27_word_length_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["v27_word_length_profile"](SF).to_pandas()
           .set_index("source"))
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["source", "text"]).to_pandas()
    for src, grp in docs.groupby("source"):
        words = [w for t in grp["text"].fillna("")
                 for w in t.split(" ") if w]
        nw = len(words)
        nc = sum(len(w) for w in words)
        nl = sum(1 for w in words if len(w) >= 7)
        row = got.loc[src]
        assert (row["n_words"], row["n_chars"], row["n_long"]) \
            == (nw, nc, nl)
        assert row["mean_word_len"] == float(nc) / float(nw)
        assert row["long_share"] == float(nl) / float(nw)


# ---------------------------------------------------------------- A99 ----
def test_a99_xmr_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["a99_xmr_chart"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts", "value"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    ev["c"] = np.floor(ev["value"] * 100 + 0.5).astype(np.int64)
    lo, hi = int(ev["day"].min()), int(ev["day"].max())
    span = hi - lo + 1
    for et, grp in ev.groupby("event_type"):
        dense = np.zeros(span, dtype=np.int64)
        for d, s in grp.groupby("day")["c"].sum().items():
            dense[int(d) - lo] = int(s)
        S = int(dense.sum())
        MR = int(np.abs(np.diff(dense)).sum())
        xbar = float(S) / span
        mrbar = float(MR) / (span - 1)
        ucl = xbar + 2.66 * mrbar
        lcl = xbar - 2.66 * mrbar
        xf = dense.astype(np.float64)
        row = got.loc[et]
        assert row["n_days"] == span
        assert (row["sum_cents"], row["mr_sum"]) == (S, MR)
        assert row["ucl"] == ucl and row["lcl"] == lcl
        assert row["n_out"] == int(((xf > ucl) | (xf < lcl)).sum())


def test_a99_xmr_flags_level_shift(ray_session, tmp_path):
    import os

    import pyarrow.parquet as _pq

    from anomalydetection_ray.pipelines.queries import a99_xmr_chart

    # stable process with one 20x day: exactly that day breaches UCL
    rows = [("m", d, 100.0 + (d % 3)) for d in range(60)]
    rows[30] = ("m", 30, 2000.0)
    t = pa.table({
        "event_id": pa.array(range(len(rows)), type=pa.int64()),
        "ts": pa.array(np.array([d * 86_400_000_000 + 1
                                 for _, d, _ in rows],
                                dtype="datetime64[us]")),
        "user_id": pa.array([0] * len(rows), type=pa.int64()),
        "event_type": pa.array([k for k, _, _ in rows]),
        "value": pa.array([v for _, _, v in rows]),
        "props": pa.array(["{}"] * len(rows)),
    })
    _pq.write_table(t, os.path.join(tmp_path, "events.parquet"))
    got = a99_xmr_chart(str(tmp_path)).to_pandas()
    assert got["n_out"][0] == 1


# ---------------------------------------------------------------- W67 ----
def test_w67_lead_lag_bruteforce(ray_session):
    import math

    import __ray_entry__ as e

    got = (e.queries()["w67_lead_lag"](SF).to_pandas()
           .set_index(["type_a", "type_b"]))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    lo, hi = int(ev["day"].min()), int(ev["day"].max())
    span = hi - lo + 1
    dense = {}
    for et, grp in ev.groupby("event_type"):
        dv = np.zeros(span, dtype=np.int64)
        for d, c in grp.groupby("day").size().items():
            dv[int(d) - lo] = int(c)
        dense[et] = dv
    types = sorted(dense)
    for i, a in enumerate(types):
        for b in types[i + 1:]:
            best = None
            for s in range(-7, 8):
                xa = dense[a][:span - s] if s >= 0 else dense[a][-s:]
                xb = dense[b][s:] if s >= 0 else dense[b][:span + s]
                nv = len(xa)
                s1, s2 = int(xa.sum()), int(xb.sum())
                q1, q2 = int((xa * xa).sum()), int((xb * xb).sum())
                p = int((xa * xb).sum())
                num = nv * p - s1 * s2
                d1, d2 = nv * q1 - s1 * s1, nv * q2 - s2 * s2
                if d1 <= 0 or d2 <= 0:
                    continue
                r = float(num) / (math.sqrt(float(d1))
                                  * math.sqrt(float(d2)))
                if best is None or r > best[0]:
                    best = (r, s, nv)
            row = got.loc[(a, b)]
            assert row["best_shift"] == best[1]
            assert row["n_overlap"] == best[2]
            assert row["r_best"] == best[0]
            assert -1.0 <= row["r_best"] <= 1.0


def test_w67_finds_planted_lag(ray_session, tmp_path):
    import os

    import pyarrow.parquet as _pq

    from anomalydetection_ray.pipelines.queries import w67_lead_lag

    # "follow" replays "lead"'s daily pattern exactly 3 days later
    rng = np.random.default_rng(71)
    base = rng.integers(1, 30, size=60)
    rows = []
    for d in range(60):
        rows += [("lead", d)] * int(base[d])
        if d >= 3:
            rows += [("follow", d)] * int(base[d - 3])
    t = pa.table({
        "event_id": pa.array(range(len(rows)), type=pa.int64()),
        "ts": pa.array(np.array([d * 86_400_000_000 + 1
                                 for _, d in rows],
                                dtype="datetime64[us]")),
        "user_id": pa.array([0] * len(rows), type=pa.int64()),
        "event_type": pa.array([k for k, _ in rows]),
        "value": pa.array([0.0] * len(rows)),
        "props": pa.array(["{}"] * len(rows)),
    })
    _pq.write_table(t, os.path.join(tmp_path, "events.parquet"))
    got = w67_lead_lag(str(tmp_path)).to_pandas()
    row = got[(got["type_a"] == "follow")
              & (got["type_b"] == "lead")].iloc[0]
    # pair order is alphabetical ('follow' < 'lead'), so x_a = follow,
    # x_b = lead and corr(x_f(t), x_l(t+s)) peaks at s = -3 (lead's
    # pattern sits 3 days EARLIER than follow's copy of it)
    assert row["best_shift"] == -3
    assert row["r_best"] > 0.95


# ---------------------------------------------------------------- S29 ----
def test_s29_snapshot_diff_bruteforce(ray_session):
    import __ray_entry__ as e

    got = e.queries()["s29_snapshot_diff"](SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id"]).to_pandas()
    ids = ev["event_id"].to_numpy()
    n_del = int((ids % 97 == 0).sum())
    n_upd = int(((ids % 97 != 0) & (ids % 50 == 0)).sum())
    n_same = int(((ids % 97 != 0) & (ids % 50 != 0)).sum())
    n_ins = int((ids % 101 == 0).sum())
    assert got["n_same"][0] == n_same
    assert got["n_updated"][0] == n_upd
    assert got["n_deleted"][0] == n_del
    assert got["n_inserted"][0] == n_ins
    # the census partitions snapshot A exactly
    assert n_same + n_upd + n_del == len(ids)


# ---------------------------------------------------------------- D26 ----
def test_d26_prefix_filter_bruteforce(ray_session):
    import re as _re

    import __ray_entry__ as e

    got = e.queries()["d26_prefix_filter_join"](SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    sets = {int(r["doc_id"]):
            set(_re.findall(r"[0-9a-z_]+", str(r["text"]).lower()))
            for _, r in docs.iterrows()}
    want = {}
    ids = sorted(sets)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            inter = len(sets[a] & sets[b])
            union = len(sets[a] | sets[b])
            if union and 5 * inter >= 4 * union:
                want[(a, b)] = (inter, union)
    have = {(int(r["doc_a"]), int(r["doc_b"])):
            (int(r["n_inter"]), int(r["n_union"]))
            for _, r in got.iterrows()}
    assert have == want          # the prefix lemma: NOTHING missed
    for _, r in got.iterrows():
        assert r["jaccard"] == float(r["n_inter"]) / float(r["n_union"])


def test_d26_prunes_disjoint_vocab_groups(ray_session, tmp_path):
    import os

    import pyarrow.parquet as _pq

    from anomalydetection_ray.pipelines.dedup import d26_prefix_filter_join

    # two vocab-disjoint families: near-identical docs inside each,
    # zero candidates across them
    rows = []
    for i in range(20):
        rows.append((i, "alpha beta gamma delta epsilon "
                     + f"tok{i % 2}"))
    for i in range(20, 40):
        rows.append((i, "omega psi chi phi upsilon "
                     + f"sym{i % 2}"))
    t = pa.table({
        "doc_id": pa.array([i for i, _ in rows], type=pa.int64()),
        "text": pa.array([s for _, s in rows]),
        "lang": pa.array(["en"] * len(rows)),
        "source": pa.array(["s"] * len(rows)),
        "n_chars": pa.array([len(s) for _, s in rows],
                            type=pa.int64()),
    })
    _pq.write_table(t, os.path.join(tmp_path, "documents.parquet"))
    got = d26_prefix_filter_join(str(tmp_path)).to_pandas()
    # matches stay inside families (ids 0-19 vs 20-39 never pair)
    assert len(got) > 0
    assert not (((got["doc_a"] < 20) & (got["doc_b"] >= 20))
                | ((got["doc_a"] >= 20) & (got["doc_b"] < 20))).any()


# ---------------------------------------------------------------- Q37 ----
def test_q37_topk_with_ties_bruteforce(ray_session):
    import __ray_entry__ as e

    got = e.queries()["q37_topk_with_ties"](SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "event_type",
                                "value"]).to_pandas()
    ev["cents"] = np.floor(ev["value"] * 100 + 0.5).astype(np.int64)
    for et, grp in ev.groupby("event_type"):
        g = grp.copy()
        g["rnk"] = g["cents"].rank(method="min",
                                   ascending=False).astype(np.int64)
        want = g[g["rnk"] <= 5]
        sub = got[got["event_type"] == et]
        assert set(sub["event_id"]) == set(want["event_id"])
        m = want.set_index("event_id")
        for _, r in sub.iterrows():
            assert r["cents"] == m.loc[r["event_id"]]["cents"]
            assert r["rnk"] == m.loc[r["event_id"]]["rnk"]


def test_q37_preserves_ties(ray_session, tmp_path):
    import os

    import pyarrow.parquet as _pq

    from anomalydetection_ray.pipelines.queries import q37_topk_with_ties

    # 5th place is a 4-way tie: WITH TIES must keep all 8 rows
    vals = [100.0, 90.0, 80.0, 70.0, 60.0, 60.0, 60.0, 60.0, 10.0]
    t = pa.table({
        "event_id": pa.array(range(len(vals)), type=pa.int64()),
        "ts": pa.array(np.array([d * 86_400_000_000
                                 for d in range(len(vals))],
                                dtype="datetime64[us]")),
        "user_id": pa.array([0] * len(vals), type=pa.int64()),
        "event_type": pa.array(["t"] * len(vals)),
        "value": pa.array(vals),
        "props": pa.array(["{}"] * len(vals)),
    })
    _pq.write_table(t, os.path.join(tmp_path, "events.parquet"))
    got = q37_topk_with_ties(str(tmp_path)).to_pandas()
    assert len(got) == 8                    # plain top-5 would drop 3
    assert (got["rnk"] <= 5).all()
    assert (got[got["cents"] == 6000]["rnk"] == 5).all()


# ---------------------------------------------------------------- W68 ----
def test_w68_growth_accounting_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["w68_growth_accounting"](SF).to_pandas()
           .set_index("week"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["ts", "user_id"]).to_pandas()
    ev["wk"] = (ev["ts"].astype("int64") // 86_400_000_000) // 7
    by_user = {u: sorted(set(g["wk"]))
               for u, g in ev.groupby("user_id")}
    hiw = max(w for wks in by_user.values() for w in wks)
    from collections import defaultdict
    agg = defaultdict(lambda: [0, 0, 0, 0])
    for u, wks in by_user.items():
        ws = set(wks)
        for w in wks:
            if w == wks[0]:
                agg[w][0] += 1
            elif w - 1 in ws:
                agg[w][1] += 1
            else:
                agg[w][2] += 1
            if w + 1 not in ws and w + 1 <= hiw:
                agg[w + 1][3] += 1
    assert set(got.index) == set(agg)
    for w, (nn, nr, nz, nc) in agg.items():
        row = got.loc[w]
        assert (row["n_new"], row["n_retained"],
                row["n_resurrected"], row["n_churned"]) \
            == (nn, nr, nz, nc)
        # the growth-accounting identity
        assert row["n_active"] == nn + nr + nz


def test_w68_quadrants_on_planted_lifecycle(ray_session, tmp_path):
    import os

    import pyarrow.parquet as _pq

    from anomalydetection_ray.pipelines.windows import w68_growth_accounting

    # user 1: weeks 0,1 then gone; user 2: weeks 0,2 (resurrects);
    # user 3: week 2 only (new late)
    rows = [(1, 0), (1, 1), (2, 0), (2, 2), (3, 2)]
    t = pa.table({
        "event_id": pa.array(range(len(rows)), type=pa.int64()),
        "ts": pa.array(np.array([w * 7 * 86_400_000_000
                                 for _, w in rows],
                                dtype="datetime64[us]")),
        "user_id": pa.array([u for u, _ in rows], type=pa.int64()),
        "event_type": pa.array(["click"] * len(rows)),
        "value": pa.array([0.0] * len(rows)),
        "props": pa.array(["{}"] * len(rows)),
    })
    _pq.write_table(t, os.path.join(tmp_path, "events.parquet"))
    got = (w68_growth_accounting(str(tmp_path)).to_pandas()
           .set_index("week"))
    assert got.loc[0]["n_new"] == 2
    assert got.loc[1]["n_retained"] == 1       # user 1
    assert got.loc[1]["n_churned"] == 1        # user 2 skipped week 1
    assert got.loc[2]["n_resurrected"] == 1    # user 2 back
    assert got.loc[2]["n_new"] == 1            # user 3
    assert got.loc[2]["n_churned"] == 1        # user 1 gone


# --------------------------------------------------------------- A100 ----
def test_a100_today_rank_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["a100_today_rank"](SF).to_pandas()
           .set_index("event_type"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_type", "ts", "value"]).to_pandas()
    ev["day"] = ev["ts"].astype("int64") // 86_400_000_000
    ev["c"] = np.floor(ev["value"] * 100 + 0.5).astype(np.int64)
    lo, hi = int(ev["day"].min()), int(ev["day"].max())
    span = hi - lo + 1
    for et, grp in ev.groupby("event_type"):
        dense = np.zeros(span, dtype=np.int64)
        for d, s in grp.groupby("day")["c"].sum().items():
            dense[int(d) - lo] = int(s)
        last = int(dense[-1])
        row = got.loc[et]
        assert row["n_days"] == span
        assert row["last_cents"] == last
        assert row["n_less"] == int((dense < last).sum())
        assert row["n_leq"] == int((dense <= last).sum())
        assert row["pct_rank"] == \
            float(int((dense <= last).sum())) / float(span)
        assert 0.0 < row["pct_rank"] <= 1.0


# ---------------------------------------------------------------- E8 ----
def test_e8_ts_dod_bruteforce(ray_session):
    import __ray_entry__ as e

    got = e.queries()["e8_ts_dod_size"](SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "user_id", "ts"]).to_pandas()
    ev = ev.sort_values(["user_id", "ts", "event_id"])

    def leb(u: int) -> int:
        w = 1
        while u >= (1 << (7 * w)):
            w += 1
        return w

    total = 0
    for _, grp in ev.groupby("user_id"):
        ts = grp["ts"].astype("int64").to_list()
        total += 8
        prev_d = None
        for i in range(1, len(ts)):
            d = ts[i] - ts[i - 1]
            val = d if prev_d is None else d - prev_d
            zz = 2 * val if val >= 0 else -2 * val - 1
            total += leb(zz)
            prev_d = d
    assert got["n_events"][0] == len(ev)
    assert got["n_users"][0] == ev["user_id"].nunique()
    assert got["n_bytes"][0] == total
    assert got["compression_ratio"][0] == \
        float(8 * len(ev)) / float(total)
    # the whole point: beats raw 8-byte timestamps
    assert got["compression_ratio"][0] > 1.0


# ---------------------------------------------------------------- S30 ----
def test_s30_skew_report_bruteforce(ray_session):
    import __ray_entry__ as e

    got = (e.queries()["s30_skew_report"](SF).to_pandas()
           .set_index("key_name"))
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["user_id", "event_type"]).to_pandas()
    li = pq.read_table(f"{SF}/lineitem.parquet",
                       columns=["l_orderkey"]).to_pandas()
    for name, series in [("events.user_id", ev["user_id"]),
                         ("events.event_type", ev["event_type"]),
                         ("lineitem.l_orderkey", li["l_orderkey"])]:
        sizes = np.sort(series.value_counts().to_numpy())
        nk, nr = len(sizes), int(sizes.sum())
        row = got.loc[name]
        assert row["n_keys"] == nk
        assert row["n_rows"] == nr
        assert row["max_group"] == int(sizes[-1])
        assert row["max_share"] == float(int(sizes[-1])) / float(nr)
        assert row["p50_group"] == int(sizes[(50 * nk + 99)
                                             // 100 - 1])
        assert row["p99_group"] == int(sizes[(99 * nk + 99)
                                             // 100 - 1])


# ---------------------------------------------------------------- Q38 ----
def test_q38_diverse_topk_bruteforce(ray_session):
    import __ray_entry__ as e

    got = e.queries()["q38_diverse_topk"](SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet",
                       columns=["event_id", "event_type",
                                "value"]).to_pandas()
    ev["cents"] = np.floor(ev["value"] * 100 + 0.5).astype(np.int64)
    ev = ev.sort_values(["cents", "event_id"],
                        ascending=[False, True])
    picked, seen = [], {}
    for _, r in ev.iterrows():
        if seen.get(r["event_type"], 0) < 2:
            picked.append(r)
            seen[r["event_type"]] = seen.get(r["event_type"], 0) + 1
        if len(picked) == 10:
            break
    # the per-type-cap-then-global-rank formulation equals the greedy
    # scan because caps only ever EXCLUDE lower-ranked rows
    want_ids = [int(r["event_id"]) for r in picked]
    assert sorted(got["event_id"]) == sorted(want_ids)
    assert got["event_type"].value_counts().max() <= 2
    assert len(got) == 10


# ------------------------------------------- daily series: input layout ----
# One query per family (daily cent totals, daily counts, partition-kernel
# pipeline); each ends in a one-block finalize.
DAILY_QUERIES = ["a99_xmr_chart", "g38_daily_gini", "w59_stickiness"]


def _sorted_frame(ds):
    df = ds.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("name", DAILY_QUERIES)
def test_daily_series_empty_events(ray_session, tmp_path, name):
    import __ray_entry__ as e

    ev = pq.read_table(f"{SF}/events.parquet")
    pq.write_table(ev.slice(0, 0), str(tmp_path / "events.parquet"))
    assert e.queries()[name](str(tmp_path)).take_all() == []


@pytest.mark.parametrize("name", DAILY_QUERIES)
def test_daily_series_split_events(ray_session, tmp_path, name):
    import pandas as pd

    import __ray_entry__ as e

    ev = pq.read_table(f"{SF}/events.parquet")
    parts = tmp_path / "events.parquet"
    parts.mkdir()
    step = -(-ev.num_rows // 8)
    for i in range(8):
        pq.write_table(ev.slice(i * step, step),
                       str(parts / f"part-{i}.parquet"), row_group_size=64)
    want = _sorted_frame(e.queries()[name](SF))
    got = _sorted_frame(e.queries()[name](str(tmp_path)))
    assert len(want) > 0
    pd.testing.assert_frame_equal(got, want)


# ------------------------------- one-task plan vs exchange: same rows ----
# The 11 events_queries entries, which plan their input with ``sized_plan``
# directly or through the daily-series helpers and the retention layout
# helper, a per-type (a35) and a whole-grid (g31) daily-series caller.
SIZED_QUERIES = ["rollup_events_tier1", "g8_grouping_sets", "g25_stickiness",
                 "w59_stickiness", "g38_daily_gini", "a99_xmr_chart",
                 "w41_daily_type_corr", "a37_pettitt", "r1_retention_plan",
                 "r1_retention_apply", "r2_compact_events",
                 "a35_seasonal_energy", "g31_dispersion_index"]
# the temp layouts retention_apply_events / compact_events stage and remove
RETENTION_LAYOUTS = ("anomray_retention_", "anomray_compact_")
# The other daily-series callers: test data never exceeds one read target,
# so only this test runs their exchange plan.  One layout is enough; the
# split and zero-row inputs reach the helpers through the queries above.
DAILY_SERIES = ["a36_rescaled_range", "a38_mann_whitney", "a39_bartels_rvn",
                "a41_variance_ratio", "a42_seasonal_mk", "a43_cox_stuart",
                "a44_arch_effect", "a45_turning_point_test", "a47_hurst_aggvar",
                "a48_seasonal_strength", "a49_brown_forsythe",
                "g34_daily_quantile_band", "w44_daily_acf1", "a63_kpss",
                "g40_kendall_daily", "a68_von_neumann", "w47_burst_runs",
                "a69_jarque_bera", "w49_weekday_strength", "a70_df_slope",
                "w51_robust_volatility", "a71_daily_mad_outliers",
                "w57_burstiness", "g47_outlier_days", "c10_detector_agreement",
                "a97_daily_mase", "g53_longest_drought", "w63_weekend_effect",
                "a98_arrival_uniformity", "w66_trailing_bursts", "w67_lead_lag",
                "a100_today_rank"]
# The two queries on the shared Benford count grid.
BENFORD = ["t11_benford_digits", "g58_benford"]
# The other queries on ``_events_grid``; g26 (one whole-grid finalize),
# g22 (the shared cent histogram) and w34 (windows.py) also run on the
# split and zero-row layouts.
EVENTS_GRID = ["g6_value_histogram", "d3_value_drift", "a29_xcorr_volumes",
               "g20_spearman_daily", "g22_value_quantiles_by_type",
               "g24_beta_to_total", "w35_weekend_contrast", "g26_kruskal_wallis",
               "g37_mad_by_type", "g41_ks_two_types", "g43_trimean",
               "w53_peak_hour_share", "g44_simpson_day", "g45_peak_to_median",
               "g46_bowley_by_type", "a95_weekly_spectrum",
               "a96_diurnal_spectrum", "g49_dow_hour_heatmap",
               "g59_peak_hour_stability", "g60_dom_profile",
               "q37_topk_with_ties", "w34_hourly_profile"]
GRID_LAYOUTS = ["g26_kruskal_wallis", "g22_value_quantiles_by_type",
                "w34_hourly_profile"]
SIZED_CASES = [(n, layout) for n in SIZED_QUERIES + GRID_LAYOUTS
               for layout in ("sf0.001", "split", "empty")] + \
              [(n, "sf0.001") for n in DAILY_SERIES + BENFORD + EVENTS_GRID
               if n not in GRID_LAYOUTS]


@pytest.fixture(scope="module")
def events_oracle_sql():
    import __ray_entry__ as e

    sql = e.oracle_sql()
    return {n: sql[n] for n in SIZED_QUERIES + DAILY_SERIES + BENFORD + EVENTS_GRID}


def _events_input(layout: str, tmp_path) -> str:
    if layout == "sf0.001":
        return SF
    ev = pq.read_table(f"{SF}/events.parquet")
    parts = tmp_path / "events.parquet"
    if layout == "empty":
        pq.write_table(ev.slice(0, 0), str(parts))
        return str(tmp_path)
    parts.mkdir()
    step = -(-ev.num_rows // 8)
    for i in range(8):
        pq.write_table(ev.slice(i * step, step),
                       str(parts / f"part-{i}.parquet"), row_group_size=64)
    return str(tmp_path)


@pytest.mark.parametrize("name,layout", SIZED_CASES,
                         ids=[f"{n}-{layout}" for n, layout in SIZED_CASES])
def test_sized_plan_matches_exchange(ray_session, tmp_path, monkeypatch,
                                     events_oracle_sql, name, layout):
    import os
    import tempfile

    import duckdb
    import pandas as pd
    import ray.data

    import __ray_entry__ as e
    from anomalydetection_ray.pipelines import queries, rollup

    sf = _events_input(layout, tmp_path)
    q = e.queries()[name]

    def no_exchange(*args, **kwargs):
        raise AssertionError("the one-task plan built the exchange")

    def left_layouts():
        return [n for n in os.listdir(tempfile.gettempdir()) if n.startswith(RETENTION_LAYOUTS)]

    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    with monkeypatch.context() as m:
        m.setattr(queries, "_read", no_exchange)
        one = _sorted_frame(q(sf))
        assert left_layouts() == []
        assert q(sf).materialize().num_blocks() == 1
    schema = ray.data.Dataset.schema

    def no_probe(ds, fetch_if_missing=True):
        # fetch_if_missing=False only reads a schema already known
        assert not fetch_if_missing, "the exchange ran a schema probe"
        return schema(ds, fetch_if_missing=False)

    with monkeypatch.context() as m:
        m.setattr(rollup, "_READ_TARGET_BYTES", -1)
        m.setattr(ray.data.Dataset, "schema", no_probe)
        exchanged = _sorted_frame(q(sf))
        assert left_layouts() == []
    assert (len(one) == 0) == (layout == "empty")
    pd.testing.assert_frame_equal(one, exchanged)
    if layout == "sf0.001":
        con = duckdb.connect()
        con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')")
        want = con.execute(events_oracle_sql[name]).fetchdf()

        def canon(df):
            df = df[sorted(df.columns)]
            return df.sort_values(list(df.columns)).reset_index(drop=True)

        pd.testing.assert_frame_equal(canon(one), canon(want), check_dtype=False,
                                      check_exact=True)


# ------------------------------------------- partition_apply invariance ----
PARTITION_APPLY_QUERIES = [
    ("queries", "a1_moving_stats_events"),
    ("queries", "j10_snapshot_diff"),
    ("queries", "w40_arrival_cadence"),
    ("dedup", "d14_cross_source_exact"),
    ("dedup", "d26_prefix_filter_join"),
    ("text", "t17_dup_sentence_share"),
    ("packing", "q15_token_budget_select"),
    ("packing", "q16_shard_balance"),
    ("packing", "p7_curriculum_order"),
]


@pytest.mark.parametrize("module,name", PARTITION_APPLY_QUERIES,
                         ids=[n for _, n in PARTITION_APPLY_QUERIES])
def test_partition_apply_invariance(ray_session, module, name):
    """Queries whose key exchange is ``partition_apply`` give the same
    rows on one partition as on sixteen."""
    import importlib

    import pandas as pd

    q = getattr(importlib.import_module(
        f"anomalydetection_ray.pipelines.{module}"), name)
    one = _sorted_frame(q(SF, num_partitions=1))
    many = _sorted_frame(q(SF, num_partitions=16))
    assert len(one) > 0
    pd.testing.assert_frame_equal(one, many)
