"""Text-analysis operators for training-data pipelines (driver round-1
extras): language-ID, quality scoring, token counting, document
fingerprinting.  All deterministic, all expressed as stateless or
actor-pool ``map_batches`` stages over the ``documents`` table.
"""

from __future__ import annotations

import re
import zlib

import numpy as np
import pyarrow as pa

_WS_RE = re.compile(r"\s+")
_BPE_RE = re.compile(r"[A-Za-z]+|[0-9]|[^A-Za-z0-9\s]")

# tiny public stopword kernels (language-ID heuristic; not a model)
_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for"},
    "de": {"der", "die", "und", "das", "ist", "nicht", "ein", "mit", "zu", "den"},
    "fr": {"le", "la", "les", "et", "de", "un", "une", "est", "que", "pour"},
    "es": {"el", "la", "los", "y", "de", "un", "una", "es", "que", "por"},
}


def _stopword_hashes() -> dict:
    """Per-language uint64 hash sets under the shared word_hashes family
    (64-bit hashes -> collision odds negligible)."""
    import numpy as _np

    from anomalydetection_ray.pipelines.dedup import word_hashes

    out = {}
    for lang, words in _STOPWORDS.items():
        blob = " ".join(sorted(words)).encode("utf-8")
        flat = _np.frombuffer(blob, dtype=_np.uint8)
        hs, _ = word_hashes(flat, _np.array([0, flat.shape[0]], dtype=_np.int64))
        out[lang] = _np.unique(hs)
    return out


_STOPWORD_HASHES = _stopword_hashes()


def lang_id_batch(batch: pa.Table) -> pa.Table:
    """Stopword-ratio language heuristic -> (doc_id, pred_lang, confidence).
    Vectorized: every word in the batch is hashed once (the shared
    word_hashes tokenizer), stopword membership is an np.isin against
    each language's precomputed hash set, and per-doc hit ratios come
    from reduceat — no per-doc Python.  Only the first 2000 words of a
    doc vote (long-doc cap).

    Heuristic definition (deliberate, and what the SQL oracle mirrors):
    words are maximal runs of word-class BYTES ([0-9a-z_] plus any byte
    >= 0x80) of the lowercased text — NOT whitespace tokens — so
    punctuation never glues onto a stopword; ties between languages break
    to the first language in sorted order (de < en < es < fr); matching
    is via 64-bit word hashes (collision odds ~ n_words * 40 / 2^64)."""
    from anomalydetection_ray.pipelines.dedup import word_hashes

    flat, offsets = _flat_utf8(batch)
    nrows = offsets.shape[0] - 1
    hwords, doc_of = word_hashes(flat, offsets)
    langs = sorted(_STOPWORDS)
    best = np.zeros(nrows, dtype=np.float64)
    best_lang = np.zeros(nrows, dtype=np.int64) - 1
    if hwords.shape[0]:
        dseg_all = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.flatnonzero(doc_of[1:] != doc_of[:-1]) + 1)
        )
        # cap: word rank within its doc < 2000
        rank = np.arange(doc_of.shape[0], dtype=np.int64)
        rank -= np.repeat(dseg_all, np.diff(np.concatenate((dseg_all, [doc_of.shape[0]]))))
        keep = rank < 2000
        hw, dk = hwords[keep], doc_of[keep]
        dseg = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.flatnonzero(dk[1:] != dk[:-1]) + 1)
        )
        docs = dk[dseg]
        nw = np.diff(np.concatenate((dseg, [dk.shape[0]])))
        for li, lang in enumerate(langs):
            hits = np.add.reduceat(np.isin(hw, _STOPWORD_HASHES[lang]).astype(np.int64), dseg)
            ratio = hits / nw
            upd = ratio > best[docs]
            bd = docs[upd]
            best[bd] = ratio[upd]
            best_lang[bd] = li
    conf_ok = best >= 0.02
    preds = np.where(
        conf_ok & (best_lang >= 0),
        np.array(langs, dtype=object)[np.maximum(best_lang, 0)],
        "unknown",
    )
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "pred_lang": pa.array(preds.tolist(), type=pa.string()),
            "confidence": pa.array(best, type=pa.float64()),
        }
    )


def _flat_utf8(batch: pa.Table, col: str = "text") -> tuple[np.ndarray, np.ndarray]:
    """(flat uint8 buffer, rebased int64 offsets) of a string column —
    zero-copy view of the Arrow data buffer."""
    text = batch.column(col)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    text = text.cast(pa.binary())
    offsets = np.frombuffer(text.buffers()[1], dtype=np.int32,
                            count=len(text) + 1, offset=text.offset * 4).astype(np.int64)
    flat = np.frombuffer(text.buffers()[2], dtype=np.uint8, count=int(offsets[-1]))
    base = offsets[0]
    offsets = offsets - base
    return flat[base : base + int(offsets[-1])], offsets


# ASCII byte classes (vectorized lookup tables).  \s here is the ASCII
# whitespace set; multi-byte UTF-8 never collides (those bytes are >= 0x80)
_IS_ALPHA = np.zeros(256, dtype=bool)
_IS_ALPHA[65:91] = _IS_ALPHA[97:123] = True
_IS_WS = np.zeros(256, dtype=bool)
_IS_WS[[9, 10, 11, 12, 13, 32]] = True
_IS_DIGIT = np.zeros(256, dtype=bool)
_IS_DIGIT[48:58] = True
_IS_CONT = np.zeros(256, dtype=bool)
_IS_CONT[0x80:0xC0] = True  # UTF-8 continuation bytes (not characters)


def _runs_per_row(mask: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-row count of maximal True-runs in ``mask`` (row-boundary-aware)."""
    n = mask.shape[0]
    if n == 0:
        return np.zeros(offsets.shape[0] - 1, dtype=np.int64)
    start = np.empty(n, dtype=bool)
    start[0] = mask[0]
    start[1:] = mask[1:] & ~mask[:-1]
    start[offsets[:-1][offsets[:-1] < n]] = mask[offsets[:-1][offsets[:-1] < n]]
    counts = np.zeros(offsets.shape[0] - 1, dtype=np.int64)
    lens = np.diff(offsets)
    nz = lens > 0
    counts[nz] = np.add.reduceat(start.astype(np.int64), offsets[:-1][nz])
    return counts


def quality_batch(batch: pa.Table) -> pa.Table:
    """Deterministic quality facets per doc.  Integer counts + single
    divisions so the SQL oracle can reproduce them bit-for-bit:
      n_bytes     = octet_length(text)
      alpha_ratio = alpha_chars / n_bytes        (ASCII [A-Za-z], on bytes)
      ws_tokens   = length(split on \\s+) incl. boundary empties (DuckDB
                    string_split_regex semantics: separator-run count + 1)
    plus a composite quality_score (SQL-checked too).  All counts come
    from byte-class masks + reduceat over the flat buffer — no per-doc
    Python.

    Definition note: mean word length (the quality_score's mean_w term)
    is measured in BYTES of the non-whitespace runs — multi-byte UTF-8
    characters count per byte, a deliberate byte-domain heuristic (it
    slightly up-weights non-ASCII words; exactly what the SQL oracle
    reproduces)."""
    flat, offsets = _flat_utf8(batch)
    nb_arr = np.diff(offsets)
    nrows = nb_arr.shape[0]
    nz = nb_arr > 0
    alpha_m = _IS_ALPHA[flat]
    al_arr = np.zeros(nrows, dtype=np.int64)
    al_arr[nz] = np.add.reduceat(alpha_m.astype(np.int64), offsets[:-1][nz])
    ws_m = _IS_WS[flat]
    ws_runs = _runs_per_row(ws_m, offsets)
    ws_tokens = ws_runs + 1  # split() length == separator runs + 1
    word_runs = _runs_per_row(~ws_m, offsets)
    word_bytes = np.zeros(nrows, dtype=np.int64)
    word_bytes[nz] = np.add.reduceat((~ws_m).astype(np.int64), offsets[:-1][nz])
    with np.errstate(invalid="ignore", divide="ignore"):
        ar_arr = np.where(nb_arr > 0, al_arr / np.maximum(nb_arr, 1), 0.0)
        mean_w = np.where(word_runs > 0, word_bytes / np.maximum(word_runs, 1), 0.0)
    score = np.clip(
        0.5 * ar_arr
        + 0.3 * np.minimum(mean_w / 8.0, 1.0)
        + 0.2 * np.minimum(nb_arr / 2000.0, 1.0),
        0.0,
        1.0,
    )
    score = np.where(nb_arr > 0, score, 0.0)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_bytes": pa.array(nb_arr, type=pa.int64()),
            "alpha_chars": pa.array(al_arr, type=pa.int64()),
            "alpha_ratio": pa.array(ar_arr, type=pa.float64()),
            "ws_tokens": pa.array(ws_tokens, type=pa.int64()),
            "quality_score": pa.array(score, type=pa.float64()),
        }
    )


def token_count_batch(batch: pa.Table) -> pa.Table:
    """Token counting: whitespace words + a BPE-ish segmentation
    ([A-Za-z]+ | digit | single non-alnum-non-ws char), both as
    byte-class run/point counts over the flat buffer (UTF-8 continuation
    bytes excluded so multi-byte chars count once, matching the regex)."""
    flat, offsets = _flat_utf8(batch)
    nrows = offsets.shape[0] - 1
    nz = np.diff(offsets) > 0
    ws_m = _IS_WS[flat]
    words = _runs_per_row(~ws_m, offsets)
    alpha_m = _IS_ALPHA[flat]
    alpha_runs = _runs_per_row(alpha_m, offsets)
    other_m = ~alpha_m & ~ws_m & ~_IS_DIGIT[flat] & ~_IS_CONT[flat]
    pts = (_IS_DIGIT[flat] | other_m).astype(np.int64)
    points = np.zeros(nrows, dtype=np.int64)
    points[nz] = np.add.reduceat(pts, offsets[:-1][nz])
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "word_count": pa.array(words, type=pa.int64()),
            "bpe_count": pa.array(alpha_runs + points, type=pa.int64()),
        }
    )


_FP_WINDOW = 16
_FP_KEEP_MOD = 8
_FP_K = 8


def _window_hashes(flat: np.ndarray, offsets: np.ndarray):
    """Shared winnowing stencil: (uint32 hash per in-row sliding window,
    row index per window, rows-with-windows mask, per-such-row min window
    hash).  One vectorized pass over the flat utf-8 buffer — used by the
    fingerprint op and the split-contamination check so both see the
    exact same window-hash stream."""
    lens = np.diff(offsets)
    n = flat.shape[0]
    mult = np.uint32(1103515245)
    nwin_global = max(n - _FP_WINDOW + 1, 0)
    acc = np.zeros(nwin_global, dtype=np.uint32)
    for k in range(_FP_WINDOW):
        acc = acc * mult + flat[k : k + nwin_global].astype(np.uint32)
    # windows fully inside one row: start in [row_start, row_end - 16]
    out_lens = np.maximum(lens - (_FP_WINDOW - 1), 0)
    ok = out_lens > 0
    if not ok.any():
        return (np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.int64),
                ok, np.empty(0, dtype=np.uint32))
    starts = offsets[:-1][ok]
    reps = out_lens[ok]
    total = int(reps.sum())
    idx = np.repeat(starts, reps) + (
        np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(reps) - reps, reps)
    )
    h = acc[idx]
    rows_of = np.repeat(np.flatnonzero(ok), reps)
    seg_starts = np.concatenate(([0], np.cumsum(reps)[:-1]))
    # per-row min of ALL windows (fallback when nothing passes the mod)
    row_min = np.minimum.reduceat(h, seg_starts)
    return h, rows_of, ok, row_min


def kept_hash_rows(batch: pa.Table) -> pa.Table:
    """Distinct kept window hashes per document as (doc_id, h) rows — the
    winnowing shingle set the split-contamination check joins on (same
    stencil + keep rule as the fingerprint op, no _FP_K truncation)."""
    flat, offsets = _flat_utf8(batch)
    h, rows_of, _, _ = _window_hashes(flat, offsets)
    keep = h % np.uint32(_FP_KEEP_MOD) == 0
    kr, kh = rows_of[keep], h[keep]
    if kr.shape[0]:
        order = np.lexsort((kh, kr))
        kr, kh = kr[order], kh[order]
        first = np.empty(kr.shape[0], dtype=bool)
        first[0] = True
        first[1:] = (kr[1:] != kr[:-1]) | (kh[1:] != kh[:-1])
        kr, kh = kr[first], kh[first]
    doc = np.asarray(batch.column("doc_id"), dtype=np.int64)
    return pa.table({
        "doc_id": pa.array(doc[kr], type=pa.int64()),
        "h": pa.array(kh.astype(np.int64), type=pa.int64()),
    })


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Rolling-hash document fingerprint (winnowing-style): polynomial
    hash over a sliding byte window, keep hashes == 0 mod _FP_KEEP_MOD,
    fingerprint = hex of the _FP_K smallest distinct kept hashes (falling
    back to the row's min window hash, then to crc32 of short rows).
    One stencil pass over the batch's flat buffer + a lexsort-dedupe for
    the per-row distinct-min selection — per-doc Python only for the
    final hex join."""
    flat, offsets = _flat_utf8(batch)
    nrows = offsets.shape[0] - 1
    h, rows_of, ok, row_min = _window_hashes(flat, offsets)
    sel_lists: list[list[int]] = [[] for _ in range(nrows)]
    if ok.any():
        keep = h % np.uint32(_FP_KEEP_MOD) == 0
        kr, kh = rows_of[keep], h[keep]
        if kr.shape[0]:
            order = np.lexsort((kh, kr))
            kr, kh = kr[order], kh[order]
            first = np.empty(kr.shape[0], dtype=bool)
            first[0] = True
            first[1:] = (kr[1:] != kr[:-1]) | (kh[1:] != kh[:-1])
            kr, kh = kr[first], kh[first]
            # rank within row; keep the _FP_K smallest distinct
            rseg = np.concatenate(([0], np.flatnonzero(kr[1:] != kr[:-1]) + 1))
            rank = np.arange(kr.shape[0], dtype=np.int64)
            rank -= np.repeat(rseg, np.diff(np.concatenate((rseg, [kr.shape[0]]))))
            sel_mask = rank < _FP_K
            for r, x in zip(kr[sel_mask].tolist(), kh[sel_mask].tolist()):
                sel_lists[r].append(int(x))
        # rows with windows but no kept hash -> min window hash
        for i, r in enumerate(np.flatnonzero(ok).tolist()):
            if not sel_lists[r]:
                sel_lists[r].append(int(row_min[i]))
    fps = []
    for r in range(nrows):
        if sel_lists[r]:
            fps.append("".join(f"{x:08x}" for x in sel_lists[r]))
        else:  # row shorter than the window
            fps.append(f"{zlib.crc32(flat[offsets[r]:offsets[r + 1]].tobytes()):08x}")
    return pa.table({"doc_id": batch.column("doc_id"), "fingerprint": pa.array(fps, type=pa.string())})


def repetition_batch(batch: pa.Table) -> pa.Table:
    """Gopher-style word-repetition quality stats per document: word
    count, distinct-word count, duplicate-word fraction and top-word
    fraction.  Words = space-split tokens (exactly SQL ``string_split``
    minus empties), counted with C-level Arrow ``group_by`` — no word
    hashing, so the numbers match the SQL oracle verbatim with no
    collision caveat.  The two fractions are single float divisions of
    exact ints."""
    import pyarrow.compute as pc

    text = batch.column("text")
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    words = pc.split_pattern(text, " ")
    flat = pc.list_flatten(words)
    row_of = pc.list_parent_indices(words)
    keep = pc.not_equal(flat, "")
    pairs = pa.table({"row": row_of.filter(keep), "word": flat.filter(keep)})
    per_pair = pairs.group_by(["row", "word"]).aggregate([("word", "count")])
    per_row = per_pair.group_by("row").aggregate(
        [("word_count", "sum"), ("word_count", "count"), ("word_count", "max")])
    n = batch.num_rows
    n_words = np.zeros(n, dtype=np.int64)
    n_distinct = np.zeros(n, dtype=np.int64)
    top_cnt = np.zeros(n, dtype=np.int64)
    rows = np.asarray(per_row.column("row"), dtype=np.int64)
    n_words[rows] = np.asarray(per_row.column("word_count_sum"), dtype=np.int64)
    n_distinct[rows] = np.asarray(per_row.column("word_count_count"), dtype=np.int64)
    top_cnt[rows] = np.asarray(per_row.column("word_count_max"), dtype=np.int64)
    empty = n_words == 0
    denom = np.where(empty, 1, n_words).astype(np.float64)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_words": pa.array(n_words, type=pa.int64()),
        "n_distinct_words": pa.array(n_distinct, type=pa.int64()),
        "dup_word_frac": pa.array((n_words - n_distinct) / denom,
                                  type=pa.float64(), mask=empty),
        "top_word_frac": pa.array(top_cnt / denom, type=pa.float64(), mask=empty),
    })


def lang_id(sf_dir: str):
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(lang_id_batch, batch_format="pyarrow", zero_copy_batch=True)


def quality_repetition(sf_dir: str):
    """Per-document word-repetition stats over the documents table — the
    dup-line/top-ngram family of quality filters (Rae et al. 2021
    'Gopher' §A1.1 heuristics, word-level form), embarrassingly parallel
    map-only."""
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(repetition_batch, batch_format="pyarrow", zero_copy_batch=True)


def quality(sf_dir: str):
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(quality_batch, batch_format="pyarrow", zero_copy_batch=True)


def token_counts(sf_dir: str):
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(token_count_batch, batch_format="pyarrow", zero_copy_batch=True)


def fingerprints(sf_dir: str):
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(fingerprint_batch, batch_format="pyarrow", zero_copy_batch=True)


SPLIT_MOD = 10
SPLIT_TRAIN_LT = 8  # doc_id % 10 < 8 -> train; >= 8 -> held-out


def split_contamination(sf_dir: str):
    """D4 — train/test contamination check, the gate every training-data
    pipeline needs before a held-out split is trusted: held-out documents
    (``doc_id % 10 >= 8``) sharing any winnowing window-hash with a train
    document.  Per contaminated held-out doc: distinct shared hashes and
    distinct train docs sharing them.

    Scale shape: the exchange is keyed on the window HASH (uniform by
    construction), carrying only distinct (doc_id, h) pairs — corpus text
    never moves.  Within one hash group the train x test pair expansion
    is bounded by the group's dup multiplicity (near-dup volume, not
    corpus volume), and the second exchange carries only those triples.
    """
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    pairs = ds.map_batches(kept_hash_rows, batch_format="pyarrow",
                           zero_copy_batch=True)

    from anomalydetection_ray.stages.runs import partition_apply

    _EMPTY_TRIPLES = pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "train_doc": pa.array([], type=pa.int64()),
        "h": pa.array([], type=pa.int64()),
    })

    def per_hash(part: pa.Table) -> pa.Table:
        """Per PARTITION of window hashes: for every hash group the
        train x test pair expansion, all runs at once — one lexsort +
        pure index arithmetic, no per-hash Python."""
        if part.num_rows == 0:
            return _EMPTY_TRIPLES
        h = np.asarray(part.column("h"), dtype=np.int64)
        d = np.asarray(part.column("doc_id"), dtype=np.int64)
        # dedupe (h, doc) — hash groups may repeat a doc across blocks —
        # then order test docs before train docs within each hash run
        is_train = (d % SPLIT_MOD) < SPLIT_TRAIN_LT
        order = np.lexsort((d, is_train, h))
        h, d, is_train = h[order], d[order], is_train[order]
        keep = np.r_[True, (h[1:] != h[:-1]) | (d[1:] != d[:-1])]
        h, d, is_train = h[keep], d[keep], is_train[keep]
        # run boundaries per hash
        starts = np.flatnonzero(np.r_[True, h[1:] != h[:-1]])
        ends = np.append(starts[1:], h.shape[0])
        csum = np.concatenate(([0], np.cumsum(is_train)))
        ntr = csum[ends] - csum[starts]
        nte = (ends - starts) - ntr
        cnt = nte * ntr
        total = int(cnt.sum())
        if total == 0:
            return _EMPTY_TRIPLES
        run_of = np.repeat(np.arange(starts.shape[0]), cnt)
        off = np.concatenate(([0], np.cumsum(cnt)))
        local = np.arange(total, dtype=np.int64) - np.repeat(off[:-1], cnt)
        te_idx = local // ntr[run_of]
        tr_idx = local % ntr[run_of]
        return pa.table({
            "doc_id": pa.array(d[starts[run_of] + te_idx], type=pa.int64()),
            "train_doc": pa.array(d[starts[run_of] + nte[run_of] + tr_idx],
                                  type=pa.int64()),
            "h": pa.array(h[starts[run_of]], type=pa.int64()),
        })

    triples = partition_apply(pairs, ["h"], per_hash)

    def per_test(part: pa.Table) -> pa.Table:
        """Per PARTITION of held-out docs: distinct shared hashes and
        distinct train docs per doc via run boundaries — no per-doc
        Python."""
        if part.num_rows == 0:
            return pa.table({
                "doc_id": pa.array([], type=pa.int64()),
                "n_shared_hashes": pa.array([], type=pa.int64()),
                "n_train_docs": pa.array([], type=pa.int64()),
            })
        d = np.asarray(part.column("doc_id"), dtype=np.int64)
        hs = np.asarray(part.column("h"), dtype=np.int64)
        tds = np.asarray(part.column("train_doc"), dtype=np.int64)

        def nunique_per_doc(key: np.ndarray, d_sorted_starts, d_all):
            pair_starts = np.flatnonzero(
                np.r_[True, (d_all[1:] != d_all[:-1]) | (key[1:] != key[:-1])])
            return np.diff(np.append(
                np.searchsorted(pair_starts, d_sorted_starts),
                pair_starts.shape[0]))

        o1 = np.lexsort((hs, d))
        d1 = d[o1]
        doc_starts = np.flatnonzero(np.r_[True, d1[1:] != d1[:-1]])
        n_shared = nunique_per_doc(hs[o1], doc_starts, d1)
        o2 = np.lexsort((tds, d))
        n_train = nunique_per_doc(tds[o2], doc_starts, d[o2])
        return pa.table({
            "doc_id": pa.array(d1[doc_starts], type=pa.int64()),
            "n_shared_hashes": pa.array(n_shared, type=pa.int64()),
            "n_train_docs": pa.array(n_train, type=pa.int64()),
        })

    return partition_apply(triples, ["doc_id"], per_test)


def lang_mix_by_source(sf_dir: str):
    """T5 — corpus composition report: document counts per (source,
    predicted language) — the mix table a corpus curator reads before
    deciding sampling weights.  The lang-ID kernel runs fused in the same
    pass (no materialized intermediate); per-block Arrow group_by
    partials mean ≤ sources · languages rows cross the exchange per
    block."""
    import pyarrow.compute as pc
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text", "source"])

    def partial(batch: pa.Table) -> pa.Table:
        pl = lang_id_batch(batch)
        t = pa.table({"source": batch.column("source"),
                      "pred_lang": pl.column("pred_lang")})
        g = t.group_by(["source", "pred_lang"]).aggregate([([], "count_all")])
        return pa.table({"source": g.column("source"),
                         "pred_lang": g.column("pred_lang"),
                         "n_docs": pc.cast(g.column("count_all"), pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def merge(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "source": group.column("source").slice(0, 1),
            "pred_lang": group.column("pred_lang").slice(0, 1),
            "n_docs": pa.array([int(pc.sum(group.column("n_docs")).as_py())],
                               type=pa.int64()),
        })

    return partials.groupby(["source", "pred_lang"]).map_groups(
        merge, batch_format="pyarrow")


SCRUB_PATTERN = r"\b(key|customer|value)\b"
SCRUB_TOKEN = "<PII>"


def scrub_batch(batch: pa.Table) -> pa.Table:
    """T6 — regex scrub / redaction statistics, the PII-removal stand-in
    every curation pipeline carries: count matches of a sensitive-term
    pattern, rewrite them to a fixed redaction token, and report the
    redacted length.  Arrow's regex kernels bind RE2 — the same engine
    DuckDB's regexp_* functions use — so leftmost non-overlapping match
    semantics agree verbatim and the oracle is a straight transliteration.
    All C kernels, no per-row Python."""
    import pyarrow.compute as pc

    text = batch.column("text")
    red = pc.replace_substring_regex(text, pattern=SCRUB_PATTERN,
                                     replacement=SCRUB_TOKEN)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_hits": pc.cast(pc.count_substring_regex(text, SCRUB_PATTERN),
                          pa.int64()),
        "n_key": pc.cast(pc.count_substring_regex(text, r"\bkey\b"),
                         pa.int64()),
        "red_len": pc.cast(pc.utf8_length(red), pa.int64()),
    })


def scrub_stats(sf_dir: str):
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return ds.map_batches(scrub_batch, batch_format="pyarrow",
                          zero_copy_batch=True)


def t16_char_entropy(sf_dir: str):
    """T16 — per-source character (byte) distribution entropy: the
    corpus-quality screen that separates natural prose (~4.1 bits/char
    English) from boilerplate, markup soup, and encoding damage — the
    character-level sibling of V7's lexical richness.

    Scale shape: per-block byte-histogram partials (one ``bincount``
    over source-code*256+byte keys — <= sources*256 partial rows per
    block regardless of text volume), one bounded exchange, a per-SOURCE
    finalize.  Exactness: byte counts are exact ints; the entropy is
    G15's PINNED sequential fold (byte-value order), each term the same
    libm ``(n/total)*ln(n/total)`` DuckDB evaluates."""
    import math

    import pandas as pd
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        flat, offsets = _flat_utf8(batch)
        src = batch.column("source").to_pandas()
        codes, uniques = pd.factorize(src, sort=True)
        lens = np.diff(offsets)
        row_code = np.repeat(codes.astype(np.int64), lens)
        key = row_code * 256 + flat.astype(np.int64)
        counts = np.bincount(key, minlength=len(uniques) * 256)
        nz = np.flatnonzero(counts)
        return pa.table({
            "source": pa.array(np.asarray(uniques, dtype=object)[nz // 256],
                               type=pa.string()),
            "byte": pa.array(nz % 256, type=pa.int64()),
            "n": pa.array(counts[nz], type=pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def finish(group: pa.Table) -> pa.Table:
        t = (group.group_by(["source", "byte"]).aggregate([("n", "sum")])
             .sort_by([("byte", "ascending")]))
        n = np.asarray(t.column("n_sum"), dtype=np.int64)
        total = int(n.sum())
        acc = 0.0
        for c in n.tolist():              # bounded: <= 256 byte values
            p = float(int(c)) / float(total)
            acc = acc + p * math.log(p)
        ent = -acc
        nb = len(n)
        norm = ent / math.log(float(nb)) if nb > 1 else None
        return pa.table({
            "source": t.column("source").slice(0, 1),
            "total_bytes": pa.array([total], type=pa.int64()),
            "n_distinct_bytes": pa.array([nb], type=pa.int64()),
            "entropy": pa.array([ent], type=pa.float64()),
            "norm_entropy": pa.array([norm], type=pa.float64(),
                                     from_pandas=True),
        })

    return partials.groupby("source").map_groups(finish,
                                                 batch_format="pyarrow")


def t17_dup_sentence_share(sf_dir: str, num_partitions: int = 16):
    """T17 — duplicate-SENTENCE share per source (the Gopher/Dolma
    duplicate-line signal at sentence granularity, between T14's
    n-grams and D14's whole-doc hashes): the fraction of a source's
    sentence occurrences whose sentence text appears in >= 2 distinct
    documents corpus-wide — boilerplate headers/footers and templated
    sentences light up here first.

    Scale shape: per-block distinct (sentence, doc) pairs collapse
    before the sentence-keyed exchange (the vocab discipline at
    sentence granularity); per-sentence distinct-doc counts come from
    a vectorized run kernel; the flag re-attaches to the bounded
    (sentence, source, occurrences) relation by a co-partitioned
    lookup, and the rollup is per-source."""
    import ray.data

    from anomalydetection_ray.stages.join import copartition_attach
    from anomalydetection_ray.stages.runs import partition_apply, run_starts

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source", "text"])

    def sentences(batch: pa.Table):
        import pyarrow.compute as pc

        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        sents = pc.split_pattern(text, ". ")
        flat = pc.list_flatten(sents)
        row_of = np.asarray(pc.list_parent_indices(sents),
                            dtype=np.int64)
        keep = np.asarray(pc.not_equal(flat, ""))
        return flat.filter(pa.array(keep)), row_of[keep]

    def pair_partial(batch: pa.Table) -> pa.Table:
        flat, row_of = sentences(batch)
        doc = np.asarray(batch.column("doc_id"),
                         dtype=np.int64)[row_of]
        t = pa.table({"sent": flat,
                      "doc": pa.array(doc, type=pa.int64())})
        return t.group_by(["sent", "doc"]).aggregate([])

    pairs = ds.map_batches(pair_partial, batch_format="pyarrow",
                           zero_copy_batch=True)

    def ndocs_kernel(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({"sent": pa.array([], type=pa.string()),
                             "ndocs": pa.array([], type=pa.int64())})
        part = part.sort_by(
            [("sent", "ascending"), ("doc", "ascending")])
        s = part.column("sent")
        d = np.asarray(part.column("doc"), dtype=np.int64)
        n = part.num_rows
        starts = run_starts(part, ["sent"])
        # distinct docs per sentence run (block-level pairs may repeat
        # across blocks)
        new = np.ones(n, dtype=np.int64)
        sent_id = np.zeros(n, dtype=np.int64)
        sent_id[starts] = 1
        sid = np.cumsum(sent_id)
        new[1:] = ((d[1:] != d[:-1]) | (sid[1:] != sid[:-1])).astype(
            np.int64)
        nd = np.add.reduceat(new, starts)
        return pa.table({
            "sent": s.take(pa.array(starts, type=pa.int64())),
            "ndocs": pa.array(nd, type=pa.int64()),
        })

    per_sent = partition_apply(pairs, ["sent"], ndocs_kernel, num_partitions)

    def occ_partial(batch: pa.Table) -> pa.Table:
        flat, row_of = sentences(batch)
        src = batch.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        s_of = src.take(pa.array(row_of, type=pa.int64()))
        t = pa.table({"sent": flat, "source": s_of,
                      "one": pa.array(np.ones(len(row_of),
                                              dtype=np.int64))})
        g = t.group_by(["sent", "source"]).aggregate([("one", "sum")])
        return pa.table({"sent": g.column("sent"),
                         "source": g.column("source"),
                         "occ": g.column("one_sum").cast(pa.int64())})

    occ = ds.map_batches(occ_partial, batch_format="pyarrow",
                         zero_copy_batch=True)
    # collapse cross-block partials before the attach
    from anomalydetection_ray.stages.runs import agg_by

    occ = agg_by(occ, ["sent", "source"], [("occ", "sum", "occ")])
    joined = copartition_attach(occ, per_sent, "sent", "sent",
                                ["ndocs"],
                                num_partitions=num_partitions)

    def rollup(batch: pa.Table) -> pa.Table:
        nd = np.asarray(batch.column("ndocs").fill_null(1),
                        dtype=np.int64)
        o = np.asarray(batch.column("occ"), dtype=np.int64)
        dup = np.where(nd >= 2, o, 0)
        t = pa.table({"source": batch.column("source"),
                      "n_sents": pa.array(o, type=pa.int64()),
                      "n_dup": pa.array(dup, type=pa.int64())})
        g = t.group_by(["source"]).aggregate([("n_sents", "sum"),
                                              ("n_dup", "sum")])
        return pa.table({"source": g.column("source"),
                         "n_sents": g.column("n_sents_sum").cast(
                             pa.int64()),
                         "n_dup": g.column("n_dup_sum").cast(pa.int64())})

    agg = (joined.map_batches(rollup, batch_format="pyarrow")
           .groupby("source").sum(["n_sents", "n_dup"]))

    def finalize(batch: pa.Table) -> pa.Table:
        ns = np.asarray(batch.column("sum(n_sents)"), dtype=np.int64)
        dup = np.asarray(batch.column("sum(n_dup)"), dtype=np.int64)
        return pa.table({
            "source": batch.column("source"),
            "n_sents": pa.array(ns, type=pa.int64()),
            "n_dup": pa.array(dup, type=pa.int64()),
            "dup_share": pa.array(dup.astype(np.float64)
                                  / ns.astype(np.float64),
                                  type=pa.float64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def t18_langid_confusion(sf_dir: str):
    """T18 — language-ID CONFUSION MATRIX: the n-gram lang_id detector's
    predictions crossed against the corpus' ground-truth ``lang`` column
    — per (true lang, predicted lang) doc counts plus the per-true-lang
    recall.  The first member of the EVALUATION family: the engine does
    not just run its heuristics, it scores them against labels the same
    distributed way it runs everything else.

    Scale shape: the lang_id kernel and the confusion rollup fuse into
    ONE map pass (text read once), each block collapsing to <= |langs|^2
    partial rows before one bounded exchange; recall is a pinned
    division."""
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        pred = lang_id_batch(batch).column("pred_lang")
        t = pa.table({"lang": batch.column("lang"),
                      "pred_lang": pred,
                      "one": pa.array(np.ones(batch.num_rows,
                                              dtype=np.int64))})
        g = t.group_by(["lang", "pred_lang"]).aggregate([("one", "sum")])
        return pa.table({"lang": g.column("lang"),
                         "pred_lang": g.column("pred_lang"),
                         "n": g.column("one_sum").cast(pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby(["lang", "pred_lang"]).sum("n"))

    def finalize(group: pa.Table) -> pa.Table:
        lang = group.column("lang")[0].as_py()
        pred = group.column("pred_lang")
        n = np.asarray(group.column("sum(n)"), dtype=np.int64)
        tot = int(n.sum())
        return pa.table({
            "lang": pa.array([lang] * len(n), type=pa.string()),
            "pred_lang": pred,
            "n": pa.array(n, type=pa.int64()),
            "recall": pa.array(n.astype(np.float64) / np.float64(tot),
                               type=pa.float64()),
        })

    return agg.groupby("lang").map_groups(finalize,
                                          batch_format="pyarrow")


# ------------------------------------------------------------- T19 ----
def t19_word_len_hist(sf_dir: str):
    """T19 — per-source word-length histogram: count of whitespace words
    by character length — the cheapest stylometric profile there is
    (machine text skews long, template spam skews flat), and the
    length-domain complement of T10's column profile.

    Word convention = T3/token_counts: maximal runs of non-``\\s`` bytes
    over the flat utf-8 buffer; length counts CHARACTERS (continuation
    bytes excluded via one cumsum), so multi-byte text is honest even
    though the driver corpus is ASCII.

    Scale shape: one vectorized flat-buffer pass per block -> (source,
    word_len) count partials (<= sources x ~40 rows per block), ONE
    bounded exchange.  Exact int64 end to end."""
    import ray.data
    from ray.data.aggregate import Sum

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        flat, offsets = _flat_utf8(batch)
        out = pa.table({"source": pa.array([], type=pa.string()),
                        "word_len": pa.array([], type=pa.int64()),
                        "n": pa.array([], type=pa.int64())})
        if flat.shape[0] == 0:
            return out
        m = ~_IS_WS[flat]
        prev = np.empty_like(m)
        prev[0] = False
        prev[1:] = m[:-1]
        prev[offsets[:-1]] = False          # break runs at row starts
        nxt = np.empty_like(m)
        nxt[-1] = False
        nxt[:-1] = m[1:]
        nxt[offsets[1:] - 1] = False        # break runs at row ends
        starts = np.flatnonzero(m & ~prev)
        ends = np.flatnonzero(m & ~nxt)
        if starts.shape[0] == 0:
            return out
        ccum = np.concatenate((
            [0], np.cumsum(_IS_CONT[flat].astype(np.int64))))
        wlen = (ends + 1 - starts) - (ccum[ends + 1] - ccum[starts])
        row = np.searchsorted(offsets, starts, side="right") - 1
        src = batch.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        t = pa.table({"source": src.take(pa.array(row, type=pa.int64())),
                      "word_len": pa.array(wlen, type=pa.int64())})
        g = t.group_by(["source", "word_len"]).aggregate(
            [([], "count_all")])
        return pa.table({"source": g.column("source"),
                         "word_len": g.column("word_len"),
                         "n": g.column("count_all").cast(pa.int64())})

    partials = docs.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)
    agg = partials.groupby(["source", "word_len"]).aggregate(
        Sum("n", alias_name="n"))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "source": batch.column("source"),
            "word_len": batch.column("word_len").cast(pa.int64()),
            "n": batch.column("n").cast(pa.int64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


# ------------------------------------------------------------- V17 ----
def v17_subword_fertility(sf_dir: str):
    """V17 — subword fertility per source: BPE-ish segment count per
    whitespace word (T3's two token conventions in one ratio) — the
    standard "how hard does the tokenizer work on this source"
    vocabulary-fit metric (fertility ~1 = vocab-native text, >> 1 =
    digits/punctuation soup the tokenizer shreds).

    Exactness: both counts are the exact int64 flat-buffer run/point
    counts of ``token_count_batch``; ``fertility`` is the one pinned
    division per source.

    Scale shape: one vectorized pass per block -> per-source partials
    (<= sources rows per block), ONE bounded exchange."""
    import ray.data
    from ray.data.aggregate import Sum

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        flat, offsets = _flat_utf8(batch)
        nrows = offsets.shape[0] - 1
        nz = np.diff(offsets) > 0
        ws_m = _IS_WS[flat]
        words = _runs_per_row(~ws_m, offsets)
        alpha_m = _IS_ALPHA[flat]
        alpha_runs = _runs_per_row(alpha_m, offsets)
        other_m = ~alpha_m & ~ws_m & ~_IS_DIGIT[flat] & ~_IS_CONT[flat]
        pts = (_IS_DIGIT[flat] | other_m).astype(np.int64)
        points = np.zeros(nrows, dtype=np.int64)
        points[nz] = np.add.reduceat(pts, offsets[:-1][nz])
        t = pa.table({"source": batch.column("source"),
                      "w": pa.array(words, type=pa.int64()),
                      "b": pa.array(alpha_runs + points,
                                    type=pa.int64())})
        g = t.group_by(["source"]).aggregate([("w", "sum"), ("b", "sum")])
        return pa.table({"source": g.column("source"),
                         "words": g.column("w_sum").cast(pa.int64()),
                         "bpe": g.column("b_sum").cast(pa.int64())})

    agg = (docs.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True)
           .groupby("source")
           .aggregate(Sum("words", alias_name="words"),
                      Sum("bpe", alias_name="bpe")))

    def finalize(batch: pa.Table) -> pa.Table:
        w = np.asarray(batch.column("words").cast(pa.int64()),
                       dtype=np.int64)
        b = np.asarray(batch.column("bpe").cast(pa.int64()),
                       dtype=np.int64)
        fert = np.zeros(len(w), dtype=np.float64)
        np.divide(b.astype(np.float64), w.astype(np.float64),
                  out=fert, where=w > 0)
        return pa.table({
            "source": batch.column("source"),
            "words": pa.array(w, type=pa.int64()),
            "bpe": pa.array(b, type=pa.int64()),
            "fertility": pa.array(fert, type=pa.float64(),
                                  mask=w == 0),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


# ------------------------------------------------------------- T20 ----
def t20_charset_profile(sf_dir: str):
    """T20 — per-source byte-class profile: exact counts of alpha /
    digit / whitespace / punctuation-other bytes (UTF-8 continuation
    bytes tracked separately so multi-byte text is honest) plus each
    class's pinned share — the one-glance "what IS this source made of"
    data-quality fingerprint next to T16's char entropy.

    Scale shape: five lookup-table reduceats per block -> one row per
    source per block, ONE bounded exchange; exact int64 counts, one
    pinned division per share."""
    import ray.data
    from ray.data.aggregate import Sum

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        flat, offsets = _flat_utf8(batch)
        nrows = offsets.shape[0] - 1
        nz = np.diff(offsets) > 0
        alpha = _IS_ALPHA[flat]
        digit = _IS_DIGIT[flat]
        ws = _IS_WS[flat]
        cont = _IS_CONT[flat]
        other = ~alpha & ~digit & ~ws & ~cont
        cols = {}
        for name, m in (("alpha", alpha), ("digit", digit),
                        ("ws", ws), ("cont", cont), ("other", other)):
            c = np.zeros(nrows, dtype=np.int64)
            if flat.shape[0]:
                c[nz] = np.add.reduceat(m.astype(np.int64),
                                        offsets[:-1][nz])
            cols[name] = c
        t = pa.table({"source": batch.column("source"),
                      **{k: pa.array(v, type=pa.int64())
                         for k, v in cols.items()}})
        g = t.group_by(["source"]).aggregate(
            [(k, "sum") for k in cols])
        return pa.table({"source": g.column("source"),
                         **{k: g.column(f"{k}_sum").cast(pa.int64())
                            for k in cols}})

    agg = (docs.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True)
           .groupby("source")
           .aggregate(*[Sum(k, alias_name=k)
                        for k in ("alpha", "digit", "ws", "cont",
                                  "other")]))

    def finalize(batch: pa.Table) -> pa.Table:
        cols = {k: np.asarray(batch.column(k).cast(pa.int64()),
                              dtype=np.int64)
                for k in ("alpha", "digit", "ws", "cont", "other")}
        total = sum(cols.values())
        out = {"source": batch.column("source"),
               "n_bytes": pa.array(total, type=pa.int64())}
        for k, v in cols.items():
            out[k] = pa.array(v, type=pa.int64())
            share = np.zeros(len(v), dtype=np.float64)
            np.divide(v.astype(np.float64), total.astype(np.float64),
                      out=share, where=total > 0)
            out[f"{k}_share"] = pa.array(share, type=pa.float64(),
                                         mask=total == 0)
        return pa.table(out)

    return agg.map_batches(finalize, batch_format="pyarrow")


# ------------------------------------------------------------- T21 ----
def t21_readability(sf_dir: str):
    """T21 — Flesch-style reading-ease per source (Flesch 1948 with the
    repo's countable proxies: sentences = T17's non-empty '. ' splits,
    words = T3's whitespace runs, syllables = vowel-group runs
    [aeiouAEIOU]+, the standard regex proxy):

        ease = 206.835 - 1.015 * (words/sentences)
                       - 84.6 * (syllables/words)

    — the classic quality prior next to the Gopher rules; template/
    machine text drifts to extreme scores.

    Exactness: all three counts are exact int64 (flat-buffer run
    counts / split counts); the score is four pinned float ops of two
    pinned divisions, replayed verbatim.

    Scale shape: one vectorized pass per block -> per-source partials,
    ONE bounded exchange."""
    import ray.data
    from ray.data.aggregate import Sum

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["source", "text"])
    vowel = np.zeros(256, dtype=bool)
    for ch in b"aeiouAEIOU":
        vowel[ch] = True

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        flat, offsets = _flat_utf8(batch)
        words = _runs_per_row(~_IS_WS[flat], offsets)
        syll = _runs_per_row(vowel[flat], offsets)
        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        sents_l = pc.split_pattern(text, ". ")
        flat_s = pc.list_flatten(sents_l)
        row_of = np.asarray(pc.list_parent_indices(sents_l),
                            dtype=np.int64)
        nonempty = np.asarray(pc.not_equal(flat_s, ""))
        nrows = offsets.shape[0] - 1
        sents = np.bincount(row_of[nonempty],
                            minlength=nrows).astype(np.int64)
        t = pa.table({"source": batch.column("source"),
                      "w": pa.array(words, type=pa.int64()),
                      "s": pa.array(sents, type=pa.int64()),
                      "y": pa.array(syll, type=pa.int64())})
        g = t.group_by(["source"]).aggregate(
            [("w", "sum"), ("s", "sum"), ("y", "sum")])
        return pa.table({"source": g.column("source"),
                         "words": g.column("w_sum").cast(pa.int64()),
                         "sentences": g.column("s_sum").cast(pa.int64()),
                         "syllables": g.column("y_sum").cast(pa.int64())})

    agg = (docs.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True)
           .groupby("source")
           .aggregate(Sum("words", alias_name="words"),
                      Sum("sentences", alias_name="sentences"),
                      Sum("syllables", alias_name="syllables")))

    def finalize(batch: pa.Table) -> pa.Table:
        w = np.asarray(batch.column("words").cast(pa.int64()),
                       dtype=np.int64)
        s = np.asarray(batch.column("sentences").cast(pa.int64()),
                       dtype=np.int64)
        y = np.asarray(batch.column("syllables").cast(pa.int64()),
                       dtype=np.int64)
        ok = (w > 0) & (s > 0)
        ease = np.full(len(w), np.nan)
        idx = np.flatnonzero(ok)
        for i in idx:                    # pinned scalar tail per source
            ease[i] = (206.835
                       - 1.015 * (float(w[i]) / float(s[i]))
                       - 84.6 * (float(y[i]) / float(w[i])))
        return pa.table({
            "source": batch.column("source"),
            "words": pa.array(w, type=pa.int64()),
            "sentences": pa.array(s, type=pa.int64()),
            "syllables": pa.array(y, type=pa.int64()),
            "flesch_ease": pa.array(ease, type=pa.float64(),
                                    mask=~ok),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------- V20 ----
def v20_bigram_entropy(sf_dir: str):
    """V20 — per-source byte-BIGRAM entropy H2 and the conditional
    entropy H(next | prev) = H2 - H1: the predictability screen one
    level above T16's unigram entropy (natural prose is far more
    predictable bigram-to-bigram than its unigram histogram suggests;
    markup soup and encoding damage are not).  H1 is the first-byte
    marginal DERIVED FROM THE SAME pair counts (all bytes but each
    doc's last), so the identity H2 >= H1 holds exactly.

    Scale shape: T16's — per-block (source, b1, b2) ``bincount``
    partials over source*65536 keys (bounded regardless of text
    volume; pairs never cross document boundaries), ONE exchange, a
    per-source finalize.  Exactness: pair counts exact ints; H2 folds
    in (b1, b2) order and H1 in b1 order from 0.0 — the oracle replays
    both via list_reduce — and cond = H2 - H1 is the same two-negation
    IEEE expression on both sides."""
    import math

    import pandas as pd
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        flat, offsets = _flat_utf8(batch)
        src = batch.column("source").to_pandas()
        codes, uniques = pd.factorize(src, sort=True)
        lens = np.diff(offsets)
        N = int(offsets[-1])
        if N < 2:
            return pa.table({
                "source": pa.array([], type=pa.string()),
                "b1": pa.array([], type=pa.int64()),
                "b2": pa.array([], type=pa.int64()),
                "n": pa.array([], type=pa.int64()),
            })
        rc = np.repeat(codes.astype(np.int64), lens)
        mask = np.ones(N - 1, dtype=bool)
        inner = offsets[1:-1]                # pairs ending at a row start
        inner = inner[(inner >= 1) & (inner <= N - 1)]
        mask[inner - 1] = False
        b1 = flat[:-1][mask].astype(np.int64)
        b2 = flat[1:][mask].astype(np.int64)
        rcp = rc[:-1][mask]
        key = rcp * 65536 + b1 * 256 + b2
        counts = np.bincount(key, minlength=len(uniques) * 65536)
        nz = np.flatnonzero(counts)
        return pa.table({
            "source": pa.array(
                np.asarray(uniques, dtype=object)[nz // 65536],
                type=pa.string()),
            "b1": pa.array((nz % 65536) // 256, type=pa.int64()),
            "b2": pa.array(nz % 256, type=pa.int64()),
            "n": pa.array(counts[nz], type=pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def finish(group: pa.Table) -> pa.Table:
        t = (group.group_by(["source", "b1", "b2"])
             .aggregate([("n", "sum")])
             .sort_by([("b1", "ascending"), ("b2", "ascending")]))
        n = np.asarray(t.column("n_sum"), dtype=np.int64)
        total = int(n.sum())
        acc2 = 0.0
        for c in n.tolist():              # bounded: <= 65536 pairs
            p = float(int(c)) / float(total)
            acc2 = acc2 + p * math.log(p)
        h2 = -acc2
        m = (pa.table({"b1": t.column("b1"), "n": t.column("n_sum")})
             .group_by(["b1"]).aggregate([("n", "sum")])
             .sort_by([("b1", "ascending")]))
        acc1 = 0.0
        for c in np.asarray(m.column("n_sum"), dtype=np.int64).tolist():
            p = float(int(c)) / float(total)
            acc1 = acc1 + p * math.log(p)
        h1 = -acc1
        return pa.table({
            "source": t.column("source").slice(0, 1),
            "total_pairs": pa.array([total], type=pa.int64()),
            "n_distinct_pairs": pa.array([n.shape[0]], type=pa.int64()),
            "h2": pa.array([h2], type=pa.float64()),
            "h1": pa.array([h1], type=pa.float64()),
            "cond_entropy": pa.array([h2 - h1], type=pa.float64()),
        })

    return partials.groupby("source").map_groups(
        finish, batch_format="pyarrow")


# ---------------------------------------------------------------- V21 ----
def v21_sttr(sf_dir: str, chunk_words: int = 25):
    """V21 — standardized type-token ratio per source (STTR-25): mean
    distinct-word share over fixed ``chunk_words``-word windows, the
    length-bias-free richness measure (plain TTR collapses as docs grow
    — Herdan/Heaps — so V7's corpus TTR can't compare sources of
    different doc lengths; STTR can).  Chunks are doc-local consecutive
    word windows; the trailing partial chunk is DROPPED (only full
    windows count), docs shorter than one chunk contribute nothing.

    Exactness: per-chunk type counts are exact ints, sttr =
    sum_types / (chunk_words * n_chunks) is ONE pinned division.

    Scale shape: a document lives in one row, so chunking and
    per-chunk distinct counting are MAP-SIDE (pure Arrow group_by in
    the kernel); only (source, n_chunks, sum_types) partials ship —
    one bounded exchange."""
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(text, " ")
        flat = pc.list_flatten(words)
        parent = np.asarray(pc.list_parent_indices(words),
                            dtype=np.int64)
        keep = np.asarray(pc.not_equal(flat, ""))
        flat = flat.filter(pa.array(keep))
        parent = parent[keep]
        # word position within its doc, over the kept words
        nw = np.bincount(parent, minlength=batch.num_rows)
        starts = np.concatenate(([0], np.cumsum(nw)[:-1]))
        pos = np.arange(parent.shape[0], dtype=np.int64) - starts[parent]
        full = pos < (nw[parent] // chunk_words) * chunk_words
        if not full.any():
            return pa.table({
                "source": pa.array([], type=pa.string()),
                "n_chunks": pa.array([], type=pa.int64()),
                "sum_types": pa.array([], type=pa.int64()),
            })
        t = pa.table({
            "doc": pa.array(parent[full], type=pa.int64()),
            "chunk": pa.array(pos[full] // chunk_words,
                              type=pa.int64()),
            "word": flat.filter(pa.array(full)),
        })
        per_chunk = (t.group_by(["doc", "chunk", "word"]).aggregate([])
                     .group_by(["doc", "chunk"])
                     .aggregate([([], "count_all")]))
        src = batch.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        g = pa.table({
            "source": src.take(per_chunk.column("doc")),
            "types": per_chunk.column("count_all").cast(pa.int64()),
        }).group_by(["source"]).aggregate([([], "count_all"),
                                           ("types", "sum")])
        return pa.table({
            "source": g.column("source"),
            "n_chunks": g.column("count_all").cast(pa.int64()),
            "sum_types": g.column("types_sum").cast(pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    from ray.data.aggregate import Sum
    agg = (partials.groupby("source")
           .aggregate(Sum("n_chunks", alias_name="n_chunks"),
                      Sum("sum_types", alias_name="sum_types")))

    def finish(batch: pa.Table) -> pa.Table:
        nc = np.asarray(batch.column("n_chunks"), dtype=np.int64)
        st = np.asarray(batch.column("sum_types"), dtype=np.int64)
        sttr = np.zeros(nc.shape[0], dtype=np.float64)
        ok = nc > 0
        np.divide(st.astype(np.float64),
                  (chunk_words * nc).astype(np.float64),
                  out=sttr, where=ok)
        return pa.table({
            "source": batch.column("source"),
            "n_chunks": pa.array(nc, type=pa.int64()),
            "sum_types": pa.array(st, type=pa.int64()),
            "sttr": pa.array(sttr, type=pa.float64(), mask=~ok),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------- T22 ----
def t22_balance_audit(sf_dir: str):
    """T22 — delimiter-balance audit per source: documents whose
    parentheses counts disagree or whose double-quote count is odd
    (the cheap malformed-markup / truncation screen a curator runs
    before trusting extraction output — truncated docs break balance
    long before perplexity notices).  Counts exact ints; share is one
    pinned division.

    Scale shape: map-side byte counting over the flat buffer (three
    ``bincount`` reads), one bounded per-source exchange."""
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        flat, offsets = _flat_utf8(batch)
        lens = np.diff(offsets)
        nrows = lens.shape[0]
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        opens = np.zeros(nrows, dtype=np.int64)
        closes = np.zeros(nrows, dtype=np.int64)
        quotes = np.zeros(nrows, dtype=np.int64)
        if flat.shape[0]:
            np.add.at(opens, row_of[flat == 0x28], 1)    # (
            np.add.at(closes, row_of[flat == 0x29], 1)   # )
            np.add.at(quotes, row_of[flat == 0x22], 1)   # "
        bad = (opens != closes) | (quotes % 2 == 1)
        src = batch.column("source").to_pandas()
        codes, uniques = pd.factorize(src, sort=True)
        n_docs = np.bincount(codes, minlength=len(uniques))
        n_bad = np.bincount(codes, weights=bad.astype(np.float64),
                            minlength=len(uniques)).astype(np.int64)
        return pa.table({
            "source": pa.array(np.asarray(uniques, dtype=object),
                               type=pa.string()),
            "n_docs": pa.array(n_docs.astype(np.int64),
                               type=pa.int64()),
            "n_unbalanced": pa.array(n_bad, type=pa.int64()),
        })

    agg = (ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("source")
           .aggregate(Sum("n_docs", alias_name="n_docs"),
                      Sum("n_unbalanced", alias_name="n_unbalanced")))

    def finish(batch: pa.Table) -> pa.Table:
        n = np.asarray(batch.column("n_docs"), dtype=np.int64)
        b = np.asarray(batch.column("n_unbalanced"), dtype=np.int64)
        share = np.zeros(n.shape[0], dtype=np.float64)
        np.divide(b.astype(np.float64), n.astype(np.float64),
                  out=share, where=n > 0)
        return pa.table({
            "source": batch.column("source"),
            "n_docs": pa.array(n, type=pa.int64()),
            "n_unbalanced": pa.array(b, type=pa.int64()),
            "unbalanced_share": pa.array(share, type=pa.float64(),
                                         mask=n == 0),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------- V22 ----
def v22_bpe_candidates(sf_dir: str, k: int = 10):
    """V22 — the first BPE merge step, surfaced: the top-``k`` most
    frequent ADJACENT byte pairs within words (pairs touching a space
    are excluded — merges never cross word boundaries in the classic
    tokenizer), ranked (count desc, b1, b2).  Run iteratively this IS
    BPE training; one step is the SQL-checkable unit, and its winner
    ordering is exactly what a tokenizer-health audit reads (a natural
    corpus starts with 'e '+consonant clusters; markup soup starts
    with '<<').

    Scale shape: V20's per-block 65536-key ``bincount`` partials (no
    source split), ONE bounded exchange, block-pruned top-k."""
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        flat, offsets = _flat_utf8(batch)
        N = int(offsets[-1])
        empty = pa.table({
            "b1": pa.array([], type=pa.int64()),
            "b2": pa.array([], type=pa.int64()),
            "n": pa.array([], type=pa.int64()),
        })
        if N < 2:
            return empty
        mask = np.ones(N - 1, dtype=bool)
        inner = offsets[1:-1]
        inner = inner[(inner >= 1) & (inner <= N - 1)]
        mask[inner - 1] = False                 # no cross-doc pairs
        b1 = flat[:-1].astype(np.int64)
        b2 = flat[1:].astype(np.int64)
        mask &= (b1 != 0x20) & (b2 != 0x20)     # within-word only
        if not mask.any():
            return empty
        key = b1[mask] * 256 + b2[mask]
        counts = np.bincount(key, minlength=65536)
        nz = np.flatnonzero(counts)
        return pa.table({
            "b1": pa.array(nz // 256, type=pa.int64()),
            "b2": pa.array(nz % 256, type=pa.int64()),
            "n": pa.array(counts[nz], type=pa.int64()),
        })

    counts = (ds.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby(["b1", "b2"]).aggregate(Sum("n",
                                                   alias_name="n")))

    from anomalydetection_ray.stages.topk import topk

    return topk(counts, k, [("n", "descending"), ("b1", "ascending"),
                            ("b2", "ascending")])


# ---------------------------------------------------------------- V24 ----
def v24_yule_k(sf_dir: str):
    """V24 — Yule's characteristic K per source (Yule 1944, the
    stylometric repeat-rate constant): K = 10^4 * (m2 - N) / N^2 with
    N the word-token count and m2 = sum of squared word frequencies —
    length-invariant where plain TTR is not, and THE classic
    boilerplate/templated-text alarm (duplicated phrasing inflates the
    head frequencies, so K jumps).  V1's word convention (space split,
    empties dropped).

    Exactness: frequencies and m2 are exact Python ints (no int64
    wrap at any scale — f^2 can pass 2^63 for a hot word at corpus
    scale, so m2 travels as a hi/lo 2^32 split pair); K is the A70
    split-double chain 10^4*(m2 - N) / N^2, one pinned division.

    Scale shape: per-block (source, word) partial counts -> one
    Heaps-bounded exchange -> per-source m2 partials -> tiny final
    merge (the V19 shape with a squared tail)."""
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(text, " ")
        flat = pc.list_flatten(words)
        parent = np.asarray(pc.list_parent_indices(words),
                            dtype=np.int64)
        keep = np.asarray(pc.not_equal(flat, ""))
        src = batch.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        t = pa.table({
            "source": src.take(pa.array(parent[keep])),
            "word": flat.filter(pa.array(keep)),
            "one": pa.array(np.ones(int(keep.sum()), dtype=np.int64)),
        })
        g = t.group_by(["source", "word"]).aggregate([("one", "sum")])
        return pa.table({"source": g.column("source"),
                         "word": g.column("word"),
                         "f": g.column("one_sum").cast(pa.int64())})

    freqs = (ds.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby(["source", "word"]).sum("f"))

    def sq_partial(batch: pa.Table) -> pa.Table:
        f = np.asarray(batch.column("sum(f)"), dtype=np.int64)
        src = batch.column("source")
        t = pa.table({"source": src,
                      "f": pa.array(f, type=pa.int64())})
        g = t.group_by(["source"]).aggregate([("f", "sum"),
                                              ([], "count_all")])
        # m2 in exact Python ints per source (f^2 wraps int64 for hot
        # words at corpus scale), shipped as a hi/lo 2^32 split
        srcs = g.column("source").to_pylist()
        by = {s: 0 for s in srcs}
        codes = batch.column("source").to_pylist()
        for s, fi in zip(codes, f.tolist()):
            by[s] += fi * fi
        m2_hi = [by[s] >> 32 for s in srcs]
        m2_lo = [by[s] & 0xFFFFFFFF for s in srcs]
        return pa.table({
            "source": g.column("source"),
            "n_words": g.column("f_sum").cast(pa.int64()),
            "n_types": g.column("count_all").cast(pa.int64()),
            "m2_hi": pa.array(m2_hi, type=pa.int64()),
            "m2_lo": pa.array(m2_lo, type=pa.int64()),
        })

    from ray.data.aggregate import Sum

    agg = (freqs.map_batches(sq_partial, batch_format="pyarrow")
           .groupby("source")
           .aggregate(Sum("n_words", alias_name="n_words"),
                      Sum("n_types", alias_name="n_types"),
                      Sum("m2_hi", alias_name="m2_hi"),
                      Sum("m2_lo", alias_name="m2_lo")))

    def finalize(batch: pa.Table) -> pa.Table:
        from anomalydetection_ray.stages.detectors import _split_double

        nw = np.asarray(batch.column("n_words"), dtype=np.int64)
        hi = np.asarray(batch.column("m2_hi"), dtype=np.int64)
        lo = np.asarray(batch.column("m2_lo"), dtype=np.int64)
        yk = np.zeros(nw.shape[0], dtype=np.float64)
        m2h = np.zeros(nw.shape[0], dtype=np.int64)
        m2l = np.zeros(nw.shape[0], dtype=np.int64)
        for i in range(nw.shape[0]):
            m2 = (int(hi[i]) << 32) + int(lo[i])   # lo carries merge
            m2h[i] = m2 >> 32
            m2l[i] = m2 & 0xFFFFFFFF
            n = int(nw[i])
            if n:
                yk[i] = (_split_double(10000 * (m2 - n))
                         / _split_double(n * n))
        return pa.table({
            "source": batch.column("source"),
            "n_words": pa.array(nw, type=pa.int64()),
            "n_types": batch.column("n_types"),
            "m2_hi": pa.array(m2h, type=pa.int64()),
            "m2_lo": pa.array(m2l, type=pa.int64()),
            "yule_k": pa.array(yk, type=pa.float64(), mask=nw == 0),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------- T23 ----
_SHAPE_PATTERNS = [
    ("num", r"^[0-9]+$"),
    ("caps", r"^[A-Z][A-Z]+$"),
    ("title", r"^[A-Z][a-z]*$"),
    ("lower", r"^[a-z]+$"),
]


def t23_word_shapes(sf_dir: str):
    """T23 — word-shape profile per source: every word (V1's space
    split, empties dropped) classified by the FIRST matching shape in
    a fixed priority order — numeric, ALL-CAPS (2+ uppercase), Title
    (uppercase head + lowercase tail; a lone capital letter lands
    here), lowercase, else ``other`` — the cheap register/genre
    fingerprint (legalese screams caps, code screams other).  Counts
    exact; output long-format (source, shape, n_words).

    Scale shape: vectorized RE2 matches over the flat word array
    (compiled once per batch call), bounded (source x 5) partials, one
    tiny exchange."""
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(text, " ")
        flat = pc.list_flatten(words)
        parent = np.asarray(pc.list_parent_indices(words),
                            dtype=np.int64)
        keep = np.asarray(pc.not_equal(flat, ""))
        flat = flat.filter(pa.array(keep))
        parent = parent[keep]
        shape = np.full(len(flat), "other", dtype=object)
        unassigned = np.ones(len(flat), dtype=bool)
        for name, pat in _SHAPE_PATTERNS:
            m = np.asarray(pc.match_substring_regex(flat, pat))
            hit = m & unassigned
            shape[hit] = name
            unassigned &= ~m
        src = batch.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        t = pa.table({
            "source": src.take(pa.array(parent)),
            "shape": pa.array(shape, type=pa.string()),
            "one": pa.array(np.ones(len(flat), dtype=np.int64)),
        })
        g = t.group_by(["source", "shape"]).aggregate([("one", "sum")])
        return pa.table({"source": g.column("source"),
                         "shape": g.column("shape"),
                         "n_words": g.column("one_sum").cast(pa.int64())})

    return (ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby(["source", "shape"]).sum("n_words")
            .map_batches(lambda b: pa.table({
                "source": b.column("source"),
                "shape": b.column("shape"),
                "n_words": b.column("sum(n_words)")}),
                batch_format="pyarrow"))


# ---------------------------------------------------------------- V25 ----
def v25_hapax_sichel(sf_dir: str):
    """V25 — hapax and dis legomena per source: V1 = word types seen
    ONCE, V2 = types seen twice, V = all types, N = tokens;
    ``hapax_share`` = V1/V (vocabulary growth pressure — Baayen's LNRE
    regime indicator) and ``sichel_s`` = V2/V (Sichel 1975's
    text-length-stable constant).  Both ratios ONE pinned division
    each; counts exact.

    Scale shape: V24's (source, word) Heaps-bounded exchange, then
    per-block threshold-count partials and a tiny per-source merge."""
    import ray.data

    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(text, " ")
        flat = pc.list_flatten(words)
        parent = np.asarray(pc.list_parent_indices(words),
                            dtype=np.int64)
        keep = np.asarray(pc.not_equal(flat, ""))
        src = batch.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        t = pa.table({
            "source": src.take(pa.array(parent[keep])),
            "word": flat.filter(pa.array(keep)),
            "one": pa.array(np.ones(int(keep.sum()), dtype=np.int64)),
        })
        g = t.group_by(["source", "word"]).aggregate([("one", "sum")])
        return pa.table({"source": g.column("source"),
                         "word": g.column("word"),
                         "f": g.column("one_sum").cast(pa.int64())})

    freqs = (ds.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby(["source", "word"]).sum("f"))

    def th_partial(batch: pa.Table) -> pa.Table:
        f = np.asarray(batch.column("sum(f)"), dtype=np.int64)
        t = pa.table({
            "source": batch.column("source"),
            "n_tokens": pa.array(f, type=pa.int64()),
            "v1": pa.array((f == 1).astype(np.int64)),
            "v2": pa.array((f == 2).astype(np.int64)),
            "one": pa.array(np.ones(f.shape[0], dtype=np.int64)),
        })
        g = t.group_by(["source"]).aggregate(
            [("n_tokens", "sum"), ("v1", "sum"), ("v2", "sum"),
             ("one", "sum")])
        return pa.table({
            "source": g.column("source"),
            "n_tokens": g.column("n_tokens_sum").cast(pa.int64()),
            "v1": g.column("v1_sum").cast(pa.int64()),
            "v2": g.column("v2_sum").cast(pa.int64()),
            "n_types": g.column("one_sum").cast(pa.int64()),
        })

    agg = (freqs.map_batches(th_partial, batch_format="pyarrow")
           .groupby("source")
           .aggregate(Sum("n_tokens", alias_name="n_tokens"),
                      Sum("v1", alias_name="v1"),
                      Sum("v2", alias_name="v2"),
                      Sum("n_types", alias_name="n_types")))

    def finalize(batch: pa.Table) -> pa.Table:
        v1 = np.asarray(batch.column("v1"), dtype=np.int64)
        v2 = np.asarray(batch.column("v2"), dtype=np.int64)
        vt = np.asarray(batch.column("n_types"), dtype=np.int64)
        ok = vt > 0
        h = np.zeros(vt.shape[0], dtype=np.float64)
        s = np.zeros(vt.shape[0], dtype=np.float64)
        np.divide(v1.astype(np.float64), vt.astype(np.float64),
                  out=h, where=ok)
        np.divide(v2.astype(np.float64), vt.astype(np.float64),
                  out=s, where=ok)
        return pa.table({
            "source": batch.column("source"),
            "n_tokens": batch.column("n_tokens"),
            "n_types": pa.array(vt, type=pa.int64()),
            "v1": pa.array(v1, type=pa.int64()),
            "v2": pa.array(v2, type=pa.int64()),
            "hapax_share": pa.array(h, type=pa.float64(), mask=~ok),
            "sichel_s": pa.array(s, type=pa.float64(), mask=~ok),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")
