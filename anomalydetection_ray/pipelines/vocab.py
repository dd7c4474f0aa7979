"""Corpus vocabulary building over the documents table (round-3 V family).

The classic training-data vocabulary pass: corpus-wide word frequencies
(``vocab_topk``) and per-word document frequencies (``vocab_doc_freq``,
the DF half of TF-IDF).  Both follow the partial-aggregate-before-shuffle
discipline:

- every batch collapses its words to per-batch partial counts with
  C-level Arrow kernels (``split_pattern`` -> flatten -> Arrow
  ``group_by``), so the exchange carries one row per DISTINCT word per
  block, not one per occurrence;
- document frequency exploits that one document is one row and a row
  never spans blocks: per-block distinct (word, doc) pairs sum to the
  global distinct-doc count per word with a plain int sum — no
  count-distinct shuffle of raw pairs.

At 100 TB the exchange is bounded by (vocab size x blocks), and the final
per-word groupby is over the vocabulary — orders of magnitude smaller
than the corpus.  Top-k uses the stages/topk block-prune (at most
``k`` rows leave each block after the count groupby).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

TOPK_DEFAULT = 25


def _read_docs(sf_dir: str, columns):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def _words_flat(batch: pa.Table,
                with_doc: bool = True) -> tuple[pa.Array, pa.Array | None]:
    """(flat word array, per-occurrence doc_id array or None) for a
    documents batch; empty tokens from repeated separators are dropped
    (the SQL oracle filters ``word <> ''`` identically)."""
    text = batch.column("text")
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    words = pc.split_pattern(text, " ")
    flat = pc.list_flatten(words)
    keep = pc.not_equal(flat, "")
    if not with_doc:
        return flat.filter(keep), None
    doc = batch.column("doc_id")
    if isinstance(doc, pa.ChunkedArray):
        doc = doc.combine_chunks()
    doc_of = pc.list_parent_indices(words)
    doc_flat = doc.take(doc_of)
    return flat.filter(keep), doc_flat.filter(keep)


def _count_partial(batch: pa.Table) -> pa.Table:
    flat, _ = _words_flat(batch, with_doc=False)
    vc = pc.value_counts(flat)
    return pa.table({
        "word": vc.field("values"),
        "n": pc.cast(vc.field("counts"), pa.int64()),
    })


def _df_partial(batch: pa.Table) -> pa.Table:
    flat, doc_flat = _words_flat(batch)
    pairs = pa.table({"word": flat, "doc": doc_flat})
    distinct = pairs.group_by(["word", "doc"]).aggregate([])
    per_word = distinct.group_by("word").aggregate([("doc", "count")])
    return pa.table({
        "word": per_word.column("word"),
        "df": pc.cast(per_word.column("doc_count"), pa.int64()),
    })


def vocab_topk(sf_dir: str, k: int = TOPK_DEFAULT):
    """V1 — corpus-wide top-k word frequencies: per-batch partial counts
    (one row per distinct word per block), per-word sum via ONE ``_pkey``
    exchange + vectorized ``reduceat`` (``agg_by`` — no per-word Python),
    block-pruned top-k by (count desc, word asc)."""
    from anomalydetection_ray.stages.runs import agg_by
    from anomalydetection_ray.stages.topk import topk

    docs = _read_docs(sf_dir, ["text"])
    partials = docs.map_batches(_count_partial, batch_format="pyarrow",
                                zero_copy_batch=True)
    counts = agg_by(partials, ["word"], [("n", "sum", "n")])
    return topk(counts, k, [("n", "descending"), ("word", "ascending")])


def tfidf_topk(sf_dir: str, k: int = 3,
               max_vocab: int = 2_000_000):
    """V3 — top-``k`` TF-IDF terms per document: the non-hapax DF table
    (built by the V2 distributed pass with a real ``min_df=2`` floor)
    collects to the driver ONCE and broadcasts into a map-only scoring
    pass — the J1 small-side-lookup pattern, never a shuffle join of the
    corpus against the vocabulary.  ``score = tf * ln(N / df)``; per-
    document top-k under (score desc, word asc).

    The collect is BOUNDED without changing semantics: a hapax word
    (``df == 1`` — the dominant class on a web corpus, growing ~linearly
    with doc count) has ``idf = ln(N / 1) = ln(N)`` exactly, so hapaxes
    never need to ship — any word missing from the broadcast table scores
    with the constant ``ln(N)``.  Only the ``df >= 2`` vocabulary (the
    Heaps-law core, the part worth a driver table) is collected — and
    that core is in turn HARD-CAPPED at the ``max_vocab`` highest-df
    words (block-pruned distributed top-k, so the driver never holds
    more than the cap): per the repo's no-silent-caps rule, truncation is
    LOGGED, and the dropped low-df tail scores with the ``ln(N)``
    fallback (an overestimate of its true idf by at most ``ln 2`` per
    df==2 word — acceptable for a ranking score, never silent)."""
    import logging

    import pandas as pd
    import pyarrow.parquet as pq

    from anomalydetection_ray.stages.topk import topk

    df_ds = vocab_doc_freq(sf_dir, min_df=2)
    # +1 sentinel row: len > max_vocab after collect <=> truncation
    df_pd = topk(df_ds, max_vocab + 1,
                 [("df", "descending"), ("word", "ascending")]).to_pandas()
    if len(df_pd) > max_vocab:
        df_pd = df_pd.iloc[:max_vocab]
        logging.getLogger(__name__).warning(
            "tfidf_topk: df>=2 vocabulary exceeds max_vocab=%d; collect "
            "truncated to the %d highest-df words — the dropped low-df "
            "tail scores with the hapax idf=ln(N) fallback",
            max_vocab, max_vocab)
    vocab = pd.Index(df_pd["word"])
    n_docs = float(pq.ParquetFile(
        f"{sf_dir}/documents.parquet").metadata.num_rows)
    # scalar libm log, not np.log: numpy's SIMD log diverges from libm by
    # 1 ulp on some inputs, and DuckDB's ln (the oracle) is libm.  The
    # loop is driver-side, once, over the vocabulary only.
    import math

    idf = np.fromiter((math.log(n_docs / d) for d in df_pd["df"]),
                      dtype=np.float64, count=len(df_pd))
    ln_n = math.log(n_docs / 1.0)  # the exact idf of every df==1 word

    def score_batch(batch: pa.Table) -> pa.Table:
        flat, doc_flat = _words_flat(batch)
        pairs = pa.table({"doc_id": doc_flat, "word": flat})
        tf_tbl = pairs.group_by(["doc_id", "word"]).aggregate(
            [("word", "count")])
        words = np.asarray(tf_tbl.column("word"), dtype=object)
        tf = np.asarray(tf_tbl.column("word_count"), dtype=np.int64)
        docs = np.asarray(tf_tbl.column("doc_id"), dtype=np.int64)
        vi = vocab.get_indexer(words)
        word_idf = (np.where(vi >= 0, idf[np.maximum(vi, 0)], ln_n)
                    if len(idf) else np.full(len(vi), ln_n))
        score = tf * word_idf
        order = np.lexsort((words, -score, docs))
        docs_s = docs[order]
        starts = np.flatnonzero(np.r_[True, docs_s[1:] != docs_s[:-1]])
        lens = np.diff(np.append(starts, len(docs_s)))
        rank = np.arange(len(docs_s), dtype=np.int64) - np.repeat(starts, lens)
        keep = order[rank < k]
        return pa.table({
            "doc_id": pa.array(docs[keep], type=pa.int64()),
            "word": pa.array(words[keep], type=pa.string()),
            "tf": pa.array(tf[keep], type=pa.int64()),
            "score": pa.array(score[keep], type=pa.float64()),
            "rank": pa.array(rank[rank < k] + 1, type=pa.int64()),
        })

    docs = _read_docs(sf_dir, ["doc_id", "text"])
    return docs.map_batches(score_batch, batch_format="pyarrow",
                            zero_copy_batch=True)


def _bigram_partial(batch: pa.Table) -> pa.Table:
    """Per-batch partial bigram counts: adjacent non-empty word pairs
    within one document (pairing AFTER empty-token drop, matching the
    oracle's ``list_filter`` + position pairs)."""
    flat, doc_flat = _words_flat(batch)
    n = len(flat)
    if n < 2:
        return pa.table({"word": pa.array([], type=pa.string()),
                         "n": pa.array([], type=pa.int64())})
    left = flat.slice(0, n - 1)
    right = flat.slice(1, n - 1)
    docs = np.asarray(doc_flat, dtype=np.int64)
    same = pa.array(docs[1:] == docs[:-1])
    bigrams = pc.binary_join_element_wise(
        left.filter(same), right.filter(same), " ")
    vc = pc.value_counts(bigrams)
    return pa.table({
        "word": vc.field("values"),
        "n": pc.cast(vc.field("counts"), pa.int64()),
    })


def bigram_topk(sf_dir: str, k: int = TOPK_DEFAULT):
    """V4 — corpus-wide top-k bigram frequencies (the n-gram LM / phrase
    mining counterpart of V1): same partial-aggregate-before-shuffle
    discipline — the exchange carries one row per DISTINCT bigram per
    block, and the post-exchange merge is the vectorized ``agg_by``
    kernel (no per-bigram Python)."""
    from anomalydetection_ray.stages.runs import agg_by
    from anomalydetection_ray.stages.topk import topk

    docs = _read_docs(sf_dir, ["doc_id", "text"])
    partials = docs.map_batches(_bigram_partial, batch_format="pyarrow",
                                zero_copy_batch=True)
    counts = agg_by(partials, ["word"], [("n", "sum", "n")])
    return topk(counts, k, [("n", "descending"), ("word", "ascending")])


def lm_score_docs(sf_dir: str, vocab_k: int = 500):
    """V5 — bigram-LM document scoring, the statistical stand-in for the
    model-based quality filter of a training-data pipeline: the corpus'
    top-``vocab_k`` bigram table (built by the V4 distributed pass,
    deterministic under (count desc, bigram asc)) collects to the driver
    ONCE and broadcasts into a map-only scoring pass — the same
    J1 small-side-lookup shape as TF-IDF, never a corpus-vs-vocab
    shuffle join.  Per document: total bigrams, bigrams found in the LM
    table, and the exact integer sum of their corpus counts (a
    monotone fluency proxy — all-integer so the driver hash is exact).
    Zero-bigram documents still emit a row."""
    import pandas as pd

    top = bigram_topk(sf_dir, k=vocab_k).to_pandas()
    lm = pd.Index(top["word"])
    lm_n = top["n"].to_numpy(dtype=np.int64)

    def score_batch(batch: pa.Table) -> pa.Table:
        doc = batch.column("doc_id")
        if isinstance(doc, pa.ChunkedArray):
            doc = doc.combine_chunks()
        doc_ids = np.asarray(doc, dtype=np.int64)
        flat, doc_flat = _words_flat(batch)
        n = len(flat)
        n_big = np.zeros(len(doc_ids), dtype=np.int64)
        n_known = np.zeros(len(doc_ids), dtype=np.int64)
        hit_sum = np.zeros(len(doc_ids), dtype=np.int64)
        if n >= 2:
            occ_doc = np.asarray(doc_flat, dtype=np.int64)
            same = occ_doc[1:] == occ_doc[:-1]
            left = flat.slice(0, n - 1).filter(pa.array(same))
            right = flat.slice(1, n - 1).filter(pa.array(same))
            bigrams = pc.binary_join_element_wise(left, right, " ")
            bdoc = occ_doc[:-1][same]
            idx = lm.get_indexer(np.asarray(bigrams, dtype=object))
            known = idx >= 0
            pos = pd.Index(doc_ids).get_indexer(bdoc)
            np.add.at(n_big, pos, 1)
            np.add.at(n_known, pos[known], 1)
            np.add.at(hit_sum, pos[known], lm_n[idx[known]])
        return pa.table({
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "n_bigrams": pa.array(n_big, type=pa.int64()),
            "n_known": pa.array(n_known, type=pa.int64()),
            "hit_sum": pa.array(hit_sum, type=pa.int64()),
        })

    docs = _read_docs(sf_dir, ["doc_id", "text"])
    return docs.map_batches(score_batch, batch_format="pyarrow",
                            zero_copy_batch=True)


def vocab_doc_freq(sf_dir: str, min_df: int = 2):
    """V2 — per-word document frequency (the DF table of TF-IDF): distinct
    (word, doc) pairs per block collapse to partial doc counts, which sum
    exactly because one document never spans blocks.  Words with
    ``df < min_df`` are dropped (the usual vocab floor).  The per-word
    merge is the vectorized ``agg_by`` kernel — one ``_pkey`` exchange,
    zero per-word Python."""
    from anomalydetection_ray.stages.runs import agg_by

    docs = _read_docs(sf_dir, ["doc_id", "text"])
    partials = docs.map_batches(_df_partial, batch_format="pyarrow",
                                zero_copy_batch=True)
    df = agg_by(partials, ["word"], [("df", "sum", "df")])
    return df.filter(expr=f"df >= {int(min_df)}")


def oov_rate_docs(sf_dir: str, vocab_k: int = 25):
    """V6 — out-of-vocabulary rate per document against the corpus'
    top-``vocab_k`` word table (the coverage gate run before committing
    to a tokenizer vocabulary).  Same J1 broadcast shape as V3/V5: the
    V1 distributed pass builds the vocab, the tiny table collects ONCE,
    and scoring is map-only (per doc: word count, OOV count, one pinned
    division)."""
    import ray.data

    vdf = vocab_topk(sf_dir, k=vocab_k).to_pandas()
    vocab = pa.array(sorted(vdf["word"]), type=pa.string())

    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        flat, doc_flat = _words_flat(batch)
        oov = pc.cast(pc.invert(pc.is_in(flat, value_set=vocab)), pa.int64())
        t = pa.table({"doc_id": doc_flat, "oov": oov})
        g = t.group_by("doc_id").aggregate([([], "count_all"), ("oov", "sum")])
        present = pa.table({
            "doc_id": g.column("doc_id"),
            "n_words": pc.cast(g.column("count_all"), pa.int64()),
            "n_oov": pc.cast(g.column("oov_sum"), pa.int64()),
        })
        # zero-word docs still emit a row (rate NULL)
        missing = batch.filter(
            pc.invert(pc.is_in(batch.column("doc_id"),
                               value_set=present.column("doc_id")
                               .combine_chunks())))
        if missing.num_rows:
            present = pa.concat_tables([present, pa.table({
                "doc_id": missing.column("doc_id"),
                "n_words": pa.array([0] * missing.num_rows, type=pa.int64()),
                "n_oov": pa.array([0] * missing.num_rows, type=pa.int64()),
            })])
        n = np.asarray(present.column("n_words"), dtype=np.int64)
        o = np.asarray(present.column("n_oov"), dtype=np.int64)
        rate = np.zeros(n.shape[0], dtype=np.float64)
        mask = n == 0
        np.divide(o, n, out=rate, where=~mask)
        return present.append_column(
            "oov_rate", pa.array(rate, type=pa.float64(), mask=mask))

    return docs.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True)


def lexical_richness(sf_dir: str):
    """V7 — per-source lexical richness: token count, distinct-word count
    (types) and hapax legomena (words occurring exactly once in that
    source) — the type/token statistics a curator reads next to the T5
    repetition gates.  Two-level exact-distinct discipline: per-block
    (source, word) partial counts collapse before the exchange, the
    per-(source, word) totals merge, and the per-source rollup counts
    types/hapaxes over the word-level table — never one row per
    occurrence past the first aggregation."""
    docs = _read_docs(sf_dir, ["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        src = batch.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(text, " ")
        flat_all = pc.list_flatten(words)
        src_of = src.take(pc.list_parent_indices(words))
        keep = pc.not_equal(flat_all, "")
        t = pa.table({"source": src_of.filter(keep),
                      "word": flat_all.filter(keep)})
        g = t.group_by(["source", "word"]).aggregate([([], "count_all")])
        return pa.table({"source": g.column("source"),
                         "word": g.column("word"),
                         "n": pc.cast(g.column("count_all"), pa.int64())})

    partials = docs.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)

    from anomalydetection_ray.stages.runs import agg_by

    word_totals = agg_by(partials, ["source", "word"],
                         [("n", "sum", "n")])

    def rollup(group: pa.Table) -> pa.Table:
        n = np.asarray(group.column("n"), dtype=np.int64)
        return pa.table({
            "source": group.column("source").slice(0, 1),
            "n_tokens": pa.array([int(n.sum())], type=pa.int64()),
            "n_types": pa.array([n.shape[0]], type=pa.int64()),
            "n_hapax": pa.array([int((n == 1).sum())], type=pa.int64()),
        })

    # the final rollup is per SOURCE — a bounded group key (tens of
    # sources), so a per-group call is fine here
    return word_totals.groupby("source").map_groups(
        rollup, batch_format="pyarrow")


# ---------------------------------------------------------------- X4 ----
def phrase_search(sf_dir: str, w1: str = "batch", w2: str = "stream"):
    """X4 — exact phrase search ("w1 w2" adjacency) over the corpus: per
    matching document, occurrence count and the first match position —
    the grep/phrase surface next to T6's regex scrub and the X3 inverted
    index (this is the full-scan path a one-off query takes when no
    positional index exists; map-only, no shuffle — per-doc results are
    complete inside the block because a document never spans blocks).

    Positions are 0-based indexes into the empty-filtered word sequence,
    matching the SQL oracle's ``list_filter`` + ``range`` unnest."""
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def scan(batch: pa.Table) -> pa.Table:
        flat, doc_flat = _words_flat(batch)
        n = len(flat)
        empty = pa.table({
            "doc_id": pa.array([], type=pa.int64()),
            "n_occurrences": pa.array([], type=pa.int64()),
            "first_pos": pa.array([], type=pa.int64()),
        })
        if n < 2:
            return empty
        doc = np.asarray(doc_flat, dtype=np.int64)
        starts = np.flatnonzero(np.concatenate(([True], doc[1:] != doc[:-1])))
        lens = np.diff(np.append(starts, n))
        pos = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
        is1 = np.asarray(pc.equal(flat, w1))
        is2 = np.asarray(pc.equal(flat, w2))
        hit = is1[:-1] & is2[1:] & (doc[:-1] == doc[1:])
        idx = np.flatnonzero(hit)
        if idx.size == 0:
            return empty
        t = pa.table({"doc_id": pa.array(doc[idx], type=pa.int64()),
                      "pos": pa.array(pos[idx], type=pa.int64())})
        g = t.group_by(["doc_id"]).aggregate([([], "count_all"),
                                              ("pos", "min")])
        return pa.table({
            "doc_id": g.column("doc_id"),
            "n_occurrences": pc.cast(g.column("count_all"), pa.int64()),
            "first_pos": pc.cast(g.column("pos_min"), pa.int64()),
        })

    return ds.map_batches(scan, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------- V9 ----
def v9_zipf_slope(sf_dir: str, k: int = 100):
    """V9 — Zipf-law fit over the corpus vocabulary: OLS slope of
    ``ln(count)`` on ``ln(rank)`` over the top-``k`` words.  Natural text
    sits near slope -1 (Zipf 1949); synthetic or templated corpora
    deviate — the corpus-naturalness audit next to V7's richness stats.

    Scale shape: the V1 distributed top-k pass does all the heavy work;
    the fit runs over k rows in one final kernel.  Float discipline: all
    four OLS sums are PINNED sequential folds in rank order with scalar
    libm ``math.log`` — the oracle replays term order exactly with
    ``list_reduce(list_prepend(0.0, list(... ORDER BY rank)))``."""
    import math

    top = vocab_topk(sf_dir, k=k)

    def fit(batch: pa.Table) -> pa.Table:
        t = batch.sort_by([("n", "descending"), ("word", "ascending")])
        n = np.asarray(t.column("n"), dtype=np.int64)
        kk = len(n)
        sx = sy = sxx = sxy = 0.0
        for i, c in enumerate(n):            # k rows, rank order pinned
            x = math.log(float(i + 1))
            y = math.log(float(int(c)))
            sx = sx + x
            sy = sy + y
            sxx = sxx + x * x
            sxy = sxy + x * y
        denom = float(kk) * sxx - sx * sx
        slope = (float(kk) * sxy - sx * sy) / denom
        intercept = (sy - slope * sx) / float(kk)
        return pa.table({
            "k": pa.array([kk], type=pa.int64()),
            "slope": pa.array([slope], type=pa.float64()),
            "intercept": pa.array([intercept], type=pa.float64()),
            "top_count": pa.array([int(n[0])], type=pa.int64()),
        })

    # the top-k result is a single tiny sorted table; one final kernel
    return top.repartition(1).map_batches(fit, batch_format="pyarrow")


# ---------------------------------------------------------------- T12 ----
def t12_source_vocab_jaccard(sf_dir: str, num_partitions: int = 16):
    """T12 — cross-source vocabulary similarity matrix: exact Jaccard
    ``|A n B| / |A u B|`` between every pair of sources' word-type sets —
    the corpus-mixing audit (which shards are lexically redundant)
    next to V7's per-source richness.

    Scale shape: the W17 basket discipline with words as baskets and
    sources as items — per-block DISTINCT (source, word) partials, ONE
    hash exchange on the word, per-partition vectorized pair expansion
    (sources-per-word is tiny), partial pair counts collapse before the
    final tiny exchange.  Intersection/union arithmetic is exact ints +
    one pinned division.  Oracle: distinct self-join in SQL."""
    from anomalydetection_ray.stages.runs import partition_apply, run_starts

    docs = _read_docs(sf_dir, ["source", "text"])

    def distinct_partial(batch: pa.Table) -> pa.Table:
        src = batch.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(text, " ")
        src_of = src.take(pc.list_parent_indices(words))
        flat_all = pc.list_flatten(words)
        keep = pc.not_equal(flat_all, "")
        t = pa.table({"source": src_of.filter(keep),
                      "word": flat_all.filter(keep)})
        return t.group_by(["source", "word"]).aggregate([])

    slim = docs.map_batches(distinct_partial, batch_format="pyarrow",
                            zero_copy_batch=True)

    def pair_kernel(group: pa.Table) -> pa.Table:
        tbl = group.sort_by(
            [("word", "ascending"), ("source", "ascending")])
        n = tbl.num_rows
        empty = pa.table({
            "source_a": pa.array([], type=pa.string()),
            "source_b": pa.array([], type=pa.string()),
            "cnt": pa.array([], type=pa.int64()),
        })
        if n == 0:
            return empty
        src = tbl.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        enc = src.dictionary_encode()
        codes = np.asarray(enc.indices, dtype=np.int64)
        vocab = enc.dictionary.to_pylist()
        w = tbl.column("word")
        if isinstance(w, pa.ChunkedArray):
            w = w.combine_chunks()
        # distinct within partition (cross-block dups)
        keep = np.ones(n, dtype=bool)
        wnp = np.asarray(pc.equal(w.slice(1), w.slice(0, n - 1)))
        keep[1:] = ~(wnp & (codes[1:] == codes[:-1]))
        codes = codes[keep]
        widx = np.flatnonzero(keep)
        starts = run_starts(tbl.select(["word"]).take(pa.array(widx)),
                            ["word"])
        m = len(codes)
        lens = np.diff(np.append(starts, m))
        rows_a, rows_b, rows_c = [], [], []
        out_a, out_b = [], []
        for L in np.unique(lens):
            if L < 2:
                continue
            segs = starts[lens == L]
            mat = codes[segs[:, None] + np.arange(L)]
            ii, jj = np.triu_indices(int(L), k=1)
            out_a.append(mat[:, ii].ravel())
            out_b.append(mat[:, jj].ravel())
        if out_a:
            a = np.concatenate(out_a)
            b = np.concatenate(out_b)
            pairs = pa.table({
                "source_a": pa.array([vocab[i] for i in a],
                                     type=pa.string()),
                "source_b": pa.array([vocab[i] for i in b],
                                     type=pa.string())})
            g = pairs.group_by(["source_a", "source_b"]).aggregate(
                [([], "count_all")])
            rows_a += g.column("source_a").to_pylist()
            rows_b += g.column("source_b").to_pylist()
            rows_c += [int(x) for x in
                       g.column("count_all").to_pylist()]
        # per-source type counts (distinct words per source, partial)
        tcodes, tcnt = np.unique(codes, return_counts=True)
        rows_a += [vocab[i] for i in tcodes]
        rows_b += [None] * len(tcodes)
        rows_c += [int(c) for c in tcnt]
        return pa.table({"source_a": pa.array(rows_a, type=pa.string()),
                         "source_b": pa.array(rows_b, type=pa.string()),
                         "cnt": pa.array(rows_c, type=pa.int64())})

    partials = partition_apply(slim, ["word"], pair_kernel, num_partitions)

    def finish(group: pa.Table) -> pa.Table:
        t = group.group_by(["source_a", "source_b"]).aggregate(
            [("cnt", "sum")])
        sa = t.column("source_a").to_pylist()
        sb = t.column("source_b").to_pylist()
        cnt = np.asarray(t.column("cnt_sum"), dtype=np.int64)
        singles = {a: int(c) for a, b, c in zip(sa, sb, cnt) if b is None}
        out = {"source_a": [], "source_b": [], "inter": [], "types_a": [],
               "types_b": [], "jaccard": []}
        for a, b, c in zip(sa, sb, cnt):
            if b is None:
                continue
            ta, tb = singles[a], singles[b]
            out["source_a"].append(a)
            out["source_b"].append(b)
            out["inter"].append(int(c))
            out["types_a"].append(ta)
            out["types_b"].append(tb)
            out["jaccard"].append(float(int(c))
                                  / float(ta + tb - int(c)))
        return pa.table({
            "source_a": pa.array(out["source_a"], type=pa.string()),
            "source_b": pa.array(out["source_b"], type=pa.string()),
            "inter": pa.array(out["inter"], type=pa.int64()),
            "types_a": pa.array(out["types_a"], type=pa.int64()),
            "types_b": pa.array(out["types_b"], type=pa.int64()),
            "jaccard": pa.array(out["jaccard"], type=pa.float64()),
        })

    return partials.repartition(1).map_batches(finish, batch_format="pyarrow")


def _tok_count_partial(batch: pa.Table) -> pa.Table:
    """Per-block (source, token, cnt) partials over the tokenized corpus —
    the bounded-domain relation (sources x DEFAULT_VOCAB) every block
    collapses to before any exchange."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    lens = np.diff(offsets)
    src = batch.column("source")
    if isinstance(src, pa.ChunkedArray):
        src = src.combine_chunks()
    codes, uniq_src = src.to_pandas().factorize()
    key = (np.repeat(codes.astype(np.int64), lens) << 17) | vals.astype(np.int64)
    uk, cnt = np.unique(key, return_counts=True)
    return pa.table({
        "source": pa.array(uniq_src[(uk >> 17)].astype(object), type=pa.string()),
        "v": pa.array(uk & 0x1FFFF, type=pa.int32()),
        "cnt": pa.array(cnt.astype(np.int64), type=pa.int64()),
    })


def v11_coverage_curve(sf_dir: str, num_partitions: int = 8):
    """V11 — vocabulary coverage curve per source: the smallest number of
    token types (ordered by count desc, token asc) covering >= 50 / 90 /
    99 % of all token occurrences — the tokenizer-audit statistic behind
    'how big a vocab do we actually need'.  Per-block partials collapse to
    the bounded (source, token) domain before ONE exchange on source; the
    per-partition kernel merges partials with reduceat and walks each
    source's sorted cumsum with searchsorted — all exact integers
    (coverage test: 100*cum >= p*total)."""
    from anomalydetection_ray.sources.tokenize import docs_sequences
    from anomalydetection_ray.stages.runs import partition_apply, run_starts

    partials = docs_sequences(sf_dir).map_batches(
        _tok_count_partial, batch_format="pyarrow", zero_copy_batch=True)

    def kernel(part: pa.Table) -> pa.Table:
        out = {"source": [], "n_types": [], "total_tokens": [],
               "k50": [], "k90": [], "k99": []}
        if part.num_rows:
            part = part.sort_by([("source", "ascending"), ("v", "ascending")])
            starts = run_starts(part, ["source", "v"])
            cnt = np.add.reduceat(
                part.column("cnt").to_numpy(zero_copy_only=False), starts)
            v = part.column("v").to_numpy(zero_copy_only=False)[starts]
            src = part.column("source").to_pandas().to_numpy()[starts]
            s_starts = np.concatenate(
                ([0], np.nonzero(src[1:] != src[:-1])[0] + 1))
            s_lens = np.diff(np.append(s_starts, src.shape[0]))
            for si, sl in zip(s_starts, s_lens):      # bounded: one per source
                c = cnt[si:si + sl]
                t = v[si:si + sl]
                order = np.lexsort((t, -c))
                cum = np.cumsum(c[order]) * 100
                tot = int(c.sum())
                out["source"].append(src[si])
                out["n_types"].append(int(sl))
                out["total_tokens"].append(tot)
                for p, col in ((50, "k50"), (90, "k90"), (99, "k99")):
                    out[col].append(int(np.searchsorted(cum, p * tot,
                                                        side="left")) + 1)
        return pa.table({
            "source": pa.array(out["source"], type=pa.string()),
            "n_types": pa.array(out["n_types"], type=pa.int64()),
            "total_tokens": pa.array(out["total_tokens"], type=pa.int64()),
            "k50": pa.array(out["k50"], type=pa.int64()),
            "k90": pa.array(out["k90"], type=pa.int64()),
            "k99": pa.array(out["k99"], type=pa.int64()),
        })

    return partition_apply(partials, ["source"], kernel,
                           num_partitions=num_partitions)


def v13_heaps_curve(sf_dir: str, n_checkpoints: int = 10):
    """V13 — vocabulary growth curve (Heaps/Herdan law): cumulative
    distinct word types vs cumulative tokens at ``n_checkpoints`` evenly
    spaced document checkpoints in ``doc_id`` order — the
    tokenizer-sizing / dedup-health audit (types ~ K·tokens^beta with
    beta ~0.4-0.6 on natural text; a flattening curve means the corpus
    is repeating itself).

    Scale shape: a word's contribution to every checkpoint is decided by
    its FIRST document alone, so the pipeline is (1) per-block (word,
    min doc) partials -> per-word min via ONE vectorized ``agg_by``
    exchange (the V1/V2 discipline, no per-word Python), (2) each block
    of the first-doc relation collapses to ``n_checkpoints`` partial
    type counts by a sorted ``searchsorted`` against the checkpoint
    bounds, (3) per-doc token counts collapse the same way; both partial
    relations meet in one bounded (``n_checkpoints``-row) exchange.
    Exactness: all counts exact int64; no floats anywhere."""
    import pyarrow.parquet as pq

    from anomalydetection_ray.stages.runs import agg_by

    n_docs = int(pq.ParquetFile(
        f"{sf_dir}/documents.parquet").metadata.num_rows)
    his = np.asarray([(k + 1) * n_docs // n_checkpoints - 1
                      for k in range(n_checkpoints)], dtype=np.int64)

    docs = _read_docs(sf_dir, ["doc_id", "text"])

    def first_partial(batch: pa.Table) -> pa.Table:
        flat, doc_flat = _words_flat(batch)
        pairs = pa.table({"word": flat, "fd": doc_flat})
        g = pairs.group_by(["word"]).aggregate([("fd", "min")])
        return pa.table({"word": g.column("word"),
                         "fd": g.column("fd_min").cast(pa.int64())})

    firsts = agg_by(
        docs.map_batches(first_partial, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["word"], [("fd", "min", "fd")])

    def types_partial(batch: pa.Table) -> pa.Table:
        fd = np.sort(np.asarray(batch.column("fd"), dtype=np.int64))
        cnt = np.searchsorted(fd, his, side="right")
        return pa.table({
            "k": pa.array(np.arange(len(his), dtype=np.int64)),
            "types_cum": pa.array(cnt.astype(np.int64), type=pa.int64()),
            "tokens_cum": pa.array(np.zeros(len(his), dtype=np.int64)),
        })

    def tokens_partial(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(text, " ")
        flat = pc.list_flatten(words)
        row_of = np.asarray(pc.list_parent_indices(words), dtype=np.int64)
        nonempty = np.asarray(pc.not_equal(flat, ""))
        n_w = np.bincount(row_of[nonempty],
                          minlength=batch.num_rows).astype(np.int64)
        d = np.asarray(batch.column("doc_id"), dtype=np.int64)
        order = np.argsort(d)
        d_s, w_s = d[order], n_w[order]
        cum = np.concatenate(([0], np.cumsum(w_s)))
        toks = cum[np.searchsorted(d_s, his, side="right")]
        return pa.table({
            "k": pa.array(np.arange(len(his), dtype=np.int64)),
            "types_cum": pa.array(np.zeros(len(his), dtype=np.int64)),
            "tokens_cum": pa.array(toks.astype(np.int64), type=pa.int64()),
        })

    types_p = firsts.map_batches(types_partial, batch_format="pyarrow",
                                 zero_copy_batch=True)
    tokens_p = docs.map_batches(tokens_partial, batch_format="pyarrow",
                                zero_copy_batch=True)
    agg = (types_p.union(tokens_p)
           .groupby("k").sum(["types_cum", "tokens_cum"]))

    def finalize(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch.column("k"), dtype=np.int64)
        return pa.table({
            "k": pa.array(k, type=pa.int64()),
            "doc_hi": pa.array(his[k], type=pa.int64()),
            "tokens_cum": batch.column("sum(tokens_cum)").cast(pa.int64()),
            "types_cum": batch.column("sum(types_cum)").cast(pa.int64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def v14_pmi_bigrams(sf_dir: str, k: int = 25, min_count: int = 5):
    """V14 — collocation mining by pointwise mutual information (Church
    & Hanks 1990): the top-``k`` bigrams by
    PMI = ln(c_xy * N / (c_x * c_y)) among bigrams with at least
    ``min_count`` occurrences — the phrase detector that separates
    genuine collocations from frequent-word coincidences (V4's raw
    counts rank "of the" first; PMI ranks bound phrases).

    Scale shape: V4's bigram partial counts + ONE vectorized ``agg_by``
    exchange, the ``min_count`` floor bounds the candidate set, unigram
    counts attach by TWO co-partitioned lookups (no corpus-vs-vocab
    broadcast), and only the bounded candidate table sees the scalar
    libm ln (the tfidf discipline).  Exactness: both PMI ratio operands
    are exact int64 products, one pinned division, one libm ln; top-k
    under (pmi desc, word asc)."""
    import math

    from anomalydetection_ray.stages.join import copartition_attach
    from anomalydetection_ray.stages.runs import agg_by
    from anomalydetection_ray.stages.topk import topk

    docs = _read_docs(sf_dir, ["doc_id", "text"])

    bigrams = agg_by(
        docs.map_batches(_bigram_partial, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["word"], [("n", "sum", "n")]).filter(
            expr=f"n >= {min_count}")

    def split_parts(batch: pa.Table) -> pa.Table:
        w = batch.column("word")
        if isinstance(w, pa.ChunkedArray):
            w = w.combine_chunks()
        parts = pc.split_pattern(w, " ")
        return pa.table({
            "word": w,
            "cxy": batch.column("n").cast(pa.int64()),
            "wa": pc.list_element(parts, 0),
            "wb": pc.list_element(parts, 1),
        })

    cands = bigrams.map_batches(split_parts, batch_format="pyarrow",
                                zero_copy_batch=True)

    unigrams = agg_by(
        docs.map_batches(_count_partial, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["word"], [("n", "sum", "n")]).materialize()
    n_total = int(unigrams.sum("n"))

    uni = unigrams.map_batches(
        lambda b: pa.table({"uword": b.column("word"),
                            "c": b.column("n").cast(pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True)

    with_a = copartition_attach(cands, uni, "wa", "uword", ["c"])
    with_a = with_a.map_batches(
        lambda b: pa.table({"word": b.column("word"),
                            "cxy": b.column("cxy"),
                            "wb": b.column("wb"),
                            "cx": b.column("c").cast(pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True)
    with_ab = copartition_attach(with_a, uni, "wb", "uword", ["c"])

    def score(batch: pa.Table) -> pa.Table:
        cxy = np.asarray(batch.column("cxy"), dtype=np.int64)
        cx = np.asarray(batch.column("cx"), dtype=np.int64)
        cy = np.asarray(batch.column("c"), dtype=np.int64)
        pmi = np.asarray(
            [math.log(float(int(a) * n_total) / float(int(x) * int(y)))
             for a, x, y in zip(cxy.tolist(), cx.tolist(), cy.tolist())],
            dtype=np.float64)
        return pa.table({
            "word": batch.column("word"),
            "cxy": pa.array(cxy, type=pa.int64()),
            "cx": pa.array(cx, type=pa.int64()),
            "cy": pa.array(cy, type=pa.int64()),
            "pmi": pa.array(pmi, type=pa.float64()),
        })

    scored = with_ab.map_batches(score, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return topk(scored, k, [("pmi", "descending"), ("word", "ascending")])


def v15_stylometric_l1(sf_dir: str, k: int = 20):
    """V15 — stylometric source distance (Burrows-Delta-lite): the L1
    distance between sources over the relative frequencies of the
    corpus' top-``k`` words — function-word profiles are the classic
    authorship/register fingerprint, so this matrix answers "which
    sources write alike?" next to T12's vocabulary-overlap Jaccard.

    Scale shape: the top-k word list is V1's deterministic block-pruned
    top-k (driver state, k rows); per-(source, word) counts and
    per-source totals collapse per block before ONE bounded exchange
    (sources x k rows); the pairwise matrix is O(|sources|^2 * k)
    driver metadata work.  Exactness: counts exact ints; each L1 term
    is the pinned |float(c_a)/float(n_a) - float(c_b)/float(n_b)|,
    folded sequentially in ALPHABETICAL word order (the G15
    list_reduce discipline)."""
    from anomalydetection_ray.stages.runs import agg_by

    top = sorted(r["word"] for r in vocab_topk(sf_dir, k=k).take_all())
    top_set = set(top)

    docs = _read_docs(sf_dir, ["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(text, " ")
        flat = pc.list_flatten(words)
        row_of = np.asarray(pc.list_parent_indices(words), dtype=np.int64)
        nonempty = np.asarray(pc.not_equal(flat, ""))
        flat = flat.filter(pa.array(nonempty))
        row_of = row_of[nonempty]
        src = batch.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        src_of = src.take(pa.array(row_of, type=pa.int64()))
        w = np.asarray(flat, dtype=object)
        in_top = np.asarray([x in top_set for x in w.tolist()],
                            dtype=bool)
        t = pa.table({
            "source": src_of,
            "word": pa.array(np.where(in_top, w, "\x00other"),
                             type=pa.string()),
            "one": pa.array(np.ones(len(w), dtype=np.int64)),
        })
        g = t.group_by(["source", "word"]).aggregate([("one", "sum")])
        return pa.table({"source": g.column("source"),
                         "word": g.column("word"),
                         "c": g.column("one_sum").cast(pa.int64())})

    counts = agg_by(
        docs.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["source", "word"], [("c", "sum", "c")]).take_all()

    per: dict[str, dict[str, int]] = {}
    tot: dict[str, int] = {}
    for r in counts:
        s, w, c = r["source"], r["word"], int(r["c"])
        tot[s] = tot.get(s, 0) + c
        if w != "\x00other":
            per.setdefault(s, {})[w] = c

    srcs = sorted(tot)
    import ray.data

    sa, sb, l1s = [], [], []
    for i, a in enumerate(srcs):
        for b in srcs[i + 1:]:
            acc = 0.0
            for w in top:                 # alphabetical pinned fold
                fa = float(per.get(a, {}).get(w, 0)) / float(tot[a])
                fb = float(per.get(b, {}).get(w, 0)) / float(tot[b])
                acc = acc + abs(fa - fb)
            sa.append(a)
            sb.append(b)
            l1s.append(acc)
    return ray.data.from_arrow(pa.table({
        "source_a": pa.array(sa, type=pa.string()),
        "source_b": pa.array(sb, type=pa.string()),
        "l1": pa.array(l1s, type=pa.float64()),
    }))


def v16_js_divergence(sf_dir: str, k: int = 20):
    """V16 — Jensen–Shannon divergence between source word profiles
    over the corpus' top-``k`` words — the information-theoretic member
    of the source-similarity triad (T12 vocabulary Jaccard, V15 L1,
    V16 JS): symmetric, finite without smoothing (a zero count simply
    contributes nothing on its side), and bounded by ln 2.

    Scale shape: V15's exactly — distributed counting, bounded driver
    matrix.  Exactness: relative frequencies are pinned divisions of
    exact ints; each JS term is the pinned p * ln(2p / (p+q)) with
    scalar libm ln over the bounded grid, folded in ALPHABETICAL word
    order; js = 0.5 * acc_a + 0.5 * acc_b."""
    import math

    from anomalydetection_ray.stages.runs import agg_by

    top = sorted(r["word"] for r in vocab_topk(sf_dir, k=k).take_all())
    top_set = set(top)

    docs = _read_docs(sf_dir, ["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(text, " ")
        flat = pc.list_flatten(words)
        row_of = np.asarray(pc.list_parent_indices(words), dtype=np.int64)
        nonempty = np.asarray(pc.not_equal(flat, ""))
        flat = flat.filter(pa.array(nonempty))
        row_of = row_of[nonempty]
        src = batch.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        src_of = src.take(pa.array(row_of, type=pa.int64()))
        w = np.asarray(flat, dtype=object)
        in_top = np.asarray([x in top_set for x in w.tolist()],
                            dtype=bool)
        t = pa.table({
            "source": src_of,
            "word": pa.array(np.where(in_top, w, "\x00other"),
                             type=pa.string()),
            "one": pa.array(np.ones(len(w), dtype=np.int64)),
        })
        g = t.group_by(["source", "word"]).aggregate([("one", "sum")])
        return pa.table({"source": g.column("source"),
                         "word": g.column("word"),
                         "c": g.column("one_sum").cast(pa.int64())})

    counts = agg_by(
        docs.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["source", "word"], [("c", "sum", "c")]).take_all()

    per: dict[str, dict[str, int]] = {}
    tot: dict[str, int] = {}
    for r in counts:
        s, w, c = r["source"], r["word"], int(r["c"])
        tot[s] = tot.get(s, 0) + c
        if w != "\x00other":
            per.setdefault(s, {})[w] = c

    srcs = sorted(tot)
    import ray.data

    sa, sb, js_out = [], [], []
    for i, a in enumerate(srcs):
        for b in srcs[i + 1:]:
            acc_a = 0.0
            acc_b = 0.0
            for w in top:                 # alphabetical pinned fold
                fa = float(per.get(a, {}).get(w, 0)) / float(tot[a])
                fb = float(per.get(b, {}).get(w, 0)) / float(tot[b])
                if fa > 0.0:
                    acc_a = acc_a + fa * math.log(2.0 * fa / (fa + fb))
                if fb > 0.0:
                    acc_b = acc_b + fb * math.log(2.0 * fb / (fa + fb))
            js_out.append(0.5 * acc_a + 0.5 * acc_b)
            sa.append(a)
            sb.append(b)
    return ray.data.from_arrow(pa.table({
        "source_a": pa.array(sa, type=pa.string()),
        "source_b": pa.array(sb, type=pa.string()),
        "js": pa.array(js_out, type=pa.float64()),
    }))


# ---------------------------------------------------------------- V19 ----
def v19_freq_spectrum(sf_dir: str):
    """V19 — word frequency-of-frequencies spectrum (the Good-Turing
    front table): for each occurrence count ``k``, how many distinct
    words occur exactly ``k`` times in the corpus.  The smoothing /
    unseen-mass input every count-based LM estimate starts from, and
    the one-glance readout of V9's Zipf tail (N_1 dominating = hapax-
    heavy web text).

    Scale shape: V1's per-word totals (per-block partial counts, one
    ``agg_by`` exchange) never collect — a second per-block histogram
    over the count column collapses each totals block to its distinct
    ``k`` values and a tiny bounded groupby merges them (distinct k is
    O(sqrt(corpus tokens)) by the Zipf identity)."""
    from ray.data.aggregate import Sum

    from anomalydetection_ray.stages.runs import agg_by

    docs = _read_docs(sf_dir, ["text"])
    partials = docs.map_batches(_count_partial, batch_format="pyarrow",
                                zero_copy_batch=True)
    counts = agg_by(partials, ["word"], [("n", "sum", "n")])

    def khist(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch.column("n"), dtype=np.int64)
        uniq, cnt = np.unique(k, return_counts=True)
        return pa.table({
            "k": pa.array(uniq, type=pa.int64()),
            "n_types": pa.array(cnt.astype(np.int64), type=pa.int64()),
        })

    return (counts.map_batches(khist, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("k").aggregate(Sum("n_types",
                                        alias_name="n_types")))


# ---------------------------------------------------------------- X10 ----
def x10_near_search(sf_dir: str, w1: str = "batch", w2: str = "stream",
                    k: int = 5):
    """X10 — ordered proximity search (w1 NEAR/k w2): occurrences of
    ``w1`` followed by ``w2`` within ``k`` words in the same document —
    X4's exact-adjacency search relaxed to the window every search
    engine actually serves.  Per matching doc: pair count and the first
    participating w1 position.

    Map-only like X4 (a document never spans blocks); every w1
    occurrence resolves its window with two ``searchsorted`` probes
    over the (doc << 43 | pos) composite — no per-doc Python."""
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def scan(batch: pa.Table) -> pa.Table:
        flat, doc_flat = _words_flat(batch)
        n = len(flat)
        empty = pa.table({
            "doc_id": pa.array([], type=pa.int64()),
            "n_pairs": pa.array([], type=pa.int64()),
            "first_pos": pa.array([], type=pa.int64()),
        })
        if n == 0:
            return empty
        doc = np.asarray(doc_flat, dtype=np.int64)
        starts = np.flatnonzero(np.concatenate(([True],
                                                doc[1:] != doc[:-1])))
        lens = np.diff(np.append(starts, n))
        pos = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
        assert int(pos.max()) + k < (1 << 43)
        key = (doc << 43) | pos
        i1 = np.flatnonzero(np.asarray(pc.equal(flat, w1)))
        i2 = np.flatnonzero(np.asarray(pc.equal(flat, w2)))
        if i1.size == 0 or i2.size == 0:
            return empty
        k2 = np.sort(key[i2])
        lo = np.searchsorted(k2, key[i1], side="right")
        hi = np.searchsorted(k2, key[i1] + k, side="right")
        cnt = hi - lo
        hit = cnt > 0
        if not hit.any():
            return empty
        t = pa.table({
            "doc_id": pa.array(doc[i1][hit], type=pa.int64()),
            "pos": pa.array(pos[i1][hit], type=pa.int64()),
            "c": pa.array(cnt[hit], type=pa.int64()),
        })
        g = t.group_by(["doc_id"]).aggregate([("c", "sum"),
                                              ("pos", "min")])
        return pa.table({
            "doc_id": g.column("doc_id"),
            "n_pairs": pc.cast(g.column("c_sum"), pa.int64()),
            "first_pos": pc.cast(g.column("pos_min"), pa.int64()),
        })

    return ds.map_batches(scan, batch_format="pyarrow",
                          zero_copy_batch=True)


def x12_cooccurrence_lift(sf_dir: str, w1: str = "batch",
                          w2: str = "stream"):
    """X12 — document-level co-occurrence lift of two words:
    lift = P(both) / (P(w1) * P(w2)) = (n_both * N) / (n_w1 * n_w2) —
    the search-relevance "are these terms topically bound?" scalar
    next to V14's adjacent-bigram PMI (V14 sees collocations; this
    sees same-document association at any distance).

    Word containment is the corpus' ' '-split convention evaluated
    WITHOUT splitting: contains ' w ' OR startswith 'w ' OR endswith
    ' w' OR equals 'w' — four vectorized substring kernels, exactly
    the oracle's padded position(' '||w||' ' IN ' '||text||' ') > 0.

    Exactness: all four counts exact int64; lift numerator/denominator
    exact int products; ONE pinned split-double division."""
    import pyarrow.compute as pc

    from anomalydetection_ray.stages.detectors import _split_double

    ds = _read_docs(sf_dir, ["text"])

    def _has(texts, w: str):
        return pc.or_(
            pc.or_(pc.match_substring(texts, f" {w} "),
                   pc.starts_with(texts, f"{w} ")),
            pc.or_(pc.ends_with(texts, f" {w}"), pc.equal(texts, w)))

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.column("text")
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        t = pc.fill_null(t, "")
        h1 = _has(t, w1).to_numpy(zero_copy_only=False)
        h2 = _has(t, w2).to_numpy(zero_copy_only=False)
        return pa.table({
            "_one": pa.array([0], type=pa.int64()),
            "n_docs": pa.array([batch.num_rows], type=pa.int64()),
            "n_w1": pa.array([int(h1.sum())], type=pa.int64()),
            "n_w2": pa.array([int(h2.sum())], type=pa.int64()),
            "n_both": pa.array([int((h1 & h2).sum())],
                               type=pa.int64()),
        })

    agg = (ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("_one").sum(["n_docs", "n_w1", "n_w2", "n_both"]))

    def widen(batch: pa.Table) -> pa.Table:
        nd = int(batch.column("sum(n_docs)")[0].as_py())
        n1 = int(batch.column("sum(n_w1)")[0].as_py())
        n2 = int(batch.column("sum(n_w2)")[0].as_py())
        nb = int(batch.column("sum(n_both)")[0].as_py())
        lift = (_split_double(nb * nd) / _split_double(n1 * n2)
                if n1 > 0 and n2 > 0 else None)
        return pa.table({
            "n_docs": pa.array([nd], type=pa.int64()),
            "n_w1": pa.array([n1], type=pa.int64()),
            "n_w2": pa.array([n2], type=pa.int64()),
            "n_both": pa.array([nb], type=pa.int64()),
            "lift": pa.array([lift], type=pa.float64(),
                             from_pandas=True),
        })

    return agg.map_batches(widen, batch_format="pyarrow")


def x13_boolean_search(sf_dir: str, w1: str = "batch",
                       w2: str = "stream", w3: str = "error"):
    """X13 — boolean document search census: counts for the query
    ``w1 AND w2 AND NOT w3`` plus the three single-term document
    frequencies — the three-clause boolean primitive over X12's exact
    ' '-split containment convention (X3's inverted index serves the
    same answers positionally; this is the full-scan census form).

    Exactness: all counts exact int64; no floats."""
    import pyarrow.compute as pc

    ds = _read_docs(sf_dir, ["text"])

    def _has(texts, w: str):
        return pc.or_(
            pc.or_(pc.match_substring(texts, f" {w} "),
                   pc.starts_with(texts, f"{w} ")),
            pc.or_(pc.ends_with(texts, f" {w}"), pc.equal(texts, w)))

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.column("text")
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        t = pc.fill_null(t, "")
        h1 = _has(t, w1).to_numpy(zero_copy_only=False)
        h2 = _has(t, w2).to_numpy(zero_copy_only=False)
        h3 = _has(t, w3).to_numpy(zero_copy_only=False)
        return pa.table({
            "_one": pa.array([0], type=pa.int64()),
            "n_docs": pa.array([batch.num_rows], type=pa.int64()),
            "df_w1": pa.array([int(h1.sum())], type=pa.int64()),
            "df_w2": pa.array([int(h2.sum())], type=pa.int64()),
            "df_w3": pa.array([int(h3.sum())], type=pa.int64()),
            "n_match": pa.array([int((h1 & h2 & ~h3).sum())],
                                type=pa.int64()),
        })

    agg = (ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("_one").sum(["n_docs", "df_w1", "df_w2",
                                 "df_w3", "n_match"]))

    def widen(batch: pa.Table) -> pa.Table:
        return pa.table({
            "n_docs": batch.column("sum(n_docs)").cast(pa.int64()),
            "df_w1": batch.column("sum(df_w1)").cast(pa.int64()),
            "df_w2": batch.column("sum(df_w2)").cast(pa.int64()),
            "df_w3": batch.column("sum(df_w3)").cast(pa.int64()),
            "n_match": batch.column("sum(n_match)").cast(pa.int64()),
        })

    return agg.map_batches(widen, batch_format="pyarrow")


def x15_prefix_search(sf_dir: str, prefix: str = "s", k: int = 10):
    """X15 — prefix (autocomplete) search census: the top-``k`` words
    starting with ``prefix`` by occurrence count, plus the distinct
    matching-word count and total matching occurrences — the
    autocomplete/typeahead primitive next to X4's exact phrase and
    X10's proximity search.

    Scale shape: V1's per-block partial counts are prefix-FILTERED at
    the map side (only matching words leave the block), then the
    standard `_pkey` word aggregate + block-pruned top-k — the
    exchange carries the prefix's vocabulary slice, never the
    corpus'.  Exact counts; a summary row (word = '') carries the
    census totals; no floats."""
    from anomalydetection_ray.stages.runs import agg_by
    from anomalydetection_ray.stages.topk import topk

    docs = _read_docs(sf_dir, ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        t = _count_partial(batch)
        keep = pc.starts_with(t.column("word"), prefix)
        return t.filter(keep)

    partials = docs.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)
    counts = agg_by(partials, ["word"], [("n", "sum", "n")])
    head = topk(counts, k, [("n", "descending"),
                            ("word", "ascending")])

    def census(batch: pa.Table) -> pa.Table:
        n = np.asarray(batch.column("n"), dtype=np.int64)
        return pa.table({
            "word": pa.array([""], type=pa.string()),
            "n": pa.array([int(n.sum())], type=pa.int64()),
            "n_distinct": pa.array([batch.num_rows],
                                   type=pa.int64()),
        })

    totals = (counts.map_batches(census, batch_format="pyarrow")
              .groupby("word").sum(["n", "n_distinct"])
              .map_batches(lambda b: pa.table({
                  "word": b.column("word"),
                  "n": b.column("sum(n)"),
                  "n_distinct": b.column("sum(n_distinct)")}),
                  batch_format="pyarrow"))

    def rank_rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "word": batch.column("word"),
            "n": batch.column("n").cast(pa.int64()),
            "n_distinct": pa.array(
                np.full(batch.num_rows, -1, dtype=np.int64)),
        })

    import ray.data  # noqa: F401

    return head.map_batches(rank_rows,
                            batch_format="pyarrow").union(totals)


def v26_heaps_exponent(sf_dir: str):
    """V26 — Heaps' law exponent across sources: regress ln(distinct
    words) on ln(total words) over the per-source (N_s, V_s) points —
    the corpus-law readout (beta ~ 0.4-0.6 for natural text; beta near
    1 = unbounded novelty = likely noise/IDs; near 0 = template).

    Exactness: N_s and V_s are exact ints; the OLS runs as PINNED
    ordered folds (source-ascending, 0.0 seeds): sx/sy sums of libm
    ln, means by /k, centered product sums, beta = sxy/sxx and
    log_k = my - beta*mx — every step one IEEE op, replayed by the
    oracle's list_reduce chain.

    Scale shape: word-count partials per (source, word) collapse
    map-side; the exchanges are bounded by vocab x sources; the OLS
    fold runs over <= |sources| points."""
    import math

    from anomalydetection_ray.stages.detectors import _split_double

    docs = _read_docs(sf_dir, ["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        src = batch.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(text, " ")
        flat = pc.list_flatten(words)
        src_of = src.take(pc.list_parent_indices(words))
        keep = pc.not_equal(flat, "")
        pairs = pa.table({"source": src_of.filter(keep),
                          "word": flat.filter(keep)})
        g = pairs.group_by(["source", "word"]).aggregate(
            [([], "count_all")])
        return pa.table({"source": g.column("source"),
                         "word": g.column("word"),
                         "n": pc.cast(g.column("count_all"),
                                      pa.int64())})

    counts = (docs.map_batches(partial, batch_format="pyarrow",
                               zero_copy_batch=True)
              .groupby(["source", "word"]).sum("n"))

    def per_source(batch: pa.Table) -> pa.Table:
        t = pa.table({"source": batch.column("source"),
                      "n": batch.column("sum(n)").cast(pa.int64()),
                      "one": pa.array(np.ones(batch.num_rows,
                                              dtype=np.int64))})
        g = t.group_by(["source"]).aggregate([("n", "sum"),
                                              ("one", "sum")])
        return pa.table({"source": g.column("source"),
                         "n_words": g.column("n_sum").cast(pa.int64()),
                         "n_types": g.column("one_sum").cast(
                             pa.int64())})

    sums = (counts.map_batches(per_source, batch_format="pyarrow")
            .groupby("source").sum(["n_words", "n_types"]))

    def finalize(group: pa.Table) -> pa.Table:
        src = np.asarray(group.column("source"))
        nw = np.asarray(group.column("sum(n_words)"), dtype=np.int64)
        nt = np.asarray(group.column("sum(n_types)"), dtype=np.int64)
        order = np.argsort(src)
        nw, nt = nw[order], nt[order]
        k = int(nw.shape[0])
        xs = [math.log(_split_double(int(v))) for v in nw]
        ys = [math.log(_split_double(int(v))) for v in nt]
        sx = 0.0
        sy = 0.0
        for v in xs:
            sx = sx + v
        for v in ys:
            sy = sy + v
        mx = sx / float(k)
        my = sy / float(k)
        sxx = 0.0
        sxy = 0.0
        for xv, yv in zip(xs, ys):
            sxx = sxx + (xv - mx) * (xv - mx)
        for xv, yv in zip(xs, ys):
            sxy = sxy + (xv - mx) * (yv - my)
        beta = sxy / sxx if sxx > 0.0 else None
        logk = (my - beta * mx) if beta is not None else None
        return pa.table({
            "n_sources": pa.array([k], type=pa.int64()),
            "beta": pa.array([beta], type=pa.float64(),
                             from_pandas=True),
            "log_k": pa.array([logk], type=pa.float64(),
                              from_pandas=True),
        })

    return sums.repartition(1).map_batches(finalize, batch_format="pyarrow")


def v27_word_length_profile(sf_dir: str, long_len: int = 7):
    """V27 — word-length profile per source: word count, total
    characters, long-word (>= ``long_len`` chars) count, mean word
    length and long-word share — the lexical-register screen (legal/
    scientific text runs long; chat runs short) next to T23's shape
    classes.  Counts exact; the two ratios pinned divisions."""
    from anomalydetection_ray.stages.detectors import _split_double

    docs = _read_docs(sf_dir, ["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        src = batch.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(text, " ")
        flat = pc.list_flatten(words)
        src_of = src.take(pc.list_parent_indices(words))
        keep = pc.not_equal(flat, "")
        flat = flat.filter(keep)
        src_of = src_of.filter(keep)
        ln = pc.cast(pc.utf8_length(flat), pa.int64())
        lnp = np.asarray(ln, dtype=np.int64)
        t = pa.table({
            "source": src_of,
            "one": pa.array(np.ones(lnp.shape[0], dtype=np.int64)),
            "chars": ln,
            "long": pa.array((lnp >= long_len).astype(np.int64)),
        })
        g = t.group_by(["source"]).aggregate(
            [("one", "sum"), ("chars", "sum"), ("long", "sum")])
        return pa.table({
            "source": g.column("source"),
            "n_words": g.column("one_sum").cast(pa.int64()),
            "n_chars": g.column("chars_sum").cast(pa.int64()),
            "n_long": g.column("long_sum").cast(pa.int64()),
        })

    agg = (docs.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True)
           .groupby("source").sum(["n_words", "n_chars", "n_long"]))

    def widen(batch: pa.Table) -> pa.Table:
        nw = np.asarray(batch.column("sum(n_words)"), dtype=np.int64)
        nc = np.asarray(batch.column("sum(n_chars)"), dtype=np.int64)
        nl = np.asarray(batch.column("sum(n_long)"), dtype=np.int64)
        mean = np.array([_split_double(int(c)) / _split_double(int(w))
                         for c, w in zip(nc, nw)], dtype=np.float64)
        share = np.array([_split_double(int(l))
                          / _split_double(int(w))
                          for l, w in zip(nl, nw)], dtype=np.float64)
        return pa.table({
            "source": batch.column("source"),
            "n_words": pa.array(nw, type=pa.int64()),
            "n_chars": pa.array(nc, type=pa.int64()),
            "n_long": pa.array(nl, type=pa.int64()),
            "mean_word_len": pa.array(mean, type=pa.float64()),
            "long_share": pa.array(share, type=pa.float64()),
        })

    return agg.map_batches(widen, batch_format="pyarrow")
