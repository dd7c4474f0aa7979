"""P3 — training-sequence packing over the documents table (round-3).

The GPT-style pack-and-split: concatenate the corpus token stream in
``doc_id`` order and cut it into fixed-length training sequences of
``seq_len`` tokens; every document is tagged with its global token offset
and the sequence its first token lands in.  The load-bearing primitive is
a DISTRIBUTED EXCLUSIVE PREFIX SUM over the per-document token counts —
the textbook two-pass scan:

1. one map pass collapses the text to the tiny ``(doc_id, n_tok)``
   relation, range-partitioned on ``doc_id`` (parquet footer min/max
   stats give the id span — no data read);
2. per-partition token totals (``P`` rows) reduce to the driver, which
   computes the exclusive per-partition offsets — the only driver state,
   ``O(P)``;
3. a per-partition kernel sorts its own slice by ``doc_id``, local
   cumsum + partition offset = the global offset, ``offset // seq_len``
   = the sequence id.

At 100 TB the text is read ONCE (step 1); everything after operates on
the 16-byte-per-doc count relation, which is materialized so steps 2 and
3 share it instead of re-tokenizing.  No global sort: range partitioning
by id makes each partition's rows a contiguous id span, so per-partition
local order is global order.

Oracle: ``SUM(n_tok) OVER (ORDER BY doc_id ROWS BETWEEN UNBOUNDED
PRECEDING AND 1 PRECEDING)`` — exact int64 arithmetic end to end.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

SEQ_LEN_DEFAULT = 1024
_PART = "_range_part"


def _doc_id_span(path: str) -> tuple[int, int]:
    """(min, max) of doc_id from parquet row-group statistics only."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    idx = pf.schema_arrow.get_field_index("doc_id")
    lo, hi = None, None
    for rg in range(pf.metadata.num_row_groups):
        st = pf.metadata.row_group(rg).column(idx).statistics
        lo = st.min if lo is None else min(lo, st.min)
        hi = st.max if hi is None else max(hi, st.max)
    return int(lo), int(hi)


def _count_batch(batch: pa.Table, lo: int, hi: int,
                 num_partitions: int) -> pa.Table:
    """(doc_id, n_tok, range partition) for one batch — words are
    non-empty space-split tokens (== the vocab family and the SQL
    oracle)."""
    text = batch.column("text")
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    words = pc.split_pattern(text, " ")
    flat = pc.list_flatten(words)
    row_of = np.asarray(pc.list_parent_indices(words), dtype=np.int64)
    nonempty = np.asarray(pc.not_equal(flat, ""))
    n_tok = np.bincount(row_of[nonempty], minlength=batch.num_rows)
    ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
    part = (ids - lo) * num_partitions // (hi - lo + 1)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_tok": pa.array(n_tok.astype(np.int64), type=pa.int64()),
        _PART: pa.array(part, type=pa.int64()),
    })


def _scan_kernel(group: pa.Table, offsets: np.ndarray,
                 seq_len: int) -> pa.Table:
    part = int(group.column(_PART)[0].as_py())
    group = group.drop_columns([_PART]).sort_by([("doc_id", "ascending")])
    n_tok = np.asarray(group.column("n_tok"), dtype=np.int64)
    before = int(offsets[part]) + np.cumsum(n_tok) - n_tok
    return pa.table({
        "doc_id": group.column("doc_id"),
        "n_tok": group.column("n_tok"),
        "tok_offset": pa.array(before, type=pa.int64()),
        "seq_id": pa.array(before // seq_len, type=pa.int64()),
    })


def _exclusive_offsets(counts, num_partitions: int, col: str) -> np.ndarray:
    """Per-partition exclusive prefix offsets of ``sum(col)`` — the O(P)
    driver half of the distributed scan (per-block partials collapse
    before the exchange; only ``P`` rows reach the driver)."""
    def _partial(batch: pa.Table) -> pa.Table:
        return batch.select([_PART, col]).group_by(_PART).aggregate(
            [(col, "sum")])

    totals = np.zeros(num_partitions, dtype=np.int64)
    for row in (counts.map_batches(_partial, batch_format="pyarrow",
                                   zero_copy_batch=True)
                .groupby(_PART).sum(f"{col}_sum").take_all()):
        totals[int(row[_PART])] = int(row[f"sum({col}_sum)"])
    return np.concatenate(([0], np.cumsum(totals)[:-1]))


def pack_sequences(sf_dir: str, seq_len: int = SEQ_LEN_DEFAULT,
                   num_partitions: int = 16):
    """P3 — per-document (global token offset, training-sequence id)
    under pack-and-split at ``seq_len``; see module docstring for the
    two-pass distributed scan."""
    import ray.data

    path = f"{sf_dir}/documents.parquet"
    lo, hi = _doc_id_span(path)
    counts = (ray.data.read_parquet(path, columns=["doc_id", "text"])
              .map_batches(functools.partial(_count_batch, lo=lo, hi=hi,
                                             num_partitions=num_partitions),
                           batch_format="pyarrow", zero_copy_batch=True)
              .materialize())  # tiny int relation, shared by both passes

    offsets = _exclusive_offsets(counts, num_partitions, "n_tok")
    return counts.groupby(_PART).map_groups(
        functools.partial(_scan_kernel, offsets=offsets, seq_len=seq_len),
        batch_format="pyarrow")


# ---------------------------------------------------------------- Q6 ----
SHUFFLE_SEED_DEFAULT = 42


def _hash_batch(batch: pa.Table, seed: int, num_partitions: int) -> pa.Table:
    """(doc_id, h, range partition on h) — layout-independent seeded
    hash: the id is XORed with a seed mix BEFORE the Knuth multiply, so
    a different seed produces a genuinely different permutation (an
    affine-in-id hash would only shift every rank by a constant).  h is
    uniform on [0, 2^32); equal hash ranges range-partition the order."""
    ids = np.asarray(batch.column("doc_id"), dtype=np.uint64)
    smix = (np.uint64(seed) * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)
    h = (((ids & np.uint64(0xFFFFFFFF)) ^ smix) * np.uint64(2654435761)) \
        & np.uint64(0xFFFFFFFF)
    part = (h * np.uint64(num_partitions)) >> np.uint64(32)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "h": pa.array(h.astype(np.int64), type=pa.int64()),
        "one": pa.array(np.ones(len(ids), dtype=np.int64), type=pa.int64()),
        _PART: pa.array(part.astype(np.int64), type=pa.int64()),
    })


def _rank_kernel(group: pa.Table, offsets: np.ndarray) -> pa.Table:
    part = int(group.column(_PART)[0].as_py())
    group = group.drop_columns([_PART, "one"]).sort_by(
        [("h", "ascending"), ("doc_id", "ascending")])
    pos = int(offsets[part]) + np.arange(group.num_rows, dtype=np.int64)
    return group.append_column("shuffle_pos", pa.array(pos, type=pa.int64()))


def seeded_shuffle(sf_dir: str, seed: int = SHUFFLE_SEED_DEFAULT,
                   num_partitions: int = 16):
    """Q6 — deterministic global training-order shuffle: every document
    gets a contiguous ``shuffle_pos`` equal to its rank under ``(hash,
    doc_id)`` order.  The distributed-rank sibling of P3's prefix sum:
    hash-range partitioning makes each partition a contiguous rank span,
    so rank = per-partition exclusive row-count offset + local sort
    position — no global sort, one tiny O(P) driver exchange.  Unlike
    ``ds.random_shuffle()`` the order is a pure function of (doc_id,
    seed): layout-independent, resumable, and SQL-checkable
    (``row_number() OVER (ORDER BY h, doc_id)``)."""
    import ray.data

    hashed = (ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                    columns=["doc_id"])
              .map_batches(functools.partial(_hash_batch, seed=seed,
                                             num_partitions=num_partitions),
                           batch_format="pyarrow", zero_copy_batch=True)
              .materialize())  # 24-byte/doc relation shared by both passes
    offsets = _exclusive_offsets(hashed, num_partitions, "one")
    return hashed.groupby(_PART).map_groups(
        functools.partial(_rank_kernel, offsets=offsets),
        batch_format="pyarrow")


# ------------------------------------------------------------------ P4 ----
CHUNK_LEN_DEFAULT = 128
CHUNK_STRIDE_DEFAULT = 96


def chunk_batch(batch: pa.Table, chunk: int = CHUNK_LEN_DEFAULT,
                stride: int = CHUNK_STRIDE_DEFAULT) -> pa.Table:
    """P4 — fixed-length overlapping chunking of one sequences batch:
    chunk ``j`` of a document covers token positions
    ``[j*stride, j*stride + chunk)``; the last chunk may be short; a
    document of n tokens yields ``1 + max(0, ceil((n-chunk)/stride))``
    chunks (0 for empty docs).  Emits per-chunk aggregates (sum/sumsq/
    min/max) instead of token lists so the rows are content-pinning and
    portably hashable.

    Fully vectorized: chunk spans come from repeat/arange index algebra,
    sums from two padded cumsums, min/max from ONE interleaved
    ``reduceat`` each over the flat buffer (one sentinel pad makes the
    array-end index legal) — no per-chunk Python."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    nch = np.where(lens > 0, 1 + np.maximum(-(-(lens - chunk) // stride), 0), 0)
    total = int(nch.sum())
    row_of = np.repeat(np.arange(nrows, dtype=np.int64), nch)
    first = np.cumsum(nch) - nch
    j = np.arange(total, dtype=np.int64) - first[row_of]
    start = j * stride
    clen = np.minimum(start + chunk, lens[row_of]) - start
    gs = offsets[:-1][row_of] + start
    ge = gs + clen
    c1 = np.concatenate(([0], np.cumsum(v)))
    c2 = np.concatenate(([0], np.cumsum(v * v)))
    tok_sum = c1[ge] - c1[gs]
    tok_sumsq = c2[ge] - c2[gs]
    if total:
        inter = np.empty(2 * total, dtype=np.int64)
        inter[0::2] = gs
        inter[1::2] = np.minimum(ge, v.shape[0] + 0)  # ge <= len(v); pad below
        vmin = np.minimum.reduceat(
            np.concatenate([v, [np.iinfo(np.int64).max]]), inter)[0::2]
        vmax = np.maximum.reduceat(
            np.concatenate([v, [np.iinfo(np.int64).min]]), inter)[0::2]
    else:
        vmin = vmax = np.empty(0, dtype=np.int64)
    return pa.table({
        "doc_id": batch.column("doc_id").take(pa.array(row_of)),
        "chunk_id": pa.array(j, type=pa.int64()),
        "start_pos": pa.array(start, type=pa.int64()),
        "n": pa.array(clen, type=pa.int64()),
        "tok_sum": pa.array(tok_sum, type=pa.int64()),
        "tok_sumsq": pa.array(tok_sumsq, type=pa.int64()),
        "tok_min": pa.array(vmin, type=pa.int64()),
        "tok_max": pa.array(vmax, type=pa.int64()),
    })


def chunk_docs(sf_dir: str, chunk: int = CHUNK_LEN_DEFAULT,
               stride: int = CHUNK_STRIDE_DEFAULT):
    """P4 — overlapping-window chunking of the tokenized corpus (the
    training-data sibling of P3's pack-and-split: RAG / long-context
    prep cuts each document into fixed windows with overlap).  Map-only:
    no shuffle, the expansion happens inside each task, output streams."""
    from anomalydetection_ray.sources.tokenize import docs_sequences

    return docs_sequences(sf_dir).map_batches(
        functools.partial(chunk_batch, chunk=chunk, stride=stride),
        batch_format="pyarrow", zero_copy_batch=True)


def q10_systematic_sample(sf_dir: str, k: int = 10,
                          seed: int = SHUFFLE_SEED_DEFAULT,
                          num_partitions: int = 16):
    """Q10 — systematic sampling: every ``k``-th document under the Q6
    seeded global order (rank % k == 0).  Unlike the Q3/Q4 membership
    samples, the sample SIZE is exact by construction (ceil(N/k)) and
    the picks are evenly spaced through the shuffled order — the classic
    survey-sampling design, and the deterministic distributed-rank path
    makes it layout-independent and resumable.

    Scale shape: inherits Q6's no-global-sort distributed rank; the
    filter is map-only on top.  Oracle: ``QUALIFY (row_number() - 1) %
    k = 0`` over the same hash order."""
    ranked = seeded_shuffle(sf_dir, seed=seed,
                            num_partitions=num_partitions)

    def keep(batch: pa.Table) -> pa.Table:
        pos = np.asarray(batch.column("shuffle_pos"), dtype=np.int64)
        return batch.filter(pa.array(pos % k == 0))

    return ranked.map_batches(keep, batch_format="pyarrow",
                              zero_copy_batch=True)


def c4_dedup_packing(sf_dir: str, seq_len: int = SEQ_LEN_DEFAULT,
                     num_partitions: int = 16):
    """C4 — composed curation step: EXACT DEDUP then PACK.  Every LLM
    data pipeline's last mile — duplicates dropped (D1's min-doc_id
    keeper per content hash), then the survivors packed into fixed
    ``seq_len`` training sequences with global token offsets (P3's
    distributed exclusive prefix sum).  Proves the dedup relation and
    the packing scan compose without a driver-side id set.

    Scale shape: the keeper relation (doc_id only) re-partitions by the
    SAME id-range rule as the count relation and semi-joins inside each
    partition (no broadcast of a corpus-sized key set); then the
    standard two-pass scan: per-partition totals -> O(P) driver offsets
    -> per-partition local cumsum.  Oracle: keeper CTE + window-frame
    sum over doc_id order."""
    import ray.data

    from anomalydetection_ray.pipelines import dedup as dd

    path = f"{sf_dir}/documents.parquet"
    lo, hi = _doc_id_span(path)
    counts = (ray.data.read_parquet(path, columns=["doc_id", "text"])
              .map_batches(functools.partial(_count_batch, lo=lo, hi=hi,
                                             num_partitions=num_partitions),
                           batch_format="pyarrow", zero_copy_batch=True))

    def keeper_part(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        part = (ids - lo) * num_partitions // (hi - lo + 1)
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "n_tok": pa.array(np.full(len(ids), -1), type=pa.int64()),
            _PART: pa.array(part, type=pa.int64()),
        })

    keepers = dd.exact_dedup(sf_dir).select_columns(["doc_id"]).map_batches(
        keeper_part, batch_format="pyarrow", zero_copy_batch=True)

    def filter_kernel(group: pa.Table) -> pa.Table:
        part = int(group.column(_PART)[0].as_py())
        ids = np.asarray(group.column("doc_id"), dtype=np.int64)
        ntok = np.asarray(group.column("n_tok"), dtype=np.int64)
        is_keep = ntok == -1          # keeper-relation marker rows
        keep_ids = ids[is_keep]
        sel = (~is_keep) & np.isin(ids, keep_ids)
        return pa.table({
            "doc_id": pa.array(ids[sel], type=pa.int64()),
            "n_tok": pa.array(ntok[sel], type=pa.int64()),
            _PART: pa.array(np.full(int(sel.sum()), part), type=pa.int64()),
        })

    filtered = (counts.union(keepers).groupby(_PART)
                .map_groups(filter_kernel, batch_format="pyarrow")
                .materialize())  # tiny int relation, shared by both passes
    offsets = _exclusive_offsets(filtered, num_partitions, "n_tok")
    return filtered.groupby(_PART).map_groups(
        functools.partial(_scan_kernel, offsets=offsets, seq_len=seq_len),
        batch_format="pyarrow")


# ---------------------------------------------------------------- Q11 ----
def q11_weighted_sample(sf_dir: str, k: int = 25,
                        num_partitions: int = 16):
    """Q11 — weighted (probability-proportional-to-size) systematic
    sample (Madow 1949): walk the corpus in doc_id order accumulating
    ``n_chars`` weight and pick every document whose weight span crosses
    a multiple of ``stride = total_weight // k`` — long documents are
    proportionally more likely to be picked, the classic PPS design for
    size-biased corpus audits.  Deterministic (no RNG), exact integer
    arithmetic end-to-end, and the sample size is fixed by construction
    (``total // stride`` crossings).

    Scale shape: P3's two-pass distributed scan — per-partition weight
    totals collapse per block, O(P) rows reach the driver for the
    exclusive offsets + grand total, then each id-range partition
    selects its crossings locally (one vectorized floor-div compare per
    partition, no global sort, no full-corpus driver state).  Oracle:
    window running sum over doc_id order + the same floor-div crossing
    predicate.

    Returns (doc_id, n_chars, w_before, n_hits) for picked docs;
    ``n_hits`` > 1 marks documents longer than a whole stride."""
    import ray.data

    path = f"{sf_dir}/documents.parquet"
    lo, hi = _doc_id_span(path)

    def weight_batch(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        part = (ids - lo) * num_partitions // (hi - lo + 1)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_chars": batch.column("n_chars"),
            _PART: pa.array(part, type=pa.int64()),
        })

    weights = (ray.data.read_parquet(path, columns=["doc_id", "n_chars"])
               .map_batches(weight_batch, batch_format="pyarrow",
                            zero_copy_batch=True)
               .materialize())  # 24-byte/doc int relation, two passes

    def _partial(batch: pa.Table) -> pa.Table:
        return batch.select([_PART, "n_chars"]).group_by(_PART).aggregate(
            [("n_chars", "sum")])

    totals = np.zeros(num_partitions, dtype=np.int64)
    for row in (weights.map_batches(_partial, batch_format="pyarrow",
                                    zero_copy_batch=True)
                .groupby(_PART).sum("n_chars_sum").take_all()):
        totals[int(row[_PART])] = int(row["sum(n_chars_sum)"])
    offsets = np.concatenate(([0], np.cumsum(totals)[:-1]))
    total = int(totals.sum())
    stride = max(total // int(k), 1)

    def pick(group: pa.Table) -> pa.Table:
        part = int(group.column(_PART)[0].as_py())
        g = group.drop_columns([_PART]).sort_by([("doc_id", "ascending")])
        w = np.asarray(g.column("n_chars"), dtype=np.int64)
        cw = int(offsets[part]) + np.cumsum(w)
        before = cw - w
        hits = cw // stride - before // stride
        keep = hits > 0
        return pa.table({
            "doc_id": g.column("doc_id").filter(pa.array(keep)),
            "n_chars": g.column("n_chars").filter(pa.array(keep)),
            "w_before": pa.array(before[keep], type=pa.int64()),
            "n_hits": pa.array(hits[keep], type=pa.int64()),
        })

    return weights.groupby(_PART).map_groups(pick, batch_format="pyarrow")


def span_corruption_batch(batch: pa.Table, noise_pct: int = 15) -> pa.Table:
    """Q12 kernel — T5-style span-corruption PLAN (Raffel et al. 2020,
    JMLR 21(140) §3.1.4 "span corruption"): a deterministic hash decides
    which positions of each token series are noised, and the plan is
    summarized per (doc, part) as exact integers — masked-token count,
    contiguous-span count, masked value sum and a position-weighted
    checksum — so the denoising-objective prep is value-verifiable in SQL.

    mask(doc, i)  <=>  (((doc % 2^32) * 2654435761 + i) % 2^32)
                        * 2654435761 % 2^32 % 100 < noise_pct

    (the q6_seeded_shuffle Knuth-multiplier family; uint64-safe: every
    intermediate < 1.2e19).  Map-only, vectorized over the flat buffer."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    M32 = np.uint64(0xFFFFFFFF)
    KNUTH = np.uint64(2654435761)
    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    doc = pc.cast(batch.column("doc_id"), pa.int64()).to_numpy(
        zero_copy_only=False).astype(np.uint64)
    row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
    i_in = (np.arange(v.shape[0], dtype=np.int64)
            - np.repeat(offsets[:-1], lens)).astype(np.uint64)
    h = ((doc[row_of] & M32) * KNUTH + i_in) & M32
    h = (h * KNUTH) & M32
    masked = (h % np.uint64(100)) < np.uint64(noise_pct)
    n_masked = np.zeros(nrows, dtype=np.int64)
    np.add.at(n_masked, row_of[masked], 1)
    starts = masked.copy()
    if masked.shape[0] > 1:
        inner = masked[1:] & masked[:-1] & (row_of[1:] == row_of[:-1])
        starts[1:] &= ~inner
    n_spans = np.zeros(nrows, dtype=np.int64)
    np.add.at(n_spans, row_of[starts], 1)
    msum = np.zeros(nrows, dtype=np.int64)
    np.add.at(msum, row_of[masked], v[masked])
    mchk = np.zeros(nrows, dtype=np.int64)
    np.add.at(mchk, row_of[masked],
              (i_in[masked].astype(np.int64) + 1) * v[masked])
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "n_masked": pa.array(n_masked, type=pa.int64()),
        "n_spans": pa.array(n_spans, type=pa.int64()),
        "masked_sum": pa.array(msum, type=pa.int64()),
        "mask_checksum": pa.array(mchk, type=pa.int64()),
    })


def q12_span_corruption(sf_dir: str):
    """Q12 — the span-corruption plan summary over the tokenized corpus."""
    from anomalydetection_ray.pipelines.rollup import validated
    from anomalydetection_ray.sources.tokenize import docs_sequences

    return validated(docs_sequences(sf_dir)).map_batches(
        span_corruption_batch, batch_format="pyarrow", zero_copy_batch=True)


def q13_mixture_sample(sf_dir: str, k_total: int = 200, seed: int = 7,
                       num_partitions: int = 16):
    """Q13 — temperature-scaled mixture sampling across sources (the
    multilingual/multi-corpus data-mixing rule of Raffel et al. 2020
    §3.4.1 / XLM-R: sample source s proportionally to n_s^alpha with
    alpha = 0.5, damping head sources and boosting tails).  Per-source
    quotas are floor(k * sqrt(n_s) / sum sqrt(n_s)); within a source the
    quota picks the smallest Q6-style seeded hashes — deterministic,
    layout-independent, resumable.

    Exactness: counts are exact ints; sqrt/divide/floor are PINNED (the
    normalizer is a sequential fold in source order the oracle
    reproduces with list_reduce); selection is integer rank under (h,
    doc_id).  Scale shape: bounded source-domain count exchange + one
    hash-partition exchange, vectorized rank kernel — no global sort."""
    import math

    import ray.data

    from anomalydetection_ray.stages.runs import (partition_apply,
                                                  run_starts)

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source"])

    def count_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("source").aggregate([([], "count_all")])
        return pa.table({"source": g.column("source"),
                         "n": g.column("count_all").cast(pa.int64())})

    counts = (docs.map_batches(count_partial, batch_format="pyarrow",
                               zero_copy_batch=True)
              .groupby("source").sum("n").take_all())   # bounded: sources
    per = sorted((r["source"], int(r["sum(n)"])) for r in counts)
    wgt = {s: math.sqrt(float(n)) for s, n in per}
    total_w = 0.0
    for s, _ in per:                      # pinned fold in source order
        total_w = total_w + wgt[s]
    quota = {s: int(math.floor((float(k_total) * wgt[s]) / total_w))
             for s, _ in per}

    smix = (np.uint64(seed) * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)

    def hash_batch(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.uint64)
        h = (((ids & np.uint64(0xFFFFFFFF)) ^ smix)
             * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)
        return pa.table({"source": batch.column("source"),
                         "doc_id": batch.column("doc_id"),
                         "h": pa.array(h.astype(np.int64), type=pa.int64())})

    hashed = docs.map_batches(hash_batch, batch_format="pyarrow",
                              zero_copy_batch=True)

    def kernel(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({"source": pa.array([], type=pa.string()),
                             "doc_id": pa.array([], type=pa.int64()),
                             "h": pa.array([], type=pa.int64()),
                             "smp_rank": pa.array([], type=pa.int64())})
        part = part.sort_by([("source", "ascending"), ("h", "ascending"),
                             ("doc_id", "ascending")])
        starts = run_starts(part, ["source"])
        n = part.num_rows
        lens = np.diff(np.append(starts, n))
        rank = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
        src_heads = part.column("source").take(
            pa.array(starts, type=pa.int64())).to_pylist()
        qarr = np.array([quota.get(s, 0) for s in src_heads],
                        dtype=np.int64)        # bounded: one per source
        keep = np.flatnonzero(rank < np.repeat(qarr, lens))
        sel = part.take(pa.array(keep, type=pa.int64()))
        return pa.table({"source": sel.column("source"),
                         "doc_id": sel.column("doc_id"),
                         "h": sel.column("h"),
                         "smp_rank": pa.array(rank[keep], type=pa.int64())})

    return partition_apply(hashed, ["source"], kernel,
                           num_partitions=num_partitions)


# ---------------------------------------------------------------- Q14 ----
def q14_length_buckets(sf_dir: str):
    """Q14 — length-bucketed batching audit: assign every document to the
    smallest power-of-two token-length bucket that holds it and report,
    per bucket, the document count, the exact token sum, the padded token
    volume (bucket_size * n_docs) and the padding overhead — the
    fixed-shape-batch efficiency question every sequence-bucketing
    trainer (and its XLA/static-graph compiler) asks before picking
    bucket boundaries.

    Exactness: n_tok is the non-empty space-split word count (the P3 /
    vocab-family definition); the bucket is found by an exact integer
    searchsorted against the power-of-two ladder (no log2 float in the
    kernel), and the SQL oracle uses a powers CTE join for the same
    arithmetic-free bucketing.  pad_frac is the one pinned int->double
    division pair.

    Scale shape: map-only collapse of each block to <= 64 (bucket,
    partials) rows, ONE exchange on the bounded bucket key, a vectorized
    finalize.  The text is read once; nothing wider than 64 rows ever
    shuffles."""
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    pows = np.left_shift(np.int64(1), np.arange(63, dtype=np.int64))

    def partial(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(text, " ")
        flat = pc.list_flatten(words)
        row_of = np.asarray(pc.list_parent_indices(words), dtype=np.int64)
        nonempty = np.asarray(pc.not_equal(flat, ""))
        n_tok = np.bincount(row_of[nonempty],
                            minlength=batch.num_rows).astype(np.int64)
        n_eff = np.maximum(n_tok, 1)
        bucket = pows[np.searchsorted(pows, n_eff, side="left")]
        t = pa.table({"bucket": pa.array(bucket, type=pa.int64()),
                      "n_tok": pa.array(n_tok, type=pa.int64()),
                      "one": pa.array(np.ones(len(n_tok), dtype=np.int64))})
        g = t.group_by(["bucket"]).aggregate([("n_tok", "sum"),
                                              ("one", "sum")])
        return pa.table({"bucket": g.column("bucket"),
                         "tokens_sum": g.column("n_tok_sum").cast(pa.int64()),
                         "n_docs": g.column("one_sum").cast(pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    agg = partials.groupby("bucket").sum(["tokens_sum", "n_docs"])

    def finalize(batch: pa.Table) -> pa.Table:
        bucket = np.asarray(batch.column("bucket"), dtype=np.int64)
        toks = np.asarray(batch.column("sum(tokens_sum)"), dtype=np.int64)
        docs = np.asarray(batch.column("sum(n_docs)"), dtype=np.int64)
        padded = bucket * docs
        overhead = padded - toks
        frac = overhead.astype(np.float64) / padded.astype(np.float64)
        return pa.table({
            "bucket": pa.array(bucket, type=pa.int64()),
            "n_docs": pa.array(docs, type=pa.int64()),
            "tokens_sum": pa.array(toks, type=pa.int64()),
            "padded_tokens": pa.array(padded, type=pa.int64()),
            "pad_overhead": pa.array(overhead, type=pa.int64()),
            "pad_frac": pa.array(frac, type=pa.float64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------- Q15 ----
def q15_token_budget_select(sf_dir: str, budget: int = 50_000,
                            num_partitions: int = 16):
    """Q15 — token-budget greedy selection: admit documents in
    (n_tok asc, doc_id asc) order while the running token total stays
    within ``budget`` — the knapsack-greedy "most documents under a
    fixed token budget" data-selection rule (shortest-first maximizes
    the admitted count).  Emits (doc_id, n_tok, cum_tok) for every
    admitted doc.

    Scale shape — a distributed ORDER-BY-LENGTH prefix sum with no
    global sort: (1) one map pass collapses the corpus to the bounded
    (n_tok -> doc count, token sum) histogram (distinct lengths, not
    documents — the only driver state); the driver turns it into
    base[t] = tokens of all docs with length < t.  (2) a second pass
    ranks each doc WITHIN its length group by doc_id (one ``_pkey``
    exchange keyed on n_tok, vectorized run-rank kernel), so
    cum_tok = base[t] + (rank+1)*t is exact int64 per doc and the
    budget test is local.  Oracle: window cumsum over the same total
    order."""
    import ray.data

    from anomalydetection_ray.stages.runs import partition_apply, run_starts

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def count(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(text, " ")
        flat = pc.list_flatten(words)
        row_of = np.asarray(pc.list_parent_indices(words), dtype=np.int64)
        nonempty = np.asarray(pc.not_equal(flat, ""))
        n_tok = np.bincount(row_of[nonempty],
                            minlength=batch.num_rows).astype(np.int64)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "n_tok": pa.array(n_tok, type=pa.int64())})

    counts = ds.map_batches(count, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()

    def hist(batch: pa.Table) -> pa.Table:
        t = pa.table({"n_tok": batch.column("n_tok"),
                      "toks": batch.column("n_tok"),
                      "one": pa.array(np.ones(batch.num_rows,
                                              dtype=np.int64))})
        g = t.group_by(["n_tok"]).aggregate([("toks", "sum"),
                                             ("one", "sum")])
        return pa.table({"n_tok": g.column("n_tok"),
                         "toks": g.column("toks_sum").cast(pa.int64()),
                         "docs": g.column("one_sum").cast(pa.int64())})

    h = (counts.map_batches(hist, batch_format="pyarrow",
                            zero_copy_batch=True)
         .groupby("n_tok").sum(["toks", "docs"]).take_all())
    lens = sorted(int(r["n_tok"]) for r in h)
    tok_of = {int(r["n_tok"]): int(r["sum(toks)"]) for r in h}
    base: dict[int, int] = {}
    acc = 0
    for t in lens:
        base[t] = acc
        acc += tok_of[t]

    def select(group: pa.Table) -> pa.Table:
        group = group.sort_by(
            [("n_tok", "ascending"), ("doc_id", "ascending")])
        n = group.num_rows
        if n == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "n_tok": pa.array([], type=pa.int64()),
                             "cum_tok": pa.array([], type=pa.int64())})
        nt = np.asarray(group.column("n_tok"), dtype=np.int64)
        starts = run_starts(group, ["n_tok"])
        glens = np.diff(np.append(starts, n))
        rank = np.arange(n, dtype=np.int64) - np.repeat(starts, glens)
        base_arr = np.asarray([base[int(t)] for t in nt[starts].tolist()],
                              dtype=np.int64)
        cum = np.repeat(base_arr, glens) + (rank + 1) * nt
        keep = cum <= budget
        out = group.filter(pa.array(keep))
        return out.append_column("cum_tok",
                                 pa.array(cum[keep], type=pa.int64()))

    return partition_apply(counts, ["n_tok"], select, num_partitions)


# ---------------------------------------------------------------- Q16 ----
def q16_shard_balance(sf_dir: str, n_shards: int = 8,
                      num_partitions: int = 16):
    """Q16 — length-interleaved training-shard assignment + balance
    audit: documents are ranked by (n_tok asc, doc_id asc) and dealt
    round-robin (``shard = rank % n_shards``) so every shard receives
    the same length MIX — the cheap deterministic alternative to LPT
    bin packing that keeps per-shard token totals within one max-doc of
    each other.  Emits per-shard doc count, exact token sum, and the
    pinned imbalance ratio (shard tokens / ideal).

    Scale shape: Q15's distributed ORDER-BY-LENGTH rank (bounded length
    histogram -> driver base offsets -> per-length doc_id rank via one
    ``_pkey`` exchange), then the audit collapses per block to
    ``n_shards`` partial rows before one bounded exchange.  Oracle:
    row_number over the same total order, mod, GROUP BY."""
    import ray.data

    from anomalydetection_ray.stages.runs import partition_apply, run_starts

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def count(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(text, " ")
        flat = pc.list_flatten(words)
        row_of = np.asarray(pc.list_parent_indices(words), dtype=np.int64)
        nonempty = np.asarray(pc.not_equal(flat, ""))
        n_tok = np.bincount(row_of[nonempty],
                            minlength=batch.num_rows).astype(np.int64)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "n_tok": pa.array(n_tok, type=pa.int64())})

    counts = ds.map_batches(count, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()

    def hist(batch: pa.Table) -> pa.Table:
        t = pa.table({"n_tok": batch.column("n_tok"),
                      "one": pa.array(np.ones(batch.num_rows,
                                              dtype=np.int64))})
        g = t.group_by(["n_tok"]).aggregate([("one", "sum")])
        return pa.table({"n_tok": g.column("n_tok"),
                         "docs": g.column("one_sum").cast(pa.int64())})

    h = (counts.map_batches(hist, batch_format="pyarrow",
                            zero_copy_batch=True)
         .groupby("n_tok").sum("docs").take_all())
    lens = sorted(int(r["n_tok"]) for r in h)
    cnt_of = {int(r["n_tok"]): int(r["sum(docs)"]) for r in h}
    rank_base: dict[int, int] = {}
    acc = 0
    total_tokens = 0
    for t in lens:
        rank_base[t] = acc
        acc += cnt_of[t]
        total_tokens += t * cnt_of[t]

    def assign(group: pa.Table) -> pa.Table:
        group = group.sort_by(
            [("n_tok", "ascending"), ("doc_id", "ascending")])
        n = group.num_rows
        if n == 0:
            return pa.table({"shard": pa.array([], type=pa.int64()),
                             "n_docs": pa.array([], type=pa.int64()),
                             "tokens_sum": pa.array([], type=pa.int64())})
        nt = np.asarray(group.column("n_tok"), dtype=np.int64)
        starts = run_starts(group, ["n_tok"])
        glens = np.diff(np.append(starts, n))
        rank = np.arange(n, dtype=np.int64) - np.repeat(starts, glens)
        base_arr = np.asarray(
            [rank_base[int(t)] for t in nt[starts].tolist()],
            dtype=np.int64)
        shard = (np.repeat(base_arr, glens) + rank) % n_shards
        t = pa.table({"shard": pa.array(shard, type=pa.int64()),
                      "toks": pa.array(nt, type=pa.int64()),
                      "one": pa.array(np.ones(n, dtype=np.int64))})
        g = t.group_by(["shard"]).aggregate([("one", "sum"),
                                             ("toks", "sum")])
        return pa.table({"shard": g.column("shard"),
                         "n_docs": g.column("one_sum").cast(pa.int64()),
                         "tokens_sum": g.column("toks_sum").cast(pa.int64())})

    agg = (partition_apply(counts, ["n_tok"], assign, num_partitions)
           .groupby("shard").sum(["n_docs", "tokens_sum"]))

    def finalize(batch: pa.Table) -> pa.Table:
        shard = np.asarray(batch.column("shard"), dtype=np.int64)
        nd = np.asarray(batch.column("sum(n_docs)"), dtype=np.int64)
        ts = np.asarray(batch.column("sum(tokens_sum)"), dtype=np.int64)
        # per-shard imbalance vs the ideal even split: pinned
        # float(n_shards * shard_tokens) / float(total_tokens); the
        # total is exact driver state from the length histogram
        ratio = ((n_shards * ts).astype(np.float64)
                 / np.float64(total_tokens)
                 if total_tokens else np.zeros(len(ts)))
        return pa.table({
            "shard": pa.array(shard, type=pa.int64()),
            "n_docs": pa.array(nd, type=pa.int64()),
            "tokens_sum": pa.array(ts, type=pa.int64()),
            "balance_ratio": pa.array(ratio, type=pa.float64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow",
                           batch_size=None)


# ---------------------------------------------------------------- P6 ----
def p6_sequence_composition(sf_dir: str, seq_len: int = SEQ_LEN_DEFAULT,
                            num_partitions: int = 16):
    """P6 — training-sequence composition audit over the P3 packing: for
    every packed sequence, how many documents contribute to it and how
    many document BOUNDARIES (= cross-attention breaks / EOD tokens) it
    carries — the attention-mask statistics a packed-pretraining run is
    configured from (too many boundaries per sequence means the corpus
    is too short-doc for the chosen context length).

    Scale shape: P3's doc-level (offset, n_tok) relation fans out each
    doc to the sequences it overlaps (expansion factor n_tok/seq_len +
    1, bounded), each block collapses to per-sequence partial counts
    before ONE exchange on seq_id; the only driver state is the exact
    total token count (one bounded aggregate).  Oracle: the P3 cumsum
    CTE + generate_series(s0, s1) unnest + GROUP BY."""
    packed = pack_sequences(sf_dir, seq_len=seq_len).materialize()
    total = packed.sum("n_tok")

    def fanout(batch: pa.Table) -> pa.Table:
        nt = np.asarray(batch.column("n_tok"), dtype=np.int64)
        off = np.asarray(batch.column("tok_offset"), dtype=np.int64)
        pos = nt > 0
        nt, off = nt[pos], off[pos]
        s0 = off // seq_len
        s1 = (off + nt - 1) // seq_len
        span = (s1 - s0 + 1).astype(np.int64)
        # vectorized ragged range: seq = s0 repeated + local arange
        idx = np.arange(int(span.sum()), dtype=np.int64)
        base = np.repeat(np.concatenate(([0], np.cumsum(span)[:-1])), span)
        seq = np.repeat(s0, span) + (idx - base)
        t = pa.table({"seq_id": pa.array(seq, type=pa.int64()),
                      "one": pa.array(np.ones(seq.shape[0],
                                              dtype=np.int64))})
        g = t.group_by(["seq_id"]).aggregate([("one", "sum")])
        return pa.table({"seq_id": g.column("seq_id"),
                         "n_docs": g.column("one_sum").cast(pa.int64())})

    agg = (packed.map_batches(fanout, batch_format="pyarrow",
                              zero_copy_batch=True)
           .groupby("seq_id").sum("n_docs"))

    def finalize(batch: pa.Table) -> pa.Table:
        sid = np.asarray(batch.column("seq_id"), dtype=np.int64)
        nd = np.asarray(batch.column("sum(n_docs)"), dtype=np.int64)
        n_tokens = np.minimum(seq_len, int(total) - sid * seq_len)
        return pa.table({
            "seq_id": pa.array(sid, type=pa.int64()),
            "n_docs": pa.array(nd, type=pa.int64()),
            "n_boundaries": pa.array(nd - 1, type=pa.int64()),
            "n_tokens": pa.array(n_tokens.astype(np.int64),
                                 type=pa.int64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


# ---------------------------------------------------------------- Q17 ----
def q17_balanced_eval_sample(sf_dir: str, k_per_stratum: int = 5,
                             num_partitions: int = 16):
    """Q17 — balanced evaluation-set sampling over (source x
    length-quartile) strata: within each source, docs split into char-
    length quartiles (SQL ntile() sizing — the W19 closed form), and
    each of the |sources| x 4 strata contributes its ``k_per_stratum``
    smallest seeded hashes — an eval set that cannot be gamed by
    over-representing one source or one length regime (the Q4/Q7
    samplers stratify on source alone).

    Scale shape: ONE source-keyed exchange; the kernel sorts its
    sources once, assigns quartiles with the vectorized ntile closed
    form, then rank-prunes per stratum — no per-stratum Python.
    Exactness: integer ranks throughout; the seeded hash is the Q6/Q7
    mix the oracle replays."""
    import ray.data

    from anomalydetection_ray.pipelines.queries import QUOTA_SEED_MIX
    from anomalydetection_ray.stages.runs import (partition_apply,
                                                  run_starts)

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source", "n_chars"])

    def hash_batch(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.uint64)
        h = (((ids & np.uint64(0xFFFFFFFF)) ^ np.uint64(QUOTA_SEED_MIX))
             * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)
        return batch.append_column(
            "h", pa.array(h.astype(np.int64), type=pa.int64()))

    hashed = docs.map_batches(hash_batch, batch_format="pyarrow",
                              zero_copy_batch=True)

    def kernel(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "source": pa.array([], type=pa.string()),
                             "quartile": pa.array([], type=pa.int64()),
                             "h": pa.array([], type=pa.int64())})
        # quartile assignment: within source by (n_chars, doc_id)
        part = part.sort_by([("source", "ascending"),
                             ("n_chars", "ascending"),
                             ("doc_id", "ascending")])
        n = part.num_rows
        starts = run_starts(part, ["source"])
        lens = np.diff(np.append(starts, n))
        i = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
        ln = np.repeat(lens, lens)
        size = ln // 4
        rem = ln % 4
        cut = rem * (size + 1)
        big = i < cut
        tile = np.where(big, i // np.maximum(size + 1, 1),
                        rem + (i - cut) // np.maximum(size, 1)) + 1
        part = part.append_column("quartile",
                                  pa.array(tile, type=pa.int64()))
        # per-(source, quartile) rank by (h, doc_id), keep the k smallest
        part = part.sort_by([("source", "ascending"),
                             ("quartile", "ascending"),
                             ("h", "ascending"), ("doc_id", "ascending")])
        starts2 = run_starts(part, ["source", "quartile"])
        lens2 = np.diff(np.append(starts2, n))
        rank = np.arange(n, dtype=np.int64) - np.repeat(starts2, lens2)
        sel = part.filter(pa.array(rank < k_per_stratum))
        return pa.table({"doc_id": sel.column("doc_id"),
                         "source": sel.column("source"),
                         "quartile": sel.column("quartile"),
                         "h": sel.column("h")})

    return partition_apply(hashed, ["source"], kernel,
                           num_partitions=num_partitions)


# ---------------------------------------------------------------- P7 ----
def p7_curriculum_order(sf_dir: str, n_stages: int = 3,
                        num_partitions: int = 16):
    """P7 — curriculum ordering (Bengio et al. 2009): every document
    gets its global rank under (quality_score desc, doc_id asc) — the
    easy-/clean-first training order — plus a curriculum stage
    (``n_stages`` contiguous rank bands).  The third distributed-rank
    sibling of P3's offset scan and Q6's shuffle rank, this time keyed
    on a FLOAT score: the score is quantized to exact int micro-units
    (the pinned float is itself reproducible, so its quantization is
    too), the bounded (score_q -> count) histogram gives driver base
    offsets, and a per-bucket doc_id rank completes the global rank
    with ONE ``_pkey`` exchange.

    Exactness: score_q = floor(score * 2^20 + 0.5) over the pinned
    quality score; ranks and stages are exact ints (stage = the W19
    ntile sizing over the total count)."""
    import ray.data

    from anomalydetection_ray.pipelines.text import quality_batch
    from anomalydetection_ray.stages.runs import partition_apply, run_starts

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def score(batch: pa.Table) -> pa.Table:
        q = quality_batch(batch)
        s = np.asarray(q.column("quality_score"), dtype=np.float64)
        sq = np.floor(s * 1_048_576.0 + 0.5).astype(np.int64)
        return pa.table({"doc_id": batch.column("doc_id"),
                         "score_q": pa.array(sq, type=pa.int64())})

    scored = ds.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()

    def hist(batch: pa.Table) -> pa.Table:
        t = pa.table({"score_q": batch.column("score_q"),
                      "one": pa.array(np.ones(batch.num_rows,
                                              dtype=np.int64))})
        g = t.group_by(["score_q"]).aggregate([("one", "sum")])
        return pa.table({"score_q": g.column("score_q"),
                         "docs": g.column("one_sum").cast(pa.int64())})

    h = (scored.map_batches(hist, batch_format="pyarrow",
                            zero_copy_batch=True)
         .groupby("score_q").sum("docs").take_all())
    # descending score order: base[s] = docs with score_q > s
    buckets = sorted(((int(r["score_q"]), int(r["sum(docs)"]))
                      for r in h), reverse=True)
    base: dict[int, int] = {}
    acc = 0
    for sq, cnt in buckets:
        base[sq] = acc
        acc += cnt
    total = acc

    def stage_of(rank: np.ndarray) -> np.ndarray:
        # W19 ntile sizing over the total: first total%k stages get
        # total//k + 1 ranks
        size = total // n_stages
        rem = total % n_stages
        cut = rem * (size + 1)
        big = rank < cut
        return np.where(big, rank // max(size + 1, 1),
                        rem + (rank - cut) // max(size, 1)) + 1

    def rank_kernel(group: pa.Table) -> pa.Table:
        group = group.sort_by(
            [("score_q", "descending"), ("doc_id", "ascending")])
        n = group.num_rows
        if n == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "score_q": pa.array([], type=pa.int64()),
                             "cur_rank": pa.array([], type=pa.int64()),
                             "stage": pa.array([], type=pa.int64())})
        sq = np.asarray(group.column("score_q"), dtype=np.int64)
        starts = run_starts(group, ["score_q"])
        lens = np.diff(np.append(starts, n))
        local = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
        base_arr = np.asarray([base[int(v)] for v in sq[starts].tolist()],
                              dtype=np.int64)
        rank = np.repeat(base_arr, lens) + local
        return pa.table({
            "doc_id": group.column("doc_id"),
            "score_q": pa.array(sq, type=pa.int64()),
            "cur_rank": pa.array(rank, type=pa.int64()),
            "stage": pa.array(stage_of(rank), type=pa.int64()),
        })

    return partition_apply(scored, ["score_q"], rank_kernel, num_partitions)


# ---------------------------------------------------------------- Q18 ----
def q18_negative_samples(sf_dir: str, k: int = 4,
                         num_partitions: int = 32):
    """Q18 — deterministic negative sampling for contrastive training:
    every anchor document (doc_id % 50 == 0) draws ``k`` pseudo-random
    negatives from the corpus id space via a seeded mix of (anchor, j)
    — layout-independent, resumable, and collision-free with the
    anchor by a +1 wrap.  Each negative ships its n_chars payload so
    the pair generator downstream can length-match.

    Scale shape: anchors filter map-side; negatives are PURE ARITHMETIC
    (no sampling shuffle); the only exchange is the co-partitioned
    payload attach on neg_id (J3's machinery).  Oracle: the same mix
    replayed in HUGEINT + a join."""
    import ray.data

    from anomalydetection_ray.stages.join import copartition_attach

    path = f"{sf_dir}/documents.parquet"
    import pyarrow.parquet as pq

    n_docs = int(pq.ParquetFile(path).metadata.num_rows)

    docs = ray.data.read_parquet(path, columns=["doc_id"])

    def gen(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        anchors = ids[ids % 50 == 0]
        na = anchors.shape[0]
        a = np.repeat(anchors, k)
        j = np.tile(np.arange(1, k + 1, dtype=np.int64), na)
        h = ((a.astype(np.uint64) * np.uint64(2654435761))
             ^ (j.astype(np.uint64) * np.uint64(40503))) \
            & np.uint64(0xFFFFFFFF)
        neg = (h % np.uint64(n_docs)).astype(np.int64)
        coll = neg == a
        neg = np.where(coll, (neg + 1) % n_docs, neg)
        return pa.table({
            "anchor_id": pa.array(a, type=pa.int64()),
            "j": pa.array(j, type=pa.int64()),
            "neg_id": pa.array(neg, type=pa.int64()),
        })

    pairs = docs.map_batches(gen, batch_format="pyarrow",
                             zero_copy_batch=True)
    payload = ray.data.read_parquet(path, columns=["doc_id", "n_chars"])
    with_chars = copartition_attach(pairs, payload, "neg_id", "doc_id",
                                    ["n_chars"],
                                    num_partitions=num_partitions)

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "anchor_id": batch.column("anchor_id").cast(pa.int64()),
            "j": batch.column("j").cast(pa.int64()),
            "neg_id": batch.column("neg_id").cast(pa.int64()),
            "neg_chars": batch.column("n_chars").cast(pa.int64()),
        })

    return with_chars.map_batches(finish, batch_format="pyarrow",
                                  zero_copy_batch=True)


# ---------------------------------------------------------------- Q19 ----
def q19_mixture_sweep(sf_dir: str, k_total: int = 200,
                      alphas: tuple = (3, 5, 7)):
    """Q19 — mixture-temperature sensitivity sweep: Q13's n^alpha
    quota rule evaluated at alpha = 0.3 / 0.5 / 0.7 (the range the
    multilingual-sampling literature actually debates) — the table a
    data-mixture owner reads to pick a temperature, showing how many
    docs each source would contribute at each setting.

    Exactness: counts exact ints; w = pow(n, alpha) is one libm pow
    per (source, alpha); the normalizer folds in source order per
    alpha (G15 discipline); quota = floor(k * w / W) pinned.  Driver
    math over the bounded source domain only."""
    import math

    import ray.data

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "source"])

    def count_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("source").aggregate([([], "count_all")])
        return pa.table({"source": g.column("source"),
                         "n": g.column("count_all").cast(pa.int64())})

    counts = (docs.map_batches(count_partial, batch_format="pyarrow",
                               zero_copy_batch=True)
              .groupby("source").sum("n").take_all())
    per = sorted((r["source"], int(r["sum(n)"])) for r in counts)

    srcs, a10s, ns, ws, qs = [], [], [], [], []
    for a10 in alphas:
        alpha = float(a10) / 10.0
        wgt = {s: math.pow(float(n), alpha) for s, n in per}
        total_w = 0.0
        for s, _ in per:                  # pinned fold in source order
            total_w = total_w + wgt[s]
        for s, n in per:
            srcs.append(s)
            a10s.append(a10)
            ns.append(n)
            ws.append(wgt[s])
            qs.append(int(math.floor((float(k_total) * wgt[s])
                                     / total_w)))
    return ray.data.from_arrow(pa.table({
        "source": pa.array(srcs, type=pa.string()),
        "alpha_x10": pa.array(a10s, type=pa.int64()),
        "n_docs": pa.array(ns, type=pa.int64()),
        "weight": pa.array(ws, type=pa.float64()),
        "quota": pa.array(qs, type=pa.int64()),
    }))


# ---------------------------------------------------------------- Q21 ----
def q21_sampling_error(sf_dir: str, k_sys: int = 10, hash_mod: int = 20,
                       num_partitions: int = 16):
    """Q21 — sampling-design ERROR audit (evaluation family #4): the
    corpus mean of n_chars estimated by (a) Q10's systematic
    every-k-th-in-shuffled-order sample and (b) a Q7-style seeded
    hash-membership sample, both scored against the exact full-corpus
    mean — the estimator-quality check a sampling pipeline owes its
    users before anyone trusts a 1% sample to calibrate a 100% decision.

    Exactness: all three sums/counts are exact ints; the three means
    and two absolute errors are pinned float ops.

    Scale shape: the systematic path inherits Q6's distributed rank +
    one co-partitioned n_chars attach; the hash path and the truth are
    map-only partial sums.  Output is ONE row."""
    import ray.data

    from anomalydetection_ray.pipelines.queries import QUOTA_SEED_MIX
    from anomalydetection_ray.stages.join import copartition_attach

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "n_chars"])

    def sums(ds, col: str):
        def partial(batch: pa.Table) -> pa.Table:
            v = np.asarray(batch.column(col), dtype=np.int64)
            return pa.table({"s": pa.array([int(v.sum())],
                                           type=pa.int64()),
                             "n": pa.array([len(v)], type=pa.int64())})

        rows = ds.map_batches(partial,
                              batch_format="pyarrow").take_all()
        return (sum(int(r["s"]) for r in rows),
                sum(int(r["n"]) for r in rows))

    s_true, n_true = sums(docs, "n_chars")

    # systematic: every k-th under the seeded shuffle order
    sampled = q10_systematic_sample(sf_dir, k=k_sys,
                                    num_partitions=num_partitions)
    with_chars = copartition_attach(sampled, docs, "doc_id", "doc_id",
                                    ["n_chars"],
                                    num_partitions=num_partitions)
    s_sys, n_sys = sums(with_chars, "n_chars")

    # seeded hash membership (Q7's mix), keep h % hash_mod == 0
    def hash_keep(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.uint64)
        h = (((ids & np.uint64(0xFFFFFFFF)) ^ np.uint64(QUOTA_SEED_MIX))
             * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)
        return batch.filter(pa.array(h % np.uint64(hash_mod) == 0))

    s_hash, n_hash = sums(
        docs.map_batches(hash_keep, batch_format="pyarrow",
                         zero_copy_batch=True), "n_chars")

    mean_true = float(s_true) / float(n_true)
    mean_sys = float(s_sys) / float(n_sys)
    mean_hash = float(s_hash) / float(n_hash)
    return ray.data.from_arrow(pa.table({
        "n_total": pa.array([n_true], type=pa.int64()),
        "mean_true": pa.array([mean_true], type=pa.float64()),
        "n_sys": pa.array([n_sys], type=pa.int64()),
        "mean_sys": pa.array([mean_sys], type=pa.float64()),
        "err_sys": pa.array([abs(mean_sys - mean_true)],
                            type=pa.float64()),
        "n_hash": pa.array([n_hash], type=pa.int64()),
        "mean_hash": pa.array([mean_hash], type=pa.float64()),
        "err_hash": pa.array([abs(mean_hash - mean_true)],
                             type=pa.float64()),
    }))


# ---------------------------------------------------------------- P8 ----
def p8_epoch_decorrelation(sf_dir: str, seed_a: int = 42,
                           seed_b: int = 7, num_partitions: int = 16):
    """P8 — inter-epoch shuffle DECORRELATION audit: the mean absolute
    rank displacement between two epochs' seeded global orders (Q6 with
    different seeds), against the uniform-permutation expectation
    (N^2-1)/(3N) — a ratio near 1 certifies that changing the seed
    genuinely re-permutes the corpus (an affine-in-id hash would score
    near 0 and silently feed every epoch in near-identical order, the
    classic quiet training bug).

    Exactness: both ranks are Q6's exact distributed ranks; the
    displacement sum is an exact int; mean, expectation and ratio are
    pinned float ops.

    Scale shape: two Q6 rank passes + ONE co-partitioned join on
    doc_id, per-block partial |delta| sums, ONE-row output."""
    import ray.data

    from anomalydetection_ray.stages.join import copartition_attach

    ra = seeded_shuffle(sf_dir, seed=seed_a,
                        num_partitions=num_partitions)
    rb = seeded_shuffle(sf_dir, seed=seed_b,
                        num_partitions=num_partitions)

    rb2 = rb.map_batches(
        lambda b: pa.table({"doc_id": b.column("doc_id"),
                            "pos_b": b.column("shuffle_pos")}),
        batch_format="pyarrow", zero_copy_batch=True)
    joined = copartition_attach(ra, rb2, "doc_id", "doc_id",
                                ["pos_b"],
                                num_partitions=num_partitions)

    def partial(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column("shuffle_pos"), dtype=np.int64)
        b = np.asarray(batch.column("pos_b"), dtype=np.int64)
        d = np.abs(a - b)
        return pa.table({"s": pa.array([int(d.sum())], type=pa.int64()),
                         "n": pa.array([len(d)], type=pa.int64())})

    rows = joined.map_batches(partial,
                              batch_format="pyarrow").take_all()
    s = sum(int(r["s"]) for r in rows)
    n = sum(int(r["n"]) for r in rows)
    mean_d = float(s) / float(n)
    expected = float(n * n - 1) / float(3 * n)
    return ray.data.from_arrow(pa.table({
        "n": pa.array([n], type=pa.int64()),
        "sum_abs_delta": pa.array([s], type=pa.int64()),
        "mean_abs_delta": pa.array([mean_d], type=pa.float64()),
        "expected_uniform": pa.array([expected], type=pa.float64()),
        "decorrelation": pa.array([mean_d / expected],
                                  type=pa.float64()),
    }))


# ---------------------------------------------------------------- P9 ----
P9_BUCKETS = (128, 256, 512, 1024)


def p9_padding_waste(sf_dir: str):
    """P9 — padding-waste audit: for each candidate context size b, the
    exact token waste if every sequence part is padded to the next
    multiple of b (the no-packing baseline every packing strategy is
    judged against — P3's packed layout saves exactly this waste).
    waste_frac ~0.5 at b >> typical length is the "you are training on
    pad tokens" alarm.

    Exactness: padded = ceil(n/b)*b per part, all exact int64; the one
    float is the pinned waste/padded division per bucket.

    Scale shape: map-only per-block partials (4 rows per block), ONE
    exchange on the 4-row bucket domain."""
    from ray.data.aggregate import Sum

    from anomalydetection_ray.pipelines.rollup import validated
    from anomalydetection_ray.sources.tokenize import docs_sequences

    ds = validated(docs_sequences(sf_dir))

    def partial(batch: pa.Table) -> pa.Table:
        tokens = batch.column("tokens")
        if isinstance(tokens, pa.ChunkedArray):
            tokens = tokens.combine_chunks()
        offsets = np.asarray(tokens.offsets, dtype=np.int64)
        lens = np.diff(offsets)
        rows = {"bucket": [], "n_docs": [], "total_tokens": [],
                "total_padded": []}
        for b in P9_BUCKETS:
            padded = ((lens + b - 1) // b) * b
            rows["bucket"].append(b)
            rows["n_docs"].append(len(lens))
            rows["total_tokens"].append(int(lens.sum()))
            rows["total_padded"].append(int(padded.sum()))
        return pa.table({
            "bucket": pa.array(rows["bucket"], type=pa.int64()),
            "n_docs": pa.array(rows["n_docs"], type=pa.int64()),
            "total_tokens": pa.array(rows["total_tokens"],
                                     type=pa.int64()),
            "total_padded": pa.array(rows["total_padded"],
                                     type=pa.int64()),
        })

    agg = (ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("bucket")
           .aggregate(Sum("n_docs", alias_name="n_docs"),
                      Sum("total_tokens", alias_name="total_tokens"),
                      Sum("total_padded", alias_name="total_padded")))

    def finalize(batch: pa.Table) -> pa.Table:
        tot = np.asarray(batch.column("total_tokens").cast(pa.int64()),
                         dtype=np.int64)
        pad = np.asarray(batch.column("total_padded").cast(pa.int64()),
                         dtype=np.int64)
        waste = pad - tot
        frac = np.zeros(len(pad), dtype=np.float64)
        np.divide(waste.astype(np.float64), pad.astype(np.float64),
                  out=frac, where=pad > 0)
        return pa.table({
            "bucket": batch.column("bucket").cast(pa.int64()),
            "n_docs": batch.column("n_docs").cast(pa.int64()),
            "total_tokens": pa.array(tot, type=pa.int64()),
            "total_padded": pa.array(pad, type=pa.int64()),
            "waste": pa.array(waste, type=pa.int64()),
            "waste_frac": pa.array(frac, type=pa.float64(),
                                   mask=pad == 0),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")
