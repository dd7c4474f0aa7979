"""Deduplication operators (driver round-1 extras; D1 family).

- exact_dedup:        content-hash partition + per-group min(doc_id)
- minhash_lsh_pairs:  char-shingle MinHash signatures -> banded LSH
                      buckets (groupby) -> candidate pairs + estimated
                      Jaccard from full-signature agreement
- simhash_pairs:      64-bit SimHash over word features, pigeonhole
                      banding (4 x 16 bits) -> candidates -> exact
                      Hamming distance filter
- ngram_jaccard_pairs: exact word-3-gram Jaccard verification of the
                      MinHash candidates (broadcast small doc-set at test
                      scale; the 100 TB path co-partitions texts by doc_id
                      and joins candidates to shards — documented)
- embedding_dup_pairs: cosine near-duplicate pairs over the embeddings
                      table via a broadcast normalized matrix

Everything is seeded/deterministic (seed constants below, no wall-clock,
no python hash()).
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

_SHINGLE_K = 5  # char shingles
_NUM_PERM = 64
_BANDS = 8
_ROWS_PER_BAND = _NUM_PERM // _BANDS
_SEED = 42

# deterministic 64 x (a, b) permutation parameters: x -> a*x + b mod 2^64
# with a odd is a bijection on uint64 (multiply-shift family) — exactly the
# consistent pseudo-random ordering MinHash needs, with no modulo in the
# hot loop (integer division was the dominant cost of a prime-field mod)
_MERSENNE = (1 << 61) - 1
_rng = np.random.default_rng(_SEED)
_PERM_A = _rng.integers(1, _MERSENNE, _NUM_PERM, dtype=np.int64).astype(np.uint64) | np.uint64(1)
_PERM_B = _rng.integers(0, _MERSENNE, _NUM_PERM, dtype=np.int64).astype(np.uint64)


_SHINGLE_MULT = np.uint64(1099511628211)  # FNV-ish odd multiplier


def _shingle_stencil(flat: np.ndarray) -> np.ndarray:
    """Vectorized k-byte shingle hashes over a flat byte buffer: h[i]
    combines bytes i..i+k-1 with a polynomial in a 64-bit ring (one C
    pass per window position — no per-shingle Python; a crc32-per-window
    loop measured ~100x slower)."""
    n = flat.shape[0]
    if n < _SHINGLE_K:
        return np.empty(0, dtype=np.uint64)
    acc = np.zeros(n - _SHINGLE_K + 1, dtype=np.uint64)
    for k in range(_SHINGLE_K):
        acc = acc * _SHINGLE_MULT + flat[k : k + acc.shape[0]].astype(np.uint64)
    # finalizer spreads low-byte-only differences across the word
    acc ^= acc >> np.uint64(33)
    acc *= np.uint64(0xFF51AFD7ED558CCD)
    acc ^= acc >> np.uint64(33)
    return acc


def minhash_signature(text: str) -> np.ndarray:
    """_NUM_PERM x uint64 MinHash signature over char shingles (scalar
    helper; `signatures_batch` is the vectorized batch path)."""
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    sh = _shingle_stencil(b)
    if sh.shape[0] == 0:
        sh = np.array([zlib.crc32(b.tobytes())], dtype=np.uint64)
    vals = _PERM_A[:, None] * sh[None, :] + _PERM_B[:, None]
    return vals.min(axis=1)


def signatures_batch(batch: pa.Table) -> pa.Table:
    """Batch MinHash: shingle-hash the batch's whole flat string buffer
    once, then for each permutation take the per-row segmented min with
    ``np.minimum.reduceat`` — duplicate shingles cannot change a min, so
    no per-row unique is needed.  No per-doc Python in the hot path."""
    from anomalydetection_ray.pipelines.text import _flat_utf8

    flat, offsets = _flat_utf8(batch)
    nrows = offsets.shape[0] - 1
    sh_all = _shingle_stencil(flat)
    lens = np.diff(offsets)
    out_lens = np.maximum(lens - (_SHINGLE_K - 1), 0)
    sig = np.empty((nrows, _NUM_PERM), dtype=np.uint64)
    ok = out_lens > 0
    starts = offsets[:-1][ok]
    if starts.shape[0]:
        # rows shorter than k contribute no windows; windows of row r span
        # [offsets[r], offsets[r] + out_lens[r]) in stencil coordinates,
        # but the stencil array is dense over the flat buffer, so segments
        # of consecutive rows overlap the (k-1)-byte row boundary — gather
        # the exact per-row ranges instead of reduceat over raw offsets
        total = int(out_lens[ok].sum())
        reps = out_lens[ok]
        idx = np.repeat(starts, reps) + (
            np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(reps) - reps, reps)
        )
        row_sh = sh_all[idx]
        seg_starts = np.concatenate(([0], np.cumsum(reps)[:-1]))
        for p in range(_NUM_PERM):
            vals = _PERM_A[p] * row_sh + _PERM_B[p]
            sig[ok, p] = np.minimum.reduceat(vals, seg_starts)
    # rows with no shingle window: hash the whole (short) content
    for r in np.flatnonzero(~ok):
        b = flat[offsets[r] : offsets[r + 1]].tobytes()
        x = np.uint64(zlib.crc32(b))
        sig[r] = _PERM_A * x + _PERM_B
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "signature": pa.array(list(sig), type=pa.list_(pa.uint64(), _NUM_PERM)),
        }
    )


def band_rows_batch(batch: pa.Table) -> pa.Table:
    """signature rows -> one row per (doc, band), fully vectorized.

    The LSH bucket key is a 64-bit polynomial hash of the band's signature
    slice (one (n, bands) numpy pass — no per-row Python), and the band
    rows carry ONLY (doc_id, band, bucket): shipping the full 64x-u64
    signature in every one of the 8 band rows would 8x the shuffle's
    largest column.  Signatures are re-attached to the (far fewer) unique
    candidate pairs afterwards (`minhash_lsh_pairs`)."""
    doc_id = batch.column("doc_id")
    if isinstance(doc_id, pa.ChunkedArray):
        doc_id = doc_id.combine_chunks()
    sig_col = batch.column("signature")
    if isinstance(sig_col, pa.ChunkedArray):
        sig_col = sig_col.combine_chunks()
    n = batch.num_rows
    sigs = np.asarray(sig_col.values, dtype=np.uint64).reshape(n, _BANDS, _ROWS_PER_BAND)
    acc = np.zeros((n, _BANDS), dtype=np.uint64)
    for k in range(_ROWS_PER_BAND):
        acc = acc * _SH_C + sigs[:, :, k]
    bucket = _mix64(acc).astype(np.int64).ravel()
    take = pa.array(np.repeat(np.arange(n, dtype=np.int64), _BANDS))
    bands = np.tile(np.arange(_BANDS, dtype=np.int32), n)
    return pa.table(
        {
            "doc_id": doc_id.take(take),
            "band": pa.array(bands, type=pa.int32()),
            "bucket": pa.array(bucket, type=pa.int64()),
        }
    )


def bucket_candidates(group: pa.Table) -> pa.Table:
    """One LSH bucket -> raw candidate (doc_a, doc_b) pairs (no payload);
    memory-tiled like `bucket_pairs`."""
    n = group.num_rows
    empty = pa.table({"doc_a": pa.array([], type=group.column("doc_id").type),
                      "doc_b": pa.array([], type=group.column("doc_id").type)})
    if n < 2:
        return empty
    docs = group.column("doc_id")
    if isinstance(docs, pa.ChunkedArray):
        docs = docs.combine_chunks()
    docs = docs.take(pa.compute.sort_indices(docs))
    parts = []
    for ii, jj in iter_pair_tiles(n):
        keep = np.asarray(pa.compute.not_equal(docs.take(pa.array(ii)), docs.take(pa.array(jj))))
        ii, jj = ii[keep], jj[keep]
        if ii.shape[0]:
            parts.append(pa.table({"doc_a": docs.take(pa.array(ii)),
                                   "doc_b": docs.take(pa.array(jj))}))
    return pa.concat_tables(parts) if parts else empty


def attach_payload(pairs_ds, docs_ds, pair_col: str, payload_col: str,
                   out_col: str, num_partitions: int = 32):
    """Co-partitioned lookup join: attach ``docs_ds[payload_col]`` (keyed
    by ``doc_id``) to ``pairs_ds`` rows via their ``pair_col`` — the
    100-TB replacement for driver-side broadcast dicts.  Thin wrapper over
    the general J3 operator (stages/join.py) that renames the payload so
    the same column can be attached twice (sig_a / sig_b)."""
    from anomalydetection_ray.stages.join import copartition_attach

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column("doc_id"),
                         out_col: batch.column(payload_col)})

    docs_renamed = docs_ds.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)
    return copartition_attach(pairs_ds, docs_renamed, left_on=pair_col,
                              right_on="doc_id", payload_cols=[out_col],
                              num_partitions=num_partitions)


_PAIR_TILE = 4_000_000  # max i<j pairs materialized per tile (bounds memory)


def iter_pair_tiles(n: int, max_pairs: int = _PAIR_TILE):
    """Yield (ii, jj) index chunks covering every i<j pair of ``range(n)``
    with at most ~max_pairs pairs per chunk.  A hot LSH bucket of ~20k
    near-identical docs has ~2e8 pairs; enumerating them all at once (e.g.
    np.triu_indices) costs tens of GB of transient arrays in one task —
    tiling keeps peak memory O(max_pairs) while the total work is the same."""
    rows_per_tile = max(1, max_pairs // max(n - 1, 1))
    for a in range(0, max(n - 1, 0), rows_per_tile):
        b = min(a + rows_per_tile, n - 1)
        lens = n - 1 - np.arange(a, b, dtype=np.int64)
        ii = np.repeat(np.arange(a, b, dtype=np.int64), lens)
        total = int(lens.sum())
        jj = (np.arange(total, dtype=np.int64)
              - np.repeat(np.cumsum(lens) - lens, lens)) + ii + 1
        yield ii, jj




def _docs(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])


# ------------------------------------------------ exact content hash ----
# 2x64-bit byte-level polynomial content hash — the D1/C1/C4 exact-dedup
# key.  h_j(doc) = sum_i byte_i * C_j^(L-1-i) mod 2^64 with ODD 32-BIT
# constants C_j: 32-bit so the SQL oracle's recursive power CTE multiplies
# HUGEINT x 32-bit without overflow (the repo-wide mod-2^64 discipline),
# odd so C^-1 exists mod 2^64 and the engine can evaluate it segment-wise
# over the flat utf-8 buffer — (sum b_i C^-i) * C^(L-1), one cumsum, no
# per-row Python (replaces the round-3 per-row hashlib.md5 loop).  Two
# independent 64-bit hashes = 128 bits: collision-free in practice at
# 10^9+ docs.
_CH_C1 = np.uint64(0x85EBCA6B)
_CH_C2 = np.uint64(0xC2B2AE35)
_CH_C1INV = np.uint64(pow(0x85EBCA6B, -1, 1 << 64))
_CH_C2INV = np.uint64(pow(0xC2B2AE35, -1, 1 << 64))


def content_hash128(flat: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h1, h2) int64 views of the two 64-bit polynomial content hashes,
    one pair per row of the flat utf-8 buffer.  Empty rows hash to 0."""
    nrows = offsets.shape[0] - 1
    out = [np.zeros(nrows, dtype=np.uint64), np.zeros(nrows, dtype=np.uint64)]
    n = int(offsets[-1]) if nrows >= 0 and offsets.shape[0] else 0
    if n > 0:
        lens = np.diff(offsets)
        nz = lens > 0
        maxlen = int(lens.max())
        i_local = (np.arange(n, dtype=np.int64)
                   - np.repeat(offsets[:-1], lens))
        b = flat.astype(np.uint64)
        ends = offsets[1:]
        starts = offsets[:-1]
        for j, (C, Cinv) in enumerate(((_CH_C1, _CH_C1INV),
                                       (_CH_C2, _CH_C2INV))):
            P = np.empty(maxlen, dtype=np.uint64)
            P[0] = 1
            if maxlen > 1:
                np.cumprod(np.full(maxlen - 1, C, dtype=np.uint64),
                           out=P[1:])
            Pinv = np.empty(maxlen, dtype=np.uint64)
            Pinv[0] = 1
            if maxlen > 1:
                np.cumprod(np.full(maxlen - 1, Cinv, dtype=np.uint64),
                           out=Pinv[1:])
            S = np.cumsum(b * Pinv[i_local], dtype=np.uint64)
            seg = S[np.maximum(ends - 1, 0)] \
                - np.where(starts > 0, S[np.maximum(starts - 1, 0)],
                           np.uint64(0))
            out[j][nz] = (seg * P[np.maximum(lens - 1, 0)])[nz]
    return out[0].view(np.int64), out[1].view(np.int64)


def content_hash_cols(batch: pa.Table, col: str = "text") -> tuple[pa.Array, pa.Array]:
    """(h1, h2) as Arrow int64 arrays for a string column."""
    from anomalydetection_ray.pipelines.text import _flat_utf8

    flat, offsets = _flat_utf8(batch, col)
    h1, h2 = content_hash128(flat, offsets)
    return pa.array(h1, type=pa.int64()), pa.array(h2, type=pa.int64())


def exact_dedup(sf_dir: str):
    """Exact content dedup: 128-bit content-hash groups, keep min(doc_id).
    The hash pass is the vectorized :func:`content_hash128` flat-buffer
    kernel; the grouped-first is the partition-granular ``keep_first_by``
    exchange — zero per-row / per-group Python anywhere in the scan."""

    def hash_batch(batch: pa.Table) -> pa.Table:
        h1, h2 = content_hash_cols(batch)
        return pa.table({"h1": h1, "h2": h2,
                         "doc_id": batch.column("doc_id")})

    from anomalydetection_ray.stages.runs import keep_first_by

    hashed = _docs(sf_dir).map_batches(hash_batch, batch_format="pyarrow", zero_copy_batch=True)
    # vectorized grouped-first: hash exchange + per-block run select (no
    # per-group Python; stages/runs.py)
    return keep_first_by(hashed, keys=["h1", "h2"], order_by=["doc_id"])


def minhash_lsh_pairs(sf_dir: str, min_est: float = 0.5):
    """Candidate near-duplicate pairs via MinHash + banded LSH.

    Scale shape: the banding shuffle moves only (doc_id, band, bucket)
    rows (never the 64x-u64 signatures); buckets emit raw candidate
    pairs; pairs are deduped FIRST; then the full signatures are attached
    to the surviving unique pairs with two co-partitioned lookup joins
    (`attach_payload`) and the Jaccard estimate is computed vectorized.
    Signature bytes therefore cross the wire once per doc + twice per
    unique candidate pair — not 8x per doc."""
    sigs = _docs(sf_dir).map_batches(signatures_batch, batch_format="pyarrow", zero_copy_batch=True)
    bands = sigs.map_batches(band_rows_batch, batch_format="pyarrow")
    cands = bands.groupby(["band", "bucket"]).map_groups(bucket_candidates, batch_format="pyarrow")

    from anomalydetection_ray.stages.runs import keep_first_by

    uniq = keep_first_by(cands, keys=["doc_a", "doc_b"])
    with_a = attach_payload(uniq, sigs, "doc_a", "signature", "_sig_a")
    with_ab = attach_payload(with_a, sigs, "doc_b", "signature", "_sig_b")

    def estimate(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        out_t = pa.table({"doc_a": pa.array([], type=batch.column("doc_a").type),
                          "doc_b": pa.array([], type=batch.column("doc_b").type),
                          "est_jaccard": pa.array([], type=pa.float64())})
        if n == 0:
            return out_t
        sa = batch.column("_sig_a")
        sb = batch.column("_sig_b")
        if isinstance(sa, pa.ChunkedArray):
            sa = sa.combine_chunks()
        if isinstance(sb, pa.ChunkedArray):
            sb = sb.combine_chunks()
        a = np.asarray(sa.values, dtype=np.uint64).reshape(n, _NUM_PERM)
        b = np.asarray(sb.values, dtype=np.uint64).reshape(n, _NUM_PERM)
        est = (a == b).sum(axis=1) / np.float64(_NUM_PERM)
        keep = est >= min_est
        kidx = pa.array(np.flatnonzero(keep))
        return pa.table({"doc_a": batch.column("doc_a").take(kidx),
                         "doc_b": batch.column("doc_b").take(kidx),
                         "est_jaccard": pa.array(est[keep], type=pa.float64())})

    return with_ab.map_batches(estimate, batch_format="pyarrow", zero_copy_batch=True)


# ------------------------------------------------------------ simhash ----
# word-char classes on lowercased ASCII bytes (multi-byte UTF-8 treated as
# word bytes); polynomial word hash in the odd-multiplier uint64 ring:
# h(word) = sum(byte_i * C^(last-i)) computed segment-wise over the flat
# buffer as (sum byte_i * C^-i) * C^last — C odd => C^-1 exists mod 2^64,
# so both power tables are plain cumprods and every word hash falls out of
# one add.reduceat.  No per-word Python.
_SH_C = np.uint64(0x9E3779B97F4A7C15 | 1)
_SH_CINV = np.uint64(pow(0x9E3779B97F4A7C15 | 1, -1, 1 << 64))
_LOWER = np.arange(256, dtype=np.uint8)
_LOWER[65:91] += 32
_IS_WORDB = np.zeros(256, dtype=bool)
_IS_WORDB[48:58] = _IS_WORDB[97:123] = True  # digits + lowercase alpha
_IS_WORDB[ord("_")] = True
_IS_WORDB[0x80:] = True  # multi-byte UTF-8 bytes count as word bytes
_BIT_K = np.arange(64, dtype=np.uint64)
# byte popcount LUT (numpy 1.26 has no bitwise_count)
_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def _mix64(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
    x = (x ^ (x >> np.uint64(33))) * np.uint64(0xC4CEB9FE1A85EC53)
    return x ^ (x >> np.uint64(33))


def word_hashes(flat: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hash per word, doc index per word) for the lowercased word runs of
    a flat utf-8 buffer — the shared vectorized tokenizer of simhash and
    lang-id.  Word hash = segment-wise invertible polynomial + murmur mix."""
    n = flat.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    low = _LOWER[flat]
    wm = _IS_WORDB[low]
    # word-run starts/ends, row-boundary aware
    start = np.empty(n, dtype=bool)
    start[0] = wm[0]
    start[1:] = wm[1:] & ~wm[:-1]
    rs = offsets[:-1][offsets[:-1] < n]
    start[rs] = wm[rs]
    end = np.empty(n, dtype=bool)
    end[-1] = wm[-1]
    end[:-1] = wm[:-1] & ~wm[1:]
    re_ = offsets[1:][offsets[1:] < n] - 1
    re_ = re_[re_ >= 0]
    end[re_] = wm[re_]
    wstarts = np.flatnonzero(start)
    wlast = np.flatnonzero(end)
    if wstarts.shape[0] == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    # power tables: P[i] = C^i, Pinv[i] = C^-i  (odd C -> exact inverses)
    P = np.empty(n, dtype=np.uint64)
    P[0] = 1
    np.cumprod(np.full(n - 1, _SH_C, dtype=np.uint64), out=P[1:])
    Pinv = np.empty(n, dtype=np.uint64)
    Pinv[0] = 1
    np.cumprod(np.full(n - 1, _SH_CINV, dtype=np.uint64), out=Pinv[1:])
    widx = np.flatnonzero(wm)
    seg = np.flatnonzero(start[widx])
    S = np.add.reduceat(low[widx].astype(np.uint64) * Pinv[widx], seg)
    hwords = _mix64(S * P[wlast])
    doc_of = np.searchsorted(offsets, wstarts, side="right") - 1
    return hwords, doc_of


def simhash_batch_values(flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """64-bit SimHash per row of a flat utf-8 buffer, fully vectorized."""
    nrows = offsets.shape[0] - 1
    out = np.zeros(nrows, dtype=np.uint64)
    hwords, doc_of = word_hashes(flat, offsets)
    nwords_total = hwords.shape[0]
    if nwords_total == 0:
        return out
    dseg = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.flatnonzero(doc_of[1:] != doc_of[:-1]) + 1)
    )
    docs = doc_of[dseg]
    nw = np.diff(np.concatenate((dseg, np.array([nwords_total], dtype=np.int64))))
    # majority vote per bit: set bit k where 2 * popcount_k > nwords
    # (ties -> 0, matching the classic acc > 0 rule); 64 reduceats over
    # the word-level bit arrays
    sim = np.zeros(docs.shape[0], dtype=np.uint64)
    for k in range(64):
        bitk = (hwords >> np.uint64(k)) & np.uint64(1)
        hits = np.add.reduceat(bitk, dseg)
        sim |= ((2 * hits > nw.astype(np.uint64)).astype(np.uint64)) << np.uint64(k)
    out[docs] = sim
    return out


def simhash64(text: str) -> int:
    """Scalar wrapper over the vectorized batch path (identical output)."""
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    return int(simhash_batch_values(b, np.array([0, b.shape[0]], dtype=np.int64))[0])


def simhash_pairs(sf_dir: str, max_hamming: int = 3):
    """Near-dup pairs by SimHash: pigeonhole banding (4 x 16 bits) ->
    exact Hamming verify (<= max_hamming with 4 bands guarantees recall
    for distance <= 3)."""

    def sh_batch(batch: pa.Table) -> pa.Table:
        from anomalydetection_ray.pipelines.text import _flat_utf8

        flat, offsets = _flat_utf8(batch)
        hs = simhash_batch_values(flat, offsets)
        nrows = hs.shape[0]
        take = pa.array(np.repeat(np.arange(nrows, dtype=np.int64), 4))
        bands = np.tile(np.arange(4, dtype=np.int32), nrows)
        keys = (np.repeat(hs, 4) >> (np.uint64(16) * bands.astype(np.uint64))) & np.uint64(0xFFFF)
        doc_id = batch.column("doc_id")
        if isinstance(doc_id, pa.ChunkedArray):
            doc_id = doc_id.combine_chunks()
        return pa.table({"doc_id": doc_id.take(take), "band": pa.array(bands, type=pa.int32()),
                         "key": pa.array(keys.astype(np.int64), type=pa.int64()),
                         "simhash": pa.array(np.repeat(hs, 4), type=pa.uint64())})

    def pairs(group: pa.Table) -> pa.Table:
        n = group.num_rows
        empty = pa.table({"doc_a": pa.array([], type=group.column("doc_id").type),
                          "doc_b": pa.array([], type=group.column("doc_id").type),
                          "hamming": pa.array([], type=pa.int32())})
        if n < 2:
            return empty
        g = group.take(pa.compute.sort_indices(group.column("doc_id")))
        docs = g.column("doc_id")
        hs = np.asarray(g.column("simhash"), dtype=np.uint64)
        parts = []
        # memory-tiled i<j enumeration (hot 16-bit bands are the skew case)
        for ii, jj in iter_pair_tiles(n):
            x = hs[ii] ^ hs[jj]
            ham = _POPCNT8[x.view(np.uint8)].reshape(-1, 8).sum(axis=1)
            keep = ham <= max_hamming
            ii, jj, ham = ii[keep], jj[keep], ham[keep]
            if ii.shape[0] == 0:
                continue
            keep = np.asarray(
                pa.compute.not_equal(docs.take(pa.array(ii)), docs.take(pa.array(jj)))
            )
            ii, jj, ham = ii[keep], jj[keep], ham[keep]
            if ii.shape[0]:
                parts.append(pa.table({"doc_a": docs.take(pa.array(ii)),
                                       "doc_b": docs.take(pa.array(jj)),
                                       "hamming": pa.array(ham.astype(np.int32), type=pa.int32())}))
        return pa.concat_tables(parts) if parts else empty

    bands = _docs(sf_dir).map_batches(sh_batch, batch_format="pyarrow", zero_copy_batch=True)
    cand = bands.groupby(["band", "key"]).map_groups(pairs, batch_format="pyarrow")

    from anomalydetection_ray.stages.runs import keep_first_by

    return keep_first_by(cand, keys=["doc_a", "doc_b"])


def dup_clusters(sf_dir: str, min_est: float = 0.5):
    """Near-duplicate CLUSTERS: connected components over the MinHash/LSH
    pair graph (cluster id = min doc_id in the component), computed by
    distributed min-label propagation (stages/cc.py).  The canonical
    corpus-dedup output — keep one representative per cluster."""
    from anomalydetection_ray.stages.cc import min_label_components

    pairs = minhash_lsh_pairs(sf_dir, min_est=min_est).select_columns(["doc_a", "doc_b"])
    return min_label_components(pairs, "doc_a", "doc_b")


def ngram_jaccard_pairs(sf_dir: str, n: int = 3, min_jaccard: float = 0.3):
    """Exact word-n-gram Jaccard over the MinHash candidate pairs.

    Scale shape: NO driver-side materialization — the candidate pairs get
    each side's text attached by a co-partitioned lookup join
    (`attach_payload`, the same machinery as the signature re-join), so
    text bytes move only for documents that actually appear in a
    candidate pair, and only to the partition holding that pair.  The
    exact n-gram set computation runs per candidate pair (bounded by LSH
    candidate volume, not corpus size)."""
    cands = minhash_lsh_pairs(sf_dir, min_est=0.2).select_columns(["doc_a", "doc_b"])
    docs = _docs(sf_dir)
    with_a = attach_payload(cands, docs, "doc_a", "text", "_text_a")
    with_ab = attach_payload(with_a, docs, "doc_b", "text", "_text_b")

    def verify(batch: pa.Table) -> pa.Table:
        return ngram_verify_batch(batch, n=n, min_jaccard=min_jaccard)

    return with_ab.map_batches(verify, batch_format="pyarrow")


_GRAM_MULT = np.uint64(0x100000001B3)  # n-gram combiner (FNV-prime, odd)


def gram_sets(texts, n: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Distinct word-n-gram hash sets for a column of texts, vectorized
    over the flat utf-8 buffer with the shared ``word_hashes`` tokenizer
    (gram hash = mixed polynomial of the n word hashes).  Returns
    ``(flat sorted-unique gram buffer, int64 row offsets)``: row i's gram
    set is ``grams[offs[i]:offs[i+1]]``, ascending — so each pair
    verification is one C-level sorted-set intersection, no per-gram
    Python anywhere.  Jaccard counts over the 64-bit mixed hashes equal
    counts over the gram tuples themselves up to hash collisions
    (probability ~ grams_per_batch^2 / 2^64, negligible)."""
    from anomalydetection_ray.pipelines.text import _flat_utf8

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    texts = texts.fill_null("")
    nrows = len(texts)
    flat, offs = _flat_utf8(pa.table({"t": texts}), "t")
    hwords, doc_of = word_hashes(flat, offs)
    m = hwords.shape[0]
    if m >= n:
        acc = np.zeros(m - n + 1, dtype=np.uint64)
        for k in range(n):
            acc = acc * _GRAM_MULT + hwords[k : k + acc.shape[0]]
        grams = _mix64(acc)
        gdoc = doc_of[: m - n + 1]
        ok = doc_of[n - 1:] == gdoc  # all n words within one row
        grams, gdoc = grams[ok], gdoc[ok]
    else:
        grams = np.empty(0, dtype=np.uint64)
        gdoc = np.empty(0, dtype=np.int64)
    order = np.lexsort((grams, gdoc))
    grams, gdoc = grams[order], gdoc[order]
    keep = np.ones(grams.shape[0], dtype=bool)
    keep[1:] = (gdoc[1:] != gdoc[:-1]) | (grams[1:] != grams[:-1])
    grams, gdoc = grams[keep], gdoc[keep]
    row_offs = np.searchsorted(gdoc, np.arange(nrows + 1, dtype=np.int64))
    return grams, row_offs


def ngram_verify_batch(batch: pa.Table, n: int = 3,
                       min_jaccard: float = 0.3) -> pa.Table:
    """Exact word-n-gram Jaccard for a batch of candidate pairs carrying
    ``_text_a``/``_text_b``.  Gram sets are computed ONCE per unique doc
    in the batch (vectorized, `gram_sets`); the only per-pair work is a
    sorted-set ``np.intersect1d``."""
    id_type = batch.schema.field("doc_a").type
    empty = pa.table({"doc_a": pa.array([], type=id_type),
                      "doc_b": pa.array([], type=id_type),
                      "jaccard": pa.array([], type=pa.float64())})
    nb = batch.num_rows
    if nb == 0:
        return empty
    a = batch.column("doc_a").to_numpy(zero_copy_only=False)
    b = batch.column("doc_b").to_numpy(zero_copy_only=False)
    uniq, first_pos, inv = np.unique(np.concatenate([a, b]),
                                     return_index=True, return_inverse=True)
    chunks = [c for col in (batch.column("_text_a"), batch.column("_text_b"))
              for c in (col.chunks if isinstance(col, pa.ChunkedArray) else [col])]
    texts_u = pa.concat_arrays(chunks).take(pa.array(first_pos, type=pa.int64()))
    grams, roffs = gram_sets(texts_u, n)
    sizes = np.diff(roffs)
    ia, ib = inv[:nb], inv[nb:]
    inter = np.empty(nb, dtype=np.int64)
    for i in range(nb):
        ga = grams[roffs[ia[i]]:roffs[ia[i] + 1]]
        gb = grams[roffs[ib[i]]:roffs[ib[i] + 1]]
        inter[i] = np.intersect1d(ga, gb, assume_unique=True).size
    union = sizes[ia] + sizes[ib] - inter
    jac = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
    keep = pa.array(jac >= min_jaccard)
    out = batch.select(["doc_a", "doc_b"]).filter(keep)
    return out.append_column("jaccard",
                             pa.array(jac[jac >= min_jaccard], type=pa.float64()))


def _bucketed_embeddings(sf_dir: str, num_buckets: int) -> str:
    """Persist the embeddings table once as id-bucketed parquet
    (``bucket = vec_id % B`` hive directories) — the self-join input
    layout.  Built DISTRIBUTED: a Ray Data read -> vectorized bucket
    column -> ``write_parquet(partition_cols=["bucket"])``, so no task
    (and never the driver) holds more than its own blocks; idempotent and
    content-fingerprinted via state/layout.py (atomic tmp+rename), so
    repeated queries and resumed runs reuse it and a regenerated source
    table rebuilds it."""
    from anomalydetection_ray.state.layout import persist_bucketed

    src = f"{sf_dir}/embeddings.parquet"

    def build(tmp: str) -> None:
        import ray.data

        def add_bucket(batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch.column("vec_id"), dtype=np.int64)
            return batch.append_column(
                "bucket", pa.array(ids % num_buckets, type=pa.int64()))

        (ray.data.read_parquet(src, columns=["vec_id", "embedding"])
            .map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
            .write_parquet(tmp, partition_cols=["bucket"]))

    return persist_bucketed("embbkt", src, f"B{num_buckets}", build)


def embedding_dup_pairs(sf_dir: str, min_cosine: float = 0.95,
                        num_buckets: int | None = None):
    """Embedding-cosine near-dup pairs — EXACT all-pairs, distributed as a
    bucket-pair self-join: ids are hashed into B buckets persisted as
    partitioned parquet, the driver enumerates the B*(B+1)/2 bucket pairs
    (tiny), and each Ray task loads just its two buckets and computes one
    (n_i x n_j) cosine block.  No driver-side materialization, no
    broadcast of the full matrix; per-task memory is O((N/B)^2) and the
    layout is the same one the LSH scale path prunes.  (For sub-quadratic
    TOTAL work use the LSH candidate path — exact all-pairs is inherently
    O(N^2) compute at any layout.)"""
    import os

    import pyarrow.parquet as pq
    import ray.data

    n_total = pq.ParquetFile(f"{sf_dir}/embeddings.parquet").metadata.num_rows
    if num_buckets is None:
        num_buckets = max(1, -(-n_total // 2048))  # ~2k vectors per bucket
    path = _bucketed_embeddings(sf_dir, num_buckets)
    bucket_pairs_list = [{"ba": i, "bb": j}
                         for i in range(num_buckets) for j in range(i, num_buckets)]

    def _load(b: int) -> tuple[np.ndarray, np.ndarray]:
        from anomalydetection_ray.state.layout import bucket_files

        files = bucket_files(path, b)
        if not files:
            return np.empty(0, dtype=np.int64), np.empty((0, 1), dtype=np.float64)
        t = pq.read_table(files, columns=["vec_id", "embedding"])
        ids = np.asarray(t.column("vec_id"), dtype=np.int64)
        emb = t.column("embedding")
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        flat = np.asarray(emb.values, dtype=np.float64)
        m = flat.reshape(len(ids), -1) if len(ids) else flat.reshape(0, 1)
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        return ids, m

    def block(batch: pa.Table) -> pa.Table:
        a_o, b_o, s_o = [], [], []
        for ba, bb in zip(batch.column("ba").to_pylist(), batch.column("bb").to_pylist()):
            ia, ma = _load(int(ba))
            ib, mb = _load(int(bb))
            if ia.shape[0] == 0 or ib.shape[0] == 0:
                continue
            sims = ma @ mb.T
            if ba == bb:
                rr, cc = np.nonzero(np.triu(sims >= min_cosine, k=1))
            else:
                rr, cc = np.nonzero(sims >= min_cosine)
            va, vb = ia[rr], ib[cc]
            lo = np.minimum(va, vb)
            hi = np.maximum(va, vb)
            keep = lo != hi
            a_o.append(lo[keep])
            b_o.append(hi[keep])
            s_o.append(sims[rr, cc][keep])
        if not a_o:
            return pa.table({"vec_a": pa.array([], type=pa.int64()),
                             "vec_b": pa.array([], type=pa.int64()),
                             "cosine": pa.array([], type=pa.float64())})
        return pa.table({"vec_a": pa.array(np.concatenate(a_o), type=pa.int64()),
                         "vec_b": pa.array(np.concatenate(b_o), type=pa.int64()),
                         "cosine": pa.array(np.concatenate(s_o), type=pa.float64())})

    ds = ray.data.from_items(bucket_pairs_list,
                             override_num_blocks=len(bucket_pairs_list))
    return ds.map_batches(block, batch_format="pyarrow")


# ------------------------------------- embedding banded-LSH pairs ----
# The SCALE path for embedding-cosine near-dup (round 5; replaces the
# O(N^2) blocked all-pairs as the registered operator — `embedding_dup_pairs`
# stays as the fixture-scale calibration audit).  Candidates come from
# banded random-hyperplane LSH: a pair is a candidate iff it collides in
# >=1 band, and only candidates get an exact-cosine verify — total work
# tracks candidate multiplicity (bounded by bucket sizes), never N^2.
#
# The signing step is INTEGER-EXACT so the DuckDB oracle reproduces the
# candidate set bitwise: embeddings are quantized once
# (floor(x * 2^20 + 0.5) — exact in float64 for float32 inputs) and
# projected onto seeded Rademacher (+-1) hyperplanes, giving an int64 dot
# whose sign numpy and SQL compute identically.  The ANN probe index
# (similarity.py:92 build_ann_index) keeps its Gaussian float planes —
# float dot SIGNS would hinge on summation order (numpy pairwise vs SQL
# sequential), which the driver's exact-hash gate cannot tolerate.
# Rademacher projections are a standard SimHash-style LSH family
# (Charikar 2002 §3; Achlioptas 2003 database-friendly projections).
_EMB_Q = 1 << 20
_EMB_SEED = 1337


def _emb_planes(n_planes: int, dim: int) -> np.ndarray:
    """Seeded (n_planes x dim) Rademacher +-1 int64 matrix — the shared
    source of truth for the engine kernel AND the oracle's VALUES table
    (__ray_entry__ renders this exact matrix as SQL literals)."""
    rng = np.random.default_rng(_EMB_SEED)
    return np.where(rng.random((n_planes, dim)) < 0.5,
                    np.int64(-1), np.int64(1))


def _emb_matrix(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(vec_ids int64, float64 (n x d) matrix) from an embeddings batch —
    zero-copy flat child buffer, no per-row Python."""
    ids = np.asarray(batch.column("vec_id"), dtype=np.int64)
    emb = batch.column("embedding")
    if isinstance(emb, pa.ChunkedArray):
        emb = emb.combine_chunks()
    flat = np.asarray(emb.values, dtype=np.float64)
    m = flat.reshape(len(ids), -1) if len(ids) else flat.reshape(0, 1)
    return ids, m


def embedding_lsh_pairs(sf_dir: str, min_cosine: float = 0.95,
                        n_bands: int = 16, band_bits: int = 16):
    """Embedding near-dup pairs = banded-LSH candidates + exact cosine
    verify.  Output: (vec_a < vec_b, cosine) for candidate pairs with
    cosine >= min_cosine.

    Scale shape (mirrors `minhash_lsh_pairs`): the banding shuffle moves
    only (vec_id, band, bucket) rows — never embeddings; buckets emit raw
    candidate pairs (`bucket_candidates`, memory-tiled); pairs are deduped
    FIRST (`keep_first_by`); then embeddings are attached to the surviving
    unique pairs by two co-partitioned lookup joins (`attach_payload`) and
    the exact float64 cosine filter runs vectorized.  Embedding bytes
    cross the wire once per vector + twice per unique candidate pair.

    Defaults (16 bands x 16 bits = 256 planes) target real near-dup
    thresholds: at cosine 0.95 a bit flips with prob theta/pi ~ 0.10, so a
    16-bit band fully agrees with prob ~0.18 and 16 bands miss with prob
    (1-0.18)^16 ~ 4% while a random pair collides in a given band with
    prob 2^-16 — candidates stay ~linear in N.  The registered driver
    query uses (8 x 8) so the oracle's plane VALUES table stays compact.
    """
    import ray.data

    from anomalydetection_ray.stages.runs import keep_first_by

    n_planes = n_bands * band_bits
    assert band_bits <= 62, "band key must fit int64"
    emb_ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                   columns=["vec_id", "embedding"])
    planes_by_dim: dict[int, np.ndarray] = {}

    def band_batch(batch: pa.Table) -> pa.Table:
        ids, m = _emb_matrix(batch)
        n = ids.shape[0]
        if n == 0:
            return pa.table({"doc_id": pa.array([], type=pa.int64()),
                             "band": pa.array([], type=pa.int32()),
                             "bucket": pa.array([], type=pa.int64())})
        dim = m.shape[1]
        planes = planes_by_dim.get(dim)
        if planes is None:  # tiny seeded matrix, built once per task
            planes = planes_by_dim.setdefault(dim, _emb_planes(n_planes, dim))
        q = np.floor(m * _EMB_Q + 0.5).astype(np.int64)
        bits = (q @ planes.T) > 0  # exact int64 dots
        w = np.int64(1) << np.arange(band_bits, dtype=np.int64)
        buckets = (bits.reshape(n, n_bands, band_bits) * w).sum(axis=2)
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, n_bands), type=pa.int64()),
            "band": pa.array(np.tile(np.arange(n_bands, dtype=np.int32), n),
                             type=pa.int32()),
            "bucket": pa.array(buckets.ravel(), type=pa.int64()),
        })

    bands = emb_ds.map_batches(band_batch, batch_format="pyarrow",
                               zero_copy_batch=True)
    cands = bands.groupby(["band", "bucket"]).map_groups(
        bucket_candidates, batch_format="pyarrow")
    uniq = keep_first_by(cands, keys=["doc_a", "doc_b"])
    with_a = attach_payload(uniq, emb_ds.map_batches(
        lambda b: pa.table({"doc_id": b.column("vec_id"),
                            "embedding": b.column("embedding")}),
        batch_format="pyarrow", zero_copy_batch=True),
        "doc_a", "embedding", "_emb_a")
    with_ab = attach_payload(with_a, emb_ds.map_batches(
        lambda b: pa.table({"doc_id": b.column("vec_id"),
                            "embedding": b.column("embedding")}),
        batch_format="pyarrow", zero_copy_batch=True),
        "doc_b", "embedding", "_emb_b")

    def verify(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        empty = pa.table({"vec_a": pa.array([], type=pa.int64()),
                          "vec_b": pa.array([], type=pa.int64()),
                          "cosine": pa.array([], type=pa.float64())})
        if n == 0:
            return empty
        ea = batch.column("_emb_a")
        eb = batch.column("_emb_b")
        if isinstance(ea, pa.ChunkedArray):
            ea = ea.combine_chunks()
        if isinstance(eb, pa.ChunkedArray):
            eb = eb.combine_chunks()
        a = np.asarray(ea.values, dtype=np.float64).reshape(n, -1)
        b = np.asarray(eb.values, dtype=np.float64).reshape(n, -1)
        a = a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1e-30)
        b = b / np.maximum(np.linalg.norm(b, axis=1, keepdims=True), 1e-30)
        # one-column matmul (a[i] @ b[i].T diag) via einsum keeps the same
        # dgemm-free pairwise-sum path for every row
        sims = np.einsum("ij,ij->i", a, b)
        keep = sims >= min_cosine
        kidx = pa.array(np.flatnonzero(keep))
        return pa.table({
            "vec_a": batch.column("doc_a").take(kidx).cast(pa.int64()),
            "vec_b": batch.column("doc_b").take(kidx).cast(pa.int64()),
            "cosine": pa.array(sims[keep], type=pa.float64()),
        })

    return with_ab.map_batches(verify, batch_format="pyarrow",
                               zero_copy_batch=True)


# ------------------------------------------------------------------ D6 ----
LEV_PREFIX = 64


def _prefix_matrix(texts, prefix: int) -> tuple[np.ndarray, np.ndarray]:
    """(P x prefix uint8 matrix zero-padded, per-row true lengths) for a
    string column's first ``prefix`` codeunits — one vectorized scatter
    over the flat utf-8 buffer."""
    import pyarrow.compute as pc

    from anomalydetection_ray.pipelines.text import _flat_utf8

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    pre = pc.utf8_slice_codeunits(texts.fill_null(""), 0, prefix)
    flat, offs = _flat_utf8(pa.table({"t": pre}), "t")
    lens = np.diff(offs)
    P = lens.shape[0]
    A = np.zeros((P, prefix), dtype=np.uint8)
    if flat.shape[0]:
        row_of = np.repeat(np.arange(P, dtype=np.int64), lens)
        pos = np.arange(flat.shape[0], dtype=np.int64) \
            - np.repeat(offs[:-1], lens)
        A[row_of, pos] = flat
    return A, lens


def levenshtein_batch(batch: pa.Table, prefix: int = LEV_PREFIX) -> pa.Table:
    """Levenshtein distance between the two sides' ``prefix``-char heads
    for every candidate pair in the batch.  The DP is vectorized ACROSS
    PAIRS: the classic two-row recurrence runs its prefix x prefix cell
    loop once per batch, each cell operating on a length-P vector — so
    per-pair work is pure C regardless of how many candidates LSH
    produced.  Padding is harmless: cell (i, j) only reads characters
    < i, < j, and each pair's answer is captured at its true (len_a,
    len_b) cell."""
    P = batch.num_rows
    if P == 0:
        return pa.table({
            "doc_a": pa.array([], type=pa.string()),
            "doc_b": pa.array([], type=pa.string()),
            "len_a": pa.array([], type=pa.int64()),
            "len_b": pa.array([], type=pa.int64()),
            "lev": pa.array([], type=pa.int64()),
        })
    A, la = _prefix_matrix(batch.column("_text_a"), prefix)
    B, lb = _prefix_matrix(batch.column("_text_b"), prefix)
    prev = np.broadcast_to(np.arange(prefix + 1, dtype=np.int64),
                           (P, prefix + 1)).copy()
    ans = np.where(la == 0, lb, -1)
    rows = np.arange(P, dtype=np.int64)
    for i in range(1, prefix + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        ai = A[:, i - 1][:, None]
        cost = (ai != B).astype(np.int64)            # (P, prefix)
        sub = prev[:, :-1] + cost                     # substitution
        dele = prev[:, 1:] + 1                        # deletion
        best = np.minimum(sub, dele)
        # insertion propagates left-to-right; prefix-size scalar loop,
        # each step a P-vector op
        for j in range(1, prefix + 1):
            cur[:, j] = np.minimum(best[:, j - 1], cur[:, j - 1] + 1)
        hit = la == i
        if hit.any():
            ans[hit] = cur[rows[hit], lb[hit]]
        prev = cur
    return pa.table({
        "doc_a": batch.column("doc_a"),
        "doc_b": batch.column("doc_b"),
        "len_a": pa.array(la, type=pa.int64()),
        "len_b": pa.array(lb, type=pa.int64()),
        "lev": pa.array(ans, type=pa.int64()),
    })


def levenshtein_pairs(sf_dir: str, prefix: int = LEV_PREFIX):
    """D6 — edit-distance verification of the MinHash candidate pairs:
    Levenshtein over each side's first ``prefix`` characters (the cheap
    typo-class near-dup gate; full-text edit distance is quadratic in
    document length and never worth it at corpus scale).  Same
    scale shape as the n-gram verify: texts attach to candidate pairs by
    co-partitioned lookup joins, the kernel cost is bounded by LSH
    candidate volume."""
    import functools

    cands = minhash_lsh_pairs(sf_dir, min_est=0.2).select_columns(
        ["doc_a", "doc_b"])
    docs = _docs(sf_dir)
    with_a = attach_payload(cands, docs, "doc_a", "text", "_text_a")
    with_ab = attach_payload(with_a, docs, "doc_b", "text", "_text_b")
    return with_ab.map_batches(
        functools.partial(levenshtein_batch, prefix=prefix),
        batch_format="pyarrow")


# ------------------------------------------------------------------ T9 ----
def dedup_impact_report(sf_dir: str):
    """T9 — the dedup impact report a curator reads before approving the
    drop: per source, document counts before/after exact content dedup
    and the exact characters removed (kept = min doc_id per md5 group —
    D1's tiebreak).  Scale shape: the hash exchange carries (hash,
    source, doc_id, n_chars) only; the per-hash kernel marks keeps
    vectorized (run starts); per-source totals are tiny partials."""
    import pyarrow.compute as pc

    from anomalydetection_ray.stages.runs import partition_apply, run_starts

    def hash_batch(batch: pa.Table) -> pa.Table:
        h1, h2 = content_hash_cols(batch)
        return pa.table({"h1": h1, "h2": h2,
                         "doc_id": batch.column("doc_id"),
                         "source": batch.column("source"),
                         "n_chars": pc.cast(batch.column("n_chars"),
                                            pa.int64())})

    import ray.data

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "source", "n_chars", "text"])
    hashed = docs.map_batches(hash_batch, batch_format="pyarrow",
                              zero_copy_batch=True)

    def mark_keeps(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                "source": pa.array([], type=pa.string()),
                "n_docs": pa.array([], type=pa.int64()),
                "n_kept": pa.array([], type=pa.int64()),
                "chars_total": pa.array([], type=pa.int64()),
                "chars_dropped": pa.array([], type=pa.int64()),
            })
        t = batch.sort_by(
            [("h1", "ascending"), ("h2", "ascending"),
             ("doc_id", "ascending")])
        starts = run_starts(t, ["h1", "h2"])
        keep = np.zeros(t.num_rows, dtype=bool)
        keep[starts] = True
        nc = np.asarray(t.column("n_chars"), dtype=np.int64)
        g = pa.table({
            "source": t.column("source"),
            "one": pa.array(np.ones(t.num_rows, np.int64)),
            "kept": pa.array(keep.astype(np.int64)),
            "chars": pa.array(nc, type=pa.int64()),
            "chars_drop": pa.array(np.where(keep, 0, nc), type=pa.int64()),
        }).group_by("source").aggregate(
            [("one", "sum"), ("kept", "sum"), ("chars", "sum"),
             ("chars_drop", "sum")])
        return pa.table({
            "source": g.column("source"),
            "n_docs": pc.cast(g.column("one_sum"), pa.int64()),
            "n_kept": pc.cast(g.column("kept_sum"), pa.int64()),
            "chars_total": pc.cast(g.column("chars_sum"), pa.int64()),
            "chars_dropped": pc.cast(g.column("chars_drop_sum"), pa.int64()),
        })

    partials = partition_apply(hashed, ["h1", "h2"], mark_keeps, 16)

    def merge(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cols = {"source": group.column("source").slice(0, 1)}
        for c in ("n_docs", "n_kept", "chars_total", "chars_dropped"):
            cols[c] = pa.array([int(pc.sum(group.column(c)).as_py())],
                               type=pa.int64())
        return pa.table(cols)

    return partials.groupby("source").map_groups(merge,
                                                 batch_format="pyarrow")


# ---------------------------------------------------------------- D8 ----
def sorted_neighborhood_pairs(sf_dir: str, window: int = 3,
                              prefix_len: int = 16,
                              num_partitions: int = 16):
    """D8 — sorted-neighborhood dedup blocking (Hernandez & Stolfo 1995,
    the merge/purge method): block documents on their first
    ``prefix_len`` characters, sort each block by (text, doc_id), and
    emit candidate pairs within a sliding rank window of ``window`` —
    the sort-based alternative to the MinHash/SimHash hash-based
    blocking families.  Misses near-dups whose edit lies inside the
    prefix (inherent to the blocking choice; the LSH families cover that
    axis).

    Scale shape: ONE hash exchange keyed on the prefix (near-identical
    texts co-locate by construction); the per-partition kernel is a sort
    + ``window - 1`` vectorized shifts.  Oracle: ``row_number()`` per
    prefix group + a rank-distance self-join."""
    import ray.data

    from anomalydetection_ray.stages.runs import partition_apply, run_starts

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def add_prefix(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.append_column(
            "pfx", pc.utf8_slice_codeunits(
                batch.column("text").combine_chunks()
                if isinstance(batch.column("text"), pa.ChunkedArray)
                else batch.column("text"), 0, prefix_len))

    def kernel(group: pa.Table) -> pa.Table:
        group = group.sort_by(
            [("pfx", "ascending"), ("text", "ascending"),
             ("doc_id", "ascending")])
        n = group.num_rows
        empty = pa.table({
            "doc_a": pa.array([], type=pa.int64()),
            "doc_b": pa.array([], type=pa.int64()),
            "rank_dist": pa.array([], type=pa.int64()),
            "is_exact": pa.array([], type=pa.bool_()),
        })
        if n < 2:
            return empty
        starts = run_starts(group, ["pfx"])
        lens = np.diff(np.append(starts, n))
        seq = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
        ids = np.asarray(group.column("doc_id"), dtype=np.int64)
        text = group.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        a_idx, b_idx, dists = [], [], []
        for d in range(1, window):
            ok = np.flatnonzero(seq[d:] >= d)   # b-row has >= d predecessors
            if ok.size == 0:
                continue
            b = ok + d
            a_idx.append(b - d)
            b_idx.append(b)
            dists.append(np.full(ok.size, d, dtype=np.int64))
        if not a_idx:
            return empty
        ai = np.concatenate(a_idx)
        bi = np.concatenate(b_idx)
        import pyarrow.compute as pc

        eq = pc.equal(text.take(pa.array(ai)), text.take(pa.array(bi)))
        return pa.table({
            "doc_a": pa.array(ids[ai], type=pa.int64()),
            "doc_b": pa.array(ids[bi], type=pa.int64()),
            "rank_dist": pa.array(np.concatenate(dists), type=pa.int64()),
            "is_exact": eq,
        })

    keyed = ds.map_batches(add_prefix, batch_format="pyarrow",
                           zero_copy_batch=True)
    return partition_apply(keyed, ["pfx"], kernel, num_partitions)


_GRAM_C = np.uint64(1000003)
_GRAM_N = 8


def token_gram_hashes(batch: pa.Table, n: int = _GRAM_N) -> tuple[np.ndarray, np.ndarray]:
    """(hash per token n-gram, row index per gram) over a sequences batch's
    flat token buffer.  Hash = Horner polynomial mod 2^64 with the odd
    constant 1000003 — uint64 wraparound on the engine side, chained
    ``(acc*C + v) % 2^64`` HUGEINT steps in SQL, bit-identical.  Grams
    never cross row (part) boundaries."""
    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.uint64)
    total = v.shape[0]
    lens = np.diff(offsets)
    if total < n:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    row_of = np.repeat(np.arange(lens.shape[0], dtype=np.int64), lens)
    h = v[: total - n + 1].copy()
    for j in range(1, n):
        h = h * _GRAM_C + v[j : total - n + 1 + j]
    keep = row_of[: total - n + 1] == row_of[n - 1 :]
    return h[keep], row_of[: total - n + 1][keep]


def dup_ngram_fraction(sf_dir: str, n: int = _GRAM_N, num_partitions: int = 64):
    """T14 — per-doc duplicate n-gram fraction (the Dolma/Gopher-style
    'fraction of the document made of n-grams that also occur elsewhere'
    quality signal; Rae et al. 2021 §A1.3): a gram occurrence counts as
    duplicated iff its hash occurs in >= 2 DISTINCT docs.  Two bounded
    exchanges: per-block (gram, doc) partials -> _pkey on the gram hash
    (per-gram distinct-doc flags, vectorized run kernels) -> _pkey on
    doc_id for the final per-doc sums.  64-bit gram-hash collisions are
    the documented approximation, exactly as in the minhash family —
    and the oracle replays the same hash, so the gate is still exact."""
    from anomalydetection_ray.pipelines.rollup import validated
    from anomalydetection_ray.sources.tokenize import docs_sequences
    from anomalydetection_ray.stages.runs import partition_apply, run_starts

    seqs = validated(docs_sequences(sf_dir))

    def partial(batch: pa.Table) -> pa.Table:
        h, row_of = token_gram_hashes(batch, n=n)
        doc = batch.column("doc_id").to_pandas().to_numpy()
        if h.shape[0] == 0:
            return pa.table({"h": pa.array([], type=pa.uint64()),
                             "doc_id": pa.array([], type=pa.string()),
                             "occ": pa.array([], type=pa.int64())})
        order = np.lexsort((row_of, h))
        hs, rs = h[order], row_of[order]
        neq = (hs[1:] != hs[:-1]) | (rs[1:] != rs[:-1])
        starts = np.concatenate(([0], np.nonzero(neq)[0] + 1))
        occ = np.diff(np.append(starts, hs.shape[0]))
        return pa.table({
            "h": pa.array(hs[starts], type=pa.uint64()),
            "doc_id": pa.array(doc[rs[starts]].astype(object), type=pa.string()),
            "occ": pa.array(occ.astype(np.int64), type=pa.int64()),
        })

    partials = seqs.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)

    def per_gram(part: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], type=pa.string()),
                          "tot": pa.array([], type=pa.int64()),
                          "dup": pa.array([], type=pa.int64())})
        if part.num_rows == 0:
            return empty
        part = part.sort_by([("h", "ascending"), ("doc_id", "ascending")])
        pair_starts = run_starts(part, ["h", "doc_id"])
        occ = np.add.reduceat(
            part.column("occ").to_numpy(zero_copy_only=False), pair_starts)
        h = part.column("h").to_numpy(zero_copy_only=False)[pair_starts]
        doc = part.column("doc_id").to_pandas().to_numpy()[pair_starts]
        g_starts = np.concatenate(([0], np.nonzero(h[1:] != h[:-1])[0] + 1))
        ndocs = np.diff(np.append(g_starts, h.shape[0]))
        dup_flag = np.repeat(ndocs >= 2, ndocs)
        # collapse to per-doc partials inside the partition
        order = np.lexsort((doc,))
        doc, occ, dup_flag = doc[order], occ[order], dup_flag[order]
        d_starts = np.concatenate(
            ([0], np.nonzero(doc[1:] != doc[:-1])[0] + 1))
        tot = np.add.reduceat(occ, d_starts)
        dup = np.add.reduceat(np.where(dup_flag, occ, 0), d_starts)
        return pa.table({
            "doc_id": pa.array(doc[d_starts].astype(object), type=pa.string()),
            "tot": pa.array(tot, type=pa.int64()),
            "dup": pa.array(dup, type=pa.int64()),
        })

    per_doc_partials = partition_apply(partials, ["h"], per_gram,
                                       num_partitions=num_partitions)

    def per_doc(part: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], type=pa.string()),
                          "n_grams": pa.array([], type=pa.int64()),
                          "n_dup": pa.array([], type=pa.int64()),
                          "dup_frac": pa.array([], type=pa.float64())})
        if part.num_rows == 0:
            return empty
        part = part.sort_by([("doc_id", "ascending")])
        starts = run_starts(part, ["doc_id"])
        tot = np.add.reduceat(part.column("tot").to_numpy(zero_copy_only=False), starts)
        dup = np.add.reduceat(part.column("dup").to_numpy(zero_copy_only=False), starts)
        return pa.table({
            "doc_id": part.column("doc_id").take(pa.array(starts, type=pa.int64())),
            "n_grams": pa.array(tot, type=pa.int64()),
            "n_dup": pa.array(dup, type=pa.int64()),
            "dup_frac": pa.array(dup.astype(np.float64) / tot.astype(np.float64),
                                 type=pa.float64()),
        })

    return partition_apply(per_doc_partials, ["doc_id"], per_doc,
                           num_partitions=num_partitions)


def d9_cross_source_matrix(sf_dir: str, min_est: float = 0.5):
    """D9 — cross-source duplication matrix: MinHash near-dup candidate
    pairs rolled up by the (source_a, source_b) pair of the two docs —
    WHICH corpora copy from which (mirrors, scrapes of scrapes,
    benchmark leakage between sources).  The per-cell payload is the
    pair count and the exact integer sum of 1000-scaled Jaccard
    estimates (est is k_equal/64, so 1000*est*64 is a multiple of
    1000*k — carried as the exact numerator sum_k = sum of equal-row
    counts instead, one pinned division at the end).

    Scale shape: reuses the banded-LSH pair pipeline unchanged (bucket
    shuffle carries only (doc, band, bucket)); sources attach to the
    UNIQUE pairs via two co-partitioned lookup joins; the final rollup
    collapses per block to the bounded source-pair domain before one
    tiny exchange."""
    import pyarrow.compute as pc
    import ray.data

    pairs = minhash_lsh_pairs(sf_dir, min_est=min_est)
    src = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                columns=["doc_id", "source"])
    with_a = attach_payload(pairs, src, "doc_a", "source", "src_a")
    with_ab = attach_payload(with_a, src, "doc_b", "source", "src_b")

    def partial(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table({
                "source_a": pa.array([], type=pa.string()),
                "source_b": pa.array([], type=pa.string()),
                "n_pairs": pa.array([], type=pa.int64()),
                "sum_k": pa.array([], type=pa.int64()),
            })
        sa = batch.column("src_a")
        sb = batch.column("src_b")
        lo = pc.min_element_wise(sa, sb)
        hi = pc.max_element_wise(sa, sb)
        est = np.asarray(batch.column("est_jaccard"), dtype=np.float64)
        # est = k/64 exactly; recover the integer matching-row count
        k = np.floor(est * 64.0 + 0.5).astype(np.int64)
        t = pa.table({"source_a": lo, "source_b": hi,
                      "k": pa.array(k, type=pa.int64())})
        g = t.group_by(["source_a", "source_b"]).aggregate(
            [([], "count_all"), ("k", "sum")])
        return pa.table({
            "source_a": g.column("source_a"),
            "source_b": g.column("source_b"),
            "n_pairs": pc.cast(g.column("count_all"), pa.int64()),
            "sum_k": pc.cast(g.column("k_sum"), pa.int64()),
        })

    parts = with_ab.map_batches(partial, batch_format="pyarrow")
    rolled = (parts.groupby(["source_a", "source_b"])
              .sum(["n_pairs", "sum_k"]))

    def finish(batch: pa.Table) -> pa.Table:
        npair = np.asarray(batch.column("sum(n_pairs)"), dtype=np.int64)
        sumk = np.asarray(batch.column("sum(sum_k)"), dtype=np.int64)
        mean_est = sumk.astype(np.float64) / (npair.astype(np.float64)
                                              * np.float64(64.0))
        return pa.table({
            "source_a": batch.column("source_a"),
            "source_b": batch.column("source_b"),
            "n_pairs": pa.array(npair, type=pa.int64()),
            "sum_k": pa.array(sumk, type=pa.int64()),
            "mean_est_jaccard": pa.array(mean_est, type=pa.float64()),
        })

    return rolled.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def containment_verify_batch(batch: pa.Table, n: int = 3,
                             min_containment: float = 0.5) -> pa.Table:
    """Exact word-n-gram Jaccard CONTAINMENT for a batch of candidate
    pairs carrying ``_text_a``/``_text_b``: inter/|A| and inter/|B|
    (Broder 1997's asymmetric resemblance) — the metric that catches a
    SMALL document swallowed by a big one, which symmetric Jaccard
    dilutes below every practical threshold.  Same vectorized shape as
    ``ngram_verify_batch``: gram sets once per unique doc, one sorted-set
    intersection per pair; kept when max(cont_a, cont_b) clears the bar.
    Integer gram counts are carried; the containments are one pinned
    int->double division each."""
    id_type = batch.schema.field("doc_a").type
    empty = pa.table({"doc_a": pa.array([], type=id_type),
                      "doc_b": pa.array([], type=id_type),
                      "inter": pa.array([], type=pa.int64()),
                      "n_a": pa.array([], type=pa.int64()),
                      "n_b": pa.array([], type=pa.int64()),
                      "cont_a": pa.array([], type=pa.float64()),
                      "cont_b": pa.array([], type=pa.float64())})
    nb = batch.num_rows
    if nb == 0:
        return empty
    a = batch.column("doc_a").to_numpy(zero_copy_only=False)
    b = batch.column("doc_b").to_numpy(zero_copy_only=False)
    uniq, first_pos, inv = np.unique(np.concatenate([a, b]),
                                     return_index=True, return_inverse=True)
    chunks = [c for col in (batch.column("_text_a"), batch.column("_text_b"))
              for c in (col.chunks if isinstance(col, pa.ChunkedArray)
                        else [col])]
    texts_u = pa.concat_arrays(chunks).take(
        pa.array(first_pos, type=pa.int64()))
    grams, roffs = gram_sets(texts_u, n)
    sizes = np.diff(roffs)
    ia, ib = inv[:nb], inv[nb:]
    inter = np.empty(nb, dtype=np.int64)
    for i in range(nb):
        ga = grams[roffs[ia[i]]:roffs[ia[i] + 1]]
        gb = grams[roffs[ib[i]]:roffs[ib[i] + 1]]
        inter[i] = np.intersect1d(ga, gb, assume_unique=True).size
    n_a = sizes[ia].astype(np.int64)
    n_b = sizes[ib].astype(np.int64)
    cont_a = np.where(n_a > 0, inter / np.maximum(n_a, 1), 0.0)
    cont_b = np.where(n_b > 0, inter / np.maximum(n_b, 1), 0.0)
    keep_np = np.maximum(cont_a, cont_b) >= min_containment
    keep = pa.array(keep_np)
    out = batch.select(["doc_a", "doc_b"]).filter(keep)
    out = out.append_column("inter", pa.array(inter[keep_np],
                                              type=pa.int64()))
    out = out.append_column("n_a", pa.array(n_a[keep_np], type=pa.int64()))
    out = out.append_column("n_b", pa.array(n_b[keep_np], type=pa.int64()))
    out = out.append_column("cont_a", pa.array(cont_a[keep_np],
                                               type=pa.float64()))
    return out.append_column("cont_b", pa.array(cont_b[keep_np],
                                                type=pa.float64()))


def d10_containment_pairs(sf_dir: str, n: int = 3,
                          min_containment: float = 0.5):
    """D10 — asymmetric near-dup detection by n-gram Jaccard CONTAINMENT
    over the MinHash candidate pairs: the quote/excerpt/boilerplate
    detector (a small doc fully contained in a large one scores
    containment ~1.0 but Jaccard ~|A|/|B| -> 0).  Scale shape identical
    to `ngram_jaccard_pairs`: candidates from the banded LSH exchange,
    text attached by co-partitioned lookups only for docs in candidate
    pairs, exact verification bounded by candidate volume."""
    cands = minhash_lsh_pairs(sf_dir, min_est=0.2).select_columns(
        ["doc_a", "doc_b"])
    docs = _docs(sf_dir)
    with_a = attach_payload(cands, docs, "doc_a", "text", "_text_a")
    with_ab = attach_payload(with_a, docs, "doc_b", "text", "_text_b")

    def verify(batch: pa.Table) -> pa.Table:
        return containment_verify_batch(batch, n=n,
                                        min_containment=min_containment)

    return with_ab.map_batches(verify, batch_format="pyarrow")


def d13_cluster_sizes(sf_dir: str, min_est: float = 0.5):
    """D13 — near-dup cluster-size distribution: how big are the
    template families?  (size 2 = simple pairs; a fat tail of large
    clusters means boilerplate/mirror families that exact-dedup missed
    and one-per-cluster sampling will collapse hardest.)  Rolls the
    D-family cluster table up to (cluster_size -> n_clusters, n_docs).

    Scale shape: two bounded exchanges over the CLUSTER relation (only
    docs that appear in near-dup pairs, a small fraction of the
    corpus): per-block (cluster, count) partials -> per-cluster sum ->
    per-size count; both keyed relations collapse per block first."""
    clusters = dup_clusters(sf_dir, min_est=min_est)

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"cluster": batch.column("cluster"),
                      "one": pa.array(np.ones(batch.num_rows,
                                              dtype=np.int64))})
        g = t.group_by(["cluster"]).aggregate([("one", "sum")])
        return pa.table({"cluster": g.column("cluster"),
                         "n": g.column("one_sum").cast(pa.int64())})

    per_cluster = (clusters.map_batches(partial, batch_format="pyarrow",
                                        zero_copy_batch=True)
                   .groupby("cluster").sum("n"))

    def size_partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"cluster_size": batch.column("sum(n)").cast(
                          pa.int64()),
                      "one": pa.array(np.ones(batch.num_rows,
                                              dtype=np.int64))})
        g = t.group_by(["cluster_size"]).aggregate([("one", "sum")])
        return pa.table({"cluster_size": g.column("cluster_size"),
                         "n_clusters": g.column("one_sum").cast(pa.int64())})

    agg = (per_cluster.map_batches(size_partial, batch_format="pyarrow",
                                   zero_copy_batch=True)
           .groupby("cluster_size").sum("n_clusters"))

    def finalize(batch: pa.Table) -> pa.Table:
        size = np.asarray(batch.column("cluster_size"), dtype=np.int64)
        nc = np.asarray(batch.column("sum(n_clusters)"), dtype=np.int64)
        return pa.table({
            "cluster_size": pa.array(size, type=pa.int64()),
            "n_clusters": pa.array(nc, type=pa.int64()),
            "n_docs": pa.array(size * nc, type=pa.int64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def d14_cross_source_exact(sf_dir: str, num_partitions: int = 16):
    """D14 — cross-source EXACT duplication audit: per source, how many
    of its documents' contents appear verbatim in at least one OTHER
    source — the mirror/re-scrape detector at exact granularity (D9 is
    its near-dup sibling).  A corpus where src A's docs mostly hash
    into src B is a copy, and mixture weights counting both are wrong.

    Scale shape: the exact-dedup exchange shape — each block collapses
    to distinct (h1, h2, source) triples before ONE hash-keyed
    exchange; the kernel marks hashes spanning >= 2 sources with a
    vectorized run test; per-source counts collapse to a bounded second
    exchange.  Exactness: pure integer counts over the 128-bit content
    hash (the oracle replays membership via md5 grouping — both are
    collision-free at driver scale)."""
    import ray.data

    from anomalydetection_ray.stages.runs import partition_apply, run_starts

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source", "text"])

    def hash_partial(batch: pa.Table) -> pa.Table:
        h1, h2 = content_hash_cols(batch)
        t = pa.table({"h1": h1, "h2": h2,
                      "source": batch.column("source"),
                      "one": pa.array(np.ones(batch.num_rows,
                                              dtype=np.int64))})
        g = t.group_by(["h1", "h2", "source"]).aggregate([("one", "sum")])
        return pa.table({"h1": g.column("h1"), "h2": g.column("h2"),
                         "source": g.column("source"),
                         "n_docs": g.column("one_sum").cast(pa.int64())})

    partials = ds.map_batches(hash_partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def kernel(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({"source": pa.array([], type=pa.string()),
                             "n_cross": pa.array([], type=pa.int64())})
        part = part.sort_by(
            [("h1", "ascending"), ("h2", "ascending"),
             ("source", "ascending")])
        # merge per-block partials: runs keyed on (h1, h2, source)
        starts3 = run_starts(part, ["h1", "h2", "source"])
        n3 = np.add.reduceat(
            np.asarray(part.column("n_docs"), dtype=np.int64), starts3)
        sub = part.take(pa.array(starts3, type=pa.int64()))
        starts2 = run_starts(sub, ["h1", "h2"])
        span = np.diff(np.append(starts2, sub.num_rows))
        multi = np.repeat(span >= 2, span)      # hash spans >= 2 sources
        t = pa.table({"source": sub.column("source"),
                      "n_cross": pa.array(np.where(multi, n3, 0),
                                          type=pa.int64())})
        g = t.group_by(["source"]).aggregate([("n_cross", "sum")])
        return pa.table({"source": g.column("source"),
                         "n_cross": g.column("n_cross_sum").cast(
                             pa.int64())})

    cross = (partition_apply(partials, ["h1", "h2"], kernel, num_partitions)
             .groupby("source").sum("n_cross"))

    def totals_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("source").aggregate([([], "count_all")])
        return pa.table({"source": g.column("source"),
                         "n_docs": g.column("count_all").cast(pa.int64())})

    totals = (ds.map_batches(totals_partial, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby("source").sum("n_docs").take_all())
    tot = {r["source"]: int(r["sum(n_docs)"]) for r in totals}

    def finalize(batch: pa.Table) -> pa.Table:
        src = batch.column("source").to_pylist()
        nc = np.asarray(batch.column("sum(n_cross)"), dtype=np.int64)
        nd = np.asarray([tot[s] for s in src], dtype=np.int64)
        return pa.table({
            "source": pa.array(src, type=pa.string()),
            "n_docs": pa.array(nd, type=pa.int64()),
            "n_cross_dup": pa.array(nc, type=pa.int64()),
            "cross_frac": pa.array(nc.astype(np.float64)
                                   / nd.astype(np.float64),
                                   type=pa.float64()),
        })

    return cross.map_batches(finalize, batch_format="pyarrow")


def d15_minhash_calibration(sf_dir: str, n: int = 3):
    """D15 — MinHash estimator calibration audit: for every LSH
    candidate pair, bucket the 64-permutation ESTIMATE (exact integer
    k = matching permutations) against the EXACT word-3-gram
    intersection/union counts — the sketch-quality curve that tells an
    operator whether the banding threshold is biased before they trust
    it on 10^12 pairs.  Per k-bucket: pair count and exact integer
    inter/union sums (sums of ratios would be order-dependent floats;
    sums of the int numerators are exact and let the reader form any
    calibration ratio they want).

    Scale shape: the near-dup candidate machinery unchanged (banded
    exchange, co-partitioned text attach, per-unique-doc gram sets);
    the calibration rollup collapses to <= 65 bucket rows per block
    before ONE bounded exchange."""
    cands = minhash_lsh_pairs(sf_dir, min_est=0.2).select_columns(
        ["doc_a", "doc_b", "est_jaccard"])
    docs = _docs(sf_dir)
    with_a = attach_payload(cands, docs, "doc_a", "text", "_text_a")
    with_ab = attach_payload(with_a, docs, "doc_b", "text", "_text_b")

    def verify(batch: pa.Table) -> pa.Table:
        empty = pa.table({"k": pa.array([], type=pa.int64()),
                          "n_pairs": pa.array([], type=pa.int64()),
                          "inter_sum": pa.array([], type=pa.int64()),
                          "union_sum": pa.array([], type=pa.int64())})
        nb = batch.num_rows
        if nb == 0:
            return empty
        a = batch.column("doc_a").to_numpy(zero_copy_only=False)
        b = batch.column("doc_b").to_numpy(zero_copy_only=False)
        uniq, first_pos, inv = np.unique(
            np.concatenate([a, b]), return_index=True,
            return_inverse=True)
        chunks = [c for col in (batch.column("_text_a"),
                                batch.column("_text_b"))
                  for c in (col.chunks
                            if isinstance(col, pa.ChunkedArray)
                            else [col])]
        texts_u = pa.concat_arrays(chunks).take(
            pa.array(first_pos, type=pa.int64()))
        grams, roffs = gram_sets(texts_u, n)
        sizes = np.diff(roffs)
        ia, ib = inv[:nb], inv[nb:]
        inter = np.empty(nb, dtype=np.int64)
        for i in range(nb):
            ga = grams[roffs[ia[i]]:roffs[ia[i] + 1]]
            gb = grams[roffs[ib[i]]:roffs[ib[i] + 1]]
            inter[i] = np.intersect1d(ga, gb, assume_unique=True).size
        union = sizes[ia] + sizes[ib] - inter
        est = np.asarray(batch.column("est_jaccard"), dtype=np.float64)
        k = np.floor(est * 64.0 + 0.5).astype(np.int64)
        t = pa.table({"k": pa.array(k, type=pa.int64()),
                      "one": pa.array(np.ones(nb, dtype=np.int64)),
                      "inter": pa.array(inter, type=pa.int64()),
                      "un": pa.array(union.astype(np.int64))})
        g = t.group_by(["k"]).aggregate([("one", "sum"),
                                         ("inter", "sum"), ("un", "sum")])
        return pa.table({"k": g.column("k"),
                         "n_pairs": g.column("one_sum").cast(pa.int64()),
                         "inter_sum": g.column("inter_sum").cast(
                             pa.int64()),
                         "union_sum": g.column("un_sum").cast(pa.int64())})

    agg = (with_ab.map_batches(verify, batch_format="pyarrow")
           .groupby("k").sum(["n_pairs", "inter_sum", "union_sum"]))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "k": batch.column("k").cast(pa.int64()),
            "n_pairs": batch.column("sum(n_pairs)").cast(pa.int64()),
            "inter_sum": batch.column("sum(inter_sum)").cast(pa.int64()),
            "union_sum": batch.column("sum(union_sum)").cast(pa.int64()),
        })

    return agg.map_batches(finalize, batch_format="pyarrow")


def d16_prefix_groups(sf_dir: str, prefix_len: int = 32,
                      num_partitions: int = 16):
    """D16 — shared-prefix template detector: groups of documents whose
    first ``prefix_len`` characters are identical (the boilerplate
    header / generated-template signal that catches near-dups whose
    TAILS diverge too much for MinHash).  Emits every prefix shared by
    >= 2 docs with its doc count and distinct-source count.

    Scale shape: the prefix IS the key — each block collapses to
    distinct (prefix, doc-count, source-set partials), one prefix-keyed
    exchange, vectorized run merge.  No text beyond ``prefix_len``
    bytes ever ships."""
    import pyarrow.compute as pc
    import ray.data

    from anomalydetection_ray.stages.runs import partition_apply, run_starts

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        prefix = pc.utf8_slice_codeunits(text, 0, prefix_len)
        t = pa.table({"prefix": prefix,
                      "source": batch.column("source"),
                      "one": pa.array(np.ones(batch.num_rows,
                                              dtype=np.int64))})
        g = t.group_by(["prefix", "source"]).aggregate([("one", "sum")])
        return pa.table({"prefix": g.column("prefix"),
                         "source": g.column("source"),
                         "n": g.column("one_sum").cast(pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def kernel(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({"prefix": pa.array([], type=pa.string()),
                             "n_docs": pa.array([], type=pa.int64()),
                             "n_sources": pa.array([], type=pa.int64())})
        part = part.sort_by(
            [("prefix", "ascending"), ("source", "ascending")])
        n = part.num_rows
        starts3 = run_starts(part, ["prefix", "source"])
        cnt = np.add.reduceat(
            np.asarray(part.column("n"), dtype=np.int64), starts3)
        sub = part.take(pa.array(starts3, type=pa.int64()))
        starts = run_starts(sub, ["prefix"])
        span = np.diff(np.append(starts, sub.num_rows))
        docs = np.add.reduceat(cnt, starts)
        keep = docs >= 2
        return pa.table({
            "prefix": sub.column("prefix").take(
                pa.array(starts, type=pa.int64())).filter(
                pa.array(keep)),
            "n_docs": pa.array(docs[keep], type=pa.int64()),
            "n_sources": pa.array(span[keep].astype(np.int64),
                                  type=pa.int64()),
        })

    return partition_apply(partials, ["prefix"], kernel, num_partitions)


def x8_source_homophily(sf_dir: str, min_est: float = 0.5):
    """X8 — source HOMOPHILY of the near-dup graph (Newman 2003
    category mixing): the fraction of dup edges whose endpoints share a
    source, against the expected fraction under independent endpoint
    mixing (sum of squared endpoint-source shares), summarized by the
    assortativity-style Q = (e_same - expected) / (1 - expected) — Q
    near 1 means duplication is an intra-source phenomenon (templates),
    Q near 0 means cross-source copying dominates.  The scalar summary
    of D9's matrix.

    Exactness: edge counts and endpoint-source counts are exact ints;
    expected = a pinned fold over sources (alphabetical) of
    (float(c_s)/float(2E))^2; e_same and Q are pinned divisions.

    Scale shape: D9's bounded matrix machinery — here only the edge
    endpoints' source labels flow (two co-partitioned lookups), then
    per-block partial counts collapse to the bounded source domain."""
    import math

    import ray.data

    pairs = minhash_lsh_pairs(sf_dir, min_est=min_est).select_columns(
        ["doc_a", "doc_b"])
    src = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                columns=["doc_id", "source"])
    from anomalydetection_ray.stages.join import copartition_attach

    with_a = copartition_attach(pairs, src, "doc_a", "doc_id",
                                ["source"])
    with_a = with_a.map_batches(
        lambda b: pa.table({"doc_b": b.column("doc_b"),
                            "src_a": b.column("source")}),
        batch_format="pyarrow", zero_copy_batch=True)
    with_ab = copartition_attach(with_a, src, "doc_b", "doc_id",
                                 ["source"])

    def partial(batch: pa.Table) -> pa.Table:
        sa = np.asarray(batch.column("src_a"), dtype=object)
        sb = np.asarray(batch.column("source"), dtype=object)
        same = (sa == sb).astype(np.int64)
        # endpoint-source counts (both ends)
        ends = np.concatenate([sa, sb])
        uniq, cnt = np.unique(ends.astype(str), return_counts=True)
        t2 = pa.table({"source": pa.array(list(uniq), type=pa.string()),
                       "n_ends": pa.array(cnt.astype(np.int64),
                                          type=pa.int64())})
        # two relations in one union-friendly schema
        return pa.table({
            "source": pa.concat_arrays([
                pa.array(["\x00edges"], type=pa.string()),
                t2.column("source").combine_chunks()]),
            "a": pa.concat_arrays([
                pa.array([batch.num_rows], type=pa.int64()),
                t2.column("n_ends").combine_chunks()]),
            "b": pa.concat_arrays([
                pa.array([int(same.sum())], type=pa.int64()),
                pa.array(np.zeros(len(uniq), dtype=np.int64))]),
        })

    agg = (with_ab.map_batches(partial, batch_format="pyarrow")
           .groupby("source").sum(["a", "b"]).take_all())
    n_edges = n_same = 0
    ends = {}
    for r in agg:
        if r["source"] == "\x00edges":
            n_edges = int(r["sum(a)"])
            n_same = int(r["sum(b)"])
        else:
            ends[r["source"]] = int(r["sum(a)"])
    tot_ends = 2 * n_edges
    expected = 0.0
    for s in sorted(ends):                # alphabetical pinned fold
        p = float(ends[s]) / float(tot_ends)
        expected = expected + p * p
    e_same = float(n_same) / float(n_edges) if n_edges else None
    q = ((e_same - expected) / (1.0 - expected)
         if n_edges and expected < 1.0 else None)
    return ray.data.from_arrow(pa.table({
        "n_edges": pa.array([n_edges], type=pa.int64()),
        "n_same_source": pa.array([n_same], type=pa.int64()),
        "e_same": pa.array([e_same], type=pa.float64(),
                           from_pandas=True),
        "expected": pa.array([expected], type=pa.float64()),
        "q_homophily": pa.array([q], type=pa.float64(),
                                from_pandas=True),
    }))


def d17_sketch_agreement(sf_dir: str, num_partitions: int = 16):
    """D17 — cross-SKETCH agreement audit (evaluation family #5): the
    MinHash-LSH and SimHash near-dup pipelines run over the same corpus
    and their candidate-pair sets are compared — pair-set sizes,
    intersection, and Jaccard agreement.  Two independent sketches
    agreeing is the cheap confidence signal that neither family's
    banding knobs are silently broken; divergence localizes which
    recall regime each sketch owns.

    Scale shape: both pair relations stay distributed; the set algebra
    is ONE exchange on the packed pair key (groupby + tag counts), and
    only the four summary integers reach the driver."""
    import ray.data

    from anomalydetection_ray.stages.runs import agg_by

    mh = minhash_lsh_pairs(sf_dir, min_est=0.5).select_columns(
        ["doc_a", "doc_b"])
    sh = simhash_pairs(sf_dir).select_columns(["doc_a", "doc_b"])

    def tag(which: int):
        def f(batch: pa.Table) -> pa.Table:
            a = np.asarray(batch.column("doc_a"), dtype=np.int64)
            b = np.asarray(batch.column("doc_b"), dtype=np.int64)
            # key on the two int64 columns directly — a packed
            # (lo << 32) | hi key would silently collide distinct pairs
            # once doc ids exceed 2^32
            return pa.table({
                "pair_lo": pa.array(np.minimum(a, b), type=pa.int64()),
                "pair_hi": pa.array(np.maximum(a, b), type=pa.int64()),
                "in_mh": pa.array(np.full(len(a), 1 - which,
                                          dtype=np.int64)),
                "in_sh": pa.array(np.full(len(a), which,
                                          dtype=np.int64)),
            })
        return f

    both = (mh.map_batches(tag(0), batch_format="pyarrow",
                           zero_copy_batch=True)
            .union(sh.map_batches(tag(1), batch_format="pyarrow",
                                  zero_copy_batch=True)))
    merged = agg_by(both, ["pair_lo", "pair_hi"],
                    [("in_mh", "sum", "in_mh"),
                     ("in_sh", "sum", "in_sh")])

    def partial(batch: pa.Table) -> pa.Table:
        m = np.asarray(batch.column("in_mh"), dtype=np.int64) > 0
        s = np.asarray(batch.column("in_sh"), dtype=np.int64) > 0
        return pa.table({
            "n_mh": pa.array([int(m.sum())], type=pa.int64()),
            "n_sh": pa.array([int(s.sum())], type=pa.int64()),
            "n_both": pa.array([int((m & s).sum())], type=pa.int64()),
            "n_union": pa.array([batch.num_rows], type=pa.int64()),
        })

    rows = merged.map_batches(partial,
                              batch_format="pyarrow").take_all()
    n_mh = sum(int(r["n_mh"]) for r in rows)
    n_sh = sum(int(r["n_sh"]) for r in rows)
    n_both = sum(int(r["n_both"]) for r in rows)
    n_union = sum(int(r["n_union"]) for r in rows)
    return ray.data.from_arrow(pa.table({
        "n_minhash_pairs": pa.array([n_mh], type=pa.int64()),
        "n_simhash_pairs": pa.array([n_sh], type=pa.int64()),
        "n_both": pa.array([n_both], type=pa.int64()),
        "n_union": pa.array([n_union], type=pa.int64()),
        "agreement": pa.array([float(n_both) / float(n_union)
                               if n_union else None],
                              type=pa.float64(), from_pandas=True),
    }))


# ------------------------------------------------------------- D19 ----
def d19_keep_best_dedup(sf_dir: str):
    """D19 — quality-aware exact dedup: one row per 128-bit content-hash
    group, keeping the LONGEST document (max n_chars, ties -> min
    doc_id) instead of D1's keep-first — the policy real curation
    pipelines want when near-identical scrapes differ by truncation.

    Scale shape: identical to D1 (`exact_dedup`) — vectorized flat-buffer
    hash pass, ONE `keep_first_by` hash exchange; the only change is the
    ordering column (`neg_chars = -n_chars` so ascending first-of-run =
    longest doc).  Zero per-row Python anywhere."""
    import pyarrow.compute as pc
    import ray.data

    from anomalydetection_ray.stages.runs import keep_first_by

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text", "n_chars"])

    def hash_batch(batch: pa.Table) -> pa.Table:
        h1, h2 = content_hash_cols(batch)
        nc = batch.column("n_chars").cast(pa.int64())
        return pa.table({"h1": h1, "h2": h2,
                         "doc_id": batch.column("doc_id"),
                         "n_chars": nc,
                         "neg_chars": pc.negate_checked(nc)})

    hashed = docs.map_batches(hash_batch, batch_format="pyarrow",
                              zero_copy_batch=True)
    best = keep_first_by(hashed, keys=["h1", "h2"],
                         order_by=["neg_chars", "doc_id"])
    return best.map_batches(
        lambda b: b.drop_columns(["neg_chars"]),
        batch_format="pyarrow", zero_copy_batch=True)


# ------------------------------------------------------------- X9 ----
def x9_dup_degree_hist(sf_dir: str, min_est: float = 0.5):
    """X9 — degree histogram of the near-dup graph: how many docs have
    1, 2, 3... near-duplicates — the graph-shape profile that tells a
    curation run whether duplication is pairwise scatter (degree 1-2)
    or template hubs (fat tail), and therefore whether CC clustering
    (X5's input) will explode.

    Scale shape: only (doc, 1) endpoint rows flow from the pair
    relation; ONE exchange to per-doc degrees, a second bounded
    exchange onto the tiny degree domain.  Exact int64 everywhere."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    pairs = minhash_lsh_pairs(sf_dir, min_est=min_est).select_columns(
        ["doc_a", "doc_b"])

    def endpoints(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a")
        b = batch.column("doc_b")
        if isinstance(a, pa.ChunkedArray):
            a = a.combine_chunks()
        if isinstance(b, pa.ChunkedArray):
            b = b.combine_chunks()
        doc = pa.concat_arrays([a.cast(pa.int64()), b.cast(pa.int64())])
        t = pa.table({"doc": doc})
        g = t.group_by(["doc"]).aggregate([([], "count_all")])
        return pa.table({"doc": g.column("doc"),
                         "degree": pc.cast(g.column("count_all"),
                                           pa.int64())})

    deg = (pairs.map_batches(endpoints, batch_format="pyarrow",
                             zero_copy_batch=True)
           .groupby("doc").aggregate(Sum("degree",
                                         alias_name="degree")))

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"degree": batch.column("degree").cast(pa.int64())})
        g = t.group_by(["degree"]).aggregate([([], "count_all")])
        return pa.table({"degree": g.column("degree"),
                         "n_docs": pc.cast(g.column("count_all"),
                                           pa.int64())})

    hist = (deg.map_batches(partial, batch_format="pyarrow")
            .groupby("degree").aggregate(Sum("n_docs",
                                             alias_name="n_docs")))

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "degree": batch.column("degree").cast(pa.int64()),
            "n_docs": batch.column("n_docs").cast(pa.int64()),
        })

    return hist.map_batches(finalize, batch_format="pyarrow")


# ------------------------------------------------------------- D20 ----
def d20_top_dup_sentences(sf_dir: str, k: int = 25):
    """D20 — the top-k most duplicated SENTENCES corpus-wide (by total
    occurrences, ties by sentence text): T17 tells you HOW MUCH
    boilerplate a source carries; this shows you WHICH sentences — the
    actionable blocklist a curation pass feeds back into scrubbing.
    Sentence convention = T17's ``split_pattern(text, ". ")`` minus
    empties.

    Scale shape: per-block (sentence, doc) occurrence counts collapse
    before ONE sentence-hash `partition_apply` exchange; each partition
    prunes to its local top-k before the tiny global sort — the
    vocab-topk discipline at sentence granularity."""
    import ray.data

    from anomalydetection_ray.stages.runs import partition_apply

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        sents = pc.split_pattern(text, ". ")
        flat = pc.list_flatten(sents)
        row_of = np.asarray(pc.list_parent_indices(sents),
                            dtype=np.int64)
        keep = np.asarray(pc.not_equal(flat, ""))
        doc = np.asarray(batch.column("doc_id"),
                         dtype=np.int64)[row_of[keep]]
        t = pa.table({"sent": flat.filter(pa.array(keep)),
                      "doc": pa.array(doc, type=pa.int64())})
        g = t.group_by(["sent", "doc"]).aggregate([([], "count_all")])
        return pa.table({"sent": g.column("sent"),
                         "doc": g.column("doc"),
                         "c": g.column("count_all").cast(pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)

    def kernel(part: pa.Table) -> pa.Table:
        from anomalydetection_ray.stages.runs import run_starts

        empty = pa.table({"sent": pa.array([], type=pa.string()),
                          "n_occ": pa.array([], type=pa.int64()),
                          "n_docs": pa.array([], type=pa.int64())})
        if part.num_rows == 0:
            return empty
        part = part.sort_by([("sent", "ascending"),
                             ("doc", "ascending")])
        c = np.asarray(part.column("c"), dtype=np.int64)
        sstarts = run_starts(part, ["sent"])
        sends = np.append(sstarts[1:], part.num_rows)
        dstarts = run_starts(part, ["sent", "doc"])
        n_docs = (np.searchsorted(dstarts, sends, side="left")
                  - np.searchsorted(dstarts, sstarts, side="left"))
        cc = np.concatenate(([0], np.cumsum(c)))
        n_occ = cc[sends] - cc[sstarts]
        sent = part.column("sent")
        if isinstance(sent, pa.ChunkedArray):
            sent = sent.combine_chunks()
        t = pa.table({
            "sent": sent.take(pa.array(sstarts, type=pa.int64())),
            "n_occ": pa.array(n_occ, type=pa.int64()),
            "n_docs": pa.array(n_docs, type=pa.int64()),
        })
        # local prune: only this partition's top-k can reach the global
        # top-k (sentences never span partitions — hash-keyed)
        order = np.lexsort((
            np.asarray(t.column("sent")).astype("U"), -n_occ))[:k]
        return t.take(pa.array(np.sort(order), type=pa.int64()))

    pruned = partition_apply(partials, keys=["sent"], kernel=kernel)
    return (pruned.sort(["n_occ", "sent"],
                        descending=[True, False]).limit(k))


# ---------------------------------------------------------------- D22 ----
def d22_normalized_dedup(sf_dir: str):
    """D22 — normalization-aware exact dedup audit: distinct-content
    group counts under the RAW text versus under the canonical form
    ``lower(collapse-whitespace(trim))`` — the near-exact copies
    (re-encoded, re-wrapped, case-mangled mirrors) that raw hashing
    misses and MinHash doesn't need to catch; ``extra_dups`` = groups
    merged only by normalization, the honest size of that blind spot.

    Scale shape: both hash passes are the vectorized flat-buffer
    content hash; per-block DISTINCT (kind, h) partials collapse before
    ONE exchange (`keep_first_by`), per-block counts of the survivors
    collapse again, and only (kind, count) partials reach the final
    single-row widen.  Oracle: COUNT(DISTINCT text) vs COUNT(DISTINCT
    normalized) — independent route, no hash replay."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from anomalydetection_ray.stages.runs import keep_first_by

    def hash_both(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        norm = pc.utf8_lower(pc.utf8_trim_whitespace(
            pc.replace_substring_regex(text, r"\s+", " ")))
        out = []
        for kind, col in (("raw", text), ("norm", norm)):
            t = pa.table({"doc_id": batch.column("doc_id"),
                          "text": col})
            h1, h2 = content_hash_cols(t)
            out.append(pa.table({
                "kind": pa.array([kind] * batch.num_rows,
                                 type=pa.string()),
                "h1": h1, "h2": h2,
            }))
        both = pa.concat_tables(out)
        return both.group_by(["kind", "h1", "h2"]).aggregate([])

    docs = _docs(sf_dir)
    n_docs = docs.count()                    # tiny eager scalar
    distinct = keep_first_by(
        docs.map_batches(hash_both, batch_format="pyarrow",
                         zero_copy_batch=True),
        keys=["kind", "h1", "h2"])

    def block_counts(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["kind"]).aggregate([([], "count_all")])
        return pa.table({"kind": g.column("kind"),
                         "n": g.column("count_all").cast(pa.int64())})

    per_kind = (distinct.map_batches(block_counts,
                                     batch_format="pyarrow")
                .groupby("kind").aggregate(Sum("n", alias_name="n")))

    def widen(group: pa.Table) -> pa.Table:
        m = dict(zip(group.column("kind").to_pylist(),
                     [int(v) for v in group.column("n").to_pylist()]))
        raw, norm = m.get("raw", 0), m.get("norm", 0)
        return pa.table({
            "n_docs": pa.array([n_docs], type=pa.int64()),
            "n_raw_groups": pa.array([raw], type=pa.int64()),
            "n_norm_groups": pa.array([norm], type=pa.int64()),
            "extra_dups": pa.array([raw - norm], type=pa.int64()),
        })

    return per_kind.repartition(1).map_batches(widen, batch_format="pyarrow")


# ---------------------------------------------------------------- D23 ----
def d23_cluster_keep_best(sf_dir: str, min_est: float = 0.5,
                          num_partitions: int = 16):
    """D23 — cluster-aware keep-best dedup: ONE survivor per NEAR-dup
    cluster (X-family connected components over the MinHash-LSH pair
    graph), keeping the longest member (max n_chars, ties -> min
    doc_id); unclustered docs survive as their own singleton cluster.
    D19 applies this policy to exact-hash groups; this is the policy
    production curation actually ships — near-identical scrapes differ
    by truncation, and the cluster, not the hash bucket, is the
    dedup unit.

    Scale shape: the cluster labels come from the existing bounded
    label-propagation CC (`dup_clusters`); labels attach to the doc
    table via ONE co-partitioned join (nulls = singleton -> own id),
    and the survivor per cluster is ONE `keep_first_by` exchange on
    the cluster key.  Oracle: the dedup_clusters recursive-CTE CC +
    row_number keep-best — an independent route to the same clusters."""
    import pyarrow.compute as pc
    import ray.data

    from anomalydetection_ray.stages.join import copartition_attach
    from anomalydetection_ray.stages.runs import keep_first_by

    clusters = dup_clusters(sf_dir, min_est=min_est)
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "n_chars"])
    with_cl = copartition_attach(docs, clusters, "doc_id", "doc_id",
                                 ["cluster"],
                                 num_partitions=num_partitions)

    def fill(batch: pa.Table) -> pa.Table:
        cl = batch.column("cluster")
        if isinstance(cl, pa.ChunkedArray):
            cl = cl.combine_chunks()
        did = batch.column("doc_id").cast(pa.int64())
        nc = batch.column("n_chars").cast(pa.int64())
        return pa.table({
            "doc_id": did,
            "cluster": pc.coalesce(cl.cast(pa.int64()), did),
            "n_chars": nc,
            "neg_chars": pc.negate_checked(nc),
        })

    filled = with_cl.map_batches(fill, batch_format="pyarrow",
                                 zero_copy_batch=True)
    best = keep_first_by(filled, keys=["cluster"],
                         order_by=["neg_chars", "doc_id"])
    return best.map_batches(
        lambda b: b.select(["doc_id", "cluster", "n_chars"]),
        batch_format="pyarrow")


# ---------------------------------------------------------------- D25 ----
def d25_trigram_redundancy(sf_dir: str):
    """D25 — word-trigram redundancy per source: total vs DISTINCT
    within-doc word 3-grams and the distinct share — the substring-
    dedup savings estimator (a low distinct share means a substring/
    paragraph-level dedup pass would pay; T14 measures how much of
    each DOC is duplicated n-grams, this says where, by source, the
    corpus-level redundancy lives).

    Scale shape: V7's two-level exact-distinct discipline lifted to
    trigrams — per-block (source, g1, g2, g3) partial counts collapse
    before ONE exchange on the gram key; the per-source rollup ships
    only (source, n_distinct, n_total) partials.  share is ONE pinned
    division."""
    import pyarrow.compute as pc
    import ray.data
    from ray.data.aggregate import Sum

    from anomalydetection_ray.stages.runs import agg_by

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
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
        n = len(flat)
        empty = pa.table({
            "source": pa.array([], type=pa.string()),
            "g1": pa.array([], type=pa.string()),
            "g2": pa.array([], type=pa.string()),
            "g3": pa.array([], type=pa.string()),
            "n": pa.array([], type=pa.int64()),
        })
        if n < 3:
            return empty
        ok = (parent[:-2] == parent[1:-1]) & (parent[1:-1] == parent[2:])
        if not ok.any():
            return empty
        sel = pa.array(ok)
        src = batch.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        g = pa.table({
            "source": src.take(pa.array(parent[:-2][ok])),
            "g1": flat.slice(0, n - 2).filter(sel),
            "g2": flat.slice(1, n - 2).filter(sel),
            "g3": flat.slice(2, n - 2).filter(sel),
        }).group_by(["source", "g1", "g2", "g3"]).aggregate(
            [([], "count_all")])
        return pa.table({
            "source": g.column("source"), "g1": g.column("g1"),
            "g2": g.column("g2"), "g3": g.column("g3"),
            "n": g.column("count_all").cast(pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    totals = agg_by(partials, ["source", "g1", "g2", "g3"],
                    [("n", "sum", "n")])

    def rollup(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["source"]).aggregate([([], "count_all"),
                                                  ("n", "sum")])
        return pa.table({
            "source": g.column("source"),
            "n_distinct": g.column("count_all").cast(pa.int64()),
            "n_total": g.column("n_sum").cast(pa.int64()),
        })

    agg = (totals.map_batches(rollup, batch_format="pyarrow")
           .groupby("source")
           .aggregate(Sum("n_distinct", alias_name="n_distinct"),
                      Sum("n_total", alias_name="n_total")))

    def finish(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch.column("n_distinct"), dtype=np.int64)
        t = np.asarray(batch.column("n_total"), dtype=np.int64)
        share = np.zeros(d.shape[0], dtype=np.float64)
        np.divide(d.astype(np.float64), t.astype(np.float64),
                  out=share, where=t > 0)
        return pa.table({
            "source": batch.column("source"),
            "n_total": pa.array(t, type=pa.int64()),
            "n_distinct": pa.array(d, type=pa.int64()),
            "distinct_share": pa.array(share, type=pa.float64(),
                                       mask=t == 0),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def d28_lsh_precision(sf_dir: str, min_cosine: float = 0.3,
                      n_bands: int = 8, band_bits: int = 8):
    """D28 — LSH precision audit: of all banded-LSH candidate pairs,
    how many survive the exact-cosine verify at ``min_cosine`` — the
    "is my band/bit budget wasting verify compute?" tuning readout for
    the dedup_embedding_pairs scale path (low precision -> add bits
    per band; paired with the pytest recall gate it brackets the
    operating point).

    Engine shape: ONE run of the embedding_lsh_pairs pipeline with the
    verify threshold opened to -2 (keeps every candidate + its exact
    cosine), collapsed map-side to a single row of exact int counts;
    precision is the one pinned division."""
    import ray.data  # noqa: F401  (pipeline reuse below owns no session)

    from anomalydetection_ray.stages.detectors import _split_double

    pairs = embedding_lsh_pairs(sf_dir, min_cosine=-2.0,
                                n_bands=n_bands, band_bits=band_bits)

    def partial(batch: pa.Table) -> pa.Table:
        cos = np.asarray(batch.column("cosine"), dtype=np.float64)
        return pa.table({
            "_one": pa.array([0], type=pa.int64()),
            "n_candidates": pa.array([int(cos.shape[0])],
                                     type=pa.int64()),
            "n_confirmed": pa.array([int((cos >= min_cosine).sum())],
                                    type=pa.int64()),
        })

    agg = (pairs.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)
           .groupby("_one").sum(["n_candidates", "n_confirmed"]))

    def widen(batch: pa.Table) -> pa.Table:
        cand = int(batch.column("sum(n_candidates)")[0].as_py())
        conf = int(batch.column("sum(n_confirmed)")[0].as_py())
        prec = (_split_double(conf) / _split_double(cand)
                if cand > 0 else None)
        return pa.table({
            "n_candidates": pa.array([cand], type=pa.int64()),
            "n_confirmed": pa.array([conf], type=pa.int64()),
            "lsh_precision": pa.array([prec], type=pa.float64(),
                                      from_pandas=True),
        })

    return agg.map_batches(widen, batch_format="pyarrow")


def x16_two_hop_reach(sf_dir: str, min_est: float = 0.5,
                      num_partitions: int = 16):
    """X16 — two-hop reach per document over the near-dup graph: the
    count of DISTINCT documents within <= 2 hops (self excluded) — the
    "how big is this doc's duplication neighborhood really?" traversal
    readout between X9's 1-hop degrees and X5's full components (a
    reach far above the degree means chained/transitive duplication
    that pairwise dedup would miss).

    Scale shape: symmetric edges route to their MIDDLE node's
    partition (one hash exchange); each partition emits its middles'
    (u, w) wedge pairs + the 1-hop pairs; a distinct on (u, w) and a
    per-u count finish it.  Exact counts; the wedge fanout is bounded
    by the per-partition degree mass (the X9 histogram is the audit
    that this stays sparse)."""
    import pyarrow.compute as pc

    from anomalydetection_ray.stages.runs import partition_apply

    pairs = minhash_lsh_pairs(sf_dir, min_est=min_est).select_columns(
        ["doc_a", "doc_b"])

    def sym(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column("doc_a"), dtype=np.int64)
        b = np.asarray(batch.column("doc_b"), dtype=np.int64)
        return pa.table({
            "u": pa.array(np.concatenate([a, b]), type=pa.int64()),
            "mid": pa.array(np.concatenate([b, a]), type=pa.int64()),
        })

    edges = pairs.map_batches(sym, batch_format="pyarrow",
                              zero_copy_batch=True)

    def wedges(group: pa.Table) -> pa.Table:
        u = np.asarray(group.column("u"), dtype=np.int64)
        m = np.asarray(group.column("mid"), dtype=np.int64)
        order = np.argsort(m, kind="stable")
        u, m = u[order], m[order]
        starts = np.flatnonzero(np.concatenate(([True],
                                                m[1:] != m[:-1])))
        lens = np.diff(np.append(starts, m.shape[0]))
        outs_u, outs_w = [np.concatenate([u, m])], \
            [np.concatenate([m, u])]  # 1-hop pairs, both directions
        for s, ln in zip(starts, lens):   # per-middle wedge expansion
            nb = u[s:s + ln]
            if ln > 1:
                gu = np.repeat(nb, ln)
                gw = np.tile(nb, ln)
                keep = gu != gw
                outs_u.append(gu[keep])
                outs_w.append(gw[keep])
        t = pa.table({
            "u": pa.array(np.concatenate(outs_u), type=pa.int64()),
            "w": pa.array(np.concatenate(outs_w), type=pa.int64()),
        })
        return t.group_by(["u", "w"]).aggregate([])  # local distinct

    cand = partition_apply(edges, ["mid"], wedges, num_partitions)
    distinct = cand.groupby(["u", "w"]).count()

    def per_u(batch: pa.Table) -> pa.Table:
        t = pa.table({"u": batch.column("u"),
                      "one": pa.array(np.ones(batch.num_rows,
                                              dtype=np.int64))})
        g = t.group_by(["u"]).aggregate([("one", "sum")])
        return pa.table({"doc": g.column("u"),
                         "reach2": g.column("one_sum").cast(
                             pa.int64())})

    return (distinct.map_batches(per_u, batch_format="pyarrow")
            .groupby("doc").sum("reach2")
            .map_batches(lambda b: pa.table({
                "doc": b.column("doc"),
                "reach2": b.column("sum(reach2)")}),
                batch_format="pyarrow"))


def _word_hash_sets(texts) -> tuple[np.ndarray, np.ndarray]:
    """(sorted-distinct word-hash flat buffer, row offsets) for a text
    column under the boundary/lowercase tokenizer (word_hashes) — the
    1-gram analogue of gram_sets; Jaccard counts over the 64-bit
    hashes equal counts over the words themselves up to negligible
    collisions (gram_sets' documented argument)."""
    from anomalydetection_ray.pipelines.text import _flat_utf8

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    texts = texts.fill_null("")
    nrows = len(texts)
    flat, offs = _flat_utf8(pa.table({"t": texts}), "t")
    hw, doc_of = word_hashes(flat, offs)
    order = np.lexsort((hw, doc_of))
    hw, doc_of = hw[order], doc_of[order]
    keep = np.concatenate(([True], (doc_of[1:] != doc_of[:-1])
                           | (hw[1:] != hw[:-1])))
    hw, doc_of = hw[keep], doc_of[keep]
    roffs = np.zeros(nrows + 1, dtype=np.int64)
    np.add.at(roffs, doc_of + 1, 1)
    return hw, np.cumsum(roffs)


def d26_prefix_filter_join(sf_dir: str, num_partitions: int = 16):
    """D26 — EXACT set-similarity self-join by prefix filtering (the
    PPJoin/All-Pairs family, Chaudhuri et al. 2006 / Xiao et al.
    2008): every document pair whose distinct-word Jaccard >= 4/5,
    found WITHOUT sketches and WITHOUT the all-pairs grid.  The prefix
    lemma does the pruning: under any fixed token order, two sets with
    J >= tau must share a token within each other's first
    |d| - ceil(tau*|d|) + 1 tokens — so only prefix-token collisions
    become candidates, and the exact verify touches nothing else.
    The registered result therefore EQUALS the brute-force oracle by
    algebra, which is exactly what the driver certifies.

    Exactness: the threshold is the integer compare 5*inter >=
    3*union (never a float decision); jaccard is the pinned division.
    Token order here is hash-ascending; ordering by ascending global
    frequency is the standard candidate-count optimization and slots
    into the same exchange when corpus skew demands it.

    Scale shape: prefix emission is map-side; ONE exchange on the
    prefix token builds candidates; pair dedupe + two co-partitioned
    text attaches (the LSH families' machinery); per-pair exact
    verify bounded by candidate volume."""
    from anomalydetection_ray.stages.runs import keep_first_by, partition_apply

    docs = _docs(sf_dir)

    def prefixes(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        hw, roffs = _word_hash_sets(batch.column("text"))
        sz = np.diff(roffs)
        p = sz - (4 * sz + 4) // 5 + 1      # tau = 4/5 prefix length
        p = np.maximum(p, 0)
        out_h, out_d = [], []
        for i in range(ids.shape[0]):
            if sz[i] == 0:
                continue
            k = int(p[i])
            out_h.append(hw[roffs[i]:roffs[i] + k])
            out_d.append(np.full(k, ids[i], dtype=np.int64))
        if not out_h:
            return pa.table({
                "h": pa.array([], type=pa.uint64()),
                "doc": pa.array([], type=pa.int64())})
        return pa.table({
            "h": pa.array(np.concatenate(out_h), type=pa.uint64()),
            "doc": pa.array(np.concatenate(out_d), type=pa.int64()),
        })

    pref = docs.map_batches(prefixes, batch_format="pyarrow",
                            zero_copy_batch=True)

    def pairs_kernel(group: pa.Table) -> pa.Table:
        h = np.asarray(group.column("h"))
        d = np.asarray(group.column("doc"), dtype=np.int64)
        order = np.lexsort((d, h))
        h, d = h[order], d[order]
        starts = np.flatnonzero(np.concatenate(([True],
                                                h[1:] != h[:-1])))
        lens = np.diff(np.append(starts, h.shape[0]))
        out_a, out_b = [], []
        for s, ln in zip(starts, lens):     # per-token pair fanout
            if ln < 2:
                continue
            seg = d[s:s + ln]
            ga = np.repeat(seg, ln)
            gb = np.tile(seg, ln)
            keep = ga < gb
            out_a.append(ga[keep])
            out_b.append(gb[keep])
        if not out_a:
            return pa.table({
                "doc_a": pa.array([], type=pa.int64()),
                "doc_b": pa.array([], type=pa.int64())})
        t = pa.table({
            "doc_a": pa.array(np.concatenate(out_a),
                              type=pa.int64()),
            "doc_b": pa.array(np.concatenate(out_b),
                              type=pa.int64()),
        })
        return t.group_by(["doc_a", "doc_b"]).aggregate([])

    cands = partition_apply(pref, ["h"], pairs_kernel, num_partitions)
    uniq = keep_first_by(cands, keys=["doc_a", "doc_b"])
    with_a = attach_payload(uniq, docs, "doc_a", "text", "_text_a")
    with_ab = attach_payload(with_a, docs, "doc_b", "text",
                             "_text_b")

    def verify(batch: pa.Table) -> pa.Table:
        from anomalydetection_ray.stages.detectors import _split_double

        P = batch.num_rows
        empty = pa.table({
            "doc_a": pa.array([], type=pa.int64()),
            "doc_b": pa.array([], type=pa.int64()),
            "n_inter": pa.array([], type=pa.int64()),
            "n_union": pa.array([], type=pa.int64()),
            "jaccard": pa.array([], type=pa.float64())})
        if P == 0:
            return empty
        ha, ra = _word_hash_sets(batch.column("_text_a"))
        hb, rb = _word_hash_sets(batch.column("_text_b"))
        inter = np.zeros(P, dtype=np.int64)
        for i in range(P):                  # per-candidate C-level set op
            inter[i] = np.intersect1d(ha[ra[i]:ra[i + 1]],
                                      hb[rb[i]:rb[i + 1]],
                                      assume_unique=True).size
        sza = np.diff(ra)
        szb = np.diff(rb)
        union = sza + szb - inter
        keep = 5 * inter >= 4 * union       # tau = 4/5, exact ints
        kidx = pa.array(np.flatnonzero(keep))
        jac = np.array([_split_double(int(i_))
                        / _split_double(int(u_))
                        for i_, u_ in zip(inter[keep], union[keep])],
                       dtype=np.float64)
        return pa.table({
            "doc_a": batch.column("doc_a").take(kidx).cast(
                pa.int64()),
            "doc_b": batch.column("doc_b").take(kidx).cast(
                pa.int64()),
            "n_inter": pa.array(inter[keep], type=pa.int64()),
            "n_union": pa.array(union[keep], type=pa.int64()),
            "jaccard": pa.array(jac, type=pa.float64()),
        })

    return with_ab.map_batches(verify, batch_format="pyarrow",
                               zero_copy_batch=True)
