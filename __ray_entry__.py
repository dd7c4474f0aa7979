"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash).

Per the contract, nothing here (or in the library) calls ray.init() /
ray.shutdown(); only bench.py, CLI entry points and the test fixture own a
Ray session.

Surface: 447 ``queries()`` entries, 442 with DuckDB value
oracles (the 5 oracle-less are side-effect/codec/approx summaries with
content-pinned rows); the coverage map below lists the founding families —
see COVERAGE.md for the complete per-operator table.

Operator coverage map (SURVEY.md §2.2 -> query name; all listed entries
are SQL-checked — the document tokenizer is reproduced in DuckDB SQL, so
even the flagship rollup over the derived token table is value-checked):
  S1/S3+M1(A1/A4/A5)+G1 -> entry, rollup_tier1_docs, rollup_tier2_docs,
                           topk_anomalies_docs, rollup_events_tier1
  A1                    -> a1_moving_stats_events
  A6                    -> detect_threshold
  S3                    -> s3_token_counts
  M2/M3                 -> m2_filter_lineitem, m3_token_fns
  G2                    -> g2_source_stats, pricing_summary, salted variant
  G3                    -> g3_quantiles_nchars, g3_token_value_quantiles
  Q1/Q2/Q3              -> q1_sort_lineitem, q2_topk_events, q3_sample_lineitem
  Q4/Q5/J6              -> q4_stratified_sample (per-group rates),
                           q5_grouped_topk (pre-pruned per-group top-k),
                           j6_anti_join (co-partitioned anti join)
  D1/D2                 -> d1_dedup_events, dedup_exact_docs, d2_union_tiers
  J1/J3/J4              -> j1_broadcast_join, j3_join_agg,
                           j4_asof_join (distributed backward as-of join
                           vs DuckDB ASOF LEFT JOIN)
  W1/W2/J5              -> w1_sessionize_events (gaps-and-islands
                           sessionization), w2_lag_features_events
                           (per-key lag/delta features),
                           j5_interval_stats (many-to-many interval stab
                           join vs a seeded window table)
  text/dedup extras     -> lang_id, quality_stats, quality_scores_full,
                           token_counts, doc_fingerprints,
                           dedup_embedding_pairs, ann_topk
  dedup extras          -> dedup_minhash_pairs, dedup_simhash_pairs,
                           dedup_ngram_jaccard (full seeded-hash machinery
                           reproduced in mod-2^64 DuckDB arithmetic)
  A2/A3                 -> detect_ewma (recursive-CTE recurrence),
                           detect_esd (unrolled MATERIALIZED iteration +
                           (n-k)-keyed lambda table from the engine's
                           own t-PPF) — the whole detector family is
                           externally value-checked
  ann_lsh_topk          -> the seeded hyperplane matrix embedded as
                           DOUBLE[] literals (numpy Generator draws are
                           C-order-prefix-stable, so one max-size matrix
                           covers every adaptive n_planes)
  ann_ivf_topk          -> the IVF inverted-list scale path: seeded unit
                           centroids as DOUBLE[] literals, assignment =
                           argmax dot (ties to lowest id), top-probe
                           centroid pruning + exact rerank
  A-extra (mad)         -> detect_mad (global robust-z / MAD detector,
                           median+mad reproduced in SQL)
  A7 (cusum)            -> detect_cusum (Page 1954 change-point chart,
                           closed-form cumsum + running min/max)
  W3/W4/W5/W6           -> w3_rolling_stats_events, w4_ohlc_resample,
                           w5_trend_events (per-key OLS drift),
                           w6_rank_normalize (percent-rank CDF transform)
  G4/G5/G6/G7           -> g4_approx_distinct (linear counting),
                           g5_heavy_hitters_cms (count-min sketch),
                           g6_value_histogram, g7_hll_distinct
                           (HyperLogLog — registers pinned via the exact
                           integer harmonic sum)
  D3/D4                 -> d3_value_drift (day-parity chi-square),
                           d4_split_contamination (shared winnowing
                           hashes across the doc_id%10 split)
  R1                    -> r1_retention_plan, r1_retention_apply (the
                           applied form's surviving-partition evidence is
                           itself SQL-checked)
  V1..V5                -> vocab_topk, vocab_doc_freq, tfidf_topk,
                           bigram_topk, lm_score_docs (bigram-LM quality
                           scoring against the broadcast top-500 table)
  X3                    -> inverted_index_probe (persisted
                           bucket-partitioned posting lists, pruned probe)
  P3/Q6/Q7/Q8           -> pack_sequences, q6_seeded_shuffle,
                           q7_quota_sample, q8_split_stats
  K1/K2                 -> kmeans_train, k2_label_centroids
Rows-only (non-SQL-expressible by nature): the codecs and persist
summaries (side-effectful, content pinned via checksums in the rows) and
g3_approx_quantiles (approximate by construction).  media_features is
VALUE-verified since round 4: the driver surface reduces the actor-pool
features to exact-integer bucket sums the oracle replays from the synth
payload definition.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def _per_series(fn: Callable, **params) -> Callable[[str], Any]:
    """``sf_dir -> Dataset``: the tokenized ``documents`` corpus, validated
    into series parts, through the per-series kernel ``fn(batch, **params)``."""
    import functools

    kernel = functools.partial(fn, **params) if params else fn

    def run(sf_dir: str):
        from anomalydetection_ray.pipelines.rollup import validated
        from anomalydetection_ray.sources.tokenize import docs_sequences

        return validated(docs_sequences(sf_dir)).map_batches(
            kernel, batch_format="pyarrow", zero_copy_batch=True)

    return run


def entry() -> Any:
    """Flagship P1 rollup on /root/testdata/sf0.001: documents -> tokenize ->
    validate/split -> tier1+tier2 rollup.  Returns the tiers Dataset."""
    from anomalydetection_ray.pipelines.rollup import rollup_pipeline
    from anomalydetection_ray.sources.tokenize import docs_sequences

    return rollup_pipeline(docs_sequences("/root/testdata/sf0.001"))


def _rollup_tier(sf_dir: str, tier: int):
    from anomalydetection_ray.pipelines.rollup import rollup_pipeline
    from anomalydetection_ray.sources.tokenize import docs_sequences

    return rollup_pipeline(docs_sequences(sf_dir)).filter(expr=f"tier == {tier}")


ACF_LAGS = (1, 2, 3, 4, 6, 8, 12, 24)


def _acf_lag_block(lag: int) -> str:
    """One lag's A9 block (shared CTE names suffixed by lag)."""
    return f"""
            mom{lag} AS (
              SELECT doc_id, part_id, count(*) AS n,
                     CAST(sum(v) AS BIGINT) AS s,
                     CAST(sum(v * v) AS BIGINT) AS q
              FROM acfbase GROUP BY doc_id, part_id),
            lagp{lag} AS (
              SELECT a.doc_id, a.part_id, count(*) AS c,
                     CAST(sum(a.v * b.v) AS BIGINT) AS sxy,
                     CAST(sum(a.v) AS BIGINT) AS sh,
                     CAST(sum(b.v) AS BIGINT) AS st
              FROM acfbase a JOIN acfbase b ON b.doc_id = a.doc_id
                AND b.part_id = a.part_id AND b.i = a.i + {lag}
              GROUP BY a.doc_id, a.part_id)"""


def _acf_lag_select(lag: int) -> str:
    return f"""
            SELECT m.doc_id, m.part_id, CAST({lag} AS BIGINT) AS lag, m.n,
                   COALESCE(l.c, 0) AS n_pairs,
                   CASE WHEN m.n > {lag} AND m.n * m.q - m.s * m.s <> 0
                        THEN CAST(m.n * m.n * l.sxy
                                  - m.n * m.s * (l.sh + l.st)
                                  + (m.n - {lag}) * m.s * m.s AS DOUBLE)
                             / CAST(m.n * m.n * m.q
                                    - m.n * m.s * m.s AS DOUBLE)
                        ELSE NULL END AS acf
            FROM mom{lag} m LEFT JOIN lagp{lag} l
              ON l.doc_id = m.doc_id AND l.part_id = m.part_id"""


def _gram_hash_expr(n: int) -> str:
    """Horner mod-2^64 hash of v, lead(v,1), ..., lead(v,n-1) over window w
    — the SQL replay of dedup.token_gram_hashes (uint64 wraparound)."""
    acc = "v"
    for j in range(1, n):
        acc = (f"(({acc}) * 1000003 + lead(v, {j}) OVER w)"
               f" % 18446744073709551616")
    return acc



def _ljung_box_sql(lags=(1, 2, 3)) -> str:
    blocks = ",".join(_acf_lag_block(L) for L in lags)
    rho = {L: f"""CASE WHEN m{L}.n > {L}
                   AND m{L}.n * m{L}.q - m{L}.s * m{L}.s <> 0
              THEN CAST(m{L}.n * m{L}.n * l{L}.sxy
                        - m{L}.n * m{L}.s * (l{L}.sh + l{L}.st)
                        + (m{L}.n - {L}) * m{L}.s * m{L}.s AS DOUBLE)
                   / CAST(m{L}.n * m{L}.n * m{L}.q
                          - m{L}.n * m{L}.s * m{L}.s AS DOUBLE)
              ELSE NULL END""" for L in lags}
    joins = " ".join(
        f"LEFT JOIN mom{L} m{L} ON m{L}.doc_id = m1.doc_id "
        f"AND m{L}.part_id = m1.part_id "
        f"LEFT JOIN lagp{L} l{L} ON l{L}.doc_id = m1.doc_id "
        f"AND l{L}.part_id = m1.part_id"
        for L in lags if L != 1)
    fold = "0.0"
    for L in lags:
        fold = (f"({fold} + (r{L}) * (r{L}) "
                f"/ CAST(n - {L} AS DOUBLE))")
    sel_rho = ", ".join(f"({rho[L]}) AS r{L}" for L in lags)
    return f"""
            WITH {_SEQ_TOK_CTE},
            acfbase AS MATERIALIZED (
              SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                     pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            {blocks},
            rr AS (
              SELECT m1.doc_id, m1.part_id, m1.n, {sel_rho}
              FROM mom1 m1
              LEFT JOIN lagp1 l1 ON l1.doc_id = m1.doc_id
                   AND l1.part_id = m1.part_id
              {joins})
            SELECT doc_id, part_id, CAST(n AS BIGINT) AS n,
                   CASE WHEN {" AND ".join(f"r{L} IS NOT NULL" for L in lags)}
                        THEN CAST(n * (n + 2) AS DOUBLE) * {fold}
                   END AS lb3
            FROM rr
    """


def _acf_table_sql() -> str:
    blocks = ",".join(_acf_lag_block(L) for L in ACF_LAGS)
    selects = "\nUNION ALL\n".join(_acf_lag_select(L) for L in ACF_LAGS)
    return f"""
            WITH {_SEQ_TOK_CTE},
            acfbase AS MATERIALIZED (
              SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                     pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            {blocks}
            {selects}
    """


PERIOD_LAGS = (2, 3, 4, 6, 8, 12, 24, 48)


def _a59_sql() -> str:
    """A59 oracle: per-lag exact-int ACF numerators (A9's x n^2 scaling),
    float-free argmax (num DESC, lag ASC), one pinned division."""
    blocks = ",".join(f"""
            lagp{k} AS (
              SELECT a.doc_id, a.part_id,
                     CAST(sum(a.v * b.v) AS BIGINT) AS sxy,
                     CAST(sum(a.v) AS BIGINT) AS sh,
                     CAST(sum(b.v) AS BIGINT) AS st
              FROM acfbase a JOIN acfbase b ON b.doc_id = a.doc_id
                AND b.part_id = a.part_id AND b.i = a.i + {k}
              GROUP BY a.doc_id, a.part_id)""" for k in PERIOD_LAGS)
    nums = "\nUNION ALL\n".join(f"""
            SELECT m.doc_id, m.part_id, CAST({k} AS BIGINT) AS lag,
                   m.n * m.n * l.sxy - m.n * m.s * (l.sh + l.st)
                   + (m.n - {k}) * m.s * m.s AS num
            FROM mom m JOIN lagp{k} l
              ON l.doc_id = m.doc_id AND l.part_id = m.part_id
            WHERE m.n > {k}""" for k in PERIOD_LAGS)
    return f"""
            WITH {_SEQ_TOK_CTE},
            acfbase AS MATERIALIZED (
              SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                     pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            mom AS MATERIALIZED (
              SELECT doc_id, part_id, CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(v) AS BIGINT) AS s,
                     CAST(sum(v * v) AS BIGINT) AS q
              FROM acfbase GROUP BY doc_id, part_id),
            {blocks},
            nums AS ({nums}),
            best AS (SELECT doc_id, part_id, lag, num FROM (
                         SELECT *, row_number() OVER (
                             PARTITION BY doc_id, part_id
                             ORDER BY num DESC, lag ASC) AS rk
                         FROM nums)
                     WHERE rk = 1)
            SELECT m.doc_id, m.part_id, m.n,
                   CASE WHEN m.n * m.q - m.s * m.s <> 0
                        THEN b.lag END AS best_lag,
                   CASE WHEN m.n * m.q - m.s * m.s <> 0
                        THEN b.num END AS best_num,
                   CASE WHEN m.n * m.q - m.s * m.s <> 0
                        THEN CAST(b.num AS DOUBLE)
                             / CAST(m.n * m.n * m.q
                                    - m.n * m.s * m.s AS DOUBLE)
                   END AS acf_best
            FROM mom m LEFT JOIN best b
              ON b.doc_id = m.doc_id AND b.part_id = m.part_id
    """


def _a62_sql() -> str:
    """A62 oracle: three A32-style exact argmaxes (float prune +
    HUGEINT NOT-EXISTS cross-compare, ties -> smallest k) — level 0 on
    the full series, then inside each half of the winning split."""
    def argmax_block(src: str, name: str) -> str:
        return f"""
            q_{name} AS MATERIALIZED (
                SELECT *, CAST(a AS DOUBLE) / CAST(d AS DOUBLE) AS qf,
                       max(CAST(a AS DOUBLE) / CAST(d AS DOUBLE))
                           OVER (PARTITION BY doc_id, part_id) AS qmax
                FROM {src}),
            nr_{name} AS MATERIALIZED (
                SELECT * FROM q_{name}
                WHERE qf >= qmax * (1.0 - 1e-12) - 1e-300),
            best_{name} AS MATERIALIZED (
                SELECT x.* FROM nr_{name} x
                WHERE NOT EXISTS (
                    SELECT 1 FROM nr_{name} j
                    WHERE j.doc_id = x.doc_id
                      AND j.part_id = x.part_id
                      AND (CAST(j.a AS HUGEINT) * x.d
                               > CAST(x.a AS HUGEINT) * j.d
                           OR (CAST(j.a AS HUGEINT) * x.d
                                   = CAST(x.a AS HUGEINT) * j.d
                               AND j.k < x.k))))"""

    return f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            tot AS MATERIALIZED (
                SELECT doc_id, part_id, CAST(count(*) AS BIGINT) AS n,
                       CAST(sum(v) AS BIGINT) AS s_sum
                FROM s GROUP BY doc_id, part_id),
            c AS MATERIALIZED (
                SELECT doc_id, part_id, CAST(i + 1 AS BIGINT) AS k,
                       CAST(sum(v) OVER (PARTITION BY doc_id, part_id
                                         ORDER BY i) AS BIGINT) AS pk
                FROM s),
            cand0 AS MATERIALIZED (
                SELECT c.doc_id, c.part_id, c.k, c.pk,
                       CAST(abs(c.pk * t.n - t.s_sum * c.k)
                            AS BIGINT) AS a,
                       CAST(c.k * (t.n - c.k) AS BIGINT) AS d
                FROM c JOIN tot t USING (doc_id, part_id)
                WHERE c.k < t.n),
            {argmax_block("cand0", "k1")},
            candl AS MATERIALIZED (
                SELECT c.doc_id, c.part_id, c.k, c.pk,
                       CAST(abs(c.pk * b.k - b.pk * c.k)
                            AS BIGINT) AS a,
                       CAST(c.k * (b.k - c.k) AS BIGINT) AS d
                FROM c JOIN best_k1 b USING (doc_id, part_id)
                WHERE c.k < b.k),
            {argmax_block("candl", "kl")},
            candr AS MATERIALIZED (
                SELECT c.doc_id, c.part_id, c.k,
                       CAST(abs((c.pk - b.pk) * (t.n - b.k)
                                - (t.s_sum - b.pk) * (c.k - b.k))
                            AS BIGINT) AS a,
                       CAST((c.k - b.k) * (t.n - c.k) AS BIGINT) AS d
                FROM c
                JOIN best_k1 b USING (doc_id, part_id)
                JOIN tot t USING (doc_id, part_id)
                WHERE c.k > b.k AND c.k < t.n),
            {argmax_block("candr", "kr")}
            SELECT t.doc_id, t.part_id, t.n,
                   b1.k AS k1, bl.k AS k_left, br.k AS k_right
            FROM tot t
            LEFT JOIN best_k1 b1 USING (doc_id, part_id)
            LEFT JOIN best_kl bl USING (doc_id, part_id)
            LEFT JOIN best_kr br USING (doc_id, part_id)
    """


def _c7_consensus(sf_dir: str, k: int = 25):
    """C7 — the family's end-use composite: every series through the
    ESD, CUSUM and threshold detectors in ONE pass (one kernel calls
    all three on the batch in hand — no re-read, no join exchange),
    votes = how many of the three flag >= 1 anomaly, then the
    block-pruned distributed top-k report under the total order
    (votes desc, n_esd desc, doc_id, part_id)."""
    import numpy as np
    import pyarrow as pa

    from anomalydetection_ray.stages.detectors import detect_batch
    from anomalydetection_ray.stages.topk import topk

    def kernel(batch: pa.Table) -> pa.Table:
        e = detect_batch(batch, detector="esd")
        c = detect_batch(batch, detector="cusum")
        t = detect_batch(batch, detector="threshold")
        ne = np.asarray(e.column("n_anomalies"), dtype=np.int64)
        nc = np.asarray(c.column("n_anomalies"), dtype=np.int64)
        nt = np.asarray(t.column("n_anomalies"), dtype=np.int64)
        votes = ((ne > 0).astype(np.int64) + (nc > 0).astype(np.int64)
                 + (nt > 0).astype(np.int64))
        return pa.table({
            "doc_id": e.column("doc_id"),
            "part_id": e.column("part_id"),
            "votes": pa.array(votes, type=pa.int64()),
            "n_esd": pa.array(ne, type=pa.int64()),
            "n_cusum": pa.array(nc, type=pa.int64()),
            "n_threshold": pa.array(nt, type=pa.int64()),
        })

    return topk(_per_series(kernel)(sf_dir), k, [("votes", "descending"),
                             ("n_esd", "descending"),
                             ("doc_id", "ascending"),
                             ("part_id", "ascending")])


def _k17_ann_recall(sf_dir: str):
    from anomalydetection_ray.pipelines.similarity import k17_ann_recall

    return k17_ann_recall(sf_dir)


def _x7_degree_assortativity(sf_dir: str):
    from anomalydetection_ray.pipelines.dedup import minhash_lsh_pairs
    from anomalydetection_ray.stages.cc import degree_assortativity

    pairs = minhash_lsh_pairs(sf_dir, min_est=0.2).select_columns(
        ["doc_a", "doc_b"])
    return degree_assortativity(pairs, "doc_a", "doc_b", num_partitions=8)


def _x6_triangle_census(sf_dir: str):
    from anomalydetection_ray.pipelines.dedup import minhash_lsh_pairs
    from anomalydetection_ray.stages.cc import triangle_census

    pairs = minhash_lsh_pairs(sf_dir, min_est=0.2).select_columns(
        ["doc_a", "doc_b"])
    return triangle_census(pairs, "doc_a", "doc_b", num_partitions=8)


def _pagerank_dup_graph(sf_dir: str):
    from anomalydetection_ray.pipelines.dedup import minhash_lsh_pairs
    from anomalydetection_ray.stages.cc import integer_pagerank

    pairs = minhash_lsh_pairs(sf_dir, min_est=0.2).select_columns(
        ["doc_a", "doc_b"])
    return integer_pagerank(pairs, "doc_a", "doc_b", iters=3,
                            num_partitions=8)


def _p4_chunk_docs(sf_dir: str):
    from anomalydetection_ray.pipelines.packing import chunk_docs

    return chunk_docs(sf_dir)


def _invindex_probe(sf_dir: str):
    from anomalydetection_ray.pipelines.invindex import inverted_index_probe

    return inverted_index_probe(sf_dir)


def _c5_quality_mixture_pack(sf_dir: str):
    from anomalydetection_ray.pipelines.curation import c5_quality_mixture_pack

    return c5_quality_mixture_pack(sf_dir)


def _c8_quality_sweep(sf_dir: str):
    from anomalydetection_ray.pipelines.curation import c8_quality_sweep

    return c8_quality_sweep(sf_dir)


def _curation_funnel(sf_dir: str):
    from anomalydetection_ray.pipelines.curation import curation_funnel

    return curation_funnel(sf_dir)


def _retention_plan(sf_dir: str):
    from anomalydetection_ray.pipelines.retention import retention_plan_events

    return retention_plan_events(sf_dir)


def _retention_apply(sf_dir: str):
    from anomalydetection_ray.pipelines.retention import retention_apply_events

    return retention_apply_events(sf_dir)


def _compact_events(sf_dir: str):
    from anomalydetection_ray.pipelines.retention import compact_events

    return compact_events(sf_dir)


def queries() -> dict[str, Callable[[str], Any]]:
    from anomalydetection_ray import codecs as cd
    from anomalydetection_ray.pipelines import bloom as bl
    from anomalydetection_ray.pipelines import dedup as dd
    from anomalydetection_ray.pipelines import kmeans as km
    from anomalydetection_ray.pipelines import multimodal as mm
    from anomalydetection_ray.pipelines import packing as pk
    from anomalydetection_ray.pipelines import queries as q
    from anomalydetection_ray.pipelines import similarity as sim
    from anomalydetection_ray.pipelines import text as tx
    from anomalydetection_ray.pipelines import trend
    from anomalydetection_ray.pipelines import vocab as vb
    from anomalydetection_ray.pipelines import windows as wnd
    from anomalydetection_ray.pipelines.rollup import rollup_pipeline, topk_anomalies
    from anomalydetection_ray.sources.tokenize import docs_sequences
    from anomalydetection_ray.stages import detectors as det

    return {
        # training-data ops: dedup family (D-extras)
        "dedup_exact_docs": dd.exact_dedup,
        "dedup_minhash_pairs": dd.minhash_lsh_pairs,
        "dedup_simhash_pairs": dd.simhash_pairs,
        "dedup_ngram_jaccard": dd.ngram_jaccard_pairs,
        # D10 asymmetric containment near-dup (Broder 1997): the
        # quote/excerpt detector symmetric Jaccard dilutes away
        "d10_containment_pairs": dd.d10_containment_pairs,
        # T14 Dolma/Gopher-style per-doc duplicate n-gram fraction
        "t14_dup_ngram_fraction": dd.dup_ngram_fraction,
        # near-dup clusters: connected components (min-label propagation)
        # over the LSH pair graph — SQL-checked via a recursive CTE
        "dedup_clusters": dd.dup_clusters,
        # threshold 0.3: the driver embeddings are near-orthogonal random
        # vectors (max off-diagonal cosine ~0.37), so 0.95 returns nothing.
        # Pair ids only (the cosine VALUE would compare f64 matmul against
        # DuckDB's list_cosine_similarity float path — same pairs, different
        # last-bit floats).
        # SCALE PATH (round 5): banded-LSH candidates + exact verify — no
        # O(N^2) task grid; the oracle replicates the integer-exact banding
        "dedup_embedding_pairs": lambda sf: dd.embedding_lsh_pairs(
            sf, min_cosine=0.3, n_bands=8, band_bits=8
        ).select_columns(["vec_a", "vec_b"]),
        # fixture-scale calibration audit: the exact all-pairs surface the
        # LSH path's pytest recall/parity test measures against
        "dedup_embedding_allpairs": lambda sf: dd.embedding_dup_pairs(
            sf, min_cosine=0.3
        ).select_columns(["vec_a", "vec_b"]),
        # similarity search
        "ann_topk": lambda sf: sim.ann_topk_bruteforce(sf).select_columns(["vec_id", "label"]),
        "ann_lsh_topk": lambda sf: sim.ann_topk_lsh(sf).select_columns(["vec_id", "label"]),
        "ann_ivf_topk": lambda sf: sim.ann_topk_ivf(sf).select_columns(["vec_id", "label"]),
        # text analysis
        "lang_id": tx.lang_id,
        # T5 corpus composition: (source x predicted language) mix table
        "t5_lang_mix": tx.lang_mix_by_source,
        "quality_stats": lambda sf: tx.quality(sf).select_columns(
            ["doc_id", "n_bytes", "alpha_chars", "alpha_ratio", "ws_tokens"]
        ),
        "quality_scores_full": tx.quality,
        "token_counts": tx.token_counts,
        # T6 regex scrub/redaction stats (Arrow RE2 == DuckDB RE2)
        "t6_scrub_stats": tx.scrub_stats,
        "doc_fingerprints": tx.fingerprints,
        # multimodal: the actor-pool feature path reduced to exact-integer
        # bucket-sum summaries, VALUE-verified by a DuckDB oracle that
        # replays the synth payload + byte-bucket feature per doc; the
        # stage's REAL decode paths are stdlib-wave audio and optional-PIL
        # images (pipelines/multimodal.py, tested)
        "media_features": mm.media_feature_summary,
        # per-series detectors (X1 registry; A2/A3/A6)
        "detect_esd": _per_series(det.detect_batch, detector="esd"),
        # A3 direction knob (reference-family pos/neg one-sided modes,
        # one-tailed Rosner critical values — Hochenbaum et al. 2017 §3)
        "detect_esd_pos": _per_series(
            det.detect_batch, detector="esd", direction="pos"),
        "detect_esd_neg": _per_series(
            det.detect_batch, detector="esd", direction="neg"),
        # A3/A8 longterm piecewise mode: ESD per consecutive 100-point
        # window, local center/scale, series-global positions
        "detect_esd_piecewise": _per_series(det.detect_batch, detector="esd_piecewise"),
        "detect_shesd_piecewise": _per_series(
            det.detect_batch, detector="shesd_piecewise"),
        # A8 seasonal-hybrid ESD (per-phase-median de-seasonalize, then
        # robust ESD on the residual)
        "detect_shesd": _per_series(det.detect_batch, detector="shesd"),
        # A8 one-sided seasonal variant
        "detect_shesd_pos": _per_series(
            det.detect_batch, detector="shesd", direction="pos"),
        # A52 S-H-ESD with the robust piecewise-median trend term (the
        # median-based stand-in for the family's STL step; docstring in
        # stages/detectors.py _det_shesd_trend)
        "detect_shesd_trend": _per_series(det.detect_batch, detector="shesd_trend"),
        # A53 the family's threshold= knob (AnomalyDetectionTs
        # med_max/p95/p99): keep only anomalies whose raw value clears a
        # per-cycle-maxima threshold; one-sided pos detection underneath
        "detect_shesd_thr_medmax": _per_series(
            det.detect_batch, detector="shesd_threshold", threshold="med_max"),
        "detect_shesd_thr_p95": _per_series(
            det.detect_batch, detector="shesd_threshold", threshold="p95"),
        "detect_shesd_thr_p99": _per_series(
            det.detect_batch, detector="shesd_threshold", threshold="p99"),
        # A54 the family's e_value surface: exact-int sum of 2x the
        # expected (seasonal-median) value at each anomaly position
        "detect_shesd_evalue": _per_series(det.shesd_expected_batch),
        # A55 the family's only_last= knob (AnomalyDetectionTs
        # 'day'/'hr'): full-series S-H-ESD, report only anomalies in the
        # last 1 / last 2 cycles (cycle = period-point chunk, partial
        # trailing cycle included)
        "detect_shesd_onlylast": _per_series(
            det.detect_batch, detector="shesd_onlylast", only_last=1),
        "detect_shesd_onlylast2": _per_series(
            det.detect_batch, detector="shesd_onlylast", only_last=2),
        # A56 the family's alpha knob at a stricter significance level
        # (same unrolled-CTE oracle, one-percent lambda table)
        "detect_esd_strict": _per_series(det.detect_batch, detector="esd", alpha=0.01),
        # A60 the family's max_anoms cap exercised off-default AND
        # binding: at most ONE anomaly removed per series (25 driver
        # docs exceed it at sf0.01, so the cap provably flows)
        "detect_esd_maxanoms": _per_series(det.detect_batch, detector="esd", k_max=1),
        # A8b the seasonal-component table the shesd detector subtracts
        "a8_seasonal_components": q.a8_seasonal_components,
        # A9 per-series lag-k autocorrelation feature (exact int moments)
        "a9_autocorr": _per_series(det.autocorr_batch, lag=24),
        # A13 longest run above the series mean (burst feature)
        "a13_longest_run": _per_series(det.longest_run_batch),
        # P4 overlapping-window chunking (map-only 1->many expansion)
        "p4_chunk_docs": _p4_chunk_docs,
        # G8 multi-grain aggregate (GROUPING SETS) in one scan
        "g8_grouping_sets": q.g8_grouping_sets,
        # M5 JSON property extraction (Arrow RE2 vs DuckDB JSON path)
        "m5_json_props": q.m5_json_props,
        # K4 vector L2 norm + int8 quantization (serving prep)
        "k4_vector_quantize": km.vector_quantize,
        # K3 cluster assignment (predict surface, shares K1 state)
        "kmeans_assign": km.kmeans_assign,
        # G14 per-group skewness (exact raw moments, pinned float tail)
        "g14_skewness": q.g14_skewness,
        # S9 malformed-row quarantine (side-output error channel)
        "s9_quarantine": q.s9_quarantine,
        # G13 per-source Gini coefficient of doc lengths
        "g13_gini_nchars": q.g13_gini_nchars,
        # U1 upsert / MERGE INTO (last-writer-wins CDC compaction)
        "u1_upsert_merge": q.u1_upsert_merge,
        # M7 cross join grid / Q9 activity-gap coverage report
        "m7_cross_join": q.m7_cross_join,
        "q9_activity_gaps": q.q9_activity_gaps,
        # M6 explode/unnest (list column -> one row per token)
        "m6_unnest_tokens": q.m6_unnest_tokens,
        # TPC-H Q3 shape: 3-table join + aggregate + top-k composed
        "tpch_q3_like": q.tpch_q3_like,
        # G11 exact distributed COUNT(DISTINCT) / G12 argmax aggregate
        "g11_distinct_users": q.g11_distinct_users,
        "g12_last_event": q.g12_last_event,
        # G10 grouped Pearson correlation (exact int moments, pinned ops)
        "g10_corr_events": q.g10_corr_events,
        # G9 per-group exact mode (busiest day per type, tie -> min day)
        "g9_mode_day": q.g9_mode_day,
        # W11 funnel analysis (ordered first-occurrence chain per user)
        "w11_funnel": q.w11_funnel,
        # D6 Levenshtein prefix verify over MinHash candidate pairs
        "dedup_levenshtein_pairs": dd.levenshtein_pairs,
        # X5 integer PageRank over the dup-pair graph
        "pagerank_dup_graph": _pagerank_dup_graph,
        # T9 per-source dedup impact report (before/after + chars saved)
        "t9_dedup_impact": dd.dedup_impact_report,
        # D5 set ops: INTERSECT / EXCEPT between derived key sets
        "d5_set_ops": q.d5_set_ops,
        # S8 schema-evolution union read (v1 layout + v2 with added col)
        "s8_schema_evolution": q.s8_schema_evolution,
        # S7 CSV source/sink round trip (content-checked vs parquet)
        "s7_csv_roundtrip": q.s7_csv_roundtrip,
        # T7 pivot long->wide (per-type day-of-week count columns)
        "t7_pivot_events": q.t7_pivot_events,
        # J8 semi join (EXISTS; complement of J6 anti join)
        "j8_semi_join": q.j8_semi_join,
        "detect_threshold": _per_series(det.detect_batch, detector="threshold"),
        "detect_ewma": _per_series(det.detect_batch, detector="ewma"),
        "detect_mad": _per_series(det.detect_batch, detector="mad"),
        # A22 Grubbs single-outlier test (classical k=1 ESD, ddof=1)
        "detect_grubbs": _per_series(det.detect_batch, detector="grubbs"),
        # A23 Tukey boxplot fences per series (Q1/Q3/IQR + outlier counts)
        "a23_tukey_fences": _per_series(det.tukey_batch),
        # A24 seasonal-naive forecast-baseline errors (MASE-style ratio)
        "a24_forecast_error": _per_series(det.forecast_error_batch),
        # A25 turning-point counts (randomness/smoothness screen)
        "a25_turning_points": _per_series(det.turning_points_batch),
        # A27 order-3 permutation entropy (Bandt & Pompe 2002): exact
        # ordinal-pattern counts + pinned fixed-order entropy fold
        "a27_perm_entropy": _per_series(det.perm_entropy_batch),
        # A28 SAX symbolization (Lin & Keogh 2007): PAA frames + Gaussian
        # breakpoints, exact-int frame sums, pinned breakpoint compares
        "a28_sax": _per_series(det.sax_batch),
        # A31 Wald-Wolfowitz runs test vs the series median: level-shift /
        # clustering randomness screen; exact int runs, pinned z
        "a31_runs_test": _per_series(det.runs_test_batch),
        # A32 AMOC mean-shift changepoint: exact-int argmax of
        # |mean_l - mean_r| over every split, float-pruned + bigint-confirmed
        "a32_amoc_split": _per_series(det.amoc_split_batch),
        # A33/A34 per-user nonparametric trend tests over event series
        "a33_mann_kendall": trend.a33_mann_kendall,
        "a34_theil_sen": trend.a34_theil_sen,
        # A26 ACF table (correlogram over a ladder of lags)
        "a26_acf_table": _per_series(det.acf_table_batch),
        # A7 CUSUM change-point detector (Page 1954, zero-slack two-sided
        # closed form: cumsum + running min/max over exact n-scaled ints)
        "detect_cusum": _per_series(det.detect_batch, detector="cusum"),
        # flagship rollup over tokenized documents — fully SQL-checked: the
        # tokenizer, bucket math AND robust anomaly score (median/mad) are
        # all reproduced in the DuckDB oracle
        "rollup_tier1_docs": lambda sf: _rollup_tier(sf, 1),
        "rollup_tier2_docs": lambda sf: _rollup_tier(sf, 2),
        # A5 gap-fill on a null-injected derived token table (locf fill /
        # drop with filled=true empty-bucket carry) — both SQL-checked
        "gapfill_locf_docs": q.gapfill_locf_tier1,
        "gapfill_linear_docs": q.gapfill_linear_tier1,
        "gapfill_drop_docs": q.gapfill_drop_tier1,
        "topk_anomalies_docs": lambda sf: topk_anomalies(
            rollup_pipeline(docs_sequences(sf)), k=20
        ),
        # tier0 retention codecs (rows-only: not SQL-expressible)
        "tier0_encode": q.tier0_encode_summary,
        "roundtrip_verify": q.roundtrip_verify,
        # SQL-checked operators on driver tables
        "rollup_events_tier1": q.rollup_events_tier1,
        "a1_moving_stats_events": q.a1_moving_stats_events,
        "s3_token_counts": q.s3_token_counts,
        # S6 JSONL source/sink round trip (content-preserving interchange)
        "s6_jsonl_roundtrip": q.s6_jsonl_roundtrip,
        "g2_source_stats": q.g2_source_stats,
        "pricing_summary": q.pricing_summary,
        "q2_topk_events": q.q2_topk_events,
        "q1_sort_lineitem": q.q1_sort_lineitem,
        "m2_filter_lineitem": q.m2_filter_lineitem,
        # M4 vectorized string scalar functions (part table)
        "m4_string_fns": q.m4_string_fns,
        "d1_dedup_events": q.d1_dedup_events,
        "j1_broadcast_join": q.j1_broadcast_join,
        "j3_join_agg": q.j3_join_agg,
        "j4_asof_join": q.j4_asof_join,
        # J11 forward as-of join (next checkpoint at-or-after each event)
        "j11_asof_forward": q.j11_asof_forward,
        # W1/W2/W3/J5 timeseries window family (pipelines/windows.py)
        "w1_sessionize_events": wnd.w1_sessionize_events,
        "w2_lag_features_events": wnd.w2_lag_features_events,
        "w3_rolling_stats_events": wnd.w3_rolling_stats_events,
        "w4_ohlc_resample": wnd.w4_ohlc_resample_events,
        "w5_trend_events": wnd.w5_trend_events,
        "w6_rank_normalize": wnd.w6_rank_normalize_events,
        "w7_trimmed_mean": wnd.w7_trimmed_mean_events,
        "w8_time_window": wnd.w8_time_window_events,
        # W9 per-key running cumulative sum/count (prefix-sum frame)
        "w9_running_total": wnd.w9_running_total_events,
        # W12 per-key robust location/scale (median + MAD, exact)
        "w12_robust_scale": wnd.w12_robust_scale_events,
        # W13 per-key time-weighted average (step integral, exact)
        "w13_time_weighted_avg": wnd.w13_time_weighted_avg_events,
        # W14 A6 control chart over the events table (per-user flags)
        "w14_event_flags": wnd.w14_event_anomaly_flags,
        # W16 per-key share-of-total (ratio_to_report)
        "w16_share_of_total": wnd.w16_share_of_total_events,
        # W10 per-user event-type Markov transition matrix
        "w10_markov_transitions": wnd.w10_markov_transitions,
        # A10 Hampel rolling-median/MAD outlier filter (robust A6 sibling)
        "a10_hampel_filter": wnd.a10_hampel_filter,
        # D7 event-level debounce dedup (near-time duplicate suppression)
        "d7_debounce_events": wnd.d7_debounce_events,
        # W15 period-over-period (day-over-day per type, lag semantics)
        "w15_period_over_period": wnd.w15_period_over_period,
        # B1 bloom-filter join pruning (bit cells SQL-reproduced)
        "b1_bloom_semi_join": bl.b1_bloom_semi_join,
        # Z1 z-order (Morton) layout key + per-bucket zone map
        "z1_zorder_layout": q.z1_zorder_layout,
        # T10 column profiler (count / nulls / exact distinct / min-max)
        "t10_column_profile": q.t10_column_profile,
        # W17 market-basket co-occurrence + lift over (user, type) baskets
        "w17_cooccurrence_lift": wnd.w17_cooccurrence_lift,
        # T11 Benford first-digit audit (fraud/synthetic-data screen)
        "t11_benford_digits": q.t11_benford_digits,
        # G15 per-type user-concentration entropy (pinned fold)
        "g15_user_entropy": q.g15_user_entropy,
        # W18 LTTB visual downsample (bucket-mean anchors, exact int64)
        "w18_lttb_downsample": wnd.w18_lttb_downsample,
        # U2 SCD type-2 validity-interval history build
        "u2_scd2_intervals": wnd.u2_scd2_intervals,
        # W19 per-user ntile quartile binning
        "w19_ntile_quartiles": wnd.w19_ntile_quartiles,
        # J9 interval coalescing (busy islands per day)
        "j9_interval_coalesce": wnd.j9_interval_coalesce,
        # K5 per-dimension embedding standardization stats
        "k5_dim_standardize": km.k5_dim_standardize,
        # G16 chi-square independence (event_type x weekday)
        "g16_chi2_independence": q.g16_chi2_independence,
        # A12 exact two-sample KS drift per type (day-parity halves)
        "a12_ks_drift": q.a12_ks_drift,
        # D8 sorted-neighborhood dedup blocking (merge/purge)
        "d8_sorted_neighborhood": dd.sorted_neighborhood_pairs,
        # W20 per-user time-decay score (power-of-two ladder, exact)
        "w20_time_decay_score": wnd.w20_time_decay_score,
        # J10 snapshot diff / CDC table compare
        "j10_snapshot_diff": q.j10_snapshot_diff,
        # W21 regular-grid daily resample with LOCF fill
        "w21_grid_resample_locf": wnd.w21_grid_resample_locf,
        # X4 exact phrase search (map-only full-scan path)
        "x4_phrase_search": vb.phrase_search,
        # C3 composed relational analytics #2 (TPC-H Q10 shape)
        "c3_tpch_q10_like": q.c3_tpch_q10_like,
        # V9 Zipf-law slope fit over the top-k vocabulary
        "v9_zipf_slope": vb.v9_zipf_slope,
        # V11 vocabulary coverage curve (types needed for 50/90/99 %)
        "v11_coverage_curve": vb.v11_coverage_curve,
        # T12 cross-source vocabulary Jaccard matrix
        "t12_source_vocab_jaccard": vb.t12_source_vocab_jaccard,
        # S13 ORC round trip (custom task-side sink + source)
        "s13_orc_roundtrip": q.s13_orc_roundtrip,
        # S15 declarative data-quality validation suite
        "s15_validation_suite": q.s15_validation_suite,
        # K6 embedding dimension-pair correlation audit
        "k6_dim_correlation": km.k6_dim_correlation,
        # G23 partition-skew audit (hash-bucket balance report)
        "g23_partition_skew": q.g23_partition_skew,
        # Q10 systematic every-k-th sampling under the Q6 seeded order
        "q10_systematic_sample": pk.q10_systematic_sample,
        # Q11 weighted (PPS) systematic sample over n_chars weight
        # (Madow 1949): exact-integer stride crossings, P3's two-pass scan
        "q11_weighted_sample": pk.q11_weighted_sample,
        # Q12 T5-style span-corruption plan summary (deterministic mask)
        "q12_span_corruption": pk.q12_span_corruption,
        # G17 KMV k-minimum-values distinct sketch (Bar-Yossef 2002):
        # bounded k-word state per group, pure-integer estimator
        "g17_kmv_distinct": q.g17_kmv_distinct,
        # S16 referential-integrity (FK orphan) audit over the star schema
        "s16_fk_audit": q.s16_fk_audit,
        # A29 lagged cross-correlation of per-type daily event volumes
        # (lead-lag co-movement screen; exact-int moments, pinned floats)
        "a29_xcorr_volumes": q.a29_xcorr_volumes,
        # W26 per-user inter-event gap stats + burstiness (Goh & Barabasi
        # 2008): bot/human stream-regularity screen
        "w26_burstiness": wnd.w26_burstiness,
        # X6 exact triangle census + transitivity of the dup-pair graph
        # (node-iterator at the minimum vertex; Newman 2003)
        "x6_triangle_census": _x6_triangle_census,
        # X7 degree assortativity of the dup-pair graph (Newman
        # 2002): exact-int moments over symmetrized endpoint degrees
        "x7_degree_assortativity": _x7_degree_assortativity,
        # Q15 token-budget greedy selection (shortest-first knapsack
        # rule): distributed order-by-length prefix sum, no sort
        "q15_token_budget_select": pk.q15_token_budget_select,
        # V13 Heaps-law vocabulary growth curve (types vs tokens at
        # doc checkpoints; first-doc-per-word exchange)
        "v13_heaps_curve": vb.v13_heaps_curve,
        # Q16 length-interleaved shard assignment + balance audit
        # (round-robin over the Q15 distributed length rank)
        "q16_shard_balance": pk.q16_shard_balance,
        # J14 backward as-of join WITH TOLERANCE (staleness guard:
        # matches older than 12 h reject to NULL, age audited)
        "j14_asof_tolerance": q.j14_asof_tolerance,
        # P6 packed-sequence composition audit (docs + attention
        # boundaries per training sequence over the P3 packing)
        "p6_sequence_composition": pk.p6_sequence_composition,
        # A38 Mann-Whitney rank-sum drift (even vs odd days):
        # doubled mid-ranks, tie-corrected exact-int variance
        "a38_mann_whitney": q.a38_mann_whitney,
        # A39 Bartels rank von Neumann serial-randomness ratio
        # (all-int numerator/denominator, one pinned division)
        "a39_bartels_rvn": q.a39_bartels_rvn,
        # D13 near-dup cluster-size distribution (template-family
        # fatness; rolls the cluster table up twice, both bounded)
        "d13_cluster_sizes": dd.d13_cluster_sizes,
        # U3 CDC merge with tombstones (insert/update/delete
        # last-writer-wins; winning delete removes the key)
        "u3_tombstone_merge": q.u3_tombstone_merge,
        # A40 exponential goodness-of-fit of the arrival process
        # (MLE rate + KS distance: the Poisson-ness audit)
        "a40_exp_gof": q.a40_exp_gof,
        # W32 per-user maximum drawdown of the cumulative cents
        # (segmented running max, exact int64, first trough)
        "w32_max_drawdown": wnd.w32_max_drawdown,
        # V14 PMI collocations (Church & Hanks 1990): bound phrases
        # vs frequent-word coincidences; bounded candidate table
        "v14_pmi_bigrams": vb.v14_pmi_bigrams,
        # A41 variance-ratio random-walk test (Lo-MacKinlay 1988):
        # exact-int difference variances, four pinned float ops
        "a41_variance_ratio": q.a41_variance_ratio,
        # K13 inter-centroid cosine matrix (cluster-separation
        # audit over K1 state; pinned folds, K^2*dim driver work)
        "k13_centroid_cosines": km.k13_centroid_cosines,
        # A42 seasonal Mann-Kendall (Hirsch & Slack 1984): trend
        # screen that a weekly cycle cannot fool; per-phase pairs
        "a42_seasonal_mk": q.a42_seasonal_mk,
        # R3 incremental continuous-aggregate maintenance: base +
        # late-slice partials merge == full recompute (the oracle)
        "r3_incremental_rollup": q.r3_incremental_rollup,
        # K14 int8 quantization saturation audit per label (rail
        # clipping + zero underflow counts over K4 codes)
        "k14_quant_saturation": km.k14_quant_saturation,
        # J15 cross-type forward lookup: next error per purchase
        # with exact wait (J11 machinery, map-side type filters)
        "j15_next_error_wait": q.j15_next_error_wait,
        # S21 predicate-pushdown read (row filter handed to the
        # parquet scan; prune-at-the-read at row granularity)
        "s21_filter_pushdown": q.s21_filter_pushdown,
        # W33 per-user Gini-Simpson type diversity (exact rational,
        # log-free; behavioral breadth next to W10 transitions)
        "w33_type_diversity": wnd.w33_type_diversity,
        # G24 per-type market beta vs the all-types daily total
        # (exact-int covariance/variance numerators, one division)
        "g24_beta_to_total": q.g24_beta_to_total,
        # A43 Cox-Stuart positional sign test for trend (ties drop,
        # continuity-corrected z; assumption-free level-drift screen)
        "a43_cox_stuart": q.a43_cox_stuart,
        # V15 stylometric source distance (Burrows-Delta-lite L1
        # over top-k function-word relative frequencies)
        "v15_stylometric_l1": vb.v15_stylometric_l1,
        # R4 retention-ladder cascade: weekly tier merged FROM the
        # daily tier, oracled against weekly-from-raw
        "r4_cascade_rollup": q.r4_cascade_rollup,
        # D14 cross-source EXACT duplication audit (mirror / re-
        # scrape detector at exact granularity; D9 is near-dup)
        "d14_cross_source_exact": dd.d14_cross_source_exact,
        # W34 time-of-day load profile per type (24h histogram +
        # shares; the seasonality input A8/A35 assume)
        "w34_hourly_profile": wnd.w34_hourly_profile,
        # Q17 balanced eval sampling over (source x length-quartile)
        # strata (ntile closed form + seeded-hash rank prune)
        "q17_balanced_eval_sample": pk.q17_balanced_eval_sample,
        # S22 zstd parquet round trip (the archival codec leg of
        # the interchange matrix; byte-exact per-source aggregates)
        "s22_zstd_parquet_roundtrip": q.s22_zstd_parquet_roundtrip,
        # A44 volatility-clustering screen (lag-1 ACF of absolute
        # daily deltas; the ARCH-effect question, int64-safe)
        "a44_arch_effect": q.a44_arch_effect,
        # K15 cluster-balance audit (Gini-Simpson evenness of K1
        # cluster sizes + max share; K-row state only)
        "k15_cluster_balance": km.k15_cluster_balance,
        # D15 MinHash calibration audit (estimate buckets vs exact
        # gram intersection/union integer sums)
        "d15_minhash_calibration": dd.d15_minhash_calibration,
        # G25 DAU / trailing-WAU stickiness per day (G19 windowed
        # distinct applied globally; one pinned division)
        "g25_stickiness": q.g25_stickiness,
        # A45 formal turning-point randomness test (Kendall normal
        # approximation over A25-style strict extrema counts)
        "a45_turning_point_test": q.a45_turning_point_test,
        # A46 Ljung-Box portmanteau whiteness test (scalar summary
        # of the A26 correlogram; pinned 3-lag fold)
        "a46_ljung_box": _per_series(det.ljung_box_batch),
        # P7 curriculum ordering (easy-first global rank over the
        # quantized quality score; third distributed-rank sibling)
        "p7_curriculum_order": pk.p7_curriculum_order,
        # G26 Kruskal-Wallis k-group rank test over daily totals
        # (the Mann-Whitney A38 generalized; pinned folds)
        "g26_kruskal_wallis": q.g26_kruskal_wallis,
        # J16 join-fanout audit (per-order lineitem count histogram
        # + fanout-0 bucket from footer totals)
        "j16_fanout_histogram": q.j16_fanout_histogram,
        # M9 date scalar functions (year/quarter extraction +
        # bounded per-(year, quarter) rollup)
        "m9_date_fns": q.m9_date_fns,
        # W36 weekly retention triangle (cohort week x offset user
        # counts; the full matrix T8 summarizes)
        "w36_retention_triangle": wnd.w36_retention_triangle,
        # Q18 deterministic negative sampling (seeded arithmetic,
        # no sampling shuffle; co-partitioned payload attach)
        "q18_negative_samples": pk.q18_negative_samples,
        # Q19 mixture-temperature sensitivity sweep (n^alpha quotas
        # at alpha 0.3/0.5/0.7 over the bounded source domain)
        "q19_mixture_sweep": pk.q19_mixture_sweep,
        # A47 aggregated-variance Hurst (Beran 1994) - the
        # independent cross-check of A36 rescaled-range
        "a47_hurst_aggvar": q.a47_hurst_aggvar,
        # W37 funnel timing: first-view -> first-purchase lag per
        # user (W11 counts stages; this times them)
        "w37_conversion_lag": wnd.w37_conversion_lag,
        # T17 duplicate-sentence share per source (the Gopher
        # duplicate-line signal at sentence granularity)
        "t17_dup_sentence_share": tx.t17_dup_sentence_share,
        # A48 weekly seasonal strength (Fs over median-seasonal
        # residuals; doubled medians keep everything exact-int)
        "a48_seasonal_strength": q.a48_seasonal_strength,
        # W38 longest consecutive-active-day streak per user
        # (gaps-and-islands on the day grid)
        "w38_active_streak": wnd.w38_active_streak,
        # V16 Jensen-Shannon divergence between source profiles
        # (the information-theoretic member of the T12/V15 triad)
        "v16_js_divergence": vb.v16_js_divergence,
        # D16 shared-prefix template detector (boilerplate headers
        # whose tails diverge too much for MinHash)
        "d16_prefix_groups": dd.d16_prefix_groups,
        # T18 lang-ID confusion matrix vs the ground-truth lang
        # column (the evaluation family: score the heuristics)
        "t18_langid_confusion": tx.t18_langid_confusion,
        # K16 cluster purity vs embedding labels (evaluation family
        # member two: score the clustering)
        "k16_cluster_purity": km.k16_cluster_purity,
        # K17 ANN recall@k (evaluation family #3: LSH index vs the
        # exact brute-force top-k)
        "k17_ann_recall": _k17_ann_recall,
        # A49 Brown-Forsythe variance-equality (volatility drift
        # between day-parity halves; exact-int closed-form F)
        "a49_brown_forsythe": q.a49_brown_forsythe,
        # W39 state dwell-time shares (holding times to W10s jump
        # matrix; exact dwell microseconds, pinned shares)
        "w39_dwell_time": wnd.w39_dwell_time,
        # X8 source homophily of the dup graph (Newman category
        # mixing; D9s scalar summary with an expected baseline)
        "x8_source_homophily": dd.x8_source_homophily,
        # G27 daily acquisitions + cumulative users (W36 cohort
        # sizes on the day grid)
        "g27_daily_new_users": q.g27_daily_new_users,
        # A57 Wilcoxon signed-rank halves test (paired level-shift
        # screen; exact midrank sums, pinned z)
        "a57_wilcoxon_halves": _per_series(det.wilcoxon_halves_batch),
        # W44 lag-1 ACF of zero-filled daily counts (persistence vs
        # G31's memoryless overdispersion)
        "w44_daily_acf1": q.w44_daily_acf1,
        # K18 per-label medoid (member-constrained cousin of K2's
        # centroids; exact-int quantized distances, no floats)
        "k18_label_medoids": km.k18_label_medoids,
        # A63 KPSS level-stationarity statistic per type (the
        # complement of A36's R/S; exact cumdev sums, pinned split)
        "a63_kpss": q.a63_kpss,
        # G37 per-type median + MAD of cents via the G22 histogram
        # exchange (W12's robust stats on the bounded type domain)
        "g37_mad_by_type": q.g37_mad_by_type,
        # G38 per-type Gini over the zero-filled daily grid (G13's
        # inequality statistic on the time axis; burst concentration)
        "g38_daily_gini": q.g38_daily_gini,
        # E5 run-length codec size (the rollup-tier codec; byte-exact
        # analytic replay like E4, roundtrip pytest-gated)
        "e5_rle_size": _per_series(cd.rle_size_batch),
        # V19 word frequency-of-frequencies spectrum (the Good-Turing
        # front table; totals never collect — second bounded histogram)
        "v19_freq_spectrum": vb.v19_freq_spectrum,
        # A64 difference-sign randomness test per series (strict
        # ascents vs m/2; exact counts, pinned z)
        "a64_diff_sign": _per_series(det.diff_sign_batch),
        # G39 PSI value-drift between day-span halves (decile bins
        # fitted on half A; NULL on any empty bin, fold-ordered sum)
        "g39_psi_drift": q.g39_psi_drift,
        # C7 detector-ensemble consensus report (esd+cusum+threshold
        # votes in one kernel pass; block-pruned top-k)
        "c7_consensus_report": _c7_consensus,
        # G40 Kendall tau-b between zero-filled daily type series
        # (rank-robust complement of W41/G20; exact nc/nd + ties)
        "g40_kendall_daily": q.g40_kendall_daily,
        # V20 byte-bigram + conditional entropy per source (the
        # predictability screen above T16's unigram entropy)
        "v20_bigram_entropy": tx.v20_bigram_entropy,
        # K19 per-dimension ANOVA F across labels (which embedding
        # dims separate the classes; label-ordered SSW fold)
        "k19_anova_f": km.k19_anova_f,
        # A65 Hjorth activity/mobility/complexity per series (the
        # no-FFT spectral triple; ratio-form split casts)
        "a65_hjorth": _per_series(det.hjorth_batch),
        # W45 repeat-purchase cadence per user (lower-median/min/max
        # inter-purchase gap; purchase filter before the exchange)
        "w45_purchase_cadence": wnd.w45_purchase_cadence,
        # V21 standardized TTR per source (STTR-25; length-bias-free
        # richness, full doc-local chunks only)
        "v21_sttr": tx.v21_sttr,
        # G41 two-sample KS between error/purchase value
        # distributions (exact sup-distance, no bin choice)
        "g41_ks_two_types": q.g41_ks_two_types,
        # A66 record counts vs harmonic expectation (Foster-Stuart
        # trend screen; exact prefix-extrema compares)
        "a66_records": _per_series(det.records_batch),
        # J19 last-touch attribution per purchase day (ASOF click
        # lookup + 7-day window; one co-partitioned exchange)
        "j19_last_touch": q.j19_last_touch,
        # A67 CUSUM-of-squares variance-change screen (Brown-Durbin-
        # Evans; exact prefix-of-squares argmax, split-cast ratio)
        "a67_cusum_squares": _per_series(det.cusum_squares_batch),
        # W46 per-user transition entropy (order-predictability of
        # behavior; W10's pairs collapsed per user, bounded fold)
        "w46_transition_entropy": wnd.w46_transition_entropy,
        # D22 normalization-aware dedup audit (raw vs canonical-form
        # distinct groups; the blind spot raw hashing misses)
        "d22_normalized_dedup": dd.d22_normalized_dedup,
        # A68 von Neumann ratio per type (raw-value sibling of A39;
        # exact n*sum(d^2)/(nQ-S^2), split-cast division)
        "a68_von_neumann": q.a68_von_neumann,
        # K20 cluster x label confusion matrix (the full grid behind
        # K16's purity scalar; bounded k x labels exchange)
        "k20_confusion_matrix": km.k20_confusion_matrix,
        # E6 frame-of-reference bitpack size (the Parquet-lineage
        # block codec; reduceat extrema + exact frexp widths)
        "e6_for_size": _per_series(cd.for_size_batch),
        # Q24 sqrt-temperature mixture plan over sources (alpha=0.5
        # upsampling weights; correctly-rounded sqrt, ordered fold)
        "q24_temperature_mixture": q.q24_temperature_mixture,
        # W47 burst-run detection per type (threshold-core Kleinberg
        # on the zero-filled grid; gaps-and-islands runs, all ints)
        "w47_burst_runs": q.w47_burst_runs,
        # T22 delimiter-balance audit per source (paren mismatch /
        # odd quotes — the truncation screen)
        "t22_balance_audit": tx.t22_balance_audit,
        # X10 ordered proximity search w1 NEAR/5 w2 (X4 relaxed to
        # the window; two searchsorted probes per occurrence)
        "x10_near_search": vb.x10_near_search,
        # W48 top-10 behavioral trigram paths (discovered funnels;
        # bounded n_types^3 partials per partition)
        "w48_top_paths": wnd.w48_top_paths,
        # D23 cluster-aware keep-best dedup (one longest survivor per
        # near-dup CC cluster; singletons survive as themselves)
        "d23_cluster_keep_best": dd.d23_cluster_keep_best,
        # A69 Jarque-Bera normality screen per type (ratio-split
        # skew^2 keeps every operand inside HUGEINT; signed split)
        "a69_jarque_bera": q.a69_jarque_bera,
        # W49 weekday seasonality strength per type (A48's strength
        # on the calendar; robust phase medians, split-cast ratio)
        "w49_weekday_strength": q.w49_weekday_strength,
        # W50 tenure-activity Pearson across users (hour-floored
        # tenure keeps sums int64; signed split numerator)
        "w50_tenure_activity_corr": q.w50_tenure_activity_corr,
        # A70 Dickey-Fuller slope per type (unit-root companion of
        # A63's KPSS; exact OLS ints, signed split division)
        "a70_df_slope": q.a70_df_slope,
        # W51 robust daily volatility per type (lower-median |d/d
        # change|; the fat-tail-proof W25 — NO floats in output)
        "w51_robust_volatility": q.w51_robust_volatility,
        # C8 quality-gate calibration sweep (retained docs/chars at
        # each candidate threshold — the curve before C1's q_min)
        "c8_quality_sweep": _c8_quality_sweep,
        # W52 transition time matrix (mean seconds per type->type
        # step; W10's counts given a clock)
        "w52_transition_times": wnd.w52_transition_times,
        # W54 ping-pong alternation matrix (A-B-A triples per user
        # stream; the oscillation screen W10's pair matrix can't see)
        "w54_pingpong": wnd.w54_pingpong,
        # W53 peak-hour concentration per type (argmax hour + share)
        "w53_peak_hour_share": q.w53_peak_hour_share,
        # G43 Tukey trimean per type off G22's additive cent histograms
        "g43_trimean": q.g43_trimean,
        # V24 Yule's K per source (repeat-rate constant; hi/lo-split m2)
        "v24_yule_k": tx.v24_yule_k,
        # D25 word-trigram redundancy per source (substring-dedup
        # savings estimator; two-level exact-distinct discipline)
        "d25_trigram_redundancy": dd.d25_trigram_redundancy,
        # A71 robust daily outlier count per type (modified-z 3.5 as
        # the EXACT integer inequality — no float in the decision)
        "a71_daily_mad_outliers": q.a71_daily_mad_outliers,
        # G42 user-activity log2 histogram (exact power-of-two
        # buckets via frexp/powers join — skew evidence)
        "g42_activity_hist": q.g42_activity_hist,
        # Q25 water-filling token allocation (largest integer common
        # cap fitting budget = total//2; leftover reported)
        "q25_waterfill_allocation": q.q25_waterfill_allocation,
        # V22 BPE first-merge candidates (top within-word byte pairs
        # — the tokenizer-training step as a checkable unit)
        "v22_bpe_candidates": tx.v22_bpe_candidates,
        # C9 abandoned-session report per start day (W1 sessions x
        # W11 funnel verdict; the growth-ops daily readout)
        "c9_abandoned_sessions": wnd.c9_abandoned_sessions,
        # K21 per-cluster radius stats (max + lower-median member
        # distance; exact hi/lo-carried ints, pinned sqrt chain)
        "k21_cluster_radii": km.k21_cluster_radii,
        # A72 slope-break changepoint (AMOC on first differences —
        # level/variance/slope changepoint triple complete)
        "a72_slope_break": _per_series(det.slope_break_batch),
        # A73 mean-side stats (count above/below mean + mean crossings;
        # all-exact-int stationarity screen, tsfresh family)
        "a73_mean_side": _per_series(det.mean_side_batch),
        # A74 energy distribution over 4 equal chunks (exact sum-of-
        # squares per chunk + smallest-index argmax)
        "a74_energy_chunks": _per_series(det.energy_chunks_batch),
        # A76 extremum locations (first/last position of max/min)
        "a76_extremum_location": _per_series(det.extremum_location_batch),
        # A79 reoccurring-value stats (distinct / reoccurring values
        # and points, with both sums — within-series dup structure)
        "a79_reoccurring": _per_series(det.reoccurring_batch),
        # A82 index-mass quantiles (smallest prefix carrying 25/50/75%
        # of the series mass; exact 4x-scaled compares)
        "a82_index_mass_quantile": _per_series(det.index_mass_quantile_batch),
        # A80 beyond-r-sigma counts (isqrt-lifted exact compares)
        "a80_beyond_sigma": _per_series(det.beyond_sigma_batch),
        # A84 absolute-change stats (|diff| sum/max + pinned mean)
        "a84_abs_change": _per_series(det.abs_change_batch),
        # A85 longest strictly monotone runs (ascent/descent streaks)
        "a85_monotone_runs": _per_series(det.monotone_run_batch),
        # A86 symmetry-looking flag (20|S - n*med| vs n*range)
        "a86_symmetry": _per_series(det.symmetry_batch),
        # G44 daily Simpson concentration (P[two events share a type])
        "g44_simpson_day": q.g44_simpson_day,
        # A83 binned entropy over the fixed 10-bin vocab grid
        "a83_binned_entropy": _per_series(det.binned_entropy_batch),
        # W55 activation latency (seconds from 1st to 5th event)
        "w55_time_to_kth": wnd.w55_time_to_kth,
        # T23 word-shape profile per source (num/caps/title/lower/other)
        "t23_word_shapes": tx.t23_word_shapes,
        # V25 hapax + Sichel dis-legomena shares per source
        "v25_hapax_sichel": tx.v25_hapax_sichel,
        # G45 peak-to-median daily load per type
        "g45_peak_to_median": q.g45_peak_to_median,
        # A87 c3 nonlinearity statistic (hi/lo-split triple products)
        "a87_c3": _per_series(det.c3_batch),
        # A88 Bowley quartile skewness per series (robust shape)
        "a88_bowley_skew": _per_series(det.bowley_batch),
        # A93 percentile rank of the last value per series (the
        # streaming-alert primitive evaluated in batch)
        "a93_last_value_rank": _per_series(det.last_value_rank_batch),
        # G46 Bowley skew + quartile dispersion per type off the
        # G43 cent histograms
        "g46_bowley_by_type": q.g46_bowley_by_type,
        # K23 nearest-other-centroid margin (redundant-cluster audit)
        "k23_centroid_margin": km.k23_centroid_margin,
        # A89 time-reversal asymmetry (signed hi/lo-split triple terms)
        "a89_time_reversal": _per_series(det.time_reversal_batch),
        # A90 CID complexity estimate (exact sum of squared diffs)
        "a90_cid_ce": _per_series(det.cid_ce_batch),
        # A91 mean central second derivative (telescoped numerator)
        "a91_second_derivative": _per_series(det.second_derivative_batch),
        # A94 strict peak counts at support 1 and 2
        "a94_peaks": _per_series(det.peaks_batch),
        # Q29 TPC-H Q3-shaped shipping priority (3-table join +
        # grouped revenue + block-pruned top-k)
        "q29_shipping_priority": q.q29_shipping_priority,
        # W57 Goh-Barabási burstiness per type (zero-filled daily grid)
        "w57_burstiness": q.w57_burstiness,
        # G47 Tukey-fence outlier-day census per type (all-integer)
        "g47_outlier_days": q.g47_outlier_days,
        # W58 weekly retention cohort matrix
        "w58_retention_cohorts": wnd.w58_retention_cohorts,
        # Q30 TPC-H Q5-shaped local supplier volume (6-table star)
        "q30_local_supplier_volume": q.q30_local_supplier_volume,
        # A95 weekly spectral line per type (DFT power at period 7)
        "a95_weekly_spectrum": q.a95_weekly_spectrum,
        # A96 diurnal spectral line per type (DFT power at period 24h)
        "a96_diurnal_spectrum": q.a96_diurnal_spectrum,
        # Q31 TPC-H Q14-shaped promo revenue share
        "q31_promo_revenue_share": q.q31_promo_revenue_share,
        # Q33 TPC-H Q4-shaped late-shipment priority census
        # (EXISTS-with-inequality semi join)
        "q33_late_shipment_census": q.q33_late_shipment_census,
        # Q34 TPC-H Q18-shaped large-volume orders (HAVING + top-k)
        "q34_large_volume_orders": q.q34_large_volume_orders,
        # G49 type x dow x hour heatmap with per-type shares
        "g49_dow_hour_heatmap": q.g49_dow_hour_heatmap,
        # D28 LSH precision audit (candidates vs exact-cosine confirms)
        "d28_lsh_precision": dd.d28_lsh_precision,
        # X12 document-level co-occurrence lift of two words
        "x12_cooccurrence_lift": vb.x12_cooccurrence_lift,
        # E7 dictionary codec analytic size surface
        "e7_dict_size": _per_series(cd.dict_size_batch),
        # C10 MAD-vs-Tukey daily flag agreement per type
        "c10_detector_agreement": q.c10_detector_agreement,
        # W59 DAU/WAU stickiness curve (interval-union deltas)
        "w59_stickiness": wnd.w59_stickiness,
        # K26 per-label embedding norm scale audit
        "k26_label_norms": km.k26_label_norms,
        # W60 click-to-purchase latency histogram (log2 buckets)
        "w60_conversion_latency": q.w60_conversion_latency,
        # A97 weekly-naive vs daily-naive MASE per type
        "a97_daily_mase": q.a97_daily_mase,
        # S25 day-partitioned write + pruned 3-day read audit
        "s25_day_pruned_read": q.s25_day_pruned_read,
        # W61 second-order transition entropy over the pair grid
        "w61_second_order_entropy": wnd.w61_second_order_entropy,
        # G51 daily new-vs-returning user split
        "g51_new_vs_returning": wnd.g51_new_vs_returning,
        # G52 order-total quartiles per priority (all-integer)
        "g52_order_total_quartiles": q.g52_order_total_quartiles,
        # W62 global session-length quartiles off W1 (all-integer)
        "w62_session_length_quartiles":
            wnd.w62_session_length_quartiles,
        # G53 longest zero-day drought per type (all-integer)
        "g53_longest_drought": q.g53_longest_drought,
        # X13 boolean search census (w1 AND w2 AND NOT w3)
        "x13_boolean_search": vb.x13_boolean_search,
        # ANN batch retrieval: 5 queries answered in ONE corpus pass
        "ann_multi_topk": lambda sf: sim.ann_multi_topk(sf)
            .select_columns(["query_id", "vec_id", "label"]),
        # S26 referential-integrity orphan audit across the star
        "s26_integrity_audit": q.s26_integrity_audit,
        # J23 nearest-in-time (bidirectional) error->purchase gaps
        "j23_nearest_event_gap": q.j23_nearest_event_gap,
        # J24 Bloom-filter join-prefilter audit (semi-join pushdown
        # measured as data)
        "j24_bloom_prefilter_audit": q.j24_bloom_prefilter_audit,
        # S27 ANALYZE-style column statistics for events
        "s27_table_stats": q.s27_table_stats,
        # W63 weekday-vs-weekend Welch t per type
        "w63_weekend_effect": q.w63_weekend_effect,
        # G56 source concentration (Pareto) curve
        "g56_source_pareto": q.g56_source_pareto,
        # W65 user-level day-over-day activity persistence
        "w65_activity_persistence": wnd.w65_activity_persistence,
        # X15 prefix (autocomplete) search census
        "x15_prefix_search": vb.x15_prefix_search,
        # G57 event-type audience-overlap (user-set Jaccard) matrix
        "g57_type_user_jaccard": wnd.g57_type_user_jaccard,
        # V26 Heaps-law exponent across sources
        "v26_heaps_exponent": vb.v26_heaps_exponent,
        # G58 Benford first-digit screen per type
        "g58_benford": q.g58_benford,
        # Q35 distributed NTILE(4) revenue buckets audit
        "q35_ntile_revenue_buckets": q.q35_ntile_revenue_buckets,
        # K27 standardized-distance embedding outliers (top-k)
        "k27_centroid_outliers": km.k27_centroid_outliers,
        # A98 KS-style arrival-uniformity screen per type
        "a98_arrival_uniformity": q.a98_arrival_uniformity,
        # M10 unpivot (the inverse of T7's pivot; oracle = direct long)
        "m10_unpivot": q.m10_unpivot,
        # W64 same-action streakiness per type (mean run length)
        "w64_action_runs": wnd.w64_action_runs,
        # S28 per-series codec advisor (argmin of 4 size surfaces)
        "s28_codec_advisor": _per_series(cd.codec_advisor_batch),
        # G59 peak-hour stability per type (modal daily argmax)
        "g59_peak_hour_stability": q.g59_peak_hour_stability,
        # Q36 largest-remainder (Hamilton) sample apportionment
        "q36_hamilton_allocation": q.q36_hamilton_allocation,
        # X16 two-hop duplication reach per doc (wedge expansion)
        "x16_two_hop_reach": dd.x16_two_hop_reach,
        # W66 trailing-baseline burst days per type (all-integer)
        "w66_trailing_bursts": q.w66_trailing_bursts,
        # G60 day-of-month (payday/billing-cycle) profile per type
        "g60_dom_profile": q.g60_dom_profile,
        # V27 word-length register profile per source
        "v27_word_length_profile": vb.v27_word_length_profile,
        # A99 Shewhart XmR control chart per type (daily cents)
        "a99_xmr_chart": q.a99_xmr_chart,
        # W67 cross-type lead-lag discovery (argmax shifted Pearson)
        "w67_lead_lag": q.w67_lead_lag,
        # S29 CDC snapshot diff census (co-partitioned full compare)
        "s29_snapshot_diff": q.s29_snapshot_diff,
        # D26 exact set-similarity self-join by prefix filtering
        # (PPJoin family — sketch-free, certified vs brute force)
        "d26_prefix_filter_join": dd.d26_prefix_filter_join,
        # Q37 grouped top-k WITH TIES (RANK() <= k surface)
        "q37_topk_with_ties": q.q37_topk_with_ties,
        # W68 weekly growth accounting (new/retained/resurrected/
        # churned quadrants)
        "w68_growth_accounting": wnd.w68_growth_accounting,
        # A100 last-day percentile rank per type ("is today weird?")
        "a100_today_rank": q.a100_today_rank,
        # E8 timestamp delta-of-delta codec surface (Gorilla ts
        # scheme on per-user event streams)
        "e8_ts_dod_size": q.e8_ts_dod_size,
        # S30 exchange-skew report over the main partition keys
        "s30_skew_report": q.s30_skew_report,
        # Q38 diversity-constrained top-k (at most m per type)
        "q38_diverse_topk": q.q38_diverse_topk,
        # Q28 uniform-mixture importance weights per source
        "q28_source_reweight": q.q28_source_reweight,
        # W56 first-return gap histogram (time to second visit)
        "w56_return_gap_hist": wnd.w56_return_gap_hist,
        # T21 Flesch-style readability per source (countable proxies;
        # the classic quality prior next to the Gopher rules)
        "t21_readability": tx.t21_readability,
        # J18 FULL OUTER join (completes the join-type matrix; NULL,
        # not 0, on the absent side)
        "j18_full_outer_daily": q.j18_full_outer_daily,
        # S23 multi-file sharded write + provenance read-back (the
        # resume-unit layout, audited per shard)
        "s23_sharded_roundtrip": q.s23_sharded_roundtrip,
        # G36 per-type excess kurtosis (G14's missing 4th moment —
        # tail-weight screen; HUGEINT moments, pinned split casts)
        "g36_kurtosis": q.g36_kurtosis,
        # X9 near-dup graph degree histogram (scatter vs template
        # hubs — the CC-explosion early warning)
        "x9_dup_degree_hist": dd.x9_dup_degree_hist,
        # D20 top duplicated sentences (T17's WHICH — the actionable
        # boilerplate blocklist; vocab-topk discipline on sentences)
        "d20_top_dup_sentences": dd.d20_top_dup_sentences,
        # W43 per-user rolling MEDIAN (full windows; robust companion
        # of W3's rolling mean — exact int cents, no floats)
        "w43_rolling_median": wnd.w43_rolling_median,
        # G35 hour-of-day profile entropy per type (temporal
        # concentration; G15 transposed onto W34's hourly grid)
        "g35_hourly_entropy": q.g35_hourly_entropy,
        # G34 daily-count quantile band per type (zero-filled
        # nearest-rank p10/p50/p90 — the dashboard "normal band")
        "g34_daily_quantile_band": q.g34_daily_quantile_band,
        # P9 padding-waste audit (exact waste at 4 context sizes —
        # the no-packing baseline P3's layout is judged against)
        "p9_padding_waste": pk.p9_padding_waste,
        # G33 Cramér's V effect size for type x weekday (G16's chi2
        # standardized to [0,1]; pinned ordered fold)
        "g33_cramers_v": q.g33_cramers_v,
        # W42 per-user activity profile (first/last day, distinct
        # active days, counts, exact cents — the LTV/churn staple)
        "w42_user_profile": q.w42_user_profile,
        # V17 subword fertility per source (BPE-ish segments per
        # whitespace word; tokenizer-fit metric)
        "v17_subword_fertility": tx.v17_subword_fertility,
        # T20 per-source byte-class profile (exact alpha/digit/ws/
        # punct/continuation counts + pinned shares)
        "t20_charset_profile": tx.t20_charset_profile,
        # E4 zigzag-varint delta codec size (byte-oriented cousin of
        # the Gorilla streams; size analytically SQL-replayable)
        "e4_varint_size": _per_series(cd.varint_size_batch),
        # G31 Poisson dispersion index of zero-filled daily counts
        # (overdispersion screen; exact ints, one pinned division)
        "g31_dispersion_index": q.g31_dispersion_index,
        # W41 daily type-pair Pearson correlation (zero-filled day
        # grid for free; exact int moments, pinned r)
        "w41_daily_type_corr": q.w41_daily_type_corr,
        # A62 depth-2 binary segmentation (A32's AMOC recursed into
        # each half — up to 3 offline mean-shift changepoints)
        "a62_binseg": _per_series(det.binseg_batch),
        # A61 remainder ACF after the robust decomposition (the
        # family's "check the STL remainder" adequacy step)
        "a61_remainder_acf": _per_series(det.remainder_acf_batch),
        # A59 seasonal period auto-detect (dominant-ACF lag over a
        # candidate grid; float-free exact-int argmax)
        "a59_period_detect": _per_series(det.period_detect_batch),
        # A58 Friedman rank test for a phase effect (certifies the
        # seasonality assumption S-H-ESD rests on; exact rank sums)
        "a58_friedman_phases": _per_series(det.friedman_seasonality_batch),
        # T19 per-source word-length histogram (flat-buffer run
        # lengths, continuation bytes excluded; bounded exchange)
        "t19_word_len_hist": tx.t19_word_len_hist,
        # D19 quality-aware exact dedup: keep the LONGEST doc per
        # content-hash group (D1's exchange, argmax ordering column)
        "d19_keep_best_dedup": dd.d19_keep_best_dedup,
        # J17 nearest as-of join (backward∘forward composition,
        # exact |gap| microseconds, tie -> the earlier candidate)
        "j17_asof_nearest": q.j17_asof_nearest,
        # G29 Herfindahl user-concentration per type (exact sumsq,
        # pinned hhi / normalized-hhi divisions)
        "g29_herfindahl": q.g29_herfindahl,
        # G30 concentration ratio CR-4 per type (deterministic
        # (n DESC, user_id) top-4, exact ints + one pinned share)
        "g30_topk_share": q.g30_topk_share,
        # Q21 sampling-design error audit (evaluation family #4:
        # systematic + hash samples scored against the exact mean)
        "q21_sampling_error": pk.q21_sampling_error,
        # C6 composed relational #4 (TPC-H Q5 shape): three
        # co-partitioned exchanges + tiny nation/region broadcasts
        "c6_tpch_q5_like": q.c6_tpch_q5_like,
        # P8 inter-epoch shuffle decorrelation audit (mean rank
        # displacement vs the uniform-permutation expectation)
        "p8_epoch_decorrelation": pk.p8_epoch_decorrelation,
        # D17 cross-sketch agreement (MinHash vs SimHash pair sets;
        # evaluation family #5)
        "d17_sketch_agreement": dd.d17_sketch_agreement,
        # W40 per-type arrival cadence (median/mean inter-arrival
        # gap of the global stream each rollup tier ingests)
        "w40_arrival_cadence": q.w40_arrival_cadence,
        # W35 weekend/weekday contrast per type (exact totals,
        # pinned daily-mean ratio)
        "w35_weekend_contrast": q.w35_weekend_contrast,
        # K7 distributed power iteration: dominant eigenvector of the
        # uncentered Gram matrix, exact-int matvecs + pinned renormalize
        "k7_power_iteration": km.k7_power_iteration,
        # T13 unpivot/melt (T7's inverse): map-only wide-to-long reshape
        "t13_unpivot_lineitem": q.t13_unpivot_lineitem,
        # S17 Arrow IPC (Feather v2) round trip: the zero-copy staging
        # format, custom task-side sink + binary-file source like S13
        "s17_feather_roundtrip": q.s17_feather_roundtrip,
        # G18 weighted (lower) median per group: fraction-free 2*cum>=tot
        "g18_weighted_median": q.g18_weighted_median,
        # S18 week-bucketed hive layout + partition-pruned day-range read
        # (footer-stats planning, only overlapping buckets touched)
        "s18_partition_pruning": q.s18_partition_pruning,
        # W25 per-key volatility (median/MAD of absolute deltas)
        "w25_volatility": wnd.w25_volatility,
        # W27 per-user longest strictly-increasing value streak
        # (gaps-and-islands run structure, reduceat kernel)
        "w27_monotone_streaks": wnd.w27_monotone_streaks,
        # G19 trailing 7-day rolling DISTINCT users per (type, day):
        # pre-distinct -> bounded x7 fan-out -> run-boundary count
        "g19_rolling_distinct": q.g19_rolling_distinct,
        # A35 exact integer-twiddle DFT power (periods 2 & 4) over
        # per-type daily cent totals: seasonality-strength screen
        "a35_seasonal_energy": q.a35_seasonal_energy,
        # A36 rescaled-range (R/S, Hurst 1951) long-range-dependence
        # screen: exact-int cumdev range, one pinned sqrt + division
        "a36_rescaled_range": q.a36_rescaled_range,
        # A37 Pettitt rank-based changepoint (Pettitt 1979): exact-int
        # mid-rank sign sums, pinned 2*exp(-6K^2/(n^3+n^2)) p-approx
        "a37_pettitt": q.a37_pettitt,
        # G20 Spearman rank correlation (daily cent total vs daily
        # count): doubled mid-ranks, exact-int moments, pinned rho
        "g20_spearman_daily": q.g20_spearman_daily,
        # Q14 length-bucketed batching audit: power-of-two buckets via
        # integer searchsorted, exact padding-overhead accounting
        "q14_length_buckets": pk.q14_length_buckets,
        # G21 Theil T/L inequality indices per source (decomposable
        # family next to G13's Gini; pinned ratio/log folds)
        "g21_theil_index": q.g21_theil_index,
        # W30 per-user winsorized mean (tail clamping where W7 drops;
        # exact clamped integer sums, one pinned division)
        "w30_winsorized_mean": wnd.w30_winsorized_mean,
        # J13 interval ANTI stab (events outside every audit window;
        # merged-span searchsorted coverage, bounded exchange)
        "j13_interval_anti": wnd.j13_interval_anti,
        # S20 sorted layout + row-group ZONE-MAP pruned read (footer
        # stats plan the probe; S18's hive pruning one level finer)
        "s20_zonemap_pruning": q.s20_zonemap_pruning,
        # G22 exact per-type value quantiles via bounded cent-count
        # exchange — no sort at any scale (G3's bincount trick)
        "g22_value_quantiles_by_type": q.g22_value_quantiles_by_type,
        # W31 per-user session summary (W1 collapsed to engagement
        # profiles: counts, longest, exact in-session time, 2 divisions)
        "w31_session_summary": wnd.w31_session_summary,
        # J12 banded temporal join-aggregate (errors preceding each
        # purchase within a trailing band; searchsorted, no pairs)
        "j12_band_join_count": q.j12_band_join_count,
        # S19 gzip'd JSONL round trip (the Common-Crawl-style wire
        # format): shard-granular gzip both legs, byte-exact aggregates
        "s19_gzip_jsonl_roundtrip": q.s19_gzip_jsonl_roundtrip,
        # D9 cross-source duplication matrix (which corpora copy from
        # which): LSH pairs -> source labels -> bounded-domain rollup
        "d9_cross_source_matrix": dd.d9_cross_source_matrix,
        # Q13 temperature-scaled (alpha=0.5) mixture sampling across
        # sources — the T5/XLM-R data-mixing rule, seeded-hash quotas
        "q13_mixture_sample": pk.q13_mixture_sample,
        # T16 per-source byte-distribution Shannon entropy (prose vs
        # boilerplate/encoding-damage screen)
        "t16_char_entropy": tx.t16_char_entropy,
        # W28 trailing k-row max/min/range envelope per user (order
        # statistics where W3 is moments; shifted-compare kernel)
        "w28_rolling_extrema": wnd.w28_rolling_extrema,
        # W29 out-of-order arrival audit per type (event-time lateness
        # vs the running high-water mark — watermark tuning stats)
        "w29_arrival_lateness": wnd.w29_arrival_lateness,
        # C4 composed curation: exact dedup -> sequence packing
        "c4_dedup_packing": pk.c4_dedup_packing,
        # T8 signup-cohort 7-day purchase retention
        "t8_cohort_retention": wnd.t8_cohort_retention,
        # J7 left OUTER join + aggregate (zero-fill for unmatched keys)
        "j7_left_join_agg": q.j7_left_join_agg,
        "j5_interval_stats": wnd.j5_interval_stats,
        # G5/G6/G7 sketches + histogram (exact-integer distributed merges)
        "g5_heavy_hitters_cms": q.g5_heavy_hitters_cms,
        "g6_value_histogram": q.g6_value_histogram,
        "g7_hll_distinct": q.g7_hll_distinct,
        # D3 temporal distribution-drift check (day-parity chi-square)
        "d3_value_drift": q.d3_value_drift,
        # V family: corpus vocabulary build (partial counts before shuffle)
        "vocab_topk": vb.vocab_topk,
        # V6 out-of-vocabulary rate vs the broadcast top-k vocab
        "v6_oov_rate": vb.oov_rate_docs,
        # V7 per-source lexical richness (types, hapax legomena)
        "v7_lexical_richness": vb.lexical_richness,
        "vocab_doc_freq": vb.vocab_doc_freq,
        "tfidf_topk": vb.tfidf_topk,
        "bigram_topk": vb.bigram_topk,
        "lm_score_docs": vb.lm_score_docs,
        # X3 persisted inverted index (bucket-partitioned posting lists)
        "inverted_index_probe": _invindex_probe,
        # D4 train/test contamination via shared winnowing hashes
        "d4_split_contamination": tx.split_contamination,
        # C1 end-to-end curation funnel (quality -> lang -> dedup -> quota)
        "curation_funnel": _curation_funnel,
        # C5 composed curation #4: quality gate -> temperature
        # mixture over the passers -> fixed-length sequence pack
        "c5_quality_mixture_pack": _c5_quality_mixture_pack,
        # R1 retention: SQL-checked plan + side-effectful partition expiry
        # whose surviving-bucket evidence is ALSO SQL-checked
        "r1_retention_plan": _retention_plan,
        "r1_retention_apply": _retention_apply,
        # R2 small-file compaction: one-file-per-partition rewrite whose
        # before/after file counts and row totals are all SQL-derivable
        "r2_compact_events": _compact_events,
        # Q7/Q8 corpus balancing + split assignment
        "q7_quota_sample": q.q7_quota_sample,
        "q8_split_stats": q.q8_split_stats,
        # P3 sequence packing / Q6 seeded shuffle: the distributed-scan
        # pair (exclusive prefix sum / global rank), pipelines/packing.py
        "pack_sequences": pk.pack_sequences,
        "q6_seeded_shuffle": pk.seeded_shuffle,
        # Gopher-style word-repetition quality stats (Rae et al. 2021)
        "quality_repetition": tx.quality_repetition,
        # G4 linear-counting distinct sketch (Whang et al. 1990)
        "g4_approx_distinct": q.g4_approx_distinct,
        # K1 distributed Lloyd k-means: fused assign+partial-sum passes,
        # exact int64 reductions, pinned-order float scoring — the whole
        # 2-iteration training loop is reproduced in the SQL oracle
        "kmeans_train": km.kmeans_train,
        # K2 per-label embedding centroids (exact quantized integer sums)
        "k2_label_centroids": q.k2_label_centroids,
        "g3_quantiles_nchars": q.g3_quantiles_nchars,
        "m3_token_fns": q.m3_token_fns,
        "g3_approx_quantiles": q.g3_approx_quantiles,
        "g3_token_value_quantiles": q.g3_token_value_quantiles,
        "p1_persist_summary": q.p1_persist_summary,
        "p2_persist_summary": q.p2_persist_summary,
        "q3_sample_lineitem": q.q3_sample_lineitem,
        "q4_stratified_sample": q.q4_stratified_sample,
        "q5_grouped_topk": q.q5_grouped_topk,
        "j6_anti_join": q.j6_anti_join,
        "d2_union_tiers": q.d2_union_tiers,
        "g2_salted_source_stats": q.g2_salted_source_stats,
    }


# The engine's document tokenizer (sources/tokenize.py) is a 4-byte rolling
# hash in uint32 arithmetic over the text bytes — deliberately expressible in
# DuckDB SQL (the driver documents are ASCII, so substr/ascii == byte access),
# which lets the FLAGSHIP rollup/detector/quantile queries over the derived
# token table be checked value-for-value by the driver's DuckDB oracle
# instead of rows-only.  ``_SEQ_TOK_CTE`` reproduces token[i] =
# ((b0*131 ^ b1*31 ^ b2*7 ^ b3) * 2654435761 mod 2^32) >> 9 mod 50257
# and its positional unnest; verified bit-for-bit vs tokenize_batch.
_SEQ_TOK_CTE = """
    seq AS (
        SELECT CAST(doc_id AS VARCHAR) AS doc_id, source,
            list_transform(
                range(1, greatest(octet_length(encode(text)) - 2, 1)),
                i -> CAST((((CAST(xor(xor(xor(
                        ascii(substr(text, CAST(i AS INT), 1)) * 131,
                        ascii(substr(text, CAST(i AS INT) + 1, 1)) * 31),
                        ascii(substr(text, CAST(i AS INT) + 2, 1)) * 7),
                        ascii(substr(text, CAST(i AS INT) + 3, 1))) AS HUGEINT)
                    * 2654435761) % 4294967296) // 512) % 50257 AS INTEGER)
            ) AS toks
        FROM documents),
    tok AS (
        SELECT doc_id, source, unnest(toks) AS v,
               CAST(generate_subscripts(toks, 1) - 1 AS BIGINT) AS pos
        FROM seq)
"""

# tier1 bucket rollup over the token table (bucket = pos // 1000 holds across
# giant-row part splits because MAX_TOKENS_PER_PART is a multiple of the
# bucket width); the robust score uses max|x - med| = max(max-med, med-min)
_T1_CTE = """
    t1 AS (
        SELECT doc_id, source, pos // 1000 AS bucket,
               min(v) AS mn, max(v) AS mx,
               sum(CAST(v AS BIGINT)) AS s, count(*) AS c,
               CASE WHEN mad(v) = 0 THEN 0.0
                    ELSE greatest(CAST(max(v) AS DOUBLE) - median(v),
                                  median(v) - CAST(min(v) AS DOUBLE))
                         / (1.4826 * mad(v)) END AS score
        FROM tok GROUP BY doc_id, source, pos // 1000)
"""

_T1_SELECT = """
    SELECT doc_id, source, CAST(1 AS TINYINT) AS tier, bucket,
           CAST(mn AS INTEGER) AS "min", CAST(mx AS INTEGER) AS "max",
           CAST(s AS DOUBLE) / c AS "mean", c AS "count",
           score AS anomaly_score, false AS filled
    FROM t1
"""

# --- A5 gap-fill over a null-injected derived token table ------------------
# The injection rules live in pipelines/queries.py (GAP_VAL_MOD/GAP_DOC_MOD)
# and are value-based, so the oracle reproduces them with one CASE.  locf is
# a window-function fill (last_value IGNORE NULLS, part-local like the
# engine); drop aggregates the non-null positions per bucket and emits
# filled=true carry rows for all-null buckets (previous non-empty bucket's
# mean, part-local restart at 0.0), exactly oracle.rollup_part's semantics.
_GAP_TOKN_CTE = """
    tokn AS (
        SELECT doc_id, source, pos,
               CASE WHEN CAST(doc_id AS BIGINT) % {doc_mod} = 0
                      OR v % {val_mod} = 0 THEN NULL ELSE v END AS v
        FROM tok)
"""


def _gap_tokn_cte() -> str:
    from anomalydetection_ray.pipelines.queries import GAP_DOC_MOD, GAP_VAL_MOD

    return _GAP_TOKN_CTE.format(doc_mod=GAP_DOC_MOD, val_mod=GAP_VAL_MOD)


def _gapfill_locf_sql() -> str:
    return f"""
    WITH {_SEQ_TOK_CTE}, {_gap_tokn_cte()},
    fill AS (
        SELECT doc_id, source, pos,
               COALESCE(last_value(v IGNORE NULLS) OVER
                   (PARTITION BY doc_id, pos // 1000000 ORDER BY pos
                    ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), 0) AS v
        FROM tokn),
    t1 AS (
        SELECT doc_id, source, pos // 1000 AS bucket,
               min(v) AS mn, max(v) AS mx,
               sum(CAST(v AS BIGINT)) AS s, count(*) AS c,
               CASE WHEN mad(v) = 0 THEN 0.0
                    ELSE greatest(CAST(max(v) AS DOUBLE) - median(v),
                                  median(v) - CAST(min(v) AS DOUBLE))
                         / (1.4826 * mad(v)) END AS score
        FROM fill GROUP BY doc_id, source, pos // 1000)
    {_T1_SELECT}
    """


def _gapfill_linear_sql() -> str:
    # exact integer interpolation, round half to even, edge clamp — the
    # same arithmetic as stages/rollup.py _linear_flat: quo = num // den
    # (floor), then +1 iff 2*rem > den or (2*rem == den and quo odd)
    return f"""
    WITH {_SEQ_TOK_CTE}, {_gap_tokn_cte()},
    nb AS MATERIALIZED (
        SELECT doc_id, source, pos, v,
               CAST(last_value(v IGNORE NULLS) OVER w_prev AS BIGINT) AS pv,
               last_value(CASE WHEN v IS NOT NULL THEN pos END
                          IGNORE NULLS) OVER w_prev AS pp,
               CAST(first_value(v IGNORE NULLS) OVER w_next AS BIGINT) AS nv,
               first_value(CASE WHEN v IS NOT NULL THEN pos END
                           IGNORE NULLS) OVER w_next AS nxp
        FROM tokn
        WINDOW w_prev AS (PARTITION BY doc_id, pos // 1000000 ORDER BY pos
                          ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW),
               w_next AS (PARTITION BY doc_id, pos // 1000000 ORDER BY pos
                          ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING)),
    interp AS MATERIALIZED (
        SELECT doc_id, source, pos, v, pv, nv,
               pv * (nxp - pos) + nv * (pos - pp) AS num,
               nxp - pp AS den
        FROM nb),
    fill AS MATERIALIZED (
        SELECT doc_id, source, pos,
               CASE WHEN v IS NOT NULL THEN CAST(v AS BIGINT)
                    WHEN pv IS NULL AND nv IS NULL THEN 0
                    WHEN pv IS NULL THEN nv
                    WHEN nv IS NULL THEN pv
                    ELSE (num // den)
                         + CASE WHEN 2 * (num - (num // den) * den) > den
                                  OR (2 * (num - (num // den) * den) = den
                                      AND (num // den) % 2 <> 0)
                                THEN 1 ELSE 0 END
               END AS v
        FROM interp),
    t1 AS (
        SELECT doc_id, source, pos // 1000 AS bucket,
               min(v) AS mn, max(v) AS mx,
               sum(CAST(v AS BIGINT)) AS s, count(*) AS c,
               CASE WHEN mad(v) = 0 THEN 0.0
                    ELSE greatest(CAST(max(v) AS DOUBLE) - median(v),
                                  median(v) - CAST(min(v) AS DOUBLE))
                         / (1.4826 * mad(v)) END AS score
        FROM fill GROUP BY doc_id, source, pos // 1000)
    {_T1_SELECT}
    """


def _gapfill_drop_sql() -> str:
    # allb enumerates EVERY bucket of every non-empty series (bucket ids are
    # global: part * 1000 + local == pos // 1000 for any length); the left
    # join keeps all-null buckets, which carry the previous non-empty
    # bucket's mean (restarting per 1000-bucket part, engine semantics)
    return f"""
    WITH {_SEQ_TOK_CTE}, {_gap_tokn_cte()},
    allb AS (
        SELECT doc_id, source,
               CAST(unnest(range(0, CAST(ceil(CAST(len(toks) AS DOUBLE) / 1000)
                   AS BIGINT))) AS BIGINT) AS bucket
        FROM seq WHERE len(toks) > 0),
    agg AS (
        SELECT doc_id, pos // 1000 AS bucket,
               min(v) AS mn, max(v) AS mx,
               sum(CAST(v AS BIGINT)) AS s, count(v) AS c,
               CASE WHEN count(v) = 0 OR mad(v) = 0 THEN 0.0
                    ELSE greatest(CAST(max(v) AS DOUBLE) - median(v),
                                  median(v) - CAST(min(v) AS DOUBLE))
                         / (1.4826 * mad(v)) END AS score
        FROM tokn GROUP BY doc_id, pos // 1000),
    j AS (
        SELECT allb.doc_id, allb.source, allb.bucket, agg.mn, agg.mx,
               COALESCE(agg.c, 0) AS c, COALESCE(agg.score, 0.0) AS score,
               CASE WHEN COALESCE(agg.c, 0) > 0
                    THEN CAST(agg.s AS DOUBLE) / agg.c END AS m0
        FROM allb LEFT JOIN agg
          ON allb.doc_id = agg.doc_id AND allb.bucket = agg.bucket)
    SELECT doc_id, source, CAST(1 AS TINYINT) AS tier, bucket,
           CAST(mn AS INTEGER) AS "min", CAST(mx AS INTEGER) AS "max",
           COALESCE(CASE WHEN c > 0 THEN m0
                    ELSE last_value(m0 IGNORE NULLS) OVER
                         (PARTITION BY doc_id, bucket // 1000 ORDER BY bucket
                          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                    END, 0.0) AS "mean",
           CAST(c AS BIGINT) AS "count", score AS anomaly_score,
           (c = 0) AS filled
    FROM j
    """


_FP_MULT = 1103515245
_FP_TERMS = " + ".join(
    f"CAST(ascii(substr(text, CAST(i AS INT) + {k}, 1)) AS BIGINT)"
    f" * {pow(_FP_MULT, 15 - k, 2 ** 32)}"
    for k in range(16)
)
_FP_SQL = f"""
    WITH winh AS (
      SELECT doc_id,
        list_transform(range(1, greatest(octet_length(encode(text)) - 14, 1)),
          i -> ({_FP_TERMS}) % 4294967296) AS hs
      FROM documents),
    sel AS (
      SELECT doc_id, hs,
        list_slice(list_sort(list_distinct(list_filter(hs, x -> x % 8 = 0))),
                   1, 8) AS kept
      FROM winh)
    SELECT doc_id,
      CASE WHEN len(kept) > 0
           THEN array_to_string(list_transform(kept, x -> printf('%08x', x)), '')
           WHEN len(hs) > 0 THEN printf('%08x', list_aggregate(hs, 'min'))
           ELSE NULL END AS fingerprint
    FROM sel
"""

# --- seeded-hash dedup families, reproduced exactly in SQL -----------------
# All engine hashes are mod-2^64 integer arithmetic (Horner folds, murmur
# finalizers, multiply-shift MinHash permutations).  DuckDB's HUGEINT is a
# SIGNED int128, so a 64x64-bit product can overflow it; _mulmod64 splits the
# constant into 32-bit halves so every intermediate stays < 2^97.
_M64 = 1 << 64


def _mulmod64(a_expr: str, c: int) -> str:
    cl, ch = c % (1 << 32), c >> 32
    if ch:
        return (f"(({a_expr}) * {cl} + ((({a_expr}) * {ch}) % 4294967296)"
                f" * 4294967296) % {_M64}")
    return f"(({a_expr}) * {cl}) % {_M64}"


def _mix64_ctes(src: str, incol: str) -> str:
    """CTE chain applying the murmur-style 64-bit finalizer to ``incol`` of
    ``src`` rows (doc_id kept), emitting column ``h`` (UBIGINT)."""
    m1 = _mulmod64("x", 0xFF51AFD7ED558CCD)
    m2 = _mulmod64("x", 0xC4CEB9FE1A85EC53)
    return f"""
    m0 AS (SELECT doc_id, CAST(xor(CAST({incol} AS UBIGINT),
                 CAST({incol} AS UBIGINT) >> 33) AS HUGEINT) AS x FROM {src}),
    m1 AS (SELECT doc_id, CAST(xor(CAST({m1} AS UBIGINT),
                 CAST({m1} AS UBIGINT) >> 33) AS HUGEINT) AS x FROM m0),
    mfin AS (SELECT doc_id, xor(CAST({m2} AS UBIGINT),
                 CAST({m2} AS UBIGINT) >> 33) AS h FROM m1)
    """


def _simhash_pairs_sql(max_hamming: int = 3) -> str:
    """dedup_simhash_pairs oracle: word-hash -> per-bit majority -> 4x16-bit
    pigeonhole bands -> exact Hamming (reproduces pipelines/dedup.py
    simhash_batch_values bit-for-bit; verified)."""
    c = 0x9E3779B97F4A7C15 | 1
    fold = f"({_mulmod64('a', c)} + b) % {_M64}"
    hits = ", ".join(f"sum(CAST((h // {1 << k}) % 2 AS BIGINT)) AS b{k}" for k in range(64))
    simsum = " + ".join(
        f"(CASE WHEN 2*b{k} > nw THEN CAST({1 << k} AS HUGEINT) ELSE 0 END)"
        for k in range(64)
    )
    band_eq = " OR ".join(
        f"((a.sh // {1 << (16 * b)}) % 65536) = ((b.sh // {1 << (16 * b)}) % 65536)"
        for b in range(4)
    )
    return f"""
    WITH wrows AS (
      SELECT doc_id, unnest(regexp_extract_all(lower(text), '[0-9a-z_]+')) AS wd
      FROM documents),
    h0 AS (SELECT doc_id, list_reduce(
        list_prepend(CAST(0 AS HUGEINT),
          list_transform(range(1, length(wd) + 1),
            j -> CAST(ascii(substr(wd, CAST(j AS INT), 1)) AS HUGEINT))),
        (a, b) -> {fold}) AS s FROM wrows),
    {_mix64_ctes("h0", "s")},
    bits AS (SELECT doc_id, count(*) AS nw, {hits} FROM mfin GROUP BY doc_id),
    sim0 AS (SELECT doc_id, {simsum} AS sh FROM bits),
    sim AS (SELECT d.doc_id, COALESCE(s.sh, 0) AS sh
            FROM documents d LEFT JOIN sim0 s USING (doc_id))
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           CAST(bit_count(xor(CAST(a.sh AS UBIGINT), CAST(b.sh AS UBIGINT)))
                AS INTEGER) AS hamming
    FROM sim a JOIN sim b ON a.doc_id < b.doc_id
    WHERE ({band_eq})
      AND bit_count(xor(CAST(a.sh AS UBIGINT), CAST(b.sh AS UBIGINT))) <= {max_hamming}
    """


def _emb_lsh_pairs_sql(min_cosine: float = 0.3, n_bands: int = 8,
                       band_bits: int = 8, dim: int = 64,
                       audit: bool = False) -> str:
    """dedup_embedding_pairs oracle: integer-quantized Rademacher-plane
    signing -> banded candidate join -> exact cosine filter (reproduces
    pipelines/dedup.py embedding_lsh_pairs bit-for-bit).  The quantized
    projection dot is an exact integer on both sides (values < 2^31, sums
    < 2^53, so even DuckDB's float dot is exact), hence the candidate set
    matches by construction; the final cosine compare is the same
    list_cosine_similarity >= thr decision the previous all-pairs oracle
    already verified against the engine's float64 cosine at this sf."""
    from anomalydetection_ray.pipelines.dedup import _emb_planes

    planes = _emb_planes(n_bands * band_bits, dim)
    rows = ",\n      ".join(
        "({}, [{}])".format(p, ",".join(str(int(v)) for v in planes[p]))
        for p in range(planes.shape[0]))
    return f"""
    WITH planes(p, s) AS (VALUES {rows}),
    qe AS MATERIALIZED (
      SELECT vec_id,
             list_transform(embedding,
               x -> CAST(floor(CAST(x AS DOUBLE) * 1048576.0 + 0.5) AS BIGINT)) AS q
      FROM embeddings),
    keys AS MATERIALIZED (
      SELECT qe.vec_id, pl.p // {band_bits} AS band,
             CAST(sum(CASE WHEN list_dot_product(qe.q, pl.s) > 0
                           THEN (1 << (pl.p % {band_bits})) ELSE 0 END)
                  AS BIGINT) AS bucket
      FROM qe CROSS JOIN planes pl
      GROUP BY qe.vec_id, pl.p // {band_bits}),
    cand AS MATERIALIZED (
      SELECT DISTINCT a.vec_id AS vec_a, b.vec_id AS vec_b
      FROM keys a JOIN keys b
        ON a.band = b.band AND a.bucket = b.bucket AND a.vec_id < b.vec_id)
    {_emb_lsh_tail(min_cosine, audit)}
    """


def _emb_lsh_tail(min_cosine: float, audit: bool) -> str:
    if not audit:
        return f"""SELECT c.vec_a, c.vec_b
    FROM cand c
    JOIN embeddings ea ON ea.vec_id = c.vec_a
    JOIN embeddings eb ON eb.vec_id = c.vec_b
    WHERE list_cosine_similarity(ea.embedding, eb.embedding) >= {min_cosine}"""
    # D28 audit tail: candidate + confirmed counts, pinned precision
    return f""", scored AS (
      SELECT list_cosine_similarity(ea.embedding, eb.embedding) AS cos
      FROM cand c
      JOIN embeddings ea ON ea.vec_id = c.vec_a
      JOIN embeddings eb ON eb.vec_id = c.vec_b),
    a AS (SELECT CAST(count(*) AS BIGINT) AS cand,
                 CAST(sum(CASE WHEN cos >= {min_cosine} THEN 1
                          ELSE 0 END) AS BIGINT) AS conf
          FROM scored)
    SELECT cand AS n_candidates, conf AS n_confirmed,
           CASE WHEN cand > 0 THEN
               (CAST(conf // 4294967296 AS DOUBLE) * 4294967296.0
                + CAST(conf % 4294967296 AS DOUBLE))
               / (CAST(cand // 4294967296 AS DOUBLE) * 4294967296.0
                  + CAST(cand % 4294967296 AS DOUBLE))
           END AS lsh_precision
    FROM a"""


def _minhash_cte(min_est: float) -> str:
    """Shared CTE chain producing MinHash candidate pairs with est_jaccard
    (reproduces signatures_batch + banding + estimate; the banding predicate
    is exact slice equality — identical to bucket-hash equality up to
    negligible 2^-64 collisions, which the est filter then discards)."""
    import numpy as _np

    mersenne = (1 << 61) - 1
    rng = _np.random.default_rng(42)
    perm_a = (rng.integers(1, mersenne, 64, dtype=_np.int64).astype(_np.uint64)
              | _np.uint64(1))
    perm_b = rng.integers(0, mersenne, 64, dtype=_np.int64).astype(_np.uint64)
    mult = 1099511628211
    shingle_terms = " + ".join(
        f"CAST(ascii(substr(text, CAST(i AS INT) + {k}, 1)) AS HUGEINT)"
        f" * {pow(mult, 4 - k, _M64)}"
        for k in range(5)
    )
    sig_cols = ", ".join(
        f"min(({_mulmod64('CAST(h AS HUGEINT)', int(perm_a[p]))}"
        f" + {int(perm_b[p])}) % {_M64}) AS s{p}"
        for p in range(64)
    )
    band_eq = " OR ".join(
        "(" + " AND ".join(f"a.s{8 * b + r} = b.s{8 * b + r}" for r in range(8)) + ")"
        for b in range(8)
    )
    agree = " + ".join(f"(CASE WHEN a.s{p} = b.s{p} THEN 1 ELSE 0 END)" for p in range(64))
    # the shingle finalizer is the SHORT mix (xor-mult-xor), not the full
    # 2-multiply murmur finalizer the word hash uses
    short_mul = _mulmod64("x", 0xFF51AFD7ED558CCD)
    return f"""
    swin AS (
      SELECT doc_id, unnest(list_transform(
          range(1, greatest(octet_length(encode(text)) - 3, 1)),
          i -> ({shingle_terms}) % {_M64})) AS s0
      FROM documents),
    sm0 AS (SELECT doc_id, CAST(xor(CAST(s0 AS UBIGINT),
                 CAST(s0 AS UBIGINT) >> 33) AS HUGEINT) AS x FROM swin),
    mfin AS (SELECT doc_id, xor(CAST({short_mul} AS UBIGINT),
                 CAST({short_mul} AS UBIGINT) >> 33) AS h FROM sm0),
    sigs AS (SELECT doc_id, {sig_cols} FROM mfin GROUP BY doc_id),
    mh_pairs AS (
      SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
             CAST({agree} AS DOUBLE) / 64 AS est_jaccard
      FROM sigs a JOIN sigs b ON a.doc_id < b.doc_id
      WHERE ({band_eq}) AND CAST({agree} AS DOUBLE) / 64 >= {min_est})
    """


def _minhash_pairs_sql(min_est: float = 0.5) -> str:
    return f"WITH {_minhash_cte(min_est)} SELECT doc_a, doc_b, est_jaccard FROM mh_pairs"


def _ngram_jaccard_sql(min_jaccard: float = 0.3) -> str:
    """dedup_ngram_jaccard oracle: MinHash candidates (min_est=0.2) verified
    by exact word-3-gram Jaccard (grams joined with spaces — words contain
    no spaces, so the encoding is injective)."""
    return f"""
    WITH {_minhash_cte(0.2)},
    grams AS (
      SELECT doc_id, list_distinct(list_transform(
          range(1, greatest(len(ws) - 1, 1)),
          i -> ws[CAST(i AS INT)] || ' ' || ws[CAST(i AS INT) + 1] || ' '
               || ws[CAST(i AS INT) + 2])) AS gs
      FROM (SELECT doc_id,
                   regexp_extract_all(lower(text), '[0-9a-z_]+') AS ws
            FROM documents)),
    verified AS (
      SELECT p.doc_a, p.doc_b,
             len(list_filter(ga.gs, g -> list_contains(gb.gs, g))) AS inter,
             len(ga.gs) + len(gb.gs)
               - len(list_filter(ga.gs, g -> list_contains(gb.gs, g))) AS un
      FROM mh_pairs p
      JOIN grams ga ON ga.doc_id = p.doc_a
      JOIN grams gb ON gb.doc_id = p.doc_b)
    SELECT doc_a, doc_b, CAST(inter AS DOUBLE) / un AS jaccard
    FROM verified
    WHERE un > 0 AND CAST(inter AS DOUBLE) / un >= {min_jaccard}
    """


def _containment_sql(min_containment: float = 0.5) -> str:
    """d10_containment_pairs oracle: MinHash candidates (min_est=0.2)
    verified by exact word-3-gram Jaccard CONTAINMENT (inter/|A| and
    inter/|B|), kept when the max clears the bar.  Same space-joined
    gram encoding as the Jaccard oracle (injective over spaceless
    words)."""
    return f"""
    WITH {_minhash_cte(0.2)},
    grams AS (
      SELECT doc_id, list_distinct(list_transform(
          range(1, greatest(len(ws) - 1, 1)),
          i -> ws[CAST(i AS INT)] || ' ' || ws[CAST(i AS INT) + 1] || ' '
               || ws[CAST(i AS INT) + 2])) AS gs
      FROM (SELECT doc_id,
                   regexp_extract_all(lower(text), '[0-9a-z_]+') AS ws
            FROM documents)),
    verified AS (
      SELECT p.doc_a, p.doc_b,
             CAST(len(list_filter(ga.gs, g -> list_contains(gb.gs, g)))
                  AS BIGINT) AS inter,
             CAST(len(ga.gs) AS BIGINT) AS n_a,
             CAST(len(gb.gs) AS BIGINT) AS n_b
      FROM mh_pairs p
      JOIN grams ga ON ga.doc_id = p.doc_a
      JOIN grams gb ON gb.doc_id = p.doc_b)
    SELECT doc_a, doc_b, inter, n_a, n_b,
           CASE WHEN n_a > 0 THEN CAST(inter AS DOUBLE) / n_a
                ELSE 0.0 END AS cont_a,
           CASE WHEN n_b > 0 THEN CAST(inter AS DOUBLE) / n_b
                ELSE 0.0 END AS cont_b
    FROM verified
    WHERE greatest(CASE WHEN n_a > 0 THEN CAST(inter AS DOUBLE) / n_a
                        ELSE 0.0 END,
                   CASE WHEN n_b > 0 THEN CAST(inter AS DOUBLE) / n_b
                        ELSE 0.0 END) >= {min_containment}
    """


def _esd_sql(alpha: float = 0.05, max_n: int = 1024, k_steps: int = 12,
             season_period: int | None = None, direction: str = "both",
             part_len: int = 1_000_000, det_name: str | None = None,
             trend: bool = False, threshold: str | None = None,
             evalue: bool = False, only_last: int | None = None,
             k_max: int | None = None) -> str:
    """detect_esd / detect_shesd oracle: the robust generalized-ESD
    iteration unrolled as a fixed chain of MATERIALIZED CTE steps (without
    MATERIALIZED, DuckDB re-inlines the step chain and runtime explodes).
    With ``season_period`` set, the input series is first de-seasonalized
    by subtracting per-phase medians (phase = position mod period) — the
    A8 S-H-ESD piecewise-median variant; phase medians of integers are
    exact halves, so the residual iteration stays bitwise-reproducible.

    Two structural insights make this expressible:
    - the Rosner critical value lambda(n, k, alpha) depends only on
      m = n - k (every t-PPF argument is a function of n - k), so a tiny
      (m, lambda) VALUES table generated by the engine's own from-scratch
      t-PPF module covers every series length up to ``max_n``;
    - k_max = ceil(0.02 n) <= ``k_steps`` for any n <= max_n/... (12 steps
      cover n <= 600; driver docs are <= ~560 tokens), so the per-doc
      iterative removal is a static unroll: each step re-aggregates
      median/MAD over the not-yet-removed points, removes the argmax
      deviation (min-index tiebreak), and appends the R statistic.

    Every float matches the engine bitwise: median/MAD of integers are
    exact quarter-integers, scale is one multiply, R one divide, and the
    lambda literals are repr()'d from the same Python module the engine
    imports.  Verified exact 500/500 on the driver data."""
    from anomalydetection_ray.functions.tppf import esd_lambda

    # one-sided directions score raw (signed) deviation against the
    # ONE-tailed critical value — both literal families come from the
    # same engine t-PPF module (functions/stats.py esd direction modes)
    two_sided = direction == "both"
    lam_rows = ",".join(
        f"({m}, {esd_lambda(m + 1, 1, alpha, two_sided)!r})"
        for m in range(2, max_n)
    )
    dv_expr = {"both": "abs(a.x - g.med)", "pos": "(a.x - g.med)",
               "neg": "(g.med - a.x)"}[direction]
    steps = []
    prev = "st0"
    for k in range(1, k_steps + 1):
        steps.append(f"""
        act{k} AS MATERIALIZED (
          SELECT b.doc_id, b.part_id, b.i, b.x
          FROM base b JOIN {prev} t ON t.doc_id = b.doc_id AND t.part_id = b.part_id
          JOIN meta m ON m.doc_id = b.doc_id AND m.part_id = b.part_id
          WHERE NOT t.stopped AND {k} <= m.kmax AND NOT list_contains(t.removed, b.i)),
        agg{k} AS MATERIALIZED (
          SELECT doc_id, part_id, median(x) AS med, mad(x) AS madv
          FROM act{k} GROUP BY doc_id, part_id),
        dev{k} AS MATERIALIZED (
          SELECT a.doc_id, a.part_id, a.i, {dv_expr} AS dv,
                 1.4826 * g.madv AS scale
          FROM act{k} a JOIN agg{k} g ON g.doc_id = a.doc_id AND g.part_id = a.part_id),
        top{k} AS MATERIALIZED (
          SELECT d.doc_id, d.part_id, max(d.dv) AS dmax, any_value(d.scale) AS scale
          FROM dev{k} d GROUP BY d.doc_id, d.part_id),
        pick{k} AS MATERIALIZED (
          SELECT d.doc_id, d.part_id, min(d.i) AS pos,
                 any_value(t.dmax) AS dmax, any_value(t.scale) AS scale
          FROM dev{k} d JOIN top{k} t ON t.doc_id = d.doc_id AND t.part_id = d.part_id
          WHERE d.dv = t.dmax
          GROUP BY d.doc_id, d.part_id),
        st{k} AS MATERIALIZED (
          SELECT s.doc_id, s.part_id,
                 CASE WHEN p.pos IS NOT NULL AND p.scale <> 0
                      THEN list_append(s.removed, p.pos) ELSE s.removed END AS removed,
                 CASE WHEN p.pos IS NOT NULL AND p.scale <> 0
                      THEN list_append(s.rs, p.dmax / p.scale) ELSE s.rs END AS rs,
                 CASE WHEN p.pos IS NULL THEN s.stopped
                      WHEN p.scale = 0 THEN true ELSE s.stopped END AS stopped
          FROM {prev} s LEFT JOIN pick{k} p
            ON p.doc_id = s.doc_id AND p.part_id = s.part_id)""")
        prev = f"st{k}"
    if (threshold is not None or evalue or only_last is not None) \
            and season_period is None:
        raise ValueError("threshold=/evalue=/only_last= oracles are "
                         "seasonal (S-H-ESD) variants; pass season_period")
    if season_period is None:
        det_name = det_name or "esd"
        base_cte = f"""
    base AS MATERIALIZED (
      SELECT doc_id, CAST(pos // {part_len} AS INTEGER) AS part_id,
             pos % {part_len} AS i, CAST(v AS DOUBLE) AS x FROM tok),"""
    else:
        det_name = det_name or (
            "shesd_trend" if trend else
            "shesd_threshold" if threshold is not None else
            "shesd_evalue" if evalue else
            "shesd_onlylast" if only_last is not None else "shesd")
        deseason_name = "dbase" if trend else "base"
        base_cte = f"""
    raw AS MATERIALIZED (
      SELECT doc_id, CAST(pos // {part_len} AS INTEGER) AS part_id,
             pos % {part_len} AS i, CAST(v AS DOUBLE) AS x0 FROM tok),
    phm AS MATERIALIZED (
      SELECT doc_id, part_id, i % {season_period} AS ph, median(x0) AS pmed
      FROM raw GROUP BY doc_id, part_id, i % {season_period}),
    {deseason_name} AS MATERIALIZED (
      SELECT r.doc_id, r.part_id, r.i, r.x0 - p.pmed AS x
      FROM raw r JOIN phm p ON p.doc_id = r.doc_id
        AND p.part_id = r.part_id AND p.ph = r.i % {season_period}),"""
        if trend:
            # robust piecewise trend: the median of each full seasonal
            # cycle of the deseasoned series (exact quarters — see
            # stages/detectors.py _det_shesd_trend)
            base_cte += f"""
    cym AS MATERIALIZED (
      SELECT doc_id, part_id, i // {season_period} AS cyc,
             median(x) AS tmed
      FROM dbase GROUP BY doc_id, part_id, i // {season_period}),
    base AS MATERIALIZED (
      SELECT d.doc_id, d.part_id, d.i, d.x - c.tmed AS x
      FROM dbase d JOIN cym c ON c.doc_id = d.doc_id
        AND c.part_id = d.part_id AND c.cyc = d.i // {season_period}),"""
    # A53 threshold= knob: per-cycle maxima of the RAW series feed a
    # med_max / nearest-rank p95/p99 threshold; anomalies below it are
    # dropped in `sums`.  Rank = ceil(q * n_cycles), the same IEEE double
    # ceil the engine computes (stages/detectors.py _det_shesd_threshold).
    sums_join = ""
    sums_filter = ""
    if threshold is not None:
        base_cte += f"""
    cmx AS MATERIALIZED (
      SELECT doc_id, part_id, max(x0) AS m
      FROM raw GROUP BY doc_id, part_id, i // {season_period}),"""
        if threshold == "med_max":
            base_cte += """
    thr AS MATERIALIZED (
      SELECT doc_id, part_id, median(m) AS thr
      FROM cmx GROUP BY doc_id, part_id),"""
        else:
            q = {"p95": 0.95, "p99": 0.99}[threshold]
            base_cte += f"""
    cmr AS MATERIALIZED (
      SELECT doc_id, part_id, m,
             row_number() OVER (PARTITION BY doc_id, part_id
                                ORDER BY m) AS rn,
             count(*) OVER (PARTITION BY doc_id, part_id) AS nc
      FROM cmx),
    thr AS MATERIALIZED (
      SELECT doc_id, part_id, m AS thr FROM cmr
      WHERE rn = CAST(ceil({q!r} * nc) AS BIGINT)),"""
        sums_join = (
            "\n               JOIN raw r ON r.doc_id = p.doc_id"
            " AND r.part_id = p.part_id AND r.i = p.p"
            "\n               JOIN thr t ON t.doc_id = p.doc_id"
            " AND t.part_id = p.part_id")
        sums_filter = " AND r.x0 >= t.thr"
    # A55 only_last= knob: keep only anomalies in the last `only_last`
    # cycles — cutoff = (ceil(n/period) - only_last) * period with the
    # ceil as INTEGER division, exactly the engine's arithmetic
    # (stages/detectors.py _det_shesd_onlylast)
    if only_last is not None:
        sums_join += (
            "\n               JOIN meta m ON m.doc_id = p.doc_id"
            " AND m.part_id = p.part_id")
        sums_filter += (
            f" AND p.p >= greatest(0, ((m.n + {season_period} - 1)"
            f" // {season_period} - {only_last}) * {season_period})")
    # A54 e_value surface: the third output column becomes the exact-int
    # sum of 2 * (seasonal phase median) over the kept anomaly positions
    if evalue:
        third_agg = ("CAST(round(sum(2 * ph.pmed)) AS BIGINT)"
                     " AS exp2_sum")
        third_out = "CAST(COALESCE(s.exp2_sum, 0) AS BIGINT) AS exp2_sum"
        sums_join += (
            f"\n               JOIN phm ph ON ph.doc_id = p.doc_id"
            f" AND ph.part_id = p.part_id"
            f" AND ph.ph = p.p % {season_period}")
    else:
        third_agg = "sum(p.p * p.p) AS pos_sumsq"
        third_out = ("CAST(COALESCE(s.pos_sumsq, 0) AS BIGINT)"
                     " AS pos_sumsq")
    return f"""
    WITH {_SEQ_TOK_CTE},{base_cte}
    meta AS MATERIALIZED (
      SELECT doc_id, part_id, count(*) AS n,
             least({f"CAST({k_max} AS BIGINT)" if k_max is not None
                    else "CAST(ceil(0.02 * count(*)) AS BIGINT)"},
                   count(*) - 2) AS kmax
      FROM base GROUP BY doc_id, part_id),
    lam(m, lv) AS MATERIALIZED (SELECT * FROM (VALUES {lam_rows})),
    st0 AS MATERIALIZED (
      SELECT doc_id, part_id, CAST([] AS BIGINT[]) AS removed,
             CAST([] AS DOUBLE[]) AS rs, false AS stopped FROM meta),
    {",".join(steps)},
    expl AS (SELECT s.doc_id, s.part_id, unnest(s.rs) AS r,
                    generate_subscripts(s.rs, 1) AS k FROM {prev} s),
    hit AS (SELECT ex.doc_id, ex.part_id, max(ex.k) AS n_anom
            FROM expl ex
            JOIN meta m ON m.doc_id = ex.doc_id AND m.part_id = ex.part_id
            JOIN lam l ON l.m = m.n - ex.k
            WHERE ex.r > l.lv
            GROUP BY ex.doc_id, ex.part_id),
    pos AS (SELECT s.doc_id, s.part_id, unnest(s.removed) AS p,
                   generate_subscripts(s.removed, 1) AS k FROM {prev} s),
    sums AS (SELECT p.doc_id, p.part_id, count(*) AS n_anomalies,
                    sum(p.p) AS pos_sum, {third_agg}
             FROM pos p JOIN hit h ON h.doc_id = p.doc_id AND h.part_id = p.part_id{sums_join}
             WHERE p.k <= h.n_anom{sums_filter}
             GROUP BY p.doc_id, p.part_id),
    parts AS (SELECT doc_id,
                     CAST(unnest(range(0, greatest(CAST(ceil(
                         CAST(len(toks) AS DOUBLE) / {part_len}) AS BIGINT), 1)))
                         AS INTEGER) AS part_id
              FROM seq),
    -- guard: the unroll covers kmax <= k_steps only; longer series would
    -- silently under-iterate, so fail the oracle query instead
    guard AS (SELECT CASE WHEN max(kmax) > {k_steps}
                          THEN error('esd oracle: max(kmax)=' || max(kmax) ||
                                     ' exceeds unrolled k_steps={k_steps}')
                          ELSE 1 END AS ok FROM meta)
    SELECT parts.doc_id, parts.part_id, '{det_name}' AS detector,
           COALESCE(s.n_anomalies, 0) AS n_anomalies,
           CAST(COALESCE(s.pos_sum, 0) AS BIGINT) AS pos_sum,
           {third_out}
    FROM parts LEFT JOIN sums s
      ON s.doc_id = parts.doc_id AND s.part_id = parts.part_id
    CROSS JOIN guard WHERE guard.ok = 1
    """


def _esd_piecewise_sql(window: int = 100, season_period: int | None = None,
                       direction: str = "both", alpha: float = 0.05) -> str:
    """detect_esd_piecewise / detect_shesd_piecewise oracle — the family's
    ``longterm`` mode.  Reuses the unrolled `_esd_sql` machinery with
    part_len = window (each "part" becomes one piecewise window, with
    window-LOCAL positions i = pos % window), then re-aggregates the
    per-window rows to one per-doc row with series-GLOBAL position sums:
    for a window at offset o = window * part_id,
        sum(p_global)   = pos_sum_local + n * o
        sum(p_global^2) = pos_sumsq_local + 2*o*pos_sum_local + n*o^2
    — exact int64 identities, so the compare stays bit-for-bit.  (At
    driver scale every doc is a single engine part; the engine's
    piecewise detector windows are part-local, matching this split.)"""
    det = ("shesd_piecewise" if season_period is not None
           else "esd_piecewise")
    inner = _esd_sql(alpha=alpha, season_period=season_period,
                     direction=direction, part_len=window)
    return f"""
    SELECT doc_id, 0 AS part_id, '{det}' AS detector,
           CAST(sum(n_anomalies) AS BIGINT) AS n_anomalies,
           CAST(sum(pos_sum + n_anomalies * ({window} * part_id))
                AS BIGINT) AS pos_sum,
           CAST(sum(pos_sumsq
                    + 2 * ({window} * part_id) * pos_sum
                    + n_anomalies * ({window} * part_id) * ({window} * part_id))
                AS BIGINT) AS pos_sumsq
    FROM ({inner}) GROUP BY doc_id
    """


def _kmeans_sql(k: int = 8, dim: int = 64, assign_only: bool = False,
                centroid_pairs: bool = False,
                cluster_counts: bool = False,
                label_purity: bool = False,
                confusion: bool = False,
                radius: bool = False,
                centroid_margin: bool = False) -> str:
    """kmeans_train oracle: the 2-iteration fused Lloyd loop
    (pipelines/kmeans.py) unrolled in SQL.  Exactness rests on three
    pins shared with the engine: (a) the initial centroids are integral
    quantized floats, embedded here as literals; (b) per-cluster
    coordinate sums are INT64 over the micro-quantized embedding
    (associative, so a DuckDB SUM equals the distributed reduction
    verbatim); (c) assignment scores fold LEFT over the positions from a
    0.0 seed — ``list_reduce(list_prepend(0.0, terms))`` replays
    numpy's pinned ``for p: acc += e_p * c_p`` loop IEEE-identically,
    then one division by the count denominator.  Ties go to the lowest
    cid on both sides (first-argmax == row_number ORDER BY score DESC,
    cid ASC).  Empty clusters carry the previous centroid, denominator
    1.  Every chained CTE is MATERIALIZED (DuckDB re-inlines plain CTE
    chains and runtime explodes)."""
    from anomalydetection_ray.pipelines.kmeans import ESCALE, init_centroids

    c0 = init_centroids(k, dim)  # integral float64 — exact SQL literals
    rows = ", ".join(
        f"({j}, [{', '.join(str(int(x)) for x in c0[j])}]::DOUBLE[])"
        for j in range(k))
    fold = ("list_reduce(list_prepend(0.0, list_transform(range(1, "
            f"{dim + 1}), p -> q.ed[p] * c.cl[p])), (a, b) -> a + b)")
    return f"""
    WITH c1(cid, cl) AS (VALUES {rows}),
    eq AS MATERIALIZED (
        SELECT vec_id, CAST(embedding AS DOUBLE[]) AS ed,
               list_transform(CAST(embedding AS DOUBLE[]),
                   v -> CAST(floor(v * {ESCALE} + 0.5) AS BIGINT)) AS ei
        FROM embeddings),
    asg1 AS MATERIALIZED (
        SELECT vec_id, cid FROM (
            SELECT q.vec_id, c.cid,
                   row_number() OVER (PARTITION BY q.vec_id
                       ORDER BY {fold} DESC, c.cid) AS rn
            FROM eq q CROSS JOIN c1 c) WHERE rn = 1),
    st1 AS MATERIALIZED (
        SELECT a.cid, t.pos, CAST(sum(q.ei[t.pos]) AS BIGINT) AS s,
               CAST(count(*) AS BIGINT) AS cnt
        FROM asg1 a JOIN eq q USING (vec_id)
        CROSS JOIN range(1, {dim + 1}) t(pos)
        GROUP BY a.cid, t.pos),
    c2 AS MATERIALIZED (
        SELECT c.cid,
               CASE WHEN n.cnt > 0 THEN n.cl ELSE c.cl END AS cl,
               CASE WHEN n.cnt > 0 THEN CAST(n.cnt AS DOUBLE)
                    ELSE 1.0 END AS denom
        FROM c1 c LEFT JOIN (
            SELECT cid, list(CAST(s AS DOUBLE) ORDER BY pos) AS cl,
                   min(cnt) AS cnt
            FROM st1 GROUP BY cid) n USING (cid)),
    asg2 AS MATERIALIZED (
        SELECT vec_id, cid, score FROM (
            SELECT q.vec_id, c.cid, {fold} / c.denom AS score,
                   row_number() OVER (PARTITION BY q.vec_id
                       ORDER BY {fold} / c.denom DESC, c.cid) AS rn
            FROM eq q CROSS JOIN c2 c) WHERE rn = 1),
    st2 AS MATERIALIZED (
        SELECT a.cid, t.pos, CAST(sum(q.ei[t.pos]) AS BIGINT) AS s,
               CAST(count(*) AS BIGINT) AS cnt
        FROM asg2 a JOIN eq q USING (vec_id)
        CROSS JOIN range(1, {dim + 1}) t(pos)
        GROUP BY a.cid, t.pos)
    {_kmeans_tail(dim, assign_only, centroid_pairs, cluster_counts, label_purity, confusion, radius, centroid_margin)}
    """


def _kmeans_tail(dim: int, assign_only: bool, centroid_pairs: bool,
                 cluster_counts: bool = False,
                 label_purity: bool = False,
                 confusion: bool = False,
                 radius: bool = False,
                 centroid_margin: bool = False) -> str:
    from anomalydetection_ray.pipelines.kmeans import ESCALE

    if assign_only:
        return "SELECT vec_id, CAST(cid AS BIGINT) AS cid, score FROM asg2"
    if radius:
        return f""", mem AS MATERIALIZED (
        SELECT a.cid, a.vec_id, t.pos, q.ei[t.pos] AS qi
        FROM asg2 a JOIN eq q USING (vec_id)
        CROSS JOIN range(1, {dim + 1}) t(pos)),
    ccn AS (SELECT cid, CAST(min(cnt) AS BIGINT) AS cnt
            FROM st2 GROUP BY cid),
    r2 AS MATERIALIZED (
        SELECT mem.cid, mem.vec_id,
               CAST(sum(CAST(ccn.cnt * mem.qi - s2.s AS HUGEINT)
                        * CAST(ccn.cnt * mem.qi - s2.s AS HUGEINT))
                    AS HUGEINT) AS r2s
        FROM mem JOIN st2 s2 ON s2.cid = mem.cid AND s2.pos = mem.pos
        JOIN ccn ON ccn.cid = mem.cid
        GROUP BY mem.cid, mem.vec_id),
    rk2 AS (SELECT cid, r2s,
                   row_number() OVER (PARTITION BY cid
                                      ORDER BY r2s, vec_id) AS rk,
                   count(*) OVER (PARTITION BY cid) AS m
            FROM r2),
    mx AS (SELECT cid, max(r2s) AS mxv,
                  CAST(count(*) AS BIGINT) AS n
           FROM r2 GROUP BY cid),
    md AS (SELECT cid, min(r2s) AS mdv FROM rk2
           WHERE rk = (m + 1) // 2 GROUP BY cid)
    SELECT CAST(mx.cid AS BIGINT) AS cid, mx.n,
           CAST(mx.mxv // 4294967296 AS BIGINT) AS r2max_hi,
           CAST(mx.mxv % 4294967296 AS BIGINT) AS r2max_lo,
           sqrt(CAST(mx.mxv // 4294967296 AS DOUBLE) * 4294967296.0
                + CAST(mx.mxv % 4294967296 AS DOUBLE))
               / (CAST(ccn.cnt AS DOUBLE) * 1048576.0) AS radius_max,
           sqrt(CAST(md.mdv // 4294967296 AS DOUBLE) * 4294967296.0
                + CAST(md.mdv % 4294967296 AS DOUBLE))
               / (CAST(ccn.cnt AS DOUBLE) * 1048576.0) AS radius_med
    FROM mx JOIN md USING (cid) JOIN ccn USING (cid)"""
    if confusion:
        return """, lab AS (SELECT a.cid, CAST(e2.label AS BIGINT) AS label,
                    CAST(count(*) AS BIGINT) AS n
             FROM asg2 a JOIN embeddings e2 USING (vec_id)
             GROUP BY a.cid, e2.label)
    SELECT CAST(cid AS BIGINT) AS cid, label, n FROM lab"""
    if label_purity:
        return """, lab AS (SELECT a.cid, CAST(e2.label AS BIGINT) AS label,
                    CAST(count(*) AS BIGINT) AS n
             FROM asg2 a JOIN embeddings e2 USING (vec_id)
             GROUP BY a.cid, e2.label),
    tots AS (SELECT cid, CAST(sum(n) AS BIGINT) AS n_vecs
             FROM lab GROUP BY cid),
    tops AS (SELECT cid, label AS top_label, n AS top_count FROM (
                 SELECT cid, label, n,
                        row_number() OVER (PARTITION BY cid
                            ORDER BY n DESC, label) AS rn
                 FROM lab) WHERE rn = 1)
    SELECT CAST(t.cid AS BIGINT) AS cid, t.n_vecs,
           tops.top_label, tops.top_count,
           CAST(tops.top_count AS DOUBLE) / CAST(t.n_vecs AS DOUBLE)
               AS purity
    FROM tots t JOIN tops USING (cid)"""
    if cluster_counts:
        return """, cc AS (SELECT cid, CAST(min(cnt) AS BIGINT) AS cnt
               FROM st2 GROUP BY cid),
    agg AS (SELECT CAST(count(*) AS BIGINT) AS k_nonempty,
                   CAST(sum(cnt) AS BIGINT) AS n,
                   CAST(sum(cnt * cnt) AS BIGINT) AS ssq,
                   CAST(max(cnt) AS BIGINT) AS mx
            FROM cc WHERE cnt > 0)
    SELECT k_nonempty, n AS n_vectors,
           CAST(n * n - ssq AS BIGINT) AS bal_num,
           CAST(n * n AS BIGINT) AS bal_den,
           CASE WHEN n > 0 THEN CAST(n * n - ssq AS DOUBLE)
                / CAST(n * n AS DOUBLE) END AS gini_simpson,
           CASE WHEN n > 0 THEN CAST(mx AS DOUBLE) / CAST(n AS DOUBLE)
           END AS max_share
    FROM agg"""
    if centroid_margin:
        def fold(ea: str, eb: str) -> str:
            return ("list_reduce(list_prepend(0.0, list_transform("
                    f"range(1, {dim + 1}), p -> {ea}[p] * {eb}[p])), "
                    "(x, y) -> x + y)")

        return f''', cf AS MATERIALIZED (
        SELECT g.cid, min(s2.cnt) AS cnt,
               list(CAST(s2.s AS DOUBLE) / ({float(ESCALE)} * s2.cnt)
                    ORDER BY g.pos) AS m
        FROM (SELECT c.cid, t.pos
              FROM c1 c CROSS JOIN range(1, {dim + 1}) t(pos)) g
        LEFT JOIN st2 s2 ON s2.cid = g.cid AND s2.pos = g.pos
        GROUP BY g.cid),
    pr AS MATERIALIZED (
        SELECT a.cid, b.cid AS ocid,
               {fold("a.m", "b.m")}
                 / (sqrt({fold("a.m", "a.m")})
                    * sqrt({fold("b.m", "b.m")})) AS cosine
        FROM cf a JOIN cf b ON a.cid <> b.cid
        WHERE a.cnt IS NOT NULL AND b.cnt IS NOT NULL)
    SELECT CAST(cid AS BIGINT) AS cid,
           CAST(ocid AS BIGINT) AS nearest_cid,
           cosine AS max_cosine
    FROM (SELECT cid, ocid, cosine,
                 row_number() OVER (PARTITION BY cid
                                    ORDER BY cosine DESC, ocid) AS rn
          FROM pr) WHERE rn = 1'''
    if centroid_pairs:
        def fold(ea: str, eb: str) -> str:
            return ("list_reduce(list_prepend(0.0, list_transform("
                    f"range(1, {dim + 1}), p -> {ea}[p] * {eb}[p])), "
                    "(x, y) -> x + y)")

        return f''', cf AS MATERIALIZED (
        SELECT g.cid, min(s2.cnt) AS cnt,
               list(CAST(s2.s AS DOUBLE) / ({float(ESCALE)} * s2.cnt)
                    ORDER BY g.pos) AS m
        FROM (SELECT c.cid, t.pos
              FROM c1 c CROSS JOIN range(1, {dim + 1}) t(pos)) g
        LEFT JOIN st2 s2 ON s2.cid = g.cid AND s2.pos = g.pos
        GROUP BY g.cid)
    SELECT CAST(a.cid AS BIGINT) AS cid_a, CAST(b.cid AS BIGINT) AS cid_b,
           {fold("a.m", "b.m")} AS dot,
           {fold("a.m", "b.m")}
             / (sqrt({fold("a.m", "a.m")}) * sqrt({fold("b.m", "b.m")}))
               AS cosine
    FROM cf a JOIN cf b ON a.cid < b.cid
    WHERE a.cnt IS NOT NULL AND b.cnt IS NOT NULL'''
    return f'''SELECT CAST(g.cid AS BIGINT) AS cid, CAST(g.pos AS BIGINT) AS pos,
           COALESCE(s2.s, 0) AS coord_sum_q,
           COALESCE(s2.cnt, 0) AS n_assigned,
           CASE WHEN s2.cnt IS NULL THEN NULL
                ELSE CAST(s2.s AS DOUBLE) / ({float(ESCALE)} * s2.cnt)
           END AS mean
    FROM (SELECT c.cid, t.pos
          FROM c1 c CROSS JOIN range(1, {dim + 1}) t(pos)) g
    LEFT JOIN st2 s2 ON s2.cid = g.cid AND s2.pos = g.pos'''


def _ann_lsh_sql(k: int = 10, query_id: int = 0, dim: int = 64,
                 max_planes: int = 12, seed: int = 42) -> str:
    """ann_lsh_topk oracle: the seeded random-hyperplane LSH reproduced in
    SQL.  The hyperplane matrix is a pure function of (seed, n_planes,
    dim) and numpy's Generator fills arrays C-order from a sequential
    stream, so the first ``n_planes`` rows of the max_planes x dim draw
    equal any smaller draw — one literal DOUBLE[] VALUES table covers
    every corpus size, with ``n_planes`` itself computed from count(*) in
    SQL exactly as pipelines/similarity.py:_plane_params does.  Bucket =
    sum_j (dot(v, plane_j) > 0) << j (sign is normalization-invariant);
    probe = query bucket U hamming-1 neighbors; exact cosine rerank
    inside the candidate set, (cosine desc, vec_id asc) tiebreak."""
    import numpy as np

    planes = np.random.default_rng(seed).standard_normal((max_planes, dim))
    rows = ", ".join(
        f"({j}, [{', '.join(repr(float(x)) for x in planes[j])}]::DOUBLE[])"
        for j in range(max_planes)
    )
    return f"""
    WITH planes(j, p) AS (VALUES {rows}),
    np AS (SELECT GREATEST(2, LEAST({max_planes}, CAST(FLOOR(LOG2(
               GREATEST((SELECT count(*) FROM embeddings), 4) / 4.0))
               AS INTEGER))) AS n_planes),
    sig AS MATERIALIZED (
      SELECT e.vec_id, e.label,
             CAST(SUM(CASE WHEN list_dot_product(
                                CAST(e.embedding AS DOUBLE[]), pl.p) > 0
                           THEN 1 << pl.j ELSE 0 END) AS BIGINT) AS bucket
      FROM embeddings e CROSS JOIN np JOIN planes pl ON pl.j < np.n_planes
      GROUP BY e.vec_id, e.label),
    probe AS (
      SELECT bucket AS b FROM sig WHERE vec_id = {query_id}
      UNION
      SELECT xor(s.bucket, CAST(1 << pl.j AS BIGINT))
      FROM sig s CROSS JOIN np JOIN planes pl ON pl.j < np.n_planes
      WHERE s.vec_id = {query_id})
    SELECT s.vec_id, s.label
    FROM sig s JOIN embeddings e ON e.vec_id = s.vec_id
    WHERE s.vec_id <> {query_id} AND s.bucket IN (SELECT b FROM probe)
    ORDER BY list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
        (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings
         WHERE vec_id = {query_id})) DESC, s.vec_id
    LIMIT {k}
    """


def _ann_ivf_sql(k: int = 10, query_id: int = 0, dim: int = 64,
                 max_k: int = 32, seed: int = 7, probe: int = 2) -> str:
    """ann_ivf_topk oracle: the seeded IVF coarse quantizer reproduced in
    SQL.  The unit-centroid pool is a pure function of (seed, max_k, dim)
    and row-wise normalization commutes with prefix-slicing, so one
    literal DOUBLE[] VALUES table of all ``max_k`` normalized rows covers
    every adaptive ``n_cents`` (computed from count(*) exactly as
    pipelines/similarity.py:_ivf_params does).  Assignment = argmax raw
    dot with ties to the lowest centroid id (row_number ORDER BY dot
    DESC, j ASC); probe = the ``probe`` centroids nearest the query;
    exact cosine rerank inside the probed lists, (cosine desc, vec_id
    asc) tiebreak."""
    import numpy as np

    pool = np.random.default_rng(seed).standard_normal((max_k, dim))
    cn = pool / np.linalg.norm(pool, axis=1, keepdims=True)
    rows = ", ".join(
        f"({j}, [{', '.join(repr(float(x)) for x in cn[j])}]::DOUBLE[])"
        for j in range(max_k)
    )
    return f"""
    WITH cents(j, c) AS (VALUES {rows}),
    meta AS (SELECT GREATEST(4, LEAST({max_k}, CAST(FLOOR(SQRT(
                 (SELECT count(*) FROM embeddings) / 8.0)) AS INTEGER))) AS k),
    qv AS (SELECT CAST(embedding AS DOUBLE[]) AS v FROM embeddings
           WHERE vec_id = {query_id}),
    asg AS MATERIALIZED (
        SELECT vec_id, label, j AS cid FROM (
            SELECT e.vec_id, e.label, ct.j,
                   row_number() OVER (PARTITION BY e.vec_id ORDER BY
                       list_dot_product(CAST(e.embedding AS DOUBLE[]), ct.c)
                       DESC, ct.j) AS rn
            FROM embeddings e CROSS JOIN meta JOIN cents ct ON ct.j < meta.k)
        WHERE rn = 1),
    probe AS (SELECT ct.j FROM cents ct CROSS JOIN meta CROSS JOIN qv
              WHERE ct.j < meta.k
              ORDER BY list_dot_product(qv.v, ct.c) DESC, ct.j
              LIMIT {probe})
    SELECT a.vec_id, a.label
    FROM asg a JOIN embeddings e ON e.vec_id = a.vec_id
    WHERE a.vec_id <> {query_id} AND a.cid IN (SELECT j FROM probe)
    ORDER BY list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
        (SELECT v FROM qv)) DESC, a.vec_id
    LIMIT {k}
    """


_STOPWORDS_SQL = {
    "de": "['der','die','und','das','ist','nicht','ein','mit','zu','den']",
    "en": "['the','and','of','to','a','in','is','that','it','for']",
    "es": "['el','la','los','y','de','un','una','es','que','por']",
    "fr": "['le','la','les','et','de','un','une','est','que','pour']",
}


def _grubbs_sql(alpha: float = 0.05, max_n: int = 4096) -> str:
    """A22 Grubbs single-outlier oracle: exact n-scaled integer
    statistics + an n-keyed critical-value table generated from the
    engine's own t-PPF (the same shared-constant device the ESD oracle
    uses).  Guard CTE errors if any series exceeds the table range."""
    from anomalydetection_ray.stages.detectors import grubbs_lambda

    lam_rows = ", ".join(
        f"({n}, {grubbs_lambda(n, alpha)!r})" for n in range(3, max_n + 1))
    return f"""
        WITH {_SEQ_TOK_CTE},
        parts AS (
            SELECT doc_id,
                   CAST(unnest(range(0, greatest(CAST(ceil(
                       CAST(len(toks) AS DOUBLE) / 1000000) AS BIGINT), 1)))
                       AS INTEGER) AS part_id
            FROM seq),
        s AS MATERIALIZED (
            SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                   pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
        st AS MATERIALIZED (
            SELECT doc_id, part_id, count(*) AS n,
                   CAST(sum(v) AS BIGINT) AS sv,
                   CAST(sum(v * v) AS BIGINT) AS qv
            FROM s GROUP BY doc_id, part_id),
        guard AS (SELECT CASE WHEN max(n) > {max_n}
                              THEN error('grubbs oracle: max(n)=' || max(n)
                                         || ' exceeds lambda table {max_n}')
                         END AS g FROM st),
        lam(n, lv) AS MATERIALIZED (SELECT * FROM (VALUES {lam_rows})),
        best AS (
            SELECT s.doc_id, s.part_id, s.i,
                   abs(st.n * s.v - st.sv) AS dev,
                   st.n, st.sv, st.qv
            FROM s JOIN st USING (doc_id, part_id)
            QUALIFY row_number() OVER (
                PARTITION BY s.doc_id, s.part_id
                ORDER BY abs(st.n * s.v - st.sv) DESC, s.i ASC) = 1),
        res AS (
            SELECT b.doc_id, b.part_id,
                   CASE WHEN b.n >= 3
                             AND (b.n * b.qv - b.sv * b.sv) > 0
                             AND CAST(b.dev AS DOUBLE) >
                                 l.lv * sqrt(CAST(b.n * b.qv - b.sv * b.sv
                                                  AS DOUBLE)
                                             * (CAST(b.n AS DOUBLE)
                                                / CAST(b.n - 1 AS DOUBLE)))
                        THEN 1 ELSE 0 END AS flag,
                   b.i
            FROM best b LEFT JOIN lam l ON l.n = b.n)
        SELECT r.doc_id, r.part_id, 'grubbs' AS detector,
               CAST(r.flag AS BIGINT) AS n_anomalies,
               CAST(CASE WHEN r.flag = 1 THEN r.i ELSE 0 END AS BIGINT)
                   AS pos_sum,
               CAST(CASE WHEN r.flag = 1 THEN r.i * r.i ELSE 0 END AS BIGINT)
                   AS pos_sumsq
        FROM res r, guard
    """


def _fk_audit_sql() -> str:
    """s16_fk_audit oracle: per FK edge, child keys grouped then LEFT
    JOINed to the parent; orphan = parent key NULL.  UNION ALL of the
    five star-schema edges (same literals as pipelines/queries.py
    s16_fk_audit)."""
    edges = [
        ("orders.o_custkey->customer.c_custkey",
         "orders", "o_custkey", "customer", "c_custkey"),
        ("lineitem.l_orderkey->orders.o_orderkey",
         "lineitem", "l_orderkey", "orders", "o_orderkey"),
        ("lineitem.l_partkey->part.p_partkey",
         "lineitem", "l_partkey", "part", "p_partkey"),
        ("lineitem.l_suppkey->supplier.s_suppkey",
         "lineitem", "l_suppkey", "supplier", "s_suppkey"),
        ("customer.c_nationkey->nation.n_nationkey",
         "customer", "c_nationkey", "nation", "n_nationkey"),
    ]
    parts = []
    for name, child, fk, parent, pk in edges:
        parts.append(f"""
        SELECT '{name}' AS relation,
               CAST(sum(n) AS BIGINT) AS n_child_rows,
               CAST(count(*) AS BIGINT) AS n_child_keys,
               CAST(COALESCE(sum(n) FILTER (orphan), 0) AS BIGINT)
                   AS n_orphan_rows,
               CAST(count(*) FILTER (orphan) AS BIGINT) AS n_orphan_keys
        FROM (SELECT ck.k, ck.n, p.{pk} IS NULL AS orphan
              FROM (SELECT {fk} AS k, CAST(count(*) AS BIGINT) AS n
                    FROM {child} GROUP BY 1) ck
              LEFT JOIN {parent} p ON ck.k = p.{pk})""")
    return " UNION ALL ".join(parts)


def _spectral_sql(period: int, unit_us: int, power_col: str) -> str:
    """A95/A96 oracle: the one-period DFT power via per-residue count
    sums (exact ints — zero bins free) and the engine's pinned ordered
    fold (ascending residue, 0.0 seed, one multiply per term);
    cos/sin/pi() hit the same libm as Python's math module, and the
    angle expression replays ((2*pi)*r)/period left-associatively."""
    return f"""
        WITH c AS (SELECT event_type,
                          CAST((epoch_us(ts) // {unit_us}) % {period}
                               AS BIGINT) AS r,
                          CAST(count(*) AS BIGINT) AS n
                   FROM events GROUP BY event_type, r),
        grid AS (SELECT e.event_type, t.r
                 FROM (SELECT DISTINCT event_type FROM c) e
                 CROSS JOIN range(0, {period}) t(r)),
        fr AS (SELECT g.event_type, g.r, COALESCE(c.n, 0) AS n
               FROM grid g LEFT JOIN c
               ON c.event_type = g.event_type AND c.r = g.r),
        l AS (SELECT event_type,
                     list(CAST(n AS DOUBLE) ORDER BY r) AS sv,
                     list(n ORDER BY r) AS si,
                     CAST(sum(n) AS BIGINT) AS total
              FROM fr GROUP BY event_type),
        f AS (SELECT event_type, total, si,
                     list_reduce(list_prepend(0.0, list_transform(
                         range(1, {period + 1}),
                         p -> sv[p] * cos(2 * pi() * (p - 1)
                                          / {period}))),
                         (a, b) -> a + b) AS x,
                     list_reduce(list_prepend(0.0, list_transform(
                         range(1, {period + 1}),
                         p -> sv[p] * sin(2 * pi() * (p - 1)
                                          / {period}))),
                         (a, b) -> a + b) AS y
              FROM l)
        SELECT event_type, total,
               CAST(list_position(si, list_max(si)) - 1 AS BIGINT)
                   AS r_peak,
               x AS cos_sum, y AS sin_sum, x * x + y * y AS {power_col}
        FROM f
    """


def _bloom_sql() -> str:
    """J24 oracle: the 3 multiply-add mod-2^64 hashes replayed with
    _mulmod64 (numpy uint64 wraparound == HUGEINT modular arithmetic),
    bit = h >> 48; the bit SET is a DISTINCT union; rates pinned."""
    from anomalydetection_ray.pipelines.queries import _BLOOM_HASHES

    def h(expr: str, a: int, b: int) -> str:
        return (f"(({_mulmod64(expr, a)} + {b}) % {_M64})"
                f" // 281474976710656")

    key_o = "CAST(o_orderkey AS HUGEINT)"
    key_l = "CAST(l.l_orderkey AS HUGEINT)"
    bit_selects = " UNION ".join(
        f"SELECT DISTINCT {h(key_o, a, b)} AS b FROM sub"
        for a, b in _BLOOM_HASHES)
    pass_pred = " AND ".join(
        f"({h(key_l, a, b)} IN (SELECT b FROM bits))"
        for a, b in _BLOOM_HASHES)
    split = (lambda e: f"(CAST(({e}) // 4294967296 AS DOUBLE)"
             f" * 4294967296.0 + CAST(({e}) % 4294967296 AS DOUBLE))")
    return f"""
        WITH sub AS (SELECT o_orderkey FROM orders
                     WHERE o_orderdate >= TIMESTAMP '1996-01-01'
                       AND o_orderdate < TIMESTAMP '1996-07-01'),
        bits AS ({bit_selects}),
        pr AS (SELECT ({pass_pred}) AS pass,
                      (l.l_orderkey IN (SELECT o_orderkey FROM sub))
                          AS matched
               FROM lineitem l),
        a AS (SELECT CAST(count(*) AS BIGINT) AS n_li,
                     CAST(sum(CASE WHEN pass THEN 1 ELSE 0 END)
                          AS BIGINT) AS n_pass,
                     CAST(sum(CASE WHEN matched THEN 1 ELSE 0 END)
                          AS BIGINT) AS n_match
              FROM pr)
        SELECT n_li, n_pass, n_match,
               n_pass - n_match AS n_false_positive,
               CASE WHEN n_li - n_match > 0 THEN
                   {split("n_pass - n_match")}
                   / {split("n_li - n_match")} END AS fp_rate,
               CASE WHEN n_li > 0 THEN
                   {split("n_pass")} / {split("n_li")} END
                   AS pass_rate
        FROM a
    """


def oracle_sql() -> dict[str, str]:
    """DuckDB equivalents (views pre-registered by the driver).  Keys
    absent here (codec/persist summaries: side-effectful; media: binary
    payload decode; g3_approx: approximate by construction) get the
    driver's rows-only check; their semantics are covered by the
    bit-for-bit oracle gate in tests/."""
    lang_ratio = ", ".join(
        f"CASE WHEN len(ws) = 0 THEN 0.0 ELSE "
        f"CAST(len(list_filter(ws, x -> list_contains({lst}, x))) AS DOUBLE)"
        f" / len(ws) END AS r_{lang}"
        for lang, lst in sorted(_STOPWORDS_SQL.items())
    )
    try:  # embedding dim for the LSH plane literals (footer-only read)
        import pyarrow.parquet as pq

        _pf = pq.ParquetFile("/root/testdata/sf0.01/embeddings.parquet")
        _dim = len(_pf.read_row_group(0, columns=["embedding"])
                   .column("embedding")[0].values)
    except Exception:
        _dim = 64
    # reusable sub-queries (lang-ID prediction / quality score), shared by
    # lang_id, t5_lang_mix, quality_scores_full and the curation funnel
    _langid_sql = f"""
        WITH w AS (
            SELECT doc_id,
                   list_slice(regexp_extract_all(lower(text), '[0-9a-z_]+'),
                              1, 2000) AS ws
            FROM documents),
        r AS (SELECT doc_id, len(ws) AS nw, {lang_ratio} FROM w),
        b AS (SELECT doc_id, nw, r_de, r_en, r_es, r_fr,
                     greatest(r_de, r_en, r_es, r_fr) AS best
              FROM r)
        SELECT doc_id,
               CASE WHEN nw = 0 OR best < 0.02 THEN 'unknown'
                    WHEN r_de = best THEN 'de'
                    WHEN r_en = best THEN 'en'
                    WHEN r_es = best THEN 'es'
                    ELSE 'fr' END AS pred_lang,
               best AS confidence
        FROM b
    """
    _quality_sql = r"""
        WITH q AS (
            SELECT doc_id,
                   octet_length(encode(text)) AS n_bytes,
                   length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS alpha_chars,
                   octet_length(encode(regexp_replace(text, '[\t\n\x0B\x0C\r ]', '', 'g')))
                       AS word_bytes,
                   len(list_filter(string_split_regex(text, '[\t\n\x0B\x0C\r ]+'),
                                   x -> x <> '')) AS word_runs,
                   array_length(string_split_regex(text, '\s+')) AS ws_tokens
            FROM documents),
        q2 AS (
            SELECT doc_id, n_bytes, alpha_chars, ws_tokens,
                   CASE WHEN n_bytes = 0 THEN 0.0
                        ELSE CAST(alpha_chars AS DOUBLE) / n_bytes END AS alpha_ratio,
                   CASE WHEN word_runs = 0 THEN 0.0
                        ELSE CAST(word_bytes AS DOUBLE) / word_runs END AS mean_w
            FROM q)
        SELECT doc_id, n_bytes, alpha_chars, alpha_ratio, ws_tokens,
               CASE WHEN n_bytes = 0 THEN 0.0
                    ELSE greatest(least(
                        0.5 * alpha_ratio
                        + 0.3 * least(mean_w / 8.0, 1.0)
                        + 0.2 * least(n_bytes / 2000.0, 1.0), 1.0), 0.0)
               END AS quality_score
        FROM q2
    """
    _d = {
        "ann_lsh_topk": _ann_lsh_sql(dim=_dim),
        "ann_ivf_topk": _ann_ivf_sql(dim=_dim),
        "rollup_tier1_docs": f"WITH {_SEQ_TOK_CTE}, {_T1_CTE} {_T1_SELECT}",
        "gapfill_locf_docs": _gapfill_locf_sql(),
        "gapfill_linear_docs": _gapfill_linear_sql(),
        # media features: replay the synth payload (text repeated to 4096
        # bytes; byte i = text byte i mod len — driver docs are pure
        # ASCII) and the fake decoder's 64-byte-bucket sums per doc
        "media_features": """
            WITH b AS MATERIALIZED (
              SELECT doc_id, i // 64 AS j,
                     CAST(ascii(substr(text,
                          CAST((i % length(text)) + 1 AS INT), 1))
                          AS BIGINT) AS byte
              FROM (SELECT doc_id, text, unnest(range(4096)) AS i
                    FROM documents)),
            bs AS MATERIALIZED (
              SELECT doc_id, j, CAST(sum(byte) AS BIGINT) AS bsum
              FROM b GROUP BY doc_id, j),
            s AS (
              SELECT doc_id,
                     CAST(sum(bsum) AS BIGINT) AS byte_sum,
                     CAST(sum((j + 1) * bsum) AS BIGINT) AS wsum,
                     CAST(min(bsum) AS BIGINT) AS bucket_min,
                     CAST(max(bsum) AS BIGINT) AS bucket_max
              FROM bs GROUP BY doc_id)
            SELECT CAST(doc_id AS VARCHAR) AS media_id,
                   CASE doc_id % 3 WHEN 0 THEN 'image'
                                   WHEN 1 THEN 'audio'
                                   ELSE 'video' END AS kind,
                   byte_sum, wsum, bucket_min, bucket_max
            FROM s
        """,
        "gapfill_drop_docs": _gapfill_drop_sql(),
        "rollup_tier2_docs": f"""
            WITH {_SEQ_TOK_CTE}, {_T1_CTE}
            SELECT doc_id, source, CAST(2 AS TINYINT) AS tier,
                   bucket // 10 AS bucket,
                   CAST(min(mn) AS INTEGER) AS "min",
                   CAST(max(mx) AS INTEGER) AS "max",
                   CAST(sum(s) AS DOUBLE) / sum(c) AS "mean",
                   CAST(sum(c) AS BIGINT) AS "count",
                   max(score) AS anomaly_score, false AS filled
            FROM t1 GROUP BY doc_id, source, bucket // 10
        """,
        "topk_anomalies_docs": f"""
            WITH {_SEQ_TOK_CTE}, {_T1_CTE}
            {_T1_SELECT}
            ORDER BY anomaly_score DESC, doc_id ASC, bucket ASC LIMIT 20
        """,
        "detect_threshold": f"""
            WITH {_SEQ_TOK_CTE},
            parts AS (
                SELECT doc_id,
                       CAST(unnest(range(0, greatest(CAST(ceil(
                           CAST(len(toks) AS DOUBLE) / 1000000) AS BIGINT), 1)))
                           AS INTEGER) AS part_id
                FROM seq),
            s AS (SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                         pos % 1000000 AS i, v FROM tok),
            w AS (SELECT doc_id, part_id, i, v,
                         sum(CAST(v AS BIGINT)) OVER win AS s1,
                         sum(CAST(v AS BIGINT) * v) OVER win AS s2,
                         row_number() OVER
                             (PARTITION BY doc_id, part_id ORDER BY i) AS rn
                  FROM s
                  WINDOW win AS (PARTITION BY doc_id, part_id ORDER BY i
                                 ROWS BETWEEN 49 PRECEDING AND CURRENT ROW)),
            f AS (SELECT doc_id, part_id, i FROM w
                  WHERE rn >= 50 AND
                        abs(CAST(v AS DOUBLE) - CAST(s1 AS DOUBLE) / 50) >
                        3.0 * sqrt(greatest(CAST(s2 AS DOUBLE) / 50
                            - (CAST(s1 AS DOUBLE) / 50) * (CAST(s1 AS DOUBLE) / 50),
                            0.0))),
            g AS (SELECT doc_id, part_id, count(*) AS n_anomalies,
                         sum(i) AS pos_sum, sum(i * i) AS pos_sumsq
                  FROM f GROUP BY doc_id, part_id)
            SELECT parts.doc_id, parts.part_id, 'threshold' AS detector,
                   COALESCE(g.n_anomalies, 0) AS n_anomalies,
                   CAST(COALESCE(g.pos_sum, 0) AS BIGINT) AS pos_sum,
                   CAST(COALESCE(g.pos_sumsq, 0) AS BIGINT) AS pos_sumsq
            FROM parts LEFT JOIN g
              ON parts.doc_id = g.doc_id AND parts.part_id = g.part_id
        """,
        # A7 CUSUM (Page 1954): p = running sum of n*v - S (exact ints),
        # s+ = p - min(0, running min p), s- = max(0, running max p) - p,
        # alarm when either side exceeds 5 * sqrt(n*Q - S^2) (= 5*n*sigma;
        # HUGEINT radicand -> one double cast + one correctly-rounded sqrt)
        "detect_cusum": f"""
            WITH {_SEQ_TOK_CTE},
            parts AS (
                SELECT doc_id,
                       CAST(unnest(range(0, greatest(CAST(ceil(
                           CAST(len(toks) AS DOUBLE) / 1000000) AS BIGINT), 1)))
                           AS INTEGER) AS part_id
                FROM seq),
            s AS (SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                         pos % 1000000 AS i, v FROM tok),
            st AS MATERIALIZED (
                SELECT doc_id, part_id, CAST(count(*) AS BIGINT) AS n,
                       CAST(sum(CAST(v AS BIGINT)) AS BIGINT) AS sv,
                       CAST(sum(CAST(v AS BIGINT) * v) AS BIGINT) AS qv
                FROM s GROUP BY doc_id, part_id),
            pp AS (SELECT s.doc_id, s.part_id, s.i,
                          sum(st.n * s.v - st.sv) OVER
                              (PARTITION BY s.doc_id, s.part_id ORDER BY s.i
                               ROWS UNBOUNDED PRECEDING) AS p
                   FROM s JOIN st USING (doc_id, part_id)),
            q AS (SELECT doc_id, part_id, i, p,
                         least(min(p) OVER win, 0) AS mn,
                         greatest(max(p) OVER win, 0) AS mx
                  FROM pp
                  WINDOW win AS (PARTITION BY doc_id, part_id ORDER BY i
                                 ROWS UNBOUNDED PRECEDING)),
            f AS (SELECT q.doc_id, q.part_id, q.i
                  FROM q JOIN st USING (doc_id, part_id)
                  WHERE CAST(q.p - q.mn AS DOUBLE) >
                            5.0 * sqrt(CAST(CAST(st.n AS HUGEINT) * st.qv
                                - CAST(st.sv AS HUGEINT) * st.sv AS DOUBLE))
                     OR CAST(q.mx - q.p AS DOUBLE) >
                            5.0 * sqrt(CAST(CAST(st.n AS HUGEINT) * st.qv
                                - CAST(st.sv AS HUGEINT) * st.sv AS DOUBLE))),
            g AS (SELECT doc_id, part_id, count(*) AS n_anomalies,
                         sum(i) AS pos_sum, sum(i * i) AS pos_sumsq
                  FROM f GROUP BY doc_id, part_id)
            SELECT parts.doc_id, parts.part_id, 'cusum' AS detector,
                   COALESCE(g.n_anomalies, 0) AS n_anomalies,
                   CAST(COALESCE(g.pos_sum, 0) AS BIGINT) AS pos_sum,
                   CAST(COALESCE(g.pos_sumsq, 0) AS BIGINT) AS pos_sumsq
            FROM parts LEFT JOIN g
              ON parts.doc_id = g.doc_id AND parts.part_id = g.part_id
        """,
        # A-extra global robust-z (MAD) detector: DuckDB's median/mad over
        # integer tokens interpolate exactly like the engine's
        # segment_medians ((a+b)/2 of the middle order statistics); the
        # comparison reproduces the engine's IEEE op order
        # dev > c * (1.4826 * mad)
        "detect_mad": f"""
            WITH {_SEQ_TOK_CTE},
            parts AS (
                SELECT doc_id,
                       CAST(unnest(range(0, greatest(CAST(ceil(
                           CAST(len(toks) AS DOUBLE) / 1000000) AS BIGINT), 1)))
                           AS INTEGER) AS part_id
                FROM seq),
            s AS (SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                         pos % 1000000 AS i, v FROM tok),
            stats AS (SELECT doc_id, part_id, median(v) AS med, mad(v) AS md
                      FROM s GROUP BY doc_id, part_id),
            f AS (SELECT s.doc_id, s.part_id, s.i
                  FROM s JOIN stats st
                    ON st.doc_id = s.doc_id AND st.part_id = s.part_id
                  WHERE st.md <> 0 AND
                        abs(CAST(s.v AS DOUBLE) - st.med) >
                        3.5 * (1.4826 * st.md)),
            g AS (SELECT doc_id, part_id, count(*) AS n_anomalies,
                         sum(i) AS pos_sum, sum(i * i) AS pos_sumsq
                  FROM f GROUP BY doc_id, part_id)
            SELECT parts.doc_id, parts.part_id, 'mad' AS detector,
                   COALESCE(g.n_anomalies, 0) AS n_anomalies,
                   CAST(COALESCE(g.pos_sum, 0) AS BIGINT) AS pos_sum,
                   CAST(COALESCE(g.pos_sumsq, 0) AS BIGINT) AS pos_sumsq
            FROM parts LEFT JOIN g
              ON parts.doc_id = g.doc_id AND parts.part_id = g.part_id
        """,
        # A3 generalized ESD (robust S-H-ESD): unrolled MATERIALIZED CTE
        # iteration + (n-k)-keyed lambda table from the engine's own t-PPF
        "detect_esd": _esd_sql(),
        "detect_esd_maxanoms": _esd_sql(k_max=1),
        "detect_esd_pos": _esd_sql(direction="pos"),
        "detect_esd_neg": _esd_sql(direction="neg"),
        "detect_esd_piecewise": _esd_piecewise_sql(),
        "detect_shesd_piecewise": _esd_piecewise_sql(season_period=24),
        "detect_shesd_pos": _esd_sql(season_period=24, direction="pos"),
        "detect_shesd_trend": _esd_sql(season_period=24, trend=True),
        "detect_shesd_thr_medmax": _esd_sql(
            season_period=24, direction="pos", threshold="med_max"),
        "detect_shesd_thr_p95": _esd_sql(
            season_period=24, direction="pos", threshold="p95"),
        "detect_shesd_thr_p99": _esd_sql(
            season_period=24, direction="pos", threshold="p99"),
        "detect_shesd_evalue": _esd_sql(season_period=24, evalue=True),
        "detect_shesd_onlylast": _esd_sql(season_period=24, only_last=1),
        "detect_shesd_onlylast2": _esd_sql(season_period=24, only_last=2),
        "detect_esd_strict": _esd_sql(alpha=0.01),
        # A22 Grubbs: n-keyed critical table from the shared t-PPF
        "detect_grubbs": _grubbs_sql(),
        # A26 ACF table: the A9 exact-bigint block per lag, UNION ALL
        "a26_acf_table": _acf_table_sql(),
        # A24 forecast baseline: lag(1)/lag(24) absolute-error sums,
        # exact ints; MASE ratio = three pinned float ops
        "a24_forecast_error": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            d AS (SELECT doc_id, part_id, v,
                         lag(v, 1) OVER w AS p1,
                         lag(v, 24) OVER w AS pp
                  FROM s
                  WINDOW w AS (PARTITION BY doc_id, part_id ORDER BY i)),
            a AS (SELECT doc_id, part_id, count(*) AS n,
                         CAST(COALESCE(sum(abs(v - p1)), 0) AS BIGINT)
                             AS sae_naive,
                         count(p1) AS n_naive,
                         CAST(COALESCE(sum(abs(v - pp)), 0) AS BIGINT)
                             AS sae_seasonal,
                         count(pp) AS n_seasonal
                  FROM d GROUP BY doc_id, part_id)
            SELECT doc_id, part_id, n, sae_naive, n_naive,
                   sae_seasonal, n_seasonal,
                   CASE WHEN n_naive > 0 AND n_seasonal > 0
                             AND sae_naive > 0
                        THEN (CAST(sae_seasonal AS DOUBLE)
                              / CAST(n_seasonal AS DOUBLE))
                             / (CAST(sae_naive AS DOUBLE)
                                / CAST(n_naive AS DOUBLE))
                   END AS mase_ratio
            FROM a
        """,
        # A25 turning points: strict lag/lead comparisons, exact ints
        "a25_turning_points": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            d AS (SELECT doc_id, part_id, v,
                         lag(v) OVER w AS pv, lead(v) OVER w AS nv
                  FROM s
                  WINDOW w AS (PARTITION BY doc_id, part_id ORDER BY i))
            SELECT doc_id, part_id, count(*) AS n,
                   CAST(count(*) FILTER (pv IS NOT NULL AND nv IS NOT NULL
                                         AND v > pv AND v > nv) AS BIGINT)
                       AS n_local_max,
                   CAST(count(*) FILTER (pv IS NOT NULL AND nv IS NOT NULL
                                         AND v < pv AND v < nv) AS BIGINT)
                       AS n_local_min,
                   CAST(count(*) FILTER (pv IS NOT NULL AND nv IS NOT NULL
                                         AND ((v > pv AND v > nv)
                                              OR (v < pv AND v < nv)))
                        AS BIGINT) AS n_turning_points
            FROM d GROUP BY doc_id, part_id
        """,
        # A27 permutation entropy: ordinal-pattern counts are exact ints
        # (position tie-break = the <= / > comparisons below); the entropy
        # is a fixed-order six-term fold — the engine adds the same libm
        # terms in the same canonical pattern order, so floats match
        # bitwise.  Pattern (b01,b02,b12): 111=012, 110=021, 011=102,
        # 001=120, 101=201, 000=210.
        "a27_perm_entropy": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            t AS (
                SELECT doc_id, part_id, v,
                       lead(v, 1) OVER w AS v1, lead(v, 2) OVER w AS v2
                FROM s
                WINDOW w AS (PARTITION BY doc_id, part_id ORDER BY i)),
            g AS (
                SELECT doc_id, part_id, count(*) AS n,
                  CAST(count(*) FILTER (v2 IS NOT NULL AND v <= v1
                       AND v <= v2 AND v1 <= v2) AS BIGINT) AS c_012,
                  CAST(count(*) FILTER (v2 IS NOT NULL AND v <= v1
                       AND v <= v2 AND v1 > v2) AS BIGINT) AS c_021,
                  CAST(count(*) FILTER (v2 IS NOT NULL AND v > v1
                       AND v <= v2 AND v1 <= v2) AS BIGINT) AS c_102,
                  CAST(count(*) FILTER (v2 IS NOT NULL AND v > v1
                       AND v > v2 AND v1 <= v2) AS BIGINT) AS c_120,
                  CAST(count(*) FILTER (v2 IS NOT NULL AND v <= v1
                       AND v > v2 AND v1 > v2) AS BIGINT) AS c_201,
                  CAST(count(*) FILTER (v2 IS NOT NULL AND v > v1
                       AND v > v2 AND v1 > v2) AS BIGINT) AS c_210
                FROM t GROUP BY doc_id, part_id),
            e AS (
                SELECT *,
                       c_012 + c_021 + c_102 + c_120 + c_201 + c_210
                           AS m_triples
                FROM g)
            SELECT doc_id, part_id, n, m_triples,
                   c_012, c_021, c_102, c_120, c_201, c_210,
                   CASE WHEN m_triples = 0 THEN 0.0 ELSE -(
                     CASE WHEN c_012 = 0 THEN 0.0 ELSE
                       (CAST(c_012 AS DOUBLE) / m_triples)
                       * ln(CAST(c_012 AS DOUBLE) / m_triples) END
                   + CASE WHEN c_021 = 0 THEN 0.0 ELSE
                       (CAST(c_021 AS DOUBLE) / m_triples)
                       * ln(CAST(c_021 AS DOUBLE) / m_triples) END
                   + CASE WHEN c_102 = 0 THEN 0.0 ELSE
                       (CAST(c_102 AS DOUBLE) / m_triples)
                       * ln(CAST(c_102 AS DOUBLE) / m_triples) END
                   + CASE WHEN c_120 = 0 THEN 0.0 ELSE
                       (CAST(c_120 AS DOUBLE) / m_triples)
                       * ln(CAST(c_120 AS DOUBLE) / m_triples) END
                   + CASE WHEN c_201 = 0 THEN 0.0 ELSE
                       (CAST(c_201 AS DOUBLE) / m_triples)
                       * ln(CAST(c_201 AS DOUBLE) / m_triples) END
                   + CASE WHEN c_210 = 0 THEN 0.0 ELSE
                       (CAST(c_210 AS DOUBLE) / m_triples)
                       * ln(CAST(c_210 AS DOUBLE) / m_triples) END)
                   END AS perm_entropy,
                   CASE WHEN m_triples = 0 THEN NULL ELSE
                     CASE WHEN m_triples = 0 THEN 0.0 ELSE -(
                       CASE WHEN c_012 = 0 THEN 0.0 ELSE
                         (CAST(c_012 AS DOUBLE) / m_triples)
                         * ln(CAST(c_012 AS DOUBLE) / m_triples) END
                     + CASE WHEN c_021 = 0 THEN 0.0 ELSE
                         (CAST(c_021 AS DOUBLE) / m_triples)
                         * ln(CAST(c_021 AS DOUBLE) / m_triples) END
                     + CASE WHEN c_102 = 0 THEN 0.0 ELSE
                         (CAST(c_102 AS DOUBLE) / m_triples)
                         * ln(CAST(c_102 AS DOUBLE) / m_triples) END
                     + CASE WHEN c_120 = 0 THEN 0.0 ELSE
                         (CAST(c_120 AS DOUBLE) / m_triples)
                         * ln(CAST(c_120 AS DOUBLE) / m_triples) END
                     + CASE WHEN c_201 = 0 THEN 0.0 ELSE
                         (CAST(c_201 AS DOUBLE) / m_triples)
                         * ln(CAST(c_201 AS DOUBLE) / m_triples) END
                     + CASE WHEN c_210 = 0 THEN 0.0 ELSE
                         (CAST(c_210 AS DOUBLE) / m_triples)
                         * ln(CAST(c_210 AS DOUBLE) / m_triples) END)
                     END / ln(6.0)
                   END AS norm_perm_entropy
            FROM e
        """,
        # A32 AMOC mean-shift split: a_k = P_k*n - S*k, d_k = k*(n-k) as
        # exact BIGINTs; identical float prune on both sides (superset of
        # every exact tie), then HUGEINT cross-compare argmax, tie -> min k
        "a32_amoc_split": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            tot AS MATERIALIZED (
                SELECT doc_id, part_id, CAST(count(*) AS BIGINT) AS n,
                       CAST(sum(v) AS BIGINT) AS s_sum
                FROM s GROUP BY doc_id, part_id),
            c AS MATERIALIZED (
                SELECT doc_id, part_id, i + 1 AS k,
                       CAST(sum(v) OVER (PARTITION BY doc_id, part_id
                                         ORDER BY i) AS BIGINT) AS pk
                FROM s),
            cand AS MATERIALIZED (
                SELECT c.doc_id, c.part_id, CAST(c.k AS BIGINT) AS k, c.pk,
                       CAST(abs(c.pk * t.n - t.s_sum * c.k) AS BIGINT) AS a,
                       CAST(c.k * (t.n - c.k) AS BIGINT) AS d
                FROM c JOIN tot t USING (doc_id, part_id)
                WHERE c.k < t.n),
            qq AS MATERIALIZED (
                SELECT *, CAST(a AS DOUBLE) / CAST(d AS DOUBLE) AS qf,
                       max(CAST(a AS DOUBLE) / CAST(d AS DOUBLE))
                           OVER (PARTITION BY doc_id, part_id) AS qmax
                FROM cand),
            nr AS MATERIALIZED (
                SELECT * FROM qq
                WHERE qf >= qmax * (1.0 - 1e-12) - 1e-300),
            best AS MATERIALIZED (
                SELECT k.* FROM nr k
                WHERE NOT EXISTS (
                    SELECT 1 FROM nr j
                    WHERE j.doc_id = k.doc_id AND j.part_id = k.part_id
                      AND (CAST(j.a AS HUGEINT) * k.d
                               > CAST(k.a AS HUGEINT) * j.d
                           OR (CAST(j.a AS HUGEINT) * k.d
                                   = CAST(k.a AS HUGEINT) * j.d
                               AND j.k < k.k))))
            SELECT t.doc_id, t.part_id, t.n,
                   b.k AS split_pos,
                   CAST(b.a AS DOUBLE) / CAST(b.d AS DOUBLE) AS gap,
                   CAST(b.pk AS DOUBLE) / CAST(b.k AS DOUBLE) AS mean_l,
                   CAST(t.s_sum - b.pk AS DOUBLE)
                       / CAST(t.n - b.k AS DOUBLE) AS mean_r
            FROM tot t LEFT JOIN best b USING (doc_id, part_id)
        """,
        # A33 Mann-Kendall per user: exact-int S over time-ordered pairs,
        # tie-corrected variance numerator, continuity-corrected z
        "a33_mann_kendall": """
            WITH e AS (SELECT user_id, ts, event_id, value FROM events),
            p AS (SELECT a.user_id,
                         CAST(sum(CASE WHEN b.value > a.value THEN 1
                                       WHEN b.value < a.value THEN -1
                                       ELSE 0 END) AS BIGINT) AS s_stat
                  FROM e a JOIN e b ON a.user_id = b.user_id
                       AND (a.ts < b.ts
                            OR (a.ts = b.ts AND a.event_id < b.event_id))
                  GROUP BY a.user_id),
            nn AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n
                   FROM e GROUP BY user_id),
            tg AS (SELECT user_id, CAST(count(*) AS BIGINT) AS t
                   FROM e GROUP BY user_id, value),
            corr AS (SELECT user_id,
                            CAST(sum(t * (t - 1) * (2 * t + 5)) AS BIGINT)
                                AS corr
                     FROM tg GROUP BY user_id)
            SELECT nn.user_id, nn.n,
                   CAST(COALESCE(p.s_stat, 0) AS BIGINT) AS s_stat,
                   CAST(nn.n * (nn.n - 1) * (2 * nn.n + 5) - corr.corr
                        AS BIGINT) AS var_num,
                   CASE WHEN nn.n >= 2
                             AND nn.n * (nn.n - 1) * (2 * nn.n + 5)
                                 - corr.corr > 0 THEN
                     CASE WHEN COALESCE(p.s_stat, 0) = 0 THEN 0.0
                          WHEN p.s_stat > 0 THEN
                            CAST(p.s_stat - 1 AS DOUBLE)
                            / sqrt(CAST(nn.n * (nn.n - 1) * (2 * nn.n + 5)
                                        - corr.corr AS DOUBLE) / 18.0)
                          ELSE
                            CAST(p.s_stat + 1 AS DOUBLE)
                            / sqrt(CAST(nn.n * (nn.n - 1) * (2 * nn.n + 5)
                                        - corr.corr AS DOUBLE) / 18.0)
                     END
                   END AS z_mk
            FROM nn LEFT JOIN p USING (user_id)
                    JOIN corr USING (user_id)
        """,
        # A34 Theil-Sen per user: pairwise slopes over time-distinct pairs,
        # LOWER median by row_number selection (no interpolation arithmetic)
        "a34_theil_sen": """
            WITH e AS (SELECT user_id, ts, event_id, value FROM events),
            pr AS (SELECT a.user_id,
                          (b.value - a.value)
                              / CAST(epoch_us(b.ts) - epoch_us(a.ts)
                                     AS DOUBLE) AS slope
                   FROM e a JOIN e b ON a.user_id = b.user_id
                        AND (a.ts < b.ts
                             OR (a.ts = b.ts AND a.event_id < b.event_id))
                   WHERE b.ts <> a.ts),
            r AS (SELECT user_id, slope,
                         row_number() OVER (PARTITION BY user_id
                                            ORDER BY slope) AS rn,
                         count(*) OVER (PARTITION BY user_id) AS p
                  FROM pr)
            SELECT user_id, CAST(max(p) AS BIGINT) AS n_pairs,
                   max(CASE WHEN rn = (p + 1) // 2 THEN slope END)
                       AS slope_med,
                   min(slope) AS slope_min, max(slope) AS slope_max
            FROM r GROUP BY user_id
        """,
        # Q12 span-corruption plan: the q6 Knuth-multiplier hash family
        # replayed in HUGEINT (every intermediate < 1.2e19), span starts
        # via lag, exact-int sums/checksums
        "q12_span_corruption": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            m AS MATERIALIZED (
                SELECT doc_id, part_id, i, v,
                       (((CAST(doc_id AS HUGEINT) % 4294967296)
                          * 2654435761 + i) % 4294967296)
                       * 2654435761 % 4294967296 % 100 < 15 AS masked
                FROM s),
            r AS (SELECT *, lag(masked) OVER (PARTITION BY doc_id, part_id
                                              ORDER BY i) AS pm
                  FROM m)
            SELECT doc_id, part_id, CAST(count(*) AS BIGINT) AS n,
                   CAST(count(*) FILTER (masked) AS BIGINT) AS n_masked,
                   CAST(count(*) FILTER (masked AND (pm IS NULL OR NOT pm))
                        AS BIGINT) AS n_spans,
                   CAST(COALESCE(sum(v) FILTER (masked), 0) AS BIGINT)
                       AS masked_sum,
                   CAST(COALESCE(sum((i + 1) * v) FILTER (masked), 0)
                        AS BIGINT) AS mask_checksum
            FROM r GROUP BY doc_id, part_id
        """,
        # V11 coverage curve: bounded (source, token) domain, window cumsum
        # in the pinned (cnt DESC, v ASC) order, integer coverage test
        "v11_coverage_curve": f"""
            WITH {_SEQ_TOK_CTE},
            c AS MATERIALIZED (
                SELECT source, v, CAST(count(*) AS BIGINT) AS cnt
                FROM tok GROUP BY source, v),
            w AS (SELECT source, cnt,
                         CAST(sum(cnt) OVER (PARTITION BY source
                              ORDER BY cnt DESC, v ASC
                              ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum,
                         row_number() OVER (PARTITION BY source
                              ORDER BY cnt DESC, v ASC) AS rk,
                         CAST(sum(cnt) OVER (PARTITION BY source)
                              AS BIGINT) AS tot,
                         count(*) OVER (PARTITION BY source) AS ntypes
                  FROM c)
            SELECT source, CAST(max(ntypes) AS BIGINT) AS n_types,
                   CAST(max(tot) AS BIGINT) AS total_tokens,
                   CAST(min(rk) FILTER (cum * 100 >= 50 * tot) AS BIGINT)
                       AS k50,
                   CAST(min(rk) FILTER (cum * 100 >= 90 * tot) AS BIGINT)
                       AS k90,
                   CAST(min(rk) FILTER (cum * 100 >= 99 * tot) AS BIGINT)
                       AS k99
            FROM w GROUP BY source
        """,
        # T14 duplicate n-gram fraction: Horner mod-2^64 gram hash chained
        # through 8 lead() steps (HUGEINT-safe), distinct-doc gram counts
        "t14_dup_ngram_fraction": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS HUGEINT) AS v FROM tok),
            g AS MATERIALIZED (
                SELECT doc_id, {_gram_hash_expr(8)} AS h
                FROM s
                WINDOW w AS (PARTITION BY doc_id, part_id ORDER BY i)
                QUALIFY lead(v, 7) OVER w IS NOT NULL),
            d AS MATERIALIZED (
                SELECT h, doc_id, CAST(count(*) AS BIGINT) AS occ
                FROM g GROUP BY h, doc_id),
            nd AS MATERIALIZED (
                SELECT h, CAST(count(*) AS BIGINT) AS ndocs
                FROM d GROUP BY h)
            SELECT d.doc_id,
                   CAST(sum(d.occ) AS BIGINT) AS n_grams,
                   CAST(sum(CASE WHEN nd.ndocs >= 2 THEN d.occ ELSE 0 END)
                        AS BIGINT) AS n_dup,
                   CAST(CAST(sum(CASE WHEN nd.ndocs >= 2 THEN d.occ
                                      ELSE 0 END) AS BIGINT) AS DOUBLE)
                       / CAST(CAST(sum(d.occ) AS BIGINT) AS DOUBLE)
                       AS dup_frac
            FROM d JOIN nd USING (h)
            GROUP BY d.doc_id
        """,
        # A31 runs test: median() parity dichotomization (equals dropped),
        # exact int run counts via lag, pinned mu/var/z; z defined iff
        # 2*n1*n2 > n1+n2 (var > 0)
        "a31_runs_test": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            md AS MATERIALIZED (
                SELECT doc_id, part_id, CAST(count(*) AS BIGINT) AS n,
                       median(v) AS med
                FROM s GROUP BY doc_id, part_id),
            k AS (SELECT s.doc_id, s.part_id, s.i,
                         CASE WHEN CAST(s.v AS DOUBLE) > md.med
                              THEN 1 ELSE -1 END AS sg
                  FROM s JOIN md USING (doc_id, part_id)
                  WHERE CAST(s.v AS DOUBLE) <> md.med),
            r AS (SELECT doc_id, part_id, sg,
                         lag(sg) OVER (PARTITION BY doc_id, part_id
                                       ORDER BY i) AS psg
                  FROM k),
            agg AS (SELECT doc_id, part_id,
                           CAST(count(*) FILTER (sg = 1) AS BIGINT)
                               AS n_above,
                           CAST(count(*) FILTER (sg = -1) AS BIGINT)
                               AS n_below,
                           CAST(1 + count(*) FILTER (psg IS NOT NULL
                                AND sg <> psg) AS BIGINT) AS n_runs
                    FROM r GROUP BY doc_id, part_id)
            SELECT md.doc_id, md.part_id, md.n,
                   COALESCE(agg.n_above, 0) AS n_above,
                   COALESCE(agg.n_below, 0) AS n_below,
                   COALESCE(agg.n_runs, 0) AS n_runs,
                   CASE WHEN 2 * agg.n_above * agg.n_below
                             > agg.n_above + agg.n_below
                        THEN 1.0 + CAST(2 * agg.n_above * agg.n_below
                                        AS DOUBLE)
                             / CAST(agg.n_above + agg.n_below AS DOUBLE)
                   END AS mu_runs,
                   CASE WHEN 2 * agg.n_above * agg.n_below
                             > agg.n_above + agg.n_below
                        THEN (CAST(agg.n_runs AS DOUBLE)
                              - (1.0 + CAST(2 * agg.n_above * agg.n_below
                                            AS DOUBLE)
                                 / CAST(agg.n_above + agg.n_below
                                        AS DOUBLE)))
                             / sqrt(CAST(2 * agg.n_above * agg.n_below
                                    * (2 * agg.n_above * agg.n_below
                                       - agg.n_above - agg.n_below)
                                    AS DOUBLE)
                                / CAST((agg.n_above + agg.n_below)
                                       * (agg.n_above + agg.n_below)
                                       * (agg.n_above + agg.n_below - 1)
                                       AS DOUBLE))
                   END AS z_runs
            FROM md LEFT JOIN agg USING (doc_id, part_id)
        """,
        # A57: pairs (i, i + n//2), midranks of integer |d| via
        # min(rn)+max(rn) over tie groups; z replays the engine's
        # pinned (2*w2 - m(m+1)) / sqrt(var48/3) verbatim
        "a57_wilcoxon_halves": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            nn AS MATERIALIZED (
                SELECT doc_id, part_id, CAST(count(*) AS BIGINT) AS n
                FROM s GROUP BY doc_id, part_id),
            k AS MATERIALIZED (
                SELECT a.doc_id, a.part_id, a.i, b.v - a.v AS d,
                       abs(b.v - a.v) AS av
                FROM s a
                JOIN nn ON nn.doc_id = a.doc_id
                       AND nn.part_id = a.part_id
                JOIN s b ON b.doc_id = a.doc_id
                        AND b.part_id = a.part_id
                        AND b.i = a.i + nn.n // 2
                WHERE a.i < nn.n // 2 AND b.v <> a.v),
            r AS (SELECT *, row_number() OVER (
                      PARTITION BY doc_id, part_id
                      ORDER BY av, i) AS rn
                  FROM k),
            mr AS (SELECT *, min(rn) OVER (PARTITION BY doc_id,
                              part_id, av)
                          + max(rn) OVER (PARTITION BY doc_id,
                              part_id, av) AS mr2
                   FROM r),
            tg AS (SELECT doc_id, part_id,
                          CAST(count(*) AS BIGINT) AS tl
                   FROM k GROUP BY doc_id, part_id, av),
            tc AS (SELECT doc_id, part_id,
                          CAST(sum(tl * tl * tl - tl) AS BIGINT) AS t
                   FROM tg GROUP BY doc_id, part_id),
            w AS (SELECT doc_id, part_id,
                         CAST(count(*) AS BIGINT) AS m,
                         CAST(coalesce(sum(mr2) FILTER (d > 0), 0)
                              AS BIGINT) AS w2_plus
                  FROM mr GROUP BY doc_id, part_id)
            SELECT nn.doc_id, nn.part_id, nn.n,
                   COALESCE(w.m, 0) AS m,
                   COALESCE(w.w2_plus, 0) AS w2_plus,
                   CASE WHEN w.m >= 1
                             AND 2 * w.m * (w.m + 1) * (2 * w.m + 1)
                                 - tc.t > 0
                        THEN CAST(2 * w.w2_plus - w.m * (w.m + 1)
                                  AS DOUBLE)
                             / sqrt(CAST(2 * w.m * (w.m + 1)
                                         * (2 * w.m + 1) - tc.t
                                         AS DOUBLE) / 3.0)
                   END AS z_wilcoxon
            FROM nn
            LEFT JOIN w USING (doc_id, part_id)
            LEFT JOIN tc USING (doc_id, part_id)
        """,
        # W44: zero-fill via boundary-day identities; A9's formula on
        # the implicit grid (consecutive-present-day pairs only)
        "w44_daily_acf1": """
            WITH c AS (SELECT event_type,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY event_type, day),
            g AS (SELECT CAST(min(day) AS BIGINT) AS lo,
                         CAST(max(day) AS BIGINT) AS hi,
                         CAST(max(day) - min(day) + 1 AS BIGINT) AS d
                  FROM c),
            m AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS s,
                         CAST(sum(n * n) AS BIGINT) AS q
                  FROM c GROUP BY event_type),
            x AS (SELECT a.event_type,
                         CAST(sum(a.n * b.n) AS BIGINT) AS sxy
                  FROM c a JOIN c b ON b.event_type = a.event_type
                                    AND b.day = a.day + 1
                  GROUP BY a.event_type),
            eb AS (SELECT m.event_type,
                          m.s - COALESCE((SELECT n FROM c
                              WHERE c.event_type = m.event_type
                                AND c.day = g.hi), 0) AS sh,
                          m.s - COALESCE((SELECT n FROM c
                              WHERE c.event_type = m.event_type
                                AND c.day = g.lo), 0) AS st
                   FROM m CROSS JOIN g)
            SELECT m.event_type, g.d AS n_days,
                   COALESCE(x.sxy, 0) AS sxy,
                   CASE WHEN g.d > 1
                             AND g.d * g.d * m.q - g.d * m.s * m.s
                                 <> 0
                        THEN CAST(g.d * g.d * COALESCE(x.sxy, 0)
                                  - g.d * m.s * (eb.sh + eb.st)
                                  + (g.d - 1) * m.s * m.s AS DOUBLE)
                             / CAST(g.d * g.d * m.q
                                    - g.d * m.s * m.s AS DOUBLE)
                   END AS acf1
            FROM m
            JOIN eb USING (event_type)
            CROSS JOIN g
            LEFT JOIN x USING (event_type)
        """,
        # K18: K5's 2^20 quantization; pairwise exact-int d2; argmin
        # via (total_d2, vec_id) row_number
        "k18_label_medoids": """
            WITH u AS (
              SELECT vec_id, label, CAST(t.i - 1 AS BIGINT) AS dim,
                     CAST(floor(CAST(embedding[t.i] AS DOUBLE)
                                * 1048576 + 0.5) AS BIGINT) AS q
              FROM embeddings
              CROSS JOIN unnest(range(1, len(embedding) + 1)) AS t(i)),
            p AS (
              SELECT a.label, a.vec_id AS va,
                     CAST(sum((a.q - b.q) * (a.q - b.q)) AS BIGINT)
                         AS d2
              FROM u a JOIN u b ON a.label = b.label
                               AND a.dim = b.dim
                               AND a.vec_id <> b.vec_id
              GROUP BY a.label, a.vec_id, b.vec_id),
            t AS (SELECT label, va,
                         CAST(sum(d2) AS BIGINT) AS total_d2
                  FROM p GROUP BY label, va),
            m AS (SELECT label, CAST(count(DISTINCT vec_id) AS BIGINT)
                             AS n
                  FROM u GROUP BY label)
            SELECT t.label, m.n, t.va AS medoid_vec_id, t.total_d2
            FROM (SELECT *, row_number() OVER (PARTITION BY label
                      ORDER BY total_d2, va) AS rk FROM t) t
            JOIN m ON m.label = t.label
            WHERE t.rk = 1
        """,
        # A63: A36's cumdev = n*P - i*S squared and summed in HUGEINT;
        # eta via the non-negative 32-bit-split pinned casts
        "a63_kpss": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            c AS (
              SELECT event_type,
                     CAST(sum(x) OVER (PARTITION BY event_type
                                       ORDER BY day) AS BIGINT) AS p,
                     CAST(row_number() OVER (PARTITION BY event_type
                                             ORDER BY day) AS BIGINT) AS i
              FROM d),
            t AS (SELECT event_type,
                         CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(x) AS BIGINT) AS s,
                         CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT)
                             AS q
                  FROM d GROUP BY event_type),
            a AS (SELECT c.event_type,
                         sum(CAST(t.n * c.p - c.i * t.s AS HUGEINT)
                             * CAST(t.n * c.p - c.i * t.s AS HUGEINT))
                             AS num
                  FROM c JOIN t USING (event_type)
                  GROUP BY c.event_type),
            f AS (SELECT t.event_type, t.n, t.s, a.num,
                         CAST(t.n AS HUGEINT) * t.n
                             * (t.n * t.q
                                - CAST(t.s AS HUGEINT) * t.s) AS den,
                         t.n * t.q - CAST(t.s AS HUGEINT) * t.s
                             AS var_num
                  FROM t JOIN a USING (event_type))
            SELECT event_type, n AS n_days, s AS s_total,
                   CASE WHEN n >= 2 AND var_num > 0
                        THEN (CAST(num // 4294967296 AS DOUBLE)
                              * 4294967296.0
                              + CAST(num % 4294967296 AS DOUBLE))
                             / (CAST(den // 4294967296 AS DOUBLE)
                                * 4294967296.0
                                + CAST(den % 4294967296 AS DOUBLE))
                   END AS kpss
            FROM f
        """,
        # G37: G22's histogram + LOWER rank read-off at k=(n+1)//2 for
        # median and for the |v-med| deviation histogram (MAD)
        "g37_mad_by_type": """
            WITH h AS (
              SELECT event_type,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v,
                     CAST(count(*) AS BIGINT) AS c
              FROM events GROUP BY event_type, v),
            t AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS n
                  FROM h GROUP BY event_type),
            m AS (SELECT event_type, CAST(min(v) AS BIGINT) AS med
                  FROM (SELECT h.event_type, h.v, t.n,
                               sum(h.c) OVER (PARTITION BY h.event_type
                                              ORDER BY h.v) AS cum
                        FROM h JOIN t USING (event_type))
                  WHERE cum >= (n + 1) // 2
                  GROUP BY event_type),
            dv AS (SELECT h.event_type,
                          abs(h.v - m.med) AS d,
                          CAST(sum(h.c) AS BIGINT) AS c
                   FROM h JOIN m USING (event_type)
                   GROUP BY h.event_type, d),
            md AS (SELECT event_type, CAST(min(d) AS BIGINT) AS mad
                   FROM (SELECT dv.event_type, dv.d, t.n,
                                sum(dv.c) OVER (PARTITION BY
                                                dv.event_type
                                                ORDER BY dv.d) AS cum
                         FROM dv JOIN t USING (event_type))
                   WHERE cum >= (n + 1) // 2
                   GROUP BY event_type)
            SELECT t.event_type, t.n, m.med AS median_cents,
                   md.mad AS mad_cents,
                   1.4826 * CAST(md.mad AS DOUBLE) AS robust_sigma
            FROM t JOIN m USING (event_type)
            JOIN md USING (event_type)
        """,
        # G38: zero-fill for free — present counts ascending at
        # positions d-m+1..d; weight d - 2m + 2j - 1; global day span
        "g38_daily_gini": """
            WITH c AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY event_type, day),
            g AS (SELECT CAST(max(day) - min(day) + 1 AS BIGINT) AS d
                  FROM c),
            r AS (SELECT event_type, n,
                         CAST(row_number() OVER (PARTITION BY event_type
                                                 ORDER BY n, day)
                              AS BIGINT) AS j,
                         CAST(count(*) OVER (PARTITION BY event_type)
                              AS BIGINT) AS m
                  FROM c)
            SELECT r.event_type, g.d AS n_days,
                   CAST(any_value(r.m) AS BIGINT) AS n_present,
                   CAST(sum((g.d - 2 * r.m + 2 * r.j - 1) * r.n)
                        AS BIGINT) AS gini_num,
                   CAST(g.d * sum(r.n) AS BIGINT) AS gini_den,
                   CASE WHEN g.d * sum(r.n) <> 0
                        THEN CAST(sum((g.d - 2 * r.m + 2 * r.j - 1)
                                      * r.n) AS DOUBLE)
                             / CAST(g.d * sum(r.n) AS DOUBLE)
                   END AS gini
            FROM r CROSS JOIN g
            GROUP BY r.event_type, g.d
        """,
        # E5: runs via lag-break + window run-id; 4 fixed bytes + per
        # run LEB128(zigzag(v)) + LEB128(rl-1) width thresholds
        "e5_rle_size": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            d AS (SELECT doc_id, part_id, i, v,
                         CASE WHEN lag(v) OVER (PARTITION BY doc_id,
                                                part_id ORDER BY i)
                              IS DISTINCT FROM v THEN 1 ELSE 0 END AS brk
                  FROM s),
            g AS (SELECT doc_id, part_id, v,
                         sum(brk) OVER (PARTITION BY doc_id, part_id
                                        ORDER BY i) AS rid
                  FROM d),
            r AS (SELECT doc_id, part_id,
                         CASE WHEN v >= 0 THEN 2 * v
                              ELSE -2 * v - 1 END AS zv,
                         CAST(count(*) - 1 AS BIGINT) AS ul
                  FROM g GROUP BY doc_id, part_id, rid, v),
            b AS (SELECT doc_id, part_id,
                         CAST(count(*) AS BIGINT) AS n_runs,
                         CAST(sum(
                             (1 + CASE WHEN zv >= 128 THEN 1 ELSE 0 END
                                + CASE WHEN zv >= 16384 THEN 1
                                       ELSE 0 END
                                + CASE WHEN zv >= 2097152 THEN 1
                                       ELSE 0 END
                                + CASE WHEN zv >= 268435456 THEN 1
                                       ELSE 0 END)
                           + (1 + CASE WHEN ul >= 128 THEN 1 ELSE 0 END
                                + CASE WHEN ul >= 16384 THEN 1
                                       ELSE 0 END
                                + CASE WHEN ul >= 2097152 THEN 1
                                       ELSE 0 END
                                + CASE WHEN ul >= 268435456 THEN 1
                                       ELSE 0 END)) AS BIGINT) AS rb
                  FROM r GROUP BY doc_id, part_id),
            nn AS (SELECT doc_id, part_id,
                          CAST(count(*) AS BIGINT) AS n
                   FROM s GROUP BY doc_id, part_id)
            SELECT nn.doc_id, nn.part_id, nn.n, b.n_runs,
                   CAST(4 + b.rb AS BIGINT) AS n_bytes,
                   CAST(4 + b.rb AS DOUBLE) / CAST(nn.n AS DOUBLE)
                       AS bytes_per_token
            FROM nn JOIN b USING (doc_id, part_id)
        """,
        # A64: strict ascents via lead compare; z's two pinned ops
        "a64_diff_sign": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            d AS (SELECT doc_id, part_id,
                         CASE WHEN v > lag(v) OVER (PARTITION BY doc_id,
                                                    part_id ORDER BY i)
                              THEN 1 ELSE 0 END AS asc_flag
                  FROM s),
            a AS (SELECT doc_id, part_id,
                         CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(asc_flag) AS BIGINT) AS n_asc
                  FROM d GROUP BY doc_id, part_id)
            SELECT doc_id, part_id, n, n_asc,
                   CASE WHEN n >= 2
                        THEN CAST(2 * n_asc - (n - 1) AS DOUBLE)
                             / (2.0 * sqrt(CAST(n + 1 AS DOUBLE)
                                           / 12.0))
                   END AS z_diff_sign
            FROM a
        """,
        # G39: decile edges = half-A lower rank stats at (j*nA+9)//10;
        # bin = 1 + #{edges < v}; terms fold in bin order
        "g39_psi_drift": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v
              FROM events),
            g AS (SELECT min(day) + (max(day) - min(day) + 1) // 2
                             AS mid FROM e),
            h AS (SELECT event_type,
                         CASE WHEN day < g.mid THEN 0 ELSE 1 END AS half,
                         v, CAST(count(*) AS BIGINT) AS c
                  FROM e CROSS JOIN g
                  GROUP BY event_type, half, v),
            ta AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS n_a
                   FROM h WHERE half = 0 GROUP BY event_type),
            tb AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS n_b
                   FROM h WHERE half = 1 GROUP BY event_type),
            ranks AS (SELECT ta.event_type, t.j,
                             (t.j * ta.n_a + 9) // 10 AS k
                      FROM ta
                      CROSS JOIN unnest([1,2,3,4,5,6,7,8,9]) AS t(j)),
            bnd AS (SELECT r.event_type, r.j, CAST(min(x.v) AS BIGINT)
                               AS b
                    FROM ranks r JOIN (
                        SELECT event_type, v,
                               sum(c) OVER (PARTITION BY event_type
                                            ORDER BY v) AS cum
                        FROM h WHERE half = 0) x
                      ON x.event_type = r.event_type AND x.cum >= r.k
                    GROUP BY r.event_type, r.j),
            vb2 AS (SELECT h.event_type, h.half, h.v,
                           any_value(h.c) AS c,
                           1 + CAST(sum(CASE WHEN bnd.b < h.v THEN 1
                                             ELSE 0 END) AS BIGINT)
                               AS bin
                    FROM h JOIN bnd USING (event_type)
                    GROUP BY h.event_type, h.half, h.v),
            mass AS (SELECT event_type, half, bin,
                            CAST(sum(c) AS BIGINT) AS c
                     FROM vb2 GROUP BY event_type, half, bin),
            ab AS (SELECT event_type, bin,
                          CAST(COALESCE(sum(c) FILTER (half = 0), 0)
                               AS BIGINT) AS ca,
                          CAST(COALESCE(sum(c) FILTER (half = 1), 0)
                               AS BIGINT) AS cb
                   FROM mass GROUP BY event_type, bin),
            fullg AS (SELECT ta.event_type, t.bin
                      FROM ta JOIN tb USING (event_type)
                      CROSS JOIN unnest([1,2,3,4,5,6,7,8,9,10])
                          AS t(bin)),
            grid AS (SELECT f.event_type, f.bin,
                            COALESCE(ab.ca, 0) AS ca,
                            COALESCE(ab.cb, 0) AS cb
                     FROM fullg f LEFT JOIN ab
                       ON ab.event_type = f.event_type
                      AND ab.bin = f.bin),
            agg AS (SELECT grid.event_type,
                           any_value(ta.n_a) AS n_a,
                           any_value(tb.n_b) AS n_b,
                           CAST(sum(CASE WHEN grid.ca = 0
                                           OR grid.cb = 0
                                    THEN 1 ELSE 0 END) AS BIGINT)
                               AS n_empty,
                           list(CASE WHEN grid.ca = 0 OR grid.cb = 0
                                     THEN 0.0
                                     ELSE (CAST(grid.ca AS DOUBLE)
                                           / CAST(ta.n_a AS DOUBLE)
                                           - CAST(grid.cb AS DOUBLE)
                                             / CAST(tb.n_b AS DOUBLE))
                                          * ln((CAST(grid.ca AS DOUBLE)
                                                / CAST(ta.n_a
                                                       AS DOUBLE))
                                               / (CAST(grid.cb
                                                       AS DOUBLE)
                                                  / CAST(tb.n_b
                                                         AS DOUBLE)))
                                END ORDER BY grid.bin) AS terms
                    FROM grid JOIN ta USING (event_type)
                    JOIN tb USING (event_type)
                    GROUP BY grid.event_type)
            SELECT event_type, n_a, n_b, n_empty,
                   CASE WHEN n_empty = 0
                        THEN list_reduce(list_prepend(0.0, terms),
                                         (a, b) -> a + b)
                   END AS psi
            FROM agg
        """,
        # G40: explicit zero-filled grid (range x types LEFT JOIN),
        # O(d^2) day-pair self-join for nc/nd, tie pairs per series
        "g40_kendall_daily": """
            WITH c AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY event_type, day),
            g AS (SELECT min(day) AS lo, max(day) AS hi,
                         CAST(max(day) - min(day) + 1 AS BIGINT) AS d
                  FROM c),
            days AS (SELECT unnest(range(g.lo, g.hi + 1)) AS day
                     FROM g),
            types AS (SELECT DISTINCT event_type FROM c),
            grid AS (SELECT t.event_type, dd.day,
                            CAST(COALESCE(c.n, 0) AS BIGINT) AS n
                     FROM types t CROSS JOIN days dd
                     LEFT JOIN c ON c.event_type = t.event_type
                                AND c.day = dd.day),
            pr AS (SELECT a.event_type AS type_a,
                          b.event_type AS type_b,
                          a.day, a.n AS x, b.n AS y
                   FROM grid a JOIN grid b
                     ON a.event_type < b.event_type
                    AND a.day = b.day),
            cd AS (SELECT s1.type_a, s1.type_b,
                          CAST(sum(CASE WHEN (s1.x - s2.x)
                                             * (s1.y - s2.y) > 0
                                        THEN 1 ELSE 0 END) AS BIGINT)
                              AS nc,
                          CAST(sum(CASE WHEN (s1.x - s2.x)
                                             * (s1.y - s2.y) < 0
                                        THEN 1 ELSE 0 END) AS BIGINT)
                              AS nd
                   FROM pr s1 JOIN pr s2
                     ON s1.type_a = s2.type_a
                    AND s1.type_b = s2.type_b
                    AND s1.day < s2.day
                   GROUP BY s1.type_a, s1.type_b),
            ties AS (SELECT event_type,
                            CAST(sum(m * (m - 1) // 2) AS BIGINT) AS t
                     FROM (SELECT event_type, n,
                                  CAST(count(*) AS BIGINT) AS m
                           FROM grid GROUP BY event_type, n)
                     GROUP BY event_type)
            SELECT cd.type_a, cd.type_b, g.d AS n_days, cd.nc, cd.nd,
                   CASE WHEN (g.d * (g.d - 1) // 2 - ta.t)
                             * (g.d * (g.d - 1) // 2 - tb.t) > 0
                        THEN CAST(cd.nc - cd.nd AS DOUBLE)
                             / sqrt(CAST((g.d * (g.d - 1) // 2 - ta.t)
                                         * (g.d * (g.d - 1) // 2
                                            - tb.t) AS DOUBLE))
                   END AS tau_b
            FROM cd
            CROSS JOIN g
            JOIN ties ta ON ta.event_type = cd.type_a
            JOIN ties tb ON tb.event_type = cd.type_b
        """,
        # V20: adjacent-char pairs per doc; H2 folds in (b1,b2) order,
        # H1 over the b1 marginal of the SAME pair counts
        "v20_bigram_entropy": """
            WITH pos AS (
              SELECT source, text,
                     unnest(generate_series(1, length(text) - 1)) AS i
              FROM documents WHERE length(text) >= 2),
            pc AS MATERIALIZED (
              SELECT source,
                     ascii(substr(text, CAST(i AS INTEGER), 1)) AS b1,
                     ascii(substr(text, CAST(i + 1 AS INTEGER), 1))
                         AS b2,
                     CAST(count(*) AS BIGINT) AS n
              FROM pos GROUP BY source, b1, b2),
            t AS (SELECT source, CAST(sum(n) AS BIGINT) AS total,
                         count(*) AS np
                  FROM pc GROUP BY source),
            mg AS (SELECT source, b1, CAST(sum(n) AS BIGINT) AS n
                   FROM pc GROUP BY source, b1),
            f2 AS (SELECT pc.source,
                          list(CAST(pc.n AS DOUBLE)
                               / CAST(t.total AS DOUBLE)
                               * ln(CAST(pc.n AS DOUBLE)
                                    / CAST(t.total AS DOUBLE))
                               ORDER BY pc.b1, pc.b2) AS xs
                   FROM pc JOIN t USING (source)
                   GROUP BY pc.source),
            f1 AS (SELECT mg.source,
                          list(CAST(mg.n AS DOUBLE)
                               / CAST(t.total AS DOUBLE)
                               * ln(CAST(mg.n AS DOUBLE)
                                    / CAST(t.total AS DOUBLE))
                               ORDER BY mg.b1) AS xs
                   FROM mg JOIN t USING (source)
                   GROUP BY mg.source)
            SELECT t.source, t.total AS total_pairs,
                   CAST(t.np AS BIGINT) AS n_distinct_pairs,
                   -list_reduce(list_prepend(0.0, f2.xs),
                                (a, b) -> a + b) AS h2,
                   -list_reduce(list_prepend(0.0, f1.xs),
                                (a, b) -> a + b) AS h1,
                   (-list_reduce(list_prepend(0.0, f2.xs),
                                 (a, b) -> a + b))
                   - (-list_reduce(list_prepend(0.0, f1.xs),
                                   (a, b) -> a + b)) AS cond_entropy
            FROM t JOIN f2 USING (source) JOIN f1 USING (source)
        """,
        # K19: K5's 2^20 quantization; per-(dim,label) int moments;
        # SSW list_reduce fold in label order; SST/SSB/F pinned
        "k19_anova_f": """
            WITH u AS (
              SELECT label, CAST(t.i - 1 AS BIGINT) AS dim,
                     CAST(floor(CAST(embedding[t.i] AS DOUBLE)
                                * 1048576 + 0.5) AS BIGINT) AS q
              FROM embeddings
              CROSS JOIN unnest(range(1, len(embedding) + 1)) AS t(i)),
            g AS (SELECT dim, label, CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(q) AS BIGINT) AS s,
                         CAST(sum(q * q) AS BIGINT) AS q2
                  FROM u GROUP BY dim, label),
            t2 AS (SELECT dim, CAST(sum(n) AS BIGINT) AS nn,
                          CAST(sum(s) AS BIGINT) AS ss,
                          CAST(sum(q2) AS BIGINT) AS qq,
                          CAST(count(*) AS BIGINT) AS k
                   FROM g GROUP BY dim),
            fo AS (SELECT g.dim,
                          list_reduce(list_prepend(0.0,
                              list(CAST(g.q2 AS DOUBLE)
                                   - CAST(g.s AS DOUBLE)
                                     * CAST(g.s AS DOUBLE)
                                     / CAST(g.n AS DOUBLE)
                                   ORDER BY g.label)),
                              (a, b) -> a + b) AS ssw
                   FROM g GROUP BY g.dim)
            SELECT t2.dim, t2.nn AS n, t2.k AS k_labels, fo.ssw,
                   (CAST(t2.qq AS DOUBLE)
                    - CAST(t2.ss AS DOUBLE) * CAST(t2.ss AS DOUBLE)
                      / CAST(t2.nn AS DOUBLE)) - fo.ssw AS ssb,
                   CASE WHEN t2.k >= 2 AND t2.nn > t2.k
                             AND fo.ssw > 0
                        THEN (((CAST(t2.qq AS DOUBLE)
                                - CAST(t2.ss AS DOUBLE)
                                  * CAST(t2.ss AS DOUBLE)
                                  / CAST(t2.nn AS DOUBLE)) - fo.ssw)
                              / CAST(t2.k - 1 AS DOUBLE))
                             / (fo.ssw / CAST(t2.nn - t2.k AS DOUBLE))
                   END AS f_stat
            FROM t2 JOIN fo USING (dim)
        """,
        # A65: m_j = n_j*Q_j - S_j^2 over x, dx, ddx in HUGEINT;
        # ratio-form pinned chains with the 32-bit-split casts
        "a65_hjorth": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            dd1 AS (SELECT doc_id, part_id, i,
                           v - lag(v) OVER (PARTITION BY doc_id, part_id
                                            ORDER BY i) AS d
                    FROM s),
            d1n AS (SELECT doc_id, part_id, i, d FROM dd1
                    WHERE d IS NOT NULL),
            dd2 AS (SELECT doc_id, part_id, i,
                           d - lag(d) OVER (PARTITION BY doc_id, part_id
                                            ORDER BY i) AS e
                    FROM d1n),
            d2n AS (SELECT doc_id, part_id, i, e FROM dd2
                    WHERE e IS NOT NULL),
            mm0 AS (SELECT doc_id, part_id,
                           CAST(count(*) AS BIGINT) AS n0,
                           CAST(count(*) AS HUGEINT)
                               * sum(CAST(v AS HUGEINT) * v)
                               - CAST(sum(v) AS HUGEINT) * sum(v) AS m0
                    FROM s GROUP BY doc_id, part_id),
            mm1 AS (SELECT doc_id, part_id,
                           CAST(count(*) AS BIGINT) AS n1,
                           CAST(count(*) AS HUGEINT)
                               * sum(CAST(d AS HUGEINT) * d)
                               - CAST(sum(d) AS HUGEINT) * sum(d) AS m1
                    FROM d1n GROUP BY doc_id, part_id),
            mm2 AS (SELECT doc_id, part_id,
                           CAST(count(*) AS BIGINT) AS n2,
                           CAST(count(*) AS HUGEINT)
                               * sum(CAST(e AS HUGEINT) * e)
                               - CAST(sum(e) AS HUGEINT) * sum(e) AS m2
                    FROM d2n GROUP BY doc_id, part_id),
            base AS (
                SELECT mm0.doc_id, mm0.part_id, mm0.n0, mm0.m0,
                       mm1.n1, mm1.m1, mm2.n2, mm2.m2,
                       (CAST(mm0.m0 // 4294967296 AS DOUBLE)
                        * 4294967296.0
                        + CAST(mm0.m0 % 4294967296 AS DOUBLE))
                           AS sd0,
                       (CAST(mm1.m1 // 4294967296 AS DOUBLE)
                        * 4294967296.0
                        + CAST(mm1.m1 % 4294967296 AS DOUBLE))
                           AS sd1,
                       (CAST(mm2.m2 // 4294967296 AS DOUBLE)
                        * 4294967296.0
                        + CAST(mm2.m2 % 4294967296 AS DOUBLE))
                           AS sd2
                FROM mm0
                LEFT JOIN mm1 USING (doc_id, part_id)
                LEFT JOIN mm2 USING (doc_id, part_id)),
            mid AS (
                SELECT *,
                       CASE WHEN n0 >= 2 AND m0 <> 0
                            THEN sqrt(sd1 / sd0)
                                 * (CAST(n0 AS DOUBLE)
                                    / CAST(n1 AS DOUBLE))
                       END AS mobility
                FROM base)
            SELECT doc_id, part_id, n0 AS n,
                   sd0 / (CAST(n0 AS DOUBLE) * CAST(n0 AS DOUBLE))
                       AS activity,
                   mobility,
                   CASE WHEN n0 >= 3 AND m1 <> 0 AND mobility <> 0
                        THEN (sqrt(sd2 / sd1)
                              * (CAST(n1 AS DOUBLE)
                                 / CAST(n2 AS DOUBLE))) / mobility
                   END AS complexity
            FROM mid
        """,
        # W45: gaps via lag within user (ts, event_id order); lower
        # median = the (m+1)//2-th smallest via row_number
        "w45_purchase_cadence": """
            WITH p AS (
              SELECT user_id, event_id, epoch_us(ts) AS us
              FROM events WHERE event_type = 'purchase'),
            d AS (SELECT user_id,
                         us - lag(us) OVER (PARTITION BY user_id
                                            ORDER BY us, event_id)
                             AS gap
                  FROM p),
            g AS (SELECT user_id, gap,
                         CAST(row_number() OVER (PARTITION BY user_id
                                                 ORDER BY gap)
                              AS BIGINT) AS rk,
                         CAST(count(*) OVER (PARTITION BY user_id)
                              AS BIGINT) AS m
                  FROM d WHERE gap IS NOT NULL),
            n AS (SELECT user_id, CAST(count(*) AS BIGINT)
                             AS n_purchases
                  FROM p GROUP BY user_id),
            agg AS (SELECT user_id, any_value(m) AS n_gaps,
                           CAST(min(gap) AS BIGINT) AS min_gap_us,
                           CAST(max(gap) AS BIGINT) AS max_gap_us,
                           CAST(min(CASE WHEN rk = (m + 1) // 2
                                         THEN gap END) AS BIGINT)
                               AS median_gap_us
                    FROM g GROUP BY user_id)
            SELECT n.user_id, n.n_purchases,
                   CAST(COALESCE(agg.n_gaps, 0) AS BIGINT) AS n_gaps,
                   agg.median_gap_us, agg.min_gap_us, agg.max_gap_us
            FROM n LEFT JOIN agg USING (user_id)
        """,
        # V21: doc-local 25-word full chunks; count(DISTINCT word)
        # per chunk; one pinned division
        "v21_sttr": """
            WITH w AS (SELECT doc_id, source,
                              list_filter(string_split(text, ' '),
                                          x -> x <> '') AS ws
                       FROM documents),
            e AS (SELECT doc_id, source,
                         CAST((t.i - 1) // 25 AS BIGINT) AS chunk,
                         ws[t.i] AS word
                  FROM w
                  CROSS JOIN unnest(range(1, len(ws) + 1)) AS t(i)
                  WHERE t.i <= (len(ws) // 25) * 25),
            c AS (SELECT source, doc_id, chunk,
                         CAST(count(DISTINCT word) AS BIGINT) AS types
                  FROM e GROUP BY source, doc_id, chunk)
            SELECT source, CAST(count(*) AS BIGINT) AS n_chunks,
                   CAST(sum(types) AS BIGINT) AS sum_types,
                   CAST(sum(types) AS DOUBLE)
                       / CAST(25 * count(*) AS DOUBLE) AS sttr
            FROM c GROUP BY source
        """,
        # G41: cumulative counts over merged support; argmax by
        # (dn DESC, v ASC); one pinned division
        "g41_ks_two_types": """
            WITH h AS (
              SELECT event_type,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v,
                     CAST(count(*) AS BIGINT) AS c
              FROM events
              WHERE event_type IN ('error', 'purchase')
              GROUP BY event_type, v),
            t AS (SELECT
                    CAST(COALESCE(sum(c) FILTER (event_type = 'error'),
                                  0) AS BIGINT) AS n_a,
                    CAST(COALESCE(sum(c) FILTER (event_type =
                                                 'purchase'), 0)
                         AS BIGINT) AS n_b
                  FROM h),
            p AS (SELECT v,
                         CAST(COALESCE(sum(c) FILTER (event_type =
                                                      'error'), 0)
                              AS BIGINT) AS ca,
                         CAST(COALESCE(sum(c) FILTER (event_type =
                                                      'purchase'), 0)
                              AS BIGINT) AS cb
                  FROM h GROUP BY v),
            w AS (SELECT v,
                         CAST(sum(ca) OVER (ORDER BY v) AS BIGINT)
                             AS cca,
                         CAST(sum(cb) OVER (ORDER BY v) AS BIGINT)
                             AS ccb
                  FROM p),
            d AS (SELECT w.v,
                         abs(w.cca * t.n_b - w.ccb * t.n_a) AS dn
                  FROM w CROSS JOIN t),
            top AS (SELECT v, dn,
                           row_number() OVER (ORDER BY dn DESC, v ASC)
                               AS rk
                    FROM d)
            SELECT 'error' AS type_a, 'purchase' AS type_b,
                   t.n_a, t.n_b,
                   CAST(top.dn AS BIGINT) AS d_num,
                   CAST(top.v AS BIGINT) AS at_cents,
                   CASE WHEN t.n_a > 0 AND t.n_b > 0
                        THEN CAST(top.dn AS DOUBLE)
                             / CAST(t.n_a * t.n_b AS DOUBLE)
                   END AS ks
            FROM top CROSS JOIN t
            WHERE top.rk = 1
        """,
        # A66: prefix-extrema window compares; the 1/i harmonic fold
        # replayed via list_transform + list_reduce
        "a66_records": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            w AS (SELECT doc_id, part_id, v,
                         max(v) OVER win AS pmax,
                         min(v) OVER win AS pmin,
                         row_number() OVER (PARTITION BY doc_id,
                                            part_id ORDER BY i) AS rn
                  FROM s
                  WINDOW win AS (PARTITION BY doc_id, part_id
                                 ORDER BY i
                                 ROWS BETWEEN UNBOUNDED PRECEDING
                                          AND 1 PRECEDING)),
            a AS (SELECT doc_id, part_id,
                         CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(CASE WHEN rn >= 2 AND v > pmax
                                       THEN 1 ELSE 0 END) AS BIGINT)
                             AS n_high_records,
                         CAST(sum(CASE WHEN rn >= 2 AND v < pmin
                                       THEN 1 ELSE 0 END) AS BIGINT)
                             AS n_low_records
                  FROM w GROUP BY doc_id, part_id)
            SELECT doc_id, part_id, n, n_high_records, n_low_records,
                   list_reduce(list_prepend(0.0,
                       list_transform(range(2, n + 1),
                                      i -> 1.0 / CAST(i AS DOUBLE))),
                       (x, y) -> x + y) AS expected_records
            FROM a
        """,
        # J19: DuckDB ASOF LEFT JOIN (latest click strictly before)
        # + the 7-day window test, rolled up per purchase day
        "j19_last_touch": """
            WITH p AS (SELECT user_id, epoch_us(ts) AS us,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day
                       FROM events WHERE event_type = 'purchase'),
            c AS (SELECT user_id, epoch_us(ts) AS us
                  FROM events WHERE event_type = 'click'),
            a AS (SELECT p.day, p.us AS pus, c.us AS cus
                  FROM p ASOF LEFT JOIN c
                    ON p.user_id = c.user_id AND c.us < p.us)
            SELECT day,
                   CAST(count(*) AS BIGINT) AS n_purchases,
                   CAST(sum(CASE WHEN cus IS NOT NULL
                                  AND pus - cus <= 604800000000
                            THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_attributed,
                   CAST(COALESCE(sum(CASE WHEN cus IS NOT NULL
                                           AND pus - cus
                                               <= 604800000000
                                     THEN pus - cus ELSE 0 END), 0)
                        AS BIGINT) AS lag_us_sum
            FROM a GROUP BY day
        """,
        # A67: HUGEINT prefix-of-squares; argmax (|num| DESC, k ASC);
        # the non-negative 32-bit-split ratio
        "a67_cusum_squares": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            st AS (SELECT doc_id, part_id,
                          CAST(count(*) AS BIGINT) AS n,
                          CAST(sum(CAST(v AS HUGEINT) * v) AS HUGEINT)
                              AS q
                   FROM s GROUP BY doc_id, part_id),
            pp AS (SELECT s.doc_id, s.part_id,
                          CAST(row_number() OVER w AS BIGINT) AS k,
                          CAST(sum(CAST(s.v AS HUGEINT) * s.v)
                               OVER w AS HUGEINT) AS qk,
                          st.n, st.q
                   FROM s JOIN st USING (doc_id, part_id)
                   WINDOW w AS (PARTITION BY s.doc_id, s.part_id
                                ORDER BY s.i
                                ROWS UNBOUNDED PRECEDING)),
            nm AS (SELECT doc_id, part_id, k, n, q,
                          abs(n * qk - k * q) AS a
                   FROM pp WHERE k < n),
            top AS (SELECT doc_id, part_id, k, n, q, a,
                           row_number() OVER (PARTITION BY doc_id,
                                              part_id
                                              ORDER BY a DESC, k ASC)
                               AS rk
                    FROM nm)
            SELECT st.doc_id, st.part_id, st.n,
                   CASE WHEN st.n >= 2 AND st.q <> 0
                        THEN (CAST(top.a // 4294967296 AS DOUBLE)
                              * 4294967296.0
                              + CAST(top.a % 4294967296 AS DOUBLE))
                             / (CAST((st.n * st.q) // 4294967296
                                     AS DOUBLE) * 4294967296.0
                                + CAST((st.n * st.q) % 4294967296
                                       AS DOUBLE))
                   END AS cusum_sq,
                   CASE WHEN st.n >= 2 AND st.q <> 0
                        THEN top.k END AS at_k
            FROM st LEFT JOIN top
              ON top.doc_id = st.doc_id AND top.part_id = st.part_id
             AND top.rk = 1
        """,
        # W46: lead() pairs within user; per-user list_reduce fold in
        # (t1, t2) order; single-event users LEFT-JOIN to NULL
        "w46_transition_entropy": """
            WITH o AS (
              SELECT user_id, event_type,
                     lead(event_type) OVER (PARTITION BY user_id
                                            ORDER BY epoch_us(ts),
                                                     event_id) AS nxt
              FROM events),
            pr AS (SELECT user_id, event_type AS t1, nxt AS t2,
                          CAST(count(*) AS BIGINT) AS n
                   FROM o WHERE nxt IS NOT NULL
                   GROUP BY user_id, t1, t2),
            t AS (SELECT user_id, CAST(sum(n) AS BIGINT) AS total,
                         CAST(count(*) AS BIGINT) AS n_pairs
                  FROM pr GROUP BY user_id),
            f AS (SELECT pr.user_id,
                         list(CAST(pr.n AS DOUBLE)
                              / CAST(t.total AS DOUBLE)
                              * ln(CAST(pr.n AS DOUBLE)
                                   / CAST(t.total AS DOUBLE))
                              ORDER BY pr.t1, pr.t2) AS xs
                  FROM pr JOIN t USING (user_id)
                  GROUP BY pr.user_id),
            u AS (SELECT DISTINCT user_id FROM events)
            SELECT u.user_id,
                   CAST(COALESCE(t.total, 0) AS BIGINT)
                       AS n_transitions,
                   CAST(COALESCE(t.n_pairs, 0) AS BIGINT) AS n_pairs,
                   CASE WHEN t.total > 0
                        THEN -list_reduce(list_prepend(0.0, f.xs),
                                          (a, b) -> a + b)
                   END AS trans_entropy
            FROM u
            LEFT JOIN t USING (user_id)
            LEFT JOIN f USING (user_id)
        """,
        # D22: COUNT(DISTINCT) both ways — the oracle needs no hash
        # replay, an independent route to the same groups
        "d22_normalized_dedup": r"""
            SELECT CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(count(DISTINCT text) AS BIGINT) AS n_raw_groups,
                   CAST(count(DISTINCT lower(trim(regexp_replace(
                        text, '\s+', ' ', 'g')))) AS BIGINT)
                       AS n_norm_groups,
                   CAST(count(DISTINCT text)
                        - count(DISTINCT lower(trim(regexp_replace(
                              text, '\s+', ' ', 'g')))) AS BIGINT)
                       AS extra_dups
            FROM documents
        """,
        # A68: d via lag over day order; HUGEINT vn numerator; the
        # non-negative split-cast division
        "a68_von_neumann": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            dd AS (SELECT event_type,
                          x - lag(x) OVER (PARTITION BY event_type
                                           ORDER BY day) AS dx
                   FROM d),
            s2 AS (SELECT event_type,
                          CAST(COALESCE(sum(CAST(dx AS HUGEINT) * dx),
                                        0) AS HUGEINT) AS d2
                   FROM dd WHERE dx IS NOT NULL GROUP BY event_type),
            t AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(x) AS BIGINT) AS s,
                         CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT)
                             AS q
                  FROM d GROUP BY event_type)
            SELECT t.event_type, t.n AS n_days,
                   CAST(COALESCE(s2.d2, 0) AS BIGINT) AS d2_sum,
                   CASE WHEN t.n >= 2
                             AND t.n * t.q - CAST(t.s AS HUGEINT)
                                 * t.s > 0
                        THEN (CAST((t.n * COALESCE(s2.d2, 0))
                                   // 4294967296 AS DOUBLE)
                              * 4294967296.0
                              + CAST((t.n * COALESCE(s2.d2, 0))
                                     % 4294967296 AS DOUBLE))
                             / (CAST((t.n * t.q - CAST(t.s AS HUGEINT)
                                      * t.s) // 4294967296 AS DOUBLE)
                                * 4294967296.0
                                + CAST((t.n * t.q
                                        - CAST(t.s AS HUGEINT) * t.s)
                                       % 4294967296 AS DOUBLE))
                   END AS vn
            FROM t LEFT JOIN s2 USING (event_type)
        """,
        # E6: per-128 block extrema; width = min w with delta < 2^w;
        # 5 header bytes + ceil(cnt*w/8) per block
        "e6_for_size": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            blk AS (SELECT doc_id, part_id, i // 128 AS b,
                           CAST(count(*) AS BIGINT) AS cnt,
                           CAST(max(v) - min(v) AS BIGINT) AS delta
                    FROM s GROUP BY doc_id, part_id, b),
            pw AS (SELECT unnest(range(0, 33)) AS w),
            wb AS (SELECT blk.doc_id, blk.part_id, blk.cnt,
                          (SELECT min(w) FROM pw
                           WHERE blk.delta < (CAST(1 AS BIGINT) << w))
                              AS w
                   FROM blk),
            tot AS (SELECT doc_id, part_id,
                           CAST(count(*) AS BIGINT) AS n_blocks,
                           CAST(sum(5 + (cnt * w + 7) // 8) AS BIGINT)
                               AS n_bytes
                    FROM wb GROUP BY doc_id, part_id),
            nn AS (SELECT doc_id, part_id,
                          CAST(count(*) AS BIGINT) AS n
                   FROM s GROUP BY doc_id, part_id)
            SELECT nn.doc_id, nn.part_id, nn.n, tot.n_blocks,
                   tot.n_bytes,
                   CAST(tot.n_bytes AS DOUBLE) / CAST(nn.n AS DOUBLE)
                       AS bytes_per_token
            FROM nn JOIN tot USING (doc_id, part_id)
        """,
        # Q24: normalizer = list_reduce fold of sqrt(n) in source
        # order; one division per share
        "q24_temperature_mixture": """
            WITH c AS (SELECT source, CAST(count(*) AS BIGINT) AS n
                       FROM documents GROUP BY source),
            t AS (SELECT list_reduce(list_prepend(0.0,
                      list(sqrt(CAST(n AS DOUBLE)) ORDER BY source)),
                      (a, b) -> a + b) AS total
                  FROM c)
            SELECT c.source, c.n AS n_docs,
                   sqrt(CAST(c.n AS DOUBLE)) AS weight,
                   sqrt(CAST(c.n AS DOUBLE)) / t.total AS share
            FROM c CROSS JOIN t
        """,
        # W47: burst = d*n > 2*S exact compare; runs via
        # day - row_number gaps-and-islands
        "w47_burst_runs": """
            WITH c AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY event_type, day),
            g AS (SELECT CAST(max(day) - min(day) + 1 AS BIGINT) AS d
                  FROM c),
            t AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS s
                  FROM c GROUP BY event_type),
            b AS (SELECT c.event_type, c.day
                  FROM c JOIN t USING (event_type) CROSS JOIN g
                  WHERE g.d * c.n > 2 * t.s),
            r AS (SELECT event_type,
                         day - row_number() OVER (PARTITION BY
                                                  event_type
                                                  ORDER BY day) AS grp
                  FROM b),
            runs AS (SELECT event_type, grp,
                            CAST(count(*) AS BIGINT) AS len
                     FROM r GROUP BY event_type, grp),
            agg AS (SELECT event_type,
                           CAST(sum(len) AS BIGINT) AS n_burst_days,
                           CAST(count(*) AS BIGINT) AS n_burst_runs,
                           CAST(max(len) AS BIGINT) AS longest_run
                    FROM runs GROUP BY event_type)
            SELECT t.event_type, g.d AS n_days,
                   CAST(COALESCE(agg.n_burst_days, 0) AS BIGINT)
                       AS n_burst_days,
                   CAST(COALESCE(agg.n_burst_runs, 0) AS BIGINT)
                       AS n_burst_runs,
                   CAST(COALESCE(agg.longest_run, 0) AS BIGINT)
                       AS longest_run
            FROM t CROSS JOIN g
            LEFT JOIN agg USING (event_type)
        """,
        # T22: per-doc char counts via length-replace identities; one
        # pinned division per source
        "t22_balance_audit": """
            WITH d AS (
              SELECT source,
                     length(text) - length(replace(text, '(', ''))
                         AS op,
                     length(text) - length(replace(text, ')', ''))
                         AS cl,
                     length(text) - length(replace(text, '"', ''))
                         AS qt
              FROM documents),
            f AS (SELECT source,
                         CAST(count(*) AS BIGINT) AS n_docs,
                         CAST(sum(CASE WHEN op <> cl OR qt % 2 = 1
                                       THEN 1 ELSE 0 END) AS BIGINT)
                             AS n_unbalanced
                  FROM d GROUP BY source)
            SELECT source, n_docs, n_unbalanced,
                   CASE WHEN n_docs > 0
                        THEN CAST(n_unbalanced AS DOUBLE)
                             / CAST(n_docs AS DOUBLE)
                   END AS unbalanced_share
            FROM f
        """,
        # X10: position pairs with 0 < p2 - p1 <= 5, same doc
        "x10_near_search": """
            WITH ws AS (SELECT doc_id,
                               list_filter(string_split(text, ' '),
                                           x -> x <> '') AS w
                        FROM documents),
            p1 AS (SELECT doc_id, CAST(t.i - 1 AS BIGINT) AS pos
                   FROM ws
                   CROSS JOIN unnest(range(1, len(w) + 1)) AS t(i)
                   WHERE w[t.i] = 'batch'),
            p2 AS (SELECT doc_id, CAST(t.i - 1 AS BIGINT) AS pos
                   FROM ws
                   CROSS JOIN unnest(range(1, len(w) + 1)) AS t(i)
                   WHERE w[t.i] = 'stream'),
            hits AS (SELECT p1.doc_id, p1.pos,
                            CAST(count(*) AS BIGINT) AS c
                     FROM p1 JOIN p2
                       ON p2.doc_id = p1.doc_id
                      AND p2.pos > p1.pos
                      AND p2.pos <= p1.pos + 5
                     GROUP BY p1.doc_id, p1.pos)
            SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_pairs,
                   CAST(min(pos) AS BIGINT) AS first_pos
            FROM hits GROUP BY doc_id
        """,
        # W48: two chained leads within user; (n DESC, lexicographic)
        # top-10
        "w48_top_paths": """
            WITH o AS (
              SELECT user_id, event_type AS t1,
                     lead(event_type, 1) OVER w AS t2,
                     lead(event_type, 2) OVER w AS t3
              FROM events
              WINDOW w AS (PARTITION BY user_id
                           ORDER BY epoch_us(ts), event_id))
            SELECT t1, t2, t3, CAST(count(*) AS BIGINT) AS n
            FROM o WHERE t2 IS NOT NULL AND t3 IS NOT NULL
            GROUP BY t1, t2, t3
            ORDER BY n DESC, t1, t2, t3 LIMIT 10
        """,
        # A69: HUGEINT scaled central moments; signed 32-bit-split for
        # the (possibly negative) m3s; ratio-split skew^2
        "a69_jarque_bera": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            m AS (SELECT event_type,
                         CAST(count(*) AS HUGEINT) AS n,
                         CAST(sum(x) AS HUGEINT) AS s1,
                         CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT)
                             AS s2,
                         CAST(sum(CAST(x AS HUGEINT) * x * x)
                              AS HUGEINT) AS s3,
                         CAST(sum(CAST(x AS HUGEINT) * x * x * x)
                              AS HUGEINT) AS s4
                  FROM d GROUP BY event_type),
            c AS (SELECT event_type, n,
                         n * s2 - s1 * s1 AS m2s,
                         n * n * s3 - 3 * n * s1 * s2
                             + 2 * s1 * s1 * s1 AS m3s,
                         n * n * n * s4 - 4 * n * n * s1 * s3
                             + 6 * n * s1 * s1 * s2
                             - 3 * s1 * s1 * s1 * s1 AS m4s
                  FROM m),
            f AS (SELECT event_type, n, m2s,
                         (CAST(m2s // 4294967296 AS DOUBLE)
                          * 4294967296.0
                          + CAST(m2s % 4294967296 AS DOUBLE)) AS sd2,
                         (CASE WHEN m3s >= 0 THEN
                              CAST(m3s // 4294967296 AS DOUBLE)
                              * 4294967296.0
                              + CAST(m3s % 4294967296 AS DOUBLE)
                          ELSE -(CAST((-m3s) // 4294967296 AS DOUBLE)
                                 * 4294967296.0
                                 + CAST((-m3s) % 4294967296
                                        AS DOUBLE)) END) AS sd3,
                         (CAST(m4s // 4294967296 AS DOUBLE)
                          * 4294967296.0
                          + CAST(m4s % 4294967296 AS DOUBLE)) AS sd4
                  FROM c),
            g AS (SELECT event_type, n, m2s,
                         (sd3 / sd2) * (sd3 / sd2) / sd2 AS skew2,
                         sd4 / (sd2 * sd2) - 3.0 AS ex_kurt
                  FROM f)
            SELECT event_type, CAST(n AS BIGINT) AS n_days,
                   CASE WHEN n >= 2 AND m2s > 0 THEN skew2 END
                       AS skew2,
                   CASE WHEN n >= 2 AND m2s > 0 THEN ex_kurt END
                       AS ex_kurt,
                   CASE WHEN n >= 2 AND m2s > 0
                        THEN (CAST(n AS DOUBLE) / 6.0)
                             * (skew2 + (ex_kurt * ex_kurt) / 4.0)
                   END AS jb
            FROM g
        """,
        # W49: zero-filled grid; lower-median per (type, day%7);
        # 1 - split(num_r)/split(num_x)
        "w49_weekday_strength": """
            WITH c AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY event_type, day),
            g AS (SELECT min(day) AS lo, max(day) AS hi FROM c),
            days AS (SELECT unnest(range(g.lo, g.hi + 1)) AS day
                     FROM g),
            types AS (SELECT DISTINCT event_type FROM c),
            grid AS (SELECT t.event_type, dd.day, dd.day % 7 AS w,
                            CAST(COALESCE(c.n, 0) AS BIGINT) AS n
                     FROM types t CROSS JOIN days dd
                     LEFT JOIN c ON c.event_type = t.event_type
                                AND c.day = dd.day),
            med AS (SELECT event_type, w,
                           CAST(min(val) AS BIGINT) AS med
                    FROM (SELECT event_type, w, n AS val,
                                 row_number() OVER (PARTITION BY
                                     event_type, w
                                     ORDER BY n, day) AS rk,
                                 count(*) OVER (PARTITION BY
                                     event_type, w) AS m
                          FROM grid)
                    WHERE rk = (m + 1) // 2
                    GROUP BY event_type, w),
            r AS (SELECT grid.event_type, grid.n,
                         grid.n - med.med AS resid
                  FROM grid JOIN med
                    ON med.event_type = grid.event_type
                   AND med.w = grid.w),
            a AS (SELECT event_type,
                         CAST(count(*) AS HUGEINT) AS d,
                         CAST(sum(CAST(n AS HUGEINT) * n) AS HUGEINT)
                             AS q,
                         CAST(sum(n) AS HUGEINT) AS s,
                         CAST(sum(CAST(resid AS HUGEINT) * resid)
                              AS HUGEINT) AS qr,
                         CAST(sum(resid) AS HUGEINT) AS sr
                  FROM r GROUP BY event_type),
            ms AS (SELECT event_type, CAST(sum(med) AS BIGINT)
                              AS med_sum
                   FROM med GROUP BY event_type)
            SELECT a.event_type, CAST(a.d AS BIGINT) AS n_days,
                   ms.med_sum,
                   CASE WHEN a.d * a.q - a.s * a.s > 0
                        THEN 1.0 -
                             (CAST((a.d * a.qr - a.sr * a.sr)
                                   // 4294967296 AS DOUBLE)
                              * 4294967296.0
                              + CAST((a.d * a.qr - a.sr * a.sr)
                                     % 4294967296 AS DOUBLE))
                             / (CAST((a.d * a.q - a.s * a.s)
                                     // 4294967296 AS DOUBLE)
                                * 4294967296.0
                                + CAST((a.d * a.q - a.s * a.s)
                                       % 4294967296 AS DOUBLE))
                   END AS strength
            FROM a JOIN ms USING (event_type)
        """,
        # W50: per-user min/max/count; hour-floored tenure; G10's
        # pinned r with signed split numerator
        "w50_tenure_activity_corr": """
            WITH u AS (
              SELECT user_id,
                     CAST((max(epoch_us(ts)) - min(epoch_us(ts)))
                          // 3600000000 AS BIGINT) AS x,
                     CAST(count(*) AS BIGINT) AS y
              FROM events GROUP BY user_id),
            m AS (SELECT CAST(count(*) AS HUGEINT) AS n,
                         CAST(sum(x) AS HUGEINT) AS sx,
                         CAST(sum(y) AS HUGEINT) AS sy,
                         CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT)
                             AS sxx,
                         CAST(sum(CAST(y AS HUGEINT) * y) AS HUGEINT)
                             AS syy,
                         CAST(sum(CAST(x AS HUGEINT) * y) AS HUGEINT)
                             AS sxy
                  FROM u),
            c AS (SELECT n, sxy,
                         n * sxy - sx * sy AS num,
                         n * sxx - sx * sx AS dx,
                         n * syy - sy * sy AS dy
                  FROM m)
            SELECT CAST(n AS BIGINT) AS n_users,
                   CAST(sxy AS BIGINT) AS sxy,
                   CASE WHEN dx > 0 AND dy > 0 THEN
                       (CASE WHEN num >= 0 THEN
                            CAST(num // 4294967296 AS DOUBLE)
                            * 4294967296.0
                            + CAST(num % 4294967296 AS DOUBLE)
                        ELSE -(CAST((-num) // 4294967296 AS DOUBLE)
                               * 4294967296.0
                               + CAST((-num) % 4294967296
                                      AS DOUBLE)) END)
                       / (sqrt(CAST(dx // 4294967296 AS DOUBLE)
                               * 4294967296.0
                               + CAST(dx % 4294967296 AS DOUBLE))
                          * sqrt(CAST(dy // 4294967296 AS DOUBLE)
                                 * 4294967296.0
                                 + CAST(dy % 4294967296 AS DOUBLE)))
                   END AS r
            FROM c
        """,
        # A70: y = lead-diff, z = lagged level; exact OLS slope in
        # HUGEINT; signed split on num, non-negative on den
        "a70_df_slope": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            p AS (SELECT event_type, x AS z,
                         lead(x) OVER (PARTITION BY event_type
                                       ORDER BY day) - x AS y
                  FROM d),
            pp AS (SELECT event_type, z, y FROM p
                   WHERE y IS NOT NULL),
            m AS (SELECT event_type,
                         CAST(count(*) AS HUGEINT) AS m,
                         CAST(sum(z) AS HUGEINT) AS sz,
                         CAST(sum(y) AS HUGEINT) AS sy,
                         CAST(sum(CAST(z AS HUGEINT) * z) AS HUGEINT)
                             AS szz,
                         CAST(sum(CAST(z AS HUGEINT) * y) AS HUGEINT)
                             AS szy
                  FROM pp GROUP BY event_type),
            t AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
                  FROM d GROUP BY event_type),
            c AS (SELECT event_type,
                         m * szy - sz * sy AS num,
                         m * szz - sz * sz AS den, m
                  FROM m)
            SELECT t.event_type, t.n AS n_days,
                   CAST(COALESCE(c.num, 0) AS BIGINT) AS df_num,
                   CASE WHEN c.m >= 2 AND c.den > 0 THEN
                       (CASE WHEN c.num >= 0 THEN
                            CAST(c.num // 4294967296 AS DOUBLE)
                            * 4294967296.0
                            + CAST(c.num % 4294967296 AS DOUBLE)
                        ELSE -(CAST((-c.num) // 4294967296 AS DOUBLE)
                               * 4294967296.0
                               + CAST((-c.num) % 4294967296
                                      AS DOUBLE)) END)
                       / (CAST(c.den // 4294967296 AS DOUBLE)
                          * 4294967296.0
                          + CAST(c.den % 4294967296 AS DOUBLE))
                   END AS beta
            FROM t LEFT JOIN c USING (event_type)
        """,
        # W51: |lead diff| rank statistics via row_number at
        # (m+1)//2 and max
        "w51_robust_volatility": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            dd AS (SELECT event_type,
                          abs(x - lag(x) OVER (PARTITION BY event_type
                                               ORDER BY day)) AS a
                   FROM d),
            dn AS (SELECT event_type, a,
                          CAST(row_number() OVER (PARTITION BY
                              event_type ORDER BY a) AS BIGINT) AS rk,
                          CAST(count(*) OVER (PARTITION BY event_type)
                               AS BIGINT) AS m
                   FROM dd WHERE a IS NOT NULL),
            agg AS (SELECT event_type, any_value(m) AS n_changes,
                           CAST(min(CASE WHEN rk = (m + 1) // 2
                                         THEN a END) AS BIGINT)
                               AS med_abs_change,
                           CAST(max(a) AS BIGINT) AS max_abs_change
                    FROM dn GROUP BY event_type),
            t AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
                  FROM d GROUP BY event_type)
            SELECT t.event_type, t.n AS n_days,
                   CAST(COALESCE(agg.n_changes, 0) AS BIGINT)
                       AS n_changes,
                   agg.med_abs_change, agg.max_abs_change
            FROM t LEFT JOIN agg USING (event_type)
        """,
        # C8: the shared _quality_sql composite + threshold VALUES
        # cross join
        "c8_quality_sweep": ("""
            WITH ql AS (SELECT doc_id, quality_score
                        FROM (""" + _quality_sql + """)),
            j AS (SELECT d.doc_id, CAST(d.n_chars AS BIGINT)
                             AS n_chars, ql.quality_score
                  FROM documents d JOIN ql USING (doc_id)),
            th(t) AS (VALUES (0.2), (0.4), (0.6), (0.8))
            SELECT th.t AS threshold,
                   CAST(COALESCE(sum(CASE WHEN j.quality_score >= th.t
                                          THEN 1 ELSE 0 END), 0)
                        AS BIGINT) AS n_docs,
                   CAST(COALESCE(sum(CASE WHEN j.quality_score >= th.t
                                          THEN j.n_chars ELSE 0 END),
                                 0) AS BIGINT) AS n_chars
            FROM th CROSS JOIN j GROUP BY th.t
        """),
        # W52: lead() pairs within user; second-floored gap sums; one
        # pinned division per pair
        "w52_transition_times": """
            WITH o AS (
              SELECT user_id, event_type AS t1,
                     lead(event_type) OVER w AS t2,
                     (lead(epoch_us(ts)) OVER w - epoch_us(ts))
                         // 1000000 AS gap_s
              FROM events
              WINDOW w AS (PARTITION BY user_id
                           ORDER BY epoch_us(ts), event_id))
            SELECT t1, t2, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(gap_s) AS BIGINT) AS gap_s_sum,
                   CAST(sum(gap_s) AS DOUBLE)
                       / CAST(count(*) AS DOUBLE) AS mean_gap_s
            FROM o WHERE t2 IS NOT NULL
            GROUP BY t1, t2
        """,
        # D25: within-doc word trigrams; DISTINCT via subquery; one
        # pinned division
        "d25_trigram_redundancy": """
            WITH ws AS (SELECT source,
                               list_filter(string_split(text, ' '),
                                           x -> x <> '') AS w
                        FROM documents),
            g AS (SELECT source, w[t.i] AS g1, w[t.i + 1] AS g2,
                         w[t.i + 2] AS g3
                  FROM ws
                  CROSS JOIN unnest(range(1, len(w) - 1)) AS t(i)),
            tot AS (SELECT source, CAST(count(*) AS BIGINT) AS n_total
                    FROM g GROUP BY source),
            dst AS (SELECT source, CAST(count(*) AS BIGINT)
                               AS n_distinct
                    FROM (SELECT DISTINCT source, g1, g2, g3 FROM g)
                    GROUP BY source)
            SELECT tot.source, tot.n_total, dst.n_distinct,
                   CASE WHEN tot.n_total > 0
                        THEN CAST(dst.n_distinct AS DOUBLE)
                             / CAST(tot.n_total AS DOUBLE)
                   END AS distinct_share
            FROM tot JOIN dst USING (source)
        """,
        # A71: lower-rank med/MAD + the exact 10000*|x-med| >
        # 51891*mad inequality
        "a71_daily_mad_outliers": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            t AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
                  FROM d GROUP BY event_type),
            m AS (SELECT event_type, CAST(min(x) AS BIGINT) AS med
                  FROM (SELECT d.event_type, d.x, t.n,
                               row_number() OVER (PARTITION BY
                                   d.event_type ORDER BY d.x) AS rk
                        FROM d JOIN t USING (event_type))
                  WHERE rk = (n + 1) // 2 GROUP BY event_type),
            dv AS (SELECT d.event_type,
                          abs(d.x - m.med) AS a
                   FROM d JOIN m USING (event_type)),
            md AS (SELECT event_type, CAST(min(a) AS BIGINT) AS mad
                   FROM (SELECT dv.event_type, dv.a, t.n,
                                row_number() OVER (PARTITION BY
                                    dv.event_type ORDER BY dv.a)
                                    AS rk
                         FROM dv JOIN t USING (event_type))
                   WHERE rk = (n + 1) // 2 GROUP BY event_type),
            f AS (SELECT dv.event_type,
                         CAST(sum(CASE WHEN 10000 * dv.a
                                            > 51891 * md.mad
                                       THEN 1 ELSE 0 END) AS BIGINT)
                             AS n_flagged
                  FROM dv JOIN md USING (event_type)
                  GROUP BY dv.event_type)
            SELECT t.event_type, t.n AS n_days,
                   m.med AS med_cents, md.mad AS mad_cents,
                   f.n_flagged
            FROM t JOIN m USING (event_type)
            JOIN md USING (event_type)
            JOIN f USING (event_type)
        """,
        # G42: bucket = max w with 2^w <= n (powers join, no float
        # log)
        "g42_activity_hist": """
            WITH u AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY user_id),
            pw AS (SELECT unnest(range(0, 63)) AS w),
            b AS (SELECT u.user_id,
                         (SELECT max(w) FROM pw
                          WHERE (CAST(1 AS BIGINT) << w) <= u.n)
                             AS bucket
                  FROM u)
            SELECT CAST(bucket AS BIGINT) AS bucket,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM b GROUP BY bucket
        """,
        # Q25: the sorted prefix walk replayed with window prefix
        # sums; first i with cand <= n picks the cap
        "q25_waterfill_allocation": """
            WITH c AS (
              SELECT source, CAST(count(*) AS BIGINT) AS n
              FROM (SELECT source,
                           unnest(string_split(text, ' ')) AS word
                    FROM documents)
              WHERE word <> '' GROUP BY source),
            t AS (SELECT CAST(sum(n) AS BIGINT) AS total,
                         CAST(count(*) AS BIGINT) AS m
                  FROM c),
            o AS (SELECT source, n,
                         CAST(row_number() OVER
                             (ORDER BY n, source) AS BIGINT) AS i,
                         CAST(COALESCE(sum(n) OVER
                             (ORDER BY n, source
                              ROWS BETWEEN UNBOUNDED PRECEDING
                                       AND 1 PRECEDING), 0)
                              AS BIGINT) AS pfx
                  FROM c),
            w AS (SELECT o.i, o.n,
                         (t.total // 2 - o.pfx) // (t.m - o.i + 1)
                             AS cand
                  FROM o CROSS JOIN t),
            pick AS (SELECT min(i) AS i0 FROM w WHERE cand <= n),
            cp AS (SELECT CASE WHEN pick.i0 IS NULL
                               THEN (SELECT max(n) FROM c)
                               ELSE (SELECT cand FROM w
                                     WHERE w.i = pick.i0) END AS cap
                   FROM pick),
            agg AS (SELECT CAST(sum(least(c.n, cp.cap)) AS BIGINT)
                               AS total_alloc
                    FROM c CROSS JOIN cp)
            SELECT c.source, c.n AS n_words,
                   CAST(least(c.n, cp.cap) AS BIGINT) AS alloc,
                   CAST(cp.cap AS BIGINT) AS cap,
                   CAST(t.total // 2 - agg.total_alloc AS BIGINT)
                       AS leftover
            FROM c CROSS JOIN cp CROSS JOIN t CROSS JOIN agg
        """,
        # V22: adjacent char pairs, both non-space; ranked LIMIT k
        "v22_bpe_candidates": """
            WITH pos AS (
              SELECT text,
                     unnest(generate_series(1, length(text) - 1)) AS i
              FROM documents WHERE length(text) >= 2),
            pc2 AS (
              SELECT ascii(substr(text, CAST(i AS INTEGER), 1)) AS b1,
                     ascii(substr(text, CAST(i + 1 AS INTEGER), 1))
                         AS b2
              FROM pos)
            SELECT CAST(b1 AS BIGINT) AS b1, CAST(b2 AS BIGINT) AS b2,
                   CAST(count(*) AS BIGINT) AS n
            FROM pc2 WHERE b1 <> 32 AND b2 <> 32
            GROUP BY b1, b2
            ORDER BY n DESC, b1, b2 LIMIT 10
        """,
        # C9: W1's 12h-gap session CTE + per-session type counts,
        # rolled up by session-start day
        "c9_abandoned_sessions": """
            WITH o AS (
                SELECT user_id, ts, event_id, event_type,
                       lag(ts) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) AS pts
                FROM events),
            m AS (SELECT *, CASE WHEN pts IS NULL OR
                                      epoch_us(ts) - epoch_us(pts)
                                          > 43200000000
                                 THEN 1 ELSE 0 END AS brk FROM o),
            s AS (SELECT *, sum(brk) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id
                                           ROWS UNBOUNDED PRECEDING)
                               AS sid
                  FROM m),
            sess AS (SELECT user_id, sid,
                            CAST(epoch_us(min(ts)) // 86400000000
                                 AS BIGINT) AS day,
                            CAST(sum(CASE WHEN event_type = 'click'
                                          THEN 1 ELSE 0 END)
                                 AS BIGINT) AS n_clicks,
                            CAST(sum(CASE WHEN event_type = 'purchase'
                                          THEN 1 ELSE 0 END)
                                 AS BIGINT) AS n_purch
                     FROM s GROUP BY user_id, sid)
            SELECT day, CAST(count(*) AS BIGINT) AS n_sessions,
                   CAST(sum(CASE WHEN n_clicks >= 1 AND n_purch = 0
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_abandoned,
                   CAST(sum(CASE WHEN n_purch > 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_converted
            FROM sess GROUP BY day
        """,
        # A72: A32's float-prune + HUGEINT cross-compare argmax over
        # the FIRST-DIFFERENCE series (slope break = diff mean shift)
        "a72_slope_break": f"""
            WITH {_SEQ_TOK_CTE},
            s0 AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            s AS MATERIALIZED (
                SELECT doc_id, part_id, i - 1 AS i, dv AS v FROM (
                    SELECT doc_id, part_id, i,
                           v - lag(v) OVER (PARTITION BY doc_id,
                                            part_id ORDER BY i) AS dv
                    FROM s0)
                WHERE dv IS NOT NULL),
            orig AS (SELECT doc_id, part_id,
                            CAST(count(*) AS BIGINT) AS n
                     FROM s0 GROUP BY doc_id, part_id),
            tot AS MATERIALIZED (
                SELECT doc_id, part_id, CAST(count(*) AS BIGINT) AS n,
                       CAST(sum(v) AS BIGINT) AS s_sum
                FROM s GROUP BY doc_id, part_id),
            c AS MATERIALIZED (
                SELECT doc_id, part_id, i + 1 AS k,
                       CAST(sum(v) OVER (PARTITION BY doc_id, part_id
                                         ORDER BY i) AS BIGINT) AS pk
                FROM s),
            cand AS MATERIALIZED (
                SELECT c.doc_id, c.part_id, CAST(c.k AS BIGINT) AS k,
                       c.pk,
                       CAST(abs(c.pk * t.n - t.s_sum * c.k) AS BIGINT)
                           AS a,
                       CAST(c.k * (t.n - c.k) AS BIGINT) AS d
                FROM c JOIN tot t USING (doc_id, part_id)
                WHERE c.k < t.n),
            qq AS MATERIALIZED (
                SELECT *, CAST(a AS DOUBLE) / CAST(d AS DOUBLE) AS qf,
                       max(CAST(a AS DOUBLE) / CAST(d AS DOUBLE))
                           OVER (PARTITION BY doc_id, part_id) AS qmax
                FROM cand),
            nr AS MATERIALIZED (
                SELECT * FROM qq
                WHERE qf >= qmax * (1.0 - 1e-12) - 1e-300),
            best AS MATERIALIZED (
                SELECT k.* FROM nr k
                WHERE NOT EXISTS (
                    SELECT 1 FROM nr j
                    WHERE j.doc_id = k.doc_id
                      AND j.part_id = k.part_id
                      AND (CAST(j.a AS HUGEINT) * k.d
                               > CAST(k.a AS HUGEINT) * j.d
                           OR (CAST(j.a AS HUGEINT) * k.d
                                   = CAST(k.a AS HUGEINT) * j.d
                               AND j.k < k.k))))
            SELECT o.doc_id, o.part_id, o.n,
                   b.k AS split_pos,
                   CAST(b.a AS DOUBLE) / CAST(b.d AS DOUBLE) AS gap,
                   CAST(b.pk AS DOUBLE) / CAST(b.k AS DOUBLE)
                       AS slope_l,
                   CAST(t.s_sum - b.pk AS DOUBLE)
                       / CAST(t.n - b.k AS DOUBLE) AS slope_r
            FROM orig o
            LEFT JOIN tot t USING (doc_id, part_id)
            LEFT JOIN best b ON b.doc_id = o.doc_id
                            AND b.part_id = o.part_id
        """,
        # A73: exact v*n vs sum compares + one lag for crossings
        "a73_mean_side": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            tot AS MATERIALIZED (
                SELECT doc_id, part_id, CAST(count(*) AS BIGINT) AS n,
                       CAST(sum(v) AS BIGINT) AS s_sum
                FROM s GROUP BY doc_id, part_id),
            f AS MATERIALIZED (
                SELECT s.doc_id, s.part_id, s.i,
                       (s.v * t.n > t.s_sum) AS above,
                       (s.v * t.n < t.s_sum) AS below
                FROM s JOIN tot t USING (doc_id, part_id)),
            l AS (SELECT doc_id, part_id, above, below,
                         lag(above) OVER (PARTITION BY doc_id, part_id
                                          ORDER BY i) AS prev
                  FROM f)
            SELECT t.doc_id, t.part_id, t.n,
                   CAST(sum(CASE WHEN l.above THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_above,
                   CAST(sum(CASE WHEN l.below THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_below,
                   CAST(sum(CASE WHEN l.prev IS NOT NULL
                                  AND l.above <> l.prev
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_cross
            FROM l JOIN tot t USING (doc_id, part_id)
            GROUP BY t.doc_id, t.part_id, t.n
        """,
        # A74: chunk = (i*4)//n; exact v*v sums; smallest-index argmax
        "a74_energy_chunks": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            tot AS MATERIALIZED (
                SELECT doc_id, part_id, CAST(count(*) AS BIGINT) AS n
                FROM s GROUP BY doc_id, part_id),
            c AS (SELECT s.doc_id, s.part_id,
                         (s.i * 4) // t.n AS chunk, s.v
                  FROM s JOIN tot t USING (doc_id, part_id)),
            e AS (SELECT doc_id, part_id,
                    CAST(sum(CASE WHEN chunk = 0 THEN v*v ELSE 0 END)
                         AS BIGINT) AS e0,
                    CAST(sum(CASE WHEN chunk = 1 THEN v*v ELSE 0 END)
                         AS BIGINT) AS e1,
                    CAST(sum(CASE WHEN chunk = 2 THEN v*v ELSE 0 END)
                         AS BIGINT) AS e2,
                    CAST(sum(CASE WHEN chunk = 3 THEN v*v ELSE 0 END)
                         AS BIGINT) AS e3
                  FROM c GROUP BY doc_id, part_id)
            SELECT t.doc_id, t.part_id, t.n, e.e0, e.e1, e.e2, e.e3,
                   e.e0 + e.e1 + e.e2 + e.e3 AS e_total,
                   CAST(CASE WHEN e.e0 >= e.e1 AND e.e0 >= e.e2
                                  AND e.e0 >= e.e3 THEN 0
                             WHEN e.e1 >= e.e2 AND e.e1 >= e.e3 THEN 1
                             WHEN e.e2 >= e.e3 THEN 2
                             ELSE 3 END AS BIGINT) AS peak_chunk
            FROM tot t JOIN e USING (doc_id, part_id)
        """,
        # A76: per-series max/min then conditional min/max of position
        "a76_extremum_location": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            a AS MATERIALIZED (
                SELECT doc_id, part_id, CAST(count(*) AS BIGINT) AS n,
                       CAST(max(v) AS BIGINT) AS v_max,
                       CAST(min(v) AS BIGINT) AS v_min
                FROM s GROUP BY doc_id, part_id)
            SELECT a.doc_id, a.part_id, a.n, a.v_max, a.v_min,
                   CAST(min(CASE WHEN s.v = a.v_max THEN s.i END)
                        AS BIGINT) AS first_max_pos,
                   CAST(max(CASE WHEN s.v = a.v_max THEN s.i END)
                        AS BIGINT) AS last_max_pos,
                   CAST(min(CASE WHEN s.v = a.v_min THEN s.i END)
                        AS BIGINT) AS first_min_pos,
                   CAST(max(CASE WHEN s.v = a.v_min THEN s.i END)
                        AS BIGINT) AS last_min_pos
            FROM s JOIN a USING (doc_id, part_id)
            GROUP BY a.doc_id, a.part_id, a.n, a.v_max, a.v_min
        """,
        # A79: one (doc, part, value) group-by then threshold sums
        "a79_reoccurring": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       CAST(v AS BIGINT) AS v FROM tok),
            g AS MATERIALIZED (
                SELECT doc_id, part_id, v,
                       CAST(count(*) AS BIGINT) AS c
                FROM s GROUP BY doc_id, part_id, v),
            tot AS (SELECT doc_id, part_id,
                           CAST(sum(c) AS BIGINT) AS n
                    FROM g GROUP BY doc_id, part_id)
            SELECT t.doc_id, t.part_id, t.n,
                   CAST(count(*) AS BIGINT) AS n_distinct,
                   CAST(sum(CASE WHEN g.c >= 2 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_reocc_vals,
                   CAST(sum(CASE WHEN g.c >= 2 THEN g.c ELSE 0 END)
                        AS BIGINT) AS n_reocc_pts,
                   CAST(sum(CASE WHEN g.c >= 2 THEN g.v ELSE 0 END)
                        AS BIGINT) AS sum_reocc_vals,
                   CAST(sum(CASE WHEN g.c >= 2 THEN g.v * g.c
                            ELSE 0 END) AS BIGINT) AS sum_reocc_pts
            FROM g JOIN tot t USING (doc_id, part_id)
            GROUP BY t.doc_id, t.part_id, t.n
        """,
        # A82: 4x-scaled inclusive window cumsum vs q4*total compares
        "a82_index_mass_quantile": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            c AS MATERIALIZED (
                SELECT doc_id, part_id, i,
                       CAST(sum(v) OVER (PARTITION BY doc_id, part_id
                                         ORDER BY i) AS BIGINT) * 4
                           AS c4
                FROM s),
            tot AS (SELECT doc_id, part_id,
                           CAST(count(*) AS BIGINT) AS n,
                           CAST(sum(v) AS BIGINT) AS total
                    FROM s GROUP BY doc_id, part_id)
            SELECT t.doc_id, t.part_id, t.n, t.total,
                   CAST(min(CASE WHEN c.c4 >= 1 * t.total THEN c.i END)
                        AS BIGINT) AS imq_25,
                   CAST(min(CASE WHEN c.c4 >= 2 * t.total THEN c.i END)
                        AS BIGINT) AS imq_50,
                   CAST(min(CASE WHEN c.c4 >= 3 * t.total THEN c.i END)
                        AS BIGINT) AS imq_75
            FROM c JOIN tot t USING (doc_id, part_id)
            GROUP BY t.doc_id, t.part_id, t.n, t.total
        """,
        # A80: HUGEINT d^2 vs r^2*(nQ - S^2) per element (the kernel's
        # isqrt threshold is the same predicate)
        "a80_beyond_sigma": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       CAST(v AS BIGINT) AS v FROM tok),
            tot AS MATERIALIZED (
                SELECT doc_id, part_id, CAST(count(*) AS BIGINT) AS n,
                       CAST(sum(v) AS BIGINT) AS s_sum,
                       CAST(sum(v * v) AS BIGINT) AS q
                FROM s GROUP BY doc_id, part_id),
            m AS (SELECT doc_id, part_id, n, s_sum,
                         CAST(n AS HUGEINT) * q
                             - CAST(s_sum AS HUGEINT) * s_sum AS y
                  FROM tot)
            SELECT m.doc_id, m.part_id, m.n,
                   CAST(sum(CASE WHEN CAST(s.v * m.n - m.s_sum
                                       AS HUGEINT)
                                      * (s.v * m.n - m.s_sum) > m.y
                            THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_beyond_1s,
                   CAST(sum(CASE WHEN CAST(s.v * m.n - m.s_sum
                                       AS HUGEINT)
                                      * (s.v * m.n - m.s_sum)
                                      > 4 * m.y
                            THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_beyond_2s
            FROM s JOIN m USING (doc_id, part_id)
            GROUP BY m.doc_id, m.part_id, m.n
        """,
        # A84: lag diffs; sums exact, one division
        "a84_abs_change": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            tot AS (SELECT doc_id, part_id,
                           CAST(count(*) AS BIGINT) AS n
                    FROM s GROUP BY doc_id, part_id),
            d AS (SELECT doc_id, part_id,
                         abs(v - lag(v) OVER (PARTITION BY doc_id,
                                              part_id ORDER BY i))
                             AS ad
                  FROM s),
            a AS (SELECT doc_id, part_id,
                         CAST(sum(ad) AS BIGINT) AS s_abs,
                         CAST(max(ad) AS BIGINT) AS mx_abs
                  FROM d WHERE ad IS NOT NULL
                  GROUP BY doc_id, part_id)
            SELECT t.doc_id, t.part_id, t.n,
                   COALESCE(a.s_abs, 0) AS sum_abs_change,
                   COALESCE(a.mx_abs, 0) AS max_abs_change,
                   CASE WHEN t.n >= 2 THEN
                       CAST(COALESCE(a.s_abs, 0) AS DOUBLE)
                       / CAST(t.n - 1 AS DOUBLE)
                   END AS mean_abs_change
            FROM tot t LEFT JOIN a USING (doc_id, part_id)
        """,
        # A85: gaps-and-islands (i - row_number) run grouping, both
        # directions
        "a85_monotone_runs": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            tot AS (SELECT doc_id, part_id,
                           CAST(count(*) AS BIGINT) AS n
                    FROM s GROUP BY doc_id, part_id),
            dd AS MATERIALIZED (
                SELECT doc_id, part_id, i,
                       v - lag(v) OVER (PARTITION BY doc_id, part_id
                                        ORDER BY i) AS dv
                FROM s),
            ga AS (SELECT doc_id, part_id,
                          i - row_number() OVER (PARTITION BY doc_id,
                                                 part_id ORDER BY i)
                              AS grp
                   FROM dd WHERE dv > 0),
            ra AS (SELECT doc_id, part_id,
                          CAST(count(*) AS BIGINT) AS rl
                   FROM ga GROUP BY doc_id, part_id, grp),
            ma AS (SELECT doc_id, part_id, max(rl) AS longest_asc
                   FROM ra GROUP BY doc_id, part_id),
            gd AS (SELECT doc_id, part_id,
                          i - row_number() OVER (PARTITION BY doc_id,
                                                 part_id ORDER BY i)
                              AS grp
                   FROM dd WHERE dv < 0),
            rd AS (SELECT doc_id, part_id,
                          CAST(count(*) AS BIGINT) AS rl
                   FROM gd GROUP BY doc_id, part_id, grp),
            md AS (SELECT doc_id, part_id, max(rl) AS longest_desc
                   FROM rd GROUP BY doc_id, part_id)
            SELECT t.doc_id, t.part_id, t.n,
                   COALESCE(ma.longest_asc, 0) AS longest_asc,
                   COALESCE(md.longest_desc, 0) AS longest_desc
            FROM tot t
            LEFT JOIN ma USING (doc_id, part_id)
            LEFT JOIN md USING (doc_id, part_id)
        """,
        # A86: lower median via the rn = (n+1)//2 order statistic;
        # both sides exact ints
        "a86_symmetry": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            tot AS MATERIALIZED (
                SELECT doc_id, part_id, CAST(count(*) AS BIGINT) AS n,
                       CAST(sum(v) AS BIGINT) AS s_sum,
                       CAST(max(v) AS BIGINT) AS vmax,
                       CAST(min(v) AS BIGINT) AS vmin
                FROM s GROUP BY doc_id, part_id),
            r AS (SELECT doc_id, part_id, v,
                         row_number() OVER (PARTITION BY doc_id,
                                            part_id ORDER BY v, i)
                             AS rn
                  FROM s),
            med AS (SELECT r.doc_id, r.part_id,
                           CAST(min(r.v) AS BIGINT) AS med
                    FROM r JOIN tot t USING (doc_id, part_id)
                    WHERE r.rn = (t.n + 1) // 2
                    GROUP BY r.doc_id, r.part_id)
            SELECT t.doc_id, t.part_id, t.n, m.med AS median,
                   20 * abs(t.s_sum - t.n * m.med) AS asym_lhs,
                   t.n * (t.vmax - t.vmin) AS asym_rhs,
                   (20 * abs(t.s_sum - t.n * m.med)
                    > t.n * (t.vmax - t.vmin)) AS is_asymmetric
            FROM tot t JOIN med m USING (doc_id, part_id)
        """,
        # G44: (day, type) counts -> exact Simpson numerator/denominator
        "g44_simpson_day": """
            WITH c AS (SELECT CAST(epoch_us(ts) // 86400000000
                              AS BIGINT) AS day, event_type,
                              CAST(count(*) AS BIGINT) AS c
                       FROM events GROUP BY day, event_type),
            a AS (SELECT day, CAST(sum(c) AS BIGINT) AS n,
                         CAST(sum(c * (c - 1)) AS BIGINT) AS num
                  FROM c GROUP BY day)
            SELECT day, n, num AS simpson_num,
                   n * (n - 1) AS simpson_den,
                   CASE WHEN n >= 2 THEN
                       CAST(num AS DOUBLE)
                       / CAST(n * (n - 1) AS DOUBLE)
                   END AS p_same_type
            FROM a
        """,
        # A83: G15's pinned fold (ascending-bin p*ln(p) list, left fold
        # from 0.0, negated) over the fixed // 5026 grid
        "a83_binned_entropy": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       CAST(v AS BIGINT) // 5026 AS bin FROM tok),
            c AS MATERIALIZED (
                SELECT doc_id, part_id, bin,
                       CAST(count(*) AS BIGINT) AS c
                FROM s GROUP BY doc_id, part_id, bin),
            t AS (SELECT doc_id, part_id, CAST(sum(c) AS BIGINT) AS n,
                         CAST(count(*) AS BIGINT) AS n_bins_used
                  FROM c GROUP BY doc_id, part_id),
            f AS (SELECT c.doc_id, c.part_id, any_value(t.n) AS n,
                         any_value(t.n_bins_used) AS n_bins_used,
                         list(CAST(c.c AS DOUBLE) / CAST(t.n AS DOUBLE)
                              * ln(CAST(c.c AS DOUBLE)
                                   / CAST(t.n AS DOUBLE))
                              ORDER BY c.bin) AS xs
                  FROM c JOIN t USING (doc_id, part_id)
                  GROUP BY c.doc_id, c.part_id)
            SELECT doc_id, part_id, n, n_bins_used,
                   -list_reduce(list_prepend(0.0, xs),
                                (a, b) -> a + b) AS entropy
            FROM f
        """,
        # W55: row_number in the per-user window; rn=1 and rn=5 gather
        "w55_time_to_kth": """
            WITH r AS (SELECT user_id,
                              epoch_us(ts) AS us,
                              row_number() OVER (PARTITION BY user_id
                                                 ORDER BY ts, event_id)
                                  AS rn
                       FROM events),
            t AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n_events,
                         CAST(min(CASE WHEN rn = 1 THEN us END)
                              AS BIGINT) AS us1,
                         CAST(min(CASE WHEN rn = 5 THEN us END)
                              AS BIGINT) AS us5
                  FROM r GROUP BY user_id)
            SELECT user_id, n_events,
                   CASE WHEN n_events >= 5 THEN (us5 - us1) // 1000000
                   END AS latency_s
            FROM t
        """,
        # T23: CASE priority over anchored RE2-compatible classes
        "t23_word_shapes": """
            WITH w AS (SELECT source,
                              unnest(string_split(text, ' ')) AS word
                       FROM documents),
            k AS (SELECT source,
                         CASE WHEN regexp_matches(word, '^[0-9]+$')
                                  THEN 'num'
                              WHEN regexp_matches(word, '^[A-Z][A-Z]+$')
                                  THEN 'caps'
                              WHEN regexp_matches(word, '^[A-Z][a-z]*$')
                                  THEN 'title'
                              WHEN regexp_matches(word, '^[a-z]+$')
                                  THEN 'lower'
                              ELSE 'other' END AS shape
                  FROM w WHERE word <> '')
            SELECT source, shape, CAST(count(*) AS BIGINT) AS n_words
            FROM k GROUP BY source, shape
        """,
        # V25: V24's frequency relation, thresholded
        "v25_hapax_sichel": """
            WITH c AS (SELECT source, word,
                              CAST(count(*) AS BIGINT) AS f
                       FROM (SELECT source,
                                    unnest(string_split(text, ' '))
                                        AS word
                             FROM documents)
                       WHERE word <> '' GROUP BY source, word),
            a AS (SELECT source, CAST(sum(f) AS BIGINT) AS n_tokens,
                         CAST(count(*) AS BIGINT) AS n_types,
                         CAST(sum(CASE WHEN f = 1 THEN 1 ELSE 0 END)
                              AS BIGINT) AS v1,
                         CAST(sum(CASE WHEN f = 2 THEN 1 ELSE 0 END)
                              AS BIGINT) AS v2
                  FROM c GROUP BY source)
            SELECT source, n_tokens, n_types, v1, v2,
                   CAST(v1 AS DOUBLE) / CAST(n_types AS DOUBLE)
                       AS hapax_share,
                   CAST(v2 AS DOUBLE) / CAST(n_types AS DOUBLE)
                       AS sichel_s
            FROM a
        """,
        # G45: per-type day counts; lower-median via order statistic
        "g45_peak_to_median": """
            WITH c AS (SELECT event_type,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day,
                              CAST(count(*) AS BIGINT) AS c
                       FROM events GROUP BY event_type, day),
            t AS (SELECT event_type,
                         CAST(count(*) AS BIGINT) AS n_days,
                         CAST(max(c) AS BIGINT) AS peak_daily
                  FROM c GROUP BY event_type),
            r AS (SELECT event_type, c,
                         row_number() OVER (PARTITION BY event_type
                                            ORDER BY c, day) AS rn
                  FROM c),
            m AS (SELECT r.event_type,
                         CAST(min(r.c) AS BIGINT) AS median_daily
                  FROM r JOIN t USING (event_type)
                  WHERE r.rn = (t.n_days + 1) // 2
                  GROUP BY r.event_type)
            SELECT t.event_type, t.n_days, t.peak_daily,
                   m.median_daily,
                   CAST(t.peak_daily AS DOUBLE)
                       / CAST(m.median_daily AS DOUBLE)
                       AS peak_to_median
            FROM t JOIN m USING (event_type)
        """,
        # A87: two leads, HUGEINT triple-product sum, hi/lo emit +
        # the split-double / (n-2) mean
        "a87_c3": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            tot AS (SELECT doc_id, part_id,
                           CAST(count(*) AS BIGINT) AS n
                    FROM s GROUP BY doc_id, part_id),
            tr AS (SELECT doc_id, part_id,
                          CAST(v AS HUGEINT)
                          * lead(v, 1) OVER w * lead(v, 2) OVER w AS p
                   FROM s
                   WINDOW w AS (PARTITION BY doc_id, part_id
                                ORDER BY i)),
            a AS (SELECT doc_id, part_id,
                         CAST(sum(p) AS HUGEINT) AS tot3
                  FROM tr WHERE p IS NOT NULL
                  GROUP BY doc_id, part_id)
            SELECT t.doc_id, t.part_id, t.n,
                   CASE WHEN t.n >= 3 THEN
                       CAST(a.tot3 // 4294967296 AS BIGINT)
                   END AS c3_hi,
                   CASE WHEN t.n >= 3 THEN
                       CAST(a.tot3 % 4294967296 AS BIGINT)
                   END AS c3_lo,
                   CASE WHEN t.n >= 3 THEN
                       (CAST(a.tot3 // 4294967296 AS DOUBLE)
                        * 4294967296.0
                        + CAST(a.tot3 % 4294967296 AS DOUBLE))
                       / CAST(t.n - 2 AS DOUBLE)
                   END AS c3
            FROM tot t LEFT JOIN a USING (doc_id, part_id)
        """,
        # A88: exact lower quartiles via rn = ceil(q4*n/4) order
        # statistics; one pinned division (token magnitudes << 2^53,
        # so CAST equals the kernel's split-double exactly)
        "a88_bowley_skew": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            tot AS MATERIALIZED (
                SELECT doc_id, part_id, CAST(count(*) AS BIGINT) AS n
                FROM s GROUP BY doc_id, part_id),
            r AS (SELECT doc_id, part_id, v,
                         row_number() OVER (PARTITION BY doc_id,
                                            part_id ORDER BY v, i)
                             AS rn
                  FROM s),
            q AS (SELECT r.doc_id, r.part_id,
                         CAST(min(CASE WHEN r.rn = (1 * t.n + 3) // 4
                                  THEN r.v END) AS BIGINT) AS q1,
                         CAST(min(CASE WHEN r.rn = (2 * t.n + 3) // 4
                                  THEN r.v END) AS BIGINT) AS q2,
                         CAST(min(CASE WHEN r.rn = (3 * t.n + 3) // 4
                                  THEN r.v END) AS BIGINT) AS q3
                  FROM r JOIN tot t USING (doc_id, part_id)
                  GROUP BY r.doc_id, r.part_id)
            SELECT t.doc_id, t.part_id, t.n, q.q1, q.q2, q.q3,
                   CASE WHEN q.q3 > q.q1 THEN
                       CAST(q.q1 + q.q3 - 2 * q.q2 AS DOUBLE)
                       / CAST(q.q3 - q.q1 AS DOUBLE)
                   END AS bowley_skew
            FROM tot t LEFT JOIN q USING (doc_id, part_id)
        """,
        # A93: final element by max position, exact strict/weak counts,
        # one pinned n_leq/n division
        "a93_last_value_rank": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            tot AS MATERIALIZED (
                SELECT doc_id, part_id, CAST(count(*) AS BIGINT) AS n,
                       CAST(max(i) AS BIGINT) AS imax
                FROM s GROUP BY doc_id, part_id),
            l AS MATERIALIZED (
                SELECT s.doc_id, s.part_id, s.v AS last_value
                FROM s JOIN tot t
                ON s.doc_id = t.doc_id AND s.part_id = t.part_id
                   AND s.i = t.imax),
            c AS (SELECT s.doc_id, s.part_id,
                         CAST(sum(CASE WHEN s.v < l.last_value
                                  THEN 1 ELSE 0 END) AS BIGINT) AS n_less,
                         CAST(sum(CASE WHEN s.v <= l.last_value
                                  THEN 1 ELSE 0 END) AS BIGINT) AS n_leq
                  FROM s JOIN l USING (doc_id, part_id)
                  GROUP BY s.doc_id, s.part_id)
            SELECT t.doc_id, t.part_id, t.n, l.last_value,
                   c.n_less, c.n_leq,
                   CAST(c.n_leq AS DOUBLE) / CAST(t.n AS DOUBLE)
                       AS pct_rank
            FROM tot t JOIN l USING (doc_id, part_id)
            JOIN c USING (doc_id, part_id)
        """,
        # A89: signed HUGEINT triple-term sum shipped as sign +
        # abs-value 2^32 hi/lo split; one pinned division
        "a89_time_reversal": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            tot AS (SELECT doc_id, part_id,
                           CAST(count(*) AS BIGINT) AS n
                    FROM s GROUP BY doc_id, part_id),
            tr AS (SELECT doc_id, part_id,
                          CAST(lead(v, 2) OVER w AS HUGEINT)
                              * lead(v, 2) OVER w * lead(v, 1) OVER w
                          - CAST(lead(v, 1) OVER w AS HUGEINT) * v * v
                              AS d
                   FROM s
                   WINDOW w AS (PARTITION BY doc_id, part_id
                                ORDER BY i)),
            a AS (SELECT doc_id, part_id,
                         CAST(sum(d) AS HUGEINT) AS t
                  FROM tr WHERE d IS NOT NULL
                  GROUP BY doc_id, part_id)
            SELECT t.doc_id, t.part_id, t.n,
                   CASE WHEN t.n >= 3 THEN
                       CASE WHEN a.t > 0 THEN 1
                            WHEN a.t < 0 THEN -1 ELSE 0 END
                   END AS trev_sign,
                   CASE WHEN t.n >= 3 THEN
                       CAST(abs(a.t) // 4294967296 AS BIGINT)
                   END AS trev_hi,
                   CASE WHEN t.n >= 3 THEN
                       CAST(abs(a.t) % 4294967296 AS BIGINT)
                   END AS trev_lo,
                   CASE WHEN t.n >= 3 THEN
                       (CASE WHEN a.t >= 0 THEN 1.0 ELSE -1.0 END)
                       * (CAST(abs(a.t) // 4294967296 AS DOUBLE)
                          * 4294967296.0
                          + CAST(abs(a.t) % 4294967296 AS DOUBLE))
                       / CAST(t.n - 2 AS DOUBLE)
                   END AS trev
            FROM tot t LEFT JOIN a USING (doc_id, part_id)
        """,
        # A90: exact BIGINT sum of squared diffs (< 2^53 at the part
        # cap); ONE libm sqrt of the pinned split-double
        "a90_cid_ce": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            tot AS (SELECT doc_id, part_id,
                           CAST(count(*) AS BIGINT) AS n
                    FROM s GROUP BY doc_id, part_id),
            tr AS (SELECT doc_id, part_id,
                          lead(v, 1) OVER w - v AS d
                   FROM s
                   WINDOW w AS (PARTITION BY doc_id, part_id
                                ORDER BY i)),
            a AS (SELECT doc_id, part_id,
                         CAST(sum(CAST(d AS HUGEINT) * d) AS BIGINT)
                             AS ss
                  FROM tr WHERE d IS NOT NULL
                  GROUP BY doc_id, part_id)
            SELECT t.doc_id, t.part_id, t.n,
                   CASE WHEN t.n >= 2 THEN a.ss END AS ss_diff,
                   CASE WHEN t.n >= 2 THEN
                       sqrt(CAST(a.ss // 4294967296 AS DOUBLE)
                            * 4294967296.0
                            + CAST(a.ss % 4294967296 AS DOUBLE))
                   END AS cid_ce
            FROM tot t LEFT JOIN a USING (doc_id, part_id)
        """,
        # A91: telescoped boundary gather (additive CASE terms so the
        # n=3 overlap at i=1 counts twice); one pinned division
        "a91_second_derivative": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            tot AS MATERIALIZED (
                SELECT doc_id, part_id, CAST(count(*) AS BIGINT) AS n
                FROM s GROUP BY doc_id, part_id),
            b AS (SELECT s.doc_id, s.part_id,
                         CAST(sum(
                             (CASE WHEN s.i = t.n - 1 THEN s.v
                              ELSE 0 END)
                             + (CASE WHEN s.i = t.n - 2 THEN -s.v
                                ELSE 0 END)
                             + (CASE WHEN s.i = 1 THEN -s.v ELSE 0 END)
                             + (CASE WHEN s.i = 0 THEN s.v ELSE 0 END))
                              AS BIGINT) AS num
                  FROM s JOIN tot t USING (doc_id, part_id)
                  WHERE t.n >= 3
                  GROUP BY s.doc_id, s.part_id)
            SELECT t.doc_id, t.part_id, t.n, b.num AS d2_num,
                   CASE WHEN t.n >= 3 THEN
                       CAST(b.num AS DOUBLE)
                       / CAST(2 * (t.n - 2) AS DOUBLE)
                   END AS msdc
            FROM tot t LEFT JOIN b USING (doc_id, part_id)
        """,
        # A94: strict-inequality peak counts via materialized lag/lead
        # neighbors; exact int sums (0, never NULL, for short series)
        "a94_peaks": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            tot AS (SELECT doc_id, part_id,
                           CAST(count(*) AS BIGINT) AS n
                    FROM s GROUP BY doc_id, part_id),
            tr AS (SELECT doc_id, part_id, v,
                          lag(v, 1) OVER w AS l1, lag(v, 2) OVER w AS l2,
                          lead(v, 1) OVER w AS r1,
                          lead(v, 2) OVER w AS r2
                   FROM s
                   WINDOW w AS (PARTITION BY doc_id, part_id
                                ORDER BY i)),
            p AS (SELECT doc_id, part_id,
                         CAST(sum(CASE WHEN l1 IS NOT NULL
                                        AND r1 IS NOT NULL
                                        AND v > l1 AND v > r1
                                  THEN 1 ELSE 0 END) AS BIGINT)
                             AS n_peaks1,
                         CAST(sum(CASE WHEN l2 IS NOT NULL
                                        AND r2 IS NOT NULL
                                        AND v > l1 AND v > l2
                                        AND v > r1 AND v > r2
                                  THEN 1 ELSE 0 END) AS BIGINT)
                             AS n_peaks2
                  FROM tr GROUP BY doc_id, part_id)
            SELECT t.doc_id, t.part_id, t.n, p.n_peaks1, p.n_peaks2
            FROM tot t JOIN p USING (doc_id, part_id)
        """,
        # Q29: exact cent/percent quantization makes revenue*10^4 an
        # int64 sum; split-double / 1e4 is the one float op; ties
        # (rev DESC, date ASC, orderkey ASC)
        "q29_shipping_priority": """
            WITH j AS (
                SELECT l.l_orderkey, o.o_orderdate,
                       CAST(sum(CAST(floor(l.l_extendedprice * 100
                                           + 0.5) AS BIGINT)
                                * (100 - CAST(floor(l.l_discount * 100
                                               + 0.5) AS BIGINT)))
                            AS BIGINT) AS rev
                FROM lineitem l
                JOIN orders o ON l.l_orderkey = o.o_orderkey
                JOIN customer c ON o.o_custkey = c.c_custkey
                WHERE c.c_mktsegment = 'BUILDING'
                  AND o.o_orderdate < TIMESTAMP '1998-06-01'
                  AND l.l_shipdate > TIMESTAMP '1998-06-01'
                GROUP BY l.l_orderkey, o.o_orderdate)
            SELECT l_orderkey, o_orderdate, rev AS rev_x10k,
                   (CAST(rev // 4294967296 AS DOUBLE) * 4294967296.0
                    + CAST(rev % 4294967296 AS DOUBLE)) / 10000.0
                       AS revenue
            FROM j
            ORDER BY rev_x10k DESC, o_orderdate, l_orderkey
            LIMIT 10
        """,
        # W57: G31's zero-fill identities; mu/sigma/B each ONE pinned
        # IEEE op on the exact int moments
        "w57_burstiness": """
            WITH c AS (SELECT event_type,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY event_type, day),
            g AS (SELECT CAST(max(day) - min(day) + 1 AS BIGINT) AS nd
                  FROM c),
            a AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS t,
                         CAST(sum(n * n) AS BIGINT) AS q
                  FROM c GROUP BY event_type)
            SELECT a.event_type, g.nd AS n_days, a.t AS total,
                   g.nd * a.q - a.t * a.t AS var_num,
                   CASE WHEN a.t > 0 THEN
                       (sqrt(CAST((g.nd * a.q - a.t * a.t)
                                  // 4294967296 AS DOUBLE)
                             * 4294967296.0
                             + CAST((g.nd * a.q - a.t * a.t)
                                    % 4294967296 AS DOUBLE))
                        / CAST(g.nd AS DOUBLE)
                        - CAST(a.t AS DOUBLE) / CAST(g.nd AS DOUBLE))
                       / (sqrt(CAST((g.nd * a.q - a.t * a.t)
                                    // 4294967296 AS DOUBLE)
                               * 4294967296.0
                               + CAST((g.nd * a.q - a.t * a.t)
                                      % 4294967296 AS DOUBLE))
                          / CAST(g.nd AS DOUBLE)
                          + CAST(a.t AS DOUBLE) / CAST(g.nd AS DOUBLE))
                   END AS burstiness
            FROM a CROSS JOIN g
        """,
        # G47: x4-scaled integer Tukey fences — not a single float
        "g47_outlier_days": """
            WITH c AS (SELECT event_type,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY event_type, day),
            m AS (SELECT event_type, CAST(count(*) AS BIGINT) AS m
                  FROM c GROUP BY event_type),
            r AS (SELECT event_type, n,
                         row_number() OVER (PARTITION BY event_type
                                            ORDER BY n, day) AS rn
                  FROM c),
            q AS (SELECT r.event_type,
                         CAST(min(CASE WHEN r.rn = (1 * m.m + 3) // 4
                                  THEN r.n END) AS BIGINT) AS q1,
                         CAST(min(CASE WHEN r.rn = (3 * m.m + 3) // 4
                                  THEN r.n END) AS BIGINT) AS q3
                  FROM r JOIN m USING (event_type)
                  GROUP BY r.event_type),
            o AS (SELECT c.event_type,
                         CAST(sum(CASE WHEN 4 * c.n <
                                       4 * q.q1 - 6 * (q.q3 - q.q1)
                                  THEN 1 ELSE 0 END) AS BIGINT)
                             AS n_low_days,
                         CAST(sum(CASE WHEN 4 * c.n >
                                       4 * q.q3 + 6 * (q.q3 - q.q1)
                                  THEN 1 ELSE 0 END) AS BIGINT)
                             AS n_high_days
                  FROM c JOIN q USING (event_type)
                  GROUP BY c.event_type)
            SELECT m.event_type, m.m AS n_days_observed,
                   q.q1 AS q1_daily, q.q3 AS q3_daily,
                   o.n_low_days, o.n_high_days
            FROM m JOIN q USING (event_type) JOIN o USING (event_type)
        """,
        # W58: distinct (user, day) -> first day -> distinct
        # (cohort, offset) per user; exact counts
        "w58_retention_cohorts": """
            WITH d AS (SELECT DISTINCT user_id,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day
                       FROM events),
            f AS (SELECT user_id, CAST(min(day) AS BIGINT) AS fd
                  FROM d GROUP BY user_id),
            p AS (SELECT DISTINCT d.user_id,
                         CAST(f.fd // 7 AS BIGINT) AS cohort_week,
                         CAST((d.day - f.fd) // 7 AS BIGINT)
                             AS offset_week
                  FROM d JOIN f USING (user_id))
            SELECT cohort_week, offset_week,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM p GROUP BY cohort_week, offset_week
        """,
        # Q30: Q29's quantization over the 6-table star; rev per nation
        "q30_local_supplier_volume": """
            WITH j AS (
                SELECT c.c_nationkey AS nationkey,
                       CAST(sum(CAST(floor(l.l_extendedprice * 100
                                           + 0.5) AS BIGINT)
                                * (100 - CAST(floor(l.l_discount * 100
                                               + 0.5) AS BIGINT)))
                            AS BIGINT) AS rev
                FROM lineitem l
                JOIN orders o ON l.l_orderkey = o.o_orderkey
                JOIN customer c ON o.o_custkey = c.c_custkey
                JOIN supplier s ON l.l_suppkey = s.s_suppkey
                JOIN nation n ON c.c_nationkey = n.n_nationkey
                JOIN region r ON n.n_regionkey = r.r_regionkey
                WHERE r.r_name = 'ASIA'
                  AND c.c_nationkey = s.s_nationkey
                  AND o.o_orderdate >= TIMESTAMP '1996-01-01'
                  AND o.o_orderdate < TIMESTAMP '1997-01-01'
                GROUP BY c.c_nationkey)
            SELECT n.n_name, j.rev AS rev_x10k,
                   (CAST(j.rev // 4294967296 AS DOUBLE) * 4294967296.0
                    + CAST(j.rev % 4294967296 AS DOUBLE)) / 10000.0
                       AS revenue
            FROM j JOIN nation n ON j.nationkey = n.n_nationkey
        """,
        # A95/A96: per-residue exact counts + pinned trig folds
        "a95_weekly_spectrum": _spectral_sql(7, 86_400_000_000,
                                             "power7"),
        "a96_diurnal_spectrum": _spectral_sql(24, 3_600_000_000,
                                              "power24"),
        # W59: trailing-7-day DISTINCT via BETWEEN join (the engine's
        # interval-union deltas compute the same counts); grid from
        # the active-day span; one pinned division
        "w59_stickiness": """
            WITH d AS (SELECT DISTINCT user_id,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day
                       FROM events),
            g AS (SELECT CAST(min(day) AS BIGINT) AS lo,
                         CAST(max(day) AS BIGINT) AS hi
                  FROM d),
            grid AS (SELECT CAST(unnest(range(g.lo, g.hi + 1))
                                 AS BIGINT) AS day
                     FROM g),
            dau AS (SELECT day, CAST(count(*) AS BIGINT) AS dau
                    FROM d GROUP BY day),
            wau AS (SELECT grid.day,
                           CAST(count(DISTINCT d.user_id) AS BIGINT)
                               AS wau
                    FROM grid JOIN d
                    ON d.day BETWEEN grid.day - 6 AND grid.day
                    GROUP BY grid.day)
            SELECT grid.day, COALESCE(dau.dau, 0) AS dau,
                   COALESCE(wau.wau, 0) AS wau,
                   CASE WHEN COALESCE(wau.wau, 0) > 0 THEN
                       CAST(COALESCE(dau.dau, 0) AS DOUBLE)
                       / CAST(wau.wau AS DOUBLE)
                   END AS stickiness
            FROM grid LEFT JOIN dau USING (day)
            LEFT JOIN wau USING (day)
        """,
        # K26: exact HUGEINT norm sums shipped hi/lo; pinned
        # split/n -> sqrt -> /2^20 tail
        "k26_label_norms": """
            WITH qe AS (SELECT label,
                               list_transform(
                                   CAST(embedding AS DOUBLE[]),
                                   x -> CAST(floor(x * 1048576.0
                                                   + 0.5) AS BIGINT))
                                   AS q
                        FROM embeddings),
            n2 AS (SELECT label,
                          CAST(list_reduce(list_transform(q,
                              v -> CAST(v * v AS HUGEINT)),
                              (a, b) -> a + b) AS HUGEINT) AS norm2
                   FROM qe),
            a AS (SELECT CAST(label AS BIGINT) AS label,
                         CAST(count(*) AS BIGINT) AS n_vecs,
                         CAST(min(norm2) AS BIGINT) AS min_norm2_q,
                         CAST(max(norm2) AS BIGINT) AS max_norm2_q,
                         CAST(sum(norm2) AS HUGEINT) AS tot
                  FROM n2 GROUP BY label)
            SELECT label, n_vecs, min_norm2_q, max_norm2_q,
                   CAST(tot // 4294967296 AS BIGINT) AS sum_norm2_hi,
                   CAST(tot % 4294967296 AS BIGINT) AS sum_norm2_lo,
                   sqrt((CAST(tot // 4294967296 AS DOUBLE)
                         * 4294967296.0
                         + CAST(tot % 4294967296 AS DOUBLE))
                        / CAST(n_vecs AS DOUBLE)) / 1048576.0
                       AS rms_norm
            FROM a
        """,
        # W61: W48's trigram counts; per-pair pinned ascending-t3
        # entropy fold
        "w61_second_order_entropy": """
            WITH s AS (SELECT user_id, event_type,
                              row_number() OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS rn
                       FROM events),
            tri AS (SELECT a.event_type AS t1, b.event_type AS t2,
                           c.event_type AS t3,
                           CAST(count(*) AS BIGINT) AS n
                    FROM s a
                    JOIN s b ON b.user_id = a.user_id
                            AND b.rn = a.rn + 1
                    JOIN s c ON c.user_id = a.user_id
                            AND c.rn = a.rn + 2
                    GROUP BY t1, t2, t3),
            l AS (SELECT t1, t2, CAST(sum(n) AS BIGINT) AS tot,
                         CAST(count(*) AS BIGINT) AS k,
                         list(CAST(n AS DOUBLE) ORDER BY t3) AS nv
                  FROM tri GROUP BY t1, t2)
            SELECT t1, t2, tot AS n_trigrams, k AS n_distinct_next,
                   -list_reduce(list_prepend(0.0, list_transform(nv,
                       x -> (x / CAST(tot AS DOUBLE))
                            * ln(x / CAST(tot AS DOUBLE)))),
                       (a, b) -> a + b) AS h_next
            FROM l
        """,
        # G51: per-user first day vs active days; one pinned division
        "g51_new_vs_returning": """
            WITH d AS (SELECT DISTINCT user_id,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day
                       FROM events),
            f AS (SELECT user_id, CAST(min(day) AS BIGINT) AS fd
                  FROM d GROUP BY user_id),
            a AS (SELECT d.day,
                         CAST(count(*) AS BIGINT) AS n_active,
                         CAST(sum(CASE WHEN d.day = f.fd THEN 1
                                  ELSE 0 END) AS BIGINT) AS n_new
                  FROM d JOIN f USING (user_id) GROUP BY d.day)
            SELECT day, n_new, n_active - n_new AS n_returning,
                   n_active,
                   CAST(n_new AS DOUBLE) / CAST(n_active AS DOUBLE)
                       AS new_share
            FROM a
        """,
        # G52: additive cent histograms; ALL-integer output
        "g52_order_total_quartiles": """
            WITH h AS (SELECT o_orderpriority,
                              CAST(floor(o_totalprice * 100 + 0.5)
                                   AS BIGINT) AS v,
                              CAST(count(*) AS BIGINT) AS c
                       FROM orders GROUP BY o_orderpriority, v),
            w AS (SELECT o_orderpriority, v,
                         CAST(sum(c) OVER (PARTITION BY
                                           o_orderpriority
                                           ORDER BY v) AS BIGINT)
                             AS cum,
                         CAST(sum(c) OVER (PARTITION BY
                                           o_orderpriority)
                              AS BIGINT) AS n
                  FROM h)
            SELECT o_orderpriority, n AS n_orders,
                   CAST(min(CASE WHEN cum * 4 >= 1 * n THEN v END)
                        AS BIGINT) AS q1_cents,
                   CAST(min(CASE WHEN cum * 4 >= 2 * n THEN v END)
                        AS BIGINT) AS q2_cents,
                   CAST(min(CASE WHEN cum * 4 >= 3 * n THEN v END)
                        AS BIGINT) AS q3_cents,
                   CAST(min(CASE WHEN cum * 4 >= 3 * n THEN v END)
                        - min(CASE WHEN cum * 4 >= 1 * n THEN v END)
                        AS BIGINT) AS iqr_cents
            FROM w GROUP BY o_orderpriority, n
        """,
        # W63: zero-fill identities split by day residue class; the
        # pinned Welch chain (each step one IEEE op)
        "w63_weekend_effect": """
            WITH c AS (SELECT event_type,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day,
                              CAST(sum(CAST(floor(value * 100 + 0.5)
                                            AS BIGINT)) AS BIGINT) AS x
                       FROM events GROUP BY event_type, day),
            g AS (SELECT CAST(min(day) AS BIGINT) AS lo,
                         CAST(max(day) AS BIGINT) AS hi
                  FROM c),
            grid AS (SELECT CAST(unnest(range(g.lo, g.hi + 1))
                                 AS BIGINT) AS day
                     FROM g),
            nn AS (SELECT
                       CAST(sum(CASE WHEN day % 7 < 5 THEN 1 ELSE 0
                                END) AS BIGINT) AS n1,
                       CAST(sum(CASE WHEN day % 7 >= 5 THEN 1 ELSE 0
                                END) AS BIGINT) AS n2
                   FROM grid),
            a AS (SELECT event_type,
                         CAST(sum(CASE WHEN day % 7 < 5 THEN x
                                  ELSE 0 END) AS BIGINT) AS s1,
                         CAST(sum(CASE WHEN day % 7 < 5
                                  THEN CAST(x AS HUGEINT) * x
                                  ELSE 0 END) AS BIGINT) AS q1,
                         CAST(sum(CASE WHEN day % 7 >= 5 THEN x
                                  ELSE 0 END) AS BIGINT) AS s2,
                         CAST(sum(CASE WHEN day % 7 >= 5
                                  THEN CAST(x AS HUGEINT) * x
                                  ELSE 0 END) AS BIGINT) AS q2
                  FROM c GROUP BY event_type),
            f AS (SELECT a.event_type, nn.n1, nn.n2, a.s1, a.s2,
                         CAST(a.s1 AS DOUBLE) / CAST(nn.n1 AS DOUBLE)
                             AS m1,
                         CAST(a.s2 AS DOUBLE) / CAST(nn.n2 AS DOUBLE)
                             AS m2,
                         (CAST((nn.n1 * a.q1 - a.s1 * a.s1)
                               // 4294967296 AS DOUBLE) * 4294967296.0
                          + CAST((nn.n1 * a.q1 - a.s1 * a.s1)
                                 % 4294967296 AS DOUBLE))
                         / CAST(nn.n1 * (nn.n1 - 1) AS DOUBLE) AS v1,
                         (CAST((nn.n2 * a.q2 - a.s2 * a.s2)
                               // 4294967296 AS DOUBLE) * 4294967296.0
                          + CAST((nn.n2 * a.q2 - a.s2 * a.s2)
                                 % 4294967296 AS DOUBLE))
                         / CAST(nn.n2 * (nn.n2 - 1) AS DOUBLE) AS v2
                  FROM a CROSS JOIN nn)
            SELECT event_type, n1 AS n_wd, n2 AS n_we,
                   s1 AS s_wd, s2 AS s_we,
                   CASE WHEN n1 >= 2 AND n2 >= 2
                        AND sqrt(v1 / CAST(n1 AS DOUBLE)
                                 + v2 / CAST(n2 AS DOUBLE)) > 0.0
                   THEN (m1 - m2)
                        / sqrt(v1 / CAST(n1 AS DOUBLE)
                               + v2 / CAST(n2 AS DOUBLE))
                   END AS t_welch
            FROM f
        """,
        # G56: ranked window cumsum; per-row pinned divisions
        "g56_source_pareto": """
            WITH c AS (SELECT source,
                              CAST(count(*) AS BIGINT) AS n_docs
                       FROM documents GROUP BY source),
            r AS (SELECT source, n_docs,
                         CAST(row_number() OVER (ORDER BY n_docs DESC,
                                                 source) AS BIGINT)
                             AS rank,
                         CAST(sum(n_docs) OVER (ORDER BY n_docs DESC,
                                                source) AS BIGINT)
                             AS cum_docs,
                         CAST(sum(n_docs) OVER () AS BIGINT) AS total
                  FROM c)
            SELECT rank, source, n_docs, cum_docs,
                   CAST(n_docs AS DOUBLE) / CAST(total AS DOUBLE)
                       AS share,
                   CAST(cum_docs AS DOUBLE) / CAST(total AS DOUBLE)
                       AS cum_share
            FROM r
        """,
        # W65: distinct pairs + day+1 self join; one pinned division
        "w65_activity_persistence": """
            WITH d AS (SELECT DISTINCT user_id,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day
                       FROM events),
            g AS (SELECT CAST(max(day) AS BIGINT) AS hi FROM d),
            a AS (SELECT d.user_id, d.day,
                         (d2.user_id IS NOT NULL) AS f
                  FROM d CROSS JOIN g
                  LEFT JOIN d d2 ON d2.user_id = d.user_id
                                AND d2.day = d.day + 1
                  WHERE d.day < g.hi),
            s AS (SELECT CAST(count(*) AS BIGINT) AS n_candidates,
                         CAST(sum(CASE WHEN f THEN 1 ELSE 0 END)
                              AS BIGINT) AS n_followed
                  FROM a)
            SELECT n_candidates, n_followed,
                   CASE WHEN n_candidates > 0 THEN
                       CAST(n_followed AS DOUBLE)
                       / CAST(n_candidates AS DOUBLE)
                   END AS p_continue
            FROM s
        """,
        # X15: V1's split convention, prefix filter, top-k + census
        # summary row (word = '', n_distinct carries the census)
        "x15_prefix_search": """
            WITH w AS (SELECT unnest(string_split(text, ' ')) AS word
                       FROM documents),
            c AS (SELECT word, CAST(count(*) AS BIGINT) AS n
                  FROM w
                  WHERE word <> '' AND starts_with(word, 's')
                  GROUP BY word),
            h AS (SELECT word, n, CAST(-1 AS BIGINT) AS n_distinct
                  FROM c ORDER BY n DESC, word LIMIT 10),
            t AS (SELECT '' AS word,
                         CAST(COALESCE(sum(n), 0) AS BIGINT) AS n,
                         CAST(count(*) AS BIGINT) AS n_distinct
                  FROM c)
            SELECT * FROM h UNION ALL SELECT * FROM t
        """,
        # G57: distinct (user, type) pairs; pair grid + one division
        "g57_type_user_jaccard": """
            WITH ut AS (SELECT DISTINCT user_id, event_type
                        FROM events),
            s AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
                  FROM ut GROUP BY event_type),
            p AS (SELECT a.event_type AS type_a,
                         b.event_type AS type_b,
                         CAST(count(*) AS BIGINT) AS n_both
                  FROM ut a JOIN ut b
                  ON a.user_id = b.user_id
                     AND a.event_type < b.event_type
                  GROUP BY type_a, type_b),
            g AS (SELECT a.event_type AS type_a,
                         b.event_type AS type_b
                  FROM s a JOIN s b ON a.event_type < b.event_type)
            SELECT g.type_a, g.type_b, sa.n AS n_a, sb.n AS n_b,
                   COALESCE(p.n_both, 0) AS n_both,
                   CASE WHEN sa.n + sb.n - COALESCE(p.n_both, 0) > 0
                   THEN CAST(COALESCE(p.n_both, 0) AS DOUBLE)
                        / CAST(sa.n + sb.n - COALESCE(p.n_both, 0)
                               AS DOUBLE)
                   END AS jaccard
            FROM g JOIN s sa ON sa.event_type = g.type_a
            JOIN s sb ON sb.event_type = g.type_b
            LEFT JOIN p ON p.type_a = g.type_a
                       AND p.type_b = g.type_b
        """,
        # V26: exact per-source (N, V); the OLS as pinned ordered
        # folds (source-ascending lists, 0.0 seeds)
        "v26_heaps_exponent": """
            WITH w AS (SELECT source,
                              unnest(string_split(text, ' ')) AS word
                       FROM documents),
            c AS (SELECT source, CAST(count(*) AS BIGINT) AS n_words,
                         CAST(count(DISTINCT word) AS BIGINT)
                             AS n_types
                  FROM w WHERE word <> '' GROUP BY source),
            l AS (SELECT CAST(count(*) AS BIGINT) AS k,
                         list(ln(CAST(n_words AS DOUBLE))
                              ORDER BY source) AS xl,
                         list(ln(CAST(n_types AS DOUBLE))
                              ORDER BY source) AS yl
                  FROM c),
            m AS (SELECT k, xl, yl,
                         list_reduce(list_prepend(0.0, xl),
                                     (a, b) -> a + b)
                             / CAST(k AS DOUBLE) AS mx,
                         list_reduce(list_prepend(0.0, yl),
                                     (a, b) -> a + b)
                             / CAST(k AS DOUBLE) AS my
                  FROM l),
            f AS (SELECT k, mx, my,
                         list_reduce(list_prepend(0.0,
                             list_transform(range(1,
                                 CAST(k + 1 AS INT)),
                                 p -> (xl[p] - mx) * (xl[p] - mx))),
                             (a, b) -> a + b) AS sxx,
                         list_reduce(list_prepend(0.0,
                             list_transform(range(1,
                                 CAST(k + 1 AS INT)),
                                 p -> (xl[p] - mx) * (yl[p] - my))),
                             (a, b) -> a + b) AS sxy
                  FROM m)
            SELECT k AS n_sources,
                   CASE WHEN sxx > 0.0 THEN sxy / sxx END AS beta,
                   CASE WHEN sxx > 0.0 THEN
                       my - (sxy / sxx) * mx END AS log_k
            FROM f
        """,
        # S28: the four size formulas (E4/E5/E6/E7 oracles verbatim)
        # joined per series; first-argmin tie order via <= ladder
        "s28_codec_advisor": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            nn AS (SELECT doc_id, part_id,
                          CAST(count(*) AS BIGINT) AS n
                   FROM s GROUP BY doc_id, part_id),
            d4 AS (SELECT doc_id, part_id,
                          v - lag(v) OVER (PARTITION BY doc_id,
                                           part_id ORDER BY i) AS dd
                   FROM s),
            z4 AS (SELECT doc_id, part_id,
                          CASE WHEN dd >= 0 THEN 2 * dd
                               ELSE -2 * dd - 1 END AS zz
                   FROM d4 WHERE dd IS NOT NULL),
            b4 AS (SELECT doc_id, part_id,
                          CAST(sum(1
                               + CASE WHEN zz >= 128 THEN 1 ELSE 0 END
                               + CASE WHEN zz >= 16384 THEN 1
                                      ELSE 0 END
                               + CASE WHEN zz >= 2097152 THEN 1
                                      ELSE 0 END
                               + CASE WHEN zz >= 268435456 THEN 1
                                      ELSE 0 END) AS BIGINT) AS vb
                   FROM z4 GROUP BY doc_id, part_id),
            d5 AS (SELECT doc_id, part_id, i, v,
                          CASE WHEN lag(v) OVER (PARTITION BY doc_id,
                                                 part_id ORDER BY i)
                               IS DISTINCT FROM v THEN 1 ELSE 0 END
                              AS brk
                   FROM s),
            g5 AS (SELECT doc_id, part_id, v,
                          sum(brk) OVER (PARTITION BY doc_id, part_id
                                         ORDER BY i) AS rid
                   FROM d5),
            r5 AS (SELECT doc_id, part_id,
                          CASE WHEN v >= 0 THEN 2 * v
                               ELSE -2 * v - 1 END AS zv,
                          CAST(count(*) - 1 AS BIGINT) AS ul
                   FROM g5 GROUP BY doc_id, part_id, rid, v),
            b5 AS (SELECT doc_id, part_id,
                          CAST(sum(
                              (1 + CASE WHEN zv >= 128 THEN 1
                                        ELSE 0 END
                                 + CASE WHEN zv >= 16384 THEN 1
                                        ELSE 0 END
                                 + CASE WHEN zv >= 2097152 THEN 1
                                        ELSE 0 END
                                 + CASE WHEN zv >= 268435456 THEN 1
                                        ELSE 0 END)
                            + (1 + CASE WHEN ul >= 128 THEN 1
                                        ELSE 0 END
                                 + CASE WHEN ul >= 16384 THEN 1
                                        ELSE 0 END
                                 + CASE WHEN ul >= 2097152 THEN 1
                                        ELSE 0 END
                                 + CASE WHEN ul >= 268435456 THEN 1
                                        ELSE 0 END)) AS BIGINT) AS rb
                   FROM r5 GROUP BY doc_id, part_id),
            blk AS (SELECT doc_id, part_id, i // 128 AS b,
                           CAST(count(*) AS BIGINT) AS cnt,
                           CAST(max(v) - min(v) AS BIGINT) AS delta
                    FROM s GROUP BY doc_id, part_id, b),
            pw AS (SELECT unnest(range(0, 33)) AS w),
            wb AS (SELECT blk.doc_id, blk.part_id, blk.cnt,
                          (SELECT min(w) FROM pw
                           WHERE blk.delta < (CAST(1 AS BIGINT) << w))
                              AS w
                   FROM blk),
            t6 AS (SELECT doc_id, part_id,
                          CAST(sum(5 + (cnt * w + 7) // 8) AS BIGINT)
                              AS fb
                   FROM wb GROUP BY doc_id, part_id),
            a7 AS (SELECT doc_id, part_id,
                          CAST(count(DISTINCT v) AS BIGINT) AS k
                   FROM s GROUP BY doc_id, part_id),
            t7 AS (SELECT a7.doc_id, a7.part_id,
                          8 + 4 * a7.k
                          + (nn.n * CAST(length(ltrim(bin(
                                CAST(a7.k - 1 AS BIGINT)), '0'))
                                AS BIGINT) + 7) // 8 AS db
                   FROM a7 JOIN nn USING (doc_id, part_id)),
            sz AS (SELECT nn.doc_id, nn.part_id, nn.n,
                          CAST(4 + COALESCE(b4.vb, 0) AS BIGINT)
                              AS e4,
                          CAST(4 + b5.rb AS BIGINT) AS e5,
                          t6.fb AS e6, t7.db AS e7
                   FROM nn LEFT JOIN b4 USING (doc_id, part_id)
                   JOIN b5 USING (doc_id, part_id)
                   JOIN t6 USING (doc_id, part_id)
                   JOIN t7 USING (doc_id, part_id))
            SELECT doc_id, part_id, n,
                   e4 AS varint_bytes, e5 AS rle_bytes,
                   e6 AS for_bytes, e7 AS dict_bytes,
                   CASE WHEN e4 <= e5 AND e4 <= e6 AND e4 <= e7
                        THEN 'varint'
                        WHEN e5 <= e6 AND e5 <= e7 THEN 'rle'
                        WHEN e6 <= e7 THEN 'for'
                        ELSE 'dict' END AS best_codec,
                   least(e4, e5, e6, e7) AS best_bytes
            FROM sz
        """,
        # D26: the brute-force all-pairs Jaccard IS the oracle — the
        # prefix lemma makes the engine's pruned result equal it;
        # integer 5i >= 4u threshold, pinned division
        "d26_prefix_filter_join": """
            WITH w AS (SELECT DISTINCT doc_id, wd
                       FROM (SELECT doc_id,
                                    unnest(regexp_extract_all(
                                        lower(text), '[0-9a-z_]+'))
                                        AS wd
                             FROM documents)),
            s AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS sz
                  FROM w GROUP BY doc_id),
            i AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                         CAST(count(*) AS BIGINT) AS inter
                  FROM w a JOIN w b
                  ON a.wd = b.wd AND a.doc_id < b.doc_id
                  GROUP BY doc_a, doc_b),
            j AS (SELECT i.doc_a, i.doc_b, i.inter,
                         sa.sz + sb.sz - i.inter AS un
                  FROM i JOIN s sa ON sa.doc_id = i.doc_a
                  JOIN s sb ON sb.doc_id = i.doc_b)
            SELECT doc_a, doc_b, inter AS n_inter, un AS n_union,
                   CAST(inter AS DOUBLE) / CAST(un AS DOUBLE)
                       AS jaccard
            FROM j WHERE 5 * inter >= 4 * un
        """,
        # Q38: per-type row_number cap then global rank; both tie
        # rules (cents desc, event_id asc)
        "q38_diverse_topk": """
            SELECT event_type, event_id, cents FROM (
                SELECT event_type, event_id, cents,
                       row_number() OVER (ORDER BY cents DESC,
                                          event_id) AS grk
                FROM (SELECT event_type, event_id,
                             CAST(floor(value * 100 + 0.5)
                                  AS BIGINT) AS cents,
                             row_number() OVER (
                                 PARTITION BY event_type
                                 ORDER BY floor(value * 100 + 0.5)
                                     DESC, event_id) AS trk
                      FROM events) t
                WHERE trk <= 2) u
            WHERE grk <= 10
        """,
        # S30: per-key size histogram + cumsum percentile read-off
        "s30_skew_report": """
            (WITH sz AS (SELECT user_id AS k,
                                CAST(count(*) AS BIGINT) AS c
                         FROM events GROUP BY k),
             h AS (SELECT c AS size, CAST(count(*) AS BIGINT) AS n
                   FROM sz GROUP BY size),
             w AS (SELECT size,
                          CAST(sum(n) OVER (ORDER BY size)
                               AS BIGINT) AS cum,
                          CAST(sum(n) OVER () AS BIGINT) AS n_keys,
                          CAST(sum(size * n) OVER () AS BIGINT)
                              AS n_rows
                   FROM h)
             SELECT 'events.user_id' AS key_name,
                    CAST(min(n_keys) AS BIGINT) AS n_keys,
                    CAST(min(n_rows) AS BIGINT) AS n_rows,
                    CAST(max(size) AS BIGINT) AS max_group,
                    CAST(max(size) AS DOUBLE)
                        / CAST(min(n_rows) AS DOUBLE) AS max_share,
                    CAST(min(CASE WHEN cum * 100 >= 50 * n_keys
                             THEN size END) AS BIGINT) AS p50_group,
                    CAST(min(CASE WHEN cum * 100 >= 99 * n_keys
                             THEN size END) AS BIGINT) AS p99_group
             FROM w)
            UNION ALL
            (WITH sz AS (SELECT event_type AS k,
                                CAST(count(*) AS BIGINT) AS c
                         FROM events GROUP BY k),
             h AS (SELECT c AS size, CAST(count(*) AS BIGINT) AS n
                   FROM sz GROUP BY size),
             w AS (SELECT size,
                          CAST(sum(n) OVER (ORDER BY size)
                               AS BIGINT) AS cum,
                          CAST(sum(n) OVER () AS BIGINT) AS n_keys,
                          CAST(sum(size * n) OVER () AS BIGINT)
                              AS n_rows
                   FROM h)
             SELECT 'events.event_type', CAST(min(n_keys) AS BIGINT),
                    CAST(min(n_rows) AS BIGINT),
                    CAST(max(size) AS BIGINT),
                    CAST(max(size) AS DOUBLE)
                        / CAST(min(n_rows) AS DOUBLE),
                    CAST(min(CASE WHEN cum * 100 >= 50 * n_keys
                             THEN size END) AS BIGINT),
                    CAST(min(CASE WHEN cum * 100 >= 99 * n_keys
                             THEN size END) AS BIGINT)
             FROM w)
            UNION ALL
            (WITH sz AS (SELECT l_orderkey AS k,
                                CAST(count(*) AS BIGINT) AS c
                         FROM lineitem GROUP BY k),
             h AS (SELECT c AS size, CAST(count(*) AS BIGINT) AS n
                   FROM sz GROUP BY size),
             w AS (SELECT size,
                          CAST(sum(n) OVER (ORDER BY size)
                               AS BIGINT) AS cum,
                          CAST(sum(n) OVER () AS BIGINT) AS n_keys,
                          CAST(sum(size * n) OVER () AS BIGINT)
                              AS n_rows
                   FROM h)
             SELECT 'lineitem.l_orderkey',
                    CAST(min(n_keys) AS BIGINT),
                    CAST(min(n_rows) AS BIGINT),
                    CAST(max(size) AS BIGINT),
                    CAST(max(size) AS DOUBLE)
                        / CAST(min(n_rows) AS DOUBLE),
                    CAST(min(CASE WHEN cum * 100 >= 50 * n_keys
                             THEN size END) AS BIGINT),
                    CAST(min(CASE WHEN cum * 100 >= 99 * n_keys
                             THEN size END) AS BIGINT)
             FROM w)
        """,
        # E8: lag/lag2 delta-of-delta, zigzag LEB128 width ladder
        # (HUGEINT compares), 8-byte stream heads; one pinned ratio
        "e8_ts_dod_size": """
            WITH s AS (SELECT user_id,
                              CAST(epoch_us(ts) AS BIGINT) AS t,
                              row_number() OVER w AS rn,
                              CAST(lag(epoch_us(ts)) OVER w
                                   AS BIGINT) AS t1,
                              CAST(lag(epoch_us(ts), 2) OVER w
                                   AS BIGINT) AS t2
                       FROM events
                       WINDOW w AS (PARTITION BY user_id
                                    ORDER BY ts, event_id)),
            v AS (SELECT CASE WHEN rn = 1 THEN NULL
                              WHEN rn = 2 THEN t - t1
                              ELSE (t - t1) - (t1 - t2) END AS val
                  FROM s),
            z AS (SELECT CASE WHEN val IS NULL THEN NULL
                              WHEN val >= 0 THEN
                                  CAST(2 * val AS HUGEINT)
                              ELSE CAST(-2 * val - 1 AS HUGEINT)
                         END AS zz
                  FROM v),
            b AS (SELECT CASE WHEN zz IS NULL THEN 8
                         ELSE 1
                              + CASE WHEN zz >= 128 THEN 1 ELSE 0 END
                              + CASE WHEN zz >= 16384 THEN 1
                                     ELSE 0 END
                              + CASE WHEN zz >= 2097152 THEN 1
                                     ELSE 0 END
                              + CASE WHEN zz >= 268435456 THEN 1
                                     ELSE 0 END
                              + CASE WHEN zz >= 34359738368 THEN 1
                                     ELSE 0 END
                              + CASE WHEN zz >= 4398046511104 THEN 1
                                     ELSE 0 END
                              + CASE WHEN zz >= 562949953421312
                                     THEN 1 ELSE 0 END
                              + CASE WHEN zz >= 72057594037927936
                                     THEN 1 ELSE 0 END
                              + CASE WHEN zz >=
                                     9223372036854775808 THEN 1
                                     ELSE 0 END
                         END AS bytes
                  FROM z),
            a AS (SELECT CAST(count(*) AS BIGINT) AS n_events,
                         (SELECT CAST(count(DISTINCT user_id)
                                      AS BIGINT) FROM events)
                             AS n_users,
                         CAST(sum(bytes) AS BIGINT) AS n_bytes
                  FROM b)
            SELECT n_events, n_users, n_bytes,
                   CASE WHEN n_bytes > 0 THEN
                       (CAST((8 * n_events) // 4294967296 AS DOUBLE)
                        * 4294967296.0
                        + CAST((8 * n_events) % 4294967296
                               AS DOUBLE))
                       / (CAST(n_bytes // 4294967296 AS DOUBLE)
                          * 4294967296.0
                          + CAST(n_bytes % 4294967296 AS DOUBLE))
                   END AS compression_ratio
            FROM a
        """,
        # A100: dense-grid strict/weak counts vs the final day; one
        # pinned division
        "a100_today_rank": """
            WITH c AS (SELECT event_type,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day,
                              CAST(sum(CAST(floor(value * 100 + 0.5)
                                            AS BIGINT)) AS BIGINT) AS x
                       FROM events GROUP BY event_type, day),
            g AS (SELECT CAST(min(day) AS BIGINT) AS lo,
                         CAST(max(day) AS BIGINT) AS hi
                  FROM c),
            grid AS (SELECT e.event_type,
                            CAST(unnest(range(g.lo, g.hi + 1))
                                 AS BIGINT) AS day
                     FROM (SELECT DISTINCT event_type FROM c) e, g),
            d AS (SELECT grid.event_type, grid.day,
                         COALESCE(c.x, 0) AS x
                  FROM grid LEFT JOIN c
                  ON c.event_type = grid.event_type
                     AND c.day = grid.day),
            l AS (SELECT d.event_type, CAST(d.x AS BIGINT) AS last
                  FROM d, g WHERE d.day = g.hi),
            a AS (SELECT d.event_type,
                         CAST(count(*) AS BIGINT) AS n_days,
                         CAST(sum(CASE WHEN d.x < l.last THEN 1
                                  ELSE 0 END) AS BIGINT) AS n_less,
                         CAST(sum(CASE WHEN d.x <= l.last THEN 1
                                  ELSE 0 END) AS BIGINT) AS n_leq
                  FROM d JOIN l USING (event_type)
                  GROUP BY d.event_type)
            SELECT a.event_type, a.n_days, l.last AS last_cents,
                   a.n_less, a.n_leq,
                   CAST(a.n_leq AS DOUBLE) / CAST(a.n_days AS DOUBLE)
                       AS pct_rank
            FROM a JOIN l USING (event_type)
        """,
        # W68: set logic on distinct (user, week); churn = run end + 1
        "w68_growth_accounting": """
            WITH d AS (SELECT DISTINCT user_id,
                              CAST((epoch_us(ts) // 86400000000) // 7
                                   AS BIGINT) AS wk
                       FROM events),
            g AS (SELECT CAST(max(wk) AS BIGINT) AS hiw FROM d),
            f AS (SELECT user_id, CAST(min(wk) AS BIGINT) AS fw
                  FROM d GROUP BY user_id),
            cls AS (SELECT d.user_id, d.wk,
                           (d.wk = f.fw) AS is_new,
                           (EXISTS (SELECT 1 FROM d p
                                    WHERE p.user_id = d.user_id
                                      AND p.wk = d.wk - 1)) AS prev
                    FROM d JOIN f USING (user_id)),
            act AS (SELECT wk AS week,
                           CAST(sum(CASE WHEN is_new THEN 1 ELSE 0
                                    END) AS BIGINT) AS n_new,
                           CAST(sum(CASE WHEN prev THEN 1 ELSE 0
                                    END) AS BIGINT) AS n_retained,
                           CAST(sum(CASE WHEN NOT is_new AND NOT prev
                                    THEN 1 ELSE 0 END) AS BIGINT)
                               AS n_resurrected,
                           CAST(count(*) AS BIGINT) AS n_active
                    FROM cls GROUP BY wk),
            ch AS (SELECT d.wk + 1 AS week,
                          CAST(count(*) AS BIGINT) AS n_churned
                   FROM d CROSS JOIN g
                   WHERE d.wk + 1 <= g.hiw
                     AND NOT EXISTS (SELECT 1 FROM d nx
                                     WHERE nx.user_id = d.user_id
                                       AND nx.wk = d.wk + 1)
                   GROUP BY d.wk + 1),
            weeks AS (SELECT week FROM act
                      UNION SELECT week FROM ch)
            SELECT w.week, COALESCE(a.n_new, 0) AS n_new,
                   COALESCE(a.n_retained, 0) AS n_retained,
                   COALESCE(a.n_resurrected, 0) AS n_resurrected,
                   COALESCE(c.n_churned, 0) AS n_churned,
                   COALESCE(a.n_active, 0) AS n_active
            FROM weeks w LEFT JOIN act a USING (week)
            LEFT JOIN ch c USING (week)
        """,
        # Q37: textbook RANK() <= k, ties preserved; all-integer
        "q37_topk_with_ties": """
            SELECT event_type, event_id, cents, rnk FROM (
                SELECT event_type, event_id,
                       CAST(floor(value * 100 + 0.5) AS BIGINT)
                           AS cents,
                       CAST(rank() OVER (PARTITION BY event_type
                                         ORDER BY floor(value * 100
                                                        + 0.5) DESC)
                            AS BIGINT) AS rnk
                FROM events) t
            WHERE rnk <= 5
        """,
        # S29: the derivation RULE counts certify the engine's
        # rule-blind diff machinery; all-integer
        "s29_snapshot_diff": """
            WITH a AS (SELECT event_id AS id,
                              CAST(floor(value * 100 + 0.5)
                                   AS BIGINT) AS cents
                       FROM events)
            SELECT
                (SELECT CAST(count(*) AS BIGINT) FROM a
                 WHERE id % 97 <> 0 AND id % 50 <> 0) AS n_same,
                (SELECT CAST(count(*) AS BIGINT) FROM a
                 WHERE id % 97 <> 0 AND id % 50 = 0) AS n_updated,
                (SELECT CAST(count(*) AS BIGINT) FROM a
                 WHERE id % 97 = 0) AS n_deleted,
                (SELECT CAST(count(*) AS BIGINT) FROM a
                 WHERE id % 101 = 0) AS n_inserted
        """,
        # W67: shifted self-join moments per (pair, s); A9's pinned r
        # with the sign-aware split; argmax (r DESC, s ASC)
        "w67_lead_lag": """
            WITH c AS (SELECT event_type,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY event_type, day),
            g AS (SELECT CAST(min(day) AS BIGINT) AS lo,
                         CAST(max(day) AS BIGINT) AS hi
                  FROM c),
            grid AS (SELECT e.event_type,
                            CAST(unnest(range(g.lo, g.hi + 1))
                                 AS BIGINT) AS day
                     FROM (SELECT DISTINCT event_type FROM c) e, g),
            d AS (SELECT grid.event_type, grid.day,
                         COALESCE(c.n, 0) AS x
                  FROM grid LEFT JOIN c
                  ON c.event_type = grid.event_type
                     AND c.day = grid.day),
            sh AS (SELECT CAST(unnest(range(-7, 8)) AS BIGINT) AS s),
            pr AS (SELECT a.event_type AS ta, b.event_type AS tb
                   FROM (SELECT DISTINCT event_type FROM c) a
                   JOIN (SELECT DISTINCT event_type FROM c) b
                   ON a.event_type < b.event_type),
            m AS (SELECT pr.ta, pr.tb, sh.s,
                         CAST(count(*) AS BIGINT) AS nv,
                         CAST(sum(da.x) AS BIGINT) AS s1,
                         CAST(sum(db.x) AS BIGINT) AS s2,
                         CAST(sum(da.x * da.x) AS BIGINT) AS q1,
                         CAST(sum(db.x * db.x) AS BIGINT) AS q2,
                         CAST(sum(da.x * db.x) AS BIGINT) AS p
                  FROM pr CROSS JOIN sh
                  JOIN d da ON da.event_type = pr.ta
                  JOIN d db ON db.event_type = pr.tb
                           AND db.day = da.day + sh.s
                  GROUP BY pr.ta, pr.tb, sh.s),
            f AS (SELECT ta, tb, s, nv,
                         nv * p - s1 * s2 AS num,
                         nv * q1 - s1 * s1 AS d1,
                         nv * q2 - s2 * s2 AS d2
                  FROM m WHERE nv >= 2),
            r AS (SELECT ta, tb, s, nv,
                         (CASE WHEN num >= 0 THEN
                              CAST(num // 4294967296 AS DOUBLE)
                              * 4294967296.0
                              + CAST(num % 4294967296 AS DOUBLE)
                          ELSE -(CAST((-num) // 4294967296 AS DOUBLE)
                                 * 4294967296.0
                                 + CAST((-num) % 4294967296
                                        AS DOUBLE)) END)
                         / (sqrt(CAST(d1 // 4294967296 AS DOUBLE)
                                 * 4294967296.0
                                 + CAST(d1 % 4294967296 AS DOUBLE))
                            * sqrt(CAST(d2 // 4294967296 AS DOUBLE)
                                   * 4294967296.0
                                   + CAST(d2 % 4294967296
                                          AS DOUBLE))) AS r
                  FROM f WHERE d1 > 0 AND d2 > 0),
            b AS (SELECT ta, tb, s, nv, r,
                         row_number() OVER (PARTITION BY ta, tb
                                            ORDER BY r DESC, s)
                             AS rn
                  FROM r)
            SELECT ta AS type_a, tb AS type_b, s AS best_shift,
                   nv AS n_overlap, r AS r_best
            FROM b WHERE rn = 1
        """,
        # A99: exact S/MR on the dense grid; pinned xbar/mrbar/limit
        # chain; flags compare pinned floats (bit-stable counts)
        "a99_xmr_chart": """
            WITH c AS (SELECT event_type,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day,
                              CAST(sum(CAST(floor(value * 100 + 0.5)
                                            AS BIGINT)) AS BIGINT) AS x
                       FROM events GROUP BY event_type, day),
            g AS (SELECT CAST(min(day) AS BIGINT) AS lo,
                         CAST(max(day) AS BIGINT) AS hi
                  FROM c),
            grid AS (SELECT e.event_type,
                            CAST(unnest(range(g.lo, g.hi + 1))
                                 AS BIGINT) AS day
                     FROM (SELECT DISTINCT event_type FROM c) e, g),
            d AS (SELECT grid.event_type, grid.day,
                         COALESCE(c.x, 0) AS x
                  FROM grid LEFT JOIN c
                  ON c.event_type = grid.event_type
                     AND c.day = grid.day),
            lg AS (SELECT event_type, day, x,
                          lag(x) OVER (PARTITION BY event_type
                                       ORDER BY day) AS x1
                   FROM d),
            a AS (SELECT event_type,
                         CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(x) AS BIGINT) AS s,
                         CAST(sum(CASE WHEN x1 IS NULL THEN 0
                                  ELSE abs(x - x1) END) AS BIGINT)
                             AS mr
                  FROM lg GROUP BY event_type),
            f AS (SELECT event_type, n, s, mr,
                         CAST(s AS DOUBLE) / CAST(n AS DOUBLE)
                             AS xbar,
                         CAST(mr AS DOUBLE) / CAST(n - 1 AS DOUBLE)
                             AS mrbar
                  FROM a),
            l AS (SELECT event_type, n, s, mr,
                         xbar + 2.66 * mrbar AS ucl,
                         xbar - 2.66 * mrbar AS lcl
                  FROM f),
            o AS (SELECT d.event_type,
                         CAST(sum(CASE WHEN CAST(d.x AS DOUBLE)
                                            > l.ucl
                                       OR CAST(d.x AS DOUBLE)
                                          < l.lcl
                                  THEN 1 ELSE 0 END) AS BIGINT)
                             AS n_out
                  FROM d JOIN l USING (event_type)
                  GROUP BY d.event_type)
            SELECT l.event_type, l.n AS n_days, l.s AS sum_cents,
                   l.mr AS mr_sum, l.ucl, l.lcl, o.n_out
            FROM l JOIN o USING (event_type)
        """,
        # W66: frame sum over the dense grid; exact 7x>2S compare;
        # gaps-and-islands streaks
        "w66_trailing_bursts": """
            WITH c AS (SELECT event_type,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY event_type, day),
            g AS (SELECT CAST(min(day) AS BIGINT) AS lo,
                         CAST(max(day) AS BIGINT) AS hi
                  FROM c),
            grid AS (SELECT e.event_type,
                            CAST(unnest(range(g.lo, g.hi + 1))
                                 AS BIGINT) AS day
                     FROM (SELECT DISTINCT event_type FROM c) e, g),
            d AS (SELECT grid.event_type, grid.day,
                         COALESCE(c.n, 0) AS x
                  FROM grid LEFT JOIN c
                  ON c.event_type = grid.event_type
                     AND c.day = grid.day),
            w AS (SELECT event_type, day, x,
                         CAST(sum(x) OVER (PARTITION BY event_type
                                           ORDER BY day
                                           ROWS BETWEEN 7 PRECEDING
                                           AND 1 PRECEDING)
                              AS BIGINT) AS prev7,
                         row_number() OVER (PARTITION BY event_type
                                            ORDER BY day) AS rn
                  FROM d),
            b AS (SELECT event_type, day,
                         (7 * x > 2 * prev7) AS burst
                  FROM w WHERE rn > 7),
            i AS (SELECT event_type,
                         day - row_number() OVER (PARTITION BY
                                                  event_type
                                                  ORDER BY day)
                             AS grp
                  FROM b WHERE burst),
            r AS (SELECT event_type, CAST(count(*) AS BIGINT) AS run
                  FROM i GROUP BY event_type, grp),
            m AS (SELECT event_type,
                         CAST(max(run) AS BIGINT) AS longest,
                         CAST(sum(run) AS BIGINT) AS nb
                  FROM r GROUP BY event_type)
            SELECT t.event_type,
                   CASE WHEN (SELECT hi - lo + 1 FROM g) > 7
                        THEN (SELECT hi - lo + 1 - 7 FROM g)
                        ELSE 0 END AS n_eligible_days,
                   COALESCE(m.nb, 0) AS n_burst_days,
                   COALESCE(m.longest, 0) AS longest_burst
            FROM (SELECT DISTINCT event_type FROM c) t
            LEFT JOIN m USING (event_type)
        """,
        # G60: calendar day() both sides; peak via (n desc, dom) rank
        "g60_dom_profile": """
            WITH c AS (SELECT event_type,
                              CAST(day(ts) AS BIGINT) AS dom,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY event_type, dom),
            t AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS total
                  FROM c GROUP BY event_type),
            p AS (SELECT event_type, dom AS peak_dom, n AS peak_n,
                         row_number() OVER (PARTITION BY event_type
                                            ORDER BY n DESC, dom)
                             AS rn
                  FROM c)
            SELECT c.event_type, c.dom, c.n, p.peak_dom,
                   CAST(p.peak_n AS DOUBLE) / CAST(t.total AS DOUBLE)
                       AS peak_share
            FROM c
            JOIN p ON p.event_type = c.event_type AND p.rn = 1
            JOIN t ON t.event_type = c.event_type
        """,
        # V27: codepoint lengths both sides; two pinned divisions
        "v27_word_length_profile": """
            WITH w AS (SELECT source,
                              unnest(string_split(text, ' ')) AS word
                       FROM documents),
            a AS (SELECT source, CAST(count(*) AS BIGINT) AS n_words,
                         CAST(sum(length(word)) AS BIGINT) AS n_chars,
                         CAST(sum(CASE WHEN length(word) >= 7 THEN 1
                                  ELSE 0 END) AS BIGINT) AS n_long
                  FROM w WHERE word <> '' GROUP BY source)
            SELECT source, n_words, n_chars, n_long,
                   CAST(n_chars AS DOUBLE) / CAST(n_words AS DOUBLE)
                       AS mean_word_len,
                   CAST(n_long AS DOUBLE) / CAST(n_words AS DOUBLE)
                       AS long_share
            FROM a
        """,
        # G59: two-level integer argmax (per-day, then modal); one
        # pinned division
        "g59_peak_hour_stability": """
            WITH c AS (SELECT event_type,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day,
                              CAST((epoch_us(ts) // 3600000000) % 24
                                   AS BIGINT) AS hour,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events
                       GROUP BY event_type, day, hour),
            r AS (SELECT event_type, day, hour,
                         row_number() OVER (PARTITION BY event_type,
                                            day
                                            ORDER BY n DESC, hour)
                             AS rn
                  FROM c),
            p AS (SELECT event_type, hour FROM r WHERE rn = 1),
            m AS (SELECT event_type, hour,
                         CAST(count(*) AS BIGINT) AS c
                  FROM p GROUP BY event_type, hour),
            t AS (SELECT event_type,
                         CAST(count(*) AS BIGINT) AS n_days
                  FROM p GROUP BY event_type),
            b AS (SELECT event_type, hour, c,
                         row_number() OVER (PARTITION BY event_type
                                            ORDER BY c DESC, hour)
                             AS rn
                  FROM m)
            SELECT t.event_type, t.n_days,
                   b.hour AS modal_peak_hour,
                   b.c AS n_days_at_modal,
                   CAST(b.c AS DOUBLE) / CAST(t.n_days AS DOUBLE)
                       AS stability
            FROM t JOIN b USING (event_type) WHERE b.rn = 1
        """,
        # Q36: all-integer Hamilton apportionment; ties source asc
        "q36_hamilton_allocation": """
            WITH c AS (SELECT source, CAST(count(*) AS BIGINT) AS n
                       FROM documents GROUP BY source),
            t AS (SELECT CAST(sum(n) AS BIGINT) AS total FROM c),
            a AS (SELECT source, n,
                         CAST((1000 * n) // t.total AS BIGINT)
                             AS base,
                         CAST((1000 * n) % t.total AS BIGINT) AS rem
                  FROM c, t),
            k AS (SELECT CAST(1000 - sum(base) AS BIGINT) AS r
                  FROM a),
            rk AS (SELECT source,
                          row_number() OVER (ORDER BY rem DESC,
                                             source) AS rn
                   FROM a)
            SELECT a.source, a.n AS n_docs, a.base AS floor_alloc,
                   a.rem AS remainder,
                   CAST(a.base + CASE WHEN rk.rn <= k.r THEN 1
                                 ELSE 0 END AS BIGINT) AS alloc
            FROM a JOIN rk USING (source) CROSS JOIN k
        """,
        # M10: the direct long-form count IS the roundtrip statement
        "m10_unpivot": """
            SELECT event_type,
                   CAST((epoch_us(ts) // 86400000000 + 3) % 7
                        AS BIGINT) AS dow,
                   CAST(count(*) AS BIGINT) AS n
            FROM events GROUP BY event_type, dow
        """,
        # W64: lag run-start flags; one pinned division
        "w64_action_runs": """
            WITH s AS (SELECT user_id, event_type,
                              CASE WHEN lag(event_type) OVER w IS NULL
                                   OR lag(event_type) OVER w
                                      <> event_type
                              THEN 1 ELSE 0 END AS brk
                       FROM events
                       WINDOW w AS (PARTITION BY user_id
                                    ORDER BY ts, event_id)),
            a AS (SELECT event_type,
                         CAST(sum(brk) AS BIGINT) AS n_runs,
                         CAST(count(*) AS BIGINT) AS n_events
                  FROM s GROUP BY event_type)
            SELECT event_type, n_events, n_runs,
                   CAST(n_events AS DOUBLE) / CAST(n_runs AS DOUBLE)
                       AS mean_run_len
            FROM a
        """,
        # A98: exact integer deviation argmax over the dense grid
        # (ties -> smallest day); one pinned division
        "a98_arrival_uniformity": """
            WITH c AS (SELECT event_type,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY event_type, day),
            g AS (SELECT CAST(min(day) AS BIGINT) AS lo,
                         CAST(max(day) AS BIGINT) AS hi
                  FROM c),
            grid AS (SELECT e.event_type,
                            CAST(unnest(range(g.lo, g.hi + 1))
                                 AS BIGINT) AS day
                     FROM (SELECT DISTINCT event_type FROM c) e, g),
            d AS (SELECT grid.event_type, grid.day,
                         COALESCE(c.n, 0) AS n
                  FROM grid LEFT JOIN c
                  ON c.event_type = grid.event_type
                     AND c.day = grid.day),
            w AS (SELECT event_type, day,
                         CAST(sum(n) OVER (PARTITION BY event_type
                                           ORDER BY day) AS BIGINT)
                             AS cum,
                         CAST(sum(n) OVER (PARTITION BY event_type)
                              AS BIGINT) AS total,
                         CAST(row_number() OVER (PARTITION BY
                                                 event_type
                                                 ORDER BY day)
                              AS BIGINT) AS rank,
                         (SELECT hi - lo + 1 FROM g) AS span
                  FROM d),
            dv AS (SELECT event_type, day, total, span,
                          abs(cum * span - rank * total) AS num,
                          row_number() OVER (PARTITION BY event_type
                              ORDER BY abs(cum * span - rank * total)
                                  DESC, day) AS rn
                   FROM w)
            SELECT event_type, total, num AS ks_num, day AS ks_day,
                   CASE WHEN total > 0 THEN
                       (CAST(num // 4294967296 AS DOUBLE)
                        * 4294967296.0
                        + CAST(num % 4294967296 AS DOUBLE))
                       / (CAST((total * span) // 4294967296
                               AS DOUBLE) * 4294967296.0
                          + CAST((total * span) % 4294967296
                                 AS DOUBLE))
                   END AS ks_d
            FROM dv WHERE rn = 1
        """,
        # G58: decimal-string first digit (never float log10 on the
        # value); pinned ascending-digit chi2 fold
        "g58_benford": """
            WITH v AS (SELECT event_type,
                              CAST(floor(value * 100 + 0.5)
                                   AS BIGINT) AS c
                       FROM events),
            d AS (SELECT event_type,
                         CAST(substr(CAST(c AS VARCHAR), 1, 1)
                              AS BIGINT) AS digit
                  FROM v WHERE c > 0),
            c2 AS (SELECT event_type, digit,
                          CAST(count(*) AS BIGINT) AS n
                   FROM d GROUP BY event_type, digit),
            g AS (SELECT e.event_type, CAST(t.d AS BIGINT) AS digit
                  FROM (SELECT DISTINCT event_type FROM c2) e
                  CROSS JOIN range(1, 10) t(d)),
            f AS (SELECT g.event_type, g.digit,
                         COALESCE(c2.n, 0) AS n
                  FROM g LEFT JOIN c2
                  ON c2.event_type = g.event_type
                     AND c2.digit = g.digit),
            tot AS (SELECT event_type,
                           CAST(sum(n) AS BIGINT) AS n_total,
                           list(CAST(n AS DOUBLE) ORDER BY digit)
                               AS nv
                    FROM f GROUP BY event_type),
            chi AS (SELECT event_type, n_total,
                           list_reduce(list_prepend(0.0,
                               list_transform(range(1, 10), p ->
                                   ((nv[p] - CAST(n_total AS DOUBLE)
                                     * log10(1.0 + 1.0 / p))
                                    * (nv[p] - CAST(n_total AS DOUBLE)
                                       * log10(1.0 + 1.0 / p)))
                                   / (CAST(n_total AS DOUBLE)
                                      * log10(1.0 + 1.0 / p)))),
                               (a, b) -> a + b) AS chi2
                    FROM tot)
            SELECT f.event_type, f.digit, f.n, chi.n_total,
                   chi.chi2 AS chi2_benford
            FROM f JOIN chi USING (event_type)
        """,
        # Q35: DuckDB's own NTILE over the pinned (cents, orderkey)
        # order — the engine's rank arithmetic must agree exactly
        "q35_ntile_revenue_buckets": """
            WITH c AS (SELECT o_orderkey, o_orderpriority,
                              CAST(floor(o_totalprice * 100 + 0.5)
                                   AS BIGINT) AS cents
                       FROM orders),
            t AS (SELECT o_orderpriority,
                         CAST(ntile(4) OVER (ORDER BY cents,
                                             o_orderkey) AS BIGINT)
                             AS bucket
                  FROM c)
            SELECT o_orderpriority, bucket,
                   CAST(count(*) AS BIGINT) AS n
            FROM t GROUP BY o_orderpriority, bucket
        """,
        # J24: seeded mod-2^64 Bloom replay + rate divisions
        "j24_bloom_prefilter_audit": _bloom_sql(),
        # S27: per-column exact n/null/min/max over events
        "s27_table_stats": """
            SELECT 'cents' AS "column",
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(CASE WHEN value IS NULL THEN 1 ELSE 0
                            END) AS BIGINT) AS n_null,
                   CAST(min(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS min_v,
                   CAST(max(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS max_v
            FROM events
            UNION ALL
            SELECT 'event_id', CAST(count(*) AS BIGINT),
                   CAST(sum(CASE WHEN event_id IS NULL THEN 1 ELSE 0
                            END) AS BIGINT),
                   CAST(min(event_id) AS BIGINT),
                   CAST(max(event_id) AS BIGINT)
            FROM events
            UNION ALL
            SELECT 'ts_us', CAST(count(*) AS BIGINT),
                   CAST(sum(CASE WHEN ts IS NULL THEN 1 ELSE 0 END)
                        AS BIGINT),
                   CAST(min(epoch_us(ts)) AS BIGINT),
                   CAST(max(epoch_us(ts)) AS BIGINT)
            FROM events
            UNION ALL
            SELECT 'user_id', CAST(count(*) AS BIGINT),
                   CAST(sum(CASE WHEN user_id IS NULL THEN 1 ELSE 0
                            END) AS BIGINT),
                   CAST(min(user_id) AS BIGINT),
                   CAST(max(user_id) AS BIGINT)
            FROM events
        """,
        # S26: three NOT-EXISTS orphan counts; all-integer
        "s26_integrity_audit": """
            SELECT
                (SELECT CAST(count(*) AS BIGINT) FROM orders)
                    AS n_orders,
                (SELECT CAST(count(*) AS BIGINT) FROM orders o
                 WHERE NOT EXISTS (SELECT 1 FROM customer c
                                   WHERE c.c_custkey = o.o_custkey))
                    AS orphan_orders,
                (SELECT CAST(count(*) AS BIGINT) FROM lineitem)
                    AS n_lineitems,
                (SELECT CAST(count(*) AS BIGINT) FROM lineitem l
                 WHERE NOT EXISTS (SELECT 1 FROM orders o
                                   WHERE o.o_orderkey = l.l_orderkey))
                    AS orphan_li_order,
                (SELECT CAST(count(*) AS BIGINT) FROM lineitem l
                 WHERE NOT EXISTS (SELECT 1 FROM part p
                                   WHERE p.p_partkey = l.l_partkey))
                    AS orphan_li_part
        """,
        # J23: min |dt| within the window via a banded self join;
        # exact integer log2 buckets, -1 = unmatched
        "j23_nearest_event_gap": """
            WITH er AS (SELECT event_id, user_id,
                               CAST(epoch_us(ts) AS BIGINT) AS t
                        FROM events WHERE event_type = 'error'),
            pu AS (SELECT user_id,
                          CAST(epoch_us(ts) AS BIGINT) AS t
                   FROM events WHERE event_type = 'purchase'),
            m AS (SELECT er.event_id,
                         CAST(min(abs(pu.t - er.t)) AS BIGINT) AS dt
                  FROM er JOIN pu ON pu.user_id = er.user_id
                  AND abs(pu.t - er.t) <= 3600000000
                  GROUP BY er.event_id),
            b AS (SELECT CASE WHEN m.dt IS NULL THEN -1
                         ELSE CAST(length(ltrim(bin(CAST(
                              m.dt // 1000000 + 1 AS BIGINT)), '0'))
                              - 1 AS BIGINT) END AS bucket
                  FROM er LEFT JOIN m USING (event_id))
            SELECT bucket, CAST(count(*) AS BIGINT) AS n_events
            FROM b GROUP BY bucket
        """,
        # W62: the classic lag/sum-over-breaks sessionization (W1's
        # oracle shape) -> length histogram -> exact order statistics
        "w62_session_length_quartiles": """
            WITH b AS (SELECT user_id, ts, event_id,
                              CASE WHEN lag(ts) OVER w IS NULL
                                   OR epoch_us(ts)
                                      - epoch_us(lag(ts) OVER w)
                                      > 43200000000
                              THEN 1 ELSE 0 END AS brk
                       FROM events
                       WINDOW w AS (PARTITION BY user_id
                                    ORDER BY ts, event_id)),
            sid AS (SELECT user_id,
                           sum(brk) OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id
                                          ROWS UNBOUNDED PRECEDING)
                               AS sid
                    FROM b),
            ln AS (SELECT CAST(count(*) AS BIGINT) AS len
                   FROM sid GROUP BY user_id, sid),
            h AS (SELECT len, CAST(count(*) AS BIGINT) AS c
                  FROM ln GROUP BY len),
            w2 AS (SELECT len,
                          CAST(sum(c) OVER (ORDER BY len) AS BIGINT)
                              AS cum,
                          CAST(sum(c) OVER () AS BIGINT) AS n
                   FROM h)
            SELECT min(n) AS n_sessions,
                   CAST(min(CASE WHEN cum * 4 >= 1 * n THEN len END)
                        AS BIGINT) AS q1_len,
                   CAST(min(CASE WHEN cum * 4 >= 2 * n THEN len END)
                        AS BIGINT) AS q2_len,
                   CAST(min(CASE WHEN cum * 4 >= 3 * n THEN len END)
                        AS BIGINT) AS q3_len,
                   CAST(max(len) AS BIGINT) AS max_len
            FROM w2
        """,
        # G53: dense grid + gaps-and-islands zero runs; all-integer
        "g53_longest_drought": """
            WITH c AS (SELECT event_type,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day
                       FROM events GROUP BY event_type, day),
            g AS (SELECT CAST(min(day) AS BIGINT) AS lo,
                         CAST(max(day) AS BIGINT) AS hi
                  FROM c),
            grid AS (SELECT e.event_type,
                            CAST(unnest(range(g.lo, g.hi + 1))
                                 AS BIGINT) AS day
                     FROM (SELECT DISTINCT event_type FROM c) e, g),
            z AS (SELECT grid.event_type, grid.day
                  FROM grid LEFT JOIN c USING (event_type, day)
                  WHERE c.day IS NULL),
            i AS (SELECT event_type,
                         day - row_number() OVER (PARTITION BY
                                                  event_type
                                                  ORDER BY day)
                             AS grp
                  FROM z),
            r AS (SELECT event_type, CAST(count(*) AS BIGINT) AS run
                  FROM i GROUP BY event_type, grp),
            m AS (SELECT event_type,
                         CAST(max(run) AS BIGINT) AS longest,
                         CAST(sum(run) AS BIGINT) AS n_zero
                  FROM r GROUP BY event_type)
            SELECT t.event_type,
                   (SELECT hi - lo + 1 FROM g) AS n_days,
                   COALESCE(m.n_zero, 0) AS n_zero_days,
                   COALESCE(m.longest, 0) AS longest_drought
            FROM (SELECT DISTINCT event_type FROM c) t
            LEFT JOIN m USING (event_type)
        """,
        # X13: the X12 padded-containment convention, three clauses
        "x13_boolean_search": """
            WITH f AS (SELECT
                (position(' batch ' IN ' ' || text || ' ') > 0)
                    AS h1,
                (position(' stream ' IN ' ' || text || ' ') > 0)
                    AS h2,
                (position(' error ' IN ' ' || text || ' ') > 0)
                    AS h3
                FROM documents)
            SELECT CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(CASE WHEN h1 THEN 1 ELSE 0 END)
                        AS BIGINT) AS df_w1,
                   CAST(sum(CASE WHEN h2 THEN 1 ELSE 0 END)
                        AS BIGINT) AS df_w2,
                   CAST(sum(CASE WHEN h3 THEN 1 ELSE 0 END)
                        AS BIGINT) AS df_w3,
                   CAST(sum(CASE WHEN h1 AND h2 AND NOT h3 THEN 1
                            ELSE 0 END) AS BIGINT) AS n_match
            FROM f
        """,
        # W60: first-click / first-subsequent-purchase minima, exact
        # integer log2 bucket via bin()-string bit_length
        "w60_conversion_latency": """
            WITH fc AS (SELECT user_id,
                               CAST(min(epoch_us(ts)) AS BIGINT) AS c
                        FROM events WHERE event_type = 'click'
                        GROUP BY user_id),
            fp AS (SELECT e.user_id,
                          CAST(min(epoch_us(e.ts)) AS BIGINT) AS p
                   FROM events e JOIN fc ON e.user_id = fc.user_id
                   WHERE e.event_type = 'purchase'
                     AND epoch_us(e.ts) >= fc.c
                   GROUP BY e.user_id),
            lat AS (SELECT (fp.p - fc.c) // 1000000 AS sec
                    FROM fc JOIN fp USING (user_id)),
            b AS (SELECT CAST(length(ltrim(bin(CAST(sec + 1
                                                    AS BIGINT)), '0'))
                              - 1 AS BIGINT) AS bucket
                  FROM lat)
            SELECT bucket, CAST(count(*) AS BIGINT) AS n_users
            FROM b GROUP BY bucket
        """,
        # A97: dense per-type grid via unnest(range); exact abs-diff
        # sums; three pinned IEEE ops
        "a97_daily_mase": """
            WITH c AS (SELECT event_type,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day,
                              CAST(sum(CAST(floor(value * 100 + 0.5)
                                            AS BIGINT)) AS BIGINT) AS x
                       FROM events GROUP BY event_type, day),
            g AS (SELECT CAST(min(day) AS BIGINT) AS lo,
                         CAST(max(day) AS BIGINT) AS hi
                  FROM c),
            grid AS (SELECT e.event_type,
                            CAST(unnest(range(g.lo, g.hi + 1))
                                 AS BIGINT) AS day
                     FROM (SELECT DISTINCT event_type FROM c) e, g),
            d AS (SELECT grid.event_type, grid.day,
                         COALESCE(c.x, 0) AS x
                  FROM grid LEFT JOIN c
                  ON c.event_type = grid.event_type
                     AND c.day = grid.day),
            lg AS (SELECT event_type, x,
                          lag(x, 1) OVER w AS x1,
                          lag(x, 7) OVER w AS x7
                   FROM d
                   WINDOW w AS (PARTITION BY event_type
                                ORDER BY day)),
            a AS (SELECT event_type,
                         CAST(count(*) AS BIGINT) AS n_days,
                         CAST(sum(CASE WHEN x1 IS NULL THEN 0
                                  ELSE abs(x - x1) END) AS BIGINT)
                             AS m1,
                         CAST(sum(CASE WHEN x7 IS NULL THEN 0
                                  ELSE abs(x - x7) END) AS BIGINT)
                             AS m7
                  FROM lg GROUP BY event_type)
            SELECT event_type, n_days, m1 AS mae1_num, m7 AS mae7_num,
                   CASE WHEN n_days > 7 AND m1 > 0 THEN
                       ((CAST(m7 // 4294967296 AS DOUBLE)
                         * 4294967296.0
                         + CAST(m7 % 4294967296 AS DOUBLE))
                        / CAST(n_days - 7 AS DOUBLE))
                       / ((CAST(m1 // 4294967296 AS DOUBLE)
                           * 4294967296.0
                           + CAST(m1 % 4294967296 AS DOUBLE))
                          / CAST(n_days - 1 AS DOUBLE))
                   END AS mase
            FROM a
        """,
        # S25: the pruned read's audit equals the direct 3-day
        # aggregate (days anchored to the corpus min day)
        "s25_day_pruned_read": """
            WITH g AS (SELECT CAST(min(epoch_us(ts) // 86400000000)
                              AS BIGINT) AS lo
                       FROM events)
            SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS cents_sum
            FROM events, g
            WHERE epoch_us(ts) // 86400000000
                  IN (g.lo + 5, g.lo + 10, g.lo + 20)
            GROUP BY day
        """,
        # E7: DISTINCT count + bin()-string bit_length; all-int size
        "e7_dict_size": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            a AS (SELECT doc_id, part_id,
                         CAST(count(*) AS BIGINT) AS n,
                         CAST(count(DISTINCT v) AS BIGINT) AS k
                  FROM s GROUP BY doc_id, part_id),
            b AS (SELECT doc_id, part_id, n, k,
                         CAST(length(ltrim(bin(CAST(k - 1 AS BIGINT)),
                                           '0')) AS BIGINT) AS w
                  FROM a)
            SELECT doc_id, part_id, n, k AS n_distinct,
                   8 + 4 * k + (n * w + 7) // 8 AS n_bytes,
                   CAST(8 + 4 * k + (n * w + 7) // 8 AS DOUBLE)
                       / CAST(n AS DOUBLE) AS bytes_per_token
            FROM b
        """,
        # C10: A71's integer MAD rule + G47's integer fences on ONE
        # series; jaccard the only float
        "c10_detector_agreement": """
            WITH c AS (SELECT event_type,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day,
                              CAST(sum(CAST(floor(value * 100 + 0.5)
                                            AS BIGINT)) AS BIGINT) AS x
                       FROM events GROUP BY event_type, day),
            m AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
                  FROM c GROUP BY event_type),
            rx AS (SELECT event_type, x, day,
                          row_number() OVER (PARTITION BY event_type
                                             ORDER BY x, day) AS rn
                   FROM c),
            med AS (SELECT rx.event_type,
                           CAST(min(rx.x) AS BIGINT) AS med
                    FROM rx JOIN m USING (event_type)
                    WHERE rx.rn = (m.n + 1) // 2
                    GROUP BY rx.event_type),
            q AS (SELECT rx.event_type,
                         CAST(min(CASE WHEN rx.rn = (1 * m.n + 3) // 4
                                  THEN rx.x END) AS BIGINT) AS q1,
                         CAST(min(CASE WHEN rx.rn = (3 * m.n + 3) // 4
                                  THEN rx.x END) AS BIGINT) AS q3
                  FROM rx JOIN m USING (event_type)
                  GROUP BY rx.event_type),
            rd AS (SELECT c.event_type, abs(c.x - med.med) AS dev,
                          row_number() OVER (PARTITION BY c.event_type
                                             ORDER BY abs(c.x
                                                          - med.med),
                                                      c.day) AS rn
                   FROM c JOIN med USING (event_type)),
            mad AS (SELECT rd.event_type,
                           CAST(min(rd.dev) AS BIGINT) AS mad
                    FROM rd JOIN m USING (event_type)
                    WHERE rd.rn = (m.n + 1) // 2
                    GROUP BY rd.event_type),
            fl AS (SELECT c.event_type,
                          (10000 * abs(c.x - med.med)
                           > 51891 * mad.mad) AS fm,
                          (4 * c.x < 4 * q.q1 - 6 * (q.q3 - q.q1)
                           OR 4 * c.x > 4 * q.q3 + 6 * (q.q3 - q.q1))
                              AS ft
                   FROM c JOIN med USING (event_type)
                   JOIN mad USING (event_type)
                   JOIN q USING (event_type)),
            a AS (SELECT event_type,
                         CAST(count(*) AS BIGINT) AS n_days,
                         CAST(sum(CASE WHEN fm THEN 1 ELSE 0 END)
                              AS BIGINT) AS n_mad,
                         CAST(sum(CASE WHEN ft THEN 1 ELSE 0 END)
                              AS BIGINT) AS n_tukey,
                         CAST(sum(CASE WHEN fm AND ft THEN 1 ELSE 0
                                  END) AS BIGINT) AS n_both
                  FROM fl GROUP BY event_type)
            SELECT event_type, n_days, n_mad, n_tukey, n_both,
                   CASE WHEN n_mad + n_tukey - n_both > 0 THEN
                       CAST(n_both AS DOUBLE)
                       / CAST(n_mad + n_tukey - n_both AS DOUBLE)
                   END AS jaccard
            FROM a
        """,
        # D28: the LSH pairs machinery with the audit tail
        "d28_lsh_precision": _emb_lsh_pairs_sql(audit=True),
        # X12: padded-substring containment == the 4-way kernel; all
        # counts exact; one pinned division of exact int products
        "x12_cooccurrence_lift": """
            WITH f AS (SELECT
                (position(' batch ' IN ' ' || text || ' ') > 0)
                    AS h1,
                (position(' stream ' IN ' ' || text || ' ') > 0)
                    AS h2
                FROM documents),
            a AS (SELECT CAST(count(*) AS BIGINT) AS n_docs,
                         CAST(sum(CASE WHEN h1 THEN 1 ELSE 0 END)
                              AS BIGINT) AS n_w1,
                         CAST(sum(CASE WHEN h2 THEN 1 ELSE 0 END)
                              AS BIGINT) AS n_w2,
                         CAST(sum(CASE WHEN h1 AND h2 THEN 1 ELSE 0
                                  END) AS BIGINT) AS n_both
                  FROM f)
            SELECT n_docs, n_w1, n_w2, n_both,
                   CASE WHEN n_w1 > 0 AND n_w2 > 0 THEN
                       (CAST((n_both * n_docs) // 4294967296 AS DOUBLE)
                        * 4294967296.0
                        + CAST((n_both * n_docs) % 4294967296
                               AS DOUBLE))
                       / (CAST((n_w1 * n_w2) // 4294967296 AS DOUBLE)
                          * 4294967296.0
                          + CAST((n_w1 * n_w2) % 4294967296
                                 AS DOUBLE))
                   END AS lift
            FROM a
        """,
        # Q31: both revenue sums exact ints; share = two pinned ops
        "q31_promo_revenue_share": """
            WITH j AS (
                SELECT CAST(floor(l.l_extendedprice * 100 + 0.5)
                            AS BIGINT)
                       * (100 - CAST(floor(l.l_discount * 100 + 0.5)
                                     AS BIGINT)) AS rev,
                       (p.p_type = 'PROMO') AS promo
                FROM lineitem l
                JOIN part p ON l.l_partkey = p.p_partkey
                WHERE l.l_shipdate >= TIMESTAMP '1996-03-01'
                  AND l.l_shipdate < TIMESTAMP '1996-04-01'),
            a AS (SELECT CAST(sum(CASE WHEN promo THEN rev ELSE 0 END)
                              AS BIGINT) AS p,
                         CAST(sum(rev) AS BIGINT) AS t
                  FROM j)
            SELECT p AS promo_rev_x10k, t AS total_rev_x10k,
                   CASE WHEN t > 0 THEN
                       (100.0 * (CAST(p // 4294967296 AS DOUBLE)
                                 * 4294967296.0
                                 + CAST(p % 4294967296 AS DOUBLE)))
                       / (CAST(t // 4294967296 AS DOUBLE)
                          * 4294967296.0
                          + CAST(t % 4294967296 AS DOUBLE))
                   END AS promo_share
            FROM a
        """,
        # Q33: EXISTS with the 90-day inequality; exact day-us compare
        "q33_late_shipment_census": """
            WITH o AS (SELECT o_orderkey, o_orderdate, o_orderpriority
                       FROM orders
                       WHERE o_orderdate >= TIMESTAMP '1996-01-01'
                         AND o_orderdate < TIMESTAMP '1996-07-01')
            SELECT o.o_orderpriority,
                   CAST(count(*) AS BIGINT) AS n_late_orders
            FROM o
            WHERE EXISTS (
                SELECT 1 FROM lineitem l
                WHERE l.l_orderkey = o.o_orderkey
                  AND epoch_us(l.l_shipdate) >
                      epoch_us(o.o_orderdate) + 7776000000000)
            GROUP BY o.o_orderpriority
        """,
        # Q34: integral quantities; HAVING prune then attach + top-k
        "q34_large_volume_orders": """
            WITH s AS (SELECT l_orderkey,
                              CAST(sum(CAST(l_quantity AS BIGINT))
                                   AS BIGINT) AS total_qty
                       FROM lineitem GROUP BY l_orderkey
                       HAVING sum(CAST(l_quantity AS BIGINT)) > 150)
            SELECT s.l_orderkey, s.total_qty, o.o_custkey,
                   o.o_orderdate
            FROM s JOIN orders o ON s.l_orderkey = o.o_orderkey
            ORDER BY s.total_qty DESC, s.l_orderkey
            LIMIT 20
        """,
        # G49: bounded 3-key grid counts + per-type share divisions
        "g49_dow_hour_heatmap": """
            WITH c AS (SELECT event_type,
                              CAST((epoch_us(ts) // 86400000000) % 7
                                   AS BIGINT) AS dow,
                              CAST((epoch_us(ts) // 3600000000) % 24
                                   AS BIGINT) AS hour,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events
                       GROUP BY event_type, dow, hour),
            t AS (SELECT event_type,
                         CAST(sum(n) AS BIGINT) AS type_total
                  FROM c GROUP BY event_type)
            SELECT c.event_type, c.dow, c.hour, c.n, t.type_total,
                   CAST(c.n AS DOUBLE) / CAST(t.type_total AS DOUBLE)
                       AS share
            FROM c JOIN t USING (event_type)
        """,
        # Q28: two tiny aggregates + one pinned division
        "q28_source_reweight": """
            WITH c AS (SELECT source,
                              CAST(count(*) AS BIGINT) AS n_docs
                       FROM documents GROUP BY source),
            t AS (SELECT CAST(sum(n_docs) AS BIGINT) AS n_total,
                         CAST(count(*) AS BIGINT) AS n_sources
                  FROM c)
            SELECT c.source, c.n_docs, t.n_total, t.n_sources,
                   CAST(t.n_total AS DOUBLE)
                       / CAST(c.n_docs * t.n_sources AS DOUBLE)
                       AS weight
            FROM c CROSS JOIN t
        """,
        # W56: distinct active days, rn=1/rn=2 gather, -1 sentinel
        "w56_return_gap_hist": """
            WITH d AS (SELECT DISTINCT user_id,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day
                       FROM events),
            r AS (SELECT user_id, day,
                         row_number() OVER (PARTITION BY user_id
                                            ORDER BY day) AS rn
                  FROM d),
            g AS (SELECT user_id,
                         CAST(min(CASE WHEN rn = 1 THEN day END)
                              AS BIGINT) AS d1,
                         CAST(min(CASE WHEN rn = 2 THEN day END)
                              AS BIGINT) AS d2
                  FROM r GROUP BY user_id)
            SELECT CASE WHEN d2 IS NULL THEN -1
                        ELSE d2 - d1 END AS gap_days,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM g GROUP BY 1
        """,
        # W54: two leads inside the per-user window; sentinel total row
        "w54_pingpong": """
            WITH o AS (SELECT user_id, event_type AS a,
                              lead(event_type, 1) OVER w AS b,
                              lead(event_type, 2) OVER w AS c2
                       FROM events
                       WINDOW w AS (PARTITION BY user_id
                                    ORDER BY ts, event_id)),
            t AS (SELECT * FROM o WHERE c2 IS NOT NULL),
            pp AS (SELECT a AS t_a, b AS t_b,
                          CAST(count(*) AS BIGINT) AS n_pingpong
                   FROM t WHERE a = c2 AND a <> b GROUP BY a, b),
            tot AS (SELECT CAST(count(*) AS BIGINT) AS n_triples FROM t)
            SELECT t_a, t_b, n_pingpong,
                   CAST(0 AS BIGINT) AS n_triples
            FROM pp
            UNION ALL
            SELECT '__total__', '__total__', CAST(0 AS BIGINT),
                   n_triples
            FROM tot WHERE n_triples > 0
        """,
        # W53: (type, hour) counts; rank by (c DESC, hour ASC); one
        # pinned division
        "w53_peak_hour_share": """
            WITH h AS (SELECT event_type,
                              CAST((epoch_us(ts) // 3600000000) % 24
                                   AS BIGINT) AS hour,
                              CAST(count(*) AS BIGINT) AS c
                       FROM events GROUP BY event_type, hour),
            t AS (SELECT event_type, CAST(sum(c) AS BIGINT) AS total_n
                  FROM h GROUP BY event_type),
            b AS (SELECT event_type, hour, c,
                         row_number() OVER (PARTITION BY event_type
                                            ORDER BY c DESC, hour ASC)
                             AS rk
                  FROM h)
            SELECT t.event_type, t.total_n, b.hour AS peak_hour,
                   b.c AS peak_n,
                   CAST(b.c AS DOUBLE) / CAST(t.total_n AS DOUBLE)
                       AS peak_share
            FROM t JOIN b ON b.event_type = t.event_type AND b.rk = 1
        """,
        # G43: G22's lower-quantile read-off (4*cum >= q4*n) at the
        # quartiles; exact x4 trimean, one /4.0 division
        "g43_trimean": """
            WITH h AS (SELECT event_type,
                              CAST(floor(value * 100 + 0.5) AS BIGINT)
                                  AS v,
                              CAST(count(*) AS BIGINT) AS c
                       FROM events GROUP BY event_type, v),
            w AS (SELECT event_type, v,
                         CAST(sum(c) OVER (PARTITION BY event_type
                                           ORDER BY v) AS BIGINT)
                             AS cum,
                         CAST(sum(c) OVER (PARTITION BY event_type)
                              AS BIGINT) AS n
                  FROM h),
            q AS (SELECT event_type, n,
                         CAST(min(CASE WHEN cum * 4 >= 1 * n THEN v
                                  END) AS BIGINT) AS q1_cents,
                         CAST(min(CASE WHEN cum * 4 >= 2 * n THEN v
                                  END) AS BIGINT) AS q2_cents,
                         CAST(min(CASE WHEN cum * 4 >= 3 * n THEN v
                                  END) AS BIGINT) AS q3_cents
                  FROM w GROUP BY event_type, n)
            SELECT event_type, n, q1_cents, q2_cents, q3_cents,
                   q1_cents + 2 * q2_cents + q3_cents AS trimean_x4,
                   CAST(q1_cents + 2 * q2_cents + q3_cents AS DOUBLE)
                       / 4.0 AS trimean_cents
            FROM q
        """,
        # G46: G43's histogram-cumsum quartile read-off + the two
        # pinned Bowley/QCD ratios (NULL on zero denominators)
        "g46_bowley_by_type": """
            WITH h AS (SELECT event_type,
                              CAST(floor(value * 100 + 0.5) AS BIGINT)
                                  AS v,
                              CAST(count(*) AS BIGINT) AS c
                       FROM events GROUP BY event_type, v),
            w AS (SELECT event_type, v,
                         CAST(sum(c) OVER (PARTITION BY event_type
                                           ORDER BY v) AS BIGINT)
                             AS cum,
                         CAST(sum(c) OVER (PARTITION BY event_type)
                              AS BIGINT) AS n
                  FROM h),
            q AS (SELECT event_type, n,
                         CAST(min(CASE WHEN cum * 4 >= 1 * n THEN v
                                  END) AS BIGINT) AS q1_cents,
                         CAST(min(CASE WHEN cum * 4 >= 2 * n THEN v
                                  END) AS BIGINT) AS q2_cents,
                         CAST(min(CASE WHEN cum * 4 >= 3 * n THEN v
                                  END) AS BIGINT) AS q3_cents
                  FROM w GROUP BY event_type, n)
            SELECT event_type, n, q1_cents, q2_cents, q3_cents,
                   CASE WHEN q3_cents > q1_cents THEN
                       CAST(q1_cents + q3_cents - 2 * q2_cents AS DOUBLE)
                       / CAST(q3_cents - q1_cents AS DOUBLE)
                   END AS bowley_skew,
                   CASE WHEN q3_cents + q1_cents <> 0 THEN
                       CAST(q3_cents - q1_cents AS DOUBLE)
                       / CAST(q3_cents + q1_cents AS DOUBLE)
                   END AS qcd
            FROM q
        """,
        # V24: HUGEINT m2 shipped as a 2^32 hi/lo split; the A70
        # split-double division shape for K
        "v24_yule_k": """
            WITH c AS (SELECT source, word,
                              CAST(count(*) AS HUGEINT) AS f
                       FROM (SELECT source,
                                    unnest(string_split(text, ' '))
                                        AS word
                             FROM documents)
                       WHERE word <> '' GROUP BY source, word),
            a AS (SELECT source, CAST(sum(f) AS HUGEINT) AS n,
                         CAST(count(*) AS BIGINT) AS n_types,
                         CAST(sum(f * f) AS HUGEINT) AS m2
                  FROM c GROUP BY source)
            SELECT source, CAST(n AS BIGINT) AS n_words, n_types,
                   CAST(m2 // 4294967296 AS BIGINT) AS m2_hi,
                   CAST(m2 % 4294967296 AS BIGINT) AS m2_lo,
                   (CAST((10000 * (m2 - n)) // 4294967296 AS DOUBLE)
                    * 4294967296.0
                    + CAST((10000 * (m2 - n)) % 4294967296 AS DOUBLE))
                   / (CAST((n * n) // 4294967296 AS DOUBLE)
                      * 4294967296.0
                      + CAST((n * n) % 4294967296 AS DOUBLE)) AS yule_k
            FROM a
        """,
        # V19: two group-bys over V1's word convention
        "v19_freq_spectrum": """
            WITH c AS (
              SELECT word, CAST(count(*) AS BIGINT) AS k
              FROM (SELECT unnest(string_split(text, ' ')) AS word
                    FROM documents)
              WHERE word <> '' GROUP BY word)
            SELECT k, CAST(count(*) AS BIGINT) AS n_types
            FROM c GROUP BY k
        """,
        # T21: sentences = '. ' splits, words = \s+ splits, syllables =
        # vowel-group regex count; the pinned Flesch expression
        "t21_readability": r"""
            WITH c AS (SELECT source,
                CAST(sum(length(list_filter(
                    string_split_regex(text, '\s+'),
                    x -> x <> ''))) AS BIGINT) AS words,
                CAST(sum(length(list_filter(
                    string_split(text, '. '),
                    x -> x <> ''))) AS BIGINT) AS sentences,
                CAST(sum(length(regexp_extract_all(text,
                    '[aeiouAEIOU]+'))) AS BIGINT) AS syllables
              FROM documents GROUP BY source)
            SELECT source, words, sentences, syllables,
                   CASE WHEN words > 0 AND sentences > 0 THEN
                       206.835
                       - 1.015 * (CAST(words AS DOUBLE)
                                  / CAST(sentences AS DOUBLE))
                       - 84.6 * (CAST(syllables AS DOUBLE)
                                 / CAST(words AS DOUBLE))
                   END AS flesch_ease
            FROM c
        """,
        # J18: the real FULL OUTER JOIN both sides aggregated first
        "j18_full_outer_daily": """
            WITH e AS (SELECT CAST(epoch_us(ts) // 86400000000
                              AS BIGINT) AS day,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events WHERE event_type = 'error'
                       GROUP BY day),
            p AS (SELECT CAST(epoch_us(ts) // 86400000000
                         AS BIGINT) AS day,
                         CAST(count(*) AS BIGINT) AS n
                  FROM events WHERE event_type = 'purchase'
                  GROUP BY day)
            SELECT COALESCE(e.day, p.day) AS day,
                   e.n AS err_n, p.n AS purchase_n
            FROM e FULL OUTER JOIN p ON p.day = e.day
        """,
        # S23: shard assignment replayed as event_id % 4
        "s23_sharded_roundtrip": """
            SELECT event_id % 4 AS shard,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS cents_sum
            FROM events GROUP BY shard
        """,
        # G36: n-scaled moments in HUGEINT (s1^4 passes int64); the
        # non-negative 32-bit-split pinned casts, then two float ops
        "g36_kurtosis": """
            WITH base AS (
              SELECT event_type,
                     CAST(json_extract(props, '$.k') AS BIGINT) AS x
              FROM events),
            m AS (
              SELECT event_type, CAST(count(*) AS HUGEINT) AS n,
                     CAST(sum(x) AS HUGEINT) AS s1,
                     CAST(sum(x * x) AS HUGEINT) AS s2,
                     CAST(sum(x * x * x) AS HUGEINT) AS s3,
                     CAST(sum(CAST(x AS HUGEINT) * x * x * x)
                          AS HUGEINT) AS s4
              FROM base GROUP BY event_type),
            c AS (
              SELECT event_type, n,
                     n * s2 - s1 * s1 AS m2s,
                     n * n * n * s4 - 4 * n * n * s1 * s3
                         + 6 * n * s1 * s1 * s2
                         - 3 * s1 * s1 * s1 * s1 AS m4s
              FROM m)
            SELECT event_type, CAST(n AS BIGINT) AS n,
                   CAST(m2s AS BIGINT) AS m2_scaled,
                   CASE WHEN m2s <= 0 THEN NULL
                        ELSE (CAST(m4s // 4294967296 AS DOUBLE)
                              * 4294967296.0
                              + CAST(m4s % 4294967296 AS DOUBLE))
                             / ((CAST(m2s // 4294967296 AS DOUBLE)
                                 * 4294967296.0
                                 + CAST(m2s % 4294967296 AS DOUBLE))
                                * (CAST(m2s // 4294967296 AS DOUBLE)
                                   * 4294967296.0
                                   + CAST(m2s % 4294967296
                                          AS DOUBLE)))
                             - 3.0 END AS kurtosis
            FROM c
        """,
        # X16: symmetric edges; UNION of 1-hop pairs and wedge pairs
        "x16_two_hop_reach": f"""
            WITH {_minhash_cte(0.5)},
            e AS (SELECT CAST(doc_a AS BIGINT) AS u,
                         CAST(doc_b AS BIGINT) AS v FROM mh_pairs
                  UNION ALL
                  SELECT CAST(doc_b AS BIGINT), CAST(doc_a AS BIGINT)
                  FROM mh_pairs),
            r AS (SELECT u, v FROM e
                  UNION
                  SELECT a.u, b.v FROM e a
                  JOIN e b ON a.v = b.u WHERE b.v <> a.u)
            SELECT u AS doc, CAST(count(*) AS BIGINT) AS reach2
            FROM r GROUP BY u
        """,
        # X9: degrees over the same mh_pairs relation, two group-bys
        "x9_dup_degree_hist": f"""
            WITH {_minhash_cte(0.5)},
            deg AS (SELECT doc, CAST(count(*) AS BIGINT) AS degree
                    FROM (SELECT doc_a AS doc FROM mh_pairs
                          UNION ALL SELECT doc_b FROM mh_pairs)
                    GROUP BY doc)
            SELECT degree, CAST(count(*) AS BIGINT) AS n_docs
            FROM deg GROUP BY degree
        """,
        # D20: T17's '. ' sentence convention; (n_occ DESC, sent) top-k
        "d20_top_dup_sentences": """
            SELECT sent, n_occ, n_docs FROM (
                SELECT sent, CAST(count(*) AS BIGINT) AS n_occ,
                       CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs
                FROM (SELECT doc_id,
                             unnest(string_split(text, '. ')) AS sent
                      FROM documents)
                WHERE sent <> ''
                GROUP BY sent)
            ORDER BY n_occ DESC, sent ASC LIMIT 25
        """,
        # W43: SQL median window frame, full windows only; odd-window
        # median of ints is exact
        "w43_rolling_median": """
            WITH o AS (SELECT event_id, user_id,
                              row_number() OVER w AS rn,
                              median(CAST(floor(value * 100 + 0.5)
                                          AS BIGINT)) OVER (
                                  PARTITION BY user_id
                                  ORDER BY ts, event_id
                                  ROWS BETWEEN 4 PRECEDING
                                       AND CURRENT ROW) AS med
                       FROM events
                       WINDOW w AS (PARTITION BY user_id
                                    ORDER BY ts, event_id))
            SELECT event_id, user_id,
                   CAST(med AS BIGINT) AS roll_median_cents
            FROM o WHERE rn >= 5
        """,
        # G35: G15's pinned fold transposed to hours; norm = /ln(24)
        "g35_hourly_entropy": """
            WITH c AS (SELECT event_type,
                              (epoch_us(ts) // 3600000000) % 24 AS hour,
                              count(*) AS n
                       FROM events GROUP BY event_type, hour),
            t AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS total,
                         count(*) AS n_hours
                  FROM c GROUP BY event_type),
            f AS (SELECT c.event_type,
                         any_value(t.total) AS total,
                         any_value(t.n_hours) AS n_hours,
                         list(CAST(c.n AS DOUBLE)
                              / CAST(t.total AS DOUBLE)
                              * ln(CAST(c.n AS DOUBLE)
                                   / CAST(t.total AS DOUBLE))
                              ORDER BY c.hour) AS xs
                  FROM c JOIN t USING (event_type)
                  GROUP BY c.event_type)
            SELECT event_type, total,
                   CAST(n_hours AS BIGINT) AS n_hours,
                   -list_reduce(list_prepend(0.0, xs),
                                (a, b) -> a + b) AS entropy,
                   -list_reduce(list_prepend(0.0, xs),
                                (a, b) -> a + b) / ln(24.0)
                       AS norm_entropy
            FROM f
        """,
        # G34: nearest-rank order stats over the zero-filled day grid —
        # rank inside the implicit zeros block -> 0, else the
        # (rank - zeros)-th smallest present count
        "g34_daily_quantile_band": """
            WITH c AS (SELECT event_type,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY event_type, day),
            g AS (SELECT CAST(max(day) - min(day) + 1 AS BIGINT) AS d
                  FROM c),
            m AS (SELECT event_type,
                         CAST(count(*) AS BIGINT) AS present
                  FROM c GROUP BY event_type),
            o AS (SELECT event_type, n,
                         row_number() OVER (PARTITION BY event_type
                                            ORDER BY n) AS rn
                  FROM c),
            r AS (SELECT m.event_type, g.d, g.d - m.present AS z,
                         CAST(ceil(0.1 * g.d) AS BIGINT) AS r10,
                         CAST(ceil(0.5 * g.d) AS BIGINT) AS r50,
                         CAST(ceil(0.9 * g.d) AS BIGINT) AS r90
                  FROM m CROSS JOIN g)
            SELECT r.event_type, r.d AS n_days,
                   CASE WHEN r.r10 <= r.z THEN 0 ELSE o10.n END AS p10,
                   CASE WHEN r.r50 <= r.z THEN 0 ELSE o50.n END AS p50,
                   CASE WHEN r.r90 <= r.z THEN 0 ELSE o90.n END AS p90
            FROM r
            LEFT JOIN o o10 ON o10.event_type = r.event_type
                            AND o10.rn = r.r10 - r.z
            LEFT JOIN o o50 ON o50.event_type = r.event_type
                            AND o50.rn = r.r50 - r.z
            LEFT JOIN o o90 ON o90.event_type = r.event_type
                            AND o90.rn = r.r90 - r.z
        """,
        # P9: padded = ceil(n/b)*b per part over the tok series, the
        # pinned waste/padded division per bucket
        "p9_padding_waste": f"""
            WITH {_SEQ_TOK_CTE},
            s AS (SELECT doc_id, CAST(pos // 1000000 AS INTEGER)
                             AS part_id,
                         CAST(count(*) AS BIGINT) AS n
                  FROM tok GROUP BY doc_id, part_id),
            b(bucket) AS (VALUES (128), (256), (512), (1024)),
            agg AS (SELECT CAST(b.bucket AS BIGINT) AS bucket,
                           CAST(count(*) AS BIGINT) AS n_docs,
                           CAST(sum(s.n) AS BIGINT) AS total_tokens,
                           CAST(sum(((s.n + b.bucket - 1) // b.bucket)
                                    * b.bucket) AS BIGINT)
                               AS total_padded
                    FROM s CROSS JOIN b GROUP BY b.bucket)
            SELECT bucket, n_docs, total_tokens, total_padded,
                   total_padded - total_tokens AS waste,
                   CAST(total_padded - total_tokens AS DOUBLE)
                       / CAST(total_padded AS DOUBLE) AS waste_frac
            FROM agg
        """,
        # G33: G16's present-cell terms folded in (type, dow) order
        # via list_reduce; V = sqrt(chi2 / (n * min(r-1, c-1)))
        "g33_cramers_v": """
            WITH c AS (
              SELECT event_type,
                     ((epoch_us(ts) // 86400000000) + 3) % 7 AS dow,
                     count(*) AS n
              FROM events GROUP BY event_type, dow),
            m AS (SELECT event_type, dow, n,
                         CAST(sum(n) OVER (PARTITION BY event_type)
                              AS BIGINT) AS rt,
                         CAST(sum(n) OVER (PARTITION BY dow)
                              AS BIGINT) AS ct,
                         CAST(sum(n) OVER () AS BIGINT) AS total
                  FROM c),
            dims AS (SELECT CAST(count(DISTINCT event_type) AS BIGINT)
                                AS r,
                            CAST(count(DISTINCT dow) AS BIGINT) AS cc,
                            CAST(sum(n) AS BIGINT) AS total
                     FROM c),
            fold AS (SELECT list_reduce(list_prepend(0.0, list(
                         (CAST(n AS DOUBLE)
                          - CAST(rt * ct AS DOUBLE)
                            / CAST(total AS DOUBLE))
                         * (CAST(n AS DOUBLE)
                            - CAST(rt * ct AS DOUBLE)
                              / CAST(total AS DOUBLE))
                         / (CAST(rt * ct AS DOUBLE)
                            / CAST(total AS DOUBLE))
                         ORDER BY event_type, dow)),
                         (x, y) -> x + y) AS chi2
                     FROM m)
            SELECT dims.r AS n_types, dims.cc AS n_dows,
                   dims.total AS n, fold.chi2,
                   CASE WHEN least(dims.r - 1, dims.cc - 1) > 0
                        THEN sqrt(fold.chi2
                                  / (CAST(dims.total AS DOUBLE)
                                     * CAST(least(dims.r - 1,
                                                  dims.cc - 1)
                                            AS DOUBLE)))
                   END AS cramers_v
            FROM dims, fold
        """,
        # W42: straight grouped aggregates (the engine pre-collapses
        # (user, day) partials; DISTINCT day == the day-run count)
        "w42_user_profile": """
            SELECT user_id,
                   CAST(min(epoch_us(ts) // 86400000000) AS BIGINT)
                       AS first_day,
                   CAST(max(epoch_us(ts) // 86400000000) AS BIGINT)
                       AS last_day,
                   CAST(count(DISTINCT epoch_us(ts) // 86400000000)
                        AS BIGINT) AS n_active_days,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS total_cents
            FROM events GROUP BY user_id
        """,
        # V17: the two token_counts conventions in one pinned ratio
        "v17_subword_fertility": r"""
            WITH c AS (SELECT source,
                CAST(sum(length(list_filter(
                    string_split_regex(text, '\s+'),
                    x -> x <> ''))) AS BIGINT) AS words,
                CAST(sum(length(regexp_extract_all(text,
                    '[A-Za-z]+|[0-9]|[^A-Za-z0-9\s]')))
                    AS BIGINT) AS bpe
              FROM documents GROUP BY source)
            SELECT source, words, bpe,
                   CASE WHEN words > 0
                        THEN CAST(bpe AS DOUBLE)
                             / CAST(words AS DOUBLE)
                   END AS fertility
            FROM c
        """,
        # T20: byte classes via char-class strips; continuation bytes =
        # octet_length - length; other = the remainder (lead bytes +
        # ASCII punctuation), exactly the engine's lookup-table classes
        "t20_charset_profile": """
            WITH c AS (SELECT source,
                CAST(sum(octet_length(encode(text))) AS BIGINT)
                    AS n_bytes,
                CAST(sum(length(regexp_replace(text, '[^A-Za-z]',
                    '', 'g'))) AS BIGINT) AS alpha,
                CAST(sum(length(regexp_replace(text, '[^0-9]',
                    '', 'g'))) AS BIGINT) AS digit,
                CAST(sum(length(regexp_replace(text,
                    '[^\\t\\n\\x0B\\f\\r ]', '', 'g'))) AS BIGINT)
                    AS ws,
                CAST(sum(octet_length(encode(text)) - length(text))
                    AS BIGINT) AS cont
              FROM documents GROUP BY source)
            SELECT source, n_bytes, alpha, digit, ws, cont,
                   n_bytes - alpha - digit - ws - cont AS other,
                   CAST(alpha AS DOUBLE) / CAST(n_bytes AS DOUBLE)
                       AS alpha_share,
                   CAST(digit AS DOUBLE) / CAST(n_bytes AS DOUBLE)
                       AS digit_share,
                   CAST(ws AS DOUBLE) / CAST(n_bytes AS DOUBLE)
                       AS ws_share,
                   CAST(cont AS DOUBLE) / CAST(n_bytes AS DOUBLE)
                       AS cont_share,
                   CAST(n_bytes - alpha - digit - ws - cont AS DOUBLE)
                       / CAST(n_bytes AS DOUBLE) AS other_share
            FROM c
        """,
        # E4: LEB128 width thresholds on zigzag deltas; 4 fixed header
        # bytes; parity with the real encoder is pytest-gated
        "e4_varint_size": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            d AS (SELECT doc_id, part_id,
                         v - lag(v) OVER (PARTITION BY doc_id, part_id
                                          ORDER BY i) AS dd
                  FROM s),
            z AS (SELECT doc_id, part_id,
                         CASE WHEN dd >= 0 THEN 2 * dd
                              ELSE -2 * dd - 1 END AS zz
                  FROM d WHERE dd IS NOT NULL),
            b AS (SELECT doc_id, part_id,
                         CAST(sum(1
                              + CASE WHEN zz >= 128 THEN 1 ELSE 0 END
                              + CASE WHEN zz >= 16384 THEN 1
                                     ELSE 0 END
                              + CASE WHEN zz >= 2097152 THEN 1
                                     ELSE 0 END
                              + CASE WHEN zz >= 268435456 THEN 1
                                     ELSE 0 END) AS BIGINT) AS vb
                  FROM z GROUP BY doc_id, part_id),
            nn AS (SELECT doc_id, part_id,
                          CAST(count(*) AS BIGINT) AS n
                   FROM s GROUP BY doc_id, part_id)
            SELECT nn.doc_id, nn.part_id, nn.n,
                   CAST(4 + COALESCE(b.vb, 0) AS BIGINT) AS n_bytes,
                   CAST(4 + COALESCE(b.vb, 0) AS DOUBLE)
                       / CAST(nn.n AS DOUBLE) AS bytes_per_token
            FROM nn LEFT JOIN b USING (doc_id, part_id)
        """,
        # G31: W41's zero-fill identity; D = (n*Q - T^2) / (n*T)
        "g31_dispersion_index": """
            WITH c AS (SELECT event_type,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY event_type, day),
            g AS (SELECT CAST(max(day) - min(day) + 1 AS BIGINT) AS d
                  FROM c),
            m AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS total,
                         CAST(sum(n * n) AS BIGINT) AS sumsq
                  FROM c GROUP BY event_type)
            SELECT m.event_type, g.d AS n_days, m.total, m.sumsq,
                   CASE WHEN m.total > 0
                        THEN CAST(g.d * m.sumsq
                                  - m.total * m.total AS DOUBLE)
                             / CAST(g.d * m.total AS DOUBLE)
                   END AS dispersion
            FROM m CROSS JOIN g
        """,
        # W41: zero-fill identity (grid sums == present-row sums);
        # r = num / (sqrt(d1) * sqrt(d2)) of exact ints
        "w41_daily_type_corr": """
            WITH c AS (SELECT event_type,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY event_type, day),
            g AS (SELECT CAST(max(day) - min(day) + 1 AS BIGINT) AS d
                  FROM c),
            m AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS sx,
                         CAST(sum(n * n) AS BIGINT) AS sxx
                  FROM c GROUP BY event_type),
            x AS (SELECT a.event_type AS ta, b.event_type AS tb,
                         CAST(sum(a.n * b.n) AS BIGINT) AS sxy
                  FROM c a JOIN c b ON a.day = b.day
                                    AND a.event_type < b.event_type
                  GROUP BY ta, tb)
            SELECT ma.event_type AS type_a, mb.event_type AS type_b,
                   g.d AS n_days,
                   COALESCE(x.sxy, 0) AS sxy,
                   CASE WHEN g.d * ma.sxx - ma.sx * ma.sx > 0
                             AND g.d * mb.sxx - mb.sx * mb.sx > 0
                        THEN CAST(g.d * COALESCE(x.sxy, 0)
                                  - ma.sx * mb.sx AS DOUBLE)
                             / (sqrt(CAST(g.d * ma.sxx
                                          - ma.sx * ma.sx AS DOUBLE))
                                * sqrt(CAST(g.d * mb.sxx
                                            - mb.sx * mb.sx
                                            AS DOUBLE)))
                   END AS r
            FROM m ma
            JOIN m mb ON ma.event_type < mb.event_type
            CROSS JOIN g
            LEFT JOIN x ON x.ta = ma.event_type
                        AND x.tb = mb.event_type
        """,
        # A62: three A32-style exact argmaxes (prune + HUGEINT confirm)
        "a62_binseg": _a62_sql(),
        # A61: A52's decomposition CTE chain, remainder x4 = exact int,
        # A9 ACF in HUGEINT (x4 scaling can push n^2*Sxy past BIGINT)
        "a61_remainder_acf": f"""
            WITH {_SEQ_TOK_CTE},
            raw AS MATERIALIZED (
              SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                     pos % 1000000 AS i, CAST(v AS DOUBLE) AS x0
              FROM tok),
            phm AS MATERIALIZED (
              SELECT doc_id, part_id, i % 24 AS ph, median(x0) AS pmed
              FROM raw GROUP BY doc_id, part_id, i % 24),
            dbase AS MATERIALIZED (
              SELECT r.doc_id, r.part_id, r.i, r.x0 - p.pmed AS x
              FROM raw r JOIN phm p ON p.doc_id = r.doc_id
                AND p.part_id = r.part_id AND p.ph = r.i % 24),
            cym AS MATERIALIZED (
              SELECT doc_id, part_id, i // 24 AS cyc, median(x) AS tmed
              FROM dbase GROUP BY doc_id, part_id, i // 24),
            res AS MATERIALIZED (
              SELECT d.doc_id, d.part_id, d.i,
                     CAST(4 * (d.x - c.tmed) AS BIGINT) AS r4
              FROM dbase d JOIN cym c ON c.doc_id = d.doc_id
                AND c.part_id = d.part_id AND c.cyc = d.i // 24),
            mom AS MATERIALIZED (
              SELECT doc_id, part_id, CAST(count(*) AS HUGEINT) AS n,
                     CAST(sum(r4) AS HUGEINT) AS s,
                     CAST(sum(CAST(r4 AS HUGEINT) * r4) AS HUGEINT)
                         AS q
              FROM res GROUP BY doc_id, part_id),
            lp AS (SELECT a.doc_id, a.part_id,
                          CAST(sum(CAST(a.r4 AS HUGEINT) * b.r4)
                               AS HUGEINT) AS sxy,
                          CAST(sum(a.r4) AS HUGEINT) AS sh,
                          CAST(sum(b.r4) AS HUGEINT) AS st
                   FROM res a JOIN res b ON b.doc_id = a.doc_id
                     AND b.part_id = a.part_id AND b.i = a.i + 24
                   GROUP BY a.doc_id, a.part_id),
            nd AS (SELECT m.doc_id, m.part_id, m.n,
                          m.n * m.n * l.sxy - m.n * m.s * (l.sh + l.st)
                              + (m.n - 24) * m.s * m.s AS num,
                          m.n * m.n * m.q - m.n * m.s * m.s AS den
                   FROM mom m LEFT JOIN lp l
                     ON l.doc_id = m.doc_id AND l.part_id = m.part_id)
            SELECT doc_id, part_id, CAST(n AS BIGINT) AS n,
                   CASE WHEN n > 24 AND den <> 0 THEN
                       (CASE WHEN num >= 0
                             THEN CAST(num // 4294967296 AS DOUBLE)
                                  * 4294967296.0
                                  + CAST(num % 4294967296 AS DOUBLE)
                             ELSE -(CAST((-num) // 4294967296
                                         AS DOUBLE) * 4294967296.0
                                    + CAST((-num) % 4294967296
                                           AS DOUBLE)) END)
                       / (CAST(den // 4294967296 AS DOUBLE)
                          * 4294967296.0
                          + CAST(den % 4294967296 AS DOUBLE))
                   END AS acf_resid
            FROM nd
        """,
        # A59: exact-int argmax of the A9 numerators over the lag grid
        "a59_period_detect": _a59_sql(),
        # A58: complete 24-cycles are blocks, midranks within block;
        # s4 = 4*sum R_j^2 exact; chi2 = 3*s4/(bp(p+1)) - 3b(p+1)
        "a58_friedman_phases": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            nn AS MATERIALIZED (
                SELECT doc_id, part_id, CAST(count(*) AS BIGINT) AS n
                FROM s GROUP BY doc_id, part_id),
            u AS MATERIALIZED (
                SELECT s.doc_id, s.part_id, s.i, s.v,
                       s.i // 24 AS blk, s.i % 24 AS phase
                FROM s JOIN nn ON nn.doc_id = s.doc_id
                               AND nn.part_id = s.part_id
                WHERE s.i < (nn.n // 24) * 24),
            r AS (SELECT *, row_number() OVER (
                      PARTITION BY doc_id, part_id, blk
                      ORDER BY v, i) AS rn
                  FROM u),
            mr AS (SELECT *, min(rn) OVER (PARTITION BY doc_id,
                              part_id, blk, v)
                          + max(rn) OVER (PARTITION BY doc_id,
                              part_id, blk, v) AS mr2
                   FROM r),
            ph AS (SELECT doc_id, part_id, phase,
                          CAST(sum(mr2) AS BIGINT) AS r2
                   FROM mr GROUP BY doc_id, part_id, phase),
            agg AS (SELECT doc_id, part_id,
                           CAST(sum(r2 * r2) AS BIGINT) AS s4
                    FROM ph GROUP BY doc_id, part_id)
            SELECT nn.doc_id, nn.part_id, nn.n,
                   nn.n // 24 AS n_blocks,
                   COALESCE(agg.s4, 0) AS s4,
                   CASE WHEN nn.n // 24 >= 1
                        THEN 3.0 * CAST(agg.s4 AS DOUBLE)
                             / CAST((nn.n // 24) * 24 * 25 AS DOUBLE)
                             - 3.0 * CAST((nn.n // 24) * 25 AS DOUBLE)
                   END AS chi2_friedman
            FROM nn LEFT JOIN agg USING (doc_id, part_id)
        """,
        # A28 SAX: frame-of(i) = 8*i // n (ceil frame boundaries), exact
        # int frame/series sums, the pinned comparison
        #   CAST(Fs*n - S*Fl AS DOUBLE) < b * (CAST(Fl AS DOUBLE)
        #       * sqrt(CAST(n*Q - S*S AS DOUBLE)))
        # per breakpoint b in (-0.6745, 0, 0.6745); string_agg ORDER BY f
        "a28_sax": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            st AS MATERIALIZED (
                SELECT doc_id, part_id, CAST(count(*) AS BIGINT) AS n,
                       CAST(sum(v) AS BIGINT) AS s_sum,
                       CAST(sum(v * v) AS BIGINT) AS q_sum
                FROM s GROUP BY doc_id, part_id),
            fr AS MATERIALIZED (
                SELECT s.doc_id, s.part_id,
                       CAST(8 * s.i // st.n AS BIGINT) AS f,
                       CAST(sum(s.v) AS BIGINT) AS fs,
                       CAST(count(*) AS BIGINT) AS fl
                FROM s JOIN st USING (doc_id, part_id)
                GROUP BY s.doc_id, s.part_id, 8 * s.i // st.n),
            fr8 AS (SELECT doc_id, part_id, unnest(range(8)) AS f FROM st),
            frx AS (
                SELECT fr8.doc_id, fr8.part_id, fr8.f,
                       COALESCE(fr.fs, 0) AS fs, COALESCE(fr.fl, 0) AS fl
                FROM fr8 LEFT JOIN fr ON fr.doc_id = fr8.doc_id
                     AND fr.part_id = fr8.part_id AND fr.f = fr8.f),
            sym AS (
                SELECT frx.doc_id, frx.part_id, frx.f,
                       CASE WHEN frx.fl = 0 THEN '_'
                            WHEN CAST(frx.fs * st.n
                                      - st.s_sum * frx.fl AS DOUBLE)
                                 < -0.6745 * (CAST(frx.fl AS DOUBLE)
                                   * sqrt(CAST(st.n * st.q_sum
                                     - st.s_sum * st.s_sum AS DOUBLE)))
                                THEN 'a'
                            WHEN CAST(frx.fs * st.n
                                      - st.s_sum * frx.fl AS DOUBLE) < 0.0
                                THEN 'b'
                            WHEN CAST(frx.fs * st.n
                                      - st.s_sum * frx.fl AS DOUBLE)
                                 < 0.6745 * (CAST(frx.fl AS DOUBLE)
                                   * sqrt(CAST(st.n * st.q_sum
                                     - st.s_sum * st.s_sum AS DOUBLE)))
                                THEN 'c'
                            ELSE 'd' END AS sym
                FROM frx JOIN st USING (doc_id, part_id))
            SELECT st.doc_id, st.part_id, st.n, st.s_sum,
                   (SELECT string_agg(sym, '' ORDER BY f) FROM sym
                    WHERE sym.doc_id = st.doc_id
                      AND sym.part_id = st.part_id) AS sax
            FROM st
        """,
        # A23 Tukey fences: quantile_cont interpolation == engine lerp
        "a23_tukey_fences": f"""
            WITH {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       CAST(v AS DOUBLE) AS x FROM tok),
            q AS (SELECT doc_id, part_id, count(*) AS n,
                         quantile_cont(x, 0.25) AS q1,
                         quantile_cont(x, 0.75) AS q3
                  FROM s GROUP BY doc_id, part_id)
            SELECT q.doc_id, q.part_id, q.n, q.q1, q.q3,
                   q.q3 - q.q1 AS iqr,
                   CAST(count(*) FILTER
                        (s.x < q.q1 - 1.5 * (q.q3 - q.q1)) AS BIGINT)
                       AS n_low_outliers,
                   CAST(count(*) FILTER
                        (s.x > q.q3 + 1.5 * (q.q3 - q.q1)) AS BIGINT)
                       AS n_high_outliers
            FROM q JOIN s USING (doc_id, part_id)
            GROUP BY q.doc_id, q.part_id, q.n, q.q1, q.q3
        """,
        "detect_shesd": _esd_sql(season_period=24),
        # A8b seasonal components: phase medians, exact halves
        "a8_seasonal_components": f"""
            WITH {_SEQ_TOK_CTE},
            raw AS (
              SELECT doc_id, CAST(pos // 1000000 AS BIGINT) AS part_id,
                     pos % 1000000 AS i, CAST(v AS DOUBLE) AS x FROM tok)
            SELECT doc_id, part_id, i % 24 AS phase,
                   count(*) AS n, median(x) AS phase_median
            FROM raw GROUP BY doc_id, part_id, i % 24
        """,
        # A13 longest run: gaps-and-islands over the above-mean condition
        "a13_longest_run": f"""
            WITH {_SEQ_TOK_CTE},
            base AS MATERIALIZED (
              SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                     pos % 1000000 AS i, CAST(v AS DOUBLE) AS x FROM tok),
            w AS (
              SELECT doc_id, part_id, i, x,
                     avg(x) OVER (PARTITION BY doc_id, part_id) AS m,
                     count(*) OVER (PARTITION BY doc_id, part_id) AS n
              FROM base),
            ab AS (SELECT doc_id, part_id, i, n FROM w WHERE x > m),
            isl AS (
              SELECT doc_id, part_id, n,
                     i - row_number() OVER (PARTITION BY doc_id, part_id
                                            ORDER BY i) AS grp
              FROM ab),
            runs AS (
              SELECT doc_id, part_id, any_value(n) AS n, grp,
                     count(*) AS rl
              FROM isl GROUP BY doc_id, part_id, grp),
            per AS (
              SELECT doc_id, part_id, any_value(n) AS n,
                     CAST(sum(rl) AS BIGINT) AS n_above,
                     CAST(max(rl) AS BIGINT) AS longest_run
              FROM runs GROUP BY doc_id, part_id),
            allp AS (
              SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                     count(*) AS n
              FROM tok GROUP BY doc_id, part_id)
            SELECT a.doc_id, a.part_id, a.n,
                   COALESCE(p.n_above, 0) AS n_above,
                   COALESCE(p.longest_run, 0) AS longest_run
            FROM allp a LEFT JOIN per p
              ON p.doc_id = a.doc_id AND p.part_id = a.part_id
        """,
        # A9 lag-k ACF: exact BIGINT moment sums (sum() of BIGINT is
        # HUGEINT in DuckDB — cast back so the final division casts a
        # correctly-rounded BIGINT, the same pinned ops as the engine);
        # self-join on i = i + lag supplies the lagged products
        "a9_autocorr": f"""
            WITH {_SEQ_TOK_CTE},
            base AS MATERIALIZED (
              SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                     pos % 1000000 AS i, CAST(v AS BIGINT) AS v FROM tok),
            mom AS (
              SELECT doc_id, part_id, count(*) AS n,
                     CAST(sum(v) AS BIGINT) AS s,
                     CAST(sum(v * v) AS BIGINT) AS q
              FROM base GROUP BY doc_id, part_id),
            lagp AS (
              SELECT a.doc_id, a.part_id, count(*) AS c,
                     CAST(sum(a.v * b.v) AS BIGINT) AS sxy,
                     CAST(sum(a.v) AS BIGINT) AS sh,
                     CAST(sum(b.v) AS BIGINT) AS st
              FROM base a JOIN base b ON b.doc_id = a.doc_id
                AND b.part_id = a.part_id AND b.i = a.i + 24
              GROUP BY a.doc_id, a.part_id)
            SELECT m.doc_id, m.part_id, CAST(24 AS BIGINT) AS lag, m.n,
                   COALESCE(l.c, 0) AS n_pairs,
                   CASE WHEN m.n > 24 AND m.n * m.q - m.s * m.s <> 0
                        THEN CAST(m.n * m.n * l.sxy
                                  - m.n * m.s * (l.sh + l.st)
                                  + (m.n - 24) * m.s * m.s AS DOUBLE)
                             / CAST(m.n * m.n * m.q
                                    - m.n * m.s * m.s AS DOUBLE)
                        ELSE NULL END AS acf
            FROM mom m LEFT JOIN lagp l
              ON l.doc_id = m.doc_id AND l.part_id = m.part_id
        """,
        # A2 EWMA control chart: the recurrence runs as a recursive CTE
        # (MATERIALIZED inputs — otherwise DuckDB re-evaluates the
        # tokenizer CTE every iteration).  The engine's blocked-scan EWMA
        # differs from the sequential recurrence only in last-bit float
        # rounding; the OUTPUT is integer flag summaries whose comparison
        # margins are many orders of magnitude above ulp level, verified
        # exact on the driver data (500/500)
        "detect_ewma": f"""
            WITH RECURSIVE {_SEQ_TOK_CTE},
            s AS MATERIALIZED (
                SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                       pos % 1000000 AS i, CAST(v AS DOUBLE) AS x FROM tok),
            n AS MATERIALIZED (
                SELECT doc_id, part_id, count(*) AS len FROM s
                GROUP BY doc_id, part_id),
            rec AS (
              SELECT doc_id, part_id, CAST(0 AS BIGINT) AS i, x AS sv
              FROM s WHERE i = 0
              UNION ALL
              SELECT s2.doc_id, s2.part_id, s2.i, 0.1 * s2.x + 0.9 * rec.sv
              FROM rec JOIN s s2 ON s2.doc_id = rec.doc_id
                                AND s2.part_id = rec.part_id
                                AND s2.i = rec.i + 1
            ),
            resid AS (SELECT s.doc_id, s.part_id, s.i, s.x - r.sv AS rv
                      FROM s
                      JOIN rec r ON r.doc_id = s.doc_id
                                AND r.part_id = s.part_id AND r.i = s.i - 1
                      JOIN n ON n.doc_id = s.doc_id AND n.part_id = s.part_id
                      WHERE n.len >= 3),
            stats AS (SELECT doc_id, part_id, median(rv) AS med, mad(rv) AS madv
                      FROM resid GROUP BY doc_id, part_id),
            flags AS (SELECT r.doc_id, r.part_id, r.i
                      FROM resid r JOIN stats st ON st.doc_id = r.doc_id
                                               AND st.part_id = r.part_id
                      WHERE st.madv <> 0
                        AND abs(r.rv - st.med) > 4.0 * (1.4826 * st.madv)),
            g AS (SELECT doc_id, part_id, count(*) AS n_anomalies,
                         sum(i) AS pos_sum, sum(i * i) AS pos_sumsq
                  FROM flags GROUP BY doc_id, part_id),
            parts AS (SELECT doc_id,
                             CAST(unnest(range(0, greatest(CAST(ceil(
                                 CAST(len(toks) AS DOUBLE) / 1000000) AS BIGINT), 1)))
                                 AS INTEGER) AS part_id
                      FROM seq)
            SELECT parts.doc_id, parts.part_id, 'ewma' AS detector,
                   COALESCE(g.n_anomalies, 0) AS n_anomalies,
                   CAST(COALESCE(g.pos_sum, 0) AS BIGINT) AS pos_sum,
                   CAST(COALESCE(g.pos_sumsq, 0) AS BIGINT) AS pos_sumsq
            FROM parts LEFT JOIN g
              ON parts.doc_id = g.doc_id AND parts.part_id = g.part_id
        """,
        "m3_token_fns": f"""
            WITH {_SEQ_TOK_CTE},
            parts AS (
                SELECT doc_id,
                       CAST(unnest(range(0, greatest(CAST(ceil(
                           CAST(len(toks) AS DOUBLE) / 1000000) AS BIGINT), 1)))
                           AS INTEGER) AS part_id
                FROM seq),
            m AS (SELECT doc_id, CAST(pos // 1000000 AS INTEGER) AS part_id,
                         pos % 1000000 AS i, v FROM tok),
            ck AS (SELECT doc_id, part_id,
                          sum((CAST(v AS BIGINT) % 1024 + 1) * (i + 1)) AS remap_ck,
                          sum((CAST(least(greatest(v, 0), 499) AS BIGINT) + 1)
                              * (i + 1)) AS clamp_ck,
                          string_agg(CAST(v AS VARCHAR), ',' ORDER BY i)
                              FILTER (WHERE i < 8) AS head8
                   FROM m GROUP BY doc_id, part_id)
            SELECT parts.doc_id, parts.part_id,
                   CAST(COALESCE(ck.remap_ck, 0) AS BIGINT) AS remap_ck,
                   CAST(COALESCE(ck.clamp_ck, 0) AS BIGINT) AS clamp_ck,
                   COALESCE(ck.head8, '') AS head8
            FROM parts LEFT JOIN ck
              ON parts.doc_id = ck.doc_id AND parts.part_id = ck.part_id
        """,
        "g3_token_value_quantiles": f"""
            WITH {_SEQ_TOK_CTE},
            cnt AS (SELECT source, v, count(*) AS c FROM tok GROUP BY source, v),
            cum AS (SELECT source, v,
                           sum(c) OVER (PARTITION BY source ORDER BY v) AS cm,
                           sum(c) OVER (PARTITION BY source) AS tot
                    FROM cnt)
            SELECT source, CAST(any_value(tot) AS BIGINT) AS n_tokens,
                   CAST(min(CASE WHEN cm >= greatest(CAST(ceil(0.5 * tot) AS BIGINT), 1)
                            THEN v END) AS BIGINT) AS p50,
                   CAST(min(CASE WHEN cm >= greatest(CAST(ceil(0.9 * tot) AS BIGINT), 1)
                            THEN v END) AS BIGINT) AS p90,
                   CAST(min(CASE WHEN cm >= greatest(CAST(ceil(0.99 * tot) AS BIGINT), 1)
                            THEN v END) AS BIGINT) AS p99
            FROM cum GROUP BY source
        """,
        "d2_union_tiers": """
            WITH d AS (SELECT greatest(octet_length(encode(text)) - 3, 0) AS n
                       FROM documents)
            SELECT CAST(1 AS TINYINT) AS tier,
                   CAST(sum((n + 999) // 1000) AS BIGINT) AS "rows",
                   CAST(sum(n) AS BIGINT) AS points FROM d
            UNION ALL
            SELECT CAST(2 AS TINYINT) AS tier,
                   CAST(sum((n + 9999) // 10000) AS BIGINT) AS "rows",
                   CAST(sum(n) AS BIGINT) AS points FROM d
        """,
        "q3_sample_lineitem": """
            SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem
            WHERE ((l_orderkey * 2654435761 + l_linenumber * 40503)
                   % 4294967296) % 10000 < 100
        """,
        # Q4 stratified per-group sampling: per-source rate rule + the q3
        # membership hash, both reproduced literally
        "q4_stratified_sample": """
            SELECT doc_id, source, n_chars FROM documents
            WHERE ((doc_id * 2654435761) % 4294967296) % 10000
                  < 100 * (1 + length(source) % 7)
        """,
        # Q5 grouped top-k (per event_type, value desc / event_id tiebreak)
        "q5_grouped_topk": """
            SELECT event_id, event_type, value FROM (
                SELECT event_id, event_type, value,
                       row_number() OVER (PARTITION BY event_type
                                          ORDER BY value DESC, event_id) AS rn
                FROM events) WHERE rn <= 3
        """,
        # J6 co-partitioned anti join: customers with no high-value order
        "j6_anti_join": """
            SELECT c_custkey, c_name, c_acctbal FROM customer c
            WHERE NOT EXISTS (
                SELECT 1 FROM orders o
                WHERE o.o_custkey = c.c_custkey
                  AND o.o_totalprice > 400000.0)
        """,
        "lang_id": _langid_sql,
        # T5 mix table: the lang-ID prediction joined back to source
        "t5_lang_mix": f"""
            WITH pl AS (SELECT doc_id, pred_lang FROM ({_langid_sql}))
            SELECT d.source, pl.pred_lang, CAST(count(*) AS BIGINT) AS n_docs
            FROM pl JOIN documents d USING (doc_id)
            GROUP BY d.source, pl.pred_lang
        """,
        "quality_scores_full": _quality_sql,
        # C1 curation funnel: quality gate -> language gate -> exact
        # dedup -> per-source quota, counted per source at every stage —
        # the end-to-end corpus-curation composition
                "c5_quality_mixture_pack": f"""
            WITH ql AS (SELECT doc_id, quality_score
                        FROM ({_quality_sql})),
            pass AS MATERIALIZED (
                SELECT d.doc_id, d.source,
                       CAST(length(list_filter(string_split(d.text, ' '),
                            x -> x <> '')) AS BIGINT) AS n_tok
                FROM documents d JOIN ql USING (doc_id)
                WHERE ql.quality_score >= 0.6),
            w AS (SELECT source, sqrt(CAST(count(*) AS DOUBLE)) AS wgt
                  FROM pass GROUP BY source),
            tot AS (SELECT list_reduce(list_prepend(0.0,
                               list(wgt ORDER BY source)),
                               (a, b) -> a + b) AS W FROM w),
            q AS (SELECT source,
                         CAST(floor(CAST(150 AS DOUBLE) * wgt / tot.W)
                              AS BIGINT) AS quota
                  FROM w, tot),
            h AS (SELECT doc_id, source, n_tok,
                         CAST((CAST(xor(doc_id % 4294967296,
                                        {(7 * 2654435761) & 0xFFFFFFFF})
                                    AS HUGEINT) * 2654435761)
                              % 4294967296 AS BIGINT) AS h
                  FROM pass),
            r AS (SELECT *, CAST(row_number() OVER (PARTITION BY source
                               ORDER BY h, doc_id) - 1 AS BIGINT)
                               AS smp_rank
                  FROM h),
            sel AS MATERIALIZED (
                SELECT r.doc_id, r.source, r.n_tok, r.smp_rank
                FROM r JOIN q USING (source)
                WHERE r.smp_rank < q.quota),
            p AS (SELECT doc_id, source, n_tok, smp_rank,
                         CAST(COALESCE(sum(n_tok) OVER (ORDER BY doc_id
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING), 0) AS BIGINT)
                             AS tok_offset
                  FROM sel)
            SELECT doc_id, source, n_tok, smp_rank, tok_offset,
                   tok_offset // 256 AS seq_id
            FROM p
        """,
"curation_funnel": f"""
            WITH ql AS (SELECT doc_id, quality_score FROM ({_quality_sql})),
            pl AS (SELECT doc_id, pred_lang FROM ({_langid_sql})),
            pass AS MATERIALIZED (
                SELECT d.doc_id, d.source, d.text
                FROM documents d JOIN ql USING (doc_id) JOIN pl USING (doc_id)
                WHERE ql.quality_score >= 0.6 AND pl.pred_lang = 'en'),
            canon AS MATERIALIZED (
                SELECT min(doc_id) AS doc_id FROM pass GROUP BY md5(text)),
            cs AS (SELECT p.source, c.doc_id
                   FROM canon c JOIN pass p USING (doc_id)),
            hq AS (SELECT source, doc_id,
                          CAST((CAST(xor(doc_id % 4294967296,
                                         {(7 * 2654435761) & 0xFFFFFFFF})
                                     AS HUGEINT) * 2654435761)
                               % 4294967296 AS BIGINT) AS h
                   FROM cs),
            r AS (SELECT source, row_number() OVER (PARTITION BY source
                             ORDER BY h, doc_id) AS rn FROM hq),
            kept AS (SELECT source, CAST(count(*) AS BIGINT) AS n_kept
                     FROM r WHERE rn <= 15 GROUP BY source),
            qc AS (SELECT source, CAST(count(*) AS BIGINT) AS n_quality
                   FROM pass GROUP BY source),
            uc AS (SELECT source, CAST(count(*) AS BIGINT) AS n_unique
                   FROM cs GROUP BY source),
            ic AS (SELECT source, CAST(count(*) AS BIGINT) AS n_in
                   FROM documents GROUP BY source)
            SELECT ic.source, ic.n_in,
                   COALESCE(qc.n_quality, 0) AS n_quality,
                   COALESCE(uc.n_unique, 0) AS n_unique,
                   COALESCE(kept.n_kept, 0) AS n_kept
            FROM ic LEFT JOIN qc USING (source) LEFT JOIN uc USING (source)
                    LEFT JOIN kept USING (source)
        """,
        "dedup_embedding_pairs": _emb_lsh_pairs_sql(),
        "dedup_embedding_allpairs": """
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.3
        """,
        # winnowing-style fingerprint: the 16-byte rolling polynomial hash is
        # reproduced with precomputed M^k mod 2^32 constants; the crc32
        # fallback for rows shorter than the window cannot be expressed in
        # SQL, but no driver document is that short (min length ~47 bytes)
        "doc_fingerprints": _FP_SQL,
        "dedup_simhash_pairs": _simhash_pairs_sql(),
        "dedup_minhash_pairs": _minhash_pairs_sql(),
        # D9 cross-source dup matrix: the same LSH pair SQL as a CTE,
        # source labels by join, exact integer k = est*64 recovered,
        # one pinned multiply+divide for the mean
        "d9_cross_source_matrix": f"""
            WITH pairs AS ({_minhash_pairs_sql()}),
            lab AS (
              SELECT least(da.source, db.source) AS source_a,
                     greatest(da.source, db.source) AS source_b,
                     CAST(floor(p.est_jaccard * 64 + 0.5) AS BIGINT) AS k
              FROM pairs p
              JOIN documents da ON da.doc_id = p.doc_a
              JOIN documents db ON db.doc_id = p.doc_b)
            SELECT source_a, source_b,
                   CAST(count(*) AS BIGINT) AS n_pairs,
                   CAST(sum(k) AS BIGINT) AS sum_k,
                   CAST(sum(k) AS DOUBLE)
                       / (CAST(count(*) AS DOUBLE) * 64.0)
                       AS mean_est_jaccard
            FROM lab GROUP BY source_a, source_b
        """,
        "dedup_ngram_jaccard": _ngram_jaccard_sql(),
        "d10_containment_pairs": _containment_sql(),
        # connected components of the pair graph as a recursive CTE:
        # reach = all (vertex, reachable-vertex) pairs, cluster = min reach
        "dedup_clusters": f"""
            WITH RECURSIVE {_minhash_cte(0.5)},
            edges AS (SELECT doc_a AS a, doc_b AS b FROM mh_pairs
                      UNION SELECT doc_b, doc_a FROM mh_pairs),
            reach AS (SELECT a AS v, a AS r FROM edges
                      UNION
                      SELECT e.a, reach.r FROM edges e JOIN reach ON reach.v = e.b)
            SELECT v AS doc_id, min(r) AS cluster FROM reach GROUP BY v
        """,
        # D23: the dedup_clusters CC + COALESCE singleton labels +
        # row_number keep-best (n_chars DESC, doc_id ASC)
        "d23_cluster_keep_best": f"""
            WITH RECURSIVE {_minhash_cte(0.5)},
            edges AS (SELECT doc_a AS a, doc_b AS b FROM mh_pairs
                      UNION SELECT doc_b, doc_a FROM mh_pairs),
            reach AS (SELECT a AS v, a AS r FROM edges
                      UNION
                      SELECT e.a, reach.r FROM edges e
                      JOIN reach ON reach.v = e.b),
            cl AS (SELECT v AS doc_id, min(r) AS cluster
                   FROM reach GROUP BY v),
            fullt AS (SELECT d.doc_id,
                             CAST(COALESCE(cl.cluster, d.doc_id)
                                  AS BIGINT) AS cluster,
                             CAST(d.n_chars AS BIGINT) AS n_chars
                      FROM documents d LEFT JOIN cl USING (doc_id))
            SELECT doc_id, cluster, n_chars FROM (
                SELECT *, row_number() OVER (PARTITION BY cluster
                    ORDER BY n_chars DESC, doc_id) AS rk
                FROM fullt)
            WHERE rk = 1
        """,
        "rollup_events_tier1": f"""
            WITH s AS (
                SELECT user_id,
                       CAST(FLOOR(value) AS INTEGER) AS v,
                       (ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY event_id) - 1) // 100 AS bucket
                FROM events
            )
            SELECT user_id, bucket,
                   min(v) AS "min", max(v) AS "max",
                   CAST(sum(CAST(v AS BIGINT)) AS DOUBLE) / count(*) AS "mean",
                   count(*) AS "count",
                   CASE WHEN mad(v) = 0 THEN 0.0
                        ELSE greatest(CAST(max(v) AS DOUBLE) - median(v),
                                      median(v) - CAST(min(v) AS DOUBLE))
                             / (1.4826 * mad(v)) END AS anomaly_score
            FROM s GROUP BY user_id, bucket
        """,
        "a1_moving_stats_events": """
            WITH s AS (
                SELECT user_id, event_id,
                       CAST(FLOOR(value) AS BIGINT) AS v,
                       ROW_NUMBER() OVER w AS rn
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY event_id)
            )
            SELECT user_id, event_id,
                   CASE WHEN rn >= 20 THEN
                       CAST(SUM(v) OVER win AS DOUBLE) / 20 END AS mov_mean,
                   CASE WHEN rn >= 20 THEN
                       SUM(v * v) OVER win END AS mov_sumsq
            FROM s
            WINDOW win AS (PARTITION BY user_id ORDER BY event_id
                           ROWS BETWEEN 19 PRECEDING AND CURRENT ROW)
        """,
        "s3_token_counts": """
            SELECT source, count(*) AS parts,
                   CAST(sum(greatest(octet_length(encode(text)) - 3, 0)) AS BIGINT) AS sum_tok
            FROM documents GROUP BY source
        """,
        "g2_source_stats": """
            SELECT source, count(*) AS docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars,
                   min(n_chars) AS min_chars, max(n_chars) AS max_chars
            FROM documents GROUP BY source
        """,
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
                   count(*) AS count_order,
                   CAST(sum(CAST(l_quantity AS BIGINT)) AS DOUBLE) / count(*) AS avg_qty
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "q2_topk_events": """
            SELECT event_id, user_id, event_type, value
            FROM events ORDER BY value DESC, event_id LIMIT 50
        """,
        "q1_sort_lineitem": """
            SELECT l_orderkey, l_linenumber, l_quantity
            FROM lineitem ORDER BY l_orderkey, l_linenumber LIMIT 1000
        """,
        "m2_filter_lineitem": """
            SELECT l_orderkey, l_partkey, l_quantity
            FROM lineitem WHERE l_quantity > 30 AND l_discount < 0.05
        """,
        "d1_dedup_events": """
            SELECT event_id, user_id, event_type, value FROM (
                SELECT event_id, user_id, event_type, value,
                       row_number() OVER (PARTITION BY user_id ORDER BY event_id) AS rn
                FROM events
            ) t WHERE rn = 1
        """,
        "j1_broadcast_join": """
            SELECT c_custkey, c_name, n_name, r_name
            FROM customer
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
        """,
        "j3_join_agg": """
            SELECT o_orderpriority,
                   CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
                   count(*) AS line_count
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY o_orderpriority
        """,
        "j4_asof_join": """
            WITH ranked AS (
              SELECT event_id, event_type, ts, value,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY ts, event_id) AS rn
              FROM events),
            cp AS (SELECT event_id AS calib_event_id, event_type, ts,
                          value AS calib_value
                   FROM ranked WHERE (rn - 1) % 50 = 0)
            SELECT e.event_id, e.event_type, e.value,
                   c.calib_value, c.calib_event_id
            FROM events e ASOF LEFT JOIN cp c
              ON e.event_type = c.event_type AND e.ts >= c.ts
        """,
        # J11 forward as-of: earliest checkpoint at-or-after, equal-ts
        # ties to the smallest calib_event_id (the engine's tiebreak sort)
        "j11_asof_forward": """
            WITH ranked AS (
              SELECT event_id, event_type, ts, value,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY ts, event_id) AS rn
              FROM events),
            cp AS (SELECT event_id AS calib_event_id, event_type, ts,
                          value AS calib_value
                   FROM ranked WHERE (rn - 1) % 50 = 0),
            j AS (SELECT e.event_id,
                         c.calib_value, c.calib_event_id,
                         row_number() OVER (PARTITION BY e.event_id
                                            ORDER BY c.ts,
                                                     c.calib_event_id)
                             AS jrn
                  FROM events e JOIN cp c
                    ON c.event_type = e.event_type AND c.ts >= e.ts)
            SELECT e.event_id, e.event_type, e.value,
                   j.calib_value, j.calib_event_id
            FROM events e LEFT JOIN j
              ON j.event_id = e.event_id AND j.jrn = 1
        """,
        # W1 sessionize: classic gaps-and-islands — break on lag gap > 12
        # h (driver events are hours apart per user), island id by running
        # sum of breaks, exact aggregates only
        "w1_sessionize_events": """
            WITH o AS (
                SELECT user_id, ts, event_id, value,
                       lag(ts) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) AS pts
                FROM events),
            m AS (SELECT *, CASE WHEN pts IS NULL OR
                                      epoch_us(ts) - epoch_us(pts) > 43200000000
                                 THEN 1 ELSE 0 END AS brk FROM o),
            s AS (SELECT *, sum(brk) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id
                                           ROWS UNBOUNDED PRECEDING) AS sid
                  FROM m)
            SELECT user_id, CAST(sid - 1 AS BIGINT) AS session_seq,
                   count(*) AS n_events, min(ts) AS start_ts,
                   max(ts) AS end_ts,
                   CAST(epoch_us(max(ts)) - epoch_us(min(ts)) AS BIGINT)
                       AS duration_us,
                   min(value) AS min_value, max(value) AS max_value
            FROM s GROUP BY user_id, sid
        """,
        # W2 lag/delta features: single-op float delta (exact both sides)
        "w2_lag_features_events": """
            SELECT event_id, user_id, value,
                   lag(value) OVER w AS prev_value,
                   value - lag(value) OVER w AS delta_value,
                   CAST(epoch_us(ts) - epoch_us(lag(ts) OVER w) AS BIGINT)
                       AS gap_us,
                   CAST(row_number() OVER w - 1 AS BIGINT) AS seq
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        # J5 interval stab join: the seeded overlapping window table is a
        # pure BIGINT function of (window_id, corpus time span), rebuilt
        # literally here; inner-join semantics (empty windows emit no row)
        "j5_interval_stats": """
            WITH meta AS (SELECT epoch_us(min(ts)) AS t0,
                                 epoch_us(max(ts)) - epoch_us(min(ts)) + 1
                                     AS span
                          FROM events),
            w AS (SELECT CAST(t.i AS BIGINT) AS window_id,
                         meta.t0 + ((CAST(t.i AS BIGINT) * 2654435761)
                                    % 4294967296) % meta.span AS lo_us,
                         meta.t0 + ((CAST(t.i AS BIGINT) * 2654435761)
                                    % 4294967296) % meta.span
                             + meta.span // 6 AS hi_us
                  FROM meta, range(0, 48) t(i))
            SELECT w.window_id, w.lo_us, w.hi_us, count(*) AS n_events,
                   min(e.value) AS min_value, max(e.value) AS max_value
            FROM w JOIN events e
              ON epoch_us(e.ts) >= w.lo_us AND epoch_us(e.ts) < w.hi_us
            GROUP BY w.window_id, w.lo_us, w.hi_us
        """,
        "g3_quantiles_nchars": """
            SELECT source,
                   quantile_cont(n_chars, 0.5) AS p50,
                   quantile_cont(n_chars, 0.9) AS p90,
                   quantile_cont(n_chars, 0.99) AS p99
            FROM documents GROUP BY source
        """,
        # D1 exact dedup: the engine's 2x64-bit polynomial content hash
        # (pipelines/dedup.py content_hash128) replayed exactly — powers
        # of the odd 32-bit constants via a recursive mod-2^64 CTE
        # (HUGEINT x 32-bit never overflows int128), byte access via
        # ascii(substr) (driver docs are pure ASCII)
        # T19: words = \s+ split minus empties (token_counts parity);
        # length() counts characters = engine's continuation-excluded runs
        "t19_word_len_hist": r"""
            SELECT source, CAST(length(word) AS BIGINT) AS word_len,
                   CAST(count(*) AS BIGINT) AS n
            FROM (SELECT source,
                         unnest(string_split_regex(text, '\s+')) AS word
                  FROM documents)
            WHERE word <> ''
            GROUP BY source, word_len
        """,
        # D19: same content-hash CTE as dedup_exact_docs, argmax keep
        # (max n_chars, tie min doc_id) instead of keep-first
        "d19_keep_best_dedup": f"""
            WITH RECURSIVE pw(k, p1, p2) AS (
              SELECT 0, CAST(1 AS HUGEINT), CAST(1 AS HUGEINT)
              UNION ALL
              SELECT k + 1, (p1 * {0x85EBCA6B}) % {1 << 64},
                     (p2 * {0xC2B2AE35}) % {1 << 64}
              FROM pw WHERE k < (SELECT max(length(text)) FROM documents) - 1
            ),
            bytes AS MATERIALIZED (
              SELECT doc_id, length(text) - 1 - i AS e,
                     CAST(ascii(substr(text, CAST(i + 1 AS INT), 1))
                          AS HUGEINT) AS b
              FROM (SELECT doc_id, text,
                           unnest(range(length(text))) AS i FROM documents)),
            ch AS MATERIALIZED (
              SELECT doc_id,
                     CAST(CASE WHEN m1 >= {1 << 63} THEN m1 - {1 << 64}
                               ELSE m1 END AS BIGINT) AS h1,
                     CAST(CASE WHEN m2 >= {1 << 63} THEN m2 - {1 << 64}
                               ELSE m2 END AS BIGINT) AS h2
              FROM (SELECT doc_id,
                           CAST(sum(b * pw.p1) % {1 << 64} AS HUGEINT) AS m1,
                           CAST(sum(b * pw.p2) % {1 << 64} AS HUGEINT) AS m2
                    FROM bytes JOIN pw ON pw.k = bytes.e GROUP BY doc_id))
            SELECT h1, h2, doc_id, n_chars FROM (
                SELECT ch.h1, ch.h2, ch.doc_id,
                       CAST(d.n_chars AS BIGINT) AS n_chars,
                       row_number() OVER (PARTITION BY ch.h1, ch.h2
                           ORDER BY d.n_chars DESC, ch.doc_id) AS rk
                FROM ch JOIN documents d USING (doc_id))
            WHERE rk = 1
        """,
        "dedup_exact_docs": f"""
            WITH RECURSIVE pw(k, p1, p2) AS (
              SELECT 0, CAST(1 AS HUGEINT), CAST(1 AS HUGEINT)
              UNION ALL
              SELECT k + 1, (p1 * {0x85EBCA6B}) % {1 << 64},
                     (p2 * {0xC2B2AE35}) % {1 << 64}
              FROM pw WHERE k < (SELECT max(length(text)) FROM documents) - 1
            ),
            bytes AS MATERIALIZED (
              SELECT doc_id, length(text) - 1 - i AS e,
                     CAST(ascii(substr(text, CAST(i + 1 AS INT), 1))
                          AS HUGEINT) AS b
              FROM (SELECT doc_id, text,
                           unnest(range(length(text))) AS i FROM documents)),
            ch AS MATERIALIZED (
              SELECT doc_id,
                     CAST(CASE WHEN m1 >= {1 << 63} THEN m1 - {1 << 64}
                               ELSE m1 END AS BIGINT) AS h1,
                     CAST(CASE WHEN m2 >= {1 << 63} THEN m2 - {1 << 64}
                               ELSE m2 END AS BIGINT) AS h2
              FROM (SELECT doc_id,
                           CAST(sum(b * pw.p1) % {1 << 64} AS HUGEINT) AS m1,
                           CAST(sum(b * pw.p2) % {1 << 64} AS HUGEINT) AS m2
                    FROM bytes JOIN pw ON pw.k = bytes.e GROUP BY doc_id))
            SELECT h1, h2, min(doc_id) AS doc_id
            FROM ch GROUP BY h1, h2
        """,
        "g2_salted_source_stats": """
            SELECT source, CAST(sum(n_chars) AS BIGINT) AS sum_n_chars,
                   count(*) AS count
            FROM documents GROUP BY source
        """,
        # ann_multi: per-query ranked cross join; float column dropped
        # (ann_topk's discipline — the hash covers the ID ranking)
        "ann_multi_topk": """
            SELECT query_id, vec_id, label FROM (
                SELECT q.vec_id AS query_id, e.vec_id, e.label,
                       row_number() OVER (
                           PARTITION BY q.vec_id
                           ORDER BY list_cosine_similarity(
                               e.embedding, q.embedding) DESC,
                               e.vec_id) AS rn
                FROM embeddings e
                CROSS JOIN (SELECT vec_id, embedding FROM embeddings
                            WHERE vec_id IN (0, 1, 2, 3, 4)) q
                WHERE e.vec_id <> q.vec_id) t
            WHERE rn <= 10
        """,
        "ann_topk": """
            SELECT vec_id, label FROM (
                SELECT vec_id, label,
                       list_cosine_similarity(embedding,
                           (SELECT embedding FROM embeddings WHERE vec_id = 0)) AS sim
                FROM embeddings WHERE vec_id <> 0
            ) t ORDER BY sim DESC, vec_id LIMIT 10
        """,
        "quality_stats": r"""
            SELECT doc_id,
                   octet_length(encode(text)) AS n_bytes,
                   length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS alpha_chars,
                   CASE WHEN octet_length(encode(text)) = 0 THEN 0.0
                        ELSE CAST(length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS DOUBLE)
                             / octet_length(encode(text)) END AS alpha_ratio,
                   array_length(string_split_regex(text, '\s+')) AS ws_tokens
            FROM documents
        """,
        "token_counts": r"""
            SELECT doc_id,
                   length(list_filter(string_split_regex(text, '\s+'), x -> x <> '')) AS word_count,
                   length(regexp_extract_all(text, '[A-Za-z]+|[0-9]|[^A-Za-z0-9\s]')) AS bpe_count
            FROM documents
        """,
        # W3 rolling stats: exact quantized window sum — associative, so
        # the SQL frame sum equals the engine's shifted-adds verbatim
        "w3_rolling_stats_events": """
            SELECT event_id, user_id, value,
                   CAST(count(*) OVER w AS BIGINT) AS roll_n,
                   CAST(sum(CAST(floor(value * 1000000 + 0.5) AS BIGINT))
                        OVER w AS BIGINT) AS roll_sum_q,
                   CAST(sum(CAST(floor(value * 1000000 + 0.5) AS BIGINT))
                        OVER w AS DOUBLE)
                       / (1000000.0 * count(*) OVER w) AS roll_avg,
                   min(value) OVER w AS roll_min,
                   max(value) OVER w AS roll_max
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
        """,
        # V1/V2 vocabulary: words = space split minus empties, exactly
        # the engine's split_pattern + filter
        "vocab_topk": """
            SELECT word, CAST(count(*) AS BIGINT) AS n
            FROM (SELECT unnest(string_split(text, ' ')) AS word
                  FROM documents)
            WHERE word <> ''
            GROUP BY word ORDER BY n DESC, word ASC LIMIT 25
        """,
        # V7 lexical richness: types + hapax from the word-count table
        "v7_lexical_richness": """
            WITH wc AS (
              SELECT source, word, count(*) AS n
              FROM (SELECT source,
                           unnest(string_split(text, ' ')) AS word
                    FROM documents)
              WHERE word <> '' GROUP BY source, word)
            SELECT source,
                   CAST(sum(n) AS BIGINT) AS n_tokens,
                   count(*) AS n_types,
                   CAST(count(*) FILTER (n = 1) AS BIGINT) AS n_hapax
            FROM wc GROUP BY source
        """,
        # V6 OOV: same top-k vocab CTE, anti-membership per doc
        "v6_oov_rate": """
            WITH v AS (
              SELECT word FROM (
                SELECT unnest(string_split(text, ' ')) AS word
                FROM documents) w
              WHERE word <> ''
              GROUP BY word ORDER BY count(*) DESC, word ASC LIMIT 25),
            w AS (
              SELECT doc_id, unnest(string_split(text, ' ')) AS word
              FROM documents),
            a AS (
              SELECT doc_id, count(*) AS n_words,
                     CAST(count(*) FILTER (
                         word NOT IN (SELECT word FROM v)) AS BIGINT)
                         AS n_oov
              FROM w WHERE word <> '' GROUP BY doc_id)
            SELECT d.doc_id, COALESCE(a.n_words, 0) AS n_words,
                   COALESCE(a.n_oov, 0) AS n_oov,
                   CASE WHEN a.n_words IS NULL OR a.n_words = 0 THEN NULL
                        ELSE CAST(a.n_oov AS DOUBLE)
                             / CAST(a.n_words AS DOUBLE) END AS oov_rate
            FROM documents d LEFT JOIN a USING (doc_id)
        """,
        "vocab_doc_freq": """
            SELECT word, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
            FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS word
                  FROM documents)
            WHERE word <> ''
            GROUP BY word HAVING count(DISTINCT doc_id) >= 2
        """,
        # Gopher-style repetition stats: exact int counts, two float
        # divisions on top (int64 -> DOUBLE numerators both sides)
        "quality_repetition": """
            WITH wc AS (
                SELECT doc_id, word, count(*) AS c
                FROM (SELECT doc_id,
                             unnest(string_split(text, ' ')) AS word
                      FROM documents)
                WHERE word <> '' GROUP BY doc_id, word),
            agg AS (
                SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_words,
                       CAST(count(*) AS BIGINT) AS n_distinct,
                       CAST(max(c) AS BIGINT) AS top
                FROM wc GROUP BY doc_id)
            SELECT d.doc_id,
                   COALESCE(a.n_words, 0) AS n_words,
                   COALESCE(a.n_distinct, 0) AS n_distinct_words,
                   CAST(a.n_words - a.n_distinct AS DOUBLE) / a.n_words
                       AS dup_word_frac,
                   CAST(a.top AS DOUBLE) / a.n_words AS top_word_frac
            FROM documents d LEFT JOIN agg a USING (doc_id)
        """,
        # G4 linear counting: Knuth multiplicative hash mod 2^32 mod m
        # (HUGEINT product mod 2^32 == the uint64 wrap mod 2^32 because
        # 2^32 divides 2^64); the estimator's ln is one libm call on the
        # same exact integer ratio both sides
        "g4_approx_distinct": """
            WITH b AS (
                SELECT DISTINCT event_type,
                       CAST(((CAST(user_id AS HUGEINT) * 2654435761)
                             % 4294967296) % 4096 AS BIGINT) AS bucket
                FROM events)
            SELECT event_type, CAST(4096 AS BIGINT) AS m,
                   CAST(count(*) AS BIGINT) AS occupied,
                   4096.0 * ln(4096.0 / CAST(4096 - count(*) AS DOUBLE))
                       AS est_distinct
            FROM b GROUP BY event_type
        """,
        "kmeans_train": _kmeans_sql(dim=_dim),
        "k13_centroid_cosines": _kmeans_sql(dim=_dim, centroid_pairs=True),
        "k23_centroid_margin": _kmeans_sql(dim=_dim, centroid_margin=True),
        # K7 power iteration: 2 exact-int matvecs over the 2^10-quantized
        # embeddings, order-pinned norm folds, floor-requantized vectors
        "k7_power_iteration": f"""
            WITH eq AS MATERIALIZED (
                SELECT vec_id,
                       list_transform(CAST(embedding AS DOUBLE[]),
                           v -> CAST(floor(v * 1024.0 + 0.5) AS BIGINT))
                           AS qi
                FROM embeddings),
            y1 AS MATERIALIZED (
                SELECT vec_id,
                       CAST(1024 * list_aggregate(qi, 'sum') AS BIGINT)
                           AS y
                FROM eq),
            w1g AS MATERIALIZED (
                SELECT t.pos - 1 AS d,
                       CAST(sum(q.qi[t.pos] * y1.y) AS BIGINT) AS w
                FROM eq q JOIN y1 USING (vec_id)
                CROSS JOIN range(1, {_dim + 1}) t(pos)
                GROUP BY t.pos - 1),
            n1 AS MATERIALIZED (
                SELECT sqrt(list_reduce(list_prepend(0.0,
                       list(CAST(w AS DOUBLE) * CAST(w AS DOUBLE)
                            ORDER BY d)), (a, b) -> a + b)) AS nrm
                FROM w1g),
            v1 AS MATERIALIZED (
                SELECT d, w,
                       CAST(floor(CAST(w AS DOUBLE) / n1.nrm * 1024.0
                                  + 0.5) AS BIGINT) AS v
                FROM w1g, n1),
            y2 AS MATERIALIZED (
                SELECT q.vec_id,
                       CAST(sum(q.qi[t.pos] * v1.v) AS BIGINT) AS y
                FROM eq q
                CROSS JOIN range(1, {_dim + 1}) t(pos)
                JOIN v1 ON v1.d = t.pos - 1
                GROUP BY q.vec_id),
            w2g AS MATERIALIZED (
                SELECT t.pos - 1 AS d,
                       CAST(sum(q.qi[t.pos] * y2.y) AS BIGINT) AS w
                FROM eq q JOIN y2 USING (vec_id)
                CROSS JOIN range(1, {_dim + 1}) t(pos)
                GROUP BY t.pos - 1),
            n2 AS MATERIALIZED (
                SELECT sqrt(list_reduce(list_prepend(0.0,
                       list(CAST(w AS DOUBLE) * CAST(w AS DOUBLE)
                            ORDER BY d)), (a, b) -> a + b)) AS nrm
                FROM w2g),
            v2 AS MATERIALIZED (
                SELECT d, w,
                       CAST(floor(CAST(w AS DOUBLE) / n2.nrm * 1024.0
                                  + 0.5) AS BIGINT) AS v
                FROM w2g, n2)
            SELECT v1.d AS dim, v1.w AS w1, v1.v AS v1_q,
                   v2.w AS w2, v2.v AS v2_q
            FROM v1 JOIN v2 USING (d)
        """,
        # K2 label centroids: quantize each element exactly as the engine
        # (floor(v * 2^20 + 0.5) on the double-widened float), exact int
        # sums, one pinned division
        "k2_label_centroids": """
            WITH u AS (SELECT label,
                              CAST(t.i - 1 AS BIGINT) AS dim,
                              embedding[t.i] AS e
                       FROM embeddings
                       CROSS JOIN unnest(range(1, len(embedding) + 1))
                           AS t(i)),
            q AS (SELECT CAST(label AS BIGINT) AS label, dim,
                         CAST(floor(CAST(e AS DOUBLE) * 1048576 + 0.5)
                              AS BIGINT) AS vq
                  FROM u)
            SELECT label, dim, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(vq) AS BIGINT) AS sum_q,
                   CAST(sum(vq) AS DOUBLE) / (count(*) * 1048576) AS mean
            FROM q GROUP BY label, dim
        """,
        # W4 OHLC resample: first/last by (ts, event_id) via row_number
        "w4_ohlc_resample": """
            WITH o AS (
                SELECT user_id, epoch_us(ts) // 86400000000 AS bucket, value,
                       row_number() OVER (PARTITION BY user_id,
                               epoch_us(ts) // 86400000000
                           ORDER BY ts, event_id) AS rn_a,
                       row_number() OVER (PARTITION BY user_id,
                               epoch_us(ts) // 86400000000
                           ORDER BY ts DESC, event_id DESC) AS rn_d
                FROM events)
            SELECT user_id, CAST(bucket AS BIGINT) AS bucket,
                   count(*) AS n_events,
                   max(CASE WHEN rn_a = 1 THEN value END) AS open,
                   max(value) AS high, min(value) AS low,
                   max(CASE WHEN rn_d = 1 THEN value END) AS close
            FROM o GROUP BY user_id, bucket
        """,
        # V3 TF-IDF top terms: score = tf * ln(N / df), (score desc,
        # word asc) per doc — identical floats both sides (one double
        # division, one libm ln, one int*double product)
        "tfidf_topk": """
            WITH w AS (SELECT doc_id, unnest(string_split(text, ' ')) AS word
                       FROM documents),
            wf AS (SELECT doc_id, word, CAST(count(*) AS BIGINT) AS tf
                   FROM w WHERE word <> '' GROUP BY doc_id, word),
            df AS (SELECT word, count(DISTINCT doc_id) AS df
                   FROM w WHERE word <> '' GROUP BY word),
            nd AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents),
            s AS (SELECT wf.doc_id, wf.word, wf.tf,
                         wf.tf * ln(nd.n / df.df) AS score,
                         row_number() OVER (PARTITION BY wf.doc_id
                             ORDER BY wf.tf * ln(nd.n / df.df) DESC,
                                      wf.word) AS rnk
                  FROM wf JOIN df USING (word) CROSS JOIN nd)
            SELECT doc_id, word, tf, score, CAST(rnk AS BIGINT) AS "rank"
            FROM s WHERE rnk <= 3
        """,
        # W5 OLS trend: exact integer moment sums (hours since first
        # event x micro-quantized value), HUGEINT normal-equation
        # numerator/denominator, three pinned float ops for the slope
        "w5_trend_events": """
            WITH b AS (
                SELECT user_id,
                       (epoch_us(ts) - min(epoch_us(ts))
                            OVER (PARTITION BY user_id)) // 3600000000 AS x,
                       CAST(floor(value * 1000000 + 0.5) AS BIGINT) AS vq
                FROM events),
            s AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(x) AS BIGINT) AS sx,
                         CAST(sum(vq) AS BIGINT) AS sy_q,
                         CAST(sum(x * vq) AS BIGINT) AS sxy_q,
                         CAST(sum(x * x) AS BIGINT) AS sxx
                  FROM b GROUP BY user_id)
            SELECT user_id, n, sx, sy_q, sxy_q, sxx,
                   CASE WHEN CAST(n AS HUGEINT) * sxx
                             - CAST(sx AS HUGEINT) * sx = 0 THEN NULL
                        ELSE (CAST(CAST(n AS HUGEINT) * sxy_q
                                   - CAST(sx AS HUGEINT) * sy_q AS DOUBLE)
                              / CAST(CAST(n AS HUGEINT) * sxx
                                     - CAST(sx AS HUGEINT) * sx AS DOUBLE))
                             / 1000000.0
                   END AS slope_per_hour
            FROM s
        """,
        # G6 histogram: clamp(floor(value / width), bins-1) exact counts
        "g6_value_histogram": """
            SELECT event_type,
                   CAST(least(floor(value / 10.0), 34) AS BIGINT) AS bin,
                   count(*) AS n
            FROM events GROUP BY event_type, bin
        """,
        # G5 count-min sketch: every counter cell is an exact count of
        # hash-colliding events; estimate = min over the 4 hash rows
        "g5_heavy_hitters_cms": """
            WITH params(j, a, b) AS (VALUES
                (0, 2654435761, 40503), (1, 2246822519, 65537),
                (2, 3266489917, 4101842887), (3, 668265263, 362437)),
            cnt AS MATERIALIZED (
                SELECT p.j,
                       CAST(((CAST(e.user_id AS HUGEINT) * p.a + p.b)
                             % 4294967296) % 1024 AS BIGINT) AS cell,
                       count(*) AS c
                FROM events e CROSS JOIN params p GROUP BY p.j, cell),
            top AS (SELECT user_id, count(*) AS n_exact FROM events
                    GROUP BY user_id ORDER BY n_exact DESC, user_id
                    LIMIT 10)
            SELECT t.user_id, CAST(t.n_exact AS BIGINT) AS n_exact,
                   CAST(min(c.c) AS BIGINT) AS n_cms
            FROM top t JOIN params p ON true
            JOIN cnt c ON c.j = p.j AND c.cell =
                CAST(((CAST(t.user_id AS HUGEINT) * p.a + p.b)
                      % 4294967296) % 1024 AS BIGINT)
            GROUP BY t.user_id, t.n_exact
        """,
        # M4 string scalar functions (1-based substr; utf8 semantics match
        # because part strings are ASCII)
        "m4_string_fns": """
            SELECT p_partkey,
                   CAST(substr(p_brand, 7) AS BIGINT) AS brand_num,
                   CAST(len(string_split(p_name, ' ')) AS BIGINT)
                       AS n_name_words,
                   CAST(length(p_name) AS BIGINT) AS name_len,
                   upper(p_name) AS name_upper,
                   lower(p_type) AS type_lower
            FROM part
        """,
        # G8 grouping sets: grain = number of rolled-up key positions
        "g8_grouping_sets": """
            WITH base AS (
              SELECT event_type,
                     epoch_us(ts) // 86400000000 AS day,
                     CAST(floor(value * 1000000 + 0.5) AS BIGINT) AS vq
              FROM events)
            SELECT CAST(grouping(event_type) + grouping(day) AS BIGINT)
                       AS grain,
                   event_type, day,
                   count(*) AS n,
                   CAST(sum(vq) AS BIGINT) AS vq_sum
            FROM base
            GROUP BY GROUPING SETS ((event_type, day), (event_type), ())
        """,
        # K4 quantize: exact int64 sum-of-squares, pinned sqrt/mult/div
        "k4_vector_quantize": """
            WITH eq AS (
              SELECT vec_id,
                     list_transform(CAST(embedding AS DOUBLE[]),
                         v -> CAST(floor(v * 1048576 + 0.5) AS BIGINT)) AS q
              FROM embeddings),
            m AS (
              SELECT vec_id, q,
                     CAST(list_reduce(list_prepend(CAST(0 AS BIGINT),
                         list_transform(q, x -> x * x)), (a, b) -> a + b)
                         AS BIGINT) AS ssq
              FROM eq),
            n AS (SELECT vec_id, q, ssq,
                         sqrt(CAST(ssq AS DOUBLE)) AS norm_q FROM m),
            co AS (
              SELECT vec_id, ssq, norm_q,
                     CASE WHEN norm_q = 0 THEN NULL ELSE
                       list_transform(q, x -> CAST(floor(
                           127 * CAST(x AS DOUBLE) / norm_q + 0.5)
                           AS BIGINT)) END AS codes
              FROM n)
            SELECT vec_id, ssq, norm_q,
                   CAST(list_reduce(list_prepend(CAST(0 AS BIGINT), codes),
                       (a, b) -> a + b) AS BIGINT) AS code_sum,
                   CAST(list_reduce(list_prepend(CAST(0 AS BIGINT),
                       list_transform(codes, x -> x * x)),
                       (a, b) -> a + b) AS BIGINT) AS code_sumsq
            FROM co
        """,
        # K3 assignment: the K1 chain's asg2 rows (vec_id, cid, score)
        "kmeans_assign": _kmeans_sql(assign_only=True),
        # G14 skewness: bigint raw moments, same four pinned float ops
        "g14_skewness": """
            WITH base AS (
              SELECT event_type,
                     CAST(json_extract(props, '$.k') AS BIGINT) AS x
              FROM events),
            m AS (
              SELECT event_type, count(*) AS n,
                     CAST(sum(x) AS BIGINT) AS s1,
                     CAST(sum(x * x) AS BIGINT) AS s2,
                     CAST(sum(x * x * x) AS BIGINT) AS s3
              FROM base GROUP BY event_type),
            c AS (
              SELECT event_type, n,
                     n * s2 - s1 * s1 AS m2,
                     n * n * s3 - 3 * n * s1 * s2 + 2 * s1 * s1 * s1 AS m3
              FROM m)
            SELECT event_type, n, m2 AS m2_scaled, m3 AS m3_scaled,
                   CASE WHEN m2 <= 0 THEN NULL
                        ELSE CAST(m3 AS DOUBLE)
                             / (CAST(m2 AS DOUBLE)
                                * sqrt(CAST(m2 AS DOUBLE))) END AS skewness
            FROM c
        """,
        # S9 quarantine: oracle routes by the INJECTION rule, the engine
        # by the invariant check — they agree iff the invariant catches
        # exactly the injected rows
        "s9_quarantine": """
            SELECT source,
                   CASE WHEN doc_id % 13 = 0 THEN 'quarantined'
                        ELSE 'ok' END AS channel,
                   count(*) AS n_rows,
                   CAST(sum(CASE WHEN doc_id % 13 = 0
                            THEN length(substr(text, 1, 10))
                            ELSE CAST(n_chars AS BIGINT) END) AS BIGINT)
                       AS chars_sum
            FROM documents GROUP BY source, channel
        """,
        # G13 Gini: exact int numerator/denominator, one division
        "g13_gini_nchars": """
            WITH r AS (
              SELECT source, n_chars,
                     row_number() OVER (PARTITION BY source
                         ORDER BY n_chars, doc_id) AS i,
                     count(*) OVER (PARTITION BY source) AS n
              FROM documents)
            SELECT source, CAST(any_value(n) AS BIGINT) AS n_docs,
                   CAST(sum((2 * i - n - 1) * n_chars) AS BIGINT)
                       AS gini_num,
                   CAST(any_value(n) * sum(n_chars) AS BIGINT) AS gini_den,
                   CASE WHEN any_value(n) * sum(n_chars) = 0 THEN NULL
                        ELSE CAST(sum((2 * i - n - 1) * n_chars) AS DOUBLE)
                             / CAST(any_value(n) * sum(n_chars) AS DOUBLE)
                        END AS gini
            FROM r GROUP BY source
        """,
        # U1 upsert: union base + derived updates, row_number argmax
        "u1_upsert_merge": """
            WITH base AS (
              SELECT event_id, epoch_us(ts) AS ts_us, user_id, value,
                     false AS is_update
              FROM events),
            upd AS (
              SELECT event_id, epoch_us(ts) + 86400000000 AS ts_us,
                     user_id, value + 1000.0 AS value, true AS is_update
              FROM events WHERE event_id % 7 = 0),
            u AS (SELECT * FROM base UNION ALL SELECT * FROM upd)
            SELECT event_id, ts_us, user_id, value, is_update
            FROM (SELECT *, row_number() OVER (
                      PARTITION BY event_id
                      ORDER BY ts_us DESC, is_update DESC) AS rk
                  FROM u)
            WHERE rk = 1
        """,
        # M7 cross join / Q9 gap report
        "m7_cross_join": """
            SELECT CAST(n.n_nationkey AS BIGINT) AS n_nationkey, n.n_name,
                   CAST(r.r_regionkey AS BIGINT) AS r_regionkey, r.r_name,
                   n.n_name || '|' || r.r_name AS pair,
                   n.n_regionkey = r.r_regionkey AS is_member
            FROM nation n CROSS JOIN region r
        """,
        "q9_activity_gaps": """
            WITH d AS (SELECT user_id, epoch_us(ts) // 86400000000 AS day
                       FROM events),
            span AS (SELECT max(day) - min(day) + 1 AS total FROM d)
            SELECT user_id,
                   CAST(count(DISTINCT day) AS BIGINT) AS active_days,
                   CAST(any_value(span.total) - count(DISTINCT day)
                       AS BIGINT) AS gap_days
            FROM d CROSS JOIN span GROUP BY user_id
        """,
        # M6 unnest: the tok CTE IS the oracle-side explode
        "m6_unnest_tokens": f"""
            WITH {_SEQ_TOK_CTE}
            SELECT doc_id, pos, CAST(v AS BIGINT) AS token
            FROM tok WHERE CAST(doc_id AS BIGINT) < 5
        """,
        # TPC-H Q3 shape; revenue = the same pinned cents expression
        "tpch_q3_like": """
            SELECT l.l_orderkey,
                   CAST(sum(CAST(floor(l.l_extendedprice
                       * (1 - l.l_discount) * 100 + 0.5) AS BIGINT))
                       AS BIGINT) AS revenue_cents,
                   epoch_us(o.o_orderdate) AS o_date_us
            FROM lineitem l
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            WHERE c.c_mktsegment = 'BUILDING'
              AND epoch_us(o.o_orderdate) < 883612800000000
              AND epoch_us(l.l_shipdate) > 883612800000000
            GROUP BY l.l_orderkey, o.o_orderdate
            ORDER BY revenue_cents DESC, o_date_us ASC, l.l_orderkey ASC
            LIMIT 10
        """,
        # G11 exact distinct / G12 argmax with (ts, event_id) tiebreak
        "g11_distinct_users": """
            SELECT event_type,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY event_type
        """,
        # S16 FK orphan audit: LEFT JOIN per star-schema edge, UNION ALL
        "s16_fk_audit": _fk_audit_sql(),
        # T13 melt: UNION ALL of the four measure projections, exact cents
        "t13_unpivot_lineitem": " UNION ALL ".join(
            f"""SELECT l_orderkey, CAST(l_linenumber AS BIGINT)
                           AS l_linenumber,
                       '{m}' AS measure,
                       CAST(floor({m} * 100 + 0.5) AS BIGINT)
                           AS value_cents
                FROM lineitem"""
            for m in ("l_quantity", "l_extendedprice",
                      "l_discount", "l_tax")),
        # S17 feather round trip: same original-parquet aggregate oracle
        # as S13 — passes only if every row survived both hops
        "s17_feather_roundtrip": """
            SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS chars_sum,
                   CAST(sum(doc_id) AS BIGINT) AS ids_sum
            FROM documents GROUP BY source
        """,
        # S18 pruned range read: same day-range aggregate over raw events
        # — values match only if the pruned bucket read lost nothing
        "s18_partition_pruning": """
            WITH e AS (SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT)
                              AS day,
                              CAST(floor(value * 100 + 0.5) AS BIGINT)
                              AS cents
                       FROM events),
            b AS (SELECT min(day) + 10 AS d0 FROM e)
            SELECT day, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(cents) AS BIGINT) AS cents_sum
            FROM e, b WHERE day >= d0 AND day <= d0 + 6
            GROUP BY day
        """,
        # G18 weighted lower median: cumulative-weight window, 2*cum>=tot
        "g18_weighted_median": """
            WITH w AS (SELECT l_returnflag AS flag,
                              CAST(floor(l_extendedprice * 100 + 0.5)
                                   AS BIGINT) AS cents,
                              CAST(floor(l_quantity + 0.5) AS BIGINT)
                                  AS qty
                       FROM lineitem),
            g AS (SELECT flag, cents, CAST(sum(qty) AS BIGINT) AS wsum
                  FROM w GROUP BY 1, 2),
            c AS (SELECT flag, cents, wsum,
                         CAST(sum(wsum) OVER (PARTITION BY flag
                              ORDER BY cents) AS BIGINT) AS cum,
                         CAST(sum(wsum) OVER (PARTITION BY flag)
                              AS BIGINT) AS tot
                  FROM g)
            SELECT flag AS l_returnflag,
                   CAST(max(tot) AS BIGINT) AS total_qty,
                   CAST(min(cents) FILTER (2 * cum >= tot) AS BIGINT)
                       AS wmedian_cents
            FROM c GROUP BY flag
        """,
        # W26 burstiness: lag() gaps in floor-div seconds, median()
        # parity, pinned (sn - S)/(sn + S) with sn = sqrt(n*Q - S^2)
        "w26_burstiness": """
            WITH g AS (
                SELECT user_id,
                       (epoch_us(ts) - lag(epoch_us(ts)) OVER w)
                           // 1000000 AS gap_s
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
            k AS (SELECT user_id, CAST(gap_s AS BIGINT) AS gap_s
                  FROM g WHERE gap_s IS NOT NULL),
            agg AS (SELECT user_id,
                           CAST(count(*) AS BIGINT) AS n_gaps,
                           CAST(sum(gap_s) AS BIGINT) AS gap_sum_s,
                           CAST(sum(gap_s * gap_s) AS BIGINT) AS q,
                           median(gap_s) AS med_gap_s
                    FROM k GROUP BY user_id)
            SELECT user_id, n_gaps, gap_sum_s, med_gap_s,
                   CASE WHEN sqrt(CAST(n_gaps * q
                                       - gap_sum_s * gap_sum_s AS DOUBLE))
                             + CAST(gap_sum_s AS DOUBLE) > 0.0
                        THEN (sqrt(CAST(n_gaps * q
                                   - gap_sum_s * gap_sum_s AS DOUBLE))
                              - CAST(gap_sum_s AS DOUBLE))
                             / (sqrt(CAST(n_gaps * q
                                     - gap_sum_s * gap_sum_s AS DOUBLE))
                                + CAST(gap_sum_s AS DOUBLE))
                   END AS burstiness
            FROM agg
        """,
        # A29 lead-lag xcorr: complete day grid per type pair (missing
        # days = 0), exact-int moment sums, the same three pinned float
        # ops as G10
        "a29_xcorr_volumes": """
            WITH e AS (SELECT event_type,
                              CAST(epoch_us(ts) // 86400000000 AS BIGINT)
                                  AS day
                       FROM events),
            d AS MATERIALIZED (
                SELECT event_type, day, CAST(count(*) AS BIGINT) AS c
                FROM e GROUP BY 1, 2),
            ty AS (SELECT DISTINCT event_type FROM d),
            pr AS (SELECT a.event_type AS ta, b.event_type AS tb
                   FROM ty a JOIN ty b ON a.event_type < b.event_type),
            sp AS MATERIALIZED (
                SELECT pr.ta, pr.tb, min(d.day) AS lo, max(d.day) AS hi
                FROM pr JOIN d ON d.event_type = pr.ta
                              OR d.event_type = pr.tb
                GROUP BY 1, 2),
            lg AS (SELECT unnest([0, 1, 2, 3, 7]) AS lag),
            gr AS (SELECT sp.ta, sp.tb, lg.lag,
                          unnest(range(sp.lo, sp.hi - lg.lag + 1)) AS day
                   FROM sp CROSS JOIN lg
                   WHERE sp.hi - sp.lo + 1 > lg.lag),
            v AS (SELECT gr.ta, gr.tb, gr.lag,
                         COALESCE(da.c, 0) AS x, COALESCE(db.c, 0) AS y
                  FROM gr
                  LEFT JOIN d da ON da.event_type = gr.ta
                                AND da.day = gr.day
                  LEFT JOIN d db ON db.event_type = gr.tb
                                AND db.day = gr.day + gr.lag),
            m AS (SELECT ta, tb, lag, CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(x) AS BIGINT) AS sx,
                         CAST(sum(y) AS BIGINT) AS sy,
                         CAST(sum(x * x) AS BIGINT) AS sxx,
                         CAST(sum(y * y) AS BIGINT) AS syy,
                         CAST(sum(x * y) AS BIGINT) AS sxy
                  FROM v GROUP BY 1, 2, 3)
            SELECT ta AS type_a, tb AS type_b,
                   CAST(lag AS BIGINT) AS lag, n, sxy,
                   CASE WHEN n * sxx - sx * sx = 0
                          OR n * syy - sy * sy = 0 THEN NULL
                        ELSE CAST(n * sxy - sx * sy AS DOUBLE)
                             / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                                    * CAST(n * syy - sy * sy AS DOUBLE))
                   END AS xcorr
            FROM m
        """,
        # G17 KMV distinct sketch: same bijective mix64 finalizer in SQL
        # (split-constant mulmod), k-th minimum via row_number, pure
        # integer estimator (k-1)*2^64 // h_k
        "g17_kmv_distinct": f"""
            WITH u AS (SELECT DISTINCT event_type, user_id FROM events),
            x0 AS (SELECT event_type,
                          CAST(xor(CAST(user_id AS UBIGINT),
                                   CAST(user_id AS UBIGINT) >> 33)
                               AS HUGEINT) AS x FROM u),
            x1 AS (SELECT event_type,
                          CAST(xor(CAST({_mulmod64('x', 0xFF51AFD7ED558CCD)}
                                        AS UBIGINT),
                                   CAST({_mulmod64('x', 0xFF51AFD7ED558CCD)}
                                        AS UBIGINT) >> 33)
                               AS HUGEINT) AS x FROM x0),
            x2 AS (SELECT event_type,
                          xor(CAST({_mulmod64('x', 0xC4CEB9FE1A85EC53)}
                                   AS UBIGINT),
                              CAST({_mulmod64('x', 0xC4CEB9FE1A85EC53)}
                                   AS UBIGINT) >> 33) AS h FROM x1),
            r AS (SELECT event_type, h,
                         row_number() OVER (PARTITION BY event_type
                                            ORDER BY h) AS rk,
                         count(*) OVER (PARTITION BY event_type) AS nd
                  FROM x2)
            SELECT event_type,
                   CAST(least(max(nd), 64) AS BIGINT) AS k_used,
                   CAST(CAST(max(h) FILTER (rk <= 64) AS HUGEINT)
                        - CASE WHEN max(h) FILTER (rk <= 64)
                               >= 9223372036854775808
                               THEN CAST(18446744073709551616 AS HUGEINT)
                               ELSE 0 END AS BIGINT) AS kth_min,
                   CASE WHEN max(nd) < 64 THEN CAST(max(nd) AS BIGINT)
                        ELSE CAST((63 * CAST(18446744073709551616
                                             AS HUGEINT))
                                  // CAST(max(h) FILTER (rk <= 64)
                                          AS HUGEINT) AS BIGINT)
                   END AS est_distinct
            FROM r GROUP BY event_type
        """,
        "g12_last_event": """
            SELECT user_id, epoch_us(ts) AS last_ts_us,
                   event_id AS last_event_id, value AS last_value,
                   event_type AS last_type
            FROM (SELECT *, row_number() OVER (
                      PARTITION BY user_id
                      ORDER BY ts DESC, event_id DESC) AS rk
                  FROM events)
            WHERE rk = 1
        """,
        # G10 correlation: BIGINT moments, then the same three pinned
        # float ops the engine takes (cast/cast-multiply, sqrt, divide)
        "g10_corr_events": """
            WITH base AS (
              SELECT event_type,
                     CAST(json_extract(props, '$.k') AS BIGINT) AS x,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS y
              FROM events),
            m AS (
              SELECT event_type, count(*) AS n,
                     CAST(sum(x) AS BIGINT) AS sx,
                     CAST(sum(y) AS BIGINT) AS sy,
                     CAST(sum(x * x) AS BIGINT) AS sxx,
                     CAST(sum(y * y) AS BIGINT) AS syy,
                     CAST(sum(x * y) AS BIGINT) AS sxy
              FROM base GROUP BY event_type)
            SELECT event_type, n, sxy,
                   CASE WHEN n * sxx - sx * sx = 0 OR n * syy - sy * sy = 0
                        THEN NULL
                        ELSE CAST(n * sxy - sx * sy AS DOUBLE)
                             / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                                    * CAST(n * syy - sy * sy AS DOUBLE))
                        END AS corr_xy
            FROM m
        """,
        # G9 mode: row_number over (count desc, day asc)
        "g9_mode_day": """
            WITH c AS (
              SELECT event_type, epoch_us(ts) // 86400000000 AS day,
                     count(*) AS n
              FROM events GROUP BY event_type, day),
            r AS (
              SELECT event_type, day, n,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY n DESC, day ASC) AS rk
              FROM c)
            SELECT event_type, day AS mode_day, CAST(n AS BIGINT) AS mode_n
            FROM r WHERE rk = 1
        """,
        # W11 funnel: FILTERed first-occurrence mins + strict-order chain
        "w11_funnel": """
            WITH f AS (
              SELECT user_id,
                     min(epoch_us(ts)) FILTER (event_type = 'view')
                         AS t_view,
                     min(epoch_us(ts)) FILTER (event_type = 'click')
                         AS t_click,
                     min(epoch_us(ts)) FILTER (event_type = 'purchase')
                         AS t_purchase
              FROM events GROUP BY user_id)
            SELECT user_id, t_view, t_click, t_purchase,
                   CAST(CASE WHEN t_view IS NULL THEN 0
                             WHEN t_click IS NULL OR t_click <= t_view THEN 1
                             WHEN t_purchase IS NULL OR t_purchase <= t_click
                                  THEN 2
                             ELSE 3 END AS BIGINT) AS stage
            FROM f
        """,
        # T9 dedup impact: kept = min doc_id per md5 group (D1 tiebreak)
        "t9_dedup_impact": """
            WITH k AS (
              SELECT doc_id, source, CAST(n_chars AS BIGINT) AS n_chars,
                     CASE WHEN doc_id = min(doc_id)
                              OVER (PARTITION BY md5(text)) THEN 1
                          ELSE 0 END AS kept
              FROM documents)
            SELECT source, count(*) AS n_docs,
                   CAST(sum(kept) AS BIGINT) AS n_kept,
                   CAST(sum(n_chars) AS BIGINT) AS chars_total,
                   CAST(sum(CASE WHEN kept = 0 THEN n_chars ELSE 0 END)
                       AS BIGINT) AS chars_dropped
            FROM k GROUP BY source
        """,
        # X5 PageRank: 3 unrolled integer iterations (floor-div shares)
        # X6 triangle census: ordered-edge three-way self-join counts each
        # triangle a<b<c once; wedges = sum C(deg, 2) over full degrees;
        # transitivity = 3.0 * T / W (pinned)
        "x6_triangle_census": f"""
            WITH {_minhash_cte(0.2)},
            e AS MATERIALIZED (SELECT doc_a AS u, doc_b AS v FROM mh_pairs),
            b AS MATERIALIZED (
                SELECT u AS x FROM e UNION ALL SELECT v AS x FROM e),
            deg AS (SELECT x, CAST(count(*) AS BIGINT) AS d
                    FROM b GROUP BY x),
            w AS (SELECT CAST(sum(d * (d - 1) // 2) AS BIGINT) AS nw
                  FROM deg),
            tri AS (SELECT CAST(count(*) AS BIGINT) AS t
                    FROM e e1
                    JOIN e e2 ON e2.u = e1.v
                    JOIN e e3 ON e3.u = e1.u AND e3.v = e2.v)
            SELECT (SELECT CAST(count(*) AS BIGINT) FROM deg) AS n_nodes,
                   (SELECT CAST(count(*) AS BIGINT) FROM e) AS n_edges,
                   (SELECT nw FROM w) AS n_wedges,
                   (SELECT t FROM tri) AS n_triangles,
                   CASE WHEN (SELECT nw FROM w) > 0
                        THEN 3.0 * CAST((SELECT t FROM tri) AS DOUBLE)
                             / CAST((SELECT nw FROM w) AS DOUBLE)
                   END AS transitivity
        """,
        "x7_degree_assortativity": f"""
            WITH {_minhash_cte(0.2)},
            e AS MATERIALIZED (SELECT doc_a AS u, doc_b AS v FROM mh_pairs),
            b AS MATERIALIZED (
                SELECT u AS x FROM e UNION ALL SELECT v AS x FROM e),
            deg AS MATERIALIZED (
                SELECT x, CAST(count(*) AS BIGINT) AS d FROM b GROUP BY x),
            se AS (SELECT u AS s, v AS t FROM e
                   UNION ALL SELECT v, u FROM e),
            m AS (SELECT da.d AS da, db.d AS db
                  FROM se JOIN deg da ON da.x = se.s
                          JOIN deg db ON db.x = se.t),
            agg AS (SELECT CAST(count(*) AS BIGINT) AS n,
                           CAST(sum(da) AS BIGINT) AS sx,
                           CAST(sum(da * da) AS BIGINT) AS sxx,
                           CAST(sum(da * db) AS BIGINT) AS sxy
                    FROM m)
            SELECT n AS n_endpoints, sx, sxx, sxy,
                   CASE WHEN n * sxx - sx * sx > 0
                        THEN CAST(n * sxy - sx * sx AS DOUBLE)
                             / CAST(n * sxx - sx * sx AS DOUBLE)
                   END AS assortativity
            FROM agg
        """,
        "v13_heaps_curve": """
            WITH n AS (SELECT doc_id,
                              list_filter(string_split(text, ' '),
                                          x -> x <> '') AS ws
                       FROM documents),
            w AS (SELECT doc_id, unnest(ws) AS word FROM n),
            fst AS MATERIALIZED (
                SELECT word, CAST(min(doc_id) AS BIGINT) AS fd
                FROM w GROUP BY word),
            nt AS MATERIALIZED (
                SELECT doc_id, CAST(len(ws) AS BIGINT) AS n_w FROM n),
            meta AS (SELECT CAST(count(*) AS BIGINT) AS n
                     FROM documents),
            cp AS (SELECT CAST(t.k AS BIGINT) AS k,
                          CAST((CAST(t.k AS BIGINT) + 1) * meta.n // 10
                               - 1 AS BIGINT) AS doc_hi
                   FROM meta, range(0, 10) t(k))
            SELECT cp.k, cp.doc_hi,
                   (SELECT CAST(coalesce(sum(n_w), 0) AS BIGINT)
                    FROM nt WHERE nt.doc_id <= cp.doc_hi) AS tokens_cum,
                   (SELECT CAST(count(*) AS BIGINT)
                    FROM fst WHERE fst.fd <= cp.doc_hi) AS types_cum
            FROM cp
        """,
        "a46_ljung_box": _ljung_box_sql(),
        "w40_arrival_cadence": """
            WITH o AS (SELECT event_type,
                              lead(epoch_us(ts)) OVER (
                                  PARTITION BY event_type
                                  ORDER BY ts, event_id)
                                - epoch_us(ts) AS gap
                       FROM events),
            g AS (SELECT event_type, CAST(gap AS BIGINT) AS gap
                  FROM o WHERE gap IS NOT NULL)
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n_gaps,
                   CAST(sum(gap) AS BIGINT) AS gap_sum_us,
                   median(gap) AS median_gap_us,
                   CAST(sum(gap) AS DOUBLE) / CAST(count(*) AS DOUBLE)
                       AS mean_gap_us
            FROM g GROUP BY event_type
        """,
        "d17_sketch_agreement": f"""
            WITH mh AS ({_minhash_pairs_sql()}),
            sh AS ({_simhash_pairs_sql()}),
            mp AS (SELECT DISTINCT least(doc_a, doc_b) AS a,
                          greatest(doc_a, doc_b) AS b FROM mh),
            sp AS (SELECT DISTINCT least(doc_a, doc_b) AS a,
                          greatest(doc_a, doc_b) AS b FROM sh),
            un AS (SELECT a, b FROM mp UNION SELECT a, b FROM sp),
            agg AS (SELECT
                (SELECT CAST(count(*) AS BIGINT) FROM mp)
                    AS n_minhash_pairs,
                (SELECT CAST(count(*) AS BIGINT) FROM sp)
                    AS n_simhash_pairs,
                (SELECT CAST(count(*) AS BIGINT)
                 FROM mp JOIN sp USING (a, b)) AS n_both,
                (SELECT CAST(count(*) AS BIGINT) FROM un) AS n_union)
            SELECT n_minhash_pairs, n_simhash_pairs, n_both, n_union,
                   CASE WHEN n_union > 0 THEN
                     CAST(n_both AS DOUBLE) / CAST(n_union AS DOUBLE)
                   END AS agreement
            FROM agg
        """,
        "p8_epoch_decorrelation": """
            WITH ha AS (SELECT doc_id,
                               CAST(row_number() OVER (ORDER BY
                                   CAST((CAST(xor(doc_id % 4294967296,
                                              4112119562) AS HUGEINT)
                                         * 2654435761) % 4294967296
                                        AS BIGINT), doc_id) - 1
                                    AS BIGINT) AS pa
                        FROM documents),
            hb AS (SELECT doc_id,
                          CAST(row_number() OVER (ORDER BY
                              CAST((CAST(xor(doc_id % 4294967296,
                                         1401181143) AS HUGEINT)
                                    * 2654435761) % 4294967296
                                   AS BIGINT), doc_id) - 1
                               AS BIGINT) AS pb
                   FROM documents),
            j AS (SELECT CAST(abs(ha.pa - hb.pb) AS BIGINT) AS d
                  FROM ha JOIN hb USING (doc_id)),
            agg AS (SELECT CAST(count(*) AS BIGINT) AS n,
                           CAST(sum(d) AS BIGINT) AS s
                    FROM j)
            SELECT n, s AS sum_abs_delta,
                   CAST(s AS DOUBLE) / CAST(n AS DOUBLE)
                       AS mean_abs_delta,
                   CAST(n * n - 1 AS DOUBLE) / CAST(3 * n AS DOUBLE)
                       AS expected_uniform,
                   (CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
                     / (CAST(n * n - 1 AS DOUBLE)
                        / CAST(3 * n AS DOUBLE)) AS decorrelation
            FROM agg
        """,
        "c6_tpch_q5_like": """
            SELECT n.n_name,
                   CAST(sum(CAST(floor(l.l_extendedprice
                       * (1 - l.l_discount) * 100 + 0.5) AS BIGINT))
                       AS BIGINT) AS revenue_cents,
                   CAST(count(*) AS BIGINT) AS n_items
            FROM lineitem l
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
                           AND s.s_nationkey = c.c_nationkey
            JOIN nation n ON n.n_nationkey = s.s_nationkey
            JOIN region r ON r.r_regionkey = n.n_regionkey
            WHERE r.r_name = 'ASIA'
            GROUP BY n.n_name
        """,
        "q21_sampling_error": """
            WITH h AS (SELECT doc_id, n_chars,
                              CAST((CAST(xor(doc_id % 4294967296,
                                             4112119562) AS HUGEINT)
                                    * 2654435761) % 4294967296
                                   AS BIGINT) AS h
                       FROM documents),
            r AS (SELECT n_chars,
                         row_number() OVER (ORDER BY h, doc_id) - 1
                             AS rk
                  FROM h),
            sys AS (SELECT CAST(count(*) AS BIGINT) AS n,
                           CAST(sum(n_chars) AS BIGINT) AS s
                    FROM r WHERE rk % 10 = 0),
            hs AS (SELECT CAST(count(*) AS BIGINT) AS n,
                          CAST(sum(n_chars) AS BIGINT) AS s
                   FROM (SELECT n_chars,
                                CAST((CAST(xor(doc_id % 4294967296,
                                               1401181143) AS HUGEINT)
                                      * 2654435761) % 4294967296
                                     AS BIGINT) AS h2
                         FROM documents)
                   WHERE h2 % 20 = 0),
            tr AS (SELECT CAST(count(*) AS BIGINT) AS n,
                          CAST(sum(n_chars) AS BIGINT) AS s
                   FROM documents)
            SELECT tr.n AS n_total,
                   CAST(tr.s AS DOUBLE) / CAST(tr.n AS DOUBLE)
                       AS mean_true,
                   sys.n AS n_sys,
                   CAST(sys.s AS DOUBLE) / CAST(sys.n AS DOUBLE)
                       AS mean_sys,
                   abs(CAST(sys.s AS DOUBLE) / CAST(sys.n AS DOUBLE)
                       - CAST(tr.s AS DOUBLE) / CAST(tr.n AS DOUBLE))
                       AS err_sys,
                   hs.n AS n_hash,
                   CAST(hs.s AS DOUBLE) / CAST(hs.n AS DOUBLE)
                       AS mean_hash,
                   abs(CAST(hs.s AS DOUBLE) / CAST(hs.n AS DOUBLE)
                       - CAST(tr.s AS DOUBLE) / CAST(tr.n AS DOUBLE))
                       AS err_hash
            FROM tr, sys, hs
        """,
        "g27_daily_new_users": """
            WITH f AS (SELECT user_id,
                              CAST(min(epoch_us(ts) // 86400000000)
                                   AS BIGINT) AS day
                       FROM events GROUP BY user_id),
            c AS (SELECT day, CAST(count(*) AS BIGINT) AS n_new_users
                  FROM f GROUP BY day)
            SELECT day, n_new_users,
                   CAST(sum(n_new_users) OVER (ORDER BY day
                        ROWS UNBOUNDED PRECEDING) AS BIGINT)
                       AS cum_users
            FROM c
        """,
        # J17: backward pick = max(us), tie max(click_id); forward pick =
        # min(us), tie min(click_id); winner = smaller gap, tie backward
        "j17_asof_nearest": """
            WITH e AS (SELECT event_id, user_id, epoch_us(ts) AS us
                       FROM events WHERE event_type = 'error'),
            c AS (SELECT event_id AS click_id, user_id,
                         epoch_us(ts) AS us
                  FROM events WHERE event_type = 'click'),
            b AS (SELECT event_id, click_id, gap, rk FROM (
                      SELECT e.event_id, c.click_id,
                             e.us - c.us AS gap,
                             row_number() OVER (PARTITION BY e.event_id
                                 ORDER BY c.us DESC, c.click_id DESC)
                                 AS rk
                      FROM e JOIN c ON c.user_id = e.user_id
                                   AND c.us <= e.us)
                  WHERE rk = 1),
            f AS (SELECT event_id, click_id, gap, rk FROM (
                      SELECT e.event_id, c.click_id,
                             c.us - e.us AS gap,
                             row_number() OVER (PARTITION BY e.event_id
                                 ORDER BY c.us ASC, c.click_id ASC)
                                 AS rk
                      FROM e JOIN c ON c.user_id = e.user_id
                                   AND c.us >= e.us)
                  WHERE rk = 1)
            SELECT e.event_id, e.user_id,
                   CASE WHEN b.click_id IS NOT NULL
                             AND (f.click_id IS NULL OR b.gap <= f.gap)
                        THEN b.click_id ELSE f.click_id
                   END AS nearest_click_id,
                   CAST(CASE WHEN b.click_id IS NOT NULL
                             AND (f.click_id IS NULL OR b.gap <= f.gap)
                        THEN b.gap ELSE f.gap END AS BIGINT) AS gap_us
            FROM e LEFT JOIN b USING (event_id)
                   LEFT JOIN f USING (event_id)
        """,
        # G29: user counts are exact ints; hhi / hhi_norm replicate the
        # engine's pinned division shapes verbatim
        "g29_herfindahl": """
            WITH c AS (SELECT event_type, user_id,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY event_type, user_id)
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n_users,
                   CAST(sum(n) AS BIGINT) AS total,
                   CAST(sum(n * n) AS BIGINT) AS sumsq,
                   CAST(sum(n * n) AS DOUBLE)
                     / (CAST(sum(n) AS DOUBLE)
                        * CAST(sum(n) AS DOUBLE)) AS hhi,
                   CASE WHEN count(*) > 1 THEN
                       (CAST(sum(n * n) AS DOUBLE)
                          / (CAST(sum(n) AS DOUBLE)
                             * CAST(sum(n) AS DOUBLE))
                        - 1.0 / CAST(count(*) AS DOUBLE))
                       / (1.0 - 1.0 / CAST(count(*) AS DOUBLE))
                   END AS hhi_norm
            FROM c GROUP BY event_type
        """,
        # G30: deterministic top-4 set via (n DESC, user_id); cr_k is the
        # one pinned division
        "g30_topk_share": """
            WITH c AS (SELECT event_type, user_id,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY event_type, user_id),
            r AS (SELECT event_type, n,
                         row_number() OVER (PARTITION BY event_type
                             ORDER BY n DESC, user_id) AS rk
                  FROM c)
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n_users,
                   CAST(sum(n) AS BIGINT) AS total,
                   CAST(sum(n) FILTER (rk <= 4) AS BIGINT) AS topk_sum,
                   CAST(sum(n) FILTER (rk <= 4) AS DOUBLE)
                     / CAST(sum(n) AS DOUBLE) AS cr_k
            FROM r GROUP BY event_type
        """,
        "x8_source_homophily": f"""
            WITH {_minhash_cte(0.5)},
            lab AS MATERIALIZED (
                SELECT da.source AS sa, db.source AS sb
                FROM mh_pairs p
                JOIN documents da ON da.doc_id = p.doc_a
                JOIN documents db ON db.doc_id = p.doc_b),
            ec AS (SELECT CAST(count(*) AS BIGINT) AS n_edges,
                          CAST(count(*) FILTER (WHERE sa = sb)
                               AS BIGINT) AS n_same
                   FROM lab),
            ends AS (SELECT source, CAST(count(*) AS BIGINT) AS c
                     FROM (SELECT sa AS source FROM lab
                           UNION ALL SELECT sb FROM lab)
                     GROUP BY source),
            ex AS (SELECT list_reduce(list_prepend(0.0,
                       list((CAST(c AS DOUBLE)
                             / CAST(2 * (SELECT n_edges FROM ec)
                                    AS DOUBLE))
                            * (CAST(c AS DOUBLE)
                               / CAST(2 * (SELECT n_edges FROM ec)
                                      AS DOUBLE))
                            ORDER BY source)),
                       (x, y) -> x + y) AS expected
                   FROM ends)
            SELECT ec.n_edges, ec.n_same AS n_same_source,
                   CAST(ec.n_same AS DOUBLE)
                     / CAST(ec.n_edges AS DOUBLE) AS e_same,
                   ex.expected,
                   (CAST(ec.n_same AS DOUBLE)
                      / CAST(ec.n_edges AS DOUBLE) - ex.expected)
                     / (1.0 - ex.expected) AS q_homophily
            FROM ec, ex
        """,
        "w39_dwell_time": """
            WITH o AS (SELECT event_type, user_id, ts, event_id,
                              lead(epoch_us(ts)) OVER (
                                  PARTITION BY user_id
                                  ORDER BY ts, event_id) AS nxt
                       FROM events),
            d AS (SELECT event_type,
                         CAST(count(nxt) AS BIGINT) AS n_dwells,
                         CAST(coalesce(sum(nxt - epoch_us(ts)), 0)
                              AS BIGINT) AS dwell_us
                  FROM o GROUP BY event_type),
            t AS (SELECT CAST(sum(dwell_us) AS BIGINT) AS total FROM d)
            SELECT d.event_type, d.n_dwells, d.dwell_us,
                   CAST(d.dwell_us AS DOUBLE) / CAST(t.total AS DOUBLE)
                       AS share
            FROM d, t
        """,
        "a49_brown_forsythe": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, day % 2 AS par,
                     CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            md AS (SELECT event_type, par,
                          CAST(2 * median(x) AS BIGINT) AS med2
                   FROM d GROUP BY event_type, par),
            z AS MATERIALIZED (
              SELECT d.event_type, d.par,
                     CAST(abs(2 * d.x - md.med2) AS BIGINT) AS z
              FROM d JOIN md USING (event_type, par)),
            g AS (SELECT event_type, par,
                         CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(z) AS BIGINT) AS s,
                         CAST(count(*) * sum(z * z) - sum(z) * sum(z)
                              AS BIGINT) AS w
                  FROM z GROUP BY event_type, par),
            p AS (SELECT event_type,
                         max(CASE WHEN par = 0 THEN n END) AS n1,
                         max(CASE WHEN par = 0 THEN s END) AS s1,
                         max(CASE WHEN par = 0 THEN w END) AS w1,
                         max(CASE WHEN par = 1 THEN n END) AS n2,
                         max(CASE WHEN par = 1 THEN s END) AS s2,
                         max(CASE WHEN par = 1 THEN w END) AS w2
                  FROM g GROUP BY event_type)
            SELECT event_type,
                   CAST(n1 AS BIGINT) AS n_even,
                   CAST(n2 AS BIGINT) AS n_odd,
                   CASE WHEN n1 >= 2 AND n2 >= 2
                         AND (n1 + n2) * (n2 * w1 + n1 * w2) > 0 THEN
                     CAST((n1 + n2 - 2) * (n2 * s1 - n1 * s2)
                          * (n2 * s1 - n1 * s2) AS DOUBLE)
                       / CAST((n1 + n2) * (n2 * w1 + n1 * w2)
                              AS DOUBLE)
                   END AS f_bf
            FROM p
        """,
        "k17_ann_recall": f"""
            WITH exact AS (
                SELECT vec_id FROM (
                    SELECT vec_id,
                           list_cosine_similarity(embedding,
                               (SELECT embedding FROM embeddings
                                WHERE vec_id = 0)) AS sim
                    FROM embeddings WHERE vec_id <> 0
                ) t ORDER BY sim DESC, vec_id LIMIT 10),
            approx AS (SELECT vec_id FROM ({_ann_lsh_sql(dim=_dim)}))
            SELECT CAST(10 AS BIGINT) AS k,
                   CAST(count(*) AS BIGINT) AS n_common,
                   CAST(count(*) AS DOUBLE) / 10.0 AS recall
            FROM exact JOIN approx USING (vec_id)
        """,
        "t18_langid_confusion": f"""
            WITH pl AS (SELECT doc_id, pred_lang
                        FROM ({_langid_sql})),
            j AS (SELECT d.lang, pl.pred_lang
                  FROM documents d JOIN pl USING (doc_id)),
            c AS (SELECT lang, pred_lang,
                         CAST(count(*) AS BIGINT) AS n
                  FROM j GROUP BY lang, pred_lang),
            t AS (SELECT lang, CAST(sum(n) AS BIGINT) AS tot
                  FROM c GROUP BY lang)
            SELECT c.lang, c.pred_lang, c.n,
                   CAST(c.n AS DOUBLE) / CAST(t.tot AS DOUBLE)
                       AS recall
            FROM c JOIN t USING (lang)
        """,
        "k16_cluster_purity": _kmeans_sql(dim=_dim,
                                          label_purity=True),
        "k20_confusion_matrix": _kmeans_sql(dim=_dim, confusion=True),
        "k21_cluster_radii": _kmeans_sql(dim=_dim, radius=True),
        "d16_prefix_groups": """
            WITH p AS (SELECT substr(text, 1, 32) AS prefix, source
                       FROM documents),
            g AS (SELECT prefix,
                         CAST(count(*) AS BIGINT) AS n_docs,
                         CAST(count(DISTINCT source) AS BIGINT)
                             AS n_sources
                  FROM p GROUP BY prefix)
            SELECT prefix, n_docs, n_sources
            FROM g WHERE n_docs >= 2
        """,
        "v16_js_divergence": """
            WITH ws AS (SELECT source,
                               list_filter(string_split(text, ' '),
                                           x -> x <> '') AS w
                        FROM documents),
            uni AS MATERIALIZED (
                SELECT source, unnest(w) AS word FROM ws),
            topk AS MATERIALIZED (
                SELECT word FROM (
                    SELECT word, CAST(count(*) AS BIGINT) AS n
                    FROM uni GROUP BY word
                    ORDER BY n DESC, word ASC LIMIT 20)),
            tot AS (SELECT source, CAST(count(*) AS BIGINT) AS n
                    FROM uni GROUP BY source),
            c AS (SELECT u.source, u.word,
                         CAST(count(*) AS BIGINT) AS c
                  FROM uni u JOIN topk USING (word)
                  GROUP BY u.source, u.word),
            grid AS (SELECT t.source, k.word,
                            CAST(COALESCE(c.c, 0) AS DOUBLE)
                              / CAST(t.n AS DOUBLE) AS f
                     FROM tot t CROSS JOIN topk k
                     LEFT JOIN c ON c.source = t.source
                                AND c.word = k.word),
            f AS (SELECT a.source AS source_a, b.source AS source_b,
                         list(CASE WHEN a.f > 0.0 THEN
                                  a.f * ln(2.0 * a.f / (a.f + b.f))
                              ELSE 0.0 END ORDER BY a.word) AS ta,
                         list(CASE WHEN b.f > 0.0 THEN
                                  b.f * ln(2.0 * b.f / (a.f + b.f))
                              ELSE 0.0 END ORDER BY a.word) AS tb
                  FROM grid a JOIN grid b
                    ON a.word = b.word AND a.source < b.source
                  GROUP BY a.source, b.source)
            SELECT source_a, source_b,
                   0.5 * list_reduce(list_prepend(0.0, ta),
                                     (x, y) -> x + y)
                   + 0.5 * list_reduce(list_prepend(0.0, tb),
                                       (x, y) -> x + y) AS js
            FROM f
        """,
        "w38_active_streak": """
            WITH p AS (SELECT DISTINCT user_id,
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day
                       FROM events),
            r AS (SELECT user_id, day,
                         day - row_number() OVER (PARTITION BY user_id
                                                  ORDER BY day) AS isl
                  FROM p),
            i AS (SELECT user_id, isl,
                         CAST(count(*) AS BIGINT) AS len,
                         CAST(min(day) AS BIGINT) AS start_day
                  FROM r GROUP BY user_id, isl),
            t AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n_active
                  FROM p GROUP BY user_id),
            mx AS (SELECT user_id, CAST(max(len) AS BIGINT) AS longest
                   FROM i GROUP BY user_id),
            sel AS (SELECT i.user_id,
                           CAST(min(i.start_day) AS BIGINT)
                               AS streak_start_day,
                           CAST(count(*) AS BIGINT) AS n_max
                    FROM i JOIN mx ON mx.user_id = i.user_id
                                  AND i.len = mx.longest
                    GROUP BY i.user_id)
            SELECT t.user_id, t.n_active AS n_active_days,
                   mx.longest AS longest_streak,
                   sel.streak_start_day, sel.n_max AS n_max_streaks
            FROM t JOIN mx USING (user_id) JOIN sel USING (user_id)
        """,
        "a48_seasonal_strength": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, (day + 3) % 7 AS ph,
                     CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            m AS (SELECT event_type, ph,
                         CAST(2 * median(x) AS BIGINT) AS med2
                  FROM d GROUP BY event_type, ph),
            r AS (SELECT d.event_type,
                         CAST(2 * d.x - m.med2 AS BIGINT) AS r2,
                         CAST(2 * d.x AS BIGINT) AS t2
                  FROM d JOIN m USING (event_type, ph)),
            agg AS (SELECT event_type,
                           CAST(count(*) AS BIGINT) AS n,
                           CAST(sum(r2) AS BIGINT) AS sr,
                           CAST(sum(r2 * r2) AS BIGINT) AS qr,
                           CAST(sum(t2) AS BIGINT) AS st,
                           CAST(sum(t2 * t2) AS BIGINT) AS qt
                    FROM r GROUP BY event_type)
            SELECT event_type, n AS n_days,
                   CAST(n * qr - sr * sr AS BIGINT) AS var_resid_num,
                   CAST(n * qt - st * st AS BIGINT) AS var_total_num,
                   CASE WHEN n * qt - st * st > 0 THEN
                     greatest(0.0, 1.0 - CAST(n * qr - sr * sr
                                              AS DOUBLE)
                              / CAST(n * qt - st * st AS DOUBLE))
                   END AS seasonal_strength
            FROM agg
        """,
        "w37_conversion_lag": """
            WITH f AS (SELECT user_id,
                              CAST(min(epoch_us(ts))
                                   FILTER (WHERE event_type = 'view')
                                   AS BIGINT) AS first_view_us,
                              CAST(min(epoch_us(ts))
                                   FILTER (WHERE event_type = 'purchase')
                                   AS BIGINT) AS first_purchase_us
                       FROM events
                       WHERE event_type IN ('view', 'purchase')
                       GROUP BY user_id)
            SELECT user_id, first_view_us, first_purchase_us,
                   CASE WHEN first_view_us IS NOT NULL
                         AND first_purchase_us IS NOT NULL
                         AND first_purchase_us >= first_view_us
                        THEN first_purchase_us - first_view_us
                   END AS lag_us
            FROM f
        """,
        "t17_dup_sentence_share": """
            WITH s AS (SELECT doc_id, source,
                              unnest(list_filter(
                                  string_split(text, '. '),
                                  x -> x <> '')) AS sent
                       FROM documents),
            nd AS (SELECT sent,
                          CAST(count(DISTINCT doc_id) AS BIGINT)
                              AS ndocs
                   FROM s GROUP BY sent),
            j AS (SELECT s.source,
                         CASE WHEN nd.ndocs >= 2 THEN 1 ELSE 0 END
                             AS dup
                  FROM s JOIN nd USING (sent))
            SELECT source, CAST(count(*) AS BIGINT) AS n_sents,
                   CAST(sum(dup) AS BIGINT) AS n_dup,
                   CAST(sum(dup) AS DOUBLE) / CAST(count(*) AS DOUBLE)
                       AS dup_share
            FROM j GROUP BY source
        """,
        "a47_hurst_aggvar": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            o AS MATERIALIZED (
              SELECT event_type, x,
                     CAST(row_number() OVER (PARTITION BY event_type
                         ORDER BY day) - 1 AS BIGINT) AS i,
                     CAST(count(*) OVER (PARTITION BY event_type)
                          AS BIGINT) AS n
              FROM d),
            b AS (SELECT event_type, m.m, o.i // m.m AS blk,
                         CAST(sum(o.x) AS BIGINT) AS y,
                         CAST(count(*) AS BIGINT) AS cnt,
                         any_value(o.n) AS n
                  FROM o CROSS JOIN unnest([1, 2, 4]) m(m)
                  WHERE o.i < (o.n // m.m) * m.m
                  GROUP BY event_type, m.m, blk),
            v AS (SELECT event_type, m,
                         CAST(count(*) AS BIGINT) AS k,
                         CAST(count(*) * sum(y * y) - sum(y) * sum(y)
                              AS BIGINT) AS vnum,
                         any_value(n) AS n
                  FROM b GROUP BY event_type, m),
            p AS (SELECT event_type, any_value(n) AS n_days,
                         max(CASE WHEN m = 1 THEN vnum END) AS v1_num,
                         max(CASE WHEN m = 2 THEN vnum END) AS v2_num,
                         max(CASE WHEN m = 4 THEN vnum END) AS v4_num,
                         max(CASE WHEN m = 1 THEN k END) AS k1,
                         max(CASE WHEN m = 4 THEN k END) AS k4
                  FROM v GROUP BY event_type)
            SELECT event_type, CAST(n_days AS BIGINT) AS n_days,
                   CAST(v1_num AS BIGINT) AS v1_num,
                   CAST(v2_num AS BIGINT) AS v2_num,
                   CAST(v4_num AS BIGINT) AS v4_num,
                   CASE WHEN v1_num > 0 AND v4_num > 0
                         AND k1 >= 2 AND k4 >= 2 THEN
                     1.0 + ((ln(CAST(v4_num AS DOUBLE)
                                / CAST(k4 * k4 * 16 AS DOUBLE))
                             - ln(CAST(v1_num AS DOUBLE)
                                  / CAST(k1 * k1 AS DOUBLE)))
                            / (4.0 * ln(2.0)))
                   END AS h_aggvar
            FROM p
        """,
        "q19_mixture_sweep": """
            WITH c AS (SELECT source, CAST(count(*) AS BIGINT) AS n
                       FROM documents GROUP BY source),
            al AS (SELECT CAST(t.a AS BIGINT) AS a10
                   FROM unnest([3, 5, 7]) t(a)),
            w AS (SELECT al.a10, c.source, c.n,
                         pow(CAST(c.n AS DOUBLE),
                             CAST(al.a10 AS DOUBLE) / 10.0) AS wgt
                  FROM c CROSS JOIN al),
            tot AS (SELECT a10,
                           list_reduce(list_prepend(0.0,
                               list(wgt ORDER BY source)),
                               (x, y) -> x + y) AS W
                    FROM w GROUP BY a10)
            SELECT w.source, w.a10 AS alpha_x10, w.n AS n_docs,
                   w.wgt AS weight,
                   CAST(floor(CAST(200 AS DOUBLE) * w.wgt / tot.W)
                        AS BIGINT) AS quota
            FROM w JOIN tot USING (a10)
        """,
        "q18_negative_samples": """
            WITH meta AS (SELECT CAST(count(*) AS BIGINT) AS n
                          FROM documents),
            a AS (SELECT doc_id AS anchor_id FROM documents
                  WHERE doc_id % 50 = 0),
            g AS (SELECT a.anchor_id, CAST(t.j AS BIGINT) AS j,
                         CAST(xor(CAST((CAST(a.anchor_id AS HUGEINT)
                                        * 2654435761) % 4294967296
                                       AS BIGINT),
                                  (CAST(t.j AS BIGINT) * 40503)
                                  % 4294967296) % meta.n AS BIGINT)
                             AS neg0
                  FROM a CROSS JOIN range(1, 5) t(j) CROSS JOIN meta),
            fixed AS (SELECT anchor_id, j,
                             CASE WHEN neg0 = anchor_id
                                  THEN (neg0 + 1) % (SELECT n FROM meta)
                                  ELSE neg0 END AS neg_id
                      FROM g)
            SELECT f.anchor_id, f.j, f.neg_id,
                   CAST(d.n_chars AS BIGINT) AS neg_chars
            FROM fixed f JOIN documents d ON d.doc_id = f.neg_id
        """,
        "w36_retention_triangle": """
            WITH p AS (SELECT DISTINCT user_id,
                              CAST(epoch_us(ts) // 604800000000
                                   AS BIGINT) AS week
                       FROM events),
            c AS (SELECT user_id, CAST(min(week) AS BIGINT)
                             AS cohort_week
                  FROM p GROUP BY user_id)
            SELECT c.cohort_week,
                   CAST(p.week - c.cohort_week AS BIGINT)
                       AS week_offset,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM p JOIN c USING (user_id)
            GROUP BY c.cohort_week, week_offset
        """,
        "j16_fanout_histogram": """
            WITH c AS (SELECT l_orderkey,
                              CAST(count(*) AS BIGINT) AS fanout
                       FROM lineitem GROUP BY l_orderkey),
            h AS (SELECT fanout, CAST(count(*) AS BIGINT) AS n_orders
                  FROM c GROUP BY fanout),
            z AS (SELECT CAST(0 AS BIGINT) AS fanout,
                         CAST((SELECT count(*) FROM orders)
                              - (SELECT count(*) FROM c) AS BIGINT)
                             AS n_orders)
            SELECT fanout, n_orders FROM h
            UNION ALL
            SELECT fanout, n_orders FROM z WHERE n_orders > 0
        """,
        "m9_date_fns": """
            SELECT CAST(year(o_orderdate) AS BIGINT) AS year,
                   CAST((month(o_orderdate) - 1) // 3 + 1 AS BIGINT)
                       AS quarter,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(CAST(floor(o_totalprice * 100 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS cents_sum
            FROM orders GROUP BY year, quarter
        """,
        "p7_curriculum_order": f"""
            WITH ql AS (SELECT doc_id, quality_score
                        FROM ({_quality_sql})),
            s AS (SELECT doc_id,
                         CAST(floor(quality_score * 1048576 + 0.5)
                              AS BIGINT) AS score_q
                  FROM ql),
            r AS (SELECT doc_id, score_q,
                         CAST(row_number() OVER (ORDER BY score_q DESC,
                              doc_id) - 1 AS BIGINT) AS cur_rank,
                         CAST(count(*) OVER () AS BIGINT) AS total
                  FROM s)
            SELECT doc_id, score_q, cur_rank,
                   CAST(CASE WHEN cur_rank < (total % 3)
                                  * (total // 3 + 1)
                        THEN cur_rank // (total // 3 + 1)
                        ELSE (total % 3)
                             + (cur_rank - (total % 3)
                                * (total // 3 + 1)) // (total // 3)
                        END + 1 AS BIGINT) AS stage
            FROM r
        """,
        "g26_kruskal_wallis": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            r AS MATERIALIZED (
              SELECT event_type,
                     CAST(2 * rank() OVER (ORDER BY x)
                          + count(*) OVER (PARTITION BY x) - 1
                          AS BIGINT) AS two_r
              FROM d),
            g AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(two_r) AS BIGINT) AS w2
                  FROM r GROUP BY event_type),
            tot AS (SELECT CAST(count(*) AS BIGINT) AS nn FROM d),
            tc AS (SELECT CAST(coalesce(sum(c * c * c - c), 0)
                               AS BIGINT) AS t
                   FROM (SELECT CAST(count(*) AS BIGINT) AS c
                         FROM d GROUP BY x)),
            f AS (SELECT list(CAST(w2 AS DOUBLE) * CAST(w2 AS DOUBLE)
                              / CAST(4 * n AS DOUBLE)
                              ORDER BY event_type) AS terms,
                         CAST(count(*) AS BIGINT) AS n_groups
                  FROM g)
            SELECT tot.nn AS n_total, f.n_groups, tc.t AS ties,
                   12.0 * list_reduce(list_prepend(0.0, f.terms),
                                      (a, b) -> a + b)
                     / CAST(tot.nn * (tot.nn + 1) AS DOUBLE)
                     - 3.0 * CAST(tot.nn + 1 AS DOUBLE) AS h,
                   CASE WHEN tot.nn > 1
                         AND 1.0 - CAST(tc.t AS DOUBLE)
                             / CAST(tot.nn * tot.nn * tot.nn - tot.nn
                                    AS DOUBLE) > 0 THEN
                     (12.0 * list_reduce(list_prepend(0.0, f.terms),
                                         (a, b) -> a + b)
                        / CAST(tot.nn * (tot.nn + 1) AS DOUBLE)
                        - 3.0 * CAST(tot.nn + 1 AS DOUBLE))
                     / (1.0 - CAST(tc.t AS DOUBLE)
                        / CAST(tot.nn * tot.nn * tot.nn - tot.nn
                               AS DOUBLE))
                   END AS h_corr
            FROM tot, tc, f
        """,
        "a45_turning_point_test": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            t AS (SELECT event_type, x,
                         lag(x) OVER w AS xp, lead(x) OVER w AS xn
                  FROM d WINDOW w AS (PARTITION BY event_type
                                      ORDER BY day)),
            agg AS (SELECT event_type,
                           CAST(count(*) FILTER (WHERE xp IS NOT NULL
                                AND xn IS NOT NULL
                                AND ((x > xp AND x > xn)
                                     OR (x < xp AND x < xn)))
                                AS BIGINT) AS t_count
                    FROM t GROUP BY event_type),
            nn AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
                   FROM d GROUP BY event_type)
            SELECT nn.event_type, nn.n AS n_days,
                   agg.t_count AS n_turning,
                   CASE WHEN nn.n >= 4 THEN
                     CAST(3 * agg.t_count - 2 * (nn.n - 2) AS DOUBLE)
                       / 3.0
                       / sqrt(CAST(16 * nn.n - 29 AS DOUBLE) / 90.0)
                   END AS z_tp
            FROM nn JOIN agg USING (event_type)
        """,
        "w35_weekend_contrast": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day,
                     CASE WHEN (day + 3) % 7 >= 5 THEN 1 ELSE 0 END
                         AS is_we,
                     CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            agg AS (SELECT event_type,
                           CAST(count(*) FILTER (WHERE is_we = 1)
                                AS BIGINT) AS we_days,
                           CAST(count(*) FILTER (WHERE is_we = 0)
                                AS BIGINT) AS wd_days,
                           CAST(coalesce(sum(x) FILTER (WHERE is_we = 1),
                                0) AS BIGINT) AS we_cents,
                           CAST(coalesce(sum(x) FILTER (WHERE is_we = 0),
                                0) AS BIGINT) AS wd_cents
                    FROM d GROUP BY event_type)
            SELECT event_type, we_days, wd_days, we_cents, wd_cents,
                   CASE WHEN wd_cents > 0 AND we_days > 0 THEN
                     (CAST(we_cents AS DOUBLE) * CAST(wd_days AS DOUBLE))
                       / (CAST(wd_cents AS DOUBLE)
                          * CAST(we_days AS DOUBLE))
                   END AS contrast
            FROM agg
        """,
        "g25_stickiness": """
            WITH p AS (SELECT DISTINCT
                              CAST(epoch_us(ts) // 86400000000
                                   AS BIGINT) AS day,
                              user_id
                       FROM events),
            days AS (SELECT DISTINCT day FROM p),
            dau AS (SELECT day, CAST(count(*) AS BIGINT) AS dau
                    FROM p GROUP BY day),
            wau AS (SELECT d.day,
                           CAST(count(DISTINCT p.user_id) AS BIGINT)
                               AS wau
                    FROM days d JOIN p
                      ON p.day BETWEEN d.day - 6 AND d.day
                    GROUP BY d.day)
            SELECT dau.day, dau.dau, wau.wau,
                   CAST(dau.dau AS DOUBLE) / CAST(wau.wau AS DOUBLE)
                       AS stickiness
            FROM dau JOIN wau USING (day)
        """,
        "d15_minhash_calibration": f"""
            WITH {_minhash_cte(0.2)},
            grams AS (
              SELECT doc_id, list_distinct(list_transform(
                  range(1, greatest(len(ws) - 1, 1)),
                  i -> ws[CAST(i AS INT)] || ' '
                       || ws[CAST(i AS INT) + 1] || ' '
                       || ws[CAST(i AS INT) + 2])) AS gs
              FROM (SELECT doc_id,
                           regexp_extract_all(lower(text), '[0-9a-z_]+')
                               AS ws
                    FROM documents)),
            v AS (SELECT CAST(floor(p.est_jaccard * 64 + 0.5) AS BIGINT)
                             AS k,
                         CAST(len(list_filter(ga.gs,
                              g -> list_contains(gb.gs, g)))
                              AS BIGINT) AS inter,
                         CAST(len(ga.gs) + len(gb.gs)
                              - len(list_filter(ga.gs,
                                    g -> list_contains(gb.gs, g)))
                              AS BIGINT) AS un
                  FROM mh_pairs p
                  JOIN grams ga ON ga.doc_id = p.doc_a
                  JOIN grams gb ON gb.doc_id = p.doc_b)
            SELECT k, CAST(count(*) AS BIGINT) AS n_pairs,
                   CAST(sum(inter) AS BIGINT) AS inter_sum,
                   CAST(sum(un) AS BIGINT) AS union_sum
            FROM v GROUP BY k
        """,
        "a44_arch_effect": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            t AS (SELECT event_type, day, x,
                         lead(x, 1) OVER w AS x1,
                         lead(x, 2) OVER w AS x2
                  FROM d WINDOW w AS (PARTITION BY event_type
                                      ORDER BY day)),
            p AS (SELECT event_type,
                         CAST(abs(x1 - x) AS BIGINT) AS a,
                         CAST(abs(x2 - x1) AS BIGINT) AS b
                  FROM t WHERE x2 IS NOT NULL),
            agg AS (SELECT event_type,
                           CAST(count(*) AS BIGINT) AS m,
                           CAST(sum(a) AS BIGINT) AS sa,
                           CAST(sum(b) AS BIGINT) AS sb,
                           CAST(sum(a * a) AS BIGINT) AS saa,
                           CAST(sum(b * b) AS BIGINT) AS sbb,
                           CAST(sum(a * b) AS BIGINT) AS sab
                    FROM p GROUP BY event_type),
            nn AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n_days
                   FROM d GROUP BY event_type)
            SELECT nn.event_type, nn.n_days, agg.m AS n_pairs,
                   CASE WHEN agg.m >= 2
                         AND agg.m * agg.saa - agg.sa * agg.sa > 0
                         AND agg.m * agg.sbb - agg.sb * agg.sb > 0 THEN
                     CAST(agg.m * agg.sab - agg.sa * agg.sb AS DOUBLE)
                       / (sqrt(CAST(agg.m * agg.saa - agg.sa * agg.sa
                                    AS DOUBLE))
                          * sqrt(CAST(agg.m * agg.sbb - agg.sb * agg.sb
                                      AS DOUBLE)))
                   END AS rho_arch
            FROM nn JOIN agg USING (event_type)
        """,
        "k15_cluster_balance": _kmeans_sql(dim=_dim,
                                           cluster_counts=True),
        "s22_zstd_parquet_roundtrip": """
            SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS chars_sum,
                   CAST(sum(len(string_split(text, ' '))) AS BIGINT)
                       AS words_sum
            FROM documents GROUP BY source
        """,
        "w34_hourly_profile": """
            WITH c AS (SELECT event_type,
                              CAST((epoch_us(ts) // 3600000000) % 24
                                   AS BIGINT) AS hour,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY event_type, hour),
            t AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS tot
                  FROM c GROUP BY event_type)
            SELECT c.event_type, c.hour, c.n,
                   CAST(c.n AS DOUBLE) / CAST(t.tot AS DOUBLE) AS share
            FROM c JOIN t USING (event_type)
        """,
        "q17_balanced_eval_sample": """
            WITH q AS (SELECT doc_id, source, n_chars,
                              CAST(ntile(4) OVER (PARTITION BY source
                                  ORDER BY n_chars, doc_id) AS BIGINT)
                                  AS quartile,
                              CAST((CAST(xor(doc_id % 4294967296,
                                             1401181143)
                                         AS HUGEINT) * 2654435761)
                                   % 4294967296 AS BIGINT) AS h
                       FROM documents),
            r AS (SELECT doc_id, source, quartile, h,
                         row_number() OVER (PARTITION BY source, quartile
                             ORDER BY h, doc_id) AS rn
                  FROM q)
            SELECT doc_id, source, quartile, h
            FROM r WHERE rn <= 5
        """,
        "d14_cross_source_exact": """
            WITH h AS (SELECT source, md5(text) AS h FROM documents),
            per AS (SELECT h, source, CAST(count(*) AS BIGINT) AS n
                    FROM h GROUP BY h, source),
            span AS (SELECT h, CAST(count(*) AS BIGINT) AS n_src
                     FROM per GROUP BY h),
            c AS (SELECT per.source,
                         CAST(sum(CASE WHEN span.n_src >= 2
                                       THEN per.n ELSE 0 END)
                              AS BIGINT) AS n_cross_dup
                  FROM per JOIN span USING (h)
                  GROUP BY per.source),
            t AS (SELECT source, CAST(count(*) AS BIGINT) AS n_docs
                  FROM documents GROUP BY source)
            SELECT t.source, t.n_docs,
                   CAST(COALESCE(c.n_cross_dup, 0) AS BIGINT)
                       AS n_cross_dup,
                   CAST(COALESCE(c.n_cross_dup, 0) AS DOUBLE)
                     / CAST(t.n_docs AS DOUBLE) AS cross_frac
            FROM t LEFT JOIN c USING (source)
        """,
        "r4_cascade_rollup": """
            SELECT event_type,
                   CAST(epoch_us(ts) // 86400000000 // 7 AS BIGINT)
                       AS week,
                   CAST(min(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS min_cents,
                   CAST(max(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS max_cents,
                   CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS cents_sum,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        AS DOUBLE) / CAST(count(*) AS DOUBLE)
                       AS mean_cents
            FROM events GROUP BY event_type, week
        """,
        "a43_cox_stuart": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            o AS (SELECT event_type, x,
                         CAST(row_number() OVER (PARTITION BY event_type
                             ORDER BY day) - 1 AS BIGINT) AS i,
                         CAST(count(*) OVER (PARTITION BY event_type)
                              AS BIGINT) AS n
                  FROM d),
            p AS (SELECT a.event_type, a.n, b.x - a.x AS diff
                  FROM o a JOIN o b ON a.event_type = b.event_type
                       AND b.i = a.i + (a.n - a.n // 2)
                  WHERE a.i < a.n // 2),
            agg AS (SELECT event_type, any_value(n) AS n,
                           CAST(count(*) FILTER (WHERE diff > 0)
                                AS BIGINT) AS s_plus,
                           CAST(count(*) FILTER (WHERE diff < 0)
                                AS BIGINT) AS s_minus
                    FROM p GROUP BY event_type)
            SELECT event_type, n AS n_days, s_plus, s_minus,
                   CASE WHEN s_plus + s_minus > 0 THEN
                     CAST(abs(2 * s_plus - (s_plus + s_minus)) - 1
                          AS DOUBLE)
                       / sqrt(CAST(s_plus + s_minus AS DOUBLE))
                   END AS z_cs
            FROM agg
        """,
        "v15_stylometric_l1": """
            WITH ws AS (SELECT source,
                               list_filter(string_split(text, ' '),
                                           x -> x <> '') AS w
                        FROM documents),
            uni AS MATERIALIZED (
                SELECT source, unnest(w) AS word FROM ws),
            topk AS MATERIALIZED (
                SELECT word FROM (
                    SELECT word, CAST(count(*) AS BIGINT) AS n
                    FROM uni GROUP BY word
                    ORDER BY n DESC, word ASC LIMIT 20)),
            tot AS (SELECT source, CAST(count(*) AS BIGINT) AS n
                    FROM uni GROUP BY source),
            c AS (SELECT u.source, u.word,
                         CAST(count(*) AS BIGINT) AS c
                  FROM uni u JOIN topk USING (word)
                  GROUP BY u.source, u.word),
            grid AS (SELECT t.source, k.word,
                            COALESCE(c.c, 0) AS c, t.n
                     FROM tot t CROSS JOIN topk k
                     LEFT JOIN c ON c.source = t.source
                                AND c.word = k.word),
            f AS (SELECT a.source AS source_a, b.source AS source_b,
                         list(abs(CAST(a.c AS DOUBLE)
                                  / CAST(a.n AS DOUBLE)
                                  - CAST(b.c AS DOUBLE)
                                  / CAST(b.n AS DOUBLE))
                              ORDER BY a.word) AS terms
                  FROM grid a JOIN grid b
                    ON a.word = b.word AND a.source < b.source
                  GROUP BY a.source, b.source)
            SELECT source_a, source_b,
                   list_reduce(list_prepend(0.0, terms),
                               (x, y) -> x + y) AS l1
            FROM f
        """,
        "w33_type_diversity": """
            WITH c AS (SELECT user_id, event_type,
                              CAST(count(*) AS BIGINT) AS c
                       FROM events GROUP BY user_id, event_type),
            g AS (SELECT user_id,
                         CAST(sum(c) AS BIGINT) AS n_events,
                         CAST(count(*) AS BIGINT) AS n_types,
                         CAST(sum(c * c) AS BIGINT) AS ssq
                  FROM c GROUP BY user_id)
            SELECT user_id, n_events, n_types,
                   CAST(n_events * n_events - ssq AS BIGINT) AS div_num,
                   CAST(n_events * n_events AS BIGINT) AS div_den,
                   CAST(n_events * n_events - ssq AS DOUBLE)
                     / CAST(n_events * n_events AS DOUBLE)
                       AS gini_simpson
            FROM g
        """,
        "g24_beta_to_total": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            m AS MATERIALIZED (
              SELECT day, CAST(sum(x) AS BIGINT) AS mx
              FROM d GROUP BY day),
            j AS (SELECT d.event_type, d.x, m.mx
                  FROM d JOIN m USING (day)),
            agg AS (SELECT event_type,
                           CAST(count(*) AS BIGINT) AS n,
                           CAST(sum(x) AS BIGINT) AS sx,
                           CAST(sum(mx) AS BIGINT) AS sm,
                           CAST(sum(x * mx) AS BIGINT) AS sxm,
                           CAST(sum(mx * mx) AS BIGINT) AS smm
                    FROM j GROUP BY event_type)
            SELECT event_type, n AS n_days,
                   CAST(n * sxm - sx * sm AS BIGINT) AS cov_num,
                   CAST(n * smm - sm * sm AS BIGINT) AS var_num,
                   CASE WHEN n * smm - sm * sm > 0 THEN
                     CAST(n * sxm - sx * sm AS DOUBLE)
                       / CAST(n * smm - sm * sm AS DOUBLE)
                   END AS beta
            FROM agg
        """,
        "s21_filter_pushdown": """
            SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS cents_sum
            FROM events
            WHERE event_type = 'purchase' AND value >= 100.0
            GROUP BY day
        """,
        "k14_quant_saturation": """
            WITH eq AS (
              SELECT CAST(label AS BIGINT) AS label,
                     list_transform(CAST(embedding AS DOUBLE[]),
                         v -> CAST(floor(v * 1048576 + 0.5) AS BIGINT))
                         AS q
              FROM embeddings),
            n AS (SELECT label, q,
                         sqrt(CAST(list_reduce(list_prepend(
                             CAST(0 AS BIGINT),
                             list_transform(q, x -> x * x)),
                             (a, b) -> a + b) AS DOUBLE)) AS norm_q
                  FROM eq),
            co AS (SELECT label,
                          list_transform(q, x -> CAST(floor(
                              127 * CAST(x AS DOUBLE)
                              / (CASE WHEN norm_q = 0 THEN 1.0
                                      ELSE norm_q END) + 0.5)
                              AS BIGINT)) AS codes
                   FROM n),
            per AS (SELECT label,
                           CAST(len(codes) AS BIGINT) AS nc,
                           CAST(len(list_filter(codes,
                                x -> abs(x) >= 127)) AS BIGINT) AS sat,
                           CAST(len(list_filter(codes, x -> x = 0))
                                AS BIGINT) AS zer
                    FROM co),
            g AS (SELECT label, CAST(count(*) AS BIGINT) AS n_vecs,
                         CAST(sum(nc) AS BIGINT) AS n_codes,
                         CAST(sum(sat) AS BIGINT) AS n_saturated,
                         CAST(sum(zer) AS BIGINT) AS n_zero
                  FROM per GROUP BY label)
            SELECT label, n_vecs, n_codes, n_saturated, n_zero,
                   CAST(n_saturated AS DOUBLE) / CAST(n_codes AS DOUBLE)
                       AS sat_frac,
                   CAST(n_zero AS DOUBLE) / CAST(n_codes AS DOUBLE)
                       AS zero_frac
            FROM g
        """,
        "j15_next_error_wait": """
            WITH p AS (SELECT event_id, user_id, ts FROM events
                       WHERE event_type = 'purchase'),
            er AS (SELECT event_id AS next_error_event_id, user_id, ts
                   FROM events WHERE event_type = 'error'),
            j AS (SELECT p.event_id, p.user_id,
                         er.next_error_event_id,
                         CAST(epoch_us(er.ts) - epoch_us(p.ts)
                              AS BIGINT) AS wait_us,
                         row_number() OVER (PARTITION BY p.event_id
                             ORDER BY er.ts, er.next_error_event_id)
                             AS rn
                  FROM p JOIN er ON er.user_id = p.user_id
                                AND er.ts >= p.ts)
            SELECT p.event_id, p.user_id,
                   j.next_error_event_id, j.wait_us
            FROM p LEFT JOIN (SELECT * FROM j WHERE rn = 1) j
              USING (event_id)
        """,
        "r3_incremental_rollup": """
            SELECT user_id,
                   CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                   CAST(min(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS min_cents,
                   CAST(max(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS max_cents,
                   CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS cents_sum,
                   CAST(count(*) AS BIGINT) AS n
            FROM events GROUP BY user_id, day
        """,
        "a42_seasonal_mk": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            f AS MATERIALIZED (
              SELECT event_type, day, (day + 3) % 7 AS ph, x FROM d),
            p AS (SELECT a.event_type,
                         CAST(sum(CASE WHEN b.x > a.x THEN 1
                                       WHEN b.x < a.x THEN -1
                                       ELSE 0 END) AS BIGINT) AS s_stat
                  FROM f a JOIN f b ON a.event_type = b.event_type
                       AND a.ph = b.ph AND a.day < b.day
                  GROUP BY a.event_type),
            nn AS (SELECT event_type, ph,
                          CAST(count(*) AS BIGINT) AS n
                   FROM f GROUP BY event_type, ph),
            tg AS (SELECT event_type, ph,
                          CAST(count(*) AS BIGINT) AS t
                   FROM f GROUP BY event_type, ph, x),
            cr AS (SELECT event_type, ph,
                          CAST(sum(t * (t - 1) * (2 * t + 5))
                               AS BIGINT) AS corr
                   FROM tg GROUP BY event_type, ph),
            v AS (SELECT nn.event_type,
                         CAST(sum(nn.n * (nn.n - 1) * (2 * nn.n + 5)
                                  - COALESCE(cr.corr, 0)) AS BIGINT)
                             AS var_num
                  FROM nn LEFT JOIN cr USING (event_type, ph)
                  GROUP BY nn.event_type),
            tot AS (SELECT event_type, CAST(count(*) AS BIGINT)
                           AS n_days
                    FROM f GROUP BY event_type)
            SELECT tot.event_type, tot.n_days,
                   CAST(COALESCE(p.s_stat, 0) AS BIGINT) AS s_stat,
                   v.var_num,
                   CASE WHEN tot.n_days >= 2 AND v.var_num > 0 THEN
                     CASE WHEN COALESCE(p.s_stat, 0) = 0 THEN 0.0
                          WHEN p.s_stat > 0 THEN
                            CAST(p.s_stat - 1 AS DOUBLE)
                            / sqrt(CAST(v.var_num AS DOUBLE) / 18.0)
                          ELSE
                            CAST(p.s_stat + 1 AS DOUBLE)
                            / sqrt(CAST(v.var_num AS DOUBLE) / 18.0)
                     END
                   END AS z_smk
            FROM tot JOIN v USING (event_type)
                     LEFT JOIN p USING (event_type)
        """,
        "a41_variance_ratio": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            s AS (SELECT event_type, day, x,
                         lead(x, 1) OVER w AS x1,
                         lead(x, 2) OVER w AS x2
                  FROM d WINDOW w AS (PARTITION BY event_type
                                      ORDER BY day)),
            m AS (SELECT event_type,
                         CAST(count(*) AS BIGINT) AS n_days,
                         CAST(count(x1) AS BIGINT) AS n1,
                         CAST(count(x2) AS BIGINT) AS n2,
                         CAST(sum((x1 - x) * (x1 - x)) AS BIGINT) AS q1,
                         CAST(sum(x1 - x) AS BIGINT) AS s1,
                         CAST(sum((x2 - x) * (x2 - x)) AS BIGINT) AS q2,
                         CAST(sum(x2 - x) AS BIGINT) AS s2
                  FROM s GROUP BY event_type)
            SELECT event_type, n_days,
                   CAST(n1 * q1 - s1 * s1 AS BIGINT) AS var_num_d1,
                   CAST(n2 * q2 - s2 * s2 AS BIGINT) AS var_num_d2,
                   CASE WHEN n1 > 1 AND n2 > 1
                         AND n1 * q1 - s1 * s1 > 0 THEN
                     (CAST(n2 * q2 - s2 * s2 AS DOUBLE)
                      * CAST(n1 * n1 AS DOUBLE))
                     / (CAST(n1 * q1 - s1 * s1 AS DOUBLE)
                        * CAST(n2 * n2 AS DOUBLE) * 2.0)
                   END AS vr2
            FROM m
        """,
        "v14_pmi_bigrams": """
            WITH ws AS (SELECT doc_id,
                               list_filter(string_split(text, ' '),
                                           x -> x <> '') AS w
                        FROM documents),
            uni AS MATERIALIZED (SELECT unnest(w) AS word FROM ws),
            uc AS MATERIALIZED (
                SELECT word, CAST(count(*) AS BIGINT) AS c
                FROM uni GROUP BY word),
            tot AS (SELECT CAST(count(*) AS BIGINT) AS n FROM uni),
            bg AS (SELECT w[t.i] AS wa, w[t.i + 1] AS wb,
                          w[t.i] || ' ' || w[t.i + 1] AS word
                   FROM ws CROSS JOIN
                        unnest(range(1, greatest(len(w), 1))) AS t(i)),
            bc AS MATERIALIZED (
                SELECT word, any_value(wa) AS wa, any_value(wb) AS wb,
                       CAST(count(*) AS BIGINT) AS cxy
                FROM bg GROUP BY word HAVING count(*) >= 5),
            p AS (SELECT bc.word, bc.cxy, ca.c AS cx, cb.c AS cy,
                         ln(CAST(bc.cxy * tot.n AS DOUBLE)
                            / CAST(ca.c * cb.c AS DOUBLE)) AS pmi
                  FROM bc JOIN uc ca ON ca.word = bc.wa
                          JOIN uc cb ON cb.word = bc.wb
                          CROSS JOIN tot)
            SELECT word, cxy, cx, cy, pmi FROM p
            ORDER BY pmi DESC, word LIMIT 25
        """,
        "a40_exp_gof": """
            WITH o AS (SELECT event_type, epoch_us(ts) AS us,
                              lag(epoch_us(ts)) OVER (
                                  PARTITION BY event_type
                                  ORDER BY ts, event_id) AS pus
                       FROM events),
            g AS MATERIALIZED (
                SELECT event_type, CAST(us - pus AS BIGINT) AS gap
                FROM o WHERE pus IS NOT NULL),
            m AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(gap) AS BIGINT) AS s
                  FROM g GROUP BY event_type),
            r AS (SELECT g.event_type, g.gap, m.n, m.s,
                         CAST(row_number() OVER (
                             PARTITION BY g.event_type
                             ORDER BY g.gap) AS BIGINT) AS i
                  FROM g JOIN m USING (event_type)),
            d AS (SELECT event_type, n, s,
                         greatest(
                           CAST(i AS DOUBLE) / CAST(n AS DOUBLE)
                             - (1 - exp(-(CAST(n * gap AS DOUBLE)
                                          / CAST(s AS DOUBLE)))),
                           (1 - exp(-(CAST(n * gap AS DOUBLE)
                                      / CAST(s AS DOUBLE))))
                             - CAST(i - 1 AS DOUBLE)
                               / CAST(n AS DOUBLE)) AS dd
                  FROM r)
            SELECT event_type, any_value(n) AS n_gaps,
                   any_value(s) AS gaps_us_sum, max(dd) AS ks_d
            FROM d GROUP BY event_type
        """,
        "w32_max_drawdown": """
            WITH b AS (SELECT user_id, event_id, ts, epoch_us(ts) AS us,
                              CAST(floor(value * 100 + 0.5) AS BIGINT)
                                  AS vq
                       FROM events),
            c AS (SELECT user_id, event_id, us,
                         CAST(sum(vq) OVER (PARTITION BY user_id
                              ORDER BY us, event_id
                              ROWS UNBOUNDED PRECEDING) AS BIGINT)
                             AS cum
                  FROM b),
            p AS (SELECT *, CAST(max(cum) OVER (PARTITION BY user_id
                              ORDER BY us, event_id
                              ROWS UNBOUNDED PRECEDING) AS BIGINT)
                             AS peak
                  FROM c),
            d AS MATERIALIZED (
                SELECT user_id, event_id, us, cum,
                       CAST(peak - cum AS BIGINT) AS dd
                FROM p),
            r AS (SELECT *,
                         row_number() OVER (PARTITION BY user_id
                             ORDER BY dd DESC, us, event_id) AS rmax,
                         row_number() OVER (PARTITION BY user_id
                             ORDER BY us DESC, event_id DESC) AS rlast
                  FROM d)
            SELECT user_id, CAST(count(*) AS BIGINT) AS n,
                   CAST(max(CASE WHEN rlast = 1 THEN cum END)
                        AS BIGINT) AS final_cents,
                   CAST(max(dd) AS BIGINT) AS max_drawdown_cents,
                   CAST(max(CASE WHEN rmax = 1 THEN event_id END)
                        AS BIGINT) AS trough_event_id
            FROM r GROUP BY user_id
        """,
        "d13_cluster_sizes": f"""
            WITH RECURSIVE {_minhash_cte(0.5)},
            edges AS (SELECT doc_a AS a, doc_b AS b FROM mh_pairs
                      UNION SELECT doc_b, doc_a FROM mh_pairs),
            reach AS (SELECT a AS v, a AS r FROM edges
                      UNION
                      SELECT e.a, reach.r FROM edges e
                      JOIN reach ON reach.v = e.b),
            cl AS (SELECT v AS doc_id, min(r) AS cluster
                   FROM reach GROUP BY v),
            per AS (SELECT cluster, CAST(count(*) AS BIGINT) AS n
                    FROM cl GROUP BY cluster)
            SELECT n AS cluster_size,
                   CAST(count(*) AS BIGINT) AS n_clusters,
                   CAST(n * count(*) AS BIGINT) AS n_docs
            FROM per GROUP BY n
        """,
        "u3_tombstone_merge": """
            WITH b AS (SELECT event_id, CAST(epoch_us(ts) AS BIGINT)
                              AS ts_us, user_id, value,
                              CAST(0 AS BIGINT) AS op
                       FROM events),
            u AS (SELECT event_id,
                         CAST(epoch_us(ts) + 86400000000 AS BIGINT),
                         user_id, value + 1000.0, CAST(1 AS BIGINT)
                  FROM events WHERE event_id % 7 = 0),
            d AS (SELECT event_id,
                         CAST(epoch_us(ts) + 172800000000 AS BIGINT),
                         user_id, value, CAST(2 AS BIGINT)
                  FROM events WHERE event_id % 17 = 0),
            a AS (SELECT * FROM b UNION ALL SELECT * FROM u
                  UNION ALL SELECT * FROM d),
            r AS (SELECT *, row_number() OVER (PARTITION BY event_id
                               ORDER BY ts_us DESC, op DESC) AS rn
                  FROM a)
            SELECT event_id, ts_us, user_id, value, op AS last_op
            FROM r WHERE rn = 1 AND op <> 2
        """,
        "a38_mann_whitney": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            r AS MATERIALIZED (
              SELECT event_type, day % 2 AS par,
                     CAST(2 * rank() OVER (PARTITION BY event_type
                                           ORDER BY x)
                          + count(*) OVER (PARTITION BY event_type, x)
                          - 1 AS BIGINT) AS two_r
              FROM d),
            tc AS (SELECT event_type,
                          CAST(sum(c * c * c - c) AS BIGINT) AS ties
                   FROM (SELECT event_type, x,
                                CAST(count(*) AS BIGINT) AS c
                         FROM d GROUP BY event_type, x)
                   GROUP BY event_type),
            m AS (SELECT event_type,
                         CAST(count(*) AS BIGINT) AS big_n,
                         CAST(count(*) FILTER (WHERE par = 0)
                              AS BIGINT) AS n,
                         CAST(count(*) FILTER (WHERE par = 1)
                              AS BIGINT) AS mm,
                         CAST(sum(two_r) FILTER (WHERE par = 0)
                              AS BIGINT) AS w2
                  FROM r GROUP BY event_type)
            SELECT m.event_type, m.n AS n_even, m.mm AS n_odd,
                   CAST(m.w2 - m.n * (m.n + 1) AS BIGINT) AS u2,
                   CAST(m.n * m.mm * ((m.big_n + 1) * m.big_n
                        * (m.big_n - 1) - tc.ties) AS BIGINT)
                       AS var2_num,
                   CASE WHEN m.n > 0 AND m.mm > 0
                         AND m.n * m.mm * ((m.big_n + 1) * m.big_n
                             * (m.big_n - 1) - tc.ties) > 0 THEN
                     CAST(m.w2 - m.n * (m.n + 1) - m.n * m.mm
                          AS DOUBLE)
                       / sqrt(CAST(m.n * m.mm * ((m.big_n + 1)
                              * m.big_n * (m.big_n - 1) - tc.ties)
                              AS DOUBLE)
                              / CAST(3 * m.big_n * (m.big_n - 1)
                                     AS DOUBLE))
                   END AS z
            FROM m JOIN tc USING (event_type)
        """,
        "a39_bartels_rvn": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            r AS MATERIALIZED (
              SELECT event_type, day,
                     CAST(2 * rank() OVER (PARTITION BY event_type
                                           ORDER BY x)
                          + count(*) OVER (PARTITION BY event_type, x)
                          - 1 AS BIGINT) AS two_r,
                     CAST(count(*) OVER (PARTITION BY event_type)
                          AS BIGINT) AS n
              FROM d),
            s AS (SELECT event_type, two_r, n,
                         lead(two_r) OVER (PARTITION BY event_type
                                           ORDER BY day) AS nxt
                  FROM r),
            agg AS (SELECT event_type, any_value(n) AS n,
                           CAST(sum((two_r - nxt) * (two_r - nxt))
                                FILTER (WHERE nxt IS NOT NULL)
                                AS BIGINT) AS num2,
                           CAST(sum((two_r - (n + 1))
                                    * (two_r - (n + 1))) AS BIGINT)
                               AS den2
                    FROM s GROUP BY event_type)
            SELECT event_type, n AS n_days, num2, den2,
                   CASE WHEN den2 > 0 THEN CAST(num2 AS DOUBLE)
                        / CAST(den2 AS DOUBLE) END AS rvn
            FROM agg
        """,
        "j14_asof_tolerance": """
            WITH ranked AS (
              SELECT event_id, event_type, ts, value,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY ts, event_id) AS rn
              FROM events),
            cp AS (SELECT event_id AS calib_event_id, event_type, ts,
                          value AS calib_value
                   FROM ranked WHERE (rn - 1) % 50 = 0)
            SELECT e.event_id, e.event_type, e.value,
                   CASE WHEN epoch_us(e.ts) - epoch_us(c.ts)
                             <= 43200000000
                        THEN c.calib_value END AS calib_value,
                   CASE WHEN epoch_us(e.ts) - epoch_us(c.ts)
                             <= 43200000000
                        THEN c.calib_event_id END AS calib_event_id,
                   CASE WHEN epoch_us(e.ts) - epoch_us(c.ts)
                             <= 43200000000
                        THEN CAST(epoch_us(e.ts) - epoch_us(c.ts)
                                  AS BIGINT) END AS age_us
            FROM events e ASOF LEFT JOIN cp c
              ON e.event_type = c.event_type AND e.ts >= c.ts
        """,
        "p6_sequence_composition": """
            WITH n AS (
              SELECT doc_id,
                     CAST(length(list_filter(string_split(text, ' '),
                          x -> x <> '')) AS BIGINT) AS n_tok
              FROM documents),
            c AS (SELECT doc_id, n_tok,
                         CAST(COALESCE(sum(n_tok) OVER (ORDER BY doc_id
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING), 0) AS BIGINT) AS off
                  FROM n),
            d AS (SELECT doc_id, n_tok, off,
                         off // 1024 AS s0,
                         (off + n_tok - 1) // 1024 AS s1
                  FROM c WHERE n_tok > 0),
            f AS (SELECT unnest(generate_series(s0, s1)) AS seq_id
                  FROM d),
            g AS (SELECT seq_id, CAST(count(*) AS BIGINT) AS n_docs
                  FROM f GROUP BY seq_id),
            tot AS (SELECT CAST(sum(n_tok) AS BIGINT) AS t FROM n)
            SELECT g.seq_id, g.n_docs,
                   CAST(g.n_docs - 1 AS BIGINT) AS n_boundaries,
                   CAST(least(1024, tot.t - g.seq_id * 1024) AS BIGINT)
                       AS n_tokens
            FROM g, tot
        """,
        "q16_shard_balance": """
            WITH n AS (
              SELECT doc_id,
                     CAST(length(list_filter(string_split(text, ' '),
                          x -> x <> '')) AS BIGINT) AS n_tok
              FROM documents),
            r AS (SELECT doc_id, n_tok,
                         CAST(row_number() OVER (ORDER BY n_tok, doc_id)
                              - 1 AS BIGINT) AS rk
                  FROM n),
            g AS (SELECT rk % 8 AS shard,
                         CAST(count(*) AS BIGINT) AS n_docs,
                         CAST(sum(n_tok) AS BIGINT) AS tokens_sum
                  FROM r GROUP BY shard),
            tot AS (SELECT CAST(sum(n_tok) AS BIGINT) AS t FROM n)
            SELECT g.shard, g.n_docs, g.tokens_sum,
                   CAST(8 * g.tokens_sum AS DOUBLE)
                     / CAST(tot.t AS DOUBLE) AS balance_ratio
            FROM g, tot
        """,
        "q15_token_budget_select": """
            WITH n AS (
              SELECT doc_id,
                     CAST(length(list_filter(string_split(text, ' '),
                          x -> x <> '')) AS BIGINT) AS n_tok
              FROM documents),
            c AS (SELECT doc_id, n_tok,
                         CAST(sum(n_tok) OVER (ORDER BY n_tok, doc_id
                              ROWS UNBOUNDED PRECEDING) AS BIGINT)
                             AS cum_tok
                  FROM n)
            SELECT doc_id, n_tok, cum_tok FROM c WHERE cum_tok <= 50000
        """,
        "pagerank_dup_graph": f"""
            WITH {_minhash_cte(0.2)},
            e AS (SELECT doc_a AS s, doc_b AS d FROM mh_pairs
                  UNION ALL SELECT doc_b, doc_a FROM mh_pairs),
            deg AS (SELECT s AS v, count(*) AS deg FROM e GROUP BY s),
            r0 AS (SELECT v, deg, CAST(1000000 AS BIGINT) AS r FROM deg),
            s1 AS (SELECT e.d AS v, CAST(sum(r0.r // r0.deg) AS BIGINT) AS t
                   FROM e JOIN r0 ON r0.v = e.s GROUP BY e.d),
            r1 AS (SELECT deg.v, deg.deg,
                          150000 + (85 * s1.t) // 100 AS r
                   FROM deg JOIN s1 ON s1.v = deg.v),
            s2 AS (SELECT e.d AS v, CAST(sum(r1.r // r1.deg) AS BIGINT) AS t
                   FROM e JOIN r1 ON r1.v = e.s GROUP BY e.d),
            r2 AS (SELECT deg.v, deg.deg,
                          150000 + (85 * s2.t) // 100 AS r
                   FROM deg JOIN s2 ON s2.v = deg.v),
            s3 AS (SELECT e.d AS v, CAST(sum(r2.r // r2.deg) AS BIGINT) AS t
                   FROM e JOIN r2 ON r2.v = e.s GROUP BY e.d),
            r3 AS (SELECT deg.v, deg.deg,
                          150000 + (85 * s3.t) // 100 AS r
                   FROM deg JOIN s3 ON s3.v = deg.v)
            SELECT v AS doc_id, CAST(deg AS BIGINT) AS deg,
                   CAST(r AS BIGINT) AS rank_q
            FROM r3
        """,
        # D6 Levenshtein: DuckDB's built-in levenshtein() vs the engine's
        # pairs-vectorized DP, over the same MinHash candidate set
        "dedup_levenshtein_pairs": f"""
            WITH {_minhash_cte(0.2)},
            pre AS (SELECT doc_id, substr(text, 1, 64) AS p FROM documents)
            SELECT m.doc_a, m.doc_b,
                   CAST(length(xa.p) AS BIGINT) AS len_a,
                   CAST(length(xb.p) AS BIGINT) AS len_b,
                   CAST(levenshtein(xa.p, xb.p) AS BIGINT) AS lev
            FROM mh_pairs m
            JOIN pre xa ON xa.doc_id = m.doc_a
            JOIN pre xb ON xb.doc_id = m.doc_b
        """,
        # M5 JSON props: DuckDB's real JSON parser vs the engine's RE2
        # extraction — two independent parsers agreeing on every value
        "m5_json_props": """
            SELECT event_type, count(*) AS n,
                   CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT))
                       AS BIGINT) AS k_sum,
                   min(CAST(json_extract(props, '$.k') AS BIGINT)) AS k_min,
                   max(CAST(json_extract(props, '$.k') AS BIGINT)) AS k_max
            FROM events GROUP BY event_type
        """,
        # D5 set ops via the real INTERSECT / EXCEPT operators
        "d5_set_ops": """
            WITH a AS (SELECT DISTINCT user_id FROM events
                       WHERE event_type = 'purchase'),
                 b AS (SELECT DISTINCT user_id FROM events
                       WHERE event_type = 'error')
            SELECT user_id, 'intersect' AS setop
            FROM (SELECT user_id FROM a INTERSECT SELECT user_id FROM b)
            UNION ALL
            SELECT user_id, 'except' AS setop
            FROM (SELECT user_id FROM a EXCEPT SELECT user_id FROM b)
        """,
        # S8 schema evolution: deterministic even/odd id split; lang is
        # non-null exactly on the v2 (odd) half
        "s8_schema_evolution": """
            SELECT source, count(*) AS n_docs,
                   CAST(sum(CAST(n_chars AS BIGINT)) AS BIGINT) AS chars_sum,
                   CAST(count(*) FILTER (doc_id % 2 = 1) AS BIGINT)
                       AS n_with_lang,
                   CAST(count(*) FILTER (doc_id % 2 = 1 AND lang = 'en')
                       AS BIGINT) AS n_en
            FROM documents GROUP BY source
        """,
        # S7 CSV round trip: aggregates off the ORIGINAL parquet — passes
        # only if the CSV wire format preserved every field
        "s7_csv_roundtrip": """
            SELECT l_returnflag,
                   count(*) AS n_rows,
                   CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS qty_sum,
                   CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5)
                       AS BIGINT)) AS BIGINT) AS cents_sum,
                   CAST(sum(l_orderkey) AS BIGINT) AS okey_sum
            FROM lineitem GROUP BY l_returnflag
        """,
        # T7 pivot: conditional aggregation; weekday via epoch-day + 3 mod 7
        "t7_pivot_events": """
            WITH base AS (
              SELECT event_type,
                     ((epoch_us(ts) // 86400000000) + 3) % 7 AS dow
              FROM events)
            SELECT event_type,
                   CAST(count(*) FILTER (dow = 0) AS BIGINT) AS dow_0,
                   CAST(count(*) FILTER (dow = 1) AS BIGINT) AS dow_1,
                   CAST(count(*) FILTER (dow = 2) AS BIGINT) AS dow_2,
                   CAST(count(*) FILTER (dow = 3) AS BIGINT) AS dow_3,
                   CAST(count(*) FILTER (dow = 4) AS BIGINT) AS dow_4,
                   CAST(count(*) FILTER (dow = 5) AS BIGINT) AS dow_5,
                   CAST(count(*) FILTER (dow = 6) AS BIGINT) AS dow_6
            FROM base GROUP BY event_type
        """,
        # J8 semi join: EXISTS over the same pre-aggregated right side
        "j8_semi_join": """
            SELECT c_custkey, c_name, c_acctbal
            FROM customer c
            WHERE EXISTS (SELECT 1 FROM orders o
                          WHERE o.o_custkey = c.c_custkey
                            AND o.o_totalprice > 400000.0)
        """,
        # T6 regex scrub: RE2 on both sides, so counts/replacements agree
        "t6_scrub_stats": r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text,
                       '\b(key|customer|value)\b')) AS BIGINT) AS n_hits,
                   CAST(len(regexp_extract_all(text, '\bkey\b'))
                       AS BIGINT) AS n_key,
                   CAST(length(regexp_replace(text,
                       '\b(key|customer|value)\b', '<PII>', 'g'))
                       AS BIGINT) AS red_len
            FROM documents
        """,
        # P4 overlapping chunking: chunk starts unnested from the per-doc
        # chunk count, per-chunk aggregates by a position-range join
        "p4_chunk_docs": f"""
            WITH {_SEQ_TOK_CTE},
            seqn AS (SELECT doc_id, len(toks) AS n FROM seq),
            ch AS (
              SELECT doc_id,
                     unnest(range(0, 1 + greatest(CAST(ceil(
                         CAST(n - 128 AS DOUBLE) / 96) AS BIGINT), 0)))
                       AS chunk_id,
                     n
              FROM seqn WHERE n > 0)
            SELECT c.doc_id, c.chunk_id, c.chunk_id * 96 AS start_pos,
                   count(*) AS n,
                   CAST(sum(t.v) AS BIGINT) AS tok_sum,
                   CAST(sum(CAST(t.v AS BIGINT) * t.v) AS BIGINT)
                       AS tok_sumsq,
                   CAST(min(t.v) AS BIGINT) AS tok_min,
                   CAST(max(t.v) AS BIGINT) AS tok_max
            FROM ch c JOIN tok t ON t.doc_id = c.doc_id
              AND t.pos >= c.chunk_id * 96
              AND t.pos < c.chunk_id * 96 + 128
            GROUP BY c.doc_id, c.chunk_id
        """,
        # S6 JSONL round trip: same aggregates straight off the parquet —
        # matches only if the JSONL wire format preserved every byte
        "s6_jsonl_roundtrip": """
            SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS chars_sum,
                   CAST(sum(len(string_split(text, ' '))) AS BIGINT)
                       AS words_sum
            FROM documents GROUP BY source
        """,
        # W6 per-key rank/CDF normalize: DuckDB rank semantics (ties share
        # the min rank); pct = one pinned division of exact ints
        "w6_rank_normalize": """
            SELECT event_id, user_id, value,
                   CAST(rank() OVER w - 1 AS BIGINT) AS rk,
                   CAST(count(*) OVER (PARTITION BY user_id) - 1
                        AS BIGINT) AS nm1,
                   CASE WHEN count(*) OVER (PARTITION BY user_id) = 1
                        THEN 0.0
                        ELSE CAST(rank() OVER w - 1 AS DOUBLE)
                             / (count(*) OVER (PARTITION BY user_id) - 1)
                   END AS pct
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY value)
        """,
        # W8 time-range window: RANGE INTERVAL semantics (peers by ts all
        # count); quantized sum is exact
        # W16 share: exact int num/den, one division per event
        "w16_share_of_total": """
            WITH base AS (
              SELECT event_id, user_id,
                     CAST(floor(value * 1000000 + 0.5) AS BIGINT) AS vq
              FROM events),
            t AS (
              SELECT event_id, user_id, vq,
                     CAST(sum(vq) OVER (PARTITION BY user_id) AS BIGINT)
                         AS user_total_vq
              FROM base)
            SELECT event_id, user_id, vq, user_total_vq,
                   CASE WHEN user_total_vq = 0 THEN NULL
                        ELSE CAST(vq AS DOUBLE)
                             / CAST(user_total_vq AS DOUBLE) END AS share
            FROM t
        """,
        # W10 Markov transitions: lead() adjacency within each user's
        # timeline, exact counts, one pinned division per row
        "w10_markov_transitions": """
            WITH nxt AS (
              SELECT event_type AS from_type,
                     lead(event_type) OVER (PARTITION BY user_id
                                            ORDER BY ts, event_id) AS to_type
              FROM events),
            c AS (SELECT from_type, to_type, count(*) AS cnt
                  FROM nxt WHERE to_type IS NOT NULL
                  GROUP BY from_type, to_type)
            SELECT from_type, to_type, cnt,
                   CAST(sum(cnt) OVER (PARTITION BY from_type) AS BIGINT)
                       AS from_total,
                   CAST(cnt AS DOUBLE)
                     / CAST(CAST(sum(cnt) OVER (PARTITION BY from_type)
                                 AS BIGINT) AS DOUBLE) AS prob
            FROM c
        """,
        # A10 Hampel filter: median()/mad() window aggregates (exact
        # element-or-midpoint, the w12 discipline); pinned float compare
        "a10_hampel_filter": """
            WITH t AS (
              SELECT event_id, user_id, value,
                     median(value) OVER w AS med,
                     mad(value) OVER w AS mad,
                     row_number() OVER w AS rn
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS BETWEEN 6 PRECEDING AND CURRENT ROW))
            SELECT event_id, user_id, value, med, mad,
                   (abs(value - med) > 3.0 * (1.4826 * mad)) AS is_anomaly
            FROM t WHERE rn >= 7
        """,
        # D7 debounce: gap to previous same-(user, type) event via lag()
        "d7_debounce_events": """
            WITH t AS (
              SELECT event_id, user_id, event_type,
                     epoch_us(ts) - epoch_us(lag(ts) OVER (
                         PARTITION BY user_id, event_type
                         ORDER BY ts, event_id)) AS gap
              FROM events)
            SELECT event_id, user_id, event_type,
                   CAST(gap AS BIGINT) AS gap_same_type_us,
                   COALESCE(gap < CAST(86400000000 AS BIGINT), FALSE)
                       AS is_dup
            FROM t
        """,
        # W25 volatility: lag deltas + exact-halves medians
        "w25_volatility": """
            WITH d AS (
              SELECT user_id,
                     abs(CAST(floor(value * 100 + 0.5) AS BIGINT)
                         - lag(CAST(floor(value * 100 + 0.5) AS BIGINT))
                             OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id)) AS ad
              FROM events),
            m AS (SELECT user_id, count(*) AS n_deltas,
                         median(ad) AS med_abs_delta
                  FROM d WHERE ad IS NOT NULL GROUP BY user_id)
            SELECT m.user_id, m.n_deltas, m.med_abs_delta,
                   median(abs(d.ad - m.med_abs_delta)) AS mad_abs_delta
            FROM d JOIN m USING (user_id)
            WHERE d.ad IS NOT NULL
            GROUP BY m.user_id, m.n_deltas, m.med_abs_delta
        """,
        # W27 monotone streaks: gaps-and-islands — island id = rn -
        # running count of is-increase flags; lengths by GROUP BY
        "w27_monotone_streaks": """
            WITH s AS (
              SELECT user_id,
                     row_number() OVER w AS rn,
                     CASE WHEN value > lag(value) OVER w
                          THEN 1 ELSE 0 END AS inc
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
            g AS (
              SELECT user_id, rn,
                     rn - CAST(sum(inc) OVER (PARTITION BY user_id
                                              ORDER BY rn) AS BIGINT)
                         AS grp
              FROM s),
            r AS MATERIALIZED (
              SELECT user_id, grp, CAST(count(*) AS BIGINT) AS len
              FROM g GROUP BY user_id, grp)
            SELECT user_id,
                   CAST(sum(len) AS BIGINT) AS n_events,
                   CAST(max(len) AS BIGINT) AS longest_streak,
                   CAST(sum(CASE WHEN len >= 2 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_up_runs
            FROM r GROUP BY user_id
        """,
        # G19 rolling distinct: DISTINCT triples joined to the observed
        # day grid with a trailing BETWEEN window
        "g19_rolling_distinct": """
            WITH tri AS (
              SELECT DISTINCT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     user_id
              FROM events),
            dg AS (SELECT DISTINCT event_type, day FROM tri)
            SELECT dg.event_type, dg.day,
                   CAST(count(DISTINCT t.user_id) AS BIGINT) AS u7
            FROM dg JOIN tri t
              ON t.event_type = dg.event_type
             AND t.day BETWEEN dg.day - 6 AND dg.day
            GROUP BY dg.event_type, dg.day
        """,
        # A35 seasonal energy: integer twiddle factors (cos/sin of 90-
        # degree multiples) make the period-2/4 DFT sums exact BIGINTs;
        # powers are the pinned double products
        "a35_seasonal_energy": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            a AS (
              SELECT event_type,
                     CAST(count(*) AS BIGINT) AS n_days,
                     CAST(sum(CASE WHEN day % 2 = 0 THEN x ELSE -x END)
                          AS BIGINT) AS s_alt,
                     CAST(sum(CASE WHEN day % 4 = 0 THEN x
                                   WHEN day % 4 = 2 THEN -x
                                   ELSE 0 END) AS BIGINT) AS c4,
                     CAST(sum(CASE WHEN day % 4 = 1 THEN x
                                   WHEN day % 4 = 3 THEN -x
                                   ELSE 0 END) AS BIGINT) AS s4
              FROM d GROUP BY event_type)
            SELECT event_type, n_days, s_alt, c4, s4,
                   CAST(s_alt AS DOUBLE) * CAST(s_alt AS DOUBLE) AS p2,
                   CAST(c4 AS DOUBLE) * CAST(c4 AS DOUBLE)
                     + CAST(s4 AS DOUBLE) * CAST(s4 AS DOUBLE) AS p4
            FROM a
        """,
        # W28 rolling extrema: ROWS k-1 PRECEDING window max/min; the
        # range subtracts the same two IEEE doubles on both sides
        "w28_rolling_extrema": """
            SELECT event_id, user_id, value,
                   max(value) OVER w AS rmax,
                   min(value) OVER w AS rmin,
                   max(value) OVER w - min(value) OVER w AS rrange
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
        """,
        # W29 arrival lateness: running event-time high-water mark in
        # arrival (event_id) order; late = strictly below the mark
        "w29_arrival_lateness": """
            WITH c AS (
              SELECT event_type, epoch_us(ts) AS us,
                     max(epoch_us(ts)) OVER (
                         PARTITION BY event_type ORDER BY event_id
                         ROWS UNBOUNDED PRECEDING) AS rmax
              FROM events),
            a AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n_events
                  FROM c GROUP BY event_type),
            l AS (SELECT event_type,
                         CAST((rmax - us) // 1000000 AS BIGINT) AS late_s
                  FROM c WHERE us < rmax),
            m AS (SELECT event_type,
                         CAST(count(*) AS BIGINT) AS n_late,
                         CAST(max(late_s) AS BIGINT) AS max_late_s,
                         CAST(sum(late_s) AS BIGINT) AS sum_late_s,
                         median(late_s) AS med_late_s
                  FROM l GROUP BY event_type)
            SELECT a.event_type, a.n_events,
                   coalesce(m.n_late, 0) AS n_late,
                   coalesce(m.max_late_s, 0) AS max_late_s,
                   coalesce(m.sum_late_s, 0) AS sum_late_s,
                   m.med_late_s
            FROM a LEFT JOIN m USING (event_type)
        """,
        # Q13 mixture sample: sqrt-damped quotas with the pinned
        # list_reduce normalizer fold, Q6's Knuth hash at seed 7
        "q13_mixture_sample": f"""
            WITH c AS (SELECT source, CAST(count(*) AS BIGINT) AS n
                       FROM documents GROUP BY source),
            w AS (SELECT source, n, sqrt(CAST(n AS DOUBLE)) AS wgt FROM c),
            tot AS (SELECT list_reduce(
                        list_prepend(0.0, list(wgt ORDER BY source)),
                        (a, b) -> a + b) AS W FROM w),
            q AS (SELECT source,
                         CAST(floor(CAST(200 AS DOUBLE) * wgt / tot.W)
                              AS BIGINT) AS quota
                  FROM w, tot),
            h AS (SELECT doc_id, source,
                         CAST((CAST(xor(doc_id % 4294967296,
                                        {(7 * 2654435761) & 0xFFFFFFFF})
                                    AS HUGEINT) * 2654435761)
                              % 4294967296 AS BIGINT) AS h
                  FROM documents),
            r AS (SELECT doc_id, source, h,
                         CAST(row_number() OVER (PARTITION BY source
                                                 ORDER BY h, doc_id) - 1
                              AS BIGINT) AS smp_rank
                  FROM h)
            SELECT r.source, r.doc_id, r.h, r.smp_rank
            FROM r JOIN q USING (source) WHERE r.smp_rank < q.quota
        """,
        # T16 char entropy: exact byte counts via per-position unnest,
        # G15's pinned list_reduce entropy fold in byte order
        "t16_char_entropy": """
            WITH pos AS (
              SELECT source, text,
                     unnest(generate_series(1, length(text))) AS i
              FROM documents),
            c AS MATERIALIZED (
              SELECT source,
                     ascii(substr(text, CAST(i AS INTEGER), 1)) AS byte,
                     CAST(count(*) AS BIGINT) AS n
              FROM pos GROUP BY source, byte),
            t AS (SELECT source, CAST(sum(n) AS BIGINT) AS total,
                         count(*) AS nb
                  FROM c GROUP BY source),
            f AS (SELECT c.source,
                         any_value(t.total) AS total,
                         any_value(t.nb) AS nb,
                         list(CAST(c.n AS DOUBLE) / CAST(t.total AS DOUBLE)
                              * ln(CAST(c.n AS DOUBLE)
                                   / CAST(t.total AS DOUBLE))
                              ORDER BY c.byte) AS xs
                  FROM c JOIN t USING (source)
                  GROUP BY c.source)
            SELECT source, total AS total_bytes,
                   CAST(nb AS BIGINT) AS n_distinct_bytes,
                   -list_reduce(list_prepend(0.0, xs),
                                (a, b) -> a + b) AS entropy,
                   CASE WHEN nb > 1 THEN
                     -list_reduce(list_prepend(0.0, xs), (a, b) -> a + b)
                       / ln(CAST(nb AS DOUBLE))
                   END AS norm_entropy
            FROM f
        """,
        # S19 gzip JSONL round trip: same parquet-side aggregates as S6
        # — green only if the compressed wire format was lossless
        "s19_gzip_jsonl_roundtrip": """
            SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS chars_sum,
                   CAST(sum(len(string_split(text, ' '))) AS BIGINT)
                       AS words_sum
            FROM documents GROUP BY source
        """,
        # J12 band join: LEFT JOIN over the trailing 72 h band, exact
        # cent sums
        "j12_band_join_count": """
            WITH p AS (SELECT event_id, user_id, epoch_us(ts) AS us
                       FROM events WHERE event_type = 'purchase'),
            err AS (SELECT user_id, epoch_us(ts) AS us,
                           CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
                    FROM events WHERE event_type = 'error')
            SELECT p.event_id, p.user_id,
                   CAST(count(e.us) AS BIGINT) AS n_prior_errors,
                   CAST(coalesce(sum(e.v100), 0) AS BIGINT)
                       AS err_cents_sum
            FROM p LEFT JOIN err e
              ON e.user_id = p.user_id
             AND e.us >= p.us - 259200000000
             AND e.us < p.us
            GROUP BY p.event_id, p.user_id
        """,
        # A36 rescaled range: integer cumdev_i = n*P_i - i*S, integer
        # range and variance numerator, one pinned sqrt + division
        "a36_rescaled_range": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            c AS (
              SELECT event_type,
                     CAST(sum(x) OVER (PARTITION BY event_type
                                       ORDER BY day) AS BIGINT) AS p,
                     CAST(row_number() OVER (PARTITION BY event_type
                                             ORDER BY day) AS BIGINT) AS i
              FROM d),
            t AS (SELECT event_type,
                         CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(x) AS BIGINT) AS s,
                         CAST(sum(x * x) AS BIGINT) AS q
                  FROM d GROUP BY event_type),
            r AS (SELECT c.event_type,
                         CAST(max(t.n * c.p - c.i * t.s)
                              - min(t.n * c.p - c.i * t.s) AS BIGINT)
                             AS r_range
                  FROM c JOIN t USING (event_type)
                  GROUP BY c.event_type)
            SELECT t.event_type, t.n AS n_days, r.r_range,
                   CAST(t.n * t.q - t.s * t.s AS BIGINT) AS var_num,
                   CASE WHEN t.n * t.q - t.s * t.s > 0
                        THEN CAST(r.r_range AS DOUBLE)
                             / sqrt(CAST(t.n * t.q - t.s * t.s AS DOUBLE))
                   END AS rs
            FROM t JOIN r USING (event_type)
        """,
        # A37 Pettitt changepoint: mid-rank identity 2R = 2*min_rank +
        # ties - 1, V_i = 2R - (n+1), U_t = cumsum; K/tau exact ints,
        # p-approx the pinned 2*exp(-6K^2/(n^3+n^2))
        "a37_pettitt": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day, CAST(sum(v100) AS BIGINT) AS x
              FROM e GROUP BY event_type, day),
            r AS MATERIALIZED (
              SELECT event_type, day,
                     CAST(2 * rank() OVER (PARTITION BY event_type
                                           ORDER BY x)
                          + count(*) OVER (PARTITION BY event_type, x)
                          - 1 AS BIGINT) AS two_r,
                     CAST(count(*) OVER (PARTITION BY event_type)
                          AS BIGINT) AS n,
                     CAST(row_number() OVER (PARTITION BY event_type
                                             ORDER BY day) AS BIGINT) AS t
              FROM d),
            u AS MATERIALIZED (
              SELECT event_type, day, n, t,
                     CAST(sum(two_r - (n + 1))
                          OVER (PARTITION BY event_type ORDER BY t)
                          AS BIGINT) AS u_t
              FROM r),
            k AS (SELECT event_type, any_value(n) AS n,
                         CAST(max(abs(u_t)) AS BIGINT) AS k_stat
                  FROM u WHERE t < n GROUP BY event_type),
            tau AS (SELECT u.event_type,
                           CAST(min(u.day) AS BIGINT) AS tau_day
                    FROM u JOIN k ON u.event_type = k.event_type
                                 AND abs(u.u_t) = k.k_stat
                    WHERE u.t < u.n
                    GROUP BY u.event_type)
            SELECT k.event_type, k.n AS n_days, k.k_stat, tau.tau_day,
                   2 * exp(CAST(-6 * k.k_stat * k.k_stat AS DOUBLE)
                           / CAST(k.n * k.n * k.n + k.n * k.n AS DOUBLE))
                       AS p_approx
            FROM k JOIN tau USING (event_type)
        """,
        # G20 Spearman: Pearson over doubled mid-ranks; exact-int
        # moments, pinned float(num) / (sqrt(d1) * sqrt(d2))
        "g20_spearman_daily": """
            WITH e AS (
              SELECT event_type,
                     CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS v100
              FROM events),
            d AS MATERIALIZED (
              SELECT event_type, day,
                     CAST(sum(v100) AS BIGINT) AS x,
                     CAST(count(*) AS BIGINT) AS c
              FROM e GROUP BY event_type, day),
            r AS MATERIALIZED (
              SELECT event_type,
                     CAST(2 * rank() OVER (PARTITION BY event_type
                                           ORDER BY x)
                          + count(*) OVER (PARTITION BY event_type, x)
                          - 1 AS BIGINT) AS a,
                     CAST(2 * rank() OVER (PARTITION BY event_type
                                           ORDER BY c)
                          + count(*) OVER (PARTITION BY event_type, c)
                          - 1 AS BIGINT) AS b
              FROM d),
            m AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                         CAST(sum(a) AS BIGINT) AS sa,
                         CAST(sum(b) AS BIGINT) AS sb,
                         CAST(sum(a * a) AS BIGINT) AS saa,
                         CAST(sum(b * b) AS BIGINT) AS sbb,
                         CAST(sum(a * b) AS BIGINT) AS sab
                  FROM r GROUP BY event_type)
            SELECT event_type, n AS n_days,
                   CAST(n * sab - sa * sb AS BIGINT) AS num,
                   CAST(n * saa - sa * sa AS BIGINT) AS d1,
                   CAST(n * sbb - sb * sb AS BIGINT) AS d2,
                   CASE WHEN n * saa - sa * sa > 0
                         AND n * sbb - sb * sb > 0 THEN
                     CAST(n * sab - sa * sb AS DOUBLE)
                       / (sqrt(CAST(n * saa - sa * sa AS DOUBLE))
                          * sqrt(CAST(n * sbb - sb * sb AS DOUBLE)))
                   END AS rho
            FROM m
        """,
        # Q14 length buckets: powers-of-two ladder join (no float log2
        # anywhere), exact token sums, pinned pad_frac division
        "q14_length_buckets": """
            WITH n AS (
              SELECT doc_id,
                     CAST(length(list_filter(string_split(text, ' '),
                          x -> x <> '')) AS BIGINT) AS n_tok
              FROM documents),
            p AS (SELECT CAST(1 AS BIGINT) << CAST(t.s AS INTEGER) AS b
                  FROM unnest(range(0, 63)) AS t(s)),
            bk AS (SELECT n.doc_id, n.n_tok, min(p.b) AS bucket
                   FROM n JOIN p ON p.b >= greatest(n.n_tok, 1)
                   GROUP BY n.doc_id, n.n_tok),
            g AS (SELECT bucket, CAST(count(*) AS BIGINT) AS n_docs,
                         CAST(sum(n_tok) AS BIGINT) AS tokens_sum
                  FROM bk GROUP BY bucket)
            SELECT bucket, n_docs, tokens_sum,
                   CAST(bucket * n_docs AS BIGINT) AS padded_tokens,
                   CAST(bucket * n_docs - tokens_sum AS BIGINT)
                       AS pad_overhead,
                   CAST(bucket * n_docs - tokens_sum AS DOUBLE)
                     / CAST(bucket * n_docs AS DOUBLE) AS pad_frac
            FROM g
        """,
        # G21 Theil T/L: pinned ratio float(x*n)/float(S), libm ln,
        # deterministic (n_chars, doc_id) fold order, one division each
        "g21_theil_index": """
            WITH t AS (SELECT source, CAST(count(*) AS BIGINT) AS n,
                              CAST(sum(n_chars) AS BIGINT) AS s
                       FROM documents GROUP BY source),
            f AS (SELECT d.source, any_value(t.n) AS n,
                         any_value(t.s) AS s,
                         list(CAST(d.n_chars * t.n AS DOUBLE)
                                / CAST(t.s AS DOUBLE)
                              * ln(CAST(d.n_chars * t.n AS DOUBLE)
                                   / CAST(t.s AS DOUBLE))
                              ORDER BY d.n_chars, d.doc_id) AS xs,
                         list(ln(CAST(d.n_chars * t.n AS DOUBLE)
                                 / CAST(t.s AS DOUBLE))
                              ORDER BY d.n_chars, d.doc_id) AS ys
                  FROM documents d JOIN t USING (source)
                  GROUP BY d.source)
            SELECT source, n AS n_docs, s AS sum_chars,
                   list_reduce(list_prepend(0.0, xs), (a, b) -> a + b)
                     / CAST(n AS DOUBLE) AS theil_t,
                   -list_reduce(list_prepend(0.0, ys), (a, b) -> a + b)
                     / CAST(n AS DOUBLE) AS theil_l
            FROM f
        """,
        # W30 winsorized mean: row_number boundary lookups (rn = m+1,
        # rn = n-m), clamped exact sum, one pinned division
        "w30_winsorized_mean": """
            WITH b AS (
                SELECT user_id, event_id,
                       CAST(floor(value * 1000000 + 0.5) AS BIGINT) AS vq,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY value, event_id) AS rn,
                       count(*) OVER (PARTITION BY user_id) AS n
                FROM events),
            t AS MATERIALIZED (
                SELECT user_id, vq, rn, n, n // 10 AS m FROM b),
            lo AS (SELECT user_id, vq AS lo_q FROM t WHERE rn = m + 1),
            hi AS (SELECT user_id, vq AS hi_q FROM t WHERE rn = n - m),
            s AS (SELECT user_id, CAST(max(n) AS BIGINT) AS n,
                         CAST(max(m) AS BIGINT) AS m,
                         CAST(sum(vq) FILTER (WHERE rn > m
                                              AND rn <= n - m)
                              AS BIGINT) AS mid_sum
                  FROM t GROUP BY user_id)
            SELECT s.user_id, s.n, s.m AS n_wins,
                   CAST(s.mid_sum + s.m * lo.lo_q + s.m * hi.hi_q
                        AS BIGINT) AS sum_q,
                   CAST(s.mid_sum + s.m * lo.lo_q + s.m * hi.hi_q
                        AS DOUBLE)
                     / (CAST(s.n AS DOUBLE) * 1000000) AS winsor_mean
            FROM s JOIN lo USING (user_id) JOIN hi USING (user_id)
        """,
        # J13 interval ANTI stab: NOT EXISTS against the same seeded
        # window CTE as J5; exact counts/cent sums, pinned share
        "j13_interval_anti": """
            WITH meta AS (SELECT epoch_us(min(ts)) AS t0,
                                 epoch_us(max(ts)) - epoch_us(min(ts)) + 1
                                     AS span
                          FROM events),
            w AS (SELECT meta.t0 + ((CAST(t.i AS BIGINT) * 2654435761)
                                    % 4294967296) % meta.span AS lo_us,
                         meta.t0 + ((CAST(t.i AS BIGINT) * 2654435761)
                                    % 4294967296) % meta.span
                             + meta.span // 6 AS hi_us
                  FROM meta, range(0, 48) t(i)),
            o AS (SELECT event_type,
                         CAST(count(*) AS BIGINT) AS n_outside,
                         CAST(sum(CAST(floor(value * 100 + 0.5)
                                       AS BIGINT)) AS BIGINT)
                             AS cents_outside
                  FROM events e
                  WHERE NOT EXISTS (
                      SELECT 1 FROM w
                      WHERE epoch_us(e.ts) >= w.lo_us
                        AND epoch_us(e.ts) < w.hi_us)
                  GROUP BY event_type),
            tot AS (SELECT event_type,
                           CAST(count(*) AS BIGINT) AS n_total
                    FROM events GROUP BY event_type)
            SELECT tot.event_type,
                   CAST(coalesce(o.n_outside, 0) AS BIGINT) AS n_outside,
                   CAST(coalesce(o.cents_outside, 0) AS BIGINT)
                       AS cents_outside,
                   tot.n_total,
                   CAST(coalesce(o.n_outside, 0) AS DOUBLE)
                     / CAST(tot.n_total AS DOUBLE) AS outside_frac
            FROM tot LEFT JOIN o USING (event_type)
        """,
        # S20 zone-map pruned read: the same day-range aggregate over
        # the raw table — values match only if pruning lost nothing
        "s20_zonemap_pruning": """
            WITH meta AS (SELECT epoch_us(min(ts)) // 86400000000
                              AS min_day FROM events),
            e AS (SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT)
                             AS day,
                         CAST(floor(value * 100 + 0.5) AS BIGINT)
                             AS cents
                  FROM events)
            SELECT e.day, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(e.cents) AS BIGINT) AS cents_sum
            FROM e, meta
            WHERE e.day >= meta.min_day + 10
              AND e.day <= meta.min_day + 16
            GROUP BY e.day
        """,
        # G22 exact per-type cent quantiles: cumulative bounded-domain
        # counts, lower quantile = smallest v with cum >= ceil(q*n)
        "g22_value_quantiles_by_type": """
            WITH c AS (SELECT event_type,
                              CAST(floor(value * 100 + 0.5) AS BIGINT)
                                  AS v,
                              count(*) AS c
                       FROM events GROUP BY event_type, v),
            cum AS (SELECT event_type, v,
                           sum(c) OVER (PARTITION BY event_type
                                        ORDER BY v) AS cm,
                           sum(c) OVER (PARTITION BY event_type) AS tot
                    FROM c)
            SELECT event_type, CAST(any_value(tot) AS BIGINT) AS n,
                   CAST(min(CASE WHEN cm >= greatest(
                            CAST(ceil(0.5 * tot) AS BIGINT), 1)
                            THEN v END) AS BIGINT) AS p50_cents,
                   CAST(min(CASE WHEN cm >= greatest(
                            CAST(ceil(0.9 * tot) AS BIGINT), 1)
                            THEN v END) AS BIGINT) AS p90_cents,
                   CAST(min(CASE WHEN cm >= greatest(
                            CAST(ceil(0.99 * tot) AS BIGINT), 1)
                            THEN v END) AS BIGINT) AS p99_cents
            FROM cum GROUP BY event_type
        """,
        # W31 per-user session summary: W1's lag/sum-over-breaks CTE
        # aggregated per user; the two means are pinned divisions
        "w31_session_summary": """
            WITH o AS (
                SELECT user_id, ts, event_id,
                       lag(ts) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) AS pts
                FROM events),
            m AS (SELECT *, CASE WHEN pts IS NULL OR
                                      epoch_us(ts) - epoch_us(pts)
                                          > 43200000000
                                 THEN 1 ELSE 0 END AS brk FROM o),
            s AS (SELECT *, sum(brk) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id
                                           ROWS UNBOUNDED PRECEDING)
                                AS sid
                  FROM m),
            per_sess AS (
                SELECT user_id, sid,
                       CAST(count(*) AS BIGINT) AS n_ev,
                       CAST(epoch_us(max(ts)) - epoch_us(min(ts))
                            AS BIGINT) AS dur_us
                FROM s GROUP BY user_id, sid)
            SELECT user_id,
                   CAST(sum(n_ev) AS BIGINT) AS n_events,
                   CAST(count(*) AS BIGINT) AS n_sessions,
                   CAST(max(n_ev) AS BIGINT) AS max_session_events,
                   CAST(sum(dur_us) AS BIGINT) AS in_session_us,
                   CAST(sum(n_ev) AS DOUBLE) / CAST(count(*) AS DOUBLE)
                       AS mean_session_events,
                   CAST(sum(dur_us) AS DOUBLE) / CAST(count(*) AS DOUBLE)
                       AS mean_session_us
            FROM per_sess GROUP BY user_id
        """,
        # G23 partition skew: exact bucket counts under the Knuth hash;
        # share and skew factor are pinned divisions
        "g23_partition_skew": """
            WITH b AS (SELECT (user_id * 2654435761) % 4294967296 % 32
                           AS bucket
                       FROM events),
            c AS (SELECT bucket, count(*) AS n FROM b GROUP BY bucket),
            t AS (SELECT CAST(sum(n) AS BIGINT) AS total,
                         CAST(max(n) AS BIGINT) AS mx FROM c)
            SELECT c.bucket, c.n,
                   CAST(c.n AS DOUBLE) / CAST(t.total AS DOUBLE) AS share,
                   t.total,
                   CAST(t.mx * 32 AS DOUBLE) / CAST(t.total AS DOUBLE)
                       AS skew_factor
            FROM c CROSS JOIN t
        """,
        # K6 dim correlation: exact int64 moment sums over the first 8
        # dims; corr = pinned elementwise float sequence
        "k6_dim_correlation": """
            WITH q AS (SELECT vec_id, CAST(t.i - 1 AS BIGINT) AS dim,
                              CAST(floor(CAST(embedding[t.i] AS DOUBLE)
                                         * 1048576 + 0.5) AS BIGINT) AS vq
                       FROM embeddings
                       CROSS JOIN unnest(range(1, 9)) AS t(i)),
            p AS (SELECT a.dim AS dim_a, b.dim AS dim_b, count(*) AS n,
                         CAST(sum(a.vq) AS BIGINT) AS sx,
                         CAST(sum(b.vq) AS BIGINT) AS sy,
                         CAST(sum(a.vq * a.vq) AS BIGINT) AS sxx,
                         CAST(sum(b.vq * b.vq) AS BIGINT) AS syy,
                         CAST(sum(a.vq * b.vq) AS BIGINT) AS sxy
                  FROM q a JOIN q b
                    ON a.vec_id = b.vec_id AND a.dim < b.dim
                  GROUP BY dim_a, dim_b),
            f AS (SELECT dim_a, dim_b, n, sx, sy, sxy,
                         CAST(sx AS DOUBLE) / CAST(n AS DOUBLE) AS ex,
                         CAST(sy AS DOUBLE) / CAST(n AS DOUBLE) AS ey,
                         CAST(sxx AS DOUBLE) / CAST(n AS DOUBLE) AS exx,
                         CAST(syy AS DOUBLE) / CAST(n AS DOUBLE) AS eyy,
                         CAST(sxy AS DOUBLE) / CAST(n AS DOUBLE) AS exy
                  FROM p)
            SELECT dim_a, dim_b, n, sx, sy, sxy,
                   (exy - ex * ey)
                     / (sqrt(exx - ex * ex) * sqrt(eyy - ey * ey)) AS corr
            FROM f
        """,
        # S15 validation suite: one UNION ALL arm per rule
        "s15_validation_suite": """
            SELECT 'events.value not null' AS rule,
                   count(*) AS n_checked,
                   count(*) - count(value) AS n_violations,
                   (count(*) - count(value)) = 0 AS passed
            FROM events
            UNION ALL
            SELECT 'events.value in [0, 1000]', count(*),
                   CAST(sum(CASE WHEN value < 0.0 OR value > 1000.0
                                 THEN 1 ELSE 0 END) AS BIGINT),
                   CAST(sum(CASE WHEN value < 0.0 OR value > 1000.0
                                 THEN 1 ELSE 0 END) AS BIGINT) = 0
            FROM events
            UNION ALL
            SELECT 'events.ts in contract span', count(*),
                   CAST(sum(CASE WHEN epoch_us(ts) < 1704067200000000
                                   OR epoch_us(ts) >= 1767225600000000
                                 THEN 1 ELSE 0 END) AS BIGINT),
                   CAST(sum(CASE WHEN epoch_us(ts) < 1704067200000000
                                   OR epoch_us(ts) >= 1767225600000000
                                 THEN 1 ELSE 0 END) AS BIGINT) = 0
            FROM events
            UNION ALL
            SELECT 'events.event_id unique', count(*),
                   count(*) - count(DISTINCT event_id),
                   (count(*) - count(DISTINCT event_id)) = 0
            FROM events
            UNION ALL
            SELECT 'orders.o_custkey fk customer', count(*),
                   CAST(sum(CASE WHEN c.c_custkey IS NULL
                                 THEN 1 ELSE 0 END) AS BIGINT),
                   CAST(sum(CASE WHEN c.c_custkey IS NULL
                                 THEN 1 ELSE 0 END) AS BIGINT) = 0
            FROM orders o LEFT JOIN customer c
              ON c.c_custkey = o.o_custkey
            UNION ALL
            SELECT 'documents.n_chars == length(text)', count(*),
                   CAST(sum(CASE WHEN n_chars <> length(text)
                                 THEN 1 ELSE 0 END) AS BIGINT),
                   CAST(sum(CASE WHEN n_chars <> length(text)
                                 THEN 1 ELSE 0 END) AS BIGINT) = 0
            FROM documents
        """,
        # S13 ORC round trip: oracle reads the ORIGINAL parquet — green
        # only if every row/byte survived the ORC hop
        "s13_orc_roundtrip": """
            SELECT source, count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS chars_sum,
                   CAST(sum(doc_id) AS BIGINT) AS ids_sum
            FROM documents GROUP BY source
        """,
        # T12 vocab Jaccard: distinct (source, word) self-join; exact
        # int intersection/union, one pinned division
        "t12_source_vocab_jaccard": """
            WITH sw AS (
              SELECT DISTINCT source, word
              FROM (SELECT source,
                           unnest(string_split(text, ' ')) AS word
                    FROM documents)
              WHERE word <> ''),
            tc AS (SELECT source, count(*) AS c FROM sw GROUP BY source),
            p AS (SELECT a.source AS source_a, b.source AS source_b,
                         count(*) AS inter
                  FROM sw a JOIN sw b
                    ON a.word = b.word AND a.source < b.source
                  GROUP BY source_a, source_b)
            SELECT p.source_a, p.source_b, p.inter,
                   ta.c AS types_a, tb.c AS types_b,
                   CAST(p.inter AS DOUBLE)
                     / CAST(ta.c + tb.c - p.inter AS DOUBLE) AS jaccard
            FROM p
            JOIN tc ta ON ta.source = p.source_a
            JOIN tc tb ON tb.source = p.source_b
        """,
        # V9 Zipf slope: OLS over (ln rank, ln count), every sum an
        # order-pinned list_reduce fold in rank order
        "v9_zipf_slope": """
            WITH counts AS (
              SELECT word, CAST(count(*) AS BIGINT) AS n
              FROM (SELECT unnest(string_split(text, ' ')) AS word
                    FROM documents)
              WHERE word <> '' GROUP BY word),
            top AS (SELECT n,
                           row_number() OVER (ORDER BY n DESC, word ASC)
                               AS rank
                    FROM counts ORDER BY n DESC, word ASC LIMIT 100),
            lists AS (SELECT
               count(*) AS k,
               max(n) FILTER (rank = 1) AS top_count,
               list(ln(CAST(rank AS DOUBLE)) ORDER BY rank) AS xs,
               list(ln(CAST(n AS DOUBLE)) ORDER BY rank) AS ys,
               list(ln(CAST(rank AS DOUBLE)) * ln(CAST(rank AS DOUBLE))
                    ORDER BY rank) AS xxs,
               list(ln(CAST(rank AS DOUBLE)) * ln(CAST(n AS DOUBLE))
                    ORDER BY rank) AS xys
               FROM top),
            sums AS (SELECT k, top_count,
               list_reduce(list_prepend(0.0, xs), (a, b) -> a + b) AS sx,
               list_reduce(list_prepend(0.0, ys), (a, b) -> a + b) AS sy,
               list_reduce(list_prepend(0.0, xxs), (a, b) -> a + b) AS sxx,
               list_reduce(list_prepend(0.0, xys), (a, b) -> a + b) AS sxy
               FROM lists),
            fit AS (SELECT k, top_count, sx, sy,
               (CAST(k AS DOUBLE) * sxy - sx * sy)
                 / (CAST(k AS DOUBLE) * sxx - sx * sx) AS slope
               FROM sums)
            SELECT k, slope,
                   (sy - slope * sx) / CAST(k AS DOUBLE) AS intercept,
                   top_count
            FROM fit
        """,
        # C3 Q10 shape: 4-table join + exact-cents aggregate + top-k
        "c3_tpch_q10_like": """
            SELECT c.c_custkey, c.c_name, n.n_name,
                   CAST(sum(CAST(floor(l.l_extendedprice
                       * (1 - l.l_discount) * 100 + 0.5) AS BIGINT))
                       AS BIGINT) AS revenue_cents,
                   count(*) AS n_items
            FROM lineitem l
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            WHERE l.l_returnflag = 'R'
            GROUP BY c.c_custkey, c.c_name, n.n_name
            ORDER BY revenue_cents DESC, c.c_custkey ASC
            LIMIT 20
        """,
        # X4 phrase search: adjacency over the empty-filtered word list
        # (positions 0-based, = t.i - 1 of the 1-based SQL unnest)
        "x4_phrase_search": """
            WITH ws AS (SELECT doc_id,
                               list_filter(string_split(text, ' '),
                                           x -> x <> '') AS w
                        FROM documents),
            hits AS (SELECT doc_id, CAST(t.i - 1 AS BIGINT) AS pos
                     FROM ws CROSS JOIN unnest(range(1, len(w))) AS t(i)
                     WHERE w[t.i] = 'batch' AND w[t.i + 1] = 'stream')
            SELECT doc_id, count(*) AS n_occurrences,
                   min(pos) AS first_pos
            FROM hits GROUP BY doc_id
        """,
        # W21 grid resample: per-user daily calendar via range(); LOCF =
        # last event before the day boundary (ts desc, event_id desc)
        "w21_grid_resample_locf": """
            WITH span AS (SELECT user_id,
                                 min(epoch_us(ts)) // 86400000000 AS day0,
                                 max(epoch_us(ts)) // 86400000000 AS day1
                          FROM events GROUP BY user_id),
            grid AS (SELECT user_id,
                            CAST(unnest(range(day0, day1 + 1)) AS BIGINT)
                                AS day
                     FROM span),
            obs AS (SELECT DISTINCT user_id,
                           epoch_us(ts) // 86400000000 AS day FROM events)
            SELECT g.user_id, g.day,
                   (SELECT e.value FROM events e
                    WHERE e.user_id = g.user_id
                      AND epoch_us(e.ts) < (g.day + 1) * 86400000000
                    ORDER BY e.ts DESC, e.event_id DESC LIMIT 1)
                       AS value_locf,
                   EXISTS(SELECT 1 FROM obs o
                          WHERE o.user_id = g.user_id AND o.day = g.day)
                       AS is_observed
            FROM grid g
        """,
        # J10 snapshot diff: FULL OUTER JOIN + CASE over the two derived
        # versions (float compare is bit-identical: +1.0 is exact)
        "j10_snapshot_diff": """
            WITH a AS (SELECT o_orderkey AS k, o_totalprice AS pa
                       FROM orders WHERE o_orderkey % 7 <> 0),
            b AS (SELECT o_orderkey AS k,
                         CASE WHEN o_orderkey % 3 = 0
                              THEN o_totalprice + 1.0
                              ELSE o_totalprice END AS pb
                  FROM orders WHERE o_orderkey % 5 <> 0)
            SELECT COALESCE(a.k, b.k) AS o_orderkey,
                   CASE WHEN a.k IS NULL THEN 'added'
                        WHEN b.k IS NULL THEN 'removed'
                        WHEN a.pa <> b.pb THEN 'changed'
                        ELSE 'unchanged' END AS class,
                   a.pa AS price_old, b.pb AS price_new
            FROM a FULL OUTER JOIN b ON a.k = b.k
        """,
        # W20 time decay: integer power-of-two weight ladder; exact sums
        "w20_time_decay_score": """
            WITH anchor AS (SELECT max(epoch_us(ts)) // 86400000000 AS d0
                            FROM events),
            b AS (SELECT user_id,
                         CAST(floor(value * 1000000 + 0.5) AS BIGINT) AS vq,
                         (SELECT d0 FROM anchor)
                             - epoch_us(ts) // 86400000000 AS age
                  FROM events)
            SELECT user_id, count(*) AS n_events,
                   CAST(sum(vq * (1048576 >> CAST(least(age // 4, 63)
                                               AS INTEGER))) AS BIGINT)
                       AS decay_sum_q,
                   CAST(CAST(sum(vq * (1048576 >> CAST(least(age // 4, 63)
                                                    AS INTEGER)))
                             AS BIGINT) AS DOUBLE)
                       / (1048576.0 * 1000000.0) AS decay_score
            FROM b GROUP BY user_id
        """,
        # D8 sorted neighborhood: row_number per prefix block + rank-
        # distance self-join
        "d8_sorted_neighborhood": """
            WITH r AS (SELECT doc_id, text, substr(text, 1, 16) AS pfx,
                              row_number() OVER (
                                  PARTITION BY substr(text, 1, 16)
                                  ORDER BY text, doc_id) AS rk
                       FROM documents)
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   b.rk - a.rk AS rank_dist,
                   a.text = b.text AS is_exact
            FROM r a JOIN r b
              ON a.pfx = b.pfx AND b.rk - a.rk BETWEEN 1 AND 2
        """,
        # A12 KS: exact cross-multiplied CDF comparison; QUALIFY argmax
        # (num desc, cents asc); one pinned division
        "a12_ks_drift": """
            WITH v AS (SELECT event_type,
                              CAST(floor(value * 100 + 0.5) AS BIGINT)
                                  AS cents,
                              (epoch_us(ts) // 86400000000) % 2 = 0 AS even
                       FROM events),
            c AS (SELECT event_type, cents,
                         count(*) FILTER (even) AS c_e,
                         count(*) FILTER (NOT even) AS c_o
                  FROM v GROUP BY event_type, cents),
            t AS (SELECT event_type, cents,
                         CAST(sum(c_e) OVER w AS BIGINT) AS cum_e,
                         CAST(sum(c_o) OVER w AS BIGINT) AS cum_o,
                         CAST(sum(c_e) OVER (PARTITION BY event_type)
                              AS BIGINT) AS n_even,
                         CAST(sum(c_o) OVER (PARTITION BY event_type)
                              AS BIGINT) AS n_odd
                  FROM c
                  WINDOW w AS (PARTITION BY event_type ORDER BY cents
                               ROWS UNBOUNDED PRECEDING))
            SELECT event_type, n_even, n_odd,
                   abs(cum_e * n_odd - cum_o * n_even) AS ks_num,
                   cents AS at_cents,
                   CAST(abs(cum_e * n_odd - cum_o * n_even) AS DOUBLE)
                       / CAST(n_even * n_odd AS DOUBLE) AS ks_stat
            FROM t
            QUALIFY row_number() OVER (
                PARTITION BY event_type
                ORDER BY abs(cum_e * n_odd - cum_o * n_even) DESC,
                         cents) = 1
        """,
        # G16 chi2 independence: exact-int marginals; expected = int
        # product / int total (one division), pinned chi2 term
        "g16_chi2_independence": """
            WITH c AS (
              SELECT event_type,
                     ((epoch_us(ts) // 86400000000) + 3) % 7 AS dow,
                     count(*) AS n
              FROM events GROUP BY event_type, dow),
            m AS (SELECT event_type, dow, n,
                         CAST(sum(n) OVER (PARTITION BY event_type)
                              AS BIGINT) AS row_total,
                         CAST(sum(n) OVER (PARTITION BY dow)
                              AS BIGINT) AS col_total,
                         CAST(sum(n) OVER () AS BIGINT) AS total
                  FROM c)
            SELECT event_type, dow, n AS obs, row_total, col_total,
                   CAST(row_total * col_total AS DOUBLE)
                       / CAST(total AS DOUBLE) AS expected,
                   (CAST(n AS DOUBLE) - CAST(row_total * col_total AS DOUBLE)
                                          / CAST(total AS DOUBLE))
                   * (CAST(n AS DOUBLE) - CAST(row_total * col_total AS DOUBLE)
                                            / CAST(total AS DOUBLE))
                   / (CAST(row_total * col_total AS DOUBLE)
                      / CAST(total AS DOUBLE)) AS chi2_term
            FROM m
        """,
        # K5 standardize: exact quantized moments per dim; float tail
        # pinned (ex, ex2, sqrt(ex2 - ex*ex), /2^20)
        "k5_dim_standardize": """
            WITH u AS (SELECT CAST(t.i - 1 AS BIGINT) AS dim,
                              CAST(floor(CAST(embedding[t.i] AS DOUBLE)
                                         * 1048576 + 0.5) AS BIGINT) AS vq
                       FROM embeddings
                       CROSS JOIN unnest(range(1, len(embedding) + 1))
                           AS t(i)),
            m AS (SELECT dim, count(*) AS n,
                         CAST(sum(vq) AS BIGINT) AS sum_q,
                         CAST(sum(vq * vq) AS BIGINT) AS sumsq_q
                  FROM u GROUP BY dim)
            SELECT dim, n, sum_q, sumsq_q,
                   (CAST(sum_q AS DOUBLE) / CAST(n AS DOUBLE))
                       / 1048576.0 AS mean,
                   sqrt(CAST(sumsq_q AS DOUBLE) / CAST(n AS DOUBLE)
                        - (CAST(sum_q AS DOUBLE) / CAST(n AS DOUBLE))
                          * (CAST(sum_q AS DOUBLE) / CAST(n AS DOUBLE)))
                       / 1048576.0 AS std
            FROM m
        """,
        # K27: K5's pinned mu/sd chain -> sequential ascending-dim
        # z^2 fold (list_reduce replay); ties (score desc, vec_id)
        "k27_centroid_outliers": f"""
            WITH u AS (SELECT CAST(t.i - 1 AS BIGINT) AS dim,
                              CAST(floor(CAST(embedding[t.i] AS DOUBLE)
                                         * 1048576 + 0.5) AS BIGINT)
                                  AS vq
                       FROM embeddings
                       CROSS JOIN unnest(range(1, len(embedding) + 1))
                           AS t(i)),
            m AS (SELECT dim, count(*) AS n,
                         CAST(sum(vq) AS BIGINT) AS sum_q,
                         CAST(sum(vq * vq) AS BIGINT) AS sumsq_q
                  FROM u GROUP BY dim),
            st AS (SELECT dim,
                          (CAST(sum_q AS DOUBLE) / CAST(n AS DOUBLE))
                              / 1048576.0 AS mu,
                          sqrt(CAST(sumsq_q AS DOUBLE)
                               / CAST(n AS DOUBLE)
                               - (CAST(sum_q AS DOUBLE)
                                  / CAST(n AS DOUBLE))
                                 * (CAST(sum_q AS DOUBLE)
                                    / CAST(n AS DOUBLE)))
                              / 1048576.0 AS sd
                   FROM m),
            sv AS (SELECT list(mu ORDER BY dim) AS mus,
                          list(sd ORDER BY dim) AS sds,
                          CAST(count(*) AS BIGINT) AS d
                   FROM st),
            sc AS (SELECT e.vec_id, e.label,
                          list_reduce(list_prepend(0.0,
                              list_transform(range(1,
                                  CAST(sv.d + 1 AS INT)),
                                  p -> ((CAST(e.embedding[p]
                                              AS DOUBLE) - sv.mus[p])
                                        / sv.sds[p])
                                       * ((CAST(e.embedding[p]
                                                AS DOUBLE)
                                           - sv.mus[p])
                                          / sv.sds[p]))),
                              (a, b) -> a + b) AS score
                   FROM embeddings e CROSS JOIN sv)
            SELECT vec_id, label, score
            FROM sc ORDER BY score DESC, vec_id LIMIT 10
        """,
        # J9 interval coalesce: classic gaps-and-islands over intervals
        # (break when lo clears the running max of prior his)
        "j9_interval_coalesce": """
            WITH iv AS (SELECT event_id, epoch_us(ts) AS lo,
                               epoch_us(ts) + 300000000 AS hi,
                               epoch_us(ts) // 86400000000 AS day
                        FROM events),
            s AS (SELECT day, event_id, lo, hi,
                         CASE WHEN lo > max(hi) OVER (
                                  PARTITION BY day ORDER BY lo, event_id
                                  ROWS BETWEEN UNBOUNDED PRECEDING
                                           AND 1 PRECEDING)
                              THEN 1 ELSE 0 END AS brk
                  FROM iv),
            t AS (SELECT day, lo, hi,
                         CAST(sum(brk) OVER (
                              PARTITION BY day ORDER BY lo, event_id
                              ROWS BETWEEN UNBOUNDED PRECEDING
                                       AND CURRENT ROW) AS BIGINT) AS island
                  FROM s)
            SELECT day, island, min(lo) AS lo_us, max(hi) AS hi_us,
                   count(*) AS n_events
            FROM t GROUP BY day, island
        """,
        # W19 ntile: SQL ntile(4) under the (value, event_id) order
        "w19_ntile_quartiles": """
            SELECT event_id, user_id, value,
                   CAST(ntile(4) OVER (PARTITION BY user_id
                                       ORDER BY value, event_id)
                        AS BIGINT) AS tile
            FROM events
        """,
        # U2 SCD-2: lead(ts) closes each interval; last row stays open
        "u2_scd2_intervals": """
            SELECT user_id, event_id, value,
                   row_number() OVER w AS version,
                   epoch_us(ts) AS valid_from_us,
                   epoch_us(lead(ts) OVER w) AS valid_to_us,
                   (lead(ts) OVER w IS NULL) AS is_current
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        # W18 LTTB: exact int64 triangle scores; interior winner by
        # row_number(score desc, seq); edges keep first/last points
        "w18_lttb_downsample": """
            WITH base AS (
              SELECT user_id, event_id,
                     (epoch_us(ts) - min(epoch_us(ts)) OVER
                          (PARTITION BY user_id)) // 1000000 AS x,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS y,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) - 1 AS seq,
                     count(*) OVER (PARTITION BY user_id) AS n
              FROM events),
            b AS (SELECT *, seq // 5 AS bucket,
                         (n + 4) // 5 AS n_buckets FROM base),
            bs AS (SELECT user_id, bucket, count(*) AS cnt,
                          CAST(sum(x) AS BIGINT) AS sx,
                          CAST(sum(y) AS BIGINT) AS sy
                   FROM b GROUP BY user_id, bucket),
            scored AS (
              SELECT b.user_id, b.bucket, b.event_id, b.x, b.y, b.seq,
                     abs((l.sx - b.x * l.cnt) * (r.sy - b.y * r.cnt)
                       - (r.sx - b.x * r.cnt) * (l.sy - b.y * l.cnt))
                         AS score
              FROM b
              JOIN bs l ON l.user_id = b.user_id AND l.bucket = b.bucket - 1
              JOIN bs r ON r.user_id = b.user_id AND r.bucket = b.bucket + 1),
            interior AS (
              SELECT user_id, bucket, event_id, x, y, score,
                     row_number() OVER (PARTITION BY user_id, bucket
                                        ORDER BY score DESC, seq) AS rn
              FROM scored),
            edges AS (
              SELECT user_id, bucket, event_id, x, y,
                     NULL::BIGINT AS score,
                     row_number() OVER (PARTITION BY user_id, bucket
                         ORDER BY CASE WHEN bucket = 0 THEN seq
                                       ELSE -seq END) AS rn
              FROM b WHERE bucket = 0 OR bucket = n_buckets - 1)
            SELECT user_id, bucket, event_id, x, y, score
            FROM interior WHERE rn = 1
            UNION ALL
            SELECT user_id, bucket, event_id, x, y, score
            FROM edges WHERE rn = 1
        """,
        # G15 entropy: exact counts; float tail reproduced term-by-term
        # in user_id order via list_reduce with a prepended 0.0 seed
        "g15_user_entropy": """
            WITH c AS (SELECT event_type, user_id, count(*) AS n
                       FROM events GROUP BY event_type, user_id),
            t AS (SELECT event_type, CAST(sum(n) AS BIGINT) AS total,
                         count(*) AS n_users
                  FROM c GROUP BY event_type),
            f AS (SELECT c.event_type,
                         any_value(t.total) AS total,
                         any_value(t.n_users) AS n_users,
                         list(CAST(c.n AS DOUBLE) / CAST(t.total AS DOUBLE)
                              * ln(CAST(c.n AS DOUBLE)
                                   / CAST(t.total AS DOUBLE))
                              ORDER BY c.user_id) AS xs
                  FROM c JOIN t USING (event_type)
                  GROUP BY c.event_type)
            SELECT event_type, total, n_users,
                   -list_reduce(list_prepend(0.0, xs),
                                (a, b) -> a + b) AS entropy,
                   CASE WHEN n_users > 1 THEN
                     -list_reduce(list_prepend(0.0, xs), (a, b) -> a + b)
                       / ln(CAST(n_users AS DOUBLE))
                   END AS norm_entropy
            FROM f
        """,
        # T11 Benford: digit from the exact cents integer's decimal
        # string; float tail pinned (same libm log10 both sides)
        "t11_benford_digits": """
            WITH d AS (
              SELECT event_type,
                     CAST(substr(CAST(CAST(floor(value * 100 + 0.5) AS BIGINT)
                                      AS VARCHAR), 1, 1) AS BIGINT) AS digit
              FROM events
              WHERE floor(value * 100 + 0.5) > 0),
            c AS (SELECT event_type, digit, count(*) AS n
                  FROM d GROUP BY event_type, digit),
            t AS (SELECT event_type,
                         CAST(sum(n) AS BIGINT) AS total FROM c
                  GROUP BY event_type)
            SELECT c.event_type, c.digit, c.n, t.total,
                   CAST(c.n AS DOUBLE) / CAST(t.total AS DOUBLE) AS obs_frac,
                   log10(1.0 + 1.0 / CAST(c.digit AS DOUBLE)) AS exp_frac,
                   (CAST(c.n AS DOUBLE)
                      - CAST(t.total AS DOUBLE)
                        * log10(1.0 + 1.0 / CAST(c.digit AS DOUBLE)))
                   * (CAST(c.n AS DOUBLE)
                      - CAST(t.total AS DOUBLE)
                        * log10(1.0 + 1.0 / CAST(c.digit AS DOUBLE)))
                   / (CAST(t.total AS DOUBLE)
                      * log10(1.0 + 1.0 / CAST(c.digit AS DOUBLE)))
                       AS chi2_term
            FROM c JOIN t ON t.event_type = c.event_type
        """,
        # W17 co-occurrence lift: distinct-basket self-join; lift = two
        # exact int64 products, one pinned division
        "w17_cooccurrence_lift": """
            WITH b AS (SELECT DISTINCT user_id, event_type FROM events),
            n AS (SELECT count(DISTINCT user_id) AS nu FROM events),
            tc AS (SELECT event_type, count(*) AS c FROM b
                   GROUP BY event_type),
            p AS (SELECT l.event_type AS type_a, r.event_type AS type_b,
                         count(*) AS co
                  FROM b l JOIN b r ON l.user_id = r.user_id
                                   AND l.event_type < r.event_type
                  GROUP BY type_a, type_b)
            SELECT p.type_a, p.type_b, p.co,
                   ta.c AS count_a, tb.c AS count_b, n.nu AS n_users,
                   CAST(p.co * n.nu AS DOUBLE)
                     / CAST(ta.c * tb.c AS DOUBLE) AS lift
            FROM p
            JOIN tc ta ON ta.event_type = p.type_a
            JOIN tc tb ON tb.event_type = p.type_b
            CROSS JOIN n
        """,
        # T10 column profile: one UNION ALL arm per column; numeric
        # min/max cast to DOUBLE (magnitudes < 2^53, exact)
        "t10_column_profile": """
            SELECT 'event_id' AS "column", count(*) AS n,
                   count(*) - count(event_id) AS n_null,
                   count(DISTINCT event_id) AS n_distinct,
                   CAST(min(event_id) AS DOUBLE) AS min_num,
                   CAST(max(event_id) AS DOUBLE) AS max_num,
                   NULL::VARCHAR AS min_str, NULL::VARCHAR AS max_str
            FROM events
            UNION ALL
            SELECT 'user_id', count(*), count(*) - count(user_id),
                   count(DISTINCT user_id),
                   CAST(min(user_id) AS DOUBLE), CAST(max(user_id) AS DOUBLE),
                   NULL, NULL
            FROM events
            UNION ALL
            SELECT 'value', count(*), count(*) - count(value),
                   count(DISTINCT value), min(value), max(value), NULL, NULL
            FROM events
            UNION ALL
            SELECT 'ts', count(*), count(*) - count(ts),
                   count(DISTINCT ts),
                   CAST(epoch_us(min(ts)) AS DOUBLE),
                   CAST(epoch_us(max(ts)) AS DOUBLE), NULL, NULL
            FROM events
            UNION ALL
            SELECT 'event_type', count(*), count(*) - count(event_type),
                   count(DISTINCT event_type), NULL, NULL,
                   min(event_type), max(event_type)
            FROM events
            UNION ALL
            SELECT 'props', count(*), count(*) - count(props),
                   count(DISTINCT props), NULL, NULL, min(props), max(props)
            FROM events
        """,
        # Z1 z-order: the bit interleave re-derived as an exact 16-term
        # BIGINT sum per row; zone map pins every z through sum_z
        "z1_zorder_layout": """
            WITH b AS (
              SELECT user_id % 65536 AS x,
                     (epoch_us(ts) // 86400000000) % 65536 AS y
              FROM events),
            z AS (
              SELECT x, y,
                     CAST((SELECT sum(((b.x // (1::BIGINT << CAST(i.i AS INTEGER))) % 2)
                                          * (1::BIGINT << CAST(2 * i.i AS INTEGER))
                                      + ((b.y // (1::BIGINT << CAST(i.i AS INTEGER))) % 2)
                                          * (1::BIGINT << CAST(2 * i.i + 1 AS INTEGER)))
                           FROM range(16) i(i)) AS BIGINT) AS zval
              FROM b)
            SELECT zval // 512 AS bucket, count(*) AS n,
                   CAST(sum(zval) AS BIGINT) AS sum_z,
                   min(x) AS min_user, max(x) AS max_user,
                   min(y) AS min_day, max(y) AS max_day
            FROM z GROUP BY bucket
        """,
        # B1 bloom prune: every bit cell is the exact BIGINT expression
        # ((k * K_j) % 2^32) % 4096; bits shared across hash functions
        "b1_bloom_semi_join": """
            WITH big AS (SELECT DISTINCT o_custkey AS k FROM orders
                         WHERE o_totalprice > 450000.0),
            bits AS (
              SELECT (k * 2654435761) % 4294967296 % 4096 AS b FROM big
              UNION
              SELECT (k * 2246822519) % 4294967296 % 4096 FROM big
              UNION
              SELECT (k * 3266489917) % 4294967296 % 4096 FROM big),
            c AS (SELECT c_custkey,
                    ((c_custkey * 2654435761) % 4294967296 % 4096
                         IN (SELECT b FROM bits)
                     AND (c_custkey * 2246822519) % 4294967296 % 4096
                         IN (SELECT b FROM bits)
                     AND (c_custkey * 3266489917) % 4294967296 % 4096
                         IN (SELECT b FROM bits)) AS bloom_pass,
                    c_custkey IN (SELECT k FROM big) AS has_big_order
                  FROM customer)
            SELECT c_custkey, bloom_pass, has_big_order,
                   bloom_pass AND NOT has_big_order AS is_false_positive
            FROM c
        """,
        # W15 period-over-period: grouped day counts + lag() within type;
        # pct_change = exact int delta / exact int prev, one division
        "w15_period_over_period": """
            WITH d AS (
              SELECT event_type, epoch_us(ts) // 86400000000 AS day,
                     count(*) AS cnt,
                     CAST(sum(CAST(floor(value * 1000000 + 0.5) AS BIGINT))
                          AS BIGINT) AS sum_vq
              FROM events GROUP BY event_type, day)
            SELECT event_type, day, cnt, sum_vq,
                   lag(cnt) OVER w AS prev_cnt,
                   cnt - lag(cnt) OVER w AS delta_cnt,
                   day - lag(day) OVER w AS day_gap,
                   CAST(cnt - lag(cnt) OVER w AS DOUBLE)
                     / CAST(lag(cnt) OVER w AS DOUBLE) AS pct_change
            FROM d WINDOW w AS (PARTITION BY event_type ORDER BY day)
        """,
        # T8 cohort retention: first-signup anchor + windowed EXISTS
        "t8_cohort_retention": """
            WITH su AS (
              SELECT user_id,
                     min(epoch_us(ts)) FILTER (event_type = 'signup') AS t0
              FROM events GROUP BY user_id),
            per_user AS (
              SELECT s.user_id, s.t0 // 86400000000 AS cohort_day,
                     CASE WHEN EXISTS (
                         SELECT 1 FROM events e
                         WHERE e.user_id = s.user_id
                           AND e.event_type = 'purchase'
                           AND epoch_us(e.ts) >= s.t0
                           AND epoch_us(e.ts) <= s.t0 + 604800000000)
                          THEN 1 ELSE 0 END AS retained
              FROM su s WHERE s.t0 IS NOT NULL)
            SELECT cohort_day, count(*) AS n_users,
                   CAST(sum(retained) AS BIGINT) AS n_retained
            FROM per_user GROUP BY cohort_day
        """,
        # W14 flags: exact int window sums, then the SAME pinned float
        # sequence the kernel takes (div, sub, clip, sqrt, compare)
        "w14_event_flags": """
            WITH base AS (
              SELECT user_id, event_id, epoch_us(ts) AS t,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
              FROM events),
            f AS (
              SELECT user_id,
                     CAST(row_number() OVER w - 1 AS BIGINT) AS pos, cents,
                     CAST(sum(cents) OVER (w ROWS BETWEEN 19 PRECEDING
                         AND CURRENT ROW) AS BIGINT) AS s1,
                     CAST(sum(cents * cents) OVER (w ROWS BETWEEN 19
                         PRECEDING AND CURRENT ROW) AS BIGINT) AS s2
              FROM base
              WINDOW w AS (PARTITION BY user_id ORDER BY t, event_id)),
            g AS (
              SELECT user_id, pos, cents, s1, s2,
                     CAST(s1 AS DOUBLE) / 20 AS m
              FROM f),
            h AS (
              SELECT user_id, pos,
                     CASE WHEN pos >= 19
                          AND abs(CAST(cents AS DOUBLE) - m)
                              > 3.0 * sqrt(greatest(
                                  CAST(s2 AS DOUBLE) / 20 - m * m, 0.0))
                          THEN 1 ELSE 0 END AS flag
              FROM g)
            SELECT user_id, count(*) AS n,
                   CAST(sum(flag) AS BIGINT) AS n_flags,
                   CAST(sum(flag * pos) AS BIGINT) AS pos_sum,
                   CAST(sum(flag * pos * pos) AS BIGINT) AS pos_sumsq
            FROM h GROUP BY user_id
        """,
        # W13 TWA: lead(ts) gaps x cents, exact int64, one division
        "w13_time_weighted_avg": """
            WITH base AS (
              SELECT user_id, event_id, epoch_us(ts) AS t,
                     CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
              FROM events),
            g AS (
              SELECT user_id, cents,
                     COALESCE(lead(t) OVER w - t, 0) AS gap, t
              FROM base WINDOW w AS (PARTITION BY user_id
                                     ORDER BY t, event_id)),
            a AS (
              SELECT user_id, count(*) AS n,
                     CAST(sum(cents * gap) AS BIGINT) AS num_cents_us,
                     max(t) - min(t) AS span_us
              FROM g GROUP BY user_id)
            SELECT user_id, n, num_cents_us, span_us,
                   CASE WHEN span_us = 0 THEN NULL
                        ELSE CAST(num_cents_us AS DOUBLE)
                             / CAST(span_us AS DOUBLE) END AS twa_cents
            FROM a
        """,
        # W12 robust scale: median/mad of int64-quantized value are exact
        # halves/quarters, so DuckDB's median()/mad() match bitwise
        "w12_robust_scale": """
            WITH base AS (
              SELECT user_id,
                     CAST(floor(value * 1000000 + 0.5) AS DOUBLE) AS vq
              FROM events)
            SELECT user_id, count(*) AS n,
                   median(vq) AS med_vq, mad(vq) AS mad_vq
            FROM base GROUP BY user_id
        """,
        # W9 running total: exact int64 prefix sums over quantized value
        "w9_running_total": """
            WITH base AS (
              SELECT event_id, user_id,
                     CAST(floor(value * 1000000 + 0.5) AS BIGINT) AS vq, ts
              FROM events)
            SELECT event_id, user_id, vq,
                   SUM(vq) OVER w AS running_vq,
                   CAST(row_number() OVER w AS BIGINT) AS running_n
            FROM base
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
        """,
        "w8_time_window": """
            WITH b AS (SELECT event_id, user_id, ts,
                              CAST(floor(value * 1000000 + 0.5) AS BIGINT)
                                  AS vq
                       FROM events)
            SELECT event_id, user_id,
                   CAST(count(*) OVER w AS BIGINT) AS n_1h,
                   CAST(sum(vq) OVER w AS BIGINT) AS sum_q_1h
            FROM b
            WINDOW w AS (PARTITION BY user_id ORDER BY ts
                         RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                               AND CURRENT ROW)
        """,
        # J7 left outer join + aggregate: zero-order customers kept with
        # zero fills; cents are exact ints
        "j7_left_join_agg": """
            WITH oc AS (
                SELECT o_custkey, CAST(count(*) AS BIGINT) AS n_orders,
                       CAST(sum(CAST(floor(o_totalprice * 100 + 0.5)
                                     AS BIGINT)) AS BIGINT) AS cents
                FROM orders WHERE o_totalprice >= 300000.0
                GROUP BY o_custkey)
            SELECT c.c_custkey, c.c_mktsegment,
                   COALESCE(oc.n_orders, 0) AS n_orders,
                   COALESCE(oc.cents, 0) AS cents
            FROM customer c LEFT JOIN oc ON c.c_custkey = oc.o_custkey
        """,
        # W7 trimmed mean: drop n//10 from each end under the total order
        # (value, event_id); exact quantized middle sum, one division
        "w7_trimmed_mean": """
            WITH b AS (
                SELECT user_id, event_id,
                       CAST(floor(value * 1000000 + 0.5) AS BIGINT) AS vq,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY value, event_id) AS rn,
                       count(*) OVER (PARTITION BY user_id) AS n
                FROM events),
            t AS (SELECT user_id, vq, rn, n, n // 10 AS m FROM b)
            SELECT user_id, CAST(max(n) AS BIGINT) AS n,
                   CAST(max(m) AS BIGINT) AS n_trim,
                   CAST(sum(vq) FILTER (WHERE rn > m AND rn <= n - m)
                        AS BIGINT) AS sum_q,
                   CAST(sum(vq) FILTER (WHERE rn > m AND rn <= n - m)
                        AS DOUBLE)
                   / (CAST(max(n) - 2 * max(m) AS DOUBLE) * 1000000)
                       AS trimmed_mean
            FROM t GROUP BY user_id
        """,
        # D3 temporal drift: day-parity halves of the G6 histogram grid;
        # chi2 term = exact-int square over exact-int total, one division
        "d3_value_drift": """
            WITH c AS (
                SELECT event_type,
                       CAST(least(floor(value / 10.0), 34) AS BIGINT) AS bin,
                       (epoch_us(ts) // 86400000000) % 2 AS half
                FROM events)
            SELECT event_type, bin,
                   CAST(count(*) FILTER (WHERE half = 0) AS BIGINT) AS n_even,
                   CAST(count(*) FILTER (WHERE half = 1) AS BIGINT) AS n_odd,
                   CAST((count(*) FILTER (WHERE half = 0)
                         - count(*) FILTER (WHERE half = 1))
                        * (count(*) FILTER (WHERE half = 0)
                           - count(*) FILTER (WHERE half = 1)) AS DOUBLE)
                   / count(*) AS chi2_term
            FROM c GROUP BY event_type, bin
        """,
        # G7 HyperLogLog: registers from the Knuth hash (bucket = low 8
        # bits, rho = 25 - bitlen(high 24 bits) via bin()); the harmonic
        # sum is the EXACT integer sum of 2^(25-reg) incl. empty buckets;
        # estimate = pinned IEEE expression + small-range LC correction
        "g7_hll_distinct": """
            WITH h AS (
                SELECT event_type,
                       CAST((CAST(user_id AS HUGEINT) * 2654435761)
                            % 4294967296 AS BIGINT) AS h
                FROM events),
            r AS MATERIALIZED (
                SELECT event_type, h % 256 AS bucket,
                       25 - (CASE WHEN h // 256 = 0 THEN 0
                                  ELSE length(bin(h // 256)) END) AS rho
                FROM h),
            regs AS MATERIALIZED (
                SELECT event_type, bucket, max(rho) AS reg
                FROM r GROUP BY event_type, bucket),
            s AS MATERIALIZED (
                SELECT event_type,
                       CAST(sum(CAST(1 AS BIGINT)
                                << CAST(25 - reg AS INTEGER)) AS BIGINT)
                           AS s_hit,
                       count(*) AS n_hit
                FROM regs GROUP BY event_type),
            f AS (SELECT event_type,
                         CAST(s_hit + (256 - n_hit) * 33554432 AS BIGINT)
                             AS s_int,
                         CAST(256 - n_hit AS BIGINT) AS n_zero
                  FROM s)
            SELECT event_type, CAST(256 AS BIGINT) AS m, s_int, n_zero,
                   CASE WHEN ((0.7213 / (1.0 + 1.079 / 256.0))
                              * 65536.0 * 33554432.0)
                             / CAST(s_int AS DOUBLE) <= 640.0
                             AND n_zero > 0
                        THEN 256.0 * ln(256.0 / CAST(n_zero AS DOUBLE))
                        ELSE ((0.7213 / (1.0 + 1.079 / 256.0))
                              * 65536.0 * 33554432.0)
                             / CAST(s_int AS DOUBLE)
                   END AS est_hll
            FROM f
        """,
        # V5 bigram-LM scoring: top-500 bigram table (count desc, bigram
        # asc — total order, tie-safe) joined back onto each document's
        # bigram occurrences; all-integer outputs
        "lm_score_docs": """
            WITH ws AS (SELECT doc_id,
                               list_filter(string_split(text, ' '),
                                           x -> x <> '') AS w
                        FROM documents),
            bg AS MATERIALIZED (
                SELECT doc_id, w[t.i] || ' ' || w[t.i + 1] AS bigram
                FROM ws CROSS JOIN unnest(range(1, greatest(len(w), 1)))
                    AS t(i)),
            cnt AS MATERIALIZED (
                SELECT bigram, CAST(count(*) AS BIGINT) AS n
                FROM bg GROUP BY bigram),
            top AS MATERIALIZED (
                SELECT bigram, n FROM cnt
                ORDER BY n DESC, bigram ASC LIMIT 500),
            sc AS (SELECT b.doc_id,
                          CAST(count(*) AS BIGINT) AS n_bigrams,
                          CAST(count(t.bigram) AS BIGINT) AS n_known,
                          CAST(coalesce(sum(t.n), 0) AS BIGINT) AS hit_sum
                   FROM bg b LEFT JOIN top t USING (bigram)
                   GROUP BY b.doc_id)
            SELECT d.doc_id,
                   CAST(coalesce(sc.n_bigrams, 0) AS BIGINT) AS n_bigrams,
                   CAST(coalesce(sc.n_known, 0) AS BIGINT) AS n_known,
                   CAST(coalesce(sc.hit_sum, 0) AS BIGINT) AS hit_sum
            FROM documents d LEFT JOIN sc USING (doc_id)
        """,
        # D4 contamination: held-out docs sharing any kept winnowing
        # window-hash (same winh CTE as the fingerprint oracle) with a
        # train doc; split rule doc_id % 10
        "d4_split_contamination": f"""
            WITH winh AS (
              SELECT doc_id,
                list_transform(range(1, greatest(octet_length(encode(text))
                                                 - 14, 1)),
                  i -> ({_FP_TERMS}) % 4294967296) AS hs
              FROM documents),
            kept AS MATERIALIZED (
              SELECT doc_id,
                     unnest(list_distinct(list_filter(hs, x -> x % 8 = 0)))
                         AS h
              FROM winh),
            tr AS (SELECT doc_id, h FROM kept WHERE doc_id % 10 < 8),
            te AS (SELECT doc_id, h FROM kept WHERE doc_id % 10 >= 8)
            SELECT te.doc_id,
                   CAST(count(DISTINCT te.h) AS BIGINT) AS n_shared_hashes,
                   CAST(count(DISTINCT tr.doc_id) AS BIGINT) AS n_train_docs
            FROM te JOIN tr ON te.h = tr.h
            GROUP BY te.doc_id
        """,
        # R1 retention plan: per (tier, day) survival under the tier's
        # keep window, horizon anchored at the max day (watermark)
        "r1_retention_plan": """
            WITH d AS (SELECT epoch_us(ts) // 86400000000 AS day,
                              count(*) AS n
                       FROM events GROUP BY day),
            mx AS (SELECT max(day) AS md FROM d),
            t(tier, keep) AS (VALUES ('tier0', 7), ('tier1', 14),
                                     ('tier2', NULL))
            SELECT t.tier, CAST(d.day AS BIGINT) AS day,
                   CAST(d.n AS BIGINT) AS n_events,
                   CAST(CASE WHEN t.keep IS NULL OR d.day > mx.md - t.keep
                             THEN 1 ELSE 0 END AS BIGINT) AS kept
            FROM d CROSS JOIN t CROSS JOIN mx
        """,
        # R1 retention apply: the buckets that must survive keep=7 —
        # the engine answers from parquet footers of the PRUNED layout
        "r1_retention_apply": """
            WITH d AS (SELECT epoch_us(ts) // 86400000000 AS day,
                              count(*) AS n
                       FROM events GROUP BY day),
            mx AS (SELECT max(day) AS md FROM d)
            SELECT CAST(day AS BIGINT) AS day, CAST(n AS BIGINT) AS n_events
            FROM d CROSS JOIN mx WHERE day > md - 7
        """,
        # R2 compaction: rows per day; before-files = distinct shards
        # present (event_id % 4 image per day); after-files = 1 by contract
        "r2_compact_events": """
            SELECT epoch_us(ts) // 86400000000 AS day,
                   count(*) AS n_rows,
                   CAST(count(DISTINCT event_id % 4) AS BIGINT)
                       AS files_before,
                   CAST(1 AS BIGINT) AS files_after
            FROM events GROUP BY day
        """,
        # Q7 quota sample: ≤ k per source under (seeded hash, doc_id)
        "q7_quota_sample": f"""
            WITH h AS (SELECT source, doc_id,
                              CAST((CAST(xor(doc_id % 4294967296,
                                             {(7 * 2654435761) & 0xFFFFFFFF})
                                         AS HUGEINT) * 2654435761)
                                   % 4294967296 AS BIGINT) AS h
                       FROM documents),
            r AS (SELECT source, doc_id, h,
                         row_number() OVER (PARTITION BY source
                                            ORDER BY h, doc_id) AS rn
                  FROM h)
            SELECT source, doc_id, h FROM r WHERE rn <= 20
        """,
        # Q8 split assignment stats (doc_id % 10 rule)
        "q8_split_stats": """
            WITH s AS (SELECT CASE WHEN doc_id % 10 < 8 THEN 'train'
                                   WHEN doc_id % 10 = 8 THEN 'val'
                                   ELSE 'test' END AS split,
                              doc_id, n_chars
                       FROM documents)
            SELECT split, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS chars_sum,
                   CAST(min(doc_id) AS BIGINT) AS doc_min,
                   CAST(max(doc_id) AS BIGINT) AS doc_max
            FROM s GROUP BY split
        """,
        # X3 inverted-index probe: per top-5 corpus word, the posting-list
        # aggregate (df, occurrences, doc_id sum/min/max fingerprint)
        "inverted_index_probe": """
            WITH w AS (SELECT doc_id,
                              unnest(string_split(text, ' ')) AS word
                       FROM documents),
            occ AS MATERIALIZED (
                SELECT doc_id, word, CAST(count(*) AS BIGINT) AS tf
                FROM w WHERE word <> '' GROUP BY doc_id, word),
            cnt AS (SELECT word, CAST(sum(tf) AS BIGINT) AS n
                    FROM occ GROUP BY word),
            top AS (SELECT word FROM cnt
                    ORDER BY n DESC, word ASC LIMIT 5)
            SELECT o.word, CAST(count(*) AS BIGINT) AS df,
                   CAST(sum(o.tf) AS BIGINT) AS n_occ,
                   CAST(sum(o.doc_id) AS BIGINT) AS doc_sum,
                   CAST(min(o.doc_id) AS BIGINT) AS doc_min,
                   CAST(max(o.doc_id) AS BIGINT) AS doc_max
            FROM occ o JOIN top USING (word) GROUP BY o.word
        """,
        # V4 bigram top-k: adjacent pairs after empty-drop, position pairs
        "bigram_topk": """
            WITH ws AS (SELECT doc_id,
                               list_filter(string_split(text, ' '),
                                           x -> x <> '') AS w
                        FROM documents)
            SELECT w[t.i] || ' ' || w[t.i + 1] AS word,
                   CAST(count(*) AS BIGINT) AS n
            FROM ws CROSS JOIN unnest(range(1, greatest(len(w), 1))) AS t(i)
            GROUP BY word ORDER BY n DESC, word ASC LIMIT 25
        """,
        # Q6 seeded shuffle: global rank under (hash, doc_id) — id XOR
        # seed-mix before the Knuth multiply (seed changes the
        # permutation, not just a rank shift); HUGEINT product mod 2^32
        # == the engine's uint64 wrap mod 2^32
        "q6_seeded_shuffle": f"""
            WITH h AS (SELECT doc_id,
                              CAST((CAST(xor(doc_id % 4294967296,
                                             {(42 * 2654435761) & 0xFFFFFFFF})
                                         AS HUGEINT) * 2654435761)
                                   % 4294967296 AS BIGINT) AS h
                       FROM documents)
            SELECT doc_id, h,
                   CAST(row_number() OVER (ORDER BY h, doc_id) - 1
                        AS BIGINT) AS shuffle_pos
            FROM h
        """,
        # C4 dedup->pack: keeper CTE + window-frame sum over doc order
        "c4_dedup_packing": """
            WITH k AS (SELECT min(doc_id) AS doc_id
                       FROM documents GROUP BY md5(text)),
            n AS (SELECT d.doc_id,
                         CAST(length(list_filter(string_split(d.text, ' '),
                              x -> x <> '')) AS BIGINT) AS n_tok
                  FROM documents d JOIN k USING (doc_id))
            SELECT doc_id, n_tok,
                   CAST(COALESCE(sum(n_tok) OVER (
                        ORDER BY doc_id
                        ROWS BETWEEN UNBOUNDED PRECEDING
                                 AND 1 PRECEDING), 0) AS BIGINT)
                       AS tok_offset,
                   CAST(COALESCE(sum(n_tok) OVER (
                        ORDER BY doc_id
                        ROWS BETWEEN UNBOUNDED PRECEDING
                                 AND 1 PRECEDING), 0) AS BIGINT) // 1024
                       AS seq_id
            FROM n
        """,
        # Q10 systematic sample: every k-th rank of the Q6 order
        "q10_systematic_sample": f"""
            WITH h AS (SELECT doc_id,
                              CAST((CAST(xor(doc_id % 4294967296,
                                             {(42 * 2654435761) & 0xFFFFFFFF})
                                         AS HUGEINT) * 2654435761)
                                   % 4294967296 AS BIGINT) AS h
                       FROM documents)
            SELECT doc_id, h,
                   CAST(row_number() OVER (ORDER BY h, doc_id) - 1
                        AS BIGINT) AS shuffle_pos
            FROM h
            QUALIFY (row_number() OVER (ORDER BY h, doc_id) - 1) % 10 = 0
        """,
        # Q11 weighted systematic sample: running n_chars sum over doc_id
        # order; pick where the weight span crosses a stride multiple
        # (stride = total // k, k=25) — all-integer floor-div arithmetic
        "q11_weighted_sample": """
            WITH c AS (
                SELECT doc_id, n_chars,
                       CAST(sum(n_chars) OVER (ORDER BY doc_id
                            ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cw
                FROM documents),
            t AS (SELECT greatest(CAST(sum(n_chars) AS BIGINT) // 25, 1)
                      AS stride FROM documents)
            SELECT doc_id, n_chars, cw - n_chars AS w_before,
                   cw // stride - (cw - n_chars) // stride AS n_hits
            FROM c, t
            WHERE cw // stride > (cw - n_chars) // stride
        """,
        # P3 sequence packing: exclusive prefix sum over doc_id order
        "pack_sequences": """
            WITH n AS (SELECT doc_id,
                              CAST(length(list_filter(string_split(text, ' '),
                                   x -> x <> '')) AS BIGINT) AS n_tok
                       FROM documents)
            SELECT doc_id, n_tok,
                   CAST(COALESCE(sum(n_tok) OVER (ORDER BY doc_id
                        ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                        0) AS BIGINT) AS tok_offset,
                   CAST(COALESCE(sum(n_tok) OVER (ORDER BY doc_id
                        ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                        0) AS BIGINT) // 1024 AS seq_id
            FROM n
        """,
    }
    # C7 composite: the three per-series detector relations joined into
    # one consensus report — each sub-oracle is the SAME string the
    # individual detect_* checks run, wrapped as a subquery
    _d["c7_consensus_report"] = f"""
        SELECT e.doc_id, e.part_id,
               CAST((CASE WHEN e.n_anomalies > 0 THEN 1 ELSE 0 END)
                  + (CASE WHEN c.n_anomalies > 0 THEN 1 ELSE 0 END)
                  + (CASE WHEN t.n_anomalies > 0 THEN 1 ELSE 0 END)
                    AS BIGINT) AS votes,
               CAST(e.n_anomalies AS BIGINT) AS n_esd,
               CAST(c.n_anomalies AS BIGINT) AS n_cusum,
               CAST(t.n_anomalies AS BIGINT) AS n_threshold
        FROM ({_d["detect_esd"]}) e
        JOIN ({_d["detect_cusum"]}) c
          ON c.doc_id = e.doc_id AND c.part_id = e.part_id
        JOIN ({_d["detect_threshold"]}) t
          ON t.doc_id = e.doc_id AND t.part_id = e.part_id
        ORDER BY votes DESC, n_esd DESC, e.doc_id, e.part_id
        LIMIT 25
    """
    return _d
