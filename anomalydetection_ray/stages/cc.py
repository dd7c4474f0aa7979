"""Connected components over a pair list — near-duplicate CLUSTERS.

Corpus dedup needs cluster ids, not just pairs: every group of mutually
near-duplicate documents keeps one representative.  ``min_label_components``
computes, for every vertex that appears in an edge list, the minimum
vertex id reachable from it (the canonical cluster id) by BSP min-label
propagation:

    label(v) <- min(label(v), min over neighbors u of label(u))

iterated to fixpoint.  Each round is ONE co-partitioned exchange
(stages/join.py machinery): labels are attached to the directed edge list
on the source endpoint, the per-destination minimum is a small groupby,
and the merge with the previous labels is another co-partitioned attach.
Rounds needed = graph diameter in the worst case — near-dup clusters are
tiny and dense (diameter 2-3), so the loop converges in a handful of
rounds; the driver only orchestrates (per-round row counts), never holds
labels.

At 10^12 scale this is the standard hash-partitioned label-propagation
layout; pathologically long chains (diameter >> rounds) would want
pointer-doubling, which this module deliberately omits (dup clusters are
cliques-ish by construction).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from anomalydetection_ray.stages.runs import (agg_by, keep_first_by,
                                              partition_apply, run_starts)


def min_label_components(pairs_ds, a_col: str, b_col: str,
                         num_partitions: int = 32, max_rounds: int = 32):
    """(vertex, cluster) for every vertex in the pair list; cluster = the
    minimum vertex id in its connected component."""
    from anomalydetection_ray.stages.join import copartition_attach

    def to_edges(batch: pa.Table) -> pa.Table:
        a = batch.column(a_col)
        b = batch.column(b_col)
        return pa.table({"src": pa.chunked_array([a, b]).combine_chunks(),
                         "dst": pa.chunked_array([b, a]).combine_chunks()})

    edges = pairs_ds.map_batches(to_edges, batch_format="pyarrow", zero_copy_batch=True)
    edges = edges.materialize()

    # initial labels: label(v) = v, one row per distinct vertex
    def init_labels(batch: pa.Table) -> pa.Table:
        return pa.table({"v": batch.column("src"), "label": batch.column("src")})

    init = edges.map_batches(init_labels, batch_format="pyarrow",
                             zero_copy_batch=True)
    labels = keep_first_by(init, ["v"], ["label"],
                           num_partitions).materialize()

    def _label_sum(ds) -> int:
        from ray.data.aggregate import Sum

        return int(ds.aggregate(Sum("label", alias_name="s"))["s"] or 0)

    prev_sum = _label_sum(labels)
    converged = False
    for _ in range(max_rounds):
        # candidate labels seen across edges: attach src label, deliver to dst
        def lbl_ds(b: pa.Table) -> pa.Table:
            return pa.table({"doc_id": b.column("v"), "label": b.column("label")})

        with_lbl = copartition_attach(
            edges, labels.map_batches(lbl_ds, batch_format="pyarrow", zero_copy_batch=True),
            left_on="src", right_on="doc_id", payload_cols=["label"],
            num_partitions=num_partitions,
        )

        def as_candidate(b: pa.Table) -> pa.Table:
            return pa.table({"v": b.column("dst"), "label": b.column("label")})

        cands = with_lbl.map_batches(as_candidate, batch_format="pyarrow",
                                     zero_copy_batch=True)
        labels = keep_first_by(cands.union(labels), ["v"], ["label"],
                               num_partitions).materialize()
        # fixpoint: per-vertex labels are non-increasing, so the label sum
        # strictly decreases until convergence — one tiny aggregate, no join
        cur_sum = _label_sum(labels)
        if cur_sum == prev_sum:
            converged = True
            break
        prev_sum = cur_sum
    if not converged:
        # Labels are still shrinking — returning now would hand back wrong
        # (partially propagated) clusters. Graph diameter > max_rounds only
        # happens on a long-chain pair graph, which dedup candidates
        # (clique-ish) never form; fail loudly rather than mislabel.
        raise RuntimeError(
            f"min_label_components did not reach a fixpoint in {max_rounds} "
            f"rounds (label sum still decreasing); the pair graph's diameter "
            f"exceeds max_rounds — raise max_rounds for chain-shaped graphs"
        )

    def rename(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b.column("v"), "cluster": b.column("label")})

    return labels.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------- X5 ----
PR_SCALE = 1_000_000  # integer rank units
PR_BASE = (15 * PR_SCALE) // 100  # (1 - d) * SCALE with d = 0.85


def integer_pagerank(pairs_ds, a_col: str, b_col: str, iters: int = 3,
                     num_partitions: int = 8):
    """X5 — PageRank over an undirected pair graph in DETERMINISTIC
    INTEGER arithmetic: ranks live in ``PR_SCALE`` units, each node sends
    ``r // deg`` to every neighbor (floor division — reproducible), and
    the update is ``r' = PR_BASE + (85 * Σ in) // 100``.  Exact integer
    sums make the result independent of block order and bit-identical to
    an unrolled SQL iteration — the same pinning device the k-means and
    tier2 kernels use, applied to the classic iterative graph algorithm.

    TWO exchanges per iteration, no rank-state join: the per-destination
    sum that accumulates contributions ALSO sums a constant-1 column,
    and in an undirected graph in-degree == degree — so each round's
    output row (v, Σq, deg) is the complete state for the next round's
    share computation.  The driver never holds ranks."""
    from anomalydetection_ray.stages.join import copartition_attach

    def to_edges(batch: pa.Table) -> pa.Table:
        a = batch.column(a_col)
        b = batch.column(b_col)
        return pa.table({"src": pa.chunked_array([a, b]).combine_chunks(),
                         "dst": pa.chunked_array([b, a]).combine_chunks()})

    edges = pairs_ds.map_batches(to_edges, batch_format="pyarrow",
                                 zero_copy_batch=True).materialize()

    # bootstrap state (v, deg, r=SCALE): one degree-count exchange
    ones = edges.map_batches(
        lambda b: pa.table({"v": b.column("src"),
                            "n": pa.array(np.ones(b.num_rows, np.int64))}),
        batch_format="pyarrow", zero_copy_batch=True)
    state = agg_by(ones, ["v"], [("n", "sum", "n")],
                   num_partitions).map_batches(
        lambda b: pa.table({
            "v": b.column("v"), "deg": b.column("n"),
            "r": pa.array(np.full(b.num_rows, PR_SCALE, np.int64))}),
        batch_format="pyarrow").materialize()

    for _ in range(iters):
        def share(b: pa.Table) -> pa.Table:
            r = np.asarray(b.column("r"), dtype=np.int64)
            d = np.asarray(b.column("deg"), dtype=np.int64)
            return pa.table({"doc_id": b.column("v"),
                             "q": pa.array(r // d, type=pa.int64())})

        with_q = copartition_attach(
            edges, state.map_batches(share, batch_format="pyarrow"),
            left_on="src", right_on="doc_id", payload_cols=["q"],
            num_partitions=num_partitions)

        def per_partition_sum(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return pa.table({"v": pa.array([], type=pa.int64()),
                                 "deg": pa.array([], type=pa.int64()),
                                 "r": pa.array([], type=pa.int64())})
            batch = batch.sort_by([("dst", "ascending")])
            starts = run_starts(batch, ["dst"])
            q = np.asarray(batch.column("q"), dtype=np.int64)
            c = np.concatenate(([0], np.cumsum(q)))
            ends = np.append(starts[1:], batch.num_rows)
            t = c[ends] - c[starts]
            deg = ends - starts  # in-degree == degree (undirected)
            return pa.table({
                "v": batch.column("dst").take(pa.array(starts)),
                "deg": pa.array(deg, type=pa.int64()),
                "r": pa.array(PR_BASE + (85 * t) // 100, type=pa.int64()),
            })

        state = partition_apply(with_q, ["dst"], per_partition_sum,
                                num_partitions).materialize()

    return state.map_batches(
        lambda b: pa.table({"doc_id": b.column("v"),
                            "deg": b.column("deg"),
                            "rank_q": b.column("r")}),
        batch_format="pyarrow")


def triangle_census(pairs_ds, a_col: str, b_col: str,
                    num_partitions: int = 8) -> pa.Table:
    """X6 — exact triangle census of an undirected pair graph: node /
    edge / wedge / triangle counts and the global transitivity 3T/W
    (Newman 2003) — the cluster-shape audit over the near-dup pair graph
    (a clique-y graph means whole template families, a sparse one means
    chance collisions).

    Distributed shape (node-iterator algorithm, ordered variant): every
    edge is stored once as (u < v); wedges are generated PER LOWER NODE
    from its co-located higher adjacency (one ``partition_apply`` on u,
    vectorized triangular pair enumeration — no per-node Python), then
    the wedge relation semi-joins the edge relation co-partitioned on a
    packed (b << 32 | c) key, so each triangle a < b < c is found exactly
    once at its minimum vertex.  Counts collapse per block before any
    driver contact; the driver only ever holds O(P) partial sums.

    Partitioning assumption (documented per the custom-operator rule):
    node ids fit in int32 (the packed wedge key is b*2^32 + c) and
    per-node adjacency fits a task (degree-squared wedge fan-out — salt
    or tile hot nodes before raising num_partitions if a node's degree
    reaches ~1e4).  Returns a ONE-ROW pyarrow table."""
    from anomalydetection_ray.stages.join import copartition_attach

    edges = pairs_ds.map_batches(
        lambda b: pa.table({"u": b.column(a_col).cast(pa.int64()),
                            "v": b.column(b_col).cast(pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True).materialize()

    # degrees over BOTH endpoints -> wedge count sum C(d, 2)
    both = edges.map_batches(
        lambda b: pa.table({
            "x": pa.chunked_array([b.column("u"),
                                   b.column("v")]).combine_chunks(),
            "n": pa.array(np.ones(2 * b.num_rows, np.int64))}),
        batch_format="pyarrow", zero_copy_batch=True)
    deg = agg_by(both, ["x"], [("n", "sum", "n")],
                 num_partitions).materialize()
    n_nodes = deg.count()
    n_edges = edges.count()

    def wedge_partial(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch.column("n"), dtype=np.int64)
        return pa.table({"w": pa.array([int((d * (d - 1) // 2).sum())],
                                       type=pa.int64())})

    n_wedges = sum(r["w"] for r in deg.map_batches(
        wedge_partial, batch_format="pyarrow",
        zero_copy_batch=True).take_all())

    # wedge generation per lower node (adjacency = higher neighbors)
    def gen_wedges(group: pa.Table) -> pa.Table:
        g = group.sort_by(
            [("u", "ascending"), ("v", "ascending")])
        adj = np.asarray(g.column("v"), dtype=np.int64)
        starts = run_starts(g, ["u"])
        lens = np.diff(np.append(starts, g.num_rows))
        # vectorized triangular enumeration: element j of a run of size d
        # is the LEFT end of (d - 1 - j) wedges
        within = np.arange(g.num_rows, dtype=np.int64) - np.repeat(
            starts, lens)
        left_counts = np.repeat(lens, lens) - 1 - within
        M = int(left_counts.sum())
        if M == 0:
            return pa.table({"wk": pa.array([], type=pa.int64())})
        p = np.repeat(np.arange(g.num_rows, dtype=np.int64), left_counts)
        before = np.concatenate(([0], np.cumsum(left_counts)[:-1]))
        q = p + 1 + (np.arange(M, dtype=np.int64)
                     - np.repeat(before, left_counts))
        return pa.table({"wk": pa.array((adj[p] << 32) | adj[q],
                                        type=pa.int64())})

    wedges = partition_apply(edges, ["u"], gen_wedges, num_partitions)
    ekeys = edges.map_batches(
        lambda b: pa.table({
            "ek": pa.array((np.asarray(b.column("u"), np.int64) << 32)
                           | np.asarray(b.column("v"), np.int64),
                           type=pa.int64()),
            "_m": pa.array(np.ones(b.num_rows, np.int8))}),
        batch_format="pyarrow", zero_copy_batch=True)
    hit = copartition_attach(wedges, ekeys, left_on="wk", right_on="ek",
                             payload_cols=["_m"],
                             num_partitions=num_partitions)

    def count_hits(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({"t": pa.array(
            [int(pc.sum(pc.is_valid(batch.column("_m"))
                        .cast(pa.int64())).as_py() or 0)],
            type=pa.int64())})

    n_tri = sum(r["t"] for r in hit.map_batches(
        count_hits, batch_format="pyarrow").take_all())

    trans = (3.0 * float(n_tri) / float(n_wedges)
             if n_wedges > 0 else None)
    return pa.table({
        "n_nodes": pa.array([n_nodes], type=pa.int64()),
        "n_edges": pa.array([n_edges], type=pa.int64()),
        "n_wedges": pa.array([int(n_wedges)], type=pa.int64()),
        "n_triangles": pa.array([int(n_tri)], type=pa.int64()),
        "transitivity": pa.array([trans], type=pa.float64()),
    })


def degree_assortativity(pairs_ds, a_col: str, b_col: str,
                         num_partitions: int = 8) -> pa.Table:
    """X7 — degree assortativity of an undirected pair graph (Newman
    2002): the Pearson correlation of endpoint degrees over the
    symmetrized edge list — positive r means heavy duplicators link to
    heavy duplicators (template families), negative means hub-and-spoke
    copying.

    Distributed shape: degrees from the X6 ``agg_by`` exchange;
    degrees attach to both edge endpoints via co-partitioned lookups
    (no broadcast of the corpus, only of the partition routing); the
    Pearson moments collapse per block to ONE int64 row each, so the
    driver holds O(P) partials.  Exactness: over the SYMMETRIZED edge
    list Sx = Sy and Sxx = Syy by construction, every moment is an
    exact python-int, and r = float(n*Sxy - Sx^2) / float(n*Sxx - Sx^2)
    is one pinned division.  Returns a ONE-ROW pyarrow table."""
    from anomalydetection_ray.stages.join import copartition_attach

    edges = pairs_ds.map_batches(
        lambda b: pa.table({"u": b.column(a_col).cast(pa.int64()),
                            "v": b.column(b_col).cast(pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True).materialize()

    both = edges.map_batches(
        lambda b: pa.table({
            "x": pa.chunked_array([b.column("u"),
                                   b.column("v")]).combine_chunks(),
            "n": pa.array(np.ones(2 * b.num_rows, np.int64))}),
        batch_format="pyarrow", zero_copy_batch=True)
    deg = agg_by(both, ["x"], [("n", "sum", "n")],
                 num_partitions).materialize()

    # symmetrized directed edges, degree attached to each endpoint
    sym = edges.map_batches(
        lambda b: pa.table({
            "s": pa.chunked_array([b.column("u"),
                                   b.column("v")]).combine_chunks(),
            "t": pa.chunked_array([b.column("v"),
                                   b.column("u")]).combine_chunks()}),
        batch_format="pyarrow", zero_copy_batch=True)
    with_s = copartition_attach(sym, deg, "s", "x", ["n"],
                                num_partitions=num_partitions)
    with_s = with_s.map_batches(
        lambda b: pa.table({"t": b.column("t"),
                            "da": b.column("n").cast(pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True)
    with_st = copartition_attach(with_s, deg, "t", "x", ["n"],
                                 num_partitions=num_partitions)

    def moments(batch: pa.Table) -> pa.Table:
        da = np.asarray(batch.column("da"), dtype=np.int64)
        db = np.asarray(batch.column("n"), dtype=np.int64)
        return pa.table({
            "n": pa.array([batch.num_rows], type=pa.int64()),
            "sx": pa.array([int(da.sum())], type=pa.int64()),
            "sxx": pa.array([int((da * da).sum())], type=pa.int64()),
            "sxy": pa.array([int((da * db).sum())], type=pa.int64()),
        })

    parts = with_st.map_batches(moments, batch_format="pyarrow",
                                zero_copy_batch=True).take_all()
    n = sum(int(r["n"]) for r in parts)
    sx = sum(int(r["sx"]) for r in parts)
    sxx = sum(int(r["sxx"]) for r in parts)
    sxy = sum(int(r["sxy"]) for r in parts)
    num = n * sxy - sx * sx
    den = n * sxx - sx * sx
    r = float(num) / float(den) if den > 0 else None
    return pa.table({
        "n_endpoints": pa.array([n], type=pa.int64()),
        "sx": pa.array([sx], type=pa.int64()),
        "sxx": pa.array([sxx], type=pa.int64()),
        "sxy": pa.array([sxy], type=pa.int64()),
        "assortativity": pa.array([r], type=pa.float64(),
                                  from_pandas=True),
    })
