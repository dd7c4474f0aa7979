"""S2 — deterministic synthetic ``sequences`` source (SURVEY.md §2.2 S2).

Scales the FIXTURES.md F1 recipe to bench size: Zipf-tailed doc lengths,
hot-source skew, a mix of iid / smooth / spiky shapes.  Determinism contract:
the content of doc ``i`` depends ONLY on ``(seed, i)`` — each row gets its
own ``np.random.default_rng([seed, i])`` stream — so any batching /
parallelism / block layout produces identical data (no wall-clock, no
per-worker state).  Used by bench.py (seed 42, per BASELINE.md protocol)
and by the scale tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from anomalydetection_ray.constants import DEFAULT_VOCAB

_SOURCES = np.array(["web", "books", "code", "news"])
_SOURCE_CUM = np.array([0.80, 0.90, 0.95, 1.0])


def synth_doc(seed: int, i: int, mean_len: int = 3000, max_len: int = 200_000) -> dict:
    """One deterministic synthetic sequences row."""
    rng = np.random.default_rng([seed, i])
    # Zipf-ish long tail via Pareto(alpha~1.1), capped
    ln = int(min(max_len, mean_len * 0.35 * (1.0 + rng.pareto(1.1))))
    ln = max(ln, 1)
    kind = i % 10
    if kind < 7:  # iid uniform token ids (codec worst case, honest baseline)
        toks = rng.integers(0, DEFAULT_VOCAB, ln, dtype=np.int32)
    else:  # smooth "textlike" walk
        toks = (np.cumsum(rng.integers(-40, 41, ln)) % DEFAULT_VOCAB).astype(np.int32)
    if i % 13 == 0 and ln > 10:  # planted spike for the anomaly surface
        toks[int(rng.integers(0, ln))] = np.int32(2**31 - 1 - int(rng.integers(0, 1000)))
    src = _SOURCES[int(np.searchsorted(_SOURCE_CUM, rng.random(), side="right"))]
    return {"doc_id": f"doc-{i:010d}", "tokens": toks, "n_tok": ln, "source": str(src)}


def synth_batch(ids: np.ndarray, seed: int = 42, mean_len: int = 3000) -> pa.Table:
    """ids -> sequences Arrow batch (each row independently seeded)."""
    rows = [synth_doc(seed, int(i), mean_len) for i in ids]
    flat = np.concatenate([r["tokens"] for r in rows]) if rows else np.empty(0, dtype=np.int32)
    lens = np.array([r["n_tok"] for r in rows], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lens)])
    toks = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), pa.array(flat, type=pa.int32()))
    return pa.table(
        {
            "doc_id": pa.array([r["doc_id"] for r in rows], type=pa.string()),
            "tokens": toks,
            "n_tok": pa.array(lens.astype(np.int32), type=pa.int32()),
            "source": pa.array([r["source"] for r in rows], type=pa.string()),
        }
    )
