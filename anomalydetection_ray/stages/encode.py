"""E1/E2 encoder stage + E3 decoder (SURVEY.md §2.2, §3 P2).

``EncodePartition`` is a callable CLASS (actor-pool stage): construction
happens once per actor (reusable scratch state), ``__call__`` encodes one
hash partition's rows.  The Gorilla value stream is per (doc_id, part_id)
row — XOR across doc boundaries would be meaningless — while the
delta-of-delta n_tok stream runs across the partition's rows in
deterministic (doc_id, part_id) order, its state carried by a
``DodState`` created per partition (state strictly partition-local, so a
task/actor retry re-encodes the whole partition idempotently — SURVEY.md
§4).  Each finished partition writes its tier0 parquet atomically and
commits a manifest row; the stage's dataset output is the small summary
stream, so nothing re-materializes the encoded bytes downstream.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from anomalydetection_ray.codecs import (
    DodState,
    checksum64,
    dod_encode_values,
    gorilla_decode_ref,
    gorilla_decode_rows,
    gorilla_encode_rows,
    state_hash,
)
from anomalydetection_ray.constants import CODEC_VERSION, ENGINE_VERSION, SLICE_TOKENS
from anomalydetection_ray.oracle import TIER0_SCHEMA
from anomalydetection_ray.pipelines.rollup import write_unit
from anomalydetection_ray.stages.rollup import _flat_tokens, _locf_flat, _slices
from anomalydetection_ray.state.manifest import write_manifest_row

SUMMARY_SCHEMA = pa.schema(
    [
        ("part_id", pa.int32()),
        ("rows_emitted", pa.int64()),
        ("tokens_processed", pa.int64()),
        ("encoded_bytes", pa.int64()),
        ("encoder_state_hash", pa.string()),
        ("wall_s", pa.float64()),
    ]
)


def assign_partition(batch: pa.Table, num_parts: int) -> pa.Table:
    """Deterministic hash partition id per row, vectorized: the same
    fixed-key siphash `pd.util.hash_array` the rest of the engine's
    exchanges use (stages/runs.py) — stable across processes, never
    python hash() (salted per process), never a per-row crc32 loop."""
    import pandas as pd

    c = batch.column("doc_id")
    if isinstance(c, pa.ChunkedArray):
        c = c.combine_chunks()
    h = pd.util.hash_array(np.asarray(c.to_pandas(), dtype=object), categorize=False)
    pids = (h % np.uint64(num_parts)).astype(np.int32)
    return batch.append_column("pid", pa.array(pids, type=pa.int32()))


def _binary_flat(col) -> tuple[np.ndarray, np.ndarray]:
    """(data bytes, rebased int64 row offsets) of a binary column; the
    data is a zero-copy view of the rows' own byte range."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    offs = np.frombuffer(col.buffers()[1], dtype=np.int32)[col.offset : col.offset + len(col) + 1]
    buf = col.buffers()[2]
    data = np.frombuffer(buf, dtype=np.uint8) if buf is not None else np.empty(0, dtype=np.uint8)
    return data[offs[0] : offs[-1]], offs.astype(np.int64) - offs[0]


def _binary_array(data: bytes, lens: np.ndarray, valid: np.ndarray | None = None) -> pa.Array:
    """Binary array of rows ``lens`` bytes long, laid end to end in ``data``."""
    offsets = np.concatenate(([0], np.cumsum(lens))).astype(np.int32)
    vbuf = None if valid is None else pa.py_buffer(np.packbits(valid, bitorder="little"))
    return pa.Array.from_buffers(
        pa.binary(), lens.shape[0], [vbuf, pa.py_buffer(offsets), pa.py_buffer(data)],
        null_count=-1 if valid is not None else 0,
    )


def _bitmap_index(offsets: np.ndarray, nbytes: np.ndarray) -> np.ndarray:
    """Each token's bit in the rows' null bitmaps laid end to end, row
    ``i``'s bitmap ``nbytes[i]`` bytes long (MSB-first, as np.packbits)."""
    bstart = np.cumsum(nbytes) - nbytes
    return np.arange(offsets[-1], dtype=np.int64) + np.repeat(8 * bstart - offsets[:-1], np.diff(offsets))


def _row_checksums(dense: np.ndarray, offsets: np.ndarray) -> list[int]:
    """checksum64 of each row's int32 bytes (one zlib pass per row)."""
    mv = memoryview(np.ascontiguousarray(dense, dtype=np.int32)).cast("B")
    return [checksum64(mv[4 * a : 4 * b]) for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())]


def encode_rows(batch: pa.Table) -> tuple[pa.Table, DodState]:
    """Encode validated part rows -> (tier0 rows, the DoD n_tok stream
    state).  Order = input order; the DoD stream runs across the batch in
    that order.  Works over the flat token buffer in row slices of at
    most ``SLICE_TOKENS`` tokens: LOCF fill, one row-batched Gorilla pass
    and one ``packbits`` of the null bitmaps per slice."""
    lens = pc.list_value_length(batch.column("tokens")).to_numpy().astype(np.int64)
    first_vals = np.zeros(lens.shape[0], dtype=np.int32)
    checksums: list[int] = []
    enc, bms = [], []
    enc_lens, bm_lens = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for a, e in _slices(lens, SLICE_TOKENS):
        n = lens[a:e]
        vals, valid, offs = _flat_tokens(batch.slice(a, e - a))
        dense = vals if valid is None else _locf_flat(vals, valid, offs)
        rows = np.flatnonzero(n)
        first_vals[a + rows] = dense[offs[rows]]
        checksums += _row_checksums(dense, offs)
        data, boffs = gorilla_encode_rows(dense, offs)
        enc.append(data)
        enc_lens.append(np.diff(boffs))
        nbytes = np.zeros(e - a, dtype=np.int64)
        if valid is not None:
            # rows with a null keep np.packbits of their validity: each
            # row's bits start on a byte, so one packbits covers the slice
            has = np.diff(np.concatenate(([0], np.cumsum(~valid)))[offs]) > 0
            nbytes[has] = (n[has] + 7) >> 3
            sel = np.repeat(has, n)
            bits = np.zeros(8 * int(nbytes.sum()), dtype=bool)
            bits[_bitmap_index(offs, nbytes)[sel]] = valid[sel]
            bms.append(np.packbits(bits).tobytes())
        bm_lens.append(nbytes)
    dod = DodState()
    dod_chunks = dod_encode_values(dod, lens)
    bm_lens = np.concatenate(bm_lens)
    tbl = pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "source": batch.column("source"),
            "part_id": batch.column("part_id"),
            "n_tok": pa.array(lens.astype(np.int32), type=pa.int32()),
            "first_val": pa.array(first_vals, type=pa.int32()),
            "gorilla_xor": _binary_array(b"".join(enc), np.concatenate(enc_lens)),
            "dod_ntok": pa.array(dod_chunks, type=pa.binary()),
            "codec_version": pa.array(np.full(lens.shape[0], CODEC_VERSION, dtype=np.int32)),
            "value_checksum": pa.array(np.array(checksums, dtype=np.uint64), type=pa.uint64()),
            "null_bitmap": _binary_array(b"".join(bms), bm_lens, valid=bm_lens > 0),
        },
        schema=TIER0_SCHEMA,
    )
    return tbl, dod


class EncodePartition:
    """Actor-pool group encoder: one call = one hash partition."""

    def __init__(self, out_dir: str | None = None):
        self.out_dir = out_dir

    def __call__(self, group: pa.Table) -> pa.Table:
        t0 = time.monotonic()
        pid = int(group.column("pid")[0].as_py())
        # deterministic stream order regardless of shuffle arrival order
        group = group.sort_by([("doc_id", "ascending"), ("part_id", "ascending")])
        tier0, dod = encode_rows(group)
        wall = time.monotonic() - t0
        tokens = int(np.asarray(group.column("n_tok"), dtype=np.int64).sum())
        enc_bytes = int(pc.sum(pc.binary_length(tier0.column("gorilla_xor"))).as_py() or 0)
        sh = state_hash(dod)
        if self.out_dir is not None:
            write_unit(tier0, os.path.join(self.out_dir, "tier0", f"part={pid:06d}"))
            write_manifest_row(
                self.out_dir,
                {
                    "part_id": pid,
                    "input_fragments": sorted(set(group.column("doc_id").to_pylist()))[:100],
                    "encoder_state_hash": sh,
                    "rows_emitted": tier0.num_rows,
                    "tokens_processed": tokens,
                    "wall_s": wall,
                    "engine_version": ENGINE_VERSION,
                },
            )
        return pa.table(
            {
                "part_id": pa.array([pid], type=pa.int32()),
                "rows_emitted": pa.array([tier0.num_rows], type=pa.int64()),
                "tokens_processed": pa.array([tokens], type=pa.int64()),
                "encoded_bytes": pa.array([enc_bytes], type=pa.int64()),
                "encoder_state_hash": pa.array([sh], type=pa.string()),
                "wall_s": pa.array([wall], type=pa.float64()),
            }
        )


def decode_batch(batch: pa.Table) -> pa.Table:
    """E3 as a stateless stage: tier0 rows -> decoded token parts + a
    checksum verdict (scale-path verification; SURVEY.md §3 P3).  Row
    slices of at most ``SLICE_TOKENS`` tokens are decoded by one
    row-batched Gorilla pass each into one flat int32 buffer + offsets
    (zero-copy ListArray)."""
    n_tok = np.asarray(batch.column("n_tok"), dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(n_tok)))
    flat = np.empty(int(offsets[-1]), dtype=np.int32)
    valid = np.ones(int(offsets[-1]), dtype=bool)
    ok = np.empty(n_tok.shape[0], dtype=bool)
    for a, e in _slices(n_tok, SLICE_TOKENS):
        t = batch.slice(a, e - a)
        n = n_tok[a:e]
        offs = offsets[a : e + 1] - offsets[a]
        first = np.asarray(t.column("first_val"), dtype=np.int64)
        data, boffs = _binary_flat(t.column("gorilla_xor"))
        # dispatch on the codec_version column: the row-batched decoder
        # assumes the v2 chunked-window layout; v1 greedy blocks (persisted
        # by earlier engine versions) go through the generic grammar follower
        v2 = np.asarray(t.column("codec_version"), dtype=np.int64) >= 2
        dec = flat[offsets[a] : offsets[e]]
        dec[np.repeat(v2, n)] = gorilla_decode_rows(first[v2], data, boffs[:-1][v2], n[v2])
        for i in np.flatnonzero(~v2).tolist():
            dec[offs[i] : offs[i + 1]] = gorilla_decode_ref(
                int(first[i]), data[boffs[i] : boffs[i + 1]].tobytes(), int(n[i]))
        ok[a:e] = np.array(_row_checksums(dec, offs), dtype=np.uint64) == np.asarray(
            t.column("value_checksum"), dtype=np.uint64)
        bm_col = t.column("null_bitmap")
        if bm_col.null_count < e - a:
            bm, bm_offs = _binary_flat(bm_col)
            sel = np.repeat(np.asarray(bm_col.is_valid()), n)
            bits = np.unpackbits(bm).astype(bool)
            valid[offsets[a] : offsets[e]][sel] = bits[_bitmap_index(offs, np.diff(bm_offs))[sel]]
    values = pa.array(flat, type=pa.int32(), mask=~valid)
    toks = pa.LargeListArray.from_arrays(pa.array(offsets, type=pa.int64()), values).cast(
        pa.list_(pa.int32())
    )
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "source": batch.column("source"),
            "part_id": batch.column("part_id"),
            "n_tok": batch.column("n_tok"),
            "tokens": toks,
            # passthrough: lets rows-only driver checks pin the decoded
            # content bytes, not just row counts
            "value_checksum": batch.column("value_checksum"),
            "checksum_ok": pa.array(ok, type=pa.bool_()),
        }
    )
