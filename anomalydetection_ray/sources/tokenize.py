"""Deterministic document tokenizer: the driver's ``documents`` table ->
the engine's ``sequences`` shape (BASELINE.json:15).

There is no pre-tokenized table in /root/testdata, so ``entry()`` derives
one from driver data instead of synthesizing: each document's UTF-8 bytes
run through a vectorized 4-byte rolling hash producing one int32 token id
per position (vocab = DEFAULT_VOCAB).  Fully deterministic, data-derived,
no external model — the point is exercising the engine on driver-owned
inputs, not linguistic fidelity.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from anomalydetection_ray.constants import DEFAULT_VOCAB

_WIN = 4
_MULT = np.uint32(2654435761)  # Knuth multiplicative hash constant


def tokenize_batch(batch: pa.Table, vocab: int = DEFAULT_VOCAB) -> pa.Table:
    """documents(doc_id, text, source, ...) -> sequences batch.

    token[i] = hash(bytes[i:i+4]) % vocab; rows shorter than 4 bytes give
    empty token lists.  Vectorized over the batch's flat string buffer."""
    text = batch.column("text")
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    text = text.cast(pa.binary())
    offsets = np.frombuffer(text.buffers()[1], dtype=np.int32,
                            count=len(text) + 1, offset=text.offset * 4).astype(np.int64)
    data_buf = text.buffers()[2]
    flat = np.frombuffer(data_buf, dtype=np.uint8, count=int(offsets[-1]))
    base = offsets[0]
    offsets = offsets - base
    flat = flat[base : base + int(offsets[-1])] if base else flat[: int(offsets[-1])]

    lens = np.diff(offsets)
    out_lens = np.maximum(lens - (_WIN - 1), 0)
    total = int(out_lens.sum())

    # stencil over the flat byte buffer: h[i] combines bytes i..i+3
    n = flat.shape[0]
    if n >= _WIN:
        b = flat.astype(np.uint32)
        h = (b[: n - 3] * np.uint32(131)) ^ (b[1 : n - 2] * np.uint32(31)) \
            ^ (b[2 : n - 1] * np.uint32(7)) ^ b[3:n]
        h = (h * _MULT) >> np.uint32(9)
        stencil = (h % np.uint32(vocab)).astype(np.int32)
    else:
        stencil = np.empty(0, dtype=np.int32)

    # gather each row's [start, start + out_len) stencil window
    nz = out_lens > 0
    starts = offsets[:-1][nz]
    reps = out_lens[nz]
    if total:
        idx = np.repeat(starts, reps) + (
            np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(reps) - reps, reps)
        )
        toks_flat = stencil[idx]
    else:
        toks_flat = np.empty(0, dtype=np.int32)

    out_offsets = np.concatenate([[0], np.cumsum(out_lens)])
    toks = pa.ListArray.from_arrays(pa.array(out_offsets, type=pa.int32()),
                                    pa.array(toks_flat, type=pa.int32()))
    doc_id = batch.column("doc_id")
    if not pa.types.is_string(doc_id.type):
        doc_id = doc_id.cast(pa.string())
    return pa.table(
        {
            "doc_id": doc_id,
            "tokens": toks,
            "n_tok": pa.array(out_lens.astype(np.int32), type=pa.int32()),
            "source": batch.column("source"),
        }
    )


def docs_sequences(sf_dir: str):
    """``sf_dir/documents.parquet`` (doc_id, text, source) through
    ``tokenize_batch``: the tokenized corpus as a sequences Dataset."""
    import ray.data

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text", "source"])
    return docs.map_batches(tokenize_batch, batch_format="pyarrow",
                            zero_copy_batch=True)
