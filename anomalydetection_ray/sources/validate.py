"""S3 validator / normalizer + giant-row splitter (SURVEY.md §2.2 S3, §4).

A ``map_batches(validate_batch, batch_format="pyarrow", zero_copy_batch=True)``
stage.  Responsibilities:

- enforce the input schema (BASELINE.json:15): cast ``tokens`` child to
  int32, ``doc_id``/``source`` to string; null ``tokens`` rows become empty
  lists;
- recompute ``n_tok`` from the list offsets (the input column is validated,
  not trusted — FIXTURES.md F1 plants corrupt values);
- split rows longer than ``MAX_TOKENS_PER_PART`` into parts of exactly that
  many positions (the long-tail/skew defense of SURVEY.md §4 — a 10^8-token
  doc must not become a single block) and emit a ``part_id`` column.

The split is zero-copy on the token values: every part is a contiguous
subrange of the batch's flat value buffer, so the output ListArray reuses
the same child array with a denser offsets vector.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from anomalydetection_ray.constants import MAX_TOKENS_PER_PART

VALIDATED_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("source", pa.string()),
        ("part_id", pa.int32()),
        ("n_tok", pa.int32()),
        ("tokens", pa.list_(pa.int32())),
    ]
)


def _tokens_as_list_array(col: pa.ChunkedArray | pa.Array) -> pa.ListArray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_large_list(col.type):
        col = col.cast(pa.list_(col.type.value_type))
    if col.type.value_type != pa.int32():
        col = col.cast(pa.list_(pa.int32()))
    if col.null_count:
        # null rows -> empty lists (schema repair, not data)
        col = col.fill_null([])
    return col


def validate_batch(batch: pa.Table, max_part: int = MAX_TOKENS_PER_PART) -> pa.Table:
    """Validate + normalize + split one Arrow batch of ``sequences`` rows."""
    tokens = _tokens_as_list_array(batch.column("tokens"))
    offsets = np.asarray(tokens.offsets, dtype=np.int64)
    lens = np.diff(offsets)
    nrows = len(lens)

    nparts = np.maximum(1, -(-lens // max_part))  # empty rows keep 1 part
    total_parts = int(nparts.sum())

    if total_parts == nrows:
        row_map = np.arange(nrows, dtype=np.int64)
        part_ids = np.zeros(nrows, dtype=np.int32)
        new_offsets = offsets
        part_lens = lens
    else:
        row_map = np.repeat(np.arange(nrows, dtype=np.int64), nparts)
        # part index within its row: 0..nparts[row]-1
        first_part = np.cumsum(nparts) - nparts
        part_ids = (np.arange(total_parts, dtype=np.int64) - first_part[row_map]).astype(np.int32)
        starts = offsets[row_map] + part_ids.astype(np.int64) * max_part
        part_lens = np.minimum(lens[row_map] - part_ids.astype(np.int64) * max_part, max_part)
        part_lens = np.maximum(part_lens, 0)
        new_offsets = np.concatenate([starts, offsets[-1:]])
        # boundaries are strictly increasing except consecutive empty rows,
        # which is fine for ListArray offsets (zero-length slices)

    # batch-local flat buffers are << 2^31 elements, so int32 offsets always fit
    list_arr = pa.ListArray.from_arrays(pa.array(new_offsets, type=pa.int32()), tokens.values)

    take_idx = pa.array(row_map, type=pa.int64())
    doc_id = batch.column("doc_id")
    if not pa.types.is_string(doc_id.type):
        doc_id = doc_id.cast(pa.string())
    source = batch.column("source")
    if not pa.types.is_string(source.type):
        source = source.cast(pa.string())

    return pa.table(
        {
            "doc_id": doc_id.take(take_idx),
            "source": source.take(take_idx),
            "part_id": pa.array(part_ids, type=pa.int32()),
            "n_tok": pa.array(part_lens.astype(np.int32), type=pa.int32()),
            "tokens": list_arr,
        }
    )
