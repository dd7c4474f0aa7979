"""Codec round-trip properties (SURVEY.md §5.3): decode(encode(x)) == x for
random int32 arrays including adversarial bit patterns.  hypothesis is not
guaranteed usable offline -> hand-rolled seeded loops."""

import numpy as np

from anomalydetection_ray.codecs import (
    BitReader,
    DodState,
    checksum64,
    dod_decode_stream,
    dod_encode_chunk,
    dod_encode_values,
    gorilla_decode,
    gorilla_decode_ref,
    gorilla_encode,
    pack_bits,
    state_hash,
)


def test_pack_bits_known():
    # 0b101 (3 bits) + 0b1 (1 bit) + 0xAB (8 bits) = 1011 1010 1011 -> 0xBA 0xB0
    out = pack_bits(np.array([0b101, 0b1, 0xAB], dtype=np.uint64), np.array([3, 1, 8], dtype=np.uint8))
    assert out == bytes([0xBA, 0xB0])
    r = BitReader(out)
    assert r.read(3) == 0b101 and r.read(1) == 1 and r.read(8) == 0xAB


def test_pack_bits_word_spanning():
    # 45-bit values crossing 64-bit word boundaries repeatedly
    rng = np.random.default_rng(7)
    vals = rng.integers(0, 2**45, 500, dtype=np.uint64)
    nbits = np.full(500, 45, dtype=np.uint8)
    out = pack_bits(vals, nbits)
    r = BitReader(out)
    for v in vals.tolist():
        assert r.read(45) == v


def test_gorilla_roundtrip_random():
    rng = np.random.default_rng(42)
    for trial in range(50):
        n = int(rng.integers(0, 3000))
        kind = trial % 5
        if kind == 0:
            v = rng.integers(0, 50257, n).astype(np.int32)
        elif kind == 1:
            v = rng.integers(-(2**31), 2**31 - 1, n).astype(np.int32)
        elif kind == 2:
            v = np.full(n, int(rng.integers(-(2**31), 2**31 - 1)), dtype=np.int32)
        elif kind == 3:
            v = (np.cumsum(rng.integers(-5, 6, n)) % 50257).astype(np.int32)
        else:  # adversarial bit patterns
            v = rng.choice(
                np.array([0, 1, -1, 2**31 - 1, -(2**31), 0x55555555 - 2**31, 0x0F0F0F0F], dtype=np.int32), n
            )
        enc = gorilla_encode(v)
        if n:
            dec = gorilla_decode(int(v[0]), enc, n)
            assert np.array_equal(dec, v), f"trial {trial}"
            # the generic control-bit follower must agree with the fast
            # vectorized decoder on every stream (same grammar)
            ref = gorilla_decode_ref(int(v[0]), enc, n)
            assert np.array_equal(ref, v), f"trial {trial} (ref)"
        else:
            assert enc == b""


def test_gorilla_chunk_boundaries():
    # n-1 exactly at / around multiples of GORILLA_CHUNK, incl. n=2
    rng = np.random.default_rng(11)
    for m in [1, 2, 31, 32, 33, 63, 64, 65, 1023, 1024, 1025]:
        v = rng.integers(-(2**31), 2**31 - 1, m + 1).astype(np.int32)
        enc = gorilla_encode(v)
        assert np.array_equal(gorilla_decode(int(v[0]), enc, m + 1), v), m
        assert np.array_equal(gorilla_decode_ref(int(v[0]), enc, m + 1), v), m


def test_dod_encode_values_matches_scalar():
    rng = np.random.default_rng(44)
    for _ in range(10):
        n = int(rng.integers(1, 300))
        vals = rng.integers(-(2**31), 2**31 - 1, n).tolist()
        s1, s2 = DodState(), DodState()
        scalar = [dod_encode_chunk(s1, v) for v in vals]
        batched = dod_encode_values(s2, vals)
        assert scalar == batched
        assert s1.as_tuple() == s2.as_tuple()
        # split the batch arbitrarily: state must carry across calls
        s3 = DodState()
        k = n // 2
        split = dod_encode_values(s3, vals[:k]) + dod_encode_values(s3, vals[k:])
        assert split == scalar and s3.as_tuple() == s1.as_tuple()


def test_dod_roundtrip():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(1, 400))
        vals = rng.integers(-(2**31), 2**31 - 1, n).tolist()
        st = DodState()
        chunks = [dod_encode_chunk(st, v) for v in vals]
        assert dod_decode_stream(chunks).tolist() == vals
        assert st.count == n


def test_dod_compression_on_similar_lengths():
    # realistic n_tok streams (nearby values) should cost ~1-2 bytes/value
    vals = (1000 + np.arange(500) * 3).tolist()
    st = DodState()
    chunks = [dod_encode_chunk(st, v) for v in vals]
    assert sum(map(len, chunks)) <= 2 * len(vals) + 4


def test_state_hash_deterministic():
    s1, s2 = DodState(), DodState()
    for v in (5, 9, 9, 100):
        dod_encode_chunk(s1, v)
        dod_encode_chunk(s2, v)
    assert state_hash(s1) == state_hash(s2)
    dod_encode_chunk(s2, 101)
    assert state_hash(s1) != state_hash(s2)


def test_checksum64():
    assert checksum64(b"") == checksum64(b"")
    assert checksum64(b"abc") != checksum64(b"abd")
    assert checksum64(b"abc") < 2**64


def _gorilla_encode_v1(values: np.ndarray) -> bytes:
    """Greedy v1 encoder (the pre-v2 policy): '0' = same value,
    '10' = mantissa fits the prior window, '11' = new 5+6-bit header.
    Exists only to produce legacy blocks for the dispatch tests."""
    v = np.ascontiguousarray(values, dtype=np.int32).view(np.uint32)
    bits: list[tuple[int, int]] = []  # (value, nbits)
    prev_lz = prev_tz = prev_len = 0
    for i in range(1, v.shape[0]):
        xor = int(v[i] ^ v[i - 1])
        if xor == 0:
            bits.append((0, 1))
            continue
        lz = 32 - xor.bit_length()
        tz = (xor & -xor).bit_length() - 1
        if prev_len > 0 and lz >= prev_lz and tz >= prev_tz:
            bits.append((0b10, 2))
            bits.append((xor >> prev_tz, prev_len))
        else:
            prev_lz, prev_tz = min(lz, 31), tz
            prev_len = 32 - prev_lz - prev_tz
            bits.append((0b11, 2))
            bits.append((prev_lz, 5))
            bits.append((prev_len, 6))
            bits.append((xor >> prev_tz, prev_len))
    vals = np.array([b[0] for b in bits], dtype=np.uint64)
    nb = np.array([b[1] for b in bits], dtype=np.uint8)
    return pack_bits(vals, nb)


def test_v1_block_decodes_through_pipeline():
    """decode_batch / oracle.decode_part must dispatch on codec_version:
    v1 greedy blocks go through the generic grammar follower (the fast v2
    decoder would read them as garbage)."""
    import pyarrow as pa

    from anomalydetection_ray.oracle import TIER0_SCHEMA, decode_part
    from anomalydetection_ray.stages.encode import decode_batch

    rng = np.random.default_rng(7)
    rows = []
    for n in (0, 1, 5, 100, 1337):
        vals = rng.integers(-(2**31), 2**31 - 1, n).astype(np.int32)
        if n > 3:
            vals[2] = vals[1]  # force a '0' control (repeat) in the v1 stream
        enc = _gorilla_encode_v1(vals)
        # sanity: the generic follower reads the greedy stream
        dec = gorilla_decode_ref(int(vals[0]) if n else 0, enc, n)
        assert np.array_equal(dec, vals)
        rows.append(
            {
                "doc_id": f"d{n}",
                "source": "s",
                "part_id": 0,
                "n_tok": n,
                "first_val": int(vals[0]) if n else 0,
                "gorilla_xor": enc,
                "dod_ntok": b"",
                "codec_version": 1,
                "value_checksum": checksum64(vals.tobytes()),
                "null_bitmap": None,
            }
        )
        # oracle path dispatches too
        ovals, _ = decode_part(rows[-1])
        assert np.array_equal(ovals, vals)
    batch = pa.Table.from_pylist(rows, schema=TIER0_SCHEMA)
    out = decode_batch(batch)
    assert out.column("checksum_ok").to_pylist() == [True] * len(rows)


def test_mixed_version_batch_dispatch(monkeypatch):
    """A batch mixing v1 and v2 rows decodes each with its own policy, also
    when the rows straddle row-slice edges, and null bitmaps give back the
    valid masks."""
    import pyarrow as pa

    from anomalydetection_ray.constants import CODEC_VERSION
    from anomalydetection_ray.oracle import TIER0_SCHEMA
    from anomalydetection_ray.stages import encode
    from anomalydetection_ray.stages.encode import decode_batch

    rng = np.random.default_rng(11)
    rows, masks = [], []
    for i, (ver, n) in enumerate(
        [(1, 500), (CODEC_VERSION, 500), (1, 5), (CODEC_VERSION, 6), (CODEC_VERSION, 0),
         (1, 9), (CODEC_VERSION, 1), (CODEC_VERSION, 33), (1, 2), (CODEC_VERSION, 500)]
    ):
        vals = rng.integers(0, 50257, n).astype(np.int32)
        valid = rng.random(n) > 0.3 if i % 3 == 0 and n else None
        enc = _gorilla_encode_v1(vals) if ver == 1 else gorilla_encode(vals)
        rows.append(
            {
                "doc_id": f"m{i}",
                "source": "s",
                "part_id": 0,
                "n_tok": n,
                "first_val": int(vals[0]) if n else 0,
                "gorilla_xor": enc,
                "dod_ntok": b"",
                "codec_version": ver,
                "value_checksum": checksum64(vals.tobytes()),
                "null_bitmap": None if valid is None else np.packbits(valid).tobytes(),
            }
        )
        masks.append(valid)
    batch = pa.Table.from_pylist(rows, schema=TIER0_SCHEMA)
    # the default bound, then one that puts slice edges inside the batch
    for slice_tokens in (encode.SLICE_TOKENS, 7):
        monkeypatch.setattr(encode, "SLICE_TOKENS", slice_tokens)
        out = decode_batch(batch)
        assert out.column("checksum_ok").to_pylist() == [True] * len(rows)
        for row, valid, got in zip(rows, masks, out.column("tokens").to_pylist()):
            ref = gorilla_decode_ref(row["first_val"], row["gorilla_xor"], row["n_tok"])
            want = ref.tolist() if valid is None else [int(x) if ok else None for x, ok in zip(ref, valid)]
            assert got == want, (slice_tokens, row["doc_id"])


def _adversarial_parts():
    """Validated-part rows: edge lengths around the chunk size, all-null
    and leading-null rows, alternating INT32_MIN/INT32_MAX."""
    import pyarrow as pa

    rng = np.random.default_rng(13)
    lists = []
    for i, n in enumerate([0, 1, 2, 33, 34, 65, 4097, 3, 9, 8, 16, 17]):
        kind = i % 4
        if kind == 0:
            v = rng.integers(0, 50257, n).tolist()
        elif kind == 1:
            v = [-(2**31) if j % 2 == 0 else 2**31 - 1 for j in range(n)]
        else:
            v = rng.integers(-(2**31), 2**31 - 1, n).tolist()
        if kind == 2 and n:
            v = [None] * n
        if kind == 3 and n > 2:
            v[0] = v[1] = v[n // 2] = None
        lists.append(v)
    return pa.table(
        {
            "doc_id": [f"a{i:02d}" for i in range(len(lists))],
            "source": ["s"] * len(lists),
            "part_id": pa.array([0] * len(lists), pa.int32()),
            "tokens": pa.array(lists, pa.list_(pa.int32())),
            "n_tok": pa.array([len(v) for v in lists], pa.int32()),
        }
    )


def test_encode_rows_matches_oracle(monkeypatch):
    """Every tier0 column of the row-batched encode_rows equals
    oracle.encode_part row by row, on sliced and chunked inputs too, and
    the DoD stream state matches."""
    import pyarrow as pa

    from anomalydetection_ray.oracle import encode_part
    from anomalydetection_ray.stages import encode

    base = _adversarial_parts()
    chunked = pa.concat_tables([base.slice(0, 5), base.slice(5, 2), base.slice(7)])
    cases = [(s, b) for s in (encode.SLICE_TOKENS, 7) for b in (base, base.slice(1), chunked)]
    for slice_tokens, batch in cases:
        monkeypatch.setattr(encode, "SLICE_TOKENS", slice_tokens)
        tier0, dod = encode.encode_rows(batch)
        ref_state = DodState()
        for row, tok in zip(tier0.to_pylist(), batch.column("tokens").to_pylist()):
            valid = np.array([x is not None for x in tok], dtype=bool)
            vals = np.array([0 if x is None else x for x in tok], dtype=np.int32)
            ref = encode_part(vals, None if valid.all() else valid, 0, ref_state)
            for col, want in ref.items():
                assert row[col] == want, (slice_tokens, row["doc_id"], col)
        assert dod.as_tuple() == ref_state.as_tuple()


def test_encode_partition_write_failure_leaves_no_tmp(tmp_path, monkeypatch):
    """A tier0 write that fails partway leaves no tmp file behind."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from anomalydetection_ray.sources.validate import validate_batch
    from anomalydetection_ray.stages.encode import EncodePartition, assign_partition

    tokens = pa.array([[1, 2, 3], [4, None]], type=pa.list_(pa.int32()))
    group = assign_partition(validate_batch(pa.table({
        "doc_id": ["a", "b"], "source": ["s", "s"], "tokens": tokens,
        "n_tok": pa.array([3, 2], type=pa.int32())})), 1)

    def fail(table, where, **kwargs):
        with open(where, "wb") as f:
            f.write(b"PAR1")
        raise OSError("disk full")

    monkeypatch.setattr(pq, "write_table", fail)
    with pytest.raises(OSError, match="disk full"):
        EncodePartition(str(tmp_path))(group)
    assert os.listdir(tmp_path / "tier0" / "part=000000") == []
