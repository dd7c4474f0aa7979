"""Gorilla-style compression codecs (SURVEY.md §2.2 E1/E2/E3).

Adapted from Pelkonen et al., "Gorilla: A Fast, Scalable, In-Memory Time
Series Database", VLDB 2015:

- **E1 value codec** (§4.1.2 of the paper, adapted float64 -> uint32 bit
  patterns): XOR each int32 token value with its predecessor;
  control '0'  -> XOR == 0 (1 bit total);
  control '10' -> meaningful bits fit the previous leading/trailing-zero
                  window (2 + prev_len bits);
  control '11' -> new window header: 5-bit leading-zero count + 6-bit
                  meaningful length (1..32) + the meaningful bits.
  The first value of a block is NOT in the stream (stored in the
  ``first_val`` column of tier0).

  **Control policy (codec v2, same grammar):** Gorilla's greedy
  keep-window-while-it-fits policy forces a per-element sequential
  decision (a Python loop — measured 0.17 M tok/s/core).  Any policy
  choice yields a decodable stream, so v2 uses a *uniform chunked
  window*: the stream is cut into chunks of ``GORILLA_CHUNK`` XOR
  elements; each chunk's first element always emits a '11' header whose
  window is (min leading zeros, min trailing zeros) over the chunk's
  nonzero XORs (an all-zero chunk uses lz=31/len=1), and every other
  element of the chunk emits '10' + the fixed ``wlen`` meaningful bits
  (zero XOR -> zero mantissa).  This removes the per-element data
  dependence: encode is pure NumPy, and decode can compute every field
  offset per chunk and gather mantissas vectorized
  (``np.bitwise_xor.accumulate`` rebuilds the values).  The generic
  bit-follower decoder (``gorilla_decode_ref``) still reads v2 streams
  unchanged; v1 greedy streams remain readable via the same function
  (``codec_version`` column records which policy wrote a block).

- **E2 timestamp codec** (§4.1.1): delta-of-delta with bit classes
  '0' (D == 0), '10' + 7 bits (D in [-63, 64]), '110' + 9 bits
  ([-255, 256]), '1110' + 12 bits ([-2047, 2048]), '1111' + 32 bits.
  Used for the per-partition ``n_tok`` stream; each row's contribution is
  one byte-aligned chunk so rows stay independently writable while the
  concatenated chunks in row order form one logical stream (the encoder
  actor carries the (prev, prev_delta) state across rows — SURVEY.md §3 P2).

Bit order is MSB-first within bytes.  Encoding uses a NumPy-vectorized
variable-width bit packer and has no Python-level loop; the v2 decoder's
only one is a per-chunk header walk (each chunk's position depends on the
previous chunk's window).  ``gorilla_encode_rows`` / ``gorilla_decode_rows``
run the v2 layout over many rows of a flat buffer at once (each row its
own byte-aligned stream); ``gorilla_encode`` / ``gorilla_decode`` are
their one-row case.  Both the oracle and the Ray engine call these exact
functions, so round-trip and bit-for-bit checks are meaningful.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = [
    "pack_bits",
    "BitReader",
    "GORILLA_CHUNK",
    "gorilla_encode",
    "gorilla_encode_rows",
    "gorilla_decode",
    "gorilla_decode_rows",
    "gorilla_decode_ref",
    "dod_encode_chunk",
    "dod_encode_values",
    "dod_decode_stream",
    "DodState",
    "checksum64",
    "state_hash",
]

GORILLA_CHUNK = 32  # XOR elements per window recalibration (codec v2)

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def pack_bits(vals: np.ndarray, nbits: np.ndarray) -> bytes:
    """Pack ``vals[i]`` (low ``nbits[i]`` bits, MSB-first stream order) into
    bytes.  Vectorized: each element touches at most two 64-bit words."""
    if vals.shape[0] == 0:
        return b""
    nb = nbits.astype(np.int64)
    ends = np.cumsum(nb)
    return _pack_at(vals, nb, ends - nb, (int(ends[-1]) + 7) // 8)


def _pack_at(vals: np.ndarray, nb: np.ndarray, starts: np.ndarray, nbytes: int) -> bytes:
    """``pack_bits`` with explicit, non-decreasing bit ``starts``: bits no
    element covers (e.g. per-row byte padding) stay zero."""
    words = np.zeros((8 * nbytes + 63) // 64 + 1, dtype=np.uint64)
    v = vals.astype(np.uint64)
    word_idx = starts >> 6
    sh = 64 - (starts & 63) - nb  # right-align within the word; negative => spans two
    pos = sh >= 0
    sh_pos = np.where(pos, sh, 0).astype(np.uint64)
    sh_neg = np.where(pos, 0, -sh).astype(np.uint64)
    hi = np.where(pos, (v << sh_pos) & _MASK64, v >> sh_neg)
    lo = np.where(pos, np.uint64(0), (v << ((np.uint64(64) - sh_neg) & np.uint64(63))) & _MASK64)
    # when sh_neg == 0 the expression above would be v<<64; pos covers that case
    # Scatter-OR without ufunc.at (which is orders of magnitude slower than a
    # C-level pass): word_idx is non-decreasing, so OR-combine each run with
    # reduceat, then assign the per-word results collision-free.
    _or_into(words, word_idx, hi)
    _or_into(words, word_idx + 1, lo)
    return words.byteswap().tobytes()[:nbytes]


def _or_into(words: np.ndarray, idx: np.ndarray, val: np.ndarray) -> None:
    """words[idx] |= val for non-decreasing idx, vectorized."""
    if idx.shape[0] == 0:
        return
    starts = np.flatnonzero(idx[1:] != idx[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), starts))
    words[idx[starts]] |= np.bitwise_or.reduceat(val, starts)


class BitReader:
    """MSB-first bit reader over bytes (decode path — verify/restore only)."""

    __slots__ = ("data", "pos", "acc", "nacc")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0  # next byte index
        self.acc = 0
        self.nacc = 0

    def read(self, n: int) -> int:
        while self.nacc < n:
            self.acc = (self.acc << 8) | self.data[self.pos]
            self.pos += 1
            self.nacc += 8
        self.nacc -= n
        out = (self.acc >> self.nacc) & ((1 << n) - 1)
        self.acc &= (1 << self.nacc) - 1
        return out


def _clz_tz(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized count-leading/trailing-zeros for nonzero uint32 arrays.
    float64 conversion is exact for 32-bit magnitudes (52-bit mantissa), so
    the IEEE-754 biased exponent field IS floor(log2(x)) + 1023 — no
    transcendental call needed."""
    bl = ((x.astype(np.float64).view(np.uint64) >> np.uint64(52)) - np.uint64(1022)).astype(np.int64)
    lz = 32 - bl
    low = x & (~x + np.uint32(1))  # x & -x: lowest set bit
    tz = ((low.astype(np.float64).view(np.uint64) >> np.uint64(52)) - np.uint64(1023)).astype(np.int64)
    return lz, tz


def _seg_index(lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For segments of ``lens`` laid end to end: each element's segment id
    and its index within the segment."""
    seg = np.repeat(np.arange(lens.shape[0], dtype=np.int64), lens)
    first = np.cumsum(lens) - lens
    return seg, np.arange(seg.shape[0], dtype=np.int64) - first[seg]


def gorilla_encode_rows(dense: np.ndarray, offsets: np.ndarray) -> tuple[bytes, np.ndarray]:
    """E1 over a flat buffer of rows: row ``i`` is
    ``dense[offsets[i]:offsets[i + 1]]``.  Each row is its own v2 stream
    (the XOR restarts at the row's first value, which is carried
    out-of-band as tier0 ``first_val``) padded to a byte boundary, so
    ``data[byte_offsets[i]:byte_offsets[i + 1]]`` is exactly
    ``gorilla_encode`` of row ``i``.  One ``pack_bits`` pass at explicit
    bit starts; no per-row or per-element Python loop."""
    v = np.ascontiguousarray(dense, dtype=np.int32).view(np.uint32)
    offsets = np.asarray(offsets, dtype=np.int64)
    m = np.maximum(np.diff(offsets), 1) - 1  # XOR elements per row
    rows, j = _seg_index(m)
    pos = offsets[:-1][rows] + 1 + j  # each element's value position
    xor = (v[pos] ^ v[pos - 1]).astype(np.uint64)
    nz = xor != 0
    # sentinel 63 keeps zero elements out of the per-chunk window mins
    lz = np.full(xor.shape[0], 63, dtype=np.int64)
    tz = np.full(xor.shape[0], 63, dtype=np.int64)
    if nz.any():
        lz[nz], tz[nz] = _clz_tz(xor[nz].astype(np.uint32))
    is_first = j % GORILLA_CHUNK == 0  # chunk-first elements: '11' header
    starts = np.flatnonzero(is_first)
    cid = np.cumsum(is_first) - 1
    if starts.shape[0]:
        wlz = np.minimum.reduceat(lz, starts)
        wtz = np.minimum.reduceat(tz, starts)
    else:
        wlz = wtz = np.empty(0, dtype=np.int64)
    allz = wlz == 63  # all-zero chunk: 1-bit mantissas of 0
    wlz[allz] = 31
    wtz[allz] = 0
    wlen = 32 - wlz - wtz  # in [1..32]; fits the 6-bit header field
    elen = wlen[cid].astype(np.uint64)
    mant = xor >> wtz[cid].astype(np.uint64)
    out_v = (np.uint64(0b10) << elen) | mant
    out_b = 2 + wlen[cid]
    hdr = (np.uint64(0b11) << np.uint64(11)) | (wlz.astype(np.uint64) << np.uint64(6)) | wlen.astype(np.uint64)
    out_v[starts] = (hdr << wlen.astype(np.uint64)) | mant[starts]
    out_b[starts] = 13 + wlen
    # row bit lengths -> byte-aligned row offsets -> each element's bit start
    cb = np.concatenate(([0], np.cumsum(out_b)))
    row_cb = cb[np.concatenate(([0], np.cumsum(m)))]
    byte_offsets = np.concatenate(([0], np.cumsum((np.diff(row_cb) + 7) >> 3)))
    bit_starts = cb[:-1] + (8 * byte_offsets[:-1] - row_cb[:-1])[rows]
    return _pack_at(out_v, out_b, bit_starts, int(byte_offsets[-1])), byte_offsets


def gorilla_encode(values: np.ndarray) -> bytes:
    """E1: encode ``values[1:]`` (int32) against their predecessors using the
    uniform chunked-window policy (codec v2 — module docstring).
    ``values[0]`` is carried out-of-band (tier0 ``first_val``).  The
    one-row case of ``gorilla_encode_rows``."""
    values = np.asarray(values)
    return gorilla_encode_rows(values, np.array([0, values.shape[0]]))[0]


def gorilla_decode_rows(
    first_vals: np.ndarray, data: bytes | np.ndarray, byte_offsets: np.ndarray, n_tok: np.ndarray
) -> np.ndarray:
    """E3 fast path over many rows: inverse of ``gorilla_encode_rows``.
    Row ``i`` has ``n_tok[i]`` values, its first value ``first_vals[i]``
    and its v2 stream starting at byte ``byte_offsets[i]`` of ``data``
    (streams need not be contiguous or ordered).  Returns the rows'
    values end to end as one flat int32 array.

    The only sequential work is one small Python iteration **per chunk**
    over all rows (the '11' header parse: each chunk's position depends on
    the previous chunk's window); mantissa extraction and the XOR prefix
    scan (one ``bitwise_xor.accumulate``, segmented per row) are NumPy.
    Only valid for streams written by this module's ``gorilla_encode``
    (codec_version >= 2); use ``gorilla_decode_ref`` for arbitrary
    conformant streams (e.g. v1 greedy blocks)."""
    n = np.asarray(n_tok, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(n)))
    total = int(offsets[-1])
    out = np.empty(total, dtype=np.uint32)
    if total == 0:
        return out.view(np.int32)
    m = np.maximum(n, 1) - 1  # XOR elements per row
    nch = (m + GORILLA_CHUNK - 1) // GORILLA_CHUNK
    crow, k = _seg_index(nch)
    elems = np.minimum(m[crow] - k * GORILLA_CHUNK, GORILLA_CHUNK)
    pad = np.zeros(len(data) + 8, dtype=np.uint8)
    pad[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    raw = pad.tobytes()
    row_bit = (8 * np.asarray(byte_offsets, dtype=np.int64)[crow]).tolist()
    row_first = (k == 0).tolist()
    step = elems - 1
    cs = [0] * crow.shape[0]  # chunk start bit
    hdrs = [0] * crow.shape[0]
    bitpos = 0
    for c, e in enumerate(step.tolist()):
        if row_first[c]:
            bitpos = row_bit[c]
        byte0 = bitpos >> 3
        hdr = (int.from_bytes(raw[byte0 : byte0 + 3], "big") >> (11 - (bitpos & 7))) & 0x7FF
        ln = hdr & 63
        cs[c] = bitpos
        hdrs[c] = hdr
        bitpos += 13 + ln + e * (2 + ln)
    hdr_a = np.array(hdrs, dtype=np.int64)
    wlen = hdr_a & 63
    wtz = 32 - (hdr_a >> 6) - wlen
    cid, j = _seg_index(elems)
    ln_e = wlen[cid]
    # mantissa bit offsets: the chunk-first one follows the 13-bit header,
    # element j > 0 follows j - 1 whole elements and its 2-bit '10' control
    mstart = np.array(cs, dtype=np.int64)[cid] + 13 + j * (2 + ln_e)
    # big-endian 64-bit word at every byte offset (a strided view, no copy)
    win = np.ndarray((pad.shape[0] - 7,), dtype=">u8", buffer=pad, strides=(1,))
    word = win[mstart >> 3].astype(np.uint64)
    ln_u = ln_e.astype(np.uint64)
    mant = (word >> (64 - (mstart & 7) - ln_e).astype(np.uint64)) & ((np.uint64(1) << ln_u) - np.uint64(1))
    row_start = np.zeros(total, dtype=bool)
    row_start[offsets[:-1][n > 0]] = True
    out[row_start] = (np.asarray(first_vals, dtype=np.int64)[n > 0] & 0xFFFFFFFF).astype(np.uint32)
    out[~row_start] = (mant << wtz[cid].astype(np.uint64)).astype(np.uint32)
    # segmented prefix XOR: undo the running XOR carried in from earlier rows
    acc = np.bitwise_xor.accumulate(out)
    before = np.concatenate(([0], acc))[offsets[:-1]].astype(np.uint32)
    return (acc ^ np.repeat(before, n)).view(np.int32)


def gorilla_decode(first_val: int, data: bytes, n: int) -> np.ndarray:
    """E3 fast path for one row: the one-row case of
    ``gorilla_decode_rows``."""
    return gorilla_decode_rows(np.array([first_val]), data, np.zeros(1, dtype=np.int64), np.array([n]))


def gorilla_decode_ref(first_val: int, data: bytes, n: int) -> np.ndarray:
    """E3 reference path: generic control-bit follower.  Reads any stream in
    the Gorilla grammar regardless of encode policy (v1 greedy or v2
    chunked); the oracle and the property tests cross-check ``gorilla_decode``
    against this."""
    out = np.empty(n, dtype=np.uint32)
    if n == 0:
        return out.view(np.int32)
    prev = np.uint32(first_val & 0xFFFFFFFF)
    out[0] = prev
    r = BitReader(data)
    prev_lz = prev_tz = prev_len = 0
    for i in range(1, n):
        if r.read(1) == 0:
            out[i] = prev
            continue
        if r.read(1) == 0:  # '10'
            mbits = r.read(prev_len)
            xor = mbits << prev_tz
        else:  # '11'
            prev_lz = r.read(5)
            prev_len = r.read(6)
            prev_tz = 32 - prev_lz - prev_len
            xor = r.read(prev_len) << prev_tz
        prev = prev ^ np.uint32(xor)
        out[i] = prev
    return out.view(np.int32)


class DodState:
    """Per-partition delta-of-delta stream state held by the encoder actor."""

    __slots__ = ("prev", "prev_delta", "count")

    def __init__(self, prev: int = 0, prev_delta: int = 0, count: int = 0):
        self.prev = prev
        self.prev_delta = prev_delta
        self.count = count

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.prev, self.prev_delta, self.count)


def _wrap32(x: int) -> int:
    """Wrap to signed 32-bit (mod 2^32 arithmetic is a group, so encode and
    decode that both wrap reconstruct values exactly even when a raw delta
    exceeds the int32 range)."""
    return ((x + 0x80000000) & 0xFFFFFFFF) - 0x80000000


def dod_encode_chunk(state: DodState, value: int) -> bytes:
    """E2: append one value to the stream; returns its byte-aligned chunk and
    mutates ``state``.  The first value of a stream is stored raw (32 bits)."""
    if state.count == 0:
        vals = np.array([value & 0xFFFFFFFF], dtype=np.uint64)
        bits = np.array([32], dtype=np.uint8)
        state.prev = value
        state.prev_delta = 0
        state.count = 1
        return pack_bits(vals, bits)
    delta = _wrap32(value - state.prev)
    d = _wrap32(delta - state.prev_delta)
    if d == 0:
        v, nb = 0b0, 1
    elif -63 <= d <= 64:
        v, nb = (0b10 << 7) | (d + 63), 9
    elif -255 <= d <= 256:
        v, nb = (0b110 << 9) | (d + 255), 12
    elif -2047 <= d <= 2048:
        v, nb = (0b1110 << 12) | (d + 2047), 16
    else:
        v, nb = (0b1111 << 32) | (d & 0xFFFFFFFF), 36
    state.prev = value
    state.prev_delta = delta
    state.count += 1
    return pack_bits(np.array([v], dtype=np.uint64), np.array([nb], dtype=np.uint8))


def dod_encode_values(state: DodState, values: np.ndarray | list[int]) -> list[bytes]:
    """E2 batched: append ``values`` to the stream in order, returning one
    byte-aligned chunk per value (same output as repeated
    ``dod_encode_chunk``; the class decision and bit assembly are
    vectorized, only the final per-chunk byte slicing is a list step)."""
    vals = np.asarray(values, dtype=np.int64)
    nv = vals.shape[0]
    if nv == 0:
        return []
    out: list[bytes] = []
    start = 0
    if state.count == 0:
        out.append(pack_bits(np.array([vals[0] & 0xFFFFFFFF], dtype=np.uint64), np.array([32], dtype=np.uint8)))
        state.prev = int(vals[0])
        state.prev_delta = 0
        state.count = 1
        start = 1
        if nv == 1:
            return out
    v = vals[start:]
    prevs = np.concatenate(([state.prev], v[:-1]))
    delta = ((v - prevs + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    prev_d = np.concatenate(([state.prev_delta], delta[:-1]))
    d = ((delta - prev_d + 0x80000000) & 0xFFFFFFFF) - 0x80000000
    enc_v = np.select(
        [d == 0, (d >= -63) & (d <= 64), (d >= -255) & (d <= 256), (d >= -2047) & (d <= 2048)],
        [
            np.int64(0),
            (0b10 << 7) | (d + 63),
            (0b110 << 9) | (d + 255),
            (0b1110 << 12) | (d + 2047),
        ],
        default=(0b1111 << 32) | (d & 0xFFFFFFFF),
    ).astype(np.uint64)
    nb = np.select(
        [d == 0, (d >= -63) & (d <= 64), (d >= -255) & (d <= 256), (d >= -2047) & (d <= 2048)],
        [1, 9, 12, 16],
        default=36,
    ).astype(np.int64)
    # byte-align each chunk: left-pad value into its own ceil(nb/8) bytes
    nbytes = (nb + 7) >> 3
    shifted = enc_v << ((nbytes * 8 - nb).astype(np.uint64))
    be = shifted.astype(">u8").view(np.uint8).reshape(-1, 8)
    state.prev = int(v[-1])
    state.prev_delta = int(delta[-1])
    state.count += int(v.shape[0])
    nbytes_l = nbytes.tolist()
    out.extend(be[i, 8 - nbytes_l[i] :].tobytes() for i in range(v.shape[0]))
    return out


def dod_decode_stream(chunks: list[bytes]) -> np.ndarray:
    """E3: decode one value per byte-aligned chunk, in stream order."""
    out = np.empty(len(chunks), dtype=np.int64)
    prev = prev_delta = 0
    for i, chunk in enumerate(chunks):
        r = BitReader(chunk)
        if i == 0:
            v = r.read(32)
            prev = v - (1 << 32) if v >= (1 << 31) else v
        else:
            if r.read(1) == 0:
                d = 0
            elif r.read(1) == 0:
                d = r.read(7) - 63
            elif r.read(1) == 0:
                d = r.read(9) - 255
            elif r.read(1) == 0:
                d = r.read(12) - 2047
            else:
                v = r.read(32)
                d = v - (1 << 32) if v >= (1 << 31) else v
            delta = _wrap32(prev_delta + d)
            prev = _wrap32(prev + delta)
            prev_delta = delta
        out[i] = prev
    return out


def checksum64(data: bytes) -> int:
    """Deterministic 64-bit checksum built from two salted CRC32s (zlib is
    C-speed; a pure-Python FNV loop would dominate encode time)."""
    return (zlib.crc32(data, 0) << 32) | zlib.crc32(data, 0x9E3779B9 & 0xFFFFFFFF)


def state_hash(state: DodState) -> str:
    """Stable hex hash of the encoder stream state, recorded in the manifest
    (BASELINE.json:6 'encoder state hash')."""
    raw = np.array(state.as_tuple(), dtype=np.int64).tobytes()
    return f"{checksum64(raw):016x}"


# --------------------------------------------------- E4: zigzag varint ----
def varint_delta_encode(values: np.ndarray) -> bytes:
    """E4 — zigzag + LEB128 varint delta encoding of an int32 stream
    (protobuf's wire scheme applied to deltas): values[0] as 4 fixed
    little-endian bytes, then per delta d the zigzag ``u = (d << 1) ^
    (d >> 63)`` emitted 7 bits per byte, MSB = continuation.  The
    byte-oriented cousin of E1/E2's bit-packed Gorilla streams — denser
    on small-delta integer token streams, and the size is analytically
    replayable in SQL (``varint_size_batch``).

    Fully vectorized: per-delta byte counts by threshold compares,
    destination offsets by cumsum, then one masked scatter per byte
    position (5 passes max — deltas of uint32-range values need <= 5
    varint bytes)."""
    v = np.asarray(values, dtype=np.int64)
    n = v.shape[0]
    if n == 0:
        return b""
    first = int(v[0]) & 0xFFFFFFFF
    head = first.to_bytes(4, "little")
    if n == 1:
        return head
    d = v[1:] - v[:-1]
    zz = ((d << 1) ^ (d >> 63)).astype(np.uint64)
    nb = (1 + (zz >= (1 << 7)).astype(np.int64)
          + (zz >= (1 << 14)).astype(np.int64)
          + (zz >= (1 << 21)).astype(np.int64)
          + (zz >= (1 << 28)).astype(np.int64))
    offs = np.concatenate(([0], np.cumsum(nb)))
    out = np.zeros(int(offs[-1]), dtype=np.uint8)
    for j in range(5):
        sel = nb > j
        if not sel.any():
            break
        byte = ((zz[sel] >> np.uint64(7 * j))
                & np.uint64(0x7F)).astype(np.uint8)
        cont = (nb[sel] - 1) > j
        out[offs[:-1][sel] + j] = byte | (cont.astype(np.uint8) << 7)
    return head + out.tobytes()


def varint_delta_decode(data: bytes, n: int) -> np.ndarray:
    """Inverse of :func:`varint_delta_encode` (n = value count)."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    first = int.from_bytes(data[:4], "little")
    vals = np.empty(n, dtype=np.int64)
    vals[0] = first
    pos = 4
    for i in range(1, n):
        u = 0
        shift = 0
        while True:
            b = data[pos]
            pos += 1
            u |= (b & 0x7F) << shift
            if not (b & 0x80):
                break
            shift += 7
        d = (u >> 1) ^ -(u & 1)
        vals[i] = vals[i - 1] + d
    return vals


def varint_size_batch(batch) -> "pa.Table":
    """E4 stats kernel: per validated sequence row, the EXACT encoded
    byte size of :func:`varint_delta_encode` (4 fixed + per-delta LEB128
    widths), computed vectorized over the flat token buffer without
    materializing the bytes — byte-for-byte parity with the real encoder
    is pytest-gated (tests/test_round5_ops.py).  ``bytes_per_token`` is
    the one pinned division."""
    import pyarrow as pa

    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    if v.shape[0] > 1:
        d = v[1:] - v[:-1]
        zz = ((d << 1) ^ (d >> 63)).astype(np.uint64)
        nb = (1 + (zz >= (1 << 7)).astype(np.int64)
              + (zz >= (1 << 14)).astype(np.int64)
              + (zz >= (1 << 21)).astype(np.int64)
              + (zz >= (1 << 28)).astype(np.int64))
        c = np.concatenate(([0], np.cumsum(nb)))
        lo = offsets[:-1]
        hi = np.maximum(offsets[1:] - 1, lo)
        sums = c[hi] - c[lo]
    else:
        sums = np.zeros(lens.shape[0], dtype=np.int64)
    n_bytes = np.where(lens > 0, 4 + sums, 0)
    bpt = np.zeros(lens.shape[0], dtype=np.float64)
    np.divide(n_bytes.astype(np.float64), lens.astype(np.float64),
              out=bpt, where=lens > 0)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "n_bytes": pa.array(n_bytes, type=pa.int64()),
        "bytes_per_token": pa.array(bpt, type=pa.float64(),
                                    mask=lens == 0),
    })


# ------------------------------------------------------------- E5: RLE ----
def _leb_emit(u: np.ndarray) -> bytes:
    """Vectorized LEB128 emission of a non-negative uint64 array (< 2^35
    here, so <= 5 bytes each): per-value byte counts by threshold
    compares, destination offsets by cumsum, one masked scatter per byte
    position — E4's emission loop factored out."""
    nb = (1 + (u >= (1 << 7)).astype(np.int64)
          + (u >= (1 << 14)).astype(np.int64)
          + (u >= (1 << 21)).astype(np.int64)
          + (u >= (1 << 28)).astype(np.int64))
    offs = np.concatenate(([0], np.cumsum(nb)))
    out = np.zeros(int(offs[-1]), dtype=np.uint8)
    for j in range(5):
        sel = nb > j
        if not sel.any():
            break
        byte = ((u[sel] >> np.uint64(7 * j))
                & np.uint64(0x7F)).astype(np.uint8)
        cont = (nb[sel] - 1) > j
        out[offs[:-1][sel] + j] = byte | (cont.astype(np.uint8) << 7)
    return out.tobytes()


def rle_encode(values: np.ndarray) -> bytes:
    """E5 — run-length encoding of an int32 stream: a 4-byte little-
    endian run count, then per run LEB128(zigzag(value)) followed by
    LEB128(run_len - 1).  The classic rollup-tier codec (constant
    stretches — gap-filled plateaus, repeated bucket mins — collapse to
    one pair); the size is analytically replayable in SQL
    (``rle_size_batch``), the byte-level parity pytest-gated like E4.

    Fully vectorized: run starts from one shifted compare, value/length
    pairs interleaved into a single array, one `_leb_emit` pass."""
    v = np.asarray(values, dtype=np.int64)
    n = v.shape[0]
    if n == 0:
        return b""
    brk = np.concatenate(([True], v[1:] != v[:-1]))
    starts = np.flatnonzero(brk)
    rv = v[starts]
    rl = np.diff(np.append(starts, n))
    m = starts.shape[0]
    pairs = np.empty(2 * m, dtype=np.int64)
    pairs[0::2] = (rv << 1) ^ (rv >> 63)        # zigzag the value
    pairs[1::2] = rl - 1
    return m.to_bytes(4, "little") + _leb_emit(pairs.astype(np.uint64))


def rle_decode(data: bytes) -> np.ndarray:
    """Inverse of :func:`rle_encode`."""
    if not data:
        return np.empty(0, dtype=np.int64)
    m = int.from_bytes(data[:4], "little")
    pos = 4
    out_v = np.empty(m, dtype=np.int64)
    out_l = np.empty(m, dtype=np.int64)
    for i in range(2 * m):
        u = 0
        shift = 0
        while True:
            b = data[pos]
            pos += 1
            u |= (b & 0x7F) << shift
            if not (b & 0x80):
                break
            shift += 7
        if i % 2 == 0:
            out_v[i // 2] = (u >> 1) ^ -(u & 1)
        else:
            out_l[i // 2] = u + 1
    return np.repeat(out_v, out_l)


def rle_size_batch(batch) -> "pa.Table":
    """E5 stats kernel: per validated sequence row, the run count and
    EXACT encoded byte size of :func:`rle_encode` (4 fixed + per-run
    LEB128(zigzag(value)) + LEB128(len-1) widths), vectorized over the
    flat token buffer with runs force-broken at row boundaries —
    byte-for-byte parity with the real encoder is pytest-gated.
    ``bytes_per_token`` is the one pinned division."""
    import pyarrow as pa

    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    N = v.shape[0]
    lens = np.diff(offsets)
    if N > 0:
        brk = np.ones(N, dtype=bool)
        if N > 1:
            brk[1:] = v[1:] != v[:-1]
        row_starts = offsets[:-1][offsets[:-1] < N]
        brk[row_starts] = True              # runs never cross rows
        rs = np.flatnonzero(brk)
        rv = v[rs]
        rl = np.diff(np.append(rs, N))
        zv = ((rv << 1) ^ (rv >> 63)).astype(np.uint64)
        ul = (rl - 1).astype(np.uint64)

        def widths(u: np.ndarray) -> np.ndarray:
            return (1 + (u >= (1 << 7)).astype(np.int64)
                    + (u >= (1 << 14)).astype(np.int64)
                    + (u >= (1 << 21)).astype(np.int64)
                    + (u >= (1 << 28)).astype(np.int64))

        rb = widths(zv) + widths(ul)
        c = np.concatenate(([0], np.cumsum(rb)))
        lo = np.searchsorted(rs, offsets[:-1], side="left")
        hi = np.searchsorted(rs, offsets[1:], side="left")
        sums = c[hi] - c[lo]
        n_runs = (hi - lo).astype(np.int64)
    else:
        sums = np.zeros(lens.shape[0], dtype=np.int64)
        n_runs = np.zeros(lens.shape[0], dtype=np.int64)
    n_bytes = np.where(lens > 0, 4 + sums, 0)
    bpt = np.zeros(lens.shape[0], dtype=np.float64)
    np.divide(n_bytes.astype(np.float64), lens.astype(np.float64),
              out=bpt, where=lens > 0)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "n_runs": pa.array(n_runs, type=pa.int64()),
        "n_bytes": pa.array(n_bytes, type=pa.int64()),
        "bytes_per_token": pa.array(bpt, type=pa.float64(),
                                    mask=lens == 0),
    })


# ------------------------------------------------------ E6: FOR bitpack ----
_FOR_BLOCK = 128


def for_encode(values: np.ndarray) -> bytes:
    """E6 — frame-of-reference bitpacking of an int32 stream in blocks
    of 128: per block a 4-byte little-endian frame (block min, uint32
    two's complement) + 1 byte bit width w, then the 128 (or fewer,
    last block) deltas ``v - min`` packed w bits each, LSB-first within
    the byte stream and zero-padded to a byte boundary.  The third
    byte-oriented codec next to E4's varint deltas and E5's RLE — the
    columnar-format classic (Parquet/ORC lineage), and the size is
    analytically replayable (``for_size_batch``).

    Encode is a per-block loop (roundtrip/parity surface only — the
    distributed hot path is the vectorized size kernel, the E4/E5
    discipline)."""
    v = np.asarray(values, dtype=np.int64)
    n = v.shape[0]
    if n == 0:
        return b""
    out = bytearray()
    for b0 in range(0, n, _FOR_BLOCK):
        blk = v[b0:b0 + _FOR_BLOCK]
        mn = int(blk.min())
        delta = (blk - mn).astype(np.uint64)
        mx = int(delta.max())
        w = mx.bit_length()
        out += (mn & 0xFFFFFFFF).to_bytes(4, "little")
        out.append(w)
        if w:
            acc = 0
            nb = 0
            for d in delta.tolist():
                acc |= int(d) << nb
                nb += w
                while nb >= 8:
                    out.append(acc & 0xFF)
                    acc >>= 8
                    nb -= 8
            if nb:
                out.append(acc & 0xFF)
    return bytes(out)


def for_decode(data: bytes, n: int) -> np.ndarray:
    """Inverse of :func:`for_encode` (n = value count)."""
    out = np.empty(n, dtype=np.int64)
    pos = 0
    i = 0
    while i < n:
        cnt = min(_FOR_BLOCK, n - i)
        mn = int.from_bytes(data[pos:pos + 4], "little")
        if mn >= 1 << 31:
            mn -= 1 << 32
        w = data[pos + 4]
        pos += 5
        if w == 0:
            out[i:i + cnt] = mn
        else:
            nbytes = (cnt * w + 7) // 8
            acc = int.from_bytes(data[pos:pos + nbytes], "little")
            mask = (1 << w) - 1
            for j in range(cnt):
                out[i + j] = mn + ((acc >> (j * w)) & mask)
            pos += nbytes
        i += cnt
    return out


def for_size_batch(batch) -> "pa.Table":
    """E6 stats kernel: per validated sequence row, the EXACT encoded
    byte size of :func:`for_encode` (per 128-value block: 5 header
    bytes + ceil(cnt*w/8), w = bit width of max(v - min)), computed
    vectorized over the flat token buffer — block extrema via
    ``reduceat`` on row-aligned block starts, widths via the exact
    ``frexp`` exponent (ints < 2^53).  Byte parity with the real
    encoder is pytest-gated; ``bytes_per_token`` is the one pinned
    division."""
    import pyarrow as pa

    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    nblk = (lens + _FOR_BLOCK - 1) // _FOR_BLOCK
    n_bytes = np.zeros(nrows, dtype=np.int64)
    if int(nblk.sum()) > 0:
        # global block-start index: per row, offsets[i] + 128*j
        row_of_blk = np.repeat(np.arange(nrows, dtype=np.int64), nblk)
        within = (np.arange(row_of_blk.shape[0], dtype=np.int64)
                  - np.concatenate(([0],
                                    np.cumsum(nblk)[:-1]))[row_of_blk])
        bstart = offsets[:-1][row_of_blk] + within * _FOR_BLOCK
        bend = np.minimum(bstart + _FOR_BLOCK,
                          offsets[1:][row_of_blk])
        cnt = bend - bstart
        mn = np.minimum.reduceat(v, bstart)
        mx = np.maximum.reduceat(v, bstart)
        delta = mx - mn
        w = np.zeros(delta.shape[0], dtype=np.int64)
        pos_ = delta > 0
        w[pos_] = np.frexp(delta[pos_].astype(np.float64))[1]
        blk_bytes = 5 + (cnt * w + 7) // 8
        np.add.at(n_bytes, row_of_blk, blk_bytes)
    bpt = np.zeros(nrows, dtype=np.float64)
    np.divide(n_bytes.astype(np.float64), lens.astype(np.float64),
              out=bpt, where=lens > 0)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "n_blocks": pa.array(nblk.astype(np.int64), type=pa.int64()),
        "n_bytes": pa.array(n_bytes, type=pa.int64()),
        "bytes_per_token": pa.array(bpt, type=pa.float64(),
                                    mask=lens == 0),
    })


# --------------------------------------------------- E7: dictionary ----
def dict_encode(values: np.ndarray) -> bytes:
    """E7 — dictionary encoding of an int32 stream: a 4-byte LE count
    header, the SORTED distinct-value dictionary (4 bytes LE each,
    two's complement), then every element's dictionary index packed
    ``w = bit_length(k-1)`` bits each (LSB-first, zero-padded to a
    byte boundary; w = 0 when the stream is constant — indices carry
    no bytes at all).  The codec the low-cardinality column deserves,
    completing the columnar-classic set next to E1/E2 Gorilla, E4
    varint, E5 RLE, E6 FOR."""
    v = np.asarray(values, dtype=np.int64)
    n = v.shape[0]
    out = bytearray(int(n).to_bytes(4, "little"))
    if n == 0:
        return bytes(out)
    d = np.unique(v)
    k = int(d.shape[0])
    out += int(k).to_bytes(4, "little")
    out += (d.astype(np.int64) & 0xFFFFFFFF).astype("<u4").tobytes()
    w = int(k - 1).bit_length()
    if w:
        idx = np.searchsorted(d, v).astype(np.uint64)
        nbits = n * w
        bits = np.zeros(nbits, dtype=np.uint8)
        for b in range(w):
            bits[b::w] = (idx >> b) & 1
        pad = (-nbits) % 8
        if pad:
            bits = np.concatenate([bits,
                                   np.zeros(pad, dtype=np.uint8)])
        out += np.packbits(bits.reshape(-1, 8)[:, ::-1],
                           axis=1).tobytes()
    return bytes(out)


def dict_decode(data: bytes, n: int) -> np.ndarray:
    """Inverse of :func:`dict_encode` (``n`` redundant, checked)."""
    n_hdr = int.from_bytes(data[0:4], "little")
    assert n_hdr == n
    if n == 0:
        return np.empty(0, dtype=np.int64)
    k = int.from_bytes(data[4:8], "little")
    d = np.frombuffer(data[8:8 + 4 * k], dtype="<u4").astype(np.int64)
    d = np.where(d >= (1 << 31), d - (1 << 32), d)  # two's complement
    w = int(k - 1).bit_length()
    if w == 0:
        return np.full(n, d[0], dtype=np.int64)
    raw = np.frombuffer(data[8 + 4 * k:], dtype=np.uint8)
    bits = np.unpackbits(raw)
    bits = bits.reshape(-1, 8)[:, ::-1].ravel()[:n * w]
    idx = np.zeros(n, dtype=np.uint64)
    for b in range(w):
        idx |= bits[b::w].astype(np.uint64) << b
    return d[idx.astype(np.int64)]


def dict_size_batch(batch) -> "pa.Table":
    """E7 stats kernel: per validated sequence row, the distinct-value
    count and EXACT encoded byte size of :func:`dict_encode`
    (4 + 4 + 4*k + ceil(n*w/8) with w = bit_length(k-1); 4 for the
    empty row), vectorized: ONE lexsort-free distinct count per row
    via a sorted flat scan.  Byte parity with the real encoder is
    pytest-gated; ``bytes_per_token`` the one pinned division."""
    import pyarrow as pa

    from anomalydetection_ray.stages.rollup import _flat_tokens

    vals, valid, offsets = _flat_tokens(batch)
    if valid is not None:
        vals = np.where(valid, vals, 0)
    v = vals.astype(np.int64)
    lens = np.diff(offsets)
    nrows = lens.shape[0]
    k = np.zeros(nrows, dtype=np.int64)
    if v.shape[0]:
        row_of = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        order = np.lexsort((v, row_of))
        rv, rr = v[order], row_of[order]
        new = np.ones(rv.shape[0], dtype=bool)
        new[1:] = (rr[1:] != rr[:-1]) | (rv[1:] != rv[:-1])
        np.add.at(k, rr[new], 1)
    # w = bit_length(k-1), exact via frexp on ints < 2^53
    w = np.zeros(nrows, dtype=np.int64)
    pos_ = k > 1
    w[pos_] = np.frexp((k[pos_] - 1).astype(np.float64))[1]
    n_bytes = np.where(lens > 0,
                       8 + 4 * k + (lens * w + 7) // 8,
                       4)
    bpt = np.zeros(nrows, dtype=np.float64)
    np.divide(n_bytes.astype(np.float64), lens.astype(np.float64),
              out=bpt, where=lens > 0)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": pa.array(lens, type=pa.int64()),
        "n_distinct": pa.array(k, type=pa.int64()),
        "n_bytes": pa.array(n_bytes, type=pa.int64()),
        "bytes_per_token": pa.array(bpt, type=pa.float64(),
                                    mask=lens == 0),
    })


# ------------------------------------------------ S28: codec advisor ----
def codec_advisor_batch(batch) -> "pa.Table":
    """S28 — per-series codec selection: run ALL FOUR byte-exact
    analytic size surfaces (E4 varint-delta, E5 RLE, E6 FOR-bitpack,
    E7 dictionary) over the same rows and pick the smallest — the
    storage optimizer's decision emitted as data, with the full size
    vector kept so the margin is auditable.  Ties break in fixed codec
    order (varint, rle, for, dict) on both sides.  ALL-integer."""
    import pyarrow as pa

    e4 = varint_size_batch(batch)
    e5 = rle_size_batch(batch)
    e6 = for_size_batch(batch)
    e7 = dict_size_batch(batch)
    sizes = np.stack([
        np.asarray(e4.column("n_bytes"), dtype=np.int64),
        np.asarray(e5.column("n_bytes"), dtype=np.int64),
        np.asarray(e6.column("n_bytes"), dtype=np.int64),
        np.asarray(e7.column("n_bytes"), dtype=np.int64),
    ])
    names = np.array(["varint", "rle", "for", "dict"], dtype=object)
    best = np.argmin(sizes, axis=0)        # first min == fixed order
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "part_id": batch.column("part_id"),
        "n": e4.column("n"),
        "varint_bytes": pa.array(sizes[0], type=pa.int64()),
        "rle_bytes": pa.array(sizes[1], type=pa.int64()),
        "for_bytes": pa.array(sizes[2], type=pa.int64()),
        "dict_bytes": pa.array(sizes[3], type=pa.int64()),
        "best_codec": pa.array(names[best], type=pa.string()),
        "best_bytes": pa.array(sizes.min(axis=0), type=pa.int64()),
    })
