"""Engine-wide constants (SURVEY.md §1.2, §4).

TIER1_BUCKET / TIER2_BUCKET are the rollup bucket widths fixed by the north
star (BASELINE.json:6: "raw -> 1k-point -> 10k-point rollups").

MAX_TOKENS_PER_PART is the giant-row split unit (SURVEY.md §4): a series
longer than this is split into parts of exactly this many positions so that
(a) no single row exceeds a block, and (b) it is the Gorilla encoder's
partition unit.  It MUST be a multiple of TIER2_BUCKET so that neither tier's
buckets ever straddle a part boundary.
"""

ENGINE_VERSION = "0.1.0"

TIER1_BUCKET = 1_000
TIER2_BUCKET = 10_000

MAX_TOKENS_PER_PART = 1_000_000
assert MAX_TOKENS_PER_PART % TIER2_BUCKET == 0

# Tokens per slice of the flat-buffer kernels (robust-score sorts, tier0
# encode / decode): bounds their per-token temporaries to a cache-sized
# working set.  An item (bucket or row) longer than this is its own slice.
SLICE_TOKENS = 1 << 15

# Robust-scale factor: 1/Phi^{-1}(3/4), the consistency constant making
# MAD comparable to a standard deviation (S-H-ESD, arXiv:1704.07706 §3).
MAD_SCALE = 1.4826

# v1 = greedy Gorilla control policy (Python-loop encoder); v2 = uniform
# chunked-window policy (vectorized encode + decode; same bit grammar —
# codecs.py module docstring).  gorilla_decode_ref reads both.
CODEC_VERSION = 2

# Default vocab used by synthetic/tokenized sources (GPT-2-sized, public).
DEFAULT_VOCAB = 50_257
