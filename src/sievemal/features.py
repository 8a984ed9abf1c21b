"""Fixed-layout 721-dimensional static feature vector for PE files.

Layout (float32 throughout):
  [0..255]    normalized byte histogram over the raw file
  [256..511]  normalized 16x16 (entropy bin x byte high nibble) histogram,
              windows of 2048 bytes with stride 1024
  [512..518]  printable-string statistics (7 values)
  [519..528]  general / header statistics (10 values)
  [529..592]  section-name hashing bins (64), fnv1a64(name) mod 64,
              accumulating log1p(raw_size)
  [593..720]  string-token hashing bins (128), fnv1a64(token) mod 128,
              accumulating 1 per occurrence

Both histograms come from one bincount over (1024-byte block, byte value); an
entropy window is a pair of adjacent full blocks, and its entropy is read from a
c*log2(c) table. Section and token bins walk a 7-bit table, and token bins are
memoized per distinct string.
"""

from __future__ import annotations

import numpy as np

from .errors import FeatureFailure
from .pe import PeFile, parse_pe

DIM = 721
HISTOGRAM = slice(0, 256)
ENTROPY = slice(256, 512)
STRINGS = slice(512, 519)
GENERAL = slice(519, 529)
SECTION_BINS = slice(529, 593)
TOKEN_BINS = slice(593, 721)

BLOCK = 1024  # the entropy stride; a window is two blocks
SECTION_BIN_COUNT = 64
TOKEN_BIN_COUNT = 128

FEATURE_FILE_HEADER = "sievemal-features v1, dim=721, n="

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_FNV7 = [(x * FNV_PRIME) & 127 for x in range(256)]

# c * log2(c) for every count a 2048-byte window can hold (0 for c = 0)
_CLOG = np.arange(2 * BLOCK + 1) * np.log2(np.maximum(np.arange(2 * BLOCK + 1), 1))

# Token bin of each printable string as found (before lower()). Strings repeat
# across files (section names, version-info keys, padded tokens); the memo is
# cleared when full, so its memory stays bounded on any input. Over the seed-0
# present-test and future files in manifest order, 40% of lookups hit with 256
# entries, 72% with 1024 and 76% with 4096.
_TOKEN_MEMO_SIZE = 1024
_token_memo: dict[bytes, int] = {}


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def _fnv7(data: bytes) -> int:
    """fnv1a64(data) % 128. (h ^ b) * FNV_PRIME mod 128 depends only on
    (h ^ b) mod 128, so the walk keeps just the low 7 bits of h."""
    h, table = FNV_OFFSET & 127, _FNV7
    for b in data:
        h = table[h ^ b]
    return h


def _entropy(counts: np.ndarray) -> float:
    probs = counts[counts > 0] / counts.sum()
    return float(-(probs * np.log2(probs)).sum())


def _entropy_histogram(blocks: np.ndarray) -> np.ndarray:
    """blocks: byte counts of the full blocks. A window's counts sum to 2048,
    so its entropy is 11 - sum(c * log2(c)) / 2048 bits, read from `_CLOG`:
    exactly 0 for one byte value and 8 for 256 equally frequent ones. A window
    within 2e-9 half-bits of a bin edge (k/2 bits, k >= 1) takes `_entropy`
    instead, so that its bin does not depend on how either sum rounds."""
    windows = blocks[:-1] + blocks[1:]
    half_bits = 22 - _CLOG.take(windows).sum(axis=1) / BLOCK
    near_edge = (abs(half_bits - np.rint(half_bits)) < 2e-9) & (half_bits > 0.5)
    half_bits[near_edge] = [_entropy(w) * 2 for w in windows[near_edge]]
    ebin = np.minimum(half_bits.astype(np.intp), 15)
    cells = (ebin[:, None] * 16 + np.arange(16)).ravel()
    hist = np.bincount(cells, windows.reshape(-1, 16, 16).sum(axis=2).ravel(), 256)
    return hist / max(hist.sum(), 1)  # no window below 2048 bytes


def _printable_strings(raw: bytes, arr: np.ndarray) -> list[bytes]:
    """Runs of >= 5 bytes in 0x20..0x7e, cut at the edges of a printable mask."""
    printable = np.zeros(arr.size + 2, dtype=bool)
    np.less(arr - 0x20, 0x7F - 0x20, out=printable[1:-1])
    spans = (printable[1:] != printable[:-1]).nonzero()[0].reshape(-1, 2)
    return [raw[s:e] for s, e in spans[spans[:, 1] - spans[:, 0] >= 5].tolist()]


def _string_stats(raw: bytes, strings: list[bytes]) -> np.ndarray:
    out = np.zeros(7)
    out[0] = len(strings)
    if strings:
        joined = b"".join(strings)
        out[1] = len(joined) / len(strings)
        out[2] = _entropy(np.bincount(np.frombuffer(joined, dtype=np.uint8), minlength=256))
    out[3:] = [raw.count(marker) for marker in (b"http", b"C:\\", b"HKEY", b"MZ")]
    return out


def _general_stats(pe: PeFile, raw: bytes, n_strings: int) -> np.ndarray:
    return np.array([
        np.log1p(len(raw)),
        pe.num_sections,
        np.log1p(pe.size_of_image),
        np.log1p(pe.entry_point_rva),
        np.log1p(n_strings),
        np.log1p(len(pe.overlay)),
        1.0 if pe.is_pe64 else 0.0,
        pe.timestamp / 2.0 ** 31,
        bin(pe.characteristics & 0xFFFF).count("1") / 16.0,
        np.log1p(pe.file_alignment),
    ])


def _section_bins(pe: PeFile) -> np.ndarray:
    out = np.zeros(SECTION_BIN_COUNT)
    for s in pe.sections:
        out[_fnv7(s.name) % SECTION_BIN_COUNT] += np.log1p(s.raw_size)
    return out


def _token_bins(strings: list[bytes]) -> np.ndarray:
    """Counts of fnv1a64(s.lower()) % 128, each distinct s hashed once per
    `_token_memo` fill."""
    bins, memo = [], _token_memo
    for s in strings:
        h = memo.get(s)
        if h is None:
            if len(memo) >= _TOKEN_MEMO_SIZE:
                memo.clear()
            h = memo[s] = _fnv7(s.lower())
        bins.append(h)
    return np.bincount(bins, minlength=TOKEN_BIN_COUNT)


def extract_features(raw: bytes) -> np.ndarray:
    """Deterministic 721-dim float32 feature vector of a PE file's bytes; raises
    MalformedPe when they do not parse and FeatureFailure on a non-finite value."""
    raw = bytes(raw)  # no copy for bytes; the token memo needs hashable strings
    pe = parse_pe(raw)
    arr = np.frombuffer(raw, dtype=np.uint8)
    block_base = np.repeat(np.arange(0, -(-arr.size // BLOCK) * 256, 256), BLOCK)[:arr.size]
    blocks = np.bincount(block_base + arr, minlength=block_base[-1] + 256).reshape(-1, 256)
    strings = _printable_strings(raw, arr)
    vec = np.empty(DIM, dtype=np.float64)
    vec[HISTOGRAM] = blocks.sum(axis=0) / arr.size
    vec[ENTROPY] = _entropy_histogram(blocks[:arr.size // BLOCK])
    vec[STRINGS] = _string_stats(raw, strings)
    vec[GENERAL] = _general_stats(pe, raw, len(strings))
    vec[SECTION_BINS] = _section_bins(pe)
    vec[TOKEN_BINS] = _token_bins(strings)
    vec = vec.astype(np.float32)
    if not np.all(np.isfinite(vec)):
        raise FeatureFailure("non-finite feature value")
    return vec


# --- feature matrix file -----------------------------------------------------

def write_feature_file(path, records):
    """records: iterable of (sha256, label, epoch, vector). Stable text format."""
    records = list(records)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{FEATURE_FILE_HEADER}{len(records)}\n")
        for sha, label, epoch, vec in records:
            row = np.asarray(vec, dtype=np.float32).astype(np.float64)
            # one repr per distinct bit pattern; a uint64 view keeps -0.0 apart from 0.0
            bits, where = np.unique(row.view(np.uint64), return_inverse=True)
            text = [repr(v) for v in bits.view(np.float64).tolist()]
            vals = ",".join([text[i] for i in where.tolist()])
            fh.write(f"{sha},{int(label)},{epoch},{vals}\n")
