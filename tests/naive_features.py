"""Reference feature blocks and row format used as the exactness oracle.

Deliberately plain: one bincount per entropy window, a regex for printable
strings, a join and re-count for the string entropy, its own 64-bit FNV-1a
loop per section name and per token, and one `repr` per value of a
feature-file row. This is the code that the block-bincount, c*log2(c)-table,
span-based, memoized and 7-bit-table paths of `sievemal.features` replaced;
`extract_features` and `write_feature_file` must reproduce its vectors and
rows bit for bit. Only the layout constants and the header statistics are
shared with `sievemal.features`.
"""

import re

import numpy as np

from sievemal.errors import FeatureFailure
from sievemal.features import (
    DIM,
    ENTROPY,
    GENERAL,
    HISTOGRAM,
    SECTION_BINS,
    STRINGS,
    TOKEN_BINS,
    _general_stats,
)
from sievemal.pe import parse_pe

ENTROPY_WINDOW = 2048
ENTROPY_STRIDE = 1024
SECTION_BIN_COUNT = 64
TOKEN_BIN_COUNT = 128

_STRING_RE = re.compile(rb"[\x20-\x7e]{5,}")


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def byte_histogram(raw: bytes) -> np.ndarray:
    counts = np.bincount(np.frombuffer(raw, dtype=np.uint8), minlength=256)
    total = counts.sum()
    if total == 0:
        return np.zeros(256)
    return counts / total


def entropy_histogram(raw: bytes) -> np.ndarray:
    n = len(raw)
    hist = np.zeros((16, 16))
    if n < ENTROPY_WINDOW:
        return hist.ravel()
    arr = np.frombuffer(raw, dtype=np.uint8)
    for start in range(0, n - ENTROPY_WINDOW + 1, ENTROPY_STRIDE):
        window = arr[start:start + ENTROPY_WINDOW]
        counts = np.bincount(window, minlength=256)
        probs = counts[counts > 0] / ENTROPY_WINDOW
        entropy = float(-(probs * np.log2(probs)).sum())
        ebin = min(int(entropy / 8.0 * 16.0), 15)
        nibble_counts = np.bincount(window >> 4, minlength=16)
        hist[ebin] += nibble_counts
    total = hist.sum()
    if total > 0:
        hist /= total
    return hist.ravel()


def printable_strings(raw: bytes) -> list[bytes]:
    return _STRING_RE.findall(raw)


def string_stats(raw: bytes, strings: list[bytes]) -> np.ndarray:
    out = np.zeros(7)
    out[0] = len(strings)
    if strings:
        lengths = np.array([len(s) for s in strings], dtype=np.float64)
        out[1] = lengths.mean()
        joined = b"".join(strings)
        counts = np.bincount(np.frombuffer(joined, dtype=np.uint8), minlength=256)
        probs = counts[counts > 0] / counts.sum()
        out[2] = float(-(probs * np.log2(probs)).sum())
    out[3] = raw.count(b"http")
    out[4] = raw.count(b"C:\\")
    out[5] = raw.count(b"HKEY")
    out[6] = raw.count(b"MZ")
    return out


def section_bins(pe) -> np.ndarray:
    out = np.zeros(SECTION_BIN_COUNT)
    for s in pe.sections:
        out[fnv1a64(s.name) % SECTION_BIN_COUNT] += np.log1p(s.raw_size)
    return out


def token_bins(strings: list[bytes]) -> np.ndarray:
    out = np.zeros(TOKEN_BIN_COUNT)
    for s in strings:
        out[fnv1a64(s.lower()) % TOKEN_BIN_COUNT] += 1.0
    return out


def extract_features(raw: bytes) -> np.ndarray:
    pe = parse_pe(raw)
    strings = printable_strings(raw)
    vec = np.empty(DIM, dtype=np.float64)
    vec[HISTOGRAM] = byte_histogram(raw)
    vec[ENTROPY] = entropy_histogram(raw)
    vec[STRINGS] = string_stats(raw, strings)
    vec[GENERAL] = _general_stats(pe, raw, len(strings))
    vec[SECTION_BINS] = section_bins(pe)
    vec[TOKEN_BINS] = token_bins(strings)
    vec = vec.astype(np.float32)
    if not np.all(np.isfinite(vec)):
        raise FeatureFailure("non-finite feature value")
    return vec


def format_row(vec) -> str:
    """The value part of one feature-file row, one `repr` per value."""
    row = np.asarray(vec, dtype=np.float32).astype(np.float64)
    return ",".join(map(repr, row.tolist()))
