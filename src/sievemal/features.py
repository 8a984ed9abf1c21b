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
"""

from __future__ import annotations

import re

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

ENTROPY_WINDOW = 2048
ENTROPY_STRIDE = 1024
SECTION_BIN_COUNT = 64
TOKEN_BIN_COUNT = 128

FEATURE_FILE_HEADER = "sievemal-features v1, dim=721, n="

_STRING_RE = re.compile(rb"[\x20-\x7e]{5,}")

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & _U64
    return h


def _byte_histogram(raw: bytes) -> np.ndarray:
    counts = np.bincount(np.frombuffer(raw, dtype=np.uint8), minlength=256)
    total = counts.sum()
    if total == 0:
        return np.zeros(256)
    return counts / total


def _entropy_histogram(raw: bytes) -> np.ndarray:
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


def _printable_strings(raw: bytes) -> list[bytes]:
    return _STRING_RE.findall(raw)


def _string_stats(raw: bytes, strings: list[bytes]) -> np.ndarray:
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
        out[fnv1a64(s.name) % SECTION_BIN_COUNT] += np.log1p(s.raw_size)
    return out


def _token_bins(strings: list[bytes]) -> np.ndarray:
    out = np.zeros(TOKEN_BIN_COUNT)
    for s in strings:
        out[fnv1a64(s.lower()) % TOKEN_BIN_COUNT] += 1.0
    return out


def extract_features(raw: bytes) -> np.ndarray:
    """Deterministic 721-dim float32 feature vector of a PE file's bytes; raises
    MalformedPe when they do not parse and FeatureFailure on a non-finite value."""
    pe = parse_pe(raw)
    strings = _printable_strings(raw)
    vec = np.empty(DIM, dtype=np.float64)
    vec[HISTOGRAM] = _byte_histogram(raw)
    vec[ENTROPY] = _entropy_histogram(raw)
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
            vals = ",".join(map(repr, row.tolist()))
            fh.write(f"{sha},{int(label)},{epoch},{vals}\n")


def read_feature_file(path):
    """Returns (shas, labels, epochs, X) with X float32 of shape (n, 721)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith(FEATURE_FILE_HEADER):
            raise ValueError(f"bad feature file header: {header!r}")
        n = int(header[len(FEATURE_FILE_HEADER):])
        shas, labels, epochs, rows = [], [], [], []
        for line in fh:
            parts = line.rstrip("\n").split(",", 3)
            sha, label, epoch, rest = parts
            shas.append(sha)
            labels.append(int(label))
            epochs.append(epoch)
            row = np.array([float(x) for x in rest.split(",")], dtype=np.float32)
            if row.shape[0] != DIM:
                raise ValueError(f"record for {sha} has {row.shape[0]} values, want {DIM}")
            rows.append(row)
    if len(rows) != n:
        raise ValueError(f"feature file declares {n} records, found {len(rows)}")
    X = np.vstack(rows) if rows else np.empty((0, DIM), dtype=np.float32)
    return shas, np.array(labels), epochs, X
