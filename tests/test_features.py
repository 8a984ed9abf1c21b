import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sievemal.features import (
    DIM,
    ENTROPY,
    GENERAL,
    HISTOGRAM,
    SECTION_BINS,
    STRINGS,
    TOKEN_BINS,
    _fnv7,
    _section_bins,
    _token_bins,
    extract_features,
    fnv1a64,
    write_feature_file,
)
from sievemal.pe import build_pe, parse_pe

EXEC = 0x60000020
DATA = 0xC0000040


def naive_fnv1a64(data: bytes) -> int:
    """Straight-line reimplementation of the reference FNV-1a parameters."""
    h = 14695981039346656037
    for b in data:
        h = ((h ^ b) * 1099511628211) % 2 ** 64
    return h


def test_fnv1a64_reference_values():
    # published FNV-1a test vectors
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


@given(st.binary(max_size=64))
@settings(max_examples=200)
def test_fnv1a64_matches_naive(data):
    assert fnv1a64(data) == naive_fnv1a64(data)


@given(st.binary(max_size=64))
@settings(max_examples=200)
def test_token_bin_walk_is_fnv1a64_mod_128(data):
    # the 7-bit walk gives the token bin and, from the name as is, the section bin
    assert _fnv7(data) == fnv1a64(data) % 128
    bins = _token_bins([data])
    assert bins.sum() == 1
    assert bins[fnv1a64(data.lower()) % 128] == 1
    section = _section_bins(SimpleNamespace(sections=[SimpleNamespace(name=data, raw_size=1)]))
    assert np.flatnonzero(section).tolist() == [fnv1a64(data) % 64]


def test_vector_shape_and_dtype():
    raw = build_pe([(b".text", b"\x90" * 100, EXEC)])
    vec = extract_features(raw)
    assert vec.shape == (DIM,)
    assert vec.dtype == np.float32
    assert np.all(np.isfinite(vec))


def test_histogram_normalized_and_located():
    raw = build_pe([(b".d", b"\xab" * 64, DATA)])
    vec = extract_features(raw)
    hist = vec[HISTOGRAM]
    assert math.isclose(float(hist.sum()), 1.0, rel_tol=1e-5)
    # headers are mostly NUL padding, so byte 0 dominates
    assert hist[0] > 0.5
    assert hist[0xAB] > 0


def test_entropy_plane_zero_for_small_files():
    raw = build_pe([(b".d", b"x" * 16, DATA)], min_headers=0x200)
    assert len(raw) < 2048
    assert np.all(extract_features(raw)[ENTROPY] == 0)


def test_entropy_plane_separates_constant_from_random():
    rng = np.random.default_rng(0)
    flat = build_pe([(b".d", b"\x00" * 8192, DATA)])
    noisy = build_pe([(b".d", rng.integers(0, 256, 8192, dtype=np.uint8).tobytes(), DATA)])
    lo = extract_features(flat)[ENTROPY].reshape(16, 16)
    hi = extract_features(noisy)[ENTROPY].reshape(16, 16)
    # constant windows land in the lowest entropy rows, random ones near the top
    assert lo[:4].sum() > 0.9
    assert hi[-4:].sum() > 0.5


def test_string_stats():
    body = b"\x00\x00hello world\x00tiny\x00http://x\x00HKEY_LOCAL\x00C:\\tmp\x00"
    raw = build_pe([(b".d", body, DATA)])
    vec = extract_features(raw)
    s = vec[STRINGS]
    # runs of >= 5 printable chars; "tiny" is too short
    assert s[0] >= 3
    assert s[1] > 5          # mean length
    assert s[3] == 1.0       # http
    assert s[4] == 1.0       # C:\
    assert s[5] == 1.0       # HKEY
    assert s[6] >= 1.0       # MZ appears in the DOS header at least


def test_general_stats():
    raw = build_pe([(b".a", b"x" * 10, DATA), (b".b", b"y" * 10, DATA)],
                   pe64=True, timestamp=2 ** 30)
    pe = parse_pe(raw)
    g = extract_features(raw)[GENERAL]
    assert g[0] == np.float32(np.log1p(len(raw)))
    assert g[1] == 2.0                     # section count
    assert g[6] == 1.0                     # 64-bit flag
    assert math.isclose(float(g[7]), 0.5, rel_tol=1e-6)
    assert g[9] == np.float32(np.log1p(pe.file_alignment))


def test_section_bins_accumulate_by_name_hash():
    raw = build_pe([(b".odd", b"z" * 512, DATA)])
    vec = extract_features(raw)
    bins = vec[SECTION_BINS]
    idx = fnv1a64(b".odd") % 64
    assert bins[idx] == np.float32(np.log1p(512))
    assert np.count_nonzero(bins) == 1


def test_token_bins_case_insensitive():
    a = build_pe([(b".d", b"\x00TOKENWORD\x00" * 3, DATA)])
    b = build_pe([(b".d", b"\x00tokenword\x00" * 3, DATA)])
    va, vb = extract_features(a), extract_features(b)
    assert np.array_equal(va[TOKEN_BINS], vb[TOKEN_BINS])
    assert va[TOKEN_BINS].sum() >= 3


def test_locality_distant_edit_preserves_untouched_blocks():
    base = build_pe([(b".d", b"A" * 4096, DATA)])
    edited = build_pe([(b".d", b"A" * 4096, DATA)], overlay=b"B" * 64)
    v0, v1 = extract_features(base), extract_features(edited)
    assert not np.array_equal(v0, v1)
    assert np.array_equal(v0[SECTION_BINS], v1[SECTION_BINS])


def test_determinism():
    raw = build_pe([(b".d", bytes(range(256)) * 20, DATA)])
    assert np.array_equal(extract_features(raw), extract_features(raw))


def test_bytearray_input_gives_the_same_vector():
    raw = build_pe([(b".d", b"\x00tokenword\x00" * 40, DATA)])
    assert extract_features(bytearray(raw)).tobytes() == extract_features(raw).tobytes()


def test_feature_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    recs = [
        ("a" * 64, 1, "present-train", rng.standard_normal(DIM).astype(np.float32)),
        ("b" * 64, 0, "future", rng.standard_normal(DIM).astype(np.float32)),
    ]
    path = tmp_path / "feats.csv"
    write_feature_file(path, recs)
    lines = path.read_text().splitlines()
    assert lines[0] == "sievemal-features v1, dim=721, n=2" and len(lines) == 3
    for line, (sha, label, epoch, vec) in zip(lines[1:], recs):
        *head, values = line.split(",", 3)
        assert head == [sha, str(label), epoch]
        assert np.array_equal(np.array(values.split(","), dtype=np.float32), vec)


def test_feature_file_empty(tmp_path):
    p = tmp_path / "empty.csv"
    write_feature_file(p, [])
    assert p.read_text() == "sievemal-features v1, dim=721, n=0\n"
