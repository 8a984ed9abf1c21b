"""extract_features and the feature-file writer against the naive oracle.

`tests/naive_features.py` holds the per-window entropy loop, the regex string
scan, the 64-bit FNV-1a section and token loops and the one-repr-per-value row
format that `sievemal.features` replaced. Vectors must be bit-identical as
float32 bytes and rows must be the same text, so a changed entropy bin at an
edge, a string cut in the wrong place, a stale memoized token bin or a lost
zero sign fails here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_features
from sievemal import features
from sievemal.features import DIM, ENTROPY, STRINGS, extract_features, write_feature_file
from sievemal.pe import build_pe

DATA = 0xC0000040
NON_PRINTABLE = bytes(b for b in range(256) if not 0x20 <= b <= 0x7E)


def pe_file(body: bytes, length: int | None = None) -> bytes:
    """A one-section PE holding body; with length, the first 256 body bytes
    and then the body repeated as overlay up to exactly length bytes."""
    if length is None:
        return build_pe([(b".d", body, DATA)])
    raw = build_pe([(b".d", body[:256], DATA)])
    fill = (body or b"\x00") * (length // max(len(body), 1) + 1)
    return raw + fill[:length - len(raw)]


def assert_same_vector(raw: bytes) -> np.ndarray:
    vec = extract_features(raw)
    assert vec.tobytes() == naive_features.extract_features(raw).tobytes()
    return vec


def test_unit_corpus_vectors_are_identical(unit_corpus):
    assert len(unit_corpus.records) > 100
    raws = []
    for rec in unit_corpus.records:
        with open(rec.path, "rb") as fh:
            raws.append(fh.read())
    features._token_memo.clear()
    for _ in range(2):  # with a cold and then a warm token memo
        for raw in raws:
            assert_same_vector(raw)


class SizeRecordingDict(dict):
    peak = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))


def test_token_memo_stays_within_its_bound(monkeypatch):
    bound = features._TOKEN_MEMO_SIZE
    memo = SizeRecordingDict()
    monkeypatch.setattr(features, "_token_memo", memo)
    words = [b"tok%05d" % i for i in range(bound * 3 // 2)]
    raw = pe_file(b"\x00".join(words + words[:50]))
    assert assert_same_vector(raw)[STRINGS][0] == len(words) + 50
    assert memo.peak == bound and 0 < len(memo) <= bound


def test_token_memo_keys_each_case_and_shares_the_bin():
    features._token_memo.clear()
    assert_same_vector(pe_file(b"\x00KERNEL32.DLL\x00kernel32.dll\x00"))
    memo = features._token_memo
    assert set(memo) == {b"KERNEL32.DLL", b"kernel32.dll"}
    assert memo[b"KERNEL32.DLL"] == memo[b"kernel32.dll"] == (
        naive_features.fnv1a64(b"kernel32.dll") % 128)


@pytest.mark.parametrize("bits", range(9))
def test_windows_of_equally_frequent_values_sit_on_a_bin_edge(bits):
    # the section starts at 1024 and the period 2**bits divides 1024, so every
    # window inside the body holds 2**bits values 2048 / 2**bits times each:
    # exactly `bits` bits of entropy, the edge below bin 2 * bits
    vec = assert_same_vector(pe_file(bytes(range(2 ** bits)) * (4096 >> bits)))
    assert vec[ENTROPY].reshape(16, 16)[min(2 * bits, 15)].sum() > 0


def token_text():
    word = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ._:\\/abcxyz",
                   min_size=1, max_size=40)
    sep = st.sampled_from([b"\x00", b"\x00\x00\x00", b"\n", b"\xff"])
    return st.lists(st.tuples(word, sep), max_size=80).map(
        lambda pairs: b"".join(w.encode() + s for w, s in pairs))


BODIES = st.one_of(
    st.binary(max_size=6000),
    token_text(),
    st.builds(lambda b, n: bytes([b]) * n, st.integers(0x20, 0x7E), st.integers(5, 5000)),
    st.builds(lambda a, b: bytes([a, b]) * 1024, st.integers(0, 255), st.integers(0, 255)),
    st.binary(max_size=4000).map(lambda b: b.translate(None, bytes(range(0x20, 0x7F)))),
)


@given(body=BODIES, length=st.sampled_from([None, 2047, 2048, 3071, 3072]))
@settings(max_examples=150, deadline=None)
def test_hypothesis_bodies_are_identical(body, length):
    raw = pe_file(body, length)
    assert length is None or len(raw) == length
    assert_same_vector(raw)


@pytest.mark.parametrize("length", [2047, 2048, 3071, 3072])
def test_window_boundary_lengths(length):
    rng = np.random.default_rng(length)
    raw = pe_file(rng.integers(0, 256, 4096, dtype=np.uint8).tobytes(), length)
    assert len(raw) == length
    planes = assert_same_vector(raw)[ENTROPY].reshape(16, 16)
    assert (planes.sum() > 0) == (length >= 2048)


def test_two_values_1024_times_sit_on_a_bin_edge():
    # the section starts at 1024, so the window [1024, 3072) holds exactly
    # 1024 of each value: entropy 1.0 bit, the edge between bins 1 and 2
    vec = assert_same_vector(pe_file(b"\x11\xee" * 1024))
    assert vec[ENTROPY].reshape(16, 16)[2].sum() > 0


def test_one_repeated_printable_byte_gives_negative_zero_entropy():
    vec = assert_same_vector(pe_file(b"Q" * 3000))
    assert vec[STRINGS][0] == 1 and vec[STRINGS][2] == 0 and np.signbit(vec[STRINGS][2])


def test_uppercase_tokens_and_no_printable_run():
    tokens = b"\x00".join([b"KERNEL32.DLL", b"GetProcAddress", b"HKEY_LOCAL_MACHINE"] * 20)
    assert assert_same_vector(pe_file(tokens))[STRINGS][0] == 60
    assert assert_same_vector(pe_file(NON_PRINTABLE * 8))[STRINGS][0] == 0


def test_writer_rows_match_one_repr_per_value(tmp_path):
    f32 = np.finfo(np.float32)
    special = [-0.0, 0.0, f32.smallest_subnormal, -f32.smallest_subnormal, 1e-40,
               f32.tiny, f32.max, -f32.max, np.inf, -np.inf, np.nan, 1 / 3, 0.1]
    rng = np.random.default_rng(5)
    sparse = np.zeros(DIM)
    sparse[rng.choice(DIM, 40, replace=False)] = rng.choice([-0.0, 1.5, 1e-42], 40)
    rows = [
        np.resize(np.array(special), DIM),
        rng.standard_normal(DIM),
        sparse,
        extract_features(pe_file(b"\x00tokenword\x00" * 40)),
    ]
    path = tmp_path / "feats.csv"
    write_feature_file(path, [(f"{i:064x}", i % 2, "future", row) for i, row in enumerate(rows)])
    lines = path.read_text().splitlines()[1:]
    assert [line.split(",", 3)[3] for line in lines] == [
        naive_features.format_row(row) for row in rows]
    assert lines[0].split(",", 3)[3].startswith("-0.0,0.0,1.401298464324817e-45,")
