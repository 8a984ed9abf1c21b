"""InjectionPlan.inject against the one-section-at-a-time oracle.

`tests/naive_pe.py` holds the sequential `inject_section` and the
`serialize_pe` that `sievemal.pe` replaced. Injecting a list of items in one
layout pass, emitted from a plan of the clean file, must give the bytes that
appending them one at a time and serializing gives, so a raw-offset shift
applied once too often or too rarely, a section of raw size zero that moves or
stops bounding the next offset, a header grown by the wrong amount, or a gap or
pad of the wrong length fails here.
"""

import dataclasses
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_pe
import sievemal.pe as pe_mod
from sievemal.errors import SectionLimitExceeded
from sievemal.pe import InjectedSections, InjectionPlan, build_pe, parse_pe, serialize_pe

EXEC = 0x60000020
DATA = 0xC0000040


def make_pe(bodies, *, pe64=False, overlay=b"", file_align=0x200, sect_align=0x1000,
            min_headers=0x400, empty_past_data=None):
    """A parsed PE with one section per body (an empty body has raw size 0).
    empty_past_data=(i, gap) moves empty section i's raw offset to gap bytes
    past the end of the section data, within the file."""
    sections = [(b".s%d" % i, body, EXEC if i == 0 else DATA) for i, body in enumerate(bodies)]
    raw = bytearray(build_pe(sections, pe64=pe64, overlay=overlay, file_align=file_align,
                             sect_align=sect_align, min_headers=min_headers))
    if empty_past_data is not None:
        i, gap = empty_past_data
        assert bodies[i] == b""
        pe = parse_pe(bytes(raw))
        data_end = max((s.raw_end() for s in pe.sections if s.raw_size), default=len(raw))
        offset = min(data_end + gap, len(raw))
        struct.pack_into("<I", raw, pe.section_table_offset() + 40 * i + 20, offset)
    return parse_pe(bytes(raw))


def items_of(sizes, seed=0):
    return [(b".i%02d" % j, bytes([(seed + j) % 251 + 1]) * n) for j, n in enumerate(sizes)]


def oracle(pe, items):
    return naive_pe.serialize_pe(naive_pe.inject_all(pe, items))


def assert_same_as_oracle(pe, items):
    """The injected file's bytes, checked against the oracle, parsed back."""
    got = InjectionPlan(pe).inject(items)
    assert got == oracle(pe, items)
    return parse_pe(got)


def outcome(fn):
    try:
        return "ok", fn()
    except (ValueError, SectionLimitExceeded) as exc:
        return type(exc), str(exc)


# --- named cases ---------------------------------------------------------------

@pytest.mark.parametrize("file_align", [1, 8])
def test_no_slack_shifts_offsets_on_the_first_injection(file_align):
    # the table ends exactly where the first section's data starts
    pe = make_pe([b"\x90" * 64, b"data" * 30], file_align=file_align, min_headers=0)
    assert pe.section_table_offset() + 40 * len(pe.sections) == pe.sections[0].raw_offset
    out = assert_same_as_oracle(pe, items_of([100]))
    assert out.sections[0].raw_offset > pe.sections[0].raw_offset


@pytest.mark.parametrize("file_align", [1, 8, 0x200])
def test_no_slack_shifts_offsets_on_many_injections(file_align):
    pe = make_pe([b"\x90" * 64], file_align=file_align, min_headers=0)
    out = assert_same_as_oracle(pe, items_of([7 * j + 1 for j in range(40)]))
    # the data moved past the grown table
    assert out.sections[0].raw_offset > pe.sections[0].raw_offset
    assert out.sections[0].raw_offset >= pe.section_table_offset() + 40 * len(out.sections)


def test_raw_size_zero_sections():
    pe = make_pe([b"\x90" * 64, b"", b"data" * 10, b""])
    assert [s.raw_size == 0 for s in pe.sections] == [False, True, False, True]
    out = assert_same_as_oracle(pe, items_of([300, 0, 5]))
    assert out.sections[1].raw_offset == pe.sections[1].raw_offset


@pytest.mark.parametrize("overlay", [b"\x01", b"tail" * 200])
def test_raw_size_zero_section_past_the_data(overlay):
    # the offset must lie within the file, so the file carries an overlay
    pe = make_pe([b"\x90" * 64, b"", b"data" * 10], overlay=overlay, min_headers=0,
                 empty_past_data=(1, 300))
    assert pe.sections[1].raw_offset > max(s.raw_end() for s in pe.sections if s.raw_size)
    out = assert_same_as_oracle(pe, items_of([40, 900, 3]))
    # the empty section stays put and the first injected data starts past it
    assert out.sections[1].raw_offset == pe.sections[1].raw_offset
    assert out.sections[3].raw_offset >= pe.sections[1].raw_offset


@pytest.mark.parametrize("bodies", [[], [b""], [b"", b""]])
@pytest.mark.parametrize("overlay", [b"", b"ov" * 50])
def test_pe_without_data_sections(bodies, overlay):
    for min_headers in (0, 0x400):
        pe = make_pe(bodies, overlay=overlay, min_headers=min_headers)
        assert not any(s.raw_size for s in pe.sections)
        assert_same_as_oracle(pe, items_of([1]))
        assert_same_as_oracle(pe, items_of([600, 0, 20, 1000] * 5))


@pytest.mark.parametrize("pe64", [False, True])
def test_pe32_and_pe32_plus(pe64):
    pe = make_pe([b"\x90" * 300, b"data" * 40], pe64=pe64)
    assert pe.is_pe64 == pe64
    assert_same_as_oracle(pe, items_of([512, 513, 1]))
    tight = make_pe([b"\x90" * 300, b"data" * 40], pe64=pe64, file_align=8, min_headers=0)
    assert_same_as_oracle(tight, items_of([512, 513, 1] * 4))


def test_overlay_is_kept():
    pe = make_pe([b"\x90" * 64, b"data" * 10], overlay=b"trailing-overlay" * 9)
    out = assert_same_as_oracle(pe, items_of([10, 2000]))
    assert out.overlay == b"trailing-overlay" * 9


@pytest.mark.parametrize("n", [1, 2, 10, 50])
def test_one_to_fifty_injections_with_empty_contents(n):
    sizes = [0 if j % 3 == 1 else 1 + 97 * j % 1500 for j in range(n)]
    for min_headers in (0, 0x400):
        pe = make_pe([b"\x90" * 64, b"data" * 10], min_headers=min_headers)
        assert_same_as_oracle(pe, items_of(sizes, seed=n))


def test_nothing_to_inject_returns_the_clean_file():
    pe = make_pe([b"\x90" * 64])
    assert InjectionPlan(pe).inject([]) == serialize_pe(pe)
    assert InjectionPlan(pe).inject(items_of([0, 0, 0])) == serialize_pe(pe)


def test_one_plan_serves_many_item_lists():
    # list a outgrows the table's slack and shifts the data, list b does not;
    # a plan reused after either must give what a fresh oracle gives
    pe = make_pe([b"\x90" * 64, b"", b"data" * 10], overlay=b"tail" * 5,
                 file_align=8)
    a, b = items_of([40, 0, 700] * 12, seed=1), items_of([300, 5], seed=2)
    plan = InjectionPlan(pe)
    shifted = parse_pe(plan.inject(a)).sections[0].raw_offset
    assert shifted > pe.sections[0].raw_offset
    for items in (a, b, items_of([0, 0]), a):
        assert plan.inject(items) == oracle(pe, items)
    assert parse_pe(plan.inject(b)).sections[0].raw_offset == pe.sections[0].raw_offset


def test_long_name_raises_as_before():
    pe = make_pe([b"\x90" * 64])
    for items in ([(b".morethan8", b"y")],
                  [(b".morethan8", b"")],                       # empty content still raises
                  items_of([5, 0, 9]) + [(b".morethan8", b"y")]):
        got = outcome(lambda: InjectionPlan(pe).inject(items))
        assert got == outcome(lambda: oracle(pe, items))
        assert got == (ValueError, "section name exceeds 8 bytes")


def test_section_limit_raises_as_before():
    pe = make_pe([b"\x90" * 64])
    # the limit reads the header's section count before the first injection
    # and the real section count after it
    for num_sections, items in ((65535, items_of([1])),
                                (65535, items_of([0, 0])),      # nothing to inject: no raise
                                (65535, [(b".morethan8", b"y")]),
                                (65534, items_of([1])),
                                (65534, items_of([0, 3, 4])),
                                (65534, items_of([2]) + [(b".morethan8", b"y")]),
                                # the limit, met first, is the error
                                (65535, items_of([1]) + [(b".morethan8", b"y")])):
        crowded = dataclasses.replace(pe, num_sections=num_sections)
        got = outcome(lambda: InjectionPlan(crowded).inject(items))
        assert got == outcome(lambda: oracle(crowded, items))
    crowded = dataclasses.replace(pe, num_sections=65535)
    assert outcome(lambda: InjectionPlan(crowded).inject(items_of([1]))) == \
        (SectionLimitExceeded, "cannot exceed 65535 sections")


def shifts(pe, items):
    """How many times appending items one at a time moves the section data."""
    moves, first = 0, pe.sections[0].raw_offset
    for name, content in items:
        pe = naive_pe.inject_section(pe, name, content)
        moves += pe.sections[0].raw_offset != first
        first = pe.sections[0].raw_offset
    return moves


@pytest.mark.parametrize("file_align, moves", [(0x200, 1), (8, 9)])
def test_the_table_grows_into_the_section_data_within_one_query(file_align, moves):
    # an alignment of 0x200 leaves slack for a dozen entries after the first
    # shift; one of 8 none, so each of the 9 non-empty items shifts the data
    pe = make_pe([b"\x90" * 64, b"data" * 30], file_align=file_align, min_headers=0)
    items = items_of([30, 0, 70] * 4 + [5])
    assert shifts(pe, items) == moves
    assert_same_as_oracle(pe, items)


@pytest.mark.parametrize("bodies", [[], [b""]])
def test_the_table_grows_into_the_first_injected_section(bodies):
    # with no section data, the first injected section starts the data, right
    # after its table entry, and the next entry pushes it back
    pe = make_pe(bodies, file_align=8, min_headers=0)
    alone = assert_same_as_oracle(pe, items_of([100]))
    out = assert_same_as_oracle(pe, items_of([100, 0, 60, 9]))
    assert out.sections[len(bodies)].raw_offset > alone.sections[len(bodies)].raw_offset


@pytest.mark.parametrize("pe64", [False, True])
@pytest.mark.parametrize("file_align", [1, 0x1000])
@pytest.mark.parametrize("bodies", [[], [b"\x90" * 64, b"", b"data" * 10]])
def test_alignments_one_and_0x1000_with_and_without_sections(pe64, file_align, bodies):
    for min_headers in (0, 0x400):
        pe = make_pe(bodies, pe64=pe64, file_align=file_align, min_headers=min_headers,
                     overlay=b"ov" * 7)
        assert_same_as_oracle(pe, items_of([0, 1, 4097, 0, 300] * 3, seed=file_align))


def test_sections_laid_out_once_serve_every_plan_of_their_alignments():
    sections = InjectedSections(items_of([40, 0, 700, 3]), 8, 0x1000)
    for bodies in ([], [b""], [b"\x90" * 64, b"data" * 10], [b"\x90" * 64, b"", b"d"]):
        for min_headers in (0, 0x400):
            pe = make_pe(bodies, file_align=8, min_headers=min_headers, overlay=b"tail")
            assert InjectionPlan(pe).emit(sections) == oracle(pe, items_of([40, 0, 700, 3]))
    with pytest.raises(ValueError, match="alignments"):
        InjectionPlan(make_pe([b"\x90" * 64])).emit(sections)


def test_errors_are_raised_before_any_byte_is_built(monkeypatch):
    def build(*args):
        raise AssertionError("bytes were built before the error")

    pe = make_pe([b"\x90" * 64])
    crowded = dataclasses.replace(pe, num_sections=65535)
    unchecked = InjectedSections(items_of([1]), pe.file_alignment, pe.section_alignment)
    # _zeros pads each kept item before its entries are packed
    monkeypatch.setattr(pe_mod, "_zeros", build)
    monkeypatch.setattr(InjectionPlan, "_layout", build)
    with pytest.raises(ValueError, match="section name exceeds 8 bytes"):
        InjectionPlan(pe).inject(items_of([5, 0, 9]) + [(b".morethan8", b"y")])
    with pytest.raises(SectionLimitExceeded):
        InjectionPlan(crowded).inject(items_of([0, 1]))
    # sections laid out with no room given meet the limit when emitted
    with pytest.raises(SectionLimitExceeded):
        InjectionPlan(crowded).emit(unchecked)


@pytest.mark.parametrize("vaddr", [0xFFFFF000, 0xFFFF0000])
def test_a_virtual_address_past_32_bits_raises_as_before(vaddr):
    # at 0xFFFF0000 the first injected section fits and a later one does not:
    # SizeOfImage, packed before the table, must fail rather than let a field
    # carry into the next
    raw = bytearray(build_pe([(b".text", b"\x90" * 64, EXEC)]))
    struct.pack_into("<I", raw, parse_pe(bytes(raw)).section_table_offset() + 12, vaddr)
    pe = parse_pe(bytes(raw))
    items = items_of([0xF000, 0x10])
    with pytest.raises(struct.error):
        oracle(pe, items)
    with pytest.raises(struct.error):
        InjectionPlan(pe).inject(items)


def test_random_plans_and_item_lists_equal_the_oracle():
    """Seeded: random build_pe files (PE32 and PE32+, tables with and without
    slack, no section data, empty sections past the data, file alignments
    1 to 0x1000) and item lists with empty contents, each list injected into
    two plans from one InjectedSections."""
    rng = random.Random(28)
    for case in range(300):
        bodies = [rng.choice([b"", rng.randbytes(rng.randint(1, 700))])
                  for _ in range(rng.randint(0, 4))]
        empty = [i for i, body in enumerate(bodies) if not body]
        overlay = rng.choice([b"", rng.randbytes(rng.randint(1, 300))])
        fa = rng.choice([1, 2, 8, 0x10, 0x200, 0x1000])
        sa = rng.choice([1, 0x200, 0x1000, 0x2000])
        sizes = [rng.choice([0, rng.randint(1, 3000)]) for _ in range(rng.randint(1, 20))]
        items = items_of(sizes, seed=case)
        sections = InjectedSections(items, fa, sa)
        for _ in range(2):
            pe = make_pe(bodies, pe64=rng.random() < 0.5, overlay=overlay, file_align=fa,
                         sect_align=sa, min_headers=rng.choice([0, 0x400]),
                         empty_past_data=((empty[-1], rng.randint(0, 700))
                                          if empty and overlay and rng.random() < 0.5 else None))
            want = oracle(pe, items)
            assert InjectionPlan(pe).inject(items) == want, case
            assert InjectionPlan(pe).emit(sections) == want, case


# --- property ----------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    bodies=st.lists(st.one_of(st.just(b""), st.binary(min_size=1, max_size=700)), max_size=4),
    sizes=st.lists(st.one_of(st.just(0), st.integers(1, 2500)), min_size=1, max_size=50),
    pe64=st.booleans(),
    overlay=st.one_of(st.just(b""), st.binary(min_size=1, max_size=300)),
    file_align=st.sampled_from([1, 3, 8, 0x200]),
    sect_align=st.sampled_from([1, 0x200, 0x1000]),
    min_headers=st.sampled_from([0, 0x400]),
    gap=st.integers(0, 700),
)
def test_inject_sections_equals_the_oracle(bodies, sizes, pe64, overlay, file_align,
                                           sect_align, min_headers, gap):
    empty = [i for i, body in enumerate(bodies) if not body]
    pe = make_pe(bodies, pe64=pe64, overlay=overlay, file_align=file_align,
                 sect_align=sect_align, min_headers=min_headers,
                 empty_past_data=(empty[-1], gap) if empty and gap % 2 else None)
    assert_same_as_oracle(pe, items_of(sizes, seed=len(sizes)))
