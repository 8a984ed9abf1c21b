import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievemal.errors import MalformedPe, SectionLimitExceeded
from sievemal.pe import InjectionPlan, align_up, build_pe, inject_section, parse_pe, serialize_pe

EXEC = 0x60000020
DATA = 0xC0000040


def simple_pe(**kw):
    return build_pe(
        [(b".text", b"\x90" * 300, EXEC), (b".data", b"payload" * 40, DATA)], **kw)


def test_align_up():
    assert align_up(0, 512) == 0
    assert align_up(1, 512) == 512
    assert align_up(512, 512) == 512
    assert align_up(513, 512) == 1024
    assert align_up(7, 1) == 7


@pytest.mark.parametrize("pe64", [False, True])
@pytest.mark.parametrize("overlay", [b"", b"trailing-overlay-bytes"])
def test_round_trip_is_byte_identical(pe64, overlay):
    raw = simple_pe(pe64=pe64, overlay=overlay)
    assert serialize_pe(parse_pe(raw)) == raw


@pytest.mark.parametrize("sections", [[], [(b".bss", b"", DATA)]], ids=["none", "bss"])
def test_round_trip_without_section_data_keeps_overlay_once(sections):
    raw = build_pe(sections, overlay=b"ov" * 50)
    assert len(raw) == 1124
    once = serialize_pe(parse_pe(raw))
    assert once == raw
    assert serialize_pe(parse_pe(once)) == raw


def test_parse_reads_section_table():
    raw = simple_pe(timestamp=123456, entry_rva=0x1000)
    pe = parse_pe(raw)
    assert pe.num_sections == 2
    assert [s.name for s in pe.sections] == [b".text", b".data"]
    assert pe.sections[0].data.startswith(b"\x90" * 300)
    assert pe.sections[1].data.startswith(b"payload")
    assert pe.timestamp == 123456
    assert pe.entry_point_rva == 0x1000
    assert not pe.is_pe64
    assert pe.overlay == b""


def test_parse_overlay_preserved():
    raw = simple_pe(overlay=b"\x01\x02\x03")
    pe = parse_pe(raw)
    assert pe.overlay == b"\x01\x02\x03"
    assert serialize_pe(pe) == raw


@pytest.mark.parametrize("mangle,why", [
    (lambda r: r[:40], "truncated"),
    (lambda r: b"ZM" + r[2:], "bad DOS magic"),
    (lambda r: r[:0x80] + b"XX" + r[0x82:], "bad PE signature"),
    (lambda r: r[:0x98] + b"\xff\xff" + r[0x9a:], "bad optional magic"),
])
def test_malformed_inputs_rejected(mangle, why):
    raw = simple_pe()
    with pytest.raises(MalformedPe):
        parse_pe(mangle(raw))


def test_overlapping_sections_rejected():
    raw = bytearray(simple_pe())
    pe = parse_pe(bytes(raw))
    table = pe.section_table_offset()
    # point the second section's raw data into the first one's region
    struct.pack_into("<I", raw, table + 40 + 20, pe.sections[0].raw_offset + 1)
    with pytest.raises(MalformedPe):
        parse_pe(bytes(raw))


def test_inject_empty_content_is_noop():
    pe = parse_pe(simple_pe())
    assert inject_section(pe, b".x", b"") == serialize_pe(pe)


def test_inject_appends_readable_data_section():
    raw = simple_pe(overlay=b"tail")
    pe = parse_pe(raw)
    out = inject_section(pe, b".inj", b"A" * 100)
    pe2 = parse_pe(out)
    assert pe2.num_sections == 3
    inj = pe2.sections[-1]
    assert inj.name == b".inj"
    assert inj.data[:100] == b"A" * 100
    assert set(inj.data[100:]) <= {0}
    assert not inj.is_executable
    assert inj.raw_size % pe.file_alignment == 0
    assert inj.virtual_address % pe.section_alignment == 0
    assert inj.virtual_address >= pe.virtual_end()
    # everything that was there before is still there
    assert pe2.entry_point_rva == pe.entry_point_rva
    assert [s.data for s in pe2.sections[:2]] == [s.data for s in pe.sections]
    assert pe2.overlay == b"tail"
    assert pe2.size_of_image >= pe.size_of_image


def test_inject_many_sections_shifts_raw_data():
    # tight header: the table fills up and raw offsets must move
    raw = build_pe([(b".text", b"\x90" * 64, EXEC)], min_headers=0x200)
    pe = parse_pe(raw)
    original = pe.sections[0].data
    items = [(b".s%02d" % i, bytes([i]) * (i + 1)) for i in range(50)]
    for name, content in items:
        pe = parse_pe(inject_section(pe, name, content))
    out = serialize_pe(pe)
    assert out == InjectionPlan(parse_pe(raw)).inject(items)
    pe2 = parse_pe(out)
    assert pe2.num_sections == 51
    assert pe2.sections[0].data == original
    for i, s in enumerate(pe2.sections[1:]):
        assert s.data[:i + 1] == bytes([i]) * (i + 1)
    offs = [s.raw_offset for s in pe2.sections]
    assert offs == sorted(offs)


def test_inject_respects_section_limit():
    pe = parse_pe(simple_pe())
    crowded = dataclasses.replace(pe, num_sections=65535)
    with pytest.raises(SectionLimitExceeded):
        inject_section(crowded, b".x", b"y")


def test_inject_rejects_long_name():
    pe = parse_pe(simple_pe())
    with pytest.raises(ValueError):
        inject_section(pe, b".morethan8", b"y")


@settings(max_examples=40, deadline=None)
@given(
    blobs=st.lists(st.binary(min_size=1, max_size=600), min_size=1, max_size=4),
    pe64=st.booleans(),
    overlay=st.binary(max_size=64),
)
def test_round_trip_property(blobs, pe64, overlay):
    sections = [(b".s%d" % i, blob, DATA) for i, blob in enumerate(blobs)]
    raw = build_pe(sections, pe64=pe64, overlay=overlay)
    assert serialize_pe(parse_pe(raw)) == raw


@settings(max_examples=25, deadline=None)
@given(content=st.binary(min_size=1, max_size=2000), data=st.data())
def test_injected_content_survives_reserialization(content, data):
    raw = simple_pe()
    pe2 = parse_pe(inject_section(parse_pe(raw), b".h", content))
    assert pe2.sections[-1].data[:len(content)] == content
