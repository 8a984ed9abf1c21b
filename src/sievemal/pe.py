"""Minimal PE parser/serializer with functionality-preserving section injection.

Only the header fields needed for feature extraction and section manipulation
are modeled; everything else in the header region is carried opaquely and
re-emitted verbatim, which gives byte-exact round trips for files this module
produced without implementing the full format.

build_pe assembles new files (the synthetic corpus's) and emits them through
serialize_pe, so the PE layout is written in this module alone.

Injection works on bytes: an InjectionPlan serializes the clean file once, and
each injected file is a patched copy of its header joined with slices of the
clean file and the new contents, so an attack query builds no PeFile. The
layout is closed-form: the injected sections are laid out relative to the
first of them (InjectedSections), which depends only on the items and the two
alignments, and the plan places the first one and grows its header once per
number of injected sections.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

from .errors import MalformedPe, SectionLimitExceeded

DOS_MAGIC = b"MZ"
PE_SIGNATURE = b"PE\x00\x00"
OPT_MAGIC_PE32 = 0x10B
OPT_MAGIC_PE32PLUS = 0x20B
SECTION_HEADER_SIZE = 40
# a section table entry as written: name (NUL-padded), virtual size, virtual
# address, raw size, raw offset, three zeroed relocation/line-number fields
# and the characteristics
_SECTION_ENTRY = struct.Struct("<8s8I")
MAX_SECTIONS = 65535

# section characteristic flags (subset)
IMAGE_SCN_CNT_CODE = 0x00000020
IMAGE_SCN_CNT_INITIALIZED_DATA = 0x00000040
IMAGE_SCN_MEM_EXECUTE = 0x20000000
IMAGE_SCN_MEM_READ = 0x40000000

INJECTED_SECTION_CHARACTERISTICS = IMAGE_SCN_CNT_INITIALIZED_DATA | IMAGE_SCN_MEM_READ

# COFF characteristics of every file build_pe writes: an executable image for a
# 32-bit machine
_BUILT_PE_CHARACTERISTICS = 0x0102


def align_up(value: int, alignment: int) -> int:
    if alignment <= 1:
        return value
    return (value + alignment - 1) // alignment * alignment


@dataclass(frozen=True)
class Section:
    name: bytes  # up to 8 bytes, NUL padding stripped
    virtual_size: int
    virtual_address: int
    raw_size: int
    raw_offset: int
    characteristics: int
    data: bytes

    def __post_init__(self):
        if len(self.name) > 8:
            raise ValueError("section name exceeds 8 bytes")
        if len(self.data) != self.raw_size:
            raise ValueError("section data length disagrees with raw_size")

    @property
    def is_executable(self) -> bool:
        return bool(self.characteristics & IMAGE_SCN_MEM_EXECUTE)

    def raw_end(self) -> int:
        return self.raw_offset + self.raw_size


@dataclass(frozen=True)
class PeFile:
    e_lfanew: int
    num_sections: int
    timestamp: int
    characteristics: int
    opt_magic: int
    entry_point_rva: int
    section_alignment: int
    file_alignment: int
    size_of_image: int
    sections: tuple[Section, ...]
    overlay: bytes
    # opaque header region: everything from offset 0 up to the first section's
    # raw data (or the whole file when no section carries data)
    header_blob: bytes

    @property
    def is_pe64(self) -> bool:
        return self.opt_magic == OPT_MAGIC_PE32PLUS

    def section_table_offset(self) -> int:
        size_of_opt = struct.unpack_from("<H", self.header_blob, self.e_lfanew + 20)[0]
        return self.e_lfanew + 24 + size_of_opt

    def virtual_end(self) -> int:
        end = 0
        for s in self.sections:
            end = max(end, s.virtual_address + max(s.virtual_size, s.raw_size))
        return end


def _require(cond: bool, why: str):
    if not cond:
        raise MalformedPe(why)


def parse_pe(raw: bytes) -> PeFile:
    """Parse raw bytes into a PeFile; raises MalformedPe on structural damage."""
    _require(len(raw) >= 64, "file shorter than a DOS header")
    _require(raw[:2] == DOS_MAGIC, "missing MZ magic")
    e_lfanew = struct.unpack_from("<I", raw, 0x3C)[0]
    _require(e_lfanew + 24 <= len(raw), "e_lfanew points past end of file")
    _require(raw[e_lfanew:e_lfanew + 4] == PE_SIGNATURE, "missing PE signature")

    num_sections, timestamp = struct.unpack_from("<HI", raw, e_lfanew + 6)
    size_of_opt, characteristics = struct.unpack_from("<HH", raw, e_lfanew + 20)
    opt_off = e_lfanew + 24
    _require(size_of_opt >= 64, "optional header too small")
    _require(opt_off + size_of_opt <= len(raw), "optional header truncated")

    opt_magic = struct.unpack_from("<H", raw, opt_off)[0]
    _require(opt_magic in (OPT_MAGIC_PE32, OPT_MAGIC_PE32PLUS), "unknown optional header magic")
    entry_point_rva = struct.unpack_from("<I", raw, opt_off + 16)[0]
    section_alignment, file_alignment = struct.unpack_from("<II", raw, opt_off + 32)
    _require(file_alignment >= 1, "zero file alignment")
    _require(section_alignment >= 1, "zero section alignment")
    size_of_image = struct.unpack_from("<I", raw, opt_off + 56)[0]

    table_off = opt_off + size_of_opt
    table_end = table_off + num_sections * SECTION_HEADER_SIZE
    _require(table_end <= len(raw), "section table out of bounds")

    sections = []
    for i in range(num_sections):
        off = table_off + i * SECTION_HEADER_SIZE
        name = raw[off:off + 8].rstrip(b"\x00")
        vsize, vaddr, rsize, roff = struct.unpack_from("<IIII", raw, off + 8)
        schar = struct.unpack_from("<I", raw, off + 36)[0]
        _require(roff + rsize <= len(raw), f"section {i} raw data out of bounds")
        data = raw[roff:roff + rsize]
        sections.append(Section(name, vsize, vaddr, rsize, roff, schar, data))

    # raw regions must not overlap
    spans = sorted((s.raw_offset, s.raw_end()) for s in sections if s.raw_size > 0)
    for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
        _require(a1 <= b0, "section raw data regions overlap")

    last_end = max([table_end] + [s.raw_end() for s in sections])
    data_start = min((s.raw_offset for s in sections if s.raw_size > 0), default=last_end)
    _require(data_start >= table_end, "section data overlaps the header region")
    overlay = raw[last_end:]

    return PeFile(
        e_lfanew=e_lfanew,
        num_sections=num_sections,
        timestamp=timestamp,
        characteristics=characteristics,
        opt_magic=opt_magic,
        entry_point_rva=entry_point_rva,
        section_alignment=section_alignment,
        file_alignment=file_alignment,
        size_of_image=size_of_image,
        sections=tuple(sections),
        overlay=overlay,
        header_blob=raw[:data_start],
    )


def serialize_pe(pe: PeFile) -> bytes:
    """Emit the file bytes; inverse of parse_pe for files this module produced."""
    table_off = pe.section_table_offset()
    header_end = max(len(pe.header_blob), table_off + len(pe.sections) * SECTION_HEADER_SIZE)
    last_end = max((s.raw_end() for s in pe.sections), default=0)
    out = bytearray(max(last_end, header_end))
    out[:len(pe.header_blob)] = pe.header_blob

    struct.pack_into("<H", out, pe.e_lfanew + 6, len(pe.sections))
    struct.pack_into("<I", out, pe.e_lfanew + 8, pe.timestamp)
    opt_off = pe.e_lfanew + 24
    struct.pack_into("<I", out, opt_off + 16, pe.entry_point_rva)
    struct.pack_into("<I", out, opt_off + 56, pe.size_of_image)

    for i, s in enumerate(pe.sections):
        _SECTION_ENTRY.pack_into(out, table_off + i * SECTION_HEADER_SIZE, s.name,
                                 s.virtual_size, s.virtual_address, s.raw_size,
                                 s.raw_offset, 0, 0, 0, s.characteristics)
    for s in pe.sections:
        out[s.raw_offset:s.raw_end()] = s.data
    out += pe.overlay
    return bytes(out)


def build_pe(sections, *, timestamp=0, entry_rva=0x1000, pe64=False, overlay=b"",
             file_align=0x200, sect_align=0x1000, min_headers=0x400) -> bytes:
    """Assemble a valid PE from (name, data, characteristics) section triples,
    laid out back to back after the headers and padded to the file alignment
    (names cut to 8 bytes). Only what serialize_pe does not write is built
    here: the DOS stub, the machine and optional-header fields, SizeOfHeaders
    and each section's placement."""
    e_lfanew, opt_size = 0x80, (240 if pe64 else 224)
    opt_off = e_lfanew + 24
    table_end = opt_off + opt_size + len(sections) * SECTION_HEADER_SIZE
    headers_end = align_up(max(table_end, min_headers), file_align)
    opt_magic = OPT_MAGIC_PE32PLUS if pe64 else OPT_MAGIC_PE32
    header = bytearray(headers_end)
    header[:2] = DOS_MAGIC
    struct.pack_into("<I", header, 0x3C, e_lfanew)
    struct.pack_into("<4sH", header, e_lfanew, PE_SIGNATURE, 0x8664 if pe64 else 0x14C)
    struct.pack_into("<HH", header, e_lfanew + 20, opt_size, _BUILT_PE_CHARACTERISTICS)
    struct.pack_into("<H", header, opt_off, opt_magic)
    struct.pack_into("<II", header, opt_off + 32, sect_align, file_align)
    struct.pack_into("<I", header, opt_off + 60, headers_end)  # SizeOfHeaders
    struct.pack_into("<H", header, opt_off + 68, 2)  # GUI subsystem
    struct.pack_into("<I", header, opt_off + (108 if pe64 else 92), 16)  # data directory count
    placed, raw_off, vaddr = [], headers_end, sect_align
    for name, data, schar in sections:
        raw_size = align_up(len(data), file_align)
        placed.append(Section(name[:8], len(data), vaddr, raw_size, raw_off if raw_size else 0,
                              schar, data.ljust(raw_size, b"\x00")))
        raw_off += raw_size
        vaddr = align_up(vaddr + max(len(data), 1), sect_align)
    return serialize_pe(PeFile(
        e_lfanew=e_lfanew, num_sections=len(placed), timestamp=timestamp,
        characteristics=_BUILT_PE_CHARACTERISTICS, opt_magic=opt_magic,
        entry_point_rva=entry_rva, section_alignment=sect_align, file_alignment=file_align,
        size_of_image=vaddr,  # the aligned end of the image
        sections=tuple(placed), overlay=overlay, header_blob=bytes(header)))


@functools.lru_cache(maxsize=128)
def _table_struct(k: int) -> struct.Struct:
    """The section-table entries of k sections, packed in one call."""
    return struct.Struct("<" + "8s8I" * k)


class InjectedSections:
    """The sections that one list of (name, content) items injects, laid out
    for a file and section alignment but not yet for a file.

    Once the first injected section is placed, each next one starts where the
    one before it ends: its raw offset is the first one's plus the raw sizes
    before it, and its virtual address the first one's plus those raw sizes
    aligned to the section alignment (InjectionPlan._layout says why). So
    everything but the first placement is worked out here, once, relative to
    it:

    - `count`, the number of non-empty items (empty contents are skipped);
    - `table`, their section-table entries, packed with raw offsets and
      virtual addresses relative to the first section's, read as one
      little-endian integer;
    - `image`, SizeOfImage less the first section's virtual address;
    - `parts`, each content and the zero padding to its raw size, in order.

    The contents are held as given, so memoryviews stay views. The names are
    checked in item order, and given `room` (how many sections a file can
    take, InjectionPlan.room) so is the section limit, before anything is
    laid out; InjectionPlan.emit checks the limit for sections made without
    it.
    """

    __slots__ = ("alignments", "count", "table", "image", "parts")

    def __init__(self, items, file_alignment: int, section_alignment: int, room=None):
        self.alignments = (file_alignment, section_alignment)
        kept = []
        for name, content in items:
            if len(name) > 8:
                raise ValueError("section name exceeds 8 bytes")
            if len(content):
                if len(kept) == room:
                    raise SectionLimitExceeded(f"cannot exceed {MAX_SECTIONS} sections")
                kept.append((name, content))
        # align_up(x, a) is written out as -(-x // a) * a: the items of every
        # query of the attack's one-off searches are laid out here
        fa, sa = file_alignment, section_alignment
        fields, parts = [], []
        offset = vaddr = end = 0
        for name, content in kept:
            size = len(content)
            raw_size = -(-size // fa) * fa
            fields += (name, size, vaddr, raw_size, offset, 0, 0, 0,
                       INJECTED_SECTION_CHARACTERISTICS)
            parts += (content, _zeros(raw_size - size))
            end = vaddr + size
            offset += raw_size
            vaddr += -(-raw_size // sa) * sa
        self.count = len(kept)
        self.table = int.from_bytes(_table_struct(len(kept)).pack(*fields), "little")
        self.image = -(-end // sa) * sa
        self.parts = tuple(parts)


@functools.lru_cache(maxsize=None)
def _short_zeros(n: int) -> bytes:
    return bytes(n)


def _zeros(n: int) -> bytes:
    """n zero bytes. A padding is shorter than the file alignment, so below
    1 KiB (the usual alignment is 512) one object per length serves every
    padding of that length, whatever laid it out."""
    return _short_zeros(n) if n < 0x400 else bytes(n)


@dataclass(frozen=True, slots=True)
class _Layout:
    """Where an InjectionPlan puts k injected sections."""
    header: bytes   # grown for their entries; its section count and data offsets patched
    slot: int       # where their first table entry starts
    gap: bytes      # the zeros between the clean section data and the first of them
    vaddr: int      # the first one's virtual address
    fields: int     # offset and vaddr in each of the k entries: added to InjectedSections.table


class InjectionPlan:
    """A clean PeFile, serialized once, from which any list of injected
    sections is emitted as bytes.

    The clean file is kept as three slices: the header region (everything
    before the first section's raw data), the section-data region and the
    overlay. An injected file is a patched copy of the header joined with the
    clean data region, a zero gap, the injected contents with their padding,
    and the overlay. No PeFile or Section is built per call, and the bytes
    are those that serializing the injected PeFile gives.

    Every file `emit` gives holds the section-data region and the overlay of
    `clean` verbatim, and is no shorter than `clean`; `kept` names those two
    spans of `clean` as (start, end) pairs. The header region is not one of
    them: its table and counts are patched.

    pe is a PeFile as parse_pe returns it: its header blob holds the section
    table and ends where the first section's raw data starts.
    """

    def __init__(self, pe: PeFile):
        data = [(i, s) for i, s in enumerate(pe.sections) if s.raw_size > 0]
        self.clean = serialize_pe(pe)
        self.e_lfanew = pe.e_lfanew
        self.alignments = (pe.file_alignment, pe.section_alignment)
        self.table_off = pe.section_table_offset()
        self.n_sections = len(pe.sections)
        # how many sections may be injected: the limit reads the header's
        # section count before the first injection and the real count after it
        self.room = (0 if pe.num_sections >= MAX_SECTIONS
                     else max(1, MAX_SECTIONS - self.n_sections))
        self.header_len = len(pe.header_blob)
        self.data_start = min((s.raw_offset for _, s in data), default=None)
        self.data_end = max((s.raw_end() for _, s in data), default=-1)
        self.empty_end = max((s.raw_offset for s in pe.sections if s.raw_size == 0),
                             default=-1)
        self.virtual_end = pe.virtual_end()
        # where each data section's raw offset sits in the table, and its value
        self.offset_slots = tuple((self.table_off + i * SECTION_HEADER_SIZE + 20, s.raw_offset)
                                  for i, s in data)
        body_end = self.data_end if data else self.header_len
        self.header = self.clean[:self.header_len]
        self.body = self.clean[self.header_len:body_end]
        self.overlay = self.clean[len(self.clean) - len(pe.overlay):]
        self.kept = ((self.header_len, body_end),
                     (len(self.clean) - len(pe.overlay), len(self.clean)))
        self._layouts = {}

    def inject(self, items) -> bytes:
        """The file with one non-executable section appended per (name,
        content) item, in order: emit(InjectedSections(items, ...)).

        Existing section data, the entry point, and the overlay are
        preserved; empty contents are skipped, and with nothing to inject the
        clean file is returned. Each time the section table runs out of slack
        before the first section's raw data, every raw offset of a section
        with data is shifted by the file-aligned shortfall (data untouched,
        offsets move).
        """
        return self.emit(InjectedSections(items, *self.alignments, self.room))

    def emit(self, sections: InjectedSections) -> bytes:
        """The file with sections injected, laid out for this plan's file and
        section alignments."""
        if sections.alignments != self.alignments:
            raise ValueError(f"sections laid out for alignments {sections.alignments}, "
                             f"not the file's {self.alignments}")
        k = sections.count
        if not k:
            return self.clean
        if k > self.room:
            raise SectionLimitExceeded(f"cannot exceed {MAX_SECTIONS} sections")
        layout = self._layouts.get(k) or self._layout(k)
        head = bytearray(layout.header)
        # SizeOfImage, where serialize_pe writes it. As it packs, every
        # injected virtual address is below 2**32, and every raw offset is
        # below the file's length (a PE is under 4 GiB), so the addition
        # below carries no table field into the next
        struct.pack_into("<I", head, self.e_lfanew + 24 + 56, layout.vaddr + sections.image)
        head[layout.slot:layout.slot + k * SECTION_HEADER_SIZE] = (
            sections.table + layout.fields).to_bytes(k * SECTION_HEADER_SIZE, "little")
        return b"".join([head, self.body, layout.gap, *sections.parts, self.overlay])

    def _layout(self, k: int) -> _Layout:
        """The placement of k injected sections, in closed form.

        Appending the sections one at a time, section j's table entry ends at
        table_end(j) = table_off + (n_sections + j) * 40. Whenever that passes
        the first data section's raw offset, every data section, injected
        ones included, moves by the file-aligned shortfall, so after k
        sections the total shift is the least multiple of the file alignment
        that keeps table_end(k) at or before that offset. Only the first
        section's placement reads the clean file's data end, its sections of
        raw size zero (which never move, but bound where new data may start)
        and the table end; each later section starts at the aligned end of
        the one before it, which is past all three. Likewise the first
        section's virtual address is the clean file's aligned virtual end, and
        each later one is the aligned end of the one before it.
        """
        fa, sa = self.alignments
        first_table_end = self.table_off + (self.n_sections + 1) * SECTION_HEADER_SIZE
        table_end = self.table_off + (self.n_sections + k) * SECTION_HEADER_SIZE
        if self.data_start is None:
            # the header grows to the first entry; the first section's data
            # then starts the section data that later entries shift
            header_len = max(self.header_len, first_table_end)
            start = max(self.empty_end, first_table_end) if self.n_sections else header_len
            data_start = offset = align_up(start, fa)
        else:
            header_len = self.header_len
            data_start = self.data_start
            first_shift = align_up(max(0, first_table_end - data_start), fa)
            offset = align_up(max(self.data_end + first_shift, self.empty_end, first_table_end),
                              fa) - first_shift
        shift = align_up(max(0, table_end - data_start), fa)
        header_len += shift
        offset += shift
        vaddr = align_up(max(self.virtual_end, sa), sa)
        head = bytearray(self.header)
        head += bytes(max(header_len, table_end) - len(head))
        # NumberOfSections, where serialize_pe writes it
        struct.pack_into("<H", head, self.e_lfanew + 6, self.n_sections + k)
        for slot, raw_offset in self.offset_slots:
            struct.pack_into("<I", head, slot, raw_offset + shift)
        entry = _SECTION_ENTRY.pack(b"", 0, vaddr, 0, offset, 0, 0, 0, 0)
        layout = _Layout(
            header=bytes(head), slot=self.table_off + self.n_sections * SECTION_HEADER_SIZE,
            gap=bytes(offset - len(head) - len(self.body)), vaddr=vaddr,
            fields=int.from_bytes(entry * k, "little"))
        self._layouts[k] = layout
        return layout


def inject_section(pe: PeFile, name: bytes, content: bytes) -> bytes:
    """The bytes of pe with one non-executable section holding `content`
    appended: InjectionPlan(pe).inject with a single item."""
    return InjectionPlan(pe).inject(((name, content),))
