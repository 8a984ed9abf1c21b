"""Minimal PE parser/serializer with functionality-preserving section injection.

Only the header fields needed for feature extraction and section manipulation
are modeled; everything else in the header region is carried opaquely and
re-emitted verbatim, which gives byte-exact round trips for files this module
produced without implementing the full format.

build_pe assembles new files (the synthetic corpus's) and emits them through
serialize_pe, so the PE layout is written in this module alone.

Injection works on bytes: an InjectionPlan serializes the clean file once, and
each injected layout is a patched copy of its header joined with slices of the
clean file and the new contents, so an attack query builds no PeFile.
"""

from __future__ import annotations

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


class InjectionPlan:
    """A clean PeFile, serialized once, from which any list of injected
    sections is emitted as bytes.

    The clean file is kept as three slices: the header region (everything
    before the first section's raw data), the section-data region and the
    overlay, next to the integers the layout pass starts from. Each call to
    `inject` works out the layout and joins a patched copy of the header, the
    clean data region, the injected contents with their zero gaps and padding,
    and the overlay. No PeFile or Section is built per call, and the bytes
    are those that serializing the injected PeFile gives.

    Every file `inject` emits holds the section-data region and the overlay
    of `clean` verbatim, and is no shorter than `clean`; `kept` names those
    two spans of `clean` as (start, end) pairs. The header region is not one
    of them: its table and counts are patched.

    pe is a PeFile as parse_pe returns it: its header blob holds the section
    table and ends where the first section's raw data starts.
    """

    def __init__(self, pe: PeFile):
        data = [(i, s) for i, s in enumerate(pe.sections) if s.raw_size > 0]
        self.clean = serialize_pe(pe)
        self.e_lfanew = pe.e_lfanew
        self.file_alignment = pe.file_alignment
        self.section_alignment = pe.section_alignment
        self.table_off = pe.section_table_offset()
        self.n_sections = len(pe.sections)
        self.count = pe.num_sections              # what the section limit sees
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

    def inject(self, items) -> bytes:
        """The file with one non-executable section appended per (name,
        content) item, in order.

        Existing section data, the entry point, and the overlay are
        preserved; empty contents are skipped, and with nothing to inject the
        clean file is returned. Each time the section table runs out of slack
        before the first section's raw data, every raw offset of a section
        with data is shifted by the file-aligned shortfall (data untouched,
        offsets move).

        The layout is the one that appending the items one at a time gives,
        worked out in a single pass over integers: a shift moves every data
        section, injected ones included, by the same amount, so an injected
        section's offset is kept relative to the shift so far and made
        absolute at the end. A section of raw size zero never moves, and its
        offset still bounds where the next section's data may start.
        """
        fa, sa = self.file_alignment, self.section_alignment
        table_off = self.table_off
        n_sections = self.n_sections
        count = self.count
        header_len = self.header_len
        data_start, data_end, empty_end = self.data_start, self.data_end, self.empty_end
        virtual_end = self.virtual_end
        shift = 0
        placed = []                               # (name, content, raw_size, offset - shift, vaddr)
        # align_up(x, a) is written out as -(-x // a) * a: this loop runs once
        # per injected section of every attack query
        for name, content in items:
            if len(name) > 8:
                raise ValueError("section name exceeds 8 bytes")
            size = len(content)
            if not size:
                continue
            if count >= MAX_SECTIONS:
                raise SectionLimitExceeded(f"cannot exceed {MAX_SECTIONS} sections")
            table_end = table_off + (n_sections + 1) * SECTION_HEADER_SIZE
            if data_start is None:
                if table_end > header_len:
                    header_len = table_end
            elif table_end > data_start:
                step = -((data_start - table_end) // fa) * fa
                shift += step
                data_start += step
                data_end += step
                header_len += step
            if n_sections:
                start = data_end if data_end > empty_end else empty_end
            else:
                start = header_len
            if table_end > start:
                start = table_end
            raw_offset = -(-start // fa) * fa
            raw_size = -(-size // fa) * fa
            vaddr = -(-(virtual_end if virtual_end > sa else sa) // sa) * sa
            placed.append((name, content, raw_size, raw_offset - shift, vaddr))
            if data_start is None:
                data_start = raw_offset
            data_end = raw_offset + raw_size
            virtual_end = vaddr + raw_size
            n_sections += 1
            count = n_sections
        if not placed:
            return self.clean
        _, content, _, _, vaddr = placed[-1]
        size_of_image = align_up(vaddr + len(content), sa)

        # the header grows by the shift (or, with no section data, to the new
        # table) and the table grows into it; the clean data region follows
        # it, and each injected section starts at its offset after a zero gap
        # and is padded to its raw size
        head = bytearray(self.header)
        head += bytes(max(header_len, table_off + n_sections * SECTION_HEADER_SIZE) - len(head))
        # NumberOfSections and SizeOfImage, where serialize_pe writes them
        struct.pack_into("<H", head, self.e_lfanew + 6, n_sections)
        struct.pack_into("<I", head, self.e_lfanew + 24 + 56, size_of_image)
        if shift:
            for slot, raw_offset in self.offset_slots:
                struct.pack_into("<I", head, slot, raw_offset + shift)
        parts = [head, self.body]
        end = len(head) + len(self.body)
        slot = table_off + self.n_sections * SECTION_HEADER_SIZE
        for name, content, raw_size, offset, vaddr in placed:
            offset += shift
            _SECTION_ENTRY.pack_into(head, slot, name, len(content), vaddr, raw_size, offset,
                                     0, 0, 0, INJECTED_SECTION_CHARACTERISTICS)
            slot += SECTION_HEADER_SIZE
            parts.append(bytes(offset - end))
            parts.append(content)
            end = offset + len(content)
        parts.append(bytes(raw_size - len(content)))
        parts.append(self.overlay)
        return b"".join(parts)


def inject_section(pe: PeFile, name: bytes, content: bytes) -> bytes:
    """The bytes of pe with one non-executable section holding `content`
    appended: InjectionPlan(pe).inject with a single item."""
    return InjectionPlan(pe).inject(((name, content),))
