"""Reference section injection used as the exactness oracle.

One section per call: every call rebuilds the frozen PeFile and rescans all
sections for the first raw offset, the last raw end and the virtual end. This
is the code that `sievemal.pe.InjectionPlan` replaced; appending the items
one at a time with `inject_section` here and emitting the result with
`serialize_pe` here must give the bytes of
`sievemal.pe.InjectionPlan(pe).inject(items)`. The PeFile and Section
types, `align_up` and the constants are shared with `sievemal.pe`, because
they did not change.

`build_pe` is the generator's PE writer as it stood when it packed its own
COFF header, optional header and section table; `sievemal.pe.build_pe`, which
emits through `serialize_pe`, must give its bytes for the same arguments.
"""

import struct
from dataclasses import replace

from sievemal.errors import SectionLimitExceeded
from sievemal.pe import (
    INJECTED_SECTION_CHARACTERISTICS,
    MAX_SECTIONS,
    SECTION_HEADER_SIZE,
    PeFile,
    Section,
    align_up,
)


def serialize_pe(pe: PeFile) -> bytes:
    table_off = pe.section_table_offset()
    table_end = table_off + len(pe.sections) * SECTION_HEADER_SIZE
    header = bytearray(pe.header_blob)
    if len(header) < table_end:
        header.extend(b"\x00" * (table_end - len(header)))

    struct.pack_into("<H", header, pe.e_lfanew + 6, len(pe.sections))
    struct.pack_into("<I", header, pe.e_lfanew + 8, pe.timestamp)
    opt_off = pe.e_lfanew + 24
    struct.pack_into("<I", header, opt_off + 16, pe.entry_point_rva)
    struct.pack_into("<I", header, opt_off + 56, pe.size_of_image)

    for i, s in enumerate(pe.sections):
        off = table_off + i * SECTION_HEADER_SIZE
        header[off:off + 8] = s.name.ljust(8, b"\x00")
        struct.pack_into("<IIII", header, off + 8, s.virtual_size, s.virtual_address,
                         s.raw_size, s.raw_offset)
        struct.pack_into("<III", header, off + 24, 0, 0, 0)
        struct.pack_into("<I", header, off + 36, s.characteristics)

    last_end = max((s.raw_end() for s in pe.sections), default=len(header))
    out = bytearray(max(last_end, len(header)))
    out[:len(header)] = header
    for s in pe.sections:
        out[s.raw_offset:s.raw_end()] = s.data
    out.extend(pe.overlay)
    return bytes(out)


def inject_section(pe: PeFile, name: bytes, content: bytes) -> PeFile:
    if len(name) > 8:
        raise ValueError("section name exceeds 8 bytes")
    if len(content) == 0:
        return pe
    if pe.num_sections + 1 > MAX_SECTIONS:
        raise SectionLimitExceeded(f"cannot exceed {MAX_SECTIONS} sections")

    table_off = pe.section_table_offset()
    new_table_end = table_off + (len(pe.sections) + 1) * SECTION_HEADER_SIZE
    sections = list(pe.sections)
    header_blob = pe.header_blob

    data_start = min((s.raw_offset for s in sections if s.raw_size > 0), default=None)
    if data_start is not None and new_table_end > data_start:
        shift = align_up(new_table_end - data_start, pe.file_alignment)
        sections = [replace(s, raw_offset=s.raw_offset + shift) if s.raw_size > 0 else s
                    for s in sections]
        header_blob = header_blob + b"\x00" * shift
    elif data_start is None and new_table_end > len(header_blob):
        header_blob = header_blob + b"\x00" * (new_table_end - len(header_blob))

    raw_size = align_up(len(content), pe.file_alignment)
    data = content.ljust(raw_size, b"\x00")
    last_raw_end = max((s.raw_end() for s in sections), default=len(header_blob))
    raw_offset = align_up(max(last_raw_end, new_table_end), pe.file_alignment)
    vaddr = align_up(max(pe.virtual_end(), pe.section_alignment), pe.section_alignment)

    new_section = Section(
        name=name,
        virtual_size=len(content),
        virtual_address=vaddr,
        raw_size=raw_size,
        raw_offset=raw_offset,
        characteristics=INJECTED_SECTION_CHARACTERISTICS,
        data=data,
    )
    sections.append(new_section)
    size_of_image = align_up(vaddr + len(content), pe.section_alignment)

    return replace(
        pe,
        num_sections=len(sections),
        sections=tuple(sections),
        size_of_image=size_of_image,
        header_blob=header_blob,
    )


def inject_all(pe: PeFile, items) -> PeFile:
    """The items appended one inject_section call at a time."""
    for name, content in items:
        pe = inject_section(pe, name, content)
    return pe


def build_pe(sections, *, timestamp=0, entry_rva=0x1000, pe64=False,
             overlay=b"", file_align=0x200, sect_align=0x1000,
             characteristics=0x0102, min_headers=0x400) -> bytes:
    """Assemble a valid PE from (name, data, characteristics) section triples."""
    e_lfanew = 0x80
    opt_size = 240 if pe64 else 224
    table_off = e_lfanew + 24
    table_end = table_off + opt_size + len(sections) * 40
    headers_end = align_up(max(table_end, min_headers), file_align)

    dos = bytearray(e_lfanew)
    dos[0:2] = b"MZ"
    struct.pack_into("<I", dos, 0x3C, e_lfanew)

    coff = struct.pack("<4sHHIIIHH", b"PE\x00\x00",
                       0x8664 if pe64 else 0x14C, len(sections), timestamp,
                       0, 0, opt_size, characteristics)

    opt = bytearray(opt_size)
    struct.pack_into("<H", opt, 0, 0x20B if pe64 else 0x10B)
    struct.pack_into("<I", opt, 16, entry_rva)
    struct.pack_into("<II", opt, 32, sect_align, file_align)
    struct.pack_into("<H", opt, 68, 2)  # GUI subsystem
    struct.pack_into("<I", opt, 108 if pe64 else 92, 16)  # data directory count

    table = bytearray()
    blobs = []
    raw_off = headers_end
    vaddr = sect_align
    for name, data, schar in sections:
        raw_size = align_up(len(data), file_align)
        vsize = len(data) if data else raw_size
        entry = bytearray(40)
        entry[0:8] = name[:8].ljust(8, b"\x00")
        struct.pack_into("<IIII", entry, 8, vsize, vaddr, raw_size, raw_off if raw_size else 0)
        struct.pack_into("<I", entry, 36, schar)
        table += entry
        blobs.append((raw_off, data.ljust(raw_size, b"\x00")))
        raw_off += raw_size
        vaddr = align_up(vaddr + max(vsize, 1), sect_align)

    struct.pack_into("<I", opt, 56, align_up(vaddr, sect_align))  # size_of_image
    struct.pack_into("<I", opt, 60, headers_end)

    out = bytearray(headers_end)
    out[:e_lfanew] = dos
    out[e_lfanew:e_lfanew + len(coff)] = coff
    out[e_lfanew + 24:e_lfanew + 24 + opt_size] = opt
    out[table_off + opt_size:table_off + opt_size + len(table)] = table
    for off, blob in blobs:
        out[off:off + len(blob)] = blob
    out += overlay
    return bytes(out)
