"""build_pe against the PE writer it replaced.

`tests/naive_pe.py` holds the generator's old `build_pe`, which packed its own
COFF header, optional header and section table. `sievemal.pe.build_pe` builds
only the header fields that `serialize_pe` does not write and emits through
it, so a field that moved, a section entry packed differently, a raw offset
given to an empty section, a name cut or padded another way, or a virtual
address rounded differently fails here on a byte comparison.
"""

import itertools

import numpy as np
import pytest

import naive_pe
from sievemal.pe import build_pe, parse_pe

FLAGS = (0x60000020, 0x40000040, 0xC0000040)
NAMES = (b".", b".d", b".text", b".rdata\x00", b".a\x00\x00", b"abcdefg", b"abcdefgh",
         b"abcdefghi", b"abcdefgh\x00")


def section_lists(rng, file_align, sect_align):
    """Seeded section lists of 0 to 20 sections whose data lengths sit at and
    around one and two file alignments and one section alignment, with empty
    sections among them."""
    lengths = sorted({0, 1, 7} | {m * a + d for a in (file_align, sect_align)
                                  for m in (1, 2) for d in (-1, 0, 1)})
    for n in range(21):
        yield [(NAMES[rng.integers(len(NAMES))],
                bytes([int(rng.integers(1, 256))]) * int(lengths[rng.integers(len(lengths))]),
                FLAGS[rng.integers(len(FLAGS))])
               for _ in range(n)]


@pytest.mark.parametrize("file_align,sect_align,min_headers",
                         itertools.product((1, 0x100, 0x200), (0x800, 0x1000),
                                           (0, 0x200, 0x400)))
def test_build_pe_equals_the_old_writer(file_align, sect_align, min_headers):
    rng = np.random.default_rng(file_align + sect_align + min_headers)
    checked = 0
    for pe64, overlay in itertools.product((False, True), (b"", b"ov\x00" * 33)):
        for sections in section_lists(rng, file_align, sect_align):
            kwargs = dict(timestamp=int(rng.integers(0, 2 ** 32)),
                          entry_rva=int(rng.integers(0, 2 ** 20)), pe64=pe64,
                          overlay=overlay, file_align=file_align, sect_align=sect_align,
                          min_headers=min_headers)
            raw = build_pe(sections, **kwargs)
            assert raw == naive_pe.build_pe(sections, **kwargs), (sections, kwargs)
            assert len(parse_pe(raw).sections) == len(sections)
            checked += 1
    assert checked == 4 * 21
