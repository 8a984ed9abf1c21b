"""Synthetic corpus generation with ground-truth signatures and temporal drift,
plus ingestion/deduplication and manifest persistence.

Stands in for real malware/goodware collections: every generated file is a
valid PE, malware embeds bank patterns at known rates (exact by count, so rule
statistics close over the generator's ground truth), and the future epoch
shifts both the benign content distribution and a share of the malicious
patterns (2-byte mutations that evade literal matching).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecInvalid
from .evaluation import read_report, read_text, write_report
from .pe import (
    IMAGE_SCN_CNT_CODE,
    IMAGE_SCN_CNT_INITIALIZED_DATA,
    IMAGE_SCN_MEM_EXECUTE,
    IMAGE_SCN_MEM_READ,
    build_pe,
    parse_pe,
)

EPOCHS = ("present-train", "present-test", "future")
MANIFEST_HEADER = ["path", "sha256", "label", "epoch", "planted", "allowlisted"]

# characteristics of the generated code and data sections
_CODE_FLAGS = IMAGE_SCN_CNT_CODE | IMAGE_SCN_MEM_EXECUTE | IMAGE_SCN_MEM_READ
_DATA_FLAGS = IMAGE_SCN_CNT_INITIALIZED_DATA | IMAGE_SCN_MEM_READ

# (pattern id, kind, payload); kind "text" bodies are raw bytes, "hex" bodies
# are byte tuples rendered with one ?? wildcard when planted
DEFAULT_BANK = (
    ("bank_00", "text", b"mal_beacon_xor_loader_07"),
    ("bank_01", "text", b"inject_remote_thread_stub"),
    ("bank_02", "text", b"ransom_note_decrypt_key"),
    ("bank_03", "text", b"keylog_hook_proc_install"),
    ("bank_04", "text", b"c2_fallback_dns_tunnel"),
    ("bank_05", "text", b"persist_run_key_writer"),
    ("bank_06", "hex", (0xDE, 0xAD, 0xC0, 0xDE, 0x90, 0x90, 0x66, 0x6C)),
    ("bank_07", "hex", (0x4B, 0x33, 0x52, 0x4E, 0x33, 0x4C, 0x68, 0x6B)),
)

BENIGN_TOKENS_PRESENT = (
    b"Microsoft Windows Operating System", b"Copyright (C) 2019",
    b"VarFileInfo", b"StringFileInfo", b"GetProcAddress", b"LoadLibraryW",
    b"kernel32.dll", b"user32.dll", b"advapi32.dll", b"This program cannot",
    b"ProductVersion", b"FileDescription", b"InstallShield Setup",
    b"terms and conditions apply", b"registered trademark",
)

BENIGN_TOKENS_FUTURE = (
    b"Microsoft Windows Operating System", b"Copyright (C) 2023",
    b"VarFileInfo", b"StringFileInfo", b"GetModuleHandleExW", b"LoadLibraryExW",
    b"kernelbase.dll", b"combase.dll", b"bcrypt.dll", b"This program cannot",
    b"PackageVersion", b"AppxManifest", b"msix installer framework",
    b"privacy statement available online", b"digital signature block",
)

MALWARE_TOKENS = (
    b"cmd.exe /c start", b"powershell -enc", b"HKEY_CURRENT_USER\\Software",
    b"C:\\Users\\Public\\svch0st.exe", b"http://update-checker.biz/gate.php",
    b"SeDebugPrivilege", b"VirtualAllocEx", b"WriteProcessMemory",
)


_RULE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# the most files of one class in one epoch: a file takes about 1 ms to make,
# and a count past the float range cannot be scaled by a rate
MAX_COUNT = 10 ** 6


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_rate(v) -> bool:
    return (_is_int(v) or isinstance(v, float)) and 0.0 <= v <= 1.0


def _is_bank_entry(v) -> bool:
    # the id names the pattern's blocklist rule and its manifest `planted` entries
    if not (isinstance(v, list) and len(v) == 3 and isinstance(v[0], str)
            and _RULE_NAME.fullmatch(v[0])):
        return False
    kind, body = v[1], v[2]
    if kind == "hex":
        return (isinstance(body, list) and body != []
                and all(_is_int(b) and 0 <= b <= 255 for b in body))
    return (kind == "text" and isinstance(body, str) and body != ""
            and all(ord(c) < 256 for c in body))


def _per_epoch(ok):
    """A check of an object with one value per epoch, each passing `ok`."""
    return lambda v: isinstance(v, dict) and set(v) == set(EPOCHS) and all(map(ok, v.values()))


_ABSENT = object()   # the value of a field a spec document does not have

# the fields of a spec document: name, check of type and range, what the check
# wants. CorpusSpec.validate() runs it over to_dict(), from_dict() over the
# document; a check that fails on _ABSENT makes its field required.
_SPEC_FIELDS = (
    ("counts", _per_epoch(lambda p: isinstance(p, list) and len(p) == 2 and all(
        _is_int(n) and 0 <= n <= MAX_COUNT for n in p)),
     f"an object of [malware, goodware] count pairs, each in [0, {MAX_COUNT}], "
     f"for {', '.join(EPOCHS)}"),
    ("plant_rates", _per_epoch(_is_rate),
     f"an object of rates in [0, 1] for {', '.join(EPOCHS)}"),
    ("drift_mutation_rate", _is_rate, "a number in [0, 1]"),
    ("allowlist_fraction", _is_rate, "a number in [0, 1]"),
    ("seed", lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    ("bank", lambda v: (isinstance(v, list) and v != [] and all(map(_is_bank_entry, v))
                        and len({entry[0] for entry in v}) == len(v)),
     'a non-empty list of [id, "text", non-empty latin-1 string] or '
     '[id, "hex", non-empty [byte, ...]] entries with distinct ids of letters, '
     'digits and _ that do not start with a digit'),
    # an optional switch of earlier spec files, now always on
    ("goodware_epoch_shift", lambda v: v is True or v is _ABSENT,
     "true (the future epoch always has its own goodware)"),
)


def _check_spec_fields(doc: dict):
    """Raises SpecInvalid naming the first field of `doc` that is missing or
    fails its check."""
    for name, ok, want in _SPEC_FIELDS:
        value = doc.get(name, _ABSENT)
        if not ok(value):
            raise SpecInvalid(f"missing field {name!r}" if value is _ABSENT
                              else f"field {name!r} must be {want}, not {value!r:.60}")


@dataclass(frozen=True)
class CorpusSpec:
    counts: dict = field(default_factory=lambda: {
        "present-train": (1200, 800),   # (malware, goodware)
        "present-test": (360, 240),
        "future": (360, 240),
    })
    plant_rates: dict = field(default_factory=lambda: {
        "present-train": 0.30, "present-test": 0.30, "future": 0.45,
    })
    drift_mutation_rate: float = 0.20   # future non-planted malware with mutated patterns
    allowlist_fraction: float = 0.10    # of goodware; present epochs only
    seed: int = 0
    bank: tuple = DEFAULT_BANK

    def validate(self):
        _check_spec_fields(self.to_dict())

    def to_dict(self) -> dict:
        return {
            "format": "sievemal-corpus-spec",
            "version": 1,
            # in key order, as in the file save_spec writes: a failed check then
            # quotes the same value for a spec in code and one loaded from a file
            "counts": {k: list(v) for k, v in sorted(self.counts.items())},
            "plant_rates": dict(sorted(self.plant_rates.items())),
            "drift_mutation_rate": self.drift_mutation_rate,
            "allowlist_fraction": self.allowlist_fraction,
            "seed": self.seed,
            "bank": [[pid, kind, list(body) if kind == "hex" else body.decode("latin-1")]
                     for pid, kind, body in self.bank],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CorpusSpec":
        """The spec to_dict wrote; raises SpecInvalid on the first missing
        field or the first that fails its check."""
        if not (isinstance(d, dict) and d.get("format") == "sievemal-corpus-spec"
                and d.get("version") == 1):
            raise SpecInvalid("unrecognized corpus spec document")
        _check_spec_fields(d)
        bank = tuple(
            (pid, kind, tuple(body) if kind == "hex" else body.encode("latin-1"))
            for pid, kind, body in d["bank"])
        return cls(
            counts={k: tuple(v) for k, v in d["counts"].items()},
            plant_rates=d["plant_rates"],
            drift_mutation_rate=d["drift_mutation_rate"],
            allowlist_fraction=d["allowlist_fraction"],
            seed=d["seed"],
            bank=bank,
        )


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    sha256: str
    label: int
    epoch: str
    planted: tuple = ()           # bank pattern ids (intact plants only)
    allowlisted: bool = False


@dataclass
class Manifest:
    records: list = field(default_factory=list)
    duplicates: int = 0
    io_failures: list = field(default_factory=list)

    def samples(self, epoch=None) -> list:
        """The records of one epoch, or all of them."""
        return [r for r in self.records if epoch is None or r.epoch == epoch]


def write_manifest(manifest: Manifest, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for r in manifest.records:
            writer.writerow([r.path, r.sha256, r.label, r.epoch,
                             ";".join(r.planted), int(r.allowlisted)])


def _read_csv_rows(path, header):
    """Yields ("FILE, line N", row) for each row of a CSV file (read_text) that
    starts with `header`; a file that does not, a row of another column count,
    a row whose epoch column is not one of EPOCHS, a NUL character, or text
    that the csv module refuses, is a SpecInvalid naming the file and the line."""
    epoch = header.index("epoch")
    text = read_text(path)
    # no file path holds a NUL, and Python 3.10's csv module refuses one
    nul = text.find("\x00")
    if nul >= 0:
        line = text.count("\n", 0, nul) + 1
        raise SpecInvalid(f"{path}, line {line}: a NUL character")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        if next(reader, None) != header:
            raise SpecInvalid(f"{path}, line 1: header is not {','.join(header)!r}")
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                raise SpecInvalid(f"{where}: {len(row)} columns, want {len(header)}")
            if row[epoch] not in EPOCHS:
                raise SpecInvalid(f"{where}: epoch {row[epoch]!r} is not one of "
                                  f"{', '.join(EPOCHS)}")
            yield where, row
    except csv.Error as exc:
        raise SpecInvalid(f"{path}, line {reader.line_num}: {exc}") from None


def read_manifest(path) -> Manifest:
    manifest = Manifest()
    for where, row in _read_csv_rows(path, MANIFEST_HEADER):
        if row[2] not in ("0", "1") or row[5] not in ("0", "1"):
            raise SpecInvalid(f"{where}: label {row[2]!r} and allowlisted {row[5]!r} "
                              "must each be 0 or 1")
        manifest.records.append(ManifestRecord(
            path=row[0], sha256=row[1], label=int(row[2]), epoch=row[3],
            planted=tuple(p for p in row[4].split(";") if p),
            allowlisted=row[5] == "1",
        ))
    return manifest


@functools.lru_cache(maxsize=8)
def _blob_pieces(tokens: tuple):
    """pieces[i][p]: token i, its NUL and p spaces of low-entropy filler; and
    the length of each token with its NUL."""
    return ([[t + b"\x00" + b" " * p for p in range(16)] for t in tokens],
            np.array([len(t) + 1 for t in tokens]))


def _token_blob(rng, tokens, size: int) -> bytes:
    """The first `size` bytes of pieces drawn until they reach `size`: a
    token with its NUL, then 1-15 spaces. The (token index, pad) pairs come
    from one array-bounded draw, which takes the same values from the stream
    as one scalar call per index and per pad, and leaves `rng` where those
    calls would."""
    if size <= 0:
        return b""
    pieces, lens = _blob_pieces(tokens)
    bounds = (0, 1), (len(tokens), 16)
    state = rng.bit_generator.state
    # no piece is shorter than the shortest token, its NUL and one space
    pairs = rng.integers(*bounds, size=(size // (int(lens.min()) + 1) + 1, 2))
    n = int(np.searchsorted(np.cumsum(lens[pairs[:, 0]] + pairs[:, 1]), size)) + 1
    rng.bit_generator.state = state
    pairs = rng.integers(*bounds, size=(n, 2)).tolist()
    return b"".join([pieces[i][p] for i, p in pairs])[:size]


def _mutate_pattern(rng, body: bytes) -> bytes:
    """Two-byte substitution; guaranteed to differ from the original."""
    out = bytearray(body)
    idx = rng.choice(len(out), size=min(2, len(out)), replace=False)
    for i in idx:
        out[i] = (out[i] + 1 + int(rng.integers(0, 255))) % 256
        if out[i] == body[i]:
            out[i] = (out[i] + 1) % 256
    return bytes(out)


def _pattern_bytes(kind: str, body) -> bytes:
    return bytes(body) if kind == "hex" else body


def _make_goodware(rng, tokens) -> bytes:
    code = bytes(rng.integers(0, 64, size=int(rng.integers(600, 2000)), dtype=np.uint8))
    data = _token_blob(rng, tokens, int(rng.integers(1500, 4000)))
    rsrc = _token_blob(rng, tokens, int(rng.integers(400, 1200)))
    overlay = _token_blob(rng, tokens, int(rng.integers(0, 300)))
    return build_pe(
        [(b".text", code, _CODE_FLAGS),
         (b".data", data, _DATA_FLAGS),
         (b".rsrc", rsrc, _DATA_FLAGS)],
        timestamp=int(rng.integers(1, 2 ** 31)),
        overlay=overlay,
    )


def _make_malware(rng, plant: bytes | None) -> bytes:
    code = bytes(rng.integers(0, 256, size=int(rng.integers(1200, 3500)), dtype=np.uint8))
    data = bytearray(_token_blob(rng, MALWARE_TOKENS, int(rng.integers(300, 900))))
    data += bytes(rng.integers(0, 256, size=int(rng.integers(800, 2500)), dtype=np.uint8))
    if plant is not None:
        off = int(rng.integers(0, max(1, len(data) - len(plant))))
        data[off:off + len(plant)] = plant
    return build_pe(
        [(b".text", code, _CODE_FLAGS),
         (b".data", bytes(data), _DATA_FLAGS)],
        timestamp=int(rng.integers(1, 2 ** 31)),
        pe64=bool(rng.integers(0, 2)),
    )


def _epoch_files(spec: CorpusSpec, epoch_idx: int, epoch: str):
    """Yields (file name, bytes, record fields) for each file of one epoch,
    malware first."""
    n_mal, n_good = spec.counts[epoch]
    n_planted = round(spec.plant_rates[epoch] * n_mal)
    if epoch == "future":
        n_mutated = round(spec.drift_mutation_rate * (n_mal - n_planted))
    else:
        n_mutated = 0
    for i in range(n_mal):
        rng = np.random.default_rng([spec.seed, epoch_idx, 1, i])
        planted = ()
        plant_bytes = None
        if i < n_planted:
            pid, kind, body = spec.bank[i % len(spec.bank)]
            plant_bytes = _pattern_bytes(kind, body)
            planted = (pid,)
        elif i < n_planted + n_mutated:
            _, kind, body = spec.bank[i % len(spec.bank)]
            plant_bytes = _mutate_pattern(rng, _pattern_bytes(kind, body))
        yield (f"{epoch}-mal-{i:05d}.exe", _make_malware(rng, plant_bytes),
               dict(label=1, planted=planted))

    tokens = BENIGN_TOKENS_FUTURE if epoch == "future" else BENIGN_TOKENS_PRESENT
    allow_n = round(spec.allowlist_fraction * n_good) if epoch != "future" else 0
    for i in range(n_good):
        rng = np.random.default_rng([spec.seed, epoch_idx, 0, i])
        yield (f"{epoch}-good-{i:05d}.exe", _make_goodware(rng, tokens),
               dict(label=0, allowlisted=i < allow_n))


def synthesize_corpus(spec: CorpusSpec, out_dir) -> Manifest:
    """Write corpus files under out_dir and return the ground-truth manifest."""
    spec.validate()
    os.makedirs(out_dir, exist_ok=True)
    manifest = Manifest()
    for epoch_idx, epoch in enumerate(EPOCHS):
        for name, raw, fields in _epoch_files(spec, epoch_idx, epoch):
            if not manifest.records:
                parse_pe(raw)   # generated files must satisfy the PE module's invariants
            path = os.path.join(out_dir, name)
            with open(path, "wb") as fh:
                fh.write(raw)
            manifest.records.append(ManifestRecord(
                path=path, sha256=hashlib.sha256(raw).hexdigest(), epoch=epoch, **fields))
    return manifest


# --- rule emission -----------------------------------------------------------

def _escape_text(body: bytes) -> str:
    out = []
    for b in body:
        c = chr(b)
        if c == '"':
            out.append('\\"')
        elif c == "\\":
            out.append("\\\\")
        elif 0x20 <= b <= 0x7E:
            out.append(c)
        else:
            out.append(f"\\x{b:02x}")
    return "".join(out)


def emit_rules_from_bank(spec: CorpusSpec) -> str:
    """Blocklist text for the bank: one rule per pattern, named by its id."""
    chunks = []
    for pid, kind, body in spec.bank:
        if kind == "text":
            pattern = f'$a = "{_escape_text(body)}"'
        else:
            pairs = " ".join(f"{b:02X}" for b in body)
            pattern = f"$a = {{ {pairs} }}"
        chunks.append(
            f"rule {pid}\n{{\n    meta:\n        source = \"synthetic bank\"\n"
            f"    strings:\n        {pattern}\n    condition:\n        $a\n}}\n")
    return "\n".join(chunks)


def emit_allowlist(manifest: Manifest) -> str:
    """One rule per allowlisted goodware record: `filesize == N and
    hash.sha256(0, filesize) == "D"`, N the size of the record's file on disk
    and D its digest. The size matches on exactly the files the digest does,
    and lets a scan skip hashing any file whose size no rule names."""
    chunks = []
    for i, r in enumerate(rec for rec in manifest.records if rec.allowlisted):
        chunks.append(
            f"rule allow_{i:04d}\n{{\n    condition:\n"
            f"        filesize == {os.path.getsize(r.path)} and "
            f"hash.sha256(0, filesize) == \"{r.sha256}\"\n}}\n")
    return "\n".join(chunks)


# --- ingestion ---------------------------------------------------------------

def ingest(directory, labels_path) -> Manifest:
    """Build a manifest from a directory and a labels CSV (path,label,epoch).

    Duplicate digests collapse to the first occurrence; unreadable files are
    recorded and skipped. A labels file without the header, with a row of
    other than three columns or with a row whose epoch is outside EPOCHS, a
    file without a label row, a file whose label is not 0/1, or two rows that
    label one file differently, is a SpecInvalid.
    """
    labels = {}                       # path column -> ((label, epoch), where its first row is)
    for where, row in _read_csv_rows(labels_path, ["path", "label", "epoch"]):
        label, first = labels.setdefault(row[0], ((row[1], row[2]), where))
        if label != (row[1], row[2]):
            raise SpecInvalid(f"{where}: {row[0]!r} is labelled {row[1]},{row[2]}, but "
                              f"{first} labels it {','.join(label)}")

    manifest = Manifest()
    seen = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            manifest.io_failures.append(f"{path}: {exc}")
            continue
        digest = hashlib.sha256(raw).hexdigest()
        if digest in seen:
            manifest.duplicates += 1
            continue
        seen[digest] = path
        entry = labels.get(name, labels.get(path))
        if entry is None:
            raise SpecInvalid(f"{path}: no row in {labels_path}")
        (label, epoch), _ = entry
        if label not in ("0", "1"):
            raise SpecInvalid(f"{path}: label {label!r} is not 0 or 1")
        manifest.records.append(ManifestRecord(
            path=path, sha256=digest, label=int(label), epoch=epoch))
    return manifest


def load_spec(path) -> CorpusSpec:
    """The spec in a file; raises SpecInvalid naming the file and the reason."""
    doc = read_report(path)
    try:
        return CorpusSpec.from_dict(doc)
    except SpecInvalid as exc:
        raise SpecInvalid(f"{path}: {exc}") from None


def save_spec(spec: CorpusSpec, path):
    write_report(path, spec.to_dict())
