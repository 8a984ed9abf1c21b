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
import hashlib
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecInvalid
from .evaluation import write_report
from .pe import align_up, parse_pe

EPOCHS = ("present-train", "present-test", "future")
MANIFEST_HEADER = ["path", "sha256", "label", "epoch", "planted", "allowlisted"]

IMAGE_SCN_CODE_EXEC_READ = 0x60000020
IMAGE_SCN_DATA_READ = 0x40000040

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
    goodware_epoch_shift: bool = True   # False reproduces same-period goodware (snooping)

    def validate(self):
        if set(self.counts) != set(EPOCHS) or set(self.plant_rates) != set(EPOCHS):
            raise SpecInvalid("counts and plant_rates must cover exactly the three epochs")
        for epoch, (m, g) in self.counts.items():
            if m < 0 or g < 0:
                raise SpecInvalid(f"negative counts for {epoch}")
        for epoch, rate in self.plant_rates.items():
            if not (0.0 <= rate <= 1.0):
                raise SpecInvalid(f"plant rate for {epoch} outside [0, 1]")
        if not (0.0 <= self.allowlist_fraction <= 1.0):
            raise SpecInvalid("allowlist fraction outside [0, 1]")
        if not (0.0 <= self.drift_mutation_rate <= 1.0):
            raise SpecInvalid("drift mutation rate outside [0, 1]")
        if not self.bank:
            raise SpecInvalid("empty signature bank")

    def to_dict(self) -> dict:
        return {
            "format": "sievemal-corpus-spec",
            "version": 1,
            "counts": {k: list(v) for k, v in self.counts.items()},
            "plant_rates": dict(self.plant_rates),
            "drift_mutation_rate": self.drift_mutation_rate,
            "allowlist_fraction": self.allowlist_fraction,
            "seed": self.seed,
            "goodware_epoch_shift": self.goodware_epoch_shift,
            "bank": [[pid, kind, list(body) if kind == "hex" else body.decode("latin-1")]
                     for pid, kind, body in self.bank],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CorpusSpec":
        if d.get("format") != "sievemal-corpus-spec" or d.get("version") != 1:
            raise SpecInvalid("unrecognized corpus spec document")
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
            goodware_epoch_shift=d.get("goodware_epoch_shift", True),
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


def read_manifest(path) -> Manifest:
    manifest = Manifest()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != MANIFEST_HEADER:
            raise SpecInvalid(f"{path}, line 1: header is not {','.join(MANIFEST_HEADER)!r}")
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(MANIFEST_HEADER):
                raise SpecInvalid(f"{where}: {len(row)} columns, want {len(MANIFEST_HEADER)}")
            if row[2] not in ("0", "1") or row[5] not in ("0", "1"):
                raise SpecInvalid(f"{where}: label {row[2]!r} and allowlisted {row[5]!r} "
                                  "must each be 0 or 1")
            manifest.records.append(ManifestRecord(
                path=row[0], sha256=row[1], label=int(row[2]), epoch=row[3],
                planted=tuple(p for p in row[4].split(";") if p),
                allowlisted=row[5] == "1",
            ))
    return manifest


# --- PE construction ---------------------------------------------------------

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


def _token_blob(rng, tokens, size: int) -> bytes:
    parts = []
    total = 0
    while total < size:
        tok = tokens[rng.integers(0, len(tokens))]
        parts.append(tok + b"\x00")
        total += len(tok) + 1
        # low-entropy filler between strings
        pad = bytes([0x20]) * int(rng.integers(1, 16))
        parts.append(pad)
        total += len(pad)
    return b"".join(parts)[:size]


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
        [(b".text", code, IMAGE_SCN_CODE_EXEC_READ),
         (b".data", data, IMAGE_SCN_DATA_READ),
         (b".rsrc", rsrc, IMAGE_SCN_DATA_READ)],
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
        [(b".text", code, IMAGE_SCN_CODE_EXEC_READ),
         (b".data", bytes(data), IMAGE_SCN_DATA_READ)],
        timestamp=int(rng.integers(1, 2 ** 31)),
        pe64=bool(rng.integers(0, 2)),
    )


def synthesize_corpus(spec: CorpusSpec, out_dir) -> Manifest:
    """Write corpus files under out_dir and return the ground-truth manifest."""
    spec.validate()
    os.makedirs(out_dir, exist_ok=True)
    manifest = Manifest()
    for epoch_idx, epoch in enumerate(EPOCHS):
        n_mal, n_good = spec.counts[epoch]
        n_planted = round(spec.plant_rates[epoch] * n_mal)
        if epoch == "future":
            n_mutated = round(spec.drift_mutation_rate * (n_mal - n_planted))
        else:
            n_mutated = 0
        future_goodware = epoch == "future" and spec.goodware_epoch_shift
        tokens = BENIGN_TOKENS_FUTURE if future_goodware else BENIGN_TOKENS_PRESENT
        allow_n = (round(spec.allowlist_fraction * n_good)
                   if epoch != "future" else 0)

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
            raw = _make_malware(rng, plant_bytes)
            path = os.path.join(out_dir, f"{epoch}-mal-{i:05d}.exe")
            with open(path, "wb") as fh:
                fh.write(raw)
            manifest.records.append(ManifestRecord(
                path=path, sha256=hashlib.sha256(raw).hexdigest(), label=1,
                epoch=epoch, planted=planted))

        for i in range(n_good):
            rng = np.random.default_rng([spec.seed, epoch_idx, 0, i])
            raw = _make_goodware(rng, tokens)
            path = os.path.join(out_dir, f"{epoch}-good-{i:05d}.exe")
            with open(path, "wb") as fh:
                fh.write(raw)
            manifest.records.append(ManifestRecord(
                path=path, sha256=hashlib.sha256(raw).hexdigest(), label=0,
                epoch=epoch, allowlisted=i < allow_n))
    # generated files must satisfy the PE module's invariants
    for record in manifest.records[:1]:
        with open(record.path, "rb") as fh:
            parse_pe(fh.read())
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


def emit_rules_from_bank(spec: CorpusSpec, guarded=()) -> str:
    """Blocklist text for the bank; `guarded` adds (name, pattern_bytes, max_size)
    rules of the form (pattern present AND filesize < N) for backfire studies."""
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
    for name, body, max_size in guarded:
        chunks.append(
            f"rule {name}\n{{\n    strings:\n        $a = \"{_escape_text(body)}\"\n"
            f"    condition:\n        $a and filesize < {int(max_size)}\n}}\n")
    return "\n".join(chunks)


def emit_allowlist(manifest: Manifest) -> str:
    """One sha256 rule per allowlisted goodware record."""
    chunks = []
    for i, r in enumerate(rec for rec in manifest.records if rec.allowlisted):
        chunks.append(
            f"rule allow_{i:04d}\n{{\n    condition:\n"
            f"        hash.sha256(0, filesize) == \"{r.sha256}\"\n}}\n")
    return "\n".join(chunks)


# --- ingestion ---------------------------------------------------------------

def ingest(directory, labels_path) -> Manifest:
    """Build a manifest from a directory and a labels CSV (path,label,epoch).

    Duplicate digests collapse to the first occurrence; unreadable files are
    recorded and skipped. A labels file without the header or with a row of
    other than three columns, a file without a label row, or a row whose label
    is not 0/1 or whose epoch is outside EPOCHS, is a SpecInvalid.
    """
    labels = {}
    with open(labels_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SpecInvalid(f"{labels_path}, line 1: empty labels file")
        if header != ["path", "label", "epoch"]:
            raise SpecInvalid(f"{labels_path}, line 1: header {','.join(header)!r} "
                              "is not 'path,label,epoch'")
        for row in reader:
            if len(row) != 3:
                raise SpecInvalid(f"{labels_path}, line {reader.line_num}: "
                                  f"{len(row)} columns, want path,label,epoch")
            labels[row[0]] = (row[1], row[2])

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
        row = labels.get(name, labels.get(path))
        if row is None:
            raise SpecInvalid(f"{path}: no row in {labels_path}")
        label, epoch = row
        if label not in ("0", "1"):
            raise SpecInvalid(f"{path}: label {label!r} is not 0 or 1")
        if epoch not in EPOCHS:
            raise SpecInvalid(f"{path}: epoch {epoch!r} is not one of {', '.join(EPOCHS)}")
        manifest.records.append(ManifestRecord(
            path=path, sha256=digest, label=int(label), epoch=epoch))
    return manifest


def load_spec(path) -> CorpusSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return CorpusSpec.from_dict(json.load(fh))


def save_spec(spec: CorpusSpec, path):
    write_report(path, spec.to_dict())
