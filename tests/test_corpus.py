import hashlib
import json

import pytest

from sievemal.cli import main
from sievemal.corpus import (
    EPOCHS,
    CorpusSpec,
    emit_allowlist,
    emit_rules_from_bank,
    ingest,
    load_spec,
    read_manifest,
    save_spec,
    synthesize_corpus,
    write_manifest,
)
from sievemal.errors import SpecInvalid
from sievemal.pe import build_pe, parse_pe
from sievemal.rules import parse_rules, scan

from conftest import UNIT_COUNTS


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


# --- spec --------------------------------------------------------------------

def test_spec_defaults_validate():
    spec = CorpusSpec()
    spec.validate()
    assert spec.counts["present-train"] == (1200, 800)
    assert spec.plant_rates == {
        "present-train": 0.30, "present-test": 0.30, "future": 0.45}


@pytest.mark.parametrize("kwargs, name", [
    (dict(counts={"present-train": (10, 10)}), "counts"),
    (dict(counts=dict(UNIT_COUNTS, future=(-1, 5))), "counts"),
    # a count past the float range ended in an OverflowError, and a large one
    # wrote files until the disk was full
    (dict(counts=dict(UNIT_COUNTS, future=(10 ** 400, 5))), "counts"),
    (dict(counts=dict(UNIT_COUNTS, future=(5, 10 ** 6 + 1))), "counts"),
    (dict(plant_rates={"present-train": 1.5, "present-test": 0.3, "future": 0.4}),
     "plant_rates"),
    (dict(drift_mutation_rate=2.0), "drift_mutation_rate"),
    (dict(allowlist_fraction=-0.1), "allowlist_fraction"),
    (dict(seed=-1), "seed"),
    (dict(bank=()), "bank"),
    # an empty pattern would make a blocklist.yar that `rules check` refuses
    (dict(bank=(("bank_00", "text", b""),)), "bank"),
    (dict(bank=(("bank_06", "hex", ()),)), "bank"),
    # an id names a blocklist rule, so one that is no rule name, or a repeated
    # one, would do the same
    (dict(bank=(("bank{05", "text", b"body"),)), "bank"),
    (dict(bank=(("", "text", b"body"),)), "bank"),
    (dict(bank=(("5bank", "text", b"body"),)), "bank"),
    (dict(bank=(("bank_00", "text", b"one"), ("bank_00", "text", b"two"))), "bank"),
], ids=["counts-epochs", "counts-negative", "counts-past-float", "counts-past-max",
        "plant-rate", "drift", "allowlist", "seed", "bank-empty", "bank-empty-text",
        "bank-empty-hex", "bank-id-brace", "bank-id-empty", "bank-id-digit", "bank-id-repeated"])
def test_spec_checks_agree_in_code_and_in_files(tmp_path, capsys, kwargs, name):
    spec = CorpusSpec(**{"counts": UNIT_COUNTS, **kwargs})
    with pytest.raises(SpecInvalid, match=f"^field '{name}' must be ") as in_code:
        spec.validate()
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    with pytest.raises(SpecInvalid) as in_file:
        load_spec(path)
    assert str(in_file.value) == f"{path}: {in_code.value}"
    out = tmp_path / "out"
    assert main(["gen-corpus", "--spec", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {in_file.value}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", [True, False])
def test_spec_file_goodware_epoch_shift_loads_only_when_true(tmp_path, unit_spec, value):
    # spec files of earlier releases carry the switch; only its default still works
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**unit_spec.to_dict(), "goodware_epoch_shift": value}))
    if value:
        assert load_spec(path) == unit_spec
    else:
        with pytest.raises(SpecInvalid, match=r"field 'goodware_epoch_shift' must be true"):
            load_spec(path)


def test_spec_file_round_trip(tmp_path, unit_spec):
    path = tmp_path / "spec.json"
    save_spec(unit_spec, path)
    assert load_spec(path) == unit_spec


def test_spec_rejects_foreign_document(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(SpecInvalid):
        load_spec(path)


# --- synthesis ---------------------------------------------------------------

def test_corpus_counts_and_validity(unit_corpus):
    for epoch, (n_mal, n_good) in UNIT_COUNTS.items():
        recs = unit_corpus.samples(epoch)
        assert sum(1 for r in recs if r.label == 1) == n_mal
        assert sum(1 for r in recs if r.label == 0) == n_good
    for rec in unit_corpus.records:
        raw = read(rec.path)
        assert hashlib.sha256(raw).hexdigest() == rec.sha256
        parse_pe(raw)  # every file is structurally valid


def test_exact_plant_counts(unit_corpus, unit_spec, unit_blocklist):
    for epoch in EPOCHS:
        mal = [r for r in unit_corpus.samples(epoch) if r.label == 1]
        planted = [r for r in mal if r.planted]
        assert len(planted) == round(unit_spec.plant_rates[epoch] * len(mal))
        # ground truth closes over the emitted rules exactly
        for r in mal:
            fired = scan(read(r.path), unit_blocklist).rule_names
            if r.planted:
                assert set(r.planted) <= set(fired)
            else:
                assert fired == ()


def test_goodware_never_matches_bank(unit_corpus, unit_blocklist):
    for rec in unit_corpus.records:
        if rec.label == 0:
            assert not scan(read(rec.path), unit_blocklist).verdict


def test_allowlist_marks_present_goodware_only(unit_corpus):
    marked = [r for r in unit_corpus.records if r.allowlisted]
    assert all(r.label == 0 for r in marked)
    assert all(r.epoch != "future" for r in marked)
    assert len(marked) == 8 + 2  # 10% of 80 and of 20


def test_allowlist_rules_match_exactly_the_marked_files(unit_corpus, unit_allowlist):
    for rec in unit_corpus.records:
        hit = scan(read(rec.path), unit_allowlist).verdict
        assert hit == rec.allowlisted


def test_synthesis_is_deterministic(unit_spec, unit_corpus, tmp_path):
    again = synthesize_corpus(unit_spec, tmp_path / "again")
    assert [r.sha256 for r in again.records] == [r.sha256 for r in unit_corpus.records]
    assert [r.planted for r in again.records] == [r.planted for r in unit_corpus.records]
    other = synthesize_corpus(
        CorpusSpec(counts=UNIT_COUNTS, seed=8), tmp_path / "other")
    assert [r.sha256 for r in other.records] != [r.sha256 for r in unit_corpus.records]


def test_future_goodware_distribution_shifts(unit_corpus):
    present = b"".join(read(r.path) for r in unit_corpus.samples("present-train")
                       if r.label == 0)
    future = b"".join(read(r.path) for r in unit_corpus.samples("future")
                      if r.label == 0)
    assert b"InstallShield Setup" in present
    assert b"InstallShield Setup" not in future
    assert b"msix installer framework" in future


def test_emitted_blocklist_parses(unit_spec):
    text = emit_rules_from_bank(unit_spec)
    rs = parse_rules(text)
    assert len(rs.rules) == len(unit_spec.bank)
    guarded = text + '\nrule guard_small { strings: $a = "trap" condition: $a and filesize < 4096 }'
    rs2 = parse_rules(guarded)
    assert rs2.rules[-1].name == "guard_small"


def test_emit_allowlist_shape(unit_corpus):
    rs = parse_rules(emit_allowlist(unit_corpus), role="allowlist")
    assert len(rs.rules) == 10
    assert rs.rules[0].name == "allow_0000"


# --- manifest persistence ----------------------------------------------------

def test_manifest_round_trip(unit_corpus, tmp_path):
    path = tmp_path / "manifest.csv"
    write_manifest(unit_corpus, path)
    header = path.read_text().splitlines()[0]
    assert header == "path,sha256,label,epoch,planted,allowlisted"
    loaded = read_manifest(path)
    assert len(loaded.records) == len(unit_corpus.records)
    for a, b in zip(loaded.records, unit_corpus.records):
        assert (a.path, a.sha256, a.label, a.epoch, a.planted, a.allowlisted) == \
               (b.path, b.sha256, b.label, b.epoch, b.planted, b.allowlisted)


CSV_FORMATS = {
    "manifest": ("path,sha256,label,epoch,planted,allowlisted",
                 f"a.bin,{'0' * 64},1,present-train,,0\n", lambda p: read_manifest(p)),
    "labels": ("path,label,epoch", "b.bin,0,future\n",
               lambda p: ingest(p.parent, p)),
}


@pytest.mark.parametrize("fmt", sorted(CSV_FORMATS))
@pytest.mark.parametrize("case", ["empty", "bad-header", "short-row", "bad-epoch"])
def test_csv_readers_name_the_file_and_line(tmp_path, fmt, case):
    header, good_row, read_csv = CSV_FORMATS[fmt]
    cells = good_row.rstrip("\n").split(",")
    cells[header.split(",").index("epoch")] = "futrue"
    text, message = {
        "empty": ("", f"line 1: header is not '{header}'"),
        "bad-header": ("who,knows\n", f"line 1: header is not '{header}'"),
        "short-row": (f"{header}\n{good_row}a.bin,1\n",
                      f"line 3: 2 columns, want {header.count(',') + 1}"),
        "bad-epoch": (f"{header}\n{good_row}{','.join(cells)}\n",
                      "line 3: epoch 'futrue' is not one of present-train, present-test, "
                      "future"),
    }[case]
    p = tmp_path / f"{fmt}.csv"
    p.write_text(text)
    with pytest.raises(SpecInvalid) as exc:
        read_csv(p)
    assert str(exc.value) == f"{p}, {message}"


# --- ingestion ---------------------------------------------------------------

def test_ingest_dedups_by_digest(tmp_path):
    d = tmp_path / "files"
    d.mkdir()
    (d / "a.bin").write_bytes(b"samecontent")
    (d / "b.bin").write_bytes(b"samecontent")
    (d / "c.bin").write_bytes(b"different")
    labels = tmp_path / "labels.csv"
    labels.write_text(
        "path,label,epoch\na.bin,1,present-train\nb.bin,1,present-train\n"
        "c.bin,0,future\n")
    manifest = ingest(d, labels)
    assert manifest.duplicates == 1
    assert len(manifest.records) == 2
    rec_a = next(r for r in manifest.records if r.path.endswith("a.bin"))
    assert rec_a.label == 1 and rec_a.epoch == "present-train"
    rec_c = next(r for r in manifest.records if r.path.endswith("c.bin"))
    assert rec_c.label == 0 and rec_c.epoch == "future"


@pytest.mark.parametrize("rows, message, where", [
    ("b.bin,1,present-train\n", "no row", "a.bin"),
    ("a.bin,2,present-train\n", "label '2'", "a.bin"),
    # an epoch is checked as the labels file is read, so the error names its line
    ("a.bin,1,futrue\n", "epoch 'futrue'", "labels.csv, line 2"),
], ids=["missing-row", "bad-label", "bad-epoch"])
def test_ingest_rejects_files_without_a_valid_label(tmp_path, rows, message, where):
    d = tmp_path / "files"
    d.mkdir()
    (d / "a.bin").write_bytes(b"content")
    labels = tmp_path / "labels.csv"
    labels.write_text("path,label,epoch\n" + rows)
    with pytest.raises(SpecInvalid, match=message) as exc:
        ingest(d, labels)
    assert where in str(exc.value)


# --- pe builder --------------------------------------------------------------

def test_build_pe_alignment_knobs():
    raw = build_pe([(b".d", b"x" * 100, 0xC0000040)], file_align=0x100,
                   sect_align=0x800, pe64=True, timestamp=99)
    pe = parse_pe(raw)
    assert pe.file_alignment == 0x100
    assert pe.section_alignment == 0x800
    assert pe.is_pe64
    assert pe.timestamp == 99
    assert pe.sections[0].raw_size == 0x100
