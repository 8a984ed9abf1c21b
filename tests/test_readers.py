"""The program's text inputs and what it does with bad ones.

Every text input is read by evaluation.read_text, and every rule file by
pipeline.read_rules on top of it: a file that is not UTF-8, or a rule file
that does not parse, ends the command with one error line that names the
file. A saved model body is checked where it is decoded, so a malformed one
is refused when the system loads. The seeded mutation test at the end feeds
mutated copies of valid inputs of each kind to cli.main, in-process, and
wants an exit code of 0, 1 or 2, at most one error line and no exception.
"""

import dataclasses
import json
import random
import shutil

import numpy as np
import pytest

import fuzz_gen

from sievemal.cli import main
from sievemal.corpus import CorpusSpec, Manifest, save_spec, write_manifest
from sievemal.evaluation import write_report
from sievemal.features import DIM
from sievemal.learners import TrainConfig
from sievemal.learners.svm import train_svm_rbf
from sievemal.pe import SECTION_HEADER_SIZE, parse_pe
from sievemal.pipeline import AiSystem, save_system

BROKEN_RULE = "rule r\n{\n  @\n}\n"
BROKEN_RULE_ERROR = "unexpected character '@' (line 3, col 3)"


@pytest.fixture(scope="module")
def plain_pe(unit_corpus):
    """A goodware file that no rule decides, so predict scores it with the model."""
    return next(r.path for r in unit_corpus.samples("present-test")
                if r.label == 0 and not r.planted and not r.allowlisted)


def copy_system(unit_system_dir, tmp_path):
    system = tmp_path / "system"
    shutil.copytree(unit_system_dir / "system", system)
    return system


def one_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    return err


# --- one reader: files that are not UTF-8 -----------------------------------

def not_utf8(path, bad: bytes = b"\xff\xfe") -> str:
    """The file at path with bad bytes in its second line, and the error line
    that reading it must give."""
    with open(path, "rb") as fh:
        head, rest = fh.read().split(b"\n", 1)
    with open(path, "wb") as fh:
        fh.write(head + b"\n" + bad + rest)
    return f"error: {path}: not UTF-8 text (byte 0x{bad[0]:02x}: invalid start byte)\n"


def manifest_copy(unit_system_dir, tmp_path):
    path = tmp_path / "manifest.csv"
    shutil.copyfile(unit_system_dir / "manifest.csv", path)
    return path


@pytest.mark.parametrize("command", ["filter", "eval"])
def test_manifest_that_is_not_utf8_exits_one(unit_system_dir, tmp_path, capsys, command):
    manifest = manifest_copy(unit_system_dir, tmp_path)
    expected = not_utf8(manifest)
    system = unit_system_dir / "system"
    argv = {"filter": ["filter", "--corpus", str(manifest),
                       "--block", str(system / "blocklist.yar"),
                       "--out", str(tmp_path / "out.csv"),
                       "--report", str(tmp_path / "filter.json")],
            "eval": ["eval", "--system", str(system), "--corpus", str(manifest),
                     "--report", str(tmp_path / "eval.json")]}[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "eval.json").exists()


def test_labels_file_that_is_not_utf8_exits_one(tmp_path, capsys):
    files = tmp_path / "files"
    files.mkdir()
    (files / "a.bin").write_bytes(b"content")
    labels = tmp_path / "labels.csv"
    labels.write_text("path,label,epoch\na.bin,1,present-train\n")
    expected = not_utf8(labels)
    assert main(["ingest", "--dir", str(files), "--labels", str(labels),
                 "--out", str(tmp_path / "manifest.csv")]) == 1
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("name", ["allowlist.yar", "blocklist.yar"])
def test_system_rule_file_that_is_not_utf8_exits_one(unit_system_dir, plain_pe, tmp_path,
                                                     capsys, name):
    system = copy_system(unit_system_dir, tmp_path)
    expected = not_utf8(system / name)
    assert main(["predict", "--system", str(system), plain_pe]) == 1
    assert capsys.readouterr().err == expected


# --- one rule reader: parse errors name their file --------------------------

@pytest.mark.parametrize("command, broken", [
    ("rules", None), ("filter", "allow"), ("filter", "block"),
    ("train", "allow"), ("train", "block"),
])
def test_rule_parse_error_names_its_file(unit_system_dir, tmp_path, capsys, command, broken):
    bad = tmp_path / "broken.yar"
    bad.write_text(BROKEN_RULE)
    system = unit_system_dir / "system"
    rules = {"allow": str(system / "allowlist.yar"), "block": str(system / "blocklist.yar")}
    if broken:
        rules[broken] = str(bad)
    corpus = str(unit_system_dir / "manifest.csv")
    argv = {
        "rules": ["rules", "check", str(bad)],
        "filter": ["filter", "--corpus", corpus, "--allow", rules["allow"],
                   "--block", rules["block"], "--out", str(tmp_path / "out.csv"),
                   "--report", str(tmp_path / "filter.json")],
        "train": ["train", "--corpus", corpus, "--allow", rules["allow"],
                  "--block", rules["block"], "--system-out", str(tmp_path / "out")],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"rule parse error: {bad}: {BROKEN_RULE_ERROR}\n"
    assert not any((tmp_path / name).exists() for name in ("out.csv", "out"))


@pytest.mark.parametrize("command", ["predict", "eval", "attack"])
@pytest.mark.parametrize("name", ["allowlist.yar", "blocklist.yar"])
def test_system_rule_parse_error_names_its_file(unit_system_dir, plain_pe, tmp_path, capsys,
                                                command, name):
    system = copy_system(unit_system_dir, tmp_path)
    (system / name).write_text(BROKEN_RULE)
    corpus = str(unit_system_dir / "manifest.csv")
    argv = {
        "predict": ["predict", "--system", str(system), plain_pe],
        "eval": ["eval", "--system", str(system), "--corpus", corpus,
                 "--report", str(tmp_path / "eval.json")],
        "attack": ["attack", "--system", str(system), "--malware", corpus,
                   "--pool-source", corpus, "--out", str(tmp_path / "attack")],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"rule parse error: {system / name}: {BROKEN_RULE_ERROR}\n")


def test_a_message_that_quotes_a_line_break_stays_one_line(tmp_path, capsys):
    bad = tmp_path / "escape.yar"
    bad.write_text('rule r { strings: $a = "a\\\nb" condition: $a }\n')
    assert main(["rules", "check", str(bad)]) == 1
    assert capsys.readouterr().err == (
        f"rule parse error: {bad}: unsupported escape \\\\n (line 1, col 26)\n")


# --- SVM bodies are checked where they are decoded ---------------------------

def field(name, value):
    return lambda model: model.__setitem__(name, value)


@pytest.fixture(scope="module")
def svm_system_dir(tmp_path_factory):
    """A bare SVM system over DIM features, with no rules."""
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(0.0, 1.0, (20, DIM)), rng.normal(0.5, 1.0, (20, DIM))])
    cfg = TrainConfig(kind="svm", seed=0, gamma=1e-3, max_iters=200)
    model = train_svm_rbf(X, np.repeat([0, 1], 20), cfg)
    system = tmp_path_factory.mktemp("svm") / "system"
    save_system(AiSystem("", "", model, {"threshold": 0.5}), system)
    return system


def test_svm_system_predicts(svm_system_dir, plain_pe, capsys):
    assert main(["predict", "--system", str(svm_system_dir), plain_pe]) == 0
    assert "\tml_score\t" in capsys.readouterr().out


def narrower(model):
    for row in model["support"]:
        row.pop()


SVM_OVERFLOW = "platt_a times the coefficients plus bias must be a finite number, not inf"
SVM_EDITS = {
    "gamma-string": (field("gamma", "x"), "gamma must be a finite number in [1e-06, 10000.0]"),
    "gamma-negative": (field("gamma", -1.0), "gamma must be a finite number in"),
    "platt-nan": (field("platt_a", float("nan")), "platt_a must be a finite number, not nan"),
    "bias-infinite": (field("bias", float("inf")), "bias must be a finite number, not inf"),
    "coef-short": (lambda m: m["coef"].pop(), "support must be a list with one row per coef"),
    "support-ragged": (lambda m: m["support"][0].pop(), "malformed svm model (ValueError"),
    "support-string": (lambda m: m["support"][0].__setitem__(0, "1.5"),
                       "support row must be a list, each entry a finite number"),
    "support-past-float32": (lambda m: m["support"][0].__setitem__(0, 1e39),
                             "support row must be a list, each entry a finite number in ["),
    "score-overflows": (lambda m: (m.__setitem__("platt_a", 1e308), m["coef"].__setitem__(0, 10.0)),
                        SVM_OVERFLOW),
    "integer-score-overflows": (lambda m: m.update(platt_a=1, coef=[10 ** 308] * 2 + m["coef"][2:]),
                                SVM_OVERFLOW),
    "narrower": (narrower, f"the model reads {DIM - 1} features, not {DIM}"),
}


@pytest.mark.parametrize("case", list(SVM_EDITS))
def test_malformed_svm_body_exits_one(svm_system_dir, plain_pe, tmp_path, capsys, case):
    edit, reason = SVM_EDITS[case]
    system = tmp_path / "system"
    shutil.copytree(svm_system_dir, system)
    path = system / "model.json"
    doc = json.loads(path.read_text())
    edit(doc["model"])
    path.write_text(json.dumps(doc))
    assert main(["predict", "--system", str(system), plain_pe]) == 1
    err = one_error(capsys)
    assert err.startswith(f"error: {path}: ") and reason in err, err


# --- seeded mutations of valid inputs (ROADMAP item 12) ----------------------

RULES = """// every construct of the rule subset
rule demo : apt dropper
{
    meta:
        author = "nobody"
        severity = 3
    strings:
        $a = "hello\\x00world" nocase wide
        $b = { 4D 5A ?? [2-5] 90 }
        $c = /ab+c[0-9]{1,3}/
    condition:
        ($a and #a >= 2) or 2 of ($b, $c) or filesize < 100KB
}

rule digest { condition: hash.sha256(0, filesize) == "%s" and not uint16(0) == 0x5A4D }
""" % ("ab" * 32)

DELIMITERS = {"rules": '{}()[]"/:$=#\\\n', "csv": ',"\n\r', "json": '{}[],:"'}
# also integers that index past either end of a tree's arrays, a float near
# the largest and an integer past it
JSON_VALUES = ("NaN", "Infinity", "true", "null", '"x"', "-5", "0", "5000", "1e308",
               "1" + "0" * 400)
SEEDS = 60


def children(node) -> list:
    """The keys of a JSON container, in order; none for a scalar."""
    if isinstance(node, dict):
        return sorted(node)
    return list(range(len(node))) if isinstance(node, list) else []


def header_fields(raw: bytes) -> list:
    """(name, offset, width) of each header field that parse_pe reads from
    the valid PE raw: the DOS, file and optional header fields, and five of
    each section table entry."""
    pe = parse_pe(raw)
    opt = pe.e_lfanew + 24
    fields = [("e_lfanew", 0x3C, 4), ("NumberOfSections", pe.e_lfanew + 6, 2),
              ("SizeOfOptionalHeader", pe.e_lfanew + 20, 2), ("Magic", opt, 2),
              ("AddressOfEntryPoint", opt + 16, 4), ("SectionAlignment", opt + 32, 4),
              ("FileAlignment", opt + 36, 4), ("SizeOfImage", opt + 56, 4)]
    for i in range(pe.num_sections):
        entry = pe.section_table_offset() + i * SECTION_HEADER_SIZE
        fields += [(f"section {i} {name}", entry + off, 4) for name, off in (
            ("VirtualSize", 8), ("VirtualAddress", 12), ("SizeOfRawData", 16),
            ("PointerToRawData", 20), ("Characteristics", 36))]
    return fields


def mutate(data: bytes, fmt: str, rng: random.Random) -> tuple:
    """(mutated data, what was done): a truncation, a byte set to 0xff or a
    random value, an inserted delimiter of the format, or, for JSON, a value
    replaced by one of JSON_VALUES. The value is drawn uniformly from every
    value in the document half of the time, which mostly hits the entries of
    long arrays, and else by a walk from the root that takes a random key at
    each level and stops at each level after the first with probability 1/5.
    A PE takes no insertion: instead a header field (header_fields) is set to
    0, 1, its largest value, its top bit, a random value, one more or one
    less than it was, or itself shifted left."""
    op = rng.choice(("truncate", "flip", "overwrite") if fmt == "pe" else
                    ("truncate", "flip", "insert") + (("substitute",) if fmt == "json" else ()))
    if op == "truncate":
        n = rng.randrange(len(data))
        return data[:n], f"truncated to {n} bytes"
    if op == "flip":
        i, b = rng.randrange(len(data)), rng.choice((0xff, rng.randrange(256)))
        return data[:i] + bytes([b]) + data[i + 1:], f"byte {i} set to 0x{b:02x}"
    if op == "overwrite":
        name, at, width = rng.choice(header_fields(data))
        old = int.from_bytes(data[at:at + width], "little")
        top = 1 << (8 * width)
        value = rng.choice((0, 1, top - 1, top >> 1, rng.randrange(top), (old + 1) % top,
                            (old - 1) % top, (old << rng.randrange(1, 8)) % top))
        return (data[:at] + value.to_bytes(width, "little") + data[at + width:],
                f"{name} set to 0x{value:x}")
    if op == "insert":
        i, c = rng.randrange(len(data) + 1), rng.choice(DELIMITERS[fmt])
        return data[:i] + c.encode() + data[i:], f"{c!r} inserted at byte {i}"
    doc = json.loads(data)
    if rng.random() < 0.5:
        paths, stack = [], [((), doc)]
        while stack:
            path, node = stack.pop()
            paths += [path + (key,) for key in children(node)]
            stack += [(path + (key,), node[key]) for key in children(node)]
        path = rng.choice(paths)
    else:
        path, node = (), doc
        while children(node) and (not path or rng.random() < 0.8):
            key = rng.choice(children(node))
            path, node = path + (key,), node[key]
    value = rng.choice(JSON_VALUES)
    if not path:
        return value.encode(), f"document replaced by {value}"
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = json.loads(value)
    return json.dumps(doc).encode(), f"/{'/'.join(map(str, path))} replaced by {value}"


def run_mutants(path, fmt: str, argvs, kind: str, capsys, accepted=None, notes=()):
    """Runs every argv in argvs on SEEDS mutants of the file at path, one at a
    time, and puts the file back. accepted, if given, is called with the case
    after each mutant that every argv accepts. A stderr line that starts with
    one of notes may come beside the error line."""
    with open(path, "rb") as fh:
        original = fh.read()
    try:
        for seed in range(SEEDS):
            data, mutation = mutate(original, fmt, random.Random(f"{kind} {seed}"))
            with open(path, "wb") as fh:
                fh.write(data)
            codes = []
            for argv in argvs:
                case = f"{kind}, seed {seed}, {mutation}, sievemal {argv[0]}"
                with fuzz_gen.deadline(case):
                    try:
                        code = main(argv)
                    except BaseException as exc:
                        pytest.fail(f"{case}: raised {type(exc).__name__}: {exc}")
                err = [line for line in capsys.readouterr().err.splitlines()
                       if not line.startswith(notes)]
                errors = [line for line in err
                          if line.startswith(("error: ", "rule parse error: "))]
                # an error line exactly when the exit code is 1, and no other line
                assert code in (0, 1, 2) and err == errors and len(errors) == int(code == 1), (
                    f"{case}: exit {code}, stderr {err}")
                codes.append(code)
            if accepted and not any(codes):
                accepted(f"{kind}, seed {seed}, {mutation}")
    finally:
        with open(path, "wb") as fh:
            fh.write(original)


def test_mutated_rule_files(tmp_path, capsys):
    path = tmp_path / "rules.yar"
    path.write_text(RULES)
    assert main(["rules", "check", str(path)]) == 0
    capsys.readouterr()
    run_mutants(path, "rules", [["rules", "check", str(path)]], "rule file", capsys)


def test_mutated_manifests(unit_system_dir, unit_corpus, tmp_path, capsys):
    records = (unit_corpus.samples("present-train")[:3] + unit_corpus.samples("present-test")[:2]
               + unit_corpus.samples("present-test")[-2:] + unit_corpus.samples("future")[:3])
    path = tmp_path / "manifest.csv"
    write_manifest(Manifest(records=records), path)
    system = unit_system_dir / "system"
    argvs = [["filter", "--corpus", str(path), "--allow", str(system / "allowlist.yar"),
              "--block", str(system / "blocklist.yar"), "--out", str(tmp_path / "out.csv"),
              "--report", str(tmp_path / "filter.json")],
             ["eval", "--system", str(system), "--corpus", str(path),
              "--report", str(tmp_path / "eval.json")]]
    for argv in argvs:
        assert main(argv) == 0
    capsys.readouterr()
    run_mutants(path, "csv", argvs, "manifest", capsys)


def test_mutated_labels_files(tmp_path, capsys):
    files = tmp_path / "files"
    files.mkdir()
    for name, content in (("a.bin", b"one"), ("b.bin", b"two"), ("c.bin", b"one")):
        (files / name).write_bytes(content)
    path = tmp_path / "labels.csv"
    path.write_text("path,label,epoch\na.bin,1,present-train\nb.bin,0,future\n"
                    "c.bin,0,present-test\n")
    argv = ["ingest", "--dir", str(files), "--labels", str(path),
            "--out", str(tmp_path / "manifest.csv")]
    assert main(argv) == 0
    capsys.readouterr()
    run_mutants(path, "csv", [argv], "labels file", capsys)


def test_mutated_attack_results(tmp_path, capsys):
    rows = [{"sha256": f"{i:064x}", "clean_score": 1.0, "adv_score": score,
             "payload_kb": kb, "queries": 10 * i + 1, "fired_on_best": ["bank_00"] * (i % 2),
             "evaded": score < 0.5}
            for i, (score, kb) in enumerate([(1.0, 0.0), (0.25, 3.5), (0.75, 12.0)])]
    write_report(tmp_path / "results.json",
                 {"threshold": 0.5, "sections": 10, "rows": rows})
    argv = ["report", "--results", str(tmp_path), "--out", str(tmp_path / "summary.json")]
    assert main(argv) == 0
    capsys.readouterr()
    run_mutants(tmp_path / "results.json", "json", [argv], "results.json", capsys)


def test_mutated_spec_files(tmp_path, capsys):
    path = tmp_path / "spec.json"
    save_spec(CorpusSpec(counts={"present-train": (3, 2), "present-test": (1, 1),
                                 "future": (2, 1)}, seed=5), path)
    out = tmp_path / "corpus"
    argv = ["gen-corpus", "--spec", str(path), "--out", str(out)]

    def rules_parse(case):
        """A spec that gen-corpus accepts gives rule files that parse."""
        for name in ("blocklist.yar", "allowlist.yar"):
            code = main(["rules", "check", str(out / name)])
            assert code == 0, f"{case}: {name}: {capsys.readouterr().err}"

    assert main(argv) == 0
    rules_parse("spec file")
    capsys.readouterr()
    run_mutants(path, "json", [argv], "spec file", capsys, accepted=rules_parse)


@pytest.mark.parametrize("name, fmt", [("model.json", "json"), ("allowlist.yar", "rules"),
                                       ("blocklist.yar", "rules")])
def test_mutated_systems(unit_system_dir, plain_pe, tmp_path, capsys, name, fmt):
    system = copy_system(unit_system_dir, tmp_path)
    argv = ["predict", "--system", str(system), plain_pe]
    assert main(argv) == 0
    capsys.readouterr()
    run_mutants(system / name, fmt, [argv], f"system {name}", capsys)


def test_mutated_pe_files(unit_system_dir, unit_corpus, tmp_path, capsys):
    """A malware file that no rule decides, mutated, as predict, extract-features
    and attack read it; extract-features notes each file it excludes."""
    record = next(r for r in unit_corpus.samples("future") if r.label == 1 and not r.planted)
    path = tmp_path / "target.exe"
    shutil.copyfile(record.path, path)
    manifest = tmp_path / "manifest.csv"
    write_manifest(Manifest(records=[dataclasses.replace(record, path=str(path))]), manifest)
    system = unit_system_dir / "system"
    argvs = [["predict", "--system", str(system), str(path)],
             ["extract-features", "--corpus", str(manifest), "--out", str(tmp_path / "X.csv")],
             ["attack", "--system", str(system), "--malware", str(manifest),
              "--pool-source", str(unit_system_dir / "manifest.csv"), "--budget", "4",
              "--out", str(tmp_path / "attack")]]
    for argv in argvs:
        assert main(argv) == 0
    capsys.readouterr()
    run_mutants(path, "pe", argvs, "PE file", capsys, notes=("excluded ",))
