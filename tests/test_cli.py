import dataclasses
import functools
import hashlib
import json
import os
import shutil
import sys

import pytest

import fuzz_gen

from sievemal.cli import main
from sievemal.corpus import (
    CorpusSpec,
    Manifest,
    ManifestRecord,
    read_manifest,
    save_spec,
    write_manifest,
)
from sievemal.features import DIM
from sievemal.attack import (
    AttackConfig,
    SettledSchedule,
    apply_manipulation,
    harvest_sections,
)
from sievemal.pe import InjectionPlan, build_pe, parse_pe
from sievemal.pipeline import load_system, make_oracle, route_rules, save_system
from sievemal.rules import parse_rules

TINY_COUNTS = {"present-train": (30, 20), "present-test": (10, 10), "future": (10, 10)}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One full CLI workflow, shared by the assertions below."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    save_spec(CorpusSpec(counts=TINY_COUNTS, seed=11), spec_path)
    corpus = root / "corpus"
    assert main(["gen-corpus", "--spec", str(spec_path), "--out", str(corpus)]) == 0

    system = root / "system"
    assert main([
        "train", "--corpus", str(corpus / "manifest.csv"),
        "--allow", str(corpus / "allowlist.yar"),
        "--block", str(corpus / "blocklist.yar"),
        "--system-out", str(system), "--seed", "0", "--n-trees", "20",
    ]) == 0
    return root


def test_gen_corpus_outputs(workdir):
    corpus = workdir / "corpus"
    for name in ("manifest.csv", "blocklist.yar", "allowlist.yar",
                 "spec.json", "runconfig.json"):
        assert (corpus / name).exists()
    manifest = read_manifest(corpus / "manifest.csv")
    assert len(manifest.records) == 90
    # the corpus is the spec's seed-11 corpus, and the record says so
    config = json.loads((corpus / "runconfig.json").read_text())["config"]
    assert config["seed"] == 11


def test_gen_corpus_spec_and_seed_exclude_each_other(workdir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-corpus", "--spec", str(workdir / "spec.json"), "--seed", "3",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_rules_check_exit_codes(workdir, tmp_path, capsys):
    assert main(["rules", "check", str(workdir / "corpus" / "blocklist.yar")]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("rules")

    bad = tmp_path / "bad.yar"
    bad.write_text("rule broken { condition: entrypoint == 0 }")
    assert main(["rules", "check", str(bad)]) == 1
    assert "parse error" in capsys.readouterr().err

    empty = tmp_path / "empty.yar"
    empty.write_text('rule blank { strings: $a = "" condition: $a }')
    assert main(["rules", "check", str(empty)]) == 1
    assert "empty text string" in capsys.readouterr().err

    bad_escape = tmp_path / "bad_escape.yar"
    bad_escape.write_text('rule esc { strings: $a = "\\xZZ" condition: $a }')
    assert main(["rules", "check", str(bad_escape)]) == 1
    assert "rule parse error" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["attack", "--out", "x"])  # missing required target
    assert exc.value.code == 2


ATTACK_ARGS = ["--malware", "m.csv", "--pool-source", "m.csv", "--out", "x"]


@pytest.mark.parametrize("argv, message", [
    (["train", "--system-out", "x"], "required: --corpus"),
    (["train", "--corpus", "m.csv"], "required: --system-out"),
    (["train", "--corpus", "m.csv", "--system-out", "x", "--features", "f.csv"],
     "unrecognized arguments: --features"),
    (["train", "--corpus", "m.csv", "--system-out", "x", "--model-out", "m.json"],
     "unrecognized arguments: --model-out"),
    (["attack", "--model", "m.json", *ATTACK_ARGS], "required: --system"),
    (["attack", "--system", "s", "--threshold", "0.5", *ATTACK_ARGS],
     "unrecognized arguments: --threshold"),
], ids=["train-no-corpus", "train-no-system-out", "train-features", "train-model-out",
        "attack-model", "attack-threshold"])
def test_bare_model_options_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("option, value, message", [
    ("--lambda", "-1", "argument --lambda: must be a finite number >= 0, got '-1'"),
    ("--lambda", "nan", "argument --lambda: must be a finite number >= 0, got 'nan'"),
    ("--budget", "0", "argument --budget: must be a positive integer, got '0'"),
    ("--seed", "-1", "argument --seed: must be a non-negative integer, got '-1'"),
])
def test_bad_attack_option_is_a_usage_error_before_any_file(tmp_path, capsys, option,
                                                            value, message):
    # none of the input files exist: the option is rejected before any is read
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["attack", "--system", str(tmp_path / "system"),
              "--malware", str(tmp_path / "m.csv"), "--pool-source", str(tmp_path / "m.csv"),
              option, value, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["gen-corpus", "--seed", "-1"], "argument --seed: must be a non-negative integer, got '-1'"),
    (["gen-corpus", "--seed", "x"], "argument --seed: must be a non-negative integer, got 'x'"),
    (["train", "--seed", "-1"], "argument --seed: must be a non-negative integer, got '-1'"),
    (["train", "--n-trees", "0"], "argument --n-trees: must be a positive integer, got '0'"),
], ids=["gen-corpus-seed", "gen-corpus-seed-string", "train-seed", "train-n-trees"])
def test_bad_seed_or_tree_count_is_a_usage_error_before_any_file(tmp_path, capsys, argv,
                                                                 message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--out", str(out)] if argv[0] == "gen-corpus" else
                     ["--corpus", str(tmp_path / "m.csv"), "--system-out", str(out)]))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, option, value, message", [
    ("svm", "--gamma", "0", "gamma must lie in [1e-6, 1e4]"),
    ("svm", "--reg", "0", "reg must be positive"),
    ("svm", "--reg", "nan", "reg must be finite, not nan"),
    ("svm", "--reg", "inf", "reg must be finite, not inf"),
    ("gbdt", "--gamma", "nan", "gamma must be finite, not nan"),
])
def test_train_config_refusal_exits_one(workdir, tmp_path, capsys, kind, option, value,
                                        message):
    out = tmp_path / "system"
    assert main(["train", "--corpus", str(workdir / "corpus" / "manifest.csv"),
                 "--kind", kind, option, value, "--system-out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "attack"])
def test_help_lists_no_bare_model_options(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for option in ("--features", "--model-out", "--model ", "--threshold"):
        assert option not in out
    assert "--system" in out


@pytest.mark.parametrize("argv, message", [
    (["rules", "check", "r.yar", "--role", "allowlist"], "unrecognized arguments: --role"),
    (["filter", "--corpus", "m.csv", "--out", "o.csv", "--report", "f.json",
      "--split", "future"], "unrecognized arguments: --split"),
], ids=["rules-check-role", "filter-split"])
def test_removed_options_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_extract_features(workdir, tmp_path, capsys):
    out = tmp_path / "features.csv"
    assert main(["extract-features",
                 "--corpus", str(workdir / "corpus" / "manifest.csv"),
                 "--out", str(out)]) == 0
    first = out.read_text().splitlines()[0]
    assert first == "sievemal-features v1, dim=721, n=90"


def test_extract_features_excludes_a_file_that_is_not_a_pe(workdir, tmp_path, capsys):
    records = read_manifest(workdir / "corpus" / "manifest.csv").records[:5]
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"not a pe at all")
    manifest = tmp_path / "manifest.csv"
    write_manifest(Manifest(records=[records[0], ManifestRecord(str(junk), "0" * 64, 0, "future"),
                                     *records[1:]]), manifest)
    out = tmp_path / "features.csv"
    assert main(["extract-features", "--corpus", str(manifest), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"excluded {junk}: file shorter than a DOS header\n"
    assert captured.out == "wrote 5 vectors (1 excluded)\n"
    lines = out.read_text().splitlines()
    assert lines[0] == "sievemal-features v1, dim=721, n=5"
    assert [line.split(",")[0] for line in lines[1:]] == [r.sha256 for r in records]


def test_extract_features_on_a_missing_file_exits_one(workdir, tmp_path, capsys):
    records = read_manifest(workdir / "corpus" / "manifest.csv").records[:2]
    missing = tmp_path / "absent.bin"
    manifest = tmp_path / "manifest.csv"
    write_manifest(Manifest(records=[records[0], ManifestRecord(str(missing), "0" * 64, 0,
                                                                "future"), records[1]]), manifest)
    out = tmp_path / "features.csv"
    assert main(["extract-features", "--corpus", str(manifest), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err and err.count("\n") == 1
    assert not out.exists()


def test_filter_command(workdir, tmp_path):
    out = tmp_path / "survivors.csv"
    report = tmp_path / "filter.json"
    assert main(["filter",
                 "--corpus", str(workdir / "corpus" / "manifest.csv"),
                 "--allow", str(workdir / "corpus" / "allowlist.yar"),
                 "--block", str(workdir / "corpus" / "blocklist.yar"),
                 "--out", str(out), "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    # 30% of 30 malware planted, 10% of 20 goodware allowlisted
    assert doc["removed_by_blocklist"] == 9
    assert doc["removed_by_allowlist"] == 2
    assert doc["survivors"] == 39
    assert len(read_manifest(out).records) == 39


def test_train_writes_system_artifact(workdir):
    system = workdir / "system"
    assert sorted(os.listdir(system)) == ["allowlist.yar", "blocklist.yar", "model.json",
                                          "runconfig.json"]
    doc = json.loads((system / "model.json").read_text())
    assert (doc["format"], doc["version"]) == ("sievemal-system", 1)
    assert doc["metadata"]["filtered"] is True
    assert doc["model"]["kind"] == "gbdt"


def test_train_refuses_calibration_rows_of_one_class(workdir, tmp_path, capsys):
    # seed 0 draws both calibration rows of the 10 survivors from the goodware
    records = read_manifest(workdir / "corpus" / "manifest.csv").samples("present-train")
    tiny = ([r for r in records if r.label == 1][:3] + [r for r in records if r.label == 0][:7])
    write_manifest(Manifest(records=tiny), tmp_path / "tiny.csv")
    out = tmp_path / "system"
    assert main(["train", "--corpus", str(tmp_path / "tiny.csv"),
                 "--system-out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: the 2 calibration rows of the 10 survivors hold a single class\n")
    assert not out.exists()


def test_train_runconfig_records_the_system_options(workdir):
    record = json.loads((workdir / "system" / "runconfig.json").read_text())
    assert record["command"] == "train"
    config = record["config"]
    assert config["system_out"] == str(workdir / "system")
    assert config["corpus"] == str(workdir / "corpus" / "manifest.csv")
    assert "features" not in config and "model_out" not in config


def test_all_data_system_is_attacked_at_its_own_threshold(workdir, tmp_path):
    corpus = workdir / "corpus"
    system = tmp_path / "alldata"
    assert main(["train", "--corpus", str(corpus / "manifest.csv"),
                 "--system-out", str(system), "--seed", "0", "--n-trees", "20"]) == 0
    md = json.loads((system / "model.json").read_text())["metadata"]
    assert md["filtered"] is False
    assert md["filter_report"]["removed_by_allowlist"] == 0
    assert md["filter_report"]["removed_by_blocklist"] == 0

    malware = [r for r in read_manifest(corpus / "manifest.csv").records
               if r.label == 1 and r.epoch == "present-test"][:2]
    write_manifest(Manifest(records=malware), tmp_path / "targets.csv")
    out = tmp_path / "attack"
    assert main(["attack", "--system", str(system),
                 "--malware", str(tmp_path / "targets.csv"),
                 "--pool-source", str(corpus / "manifest.csv"),
                 "--budget", "5", "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())
    assert results["threshold"] == md["threshold"]
    assert len(results["rows"]) == 2
    config = json.loads((out / "runconfig.json").read_text())["config"]
    assert config["system"] == str(system)
    assert "model" not in config and "threshold" not in config


def test_predict_command(workdir, capsys):
    manifest = read_manifest(workdir / "corpus" / "manifest.csv")
    planted = next(r for r in manifest.records if r.planted)
    allowed = next(r for r in manifest.records if r.allowlisted)
    plain = next(r for r in manifest.records
                 if not r.planted and not r.allowlisted and r.label == 0)
    assert main(["predict", "--system", str(workdir / "system"),
                 planted.path, allowed.path, plain.path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "malicious_by_blocklist" in lines[0]
    assert "benign_by_allowlist" in lines[1]
    assert "ml_score" in lines[2]


def test_predict_prints_the_error_reason(workdir, tmp_path, capsys):
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"not a pe at all")
    assert main(["predict", "--system", str(workdir / "system"), str(junk)]) == 0
    assert capsys.readouterr().out == f"{junk}\terror\t\tfile shorter than a DOS header\n"


def _pre_change_model_file(doc):
    """The standalone model file that came before the system document."""
    return {"format": "sievemal-model", "version": 1, "training_digest": "",
            "model": doc["model"]}


def _with_threshold(value):
    return lambda doc: {**doc, "metadata": {**doc["metadata"], "threshold": value}}


def _model_edit(edit):
    """A change to the saved document that edit makes to its model body in place."""
    def change(doc):
        assert doc["model"]["trees"][0]["feature"][0] != -1, "the first tree must split"
        edit(doc["model"])
        return doc
    return change


def _model_field(name, value):
    return _model_edit(lambda model: model.update({name: value}))


def _tree_field(name, index, value):
    """A change that sets entry index of the first tree's name array."""
    return _model_edit(lambda model: model["trees"][0][name].__setitem__(index, value))


@pytest.mark.parametrize("edit, reason", [
    ("{not json", "not a JSON document"),
    ("[]", "not a system document"),
    (_pre_change_model_file, "not a system document"),
    (lambda doc: {**doc, "version": 2}, "not a system document"),
    (lambda doc: {k: v for k, v in doc.items() if k != "metadata"}, "no 'metadata' object"),
    (_with_threshold(float("nan")), "threshold nan is not a number in [0, 1]"),
    (_with_threshold(True), "threshold True is not a number in [0, 1]"),
    (_with_threshold(7.5), "threshold 7.5 is not a number in [0, 1]"),
    (lambda doc: {**doc, "model": {}}, "unknown model kind None"),
    (lambda doc: {**doc, "model": {**doc["model"], "kind": "forest"}},
     "unknown model kind 'forest'"),
    (lambda doc: {**doc, "model": {"kind": "gbdt"}}, "malformed gbdt model"),
    (_tree_field("left", 0, 0), "every node but the first must be a later child of one node"),
    (_tree_field("left", 0, 10 ** 6), "left must be a list, each entry an integer in [-1, "),
    (_tree_field("right", 0, -5), "right must be a list, each entry an integer in [-1, "),
    (_model_edit(lambda m: m["trees"][0]["value"].pop()),
     "a tree's five arrays must share one nonzero length"),
    (_model_edit(lambda m: [a.clear() for a in m["trees"][0].values()]),
     "a tree's five arrays must share one nonzero length"),
    (_tree_field("feature", 0, 5000), f"feature must be a list, each entry an integer in "
                                      f"[-1, {DIM - 1}]"),
    (_tree_field("feature", -1, 3), "a node's feature is -1 exactly when both its children are -1"),
    (_tree_field("threshold", 0, True), "threshold must be a list, each entry a finite number"),
    (_tree_field("value", -1, float("nan")), "value must be a list, each entry a finite number"),
    (_model_field("eta", "x"), "eta must be a finite number, not 'x'"),
    (_model_field("eta", float("nan")), "eta must be a finite number, not nan"),
    (_model_field("base_score", "abc"), "base_score must be a finite number, not 'abc'"),
    (_model_field("base_score", False), "base_score must be a finite number, not False"),
    (_model_field("n_features", float(DIM)), "n_features must be an integer >= 1, not 721.0"),
    (_model_field("n_features", DIM + 1), f"the model reads {DIM + 1} features, not {DIM}"),
    (_model_field("train_log_loss", [None]), "train_log_loss must be a list"),
    (_model_edit(lambda m: m["config"].update(eta=True)), "eta must be finite, not True"),
    (_model_edit(lambda m: (m.update(eta=1e308), m["trees"][0]["value"].__setitem__(-1, 10.0))),
     "base_score plus eta times the leaf values can overflow"),
    (_model_edit(lambda m: (m.update(eta=1), [t["value"].__setitem__(-1, 10 ** 308)
                                              for t in m["trees"][:2]])),
     "base_score plus eta times the leaf values can overflow"),
], ids=["not-json", "list", "pre-change-model-file", "version-2", "no-metadata",
        "threshold-nan", "threshold-true", "threshold-7.5", "model-body-empty",
        "model-kind-unknown", "model-body-no-trees", "tree-cycle", "tree-child-past-the-end",
        "tree-child-negative", "tree-value-short", "tree-empty", "tree-feature-past-the-width",
        "tree-leaf-with-a-feature", "tree-threshold-bool", "tree-value-nan", "eta-string",
        "eta-nan", "base-score-string", "base-score-bool", "n-features-float",
        "n-features-not-dim", "loss-null", "config-eta-bool", "margin-overflows",
        "integer-margin-overflows"])
def test_malformed_system_directory_exits_one(workdir, tmp_path, capsys, request, edit, reason):
    system = tmp_path / "system"
    shutil.copytree(workdir / "system", system)
    path = system / "model.json"
    if callable(edit):            # a change to the saved document
        edit = json.dumps(edit(json.loads(path.read_text())))
    path.write_text(edit)
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"not a pe at all")
    # a tree cycle once made the forest's depth loop run forever
    with fuzz_gen.deadline(request.node.name):
        assert main(["predict", "--system", str(system), str(junk)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert reason in err


def test_eval_command(workdir, tmp_path):
    report = tmp_path / "eval.json"
    assert main(["eval", "--system", str(workdir / "system"),
                 "--corpus", str(workdir / "corpus" / "manifest.csv"),
                 "--split", "future", "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["split"] == "future"
    assert doc["rule_stats"]["future"]["tpr"] == pytest.approx(0.4)  # round(.45*10)/10
    assert 0.0 <= doc["composite_tpr_at_1fpr"] <= 1.0
    assert (tmp_path / "eval.composite.dat").exists()
    assert (tmp_path / "eval.gnuplot").exists()


FP_PRONE = 'rule fp_prone { strings: $a = "InstallShield Setup" condition: #a >= 12 }\n'


def test_eval_below_the_rule_floor_writes_null(unit_system_dir, unit_corpus, tmp_path):
    """A blocklist rule that fires on more than 1% of the split's goodware puts
    every composite point above the target FPR: the report holds null for that
    TPR and the floor as the composite curve's first point."""
    system = tmp_path / "system"
    shutil.copytree(unit_system_dir / "system", system)
    with open(system / "blocklist.yar", "a", encoding="utf-8") as fh:
        fh.write("\n" + FP_PRONE)
    report = tmp_path / "eval.json"
    assert main(["eval", "--system", str(system),
                 "--corpus", str(unit_system_dir / "manifest.csv"),
                 "--split", "present-test", "--report", str(report)]) == 0

    rules = load_system(system)
    fired = {0: 0, 1: 0}
    samples = unit_corpus.samples("present-test")
    for s in samples:
        with open(s.path, "rb") as fh:
            route = route_rules(fh.read(), rules.allowlist, rules.blocklist)
        fired[s.label] += route is not None and route.stage == "blocklist"
    totals = {label: sum(s.label == label for s in samples) for label in (0, 1)}
    floor = [fired[0] / totals[0], fired[1] / totals[1], float("inf")]
    assert floor[0] > 0.01
    doc = json.loads(report.read_text())
    assert doc["composite_tpr_at_1fpr"] is None
    assert doc["composite_roc"][0] == floor
    assert all(row[0] >= floor[0] for row in doc["composite_roc"])
    assert isinstance(doc["model_tpr_at_1fpr"], float)
    dat = (tmp_path / "eval.composite.dat").read_text().splitlines()
    assert dat[1] == f"{floor[0]!r} {floor[1]!r} inf"


def count_calls(monkeypatch, original, key, counts):
    """Counts calls to `original` made through any sievemal module attribute;
    key(args) names the counter a call adds to."""
    def counted(*args, **kwargs):
        counts[key(args)] = counts.get(key(args), 0) + 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "sievemal" or name.startswith("sievemal.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)


def test_eval_reads_routes_and_features_once_per_file(unit_system_dir, unit_corpus,
                                                      tmp_path, monkeypatch):
    import sievemal.features
    import sievemal.rules.engine

    counts = {}
    count_calls(monkeypatch, sievemal.rules.engine.scan, lambda a: a[1].role, counts)
    count_calls(monkeypatch, sievemal.features.extract_features,
                lambda a: "extract", counts)
    assert main(["eval", "--system", str(unit_system_dir / "system"),
                 "--corpus", str(unit_system_dir / "manifest.csv"),
                 "--split", "present-test", "--report", str(tmp_path / "eval.json")]) == 0
    files = len(unit_corpus.samples("present-test"))
    assert 0 < counts["allowlist"] <= files
    assert 0 < counts["blocklist"] <= files
    assert counts["extract"] == files


def test_attack_scans_the_blocklist_once_per_settled_target(unit_system_dir, unit_corpus,
                                                            tmp_path, monkeypatch):
    """A blocklisted future malware of the unit system is settled: the blocklist
    scans it once, for the proof, and then only the rule probe's best mutant.
    Every other target has both lists scan its clean file, every query and
    its best mutant, and the blocklist scan it once more for the proof. No
    allowlist fires on a future malware, so no scan is skipped."""
    import sievemal.rules.engine

    system = load_system(str(unit_system_dir / "system"))
    future = [r for r in unit_corpus.samples("future") if r.label == 1]
    blocked = set()
    for r in future:
        with open(r.path, "rb") as fh:
            route = route_rules(fh.read(), system.allowlist, system.blocklist)
        assert route is None or route.stage == "blocklist"
        if route is not None:
            blocked.add(r.sha256)
    assert 0 < len(blocked) < len(future)
    targets = tmp_path / "future.csv"
    write_manifest(Manifest(records=future), targets)

    counts = {}
    count_calls(monkeypatch, sievemal.rules.engine.scan, lambda a: a[1].role, counts)
    out = tmp_path / "attack"
    assert main(["attack", "--system", str(unit_system_dir / "system"),
                 "--malware", str(targets), "--pool-source", str(unit_system_dir / "manifest.csv"),
                 "--budget", "20", "--out", str(out)]) == 0
    rows = json.loads((out / "results.json").read_text())["rows"]
    assert {row["sha256"] for row in rows} == {r.sha256 for r in future}
    assert counts["allowlist"] == sum(2 + row["queries"] for row in rows)
    assert counts["blocklist"] == sum(2 if row["sha256"] in blocked else 3 + row["queries"]
                                      for row in rows)


def test_attack_order_does_not_change_a_target_that_leaves_the_schedule(
        unit_system_dir, unit_corpus, tmp_path):
    """Settled target A's 20th scheduled mutant is allowlisted, so A leaves
    the schedule there and evades; settled target B keeps it. Attacking
    [A, B] and [B, A] writes the same traces and the same rows."""
    base = load_system(str(unit_system_dir / "system"))
    planted = [r for r in unit_corpus.samples("future") if r.label == 1 and r.planted]
    a, b = planted[:2]
    manifest = str(unit_system_dir / "manifest.csv")
    pool = harvest_sections([r for r in read_manifest(manifest).records if r.label == 0],
                            10, 0)
    cfg = AttackConfig(query_budget=60, seed=0, success_threshold=0.5)
    with open(a.path, "rb") as fh:
        plan = InjectionPlan(parse_pe(fh.read()))
    scheduled = SettledSchedule(pool, cfg).trace(
        functools.partial(make_oracle(base)[0], blocklisted=True), plan)
    mutant, _ = apply_manipulation(plan, pool, scheduled.queries[20][0])
    allow = (f'rule allowed_mutant {{ condition: hash.sha256(0, filesize) == '
             f'"{hashlib.sha256(mutant).hexdigest()}" }}\n')
    save_system(dataclasses.replace(
        base, allowlist=parse_rules(allow, role="allowlist"), allow_text=allow, threshold=0.5,
        metadata={**base.metadata, "threshold": 0.5}), tmp_path / "system")

    outs = []
    for order in ([a, b], [b, a]):
        targets = tmp_path / f"targets-{len(outs)}.csv"
        write_manifest(Manifest(records=order), targets)
        outs.append(tmp_path / f"attack-{len(outs)}")
        assert main(["attack", "--system", str(tmp_path / "system"), "--malware", str(targets),
                     "--pool-source", manifest, "--sections", "10", "--budget", "60",
                     "--seed", "0", "--out", str(outs[-1])]) == 0
    rows = [{row["sha256"]: row for row in json.loads((out / "results.json").read_text())["rows"]}
            for out in outs]
    assert rows[0] == rows[1]
    assert rows[0][a.sha256]["queries"] == 21 and rows[0][a.sha256]["evaded"]
    assert rows[0][b.sha256]["queries"] == 60 and not rows[0][b.sha256]["evaded"]
    for r in (a, b):
        name = f"{r.sha256}.jsonl"
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert (outs[0] / f"{b.sha256}.jsonl").read_text().splitlines()[:-1] == \
        [json.dumps({"payload_bytes": payload, "s": s.tolist(), "score": 1.0}, sort_keys=True)
         for s, _, payload in scheduled.queries]


def test_attack_and_report_commands(workdir, tmp_path):
    manifest = read_manifest(workdir / "corpus" / "manifest.csv")
    malware = [r for r in manifest.records
               if r.label == 1 and r.epoch == "present-test"][:3]
    target_manifest = tmp_path / "targets.csv"
    write_manifest(Manifest(records=malware), target_manifest)

    out = tmp_path / "attack"
    assert main(["attack", "--system", str(workdir / "system"),
                 "--malware", str(target_manifest),
                 "--pool-source", str(workdir / "corpus" / "manifest.csv"),
                 "--sections", "10", "--budget", "15",
                 "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())
    assert len(results["rows"]) == 3
    for row in results["rows"]:
        assert row["queries"] <= 15
        assert os.path.exists(out / f"{row['sha256']}.jsonl")

    summary = tmp_path / "summary.json"
    assert main(["report", "--results", str(out), "--out", str(summary)]) == 0
    doc = json.loads(summary.read_text())
    assert doc["attacked"] == 3
    for _, rate in doc["detection_rate_by_payload_kb"]:
        assert 0.0 <= rate <= 1.0


def test_unparsable_attack_target_is_named(workdir, tmp_path, capsys):
    manifest = read_manifest(workdir / "corpus" / "manifest.csv")
    malware = [r for r in manifest.records if r.label == 1][:2]
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"not a pe" * 20)
    targets = tmp_path / "targets.csv"
    write_manifest(Manifest(records=[
        malware[0], ManifestRecord(str(junk), "0" * 64, 1, "future"), malware[1]]), targets)
    out = tmp_path / "attack"
    assert main(["attack", "--system", str(workdir / "system"), "--malware", str(targets),
                 "--pool-source", str(workdir / "corpus" / "manifest.csv"),
                 "--budget", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: attack target {junk}: missing MZ magic\n"
    assert not out.exists()


def test_crowded_attack_target_is_named(workdir, tmp_path, capsys):
    manifest = read_manifest(workdir / "corpus" / "manifest.csv")
    malware = next(r for r in manifest.records if r.label == 1)
    crowded = tmp_path / "crowded.exe"
    # one section too many for a pool of 10: 65,526 + 10 > 65,535
    crowded.write_bytes(build_pe([(b".e", b"", 0x40000040)] * 65526))
    targets = tmp_path / "targets.csv"
    write_manifest(Manifest(records=[
        malware, ManifestRecord(str(crowded), "0" * 64, 1, "future")]), targets)
    out = tmp_path / "attack"
    assert main(["attack", "--system", str(workdir / "system"), "--malware", str(targets),
                 "--pool-source", str(workdir / "corpus" / "manifest.csv"),
                 "--sections", "10", "--budget", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: attack target {crowded}: 65526 sections leave no room "
                   "for 10 more (at most 65535)\n")
    assert not out.exists()


def test_attack_rows_report_what_their_traces_end_with(unit_system_dir, unit_corpus,
                                                       tmp_path):
    malware = [r for r in unit_corpus.samples("future") if r.label == 1]
    targets = tmp_path / "targets.csv"
    write_manifest(Manifest(records=malware), targets)
    out = tmp_path / "attack"
    assert main(["attack", "--system", str(unit_system_dir / "system"),
                 "--malware", str(targets),
                 "--pool-source", str(unit_system_dir / "manifest.csv"),
                 "--sections", "10", "--budget", "20", "--out", str(out)]) == 0
    rows = json.loads((out / "results.json").read_text())["rows"]
    assert len(rows) == len(malware)
    assert {row["evaded"] for row in rows} == {True, False}
    for row in rows:
        lines = (out / f"{row['sha256']}.jsonl").read_text().splitlines()
        last = json.loads(lines[-1])
        assert row["evaded"] is last["succeeded"]
        assert row["adv_score"] == last["best_score"]
        assert row["queries"] == last["queries_used"] == len(lines) - 1


def test_missing_file_exits_one(tmp_path, capsys):
    assert main(["rules", "check", str(tmp_path / "absent.yar")]) == 1
    assert "error" in capsys.readouterr().err


def test_directory_as_rule_file_exits_one(tmp_path, capsys):
    assert main(["rules", "check", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1


def test_filter_bad_manifest_header_exits_one(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("path,label,epoch\n")
    assert main(["filter", "--corpus", str(bad),
                 "--block", str(workdir / "corpus" / "blocklist.yar"),
                 "--out", str(tmp_path / "out.csv"),
                 "--report", str(tmp_path / "filter.json")]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {bad}, line 1: header is not "
                   "'path,sha256,label,epoch,planted,allowlisted'\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("text, where", [
    ("", "line 1"),
    ("a,b\n", "line 1"),
    ("path,label,epoch\na.bin,1\n", "line 2"),
], ids=["empty", "bad-header", "short-row"])
def test_ingest_bad_labels_exits_one(tmp_path, capsys, text, where):
    files = tmp_path / "files"
    files.mkdir()
    (files / "a.bin").write_bytes(b"content")
    labels = tmp_path / "labels.csv"
    labels.write_text(text)
    assert main(["ingest", "--dir", str(files), "--labels", str(labels),
                 "--out", str(tmp_path / "manifest.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"labels.csv, {where}:" in err


def test_ingest_refuses_two_labels_for_one_file(tmp_path, capsys):
    """Two rows that label one file differently are an error naming the file
    and both lines, not a silent pick of the last; a repeated row is not."""
    files = tmp_path / "files"
    files.mkdir()
    (files / "a.bin").write_bytes(b"content")
    labels = tmp_path / "labels.csv"
    labels.write_text("path,label,epoch\na.bin,1,future\na.bin,1,future\n"
                      "a.bin,0,present-train\n")
    out = tmp_path / "manifest.csv"
    argv = ["ingest", "--dir", str(files), "--labels", str(labels), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {labels}, line 4: 'a.bin' is labelled 0,present-train, "
                   f"but {labels}, line 2 labels it 1,future\n")
    assert not out.exists()
    labels.write_text("path,label,epoch\na.bin,1,future\na.bin,1,future\n")
    assert main(argv) == 0
    assert read_manifest(str(out)).records[0].label == 1


@pytest.mark.parametrize("row, message", [
    ("a.bin,abc", "2 columns, want 6"),
    ("a.bin,abc,x,present-train,,0", "label 'x' and allowlisted '0' must each be 0 or 1"),
    ("a.bin,abc,1,present-train,,yes", "label '1' and allowlisted 'yes' must each be 0 or 1"),
    ("a\x00.bin,abc,1,present-train,,0", "a NUL character"),
    ("a" * 200_000 + ",abc,1,present-train,,0", "field larger than field limit (131072)"),
], ids=["short-row", "bad-label", "bad-allowlisted", "nul", "past-the-field-limit"])
def test_filter_bad_manifest_row_exits_one(workdir, tmp_path, capsys, row, message):
    bad = tmp_path / "bad.csv"
    bad.write_text("path,sha256,label,epoch,planted,allowlisted\n" + row + "\n")
    assert main(["filter", "--corpus", str(bad),
                 "--block", str(workdir / "corpus" / "blocklist.yar"),
                 "--out", str(tmp_path / "out.csv"),
                 "--report", str(tmp_path / "filter.json")]) == 1
    assert capsys.readouterr().err == f"error: {bad}, line 2: {message}\n"


@pytest.mark.parametrize("change,message", [
    (lambda doc: doc.pop("bank"), "missing field 'bank'"),
    (None, "not a JSON document"),
    (lambda doc: doc.update(seed="x"), "field 'seed' must be a non-negative integer, not 'x'"),
    (lambda doc: doc.update(seed=-1), "field 'seed' must be a non-negative integer, not -1"),
], ids=["no-bank", "not-json", "seed-string", "seed-negative"])
def test_gen_corpus_on_a_malformed_spec_exits_one(tmp_path, capsys, change, message):
    spec = tmp_path / "spec.json"
    save_spec(CorpusSpec(counts=TINY_COUNTS), spec)
    if change is None:
        spec.write_text("{not json")
    else:
        doc = json.loads(spec.read_text())
        change(doc)
        spec.write_text(json.dumps(doc))
    assert main(["gen-corpus", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_rule_file_that_is_not_utf8_exits_one(tmp_path, capsys):
    bad = tmp_path / "latin.yar"
    bad.write_bytes(b'rule r { strings: $a = "ab\xff\xfe" condition: $a }\n')
    assert main(["rules", "check", str(bad)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: not UTF-8 text (byte 0xff: invalid start byte)\n")


@pytest.mark.parametrize("doc", [
    '{"rows": []}', '{"threshold": 0.5}', "[]",
    '{"threshold": 0.5, "rows": [{"payload_kb": 4}]}',
    '{"threshold": 0.5, "rows": [{"payload_kb": "x", "adv_score": 0.2}]}',
    '{"threshold": 0.5, "rows": [{"payload_kb": 1.0, "adv_score": "a"}]}',
    '{"threshold": 0.5, "rows": [{"payload_kb": Infinity, "adv_score": 0.2}]}',
    '{"threshold": 0.5, "rows": [{"payload_kb": 1.0, "adv_score": null}]}',
    "not json",
    '{"threshold": 0.5, "rows": [{"payload_kb": 1.0, "adv_score": NaN}]}',
    '{"threshold": 0.5, "rows": [{"payload_kb": 1.0, "adv_score": true}]}',
    '{"threshold": 0.5, "rows": [{"payload_kb": 1.0, "adv_score": 1.5}]}',
    '{"threshold": 0.5, "rows": [{"payload_kb": -3.0, "adv_score": 0.1}]}',
    '{"threshold": 0.5, "rows": [{"payload_kb": 1%s, "adv_score": 0.1}]}' % ("0" * 400),
], ids=["no-threshold", "no-rows", "list", "row-fields", "kb-string", "score-string",
        "kb-infinite", "score-null", "not-json", "score-nan", "score-true", "score-1.5",
        "kb-negative", "kb-past-the-largest-float"])
def test_report_on_malformed_results_exits_one(tmp_path, capsys, doc):
    (tmp_path / "results.json").write_text(doc)
    assert main(["report", "--results", str(tmp_path),
                 "--out", str(tmp_path / "summary.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'results.json'}: ") and err.count("\n") == 1
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("text,shown", [("true", "True"), ("NaN", "nan"), ("1.5", "1.5"),
                                        ("-0.1", "-0.1")], ids=["true", "nan", "1.5", "-0.1"])
def test_report_refuses_a_threshold_outside_the_unit_interval(tmp_path, capsys, text, shown):
    """The rule load_system applies to model.json: a threshold is a number in
    [0, 1], and a bool or NaN is not one (`score >= True` would read as >= 1)."""
    (tmp_path / "results.json").write_text(
        '{"threshold": %s, "rows": [{"payload_kb": 1.0, "adv_score": 0.7}]}' % text)
    assert main(["report", "--results", str(tmp_path),
                 "--out", str(tmp_path / "summary.json")]) == 1
    assert capsys.readouterr().err == (f"error: {tmp_path / 'results.json'}: "
                                       f"threshold {shown} is not a number in [0, 1]\n")
    assert not (tmp_path / "summary.json").exists()
