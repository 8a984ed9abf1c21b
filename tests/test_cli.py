import json
import os
import sys

import pytest

from sievemal.cli import main
from sievemal.corpus import CorpusSpec, Manifest, read_manifest, save_spec, write_manifest

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
    for name in ("model.json", "metadata.json", "allowlist.yar",
                 "blocklist.yar", "runconfig.json"):
        assert (system / name).exists()
    md = json.loads((system / "metadata.json").read_text())
    assert md["filtered"] is True


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


def test_missing_file_exits_one(tmp_path, capsys):
    assert main(["rules", "check", str(tmp_path / "absent.yar")]) == 1
    assert "error" in capsys.readouterr().err
