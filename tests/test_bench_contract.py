"""The benchmark's tracer patches sievemal by name from outside the package.

These tests install it on the unit system and drive every call form the
benchmark's traced workloads depend on, so that a refactor that renames or
reshapes one of those names fails here instead of in a traced benchmark run.
"""

import importlib.util
import pathlib

import pytest

import sievemal.rules.engine
from sievemal import cli, pipeline

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_tracer_sees_predict_oracle_and_eval(tracing, unit_system_dir, unit_corpus,
                                            tmp_path):
    originals = (pipeline.predict, pipeline.make_oracle, pipeline.scan,
                 pipeline.AiSystem.__dict__["stage"], sievemal.rules.engine.scan)
    recs = unit_corpus.by_epoch("present-test")
    files = [read(r.path) for r in (next(r for r in recs if r.allowlisted),
                                    next(r for r in recs if r.planted),
                                    next(r for r in recs if not r.planted
                                         and not r.allowlisted))]
    tracer = tracing.Tracer().install()
    try:
        tracer.phase = "pass"
        system = pipeline.load_system(unit_system_dir / "system")
        verdicts = [pipeline.predict(system, raw) for raw in files]
        score_fn, rule_probe = pipeline.make_oracle(system)
        assert score_fn(files[1]) == 1.0
        assert rule_probe(files[1]) == verdicts[1].fired
        assert cli.main(["eval", "--system", str(unit_system_dir / "system"),
                         "--corpus", str(unit_system_dir / "manifest.csv"),
                         "--split", "future", "--report", str(tmp_path / "eval.json")]) == 0
    finally:
        tracer.uninstall()

    assert [v.stage for v in verdicts] == [
        "benign_by_allowlist", "malicious_by_blocklist", "ml_score"]
    names = {name for (_, name) in tracer.calls}
    for name in ("pipeline.load_system", "pipeline.predict", "pipeline.stage.allowlist",
                 "pipeline.stage.blocklist", "pipeline.stage.ml", "rules.scan.allowlist",
                 "rules.scan.blocklist", "features.extract_features", "pe.parse_pe",
                 "learners.predict_gbdt.single", "attack.oracle", "attack.rule_probe",
                 "evaluation.composite_roc", "evaluation.rule_stats", "evaluation.roc"):
        assert name in names, name
    assert tracer.total("pipeline.predict")[0] == len(files)
    assert (pipeline.predict, pipeline.make_oracle, pipeline.scan,
            pipeline.AiSystem.__dict__["stage"], sievemal.rules.engine.scan) == originals


def test_call_counter_counts_scans_and_extractions(tracing, unit_system_dir, unit_corpus):
    system = pipeline.load_system(unit_system_dir / "system")
    plain = next(r for r in unit_corpus.by_epoch("future")
                 if not r.planted and not r.allowlisted)
    counter = tracing.CallCounter().install()
    try:
        counter.phase = "predict"
        pipeline.predict(system, read(plain.path))
    finally:
        counter.uninstall()
    assert counter.total("rules.scan", "predict") == 2
    assert counter.total("features.extract_features", "predict") == 1
    assert pipeline.scan is sievemal.rules.engine.scan
