"""The benchmark's tracer patches sievemal by name from outside the package.

These tests install it on the unit system and drive every call form the
benchmark's traced workloads depend on, so that a refactor that renames or
reshapes one of those names fails here instead of in a traced benchmark run.
"""

import importlib.util
import pathlib
import sys

import pytest

import sievemal.rules.engine
from sievemal import cli, pipeline
from sievemal.corpus import emit_allowlist, emit_rules_from_bank
from sievemal.learners import TrainConfig

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
    recs = unit_corpus.samples("present-test")
    files = [read(r.path) for r in (next(r for r in recs if r.allowlisted),
                                    next(r for r in recs if r.planted),
                                    next(r for r in recs if not r.planted
                                         and not r.allowlisted))]
    files.append(b"not a pe at all")
    tracer = tracing.Tracer().install()
    try:
        tracer.phase = "pass"
        system = pipeline.load_system(unit_system_dir / "system")
        verdicts = [pipeline.predict(system, raw) for raw in files]
        score_fn, rule_probe = pipeline.make_oracle(system)
        assert score_fn(files[1]) == score_fn(files[3]) == 1.0
        assert rule_probe(files[1]) == verdicts[1].fired
        assert cli.main(["eval", "--system", str(unit_system_dir / "system"),
                         "--corpus", str(unit_system_dir / "manifest.csv"),
                         "--split", "future", "--report", str(tmp_path / "eval.json")]) == 0
    finally:
        tracer.uninstall()

    assert [v.stage for v in verdicts] == [
        "benign_by_allowlist", "malicious_by_blocklist", "ml_score", "error"]
    assert verdicts[3].error == "file shorter than a DOS header"
    names = {name for (_, name) in tracer.calls}
    for name in ("pipeline.load_system", "pipeline.predict", "pipeline.stage.allowlist",
                 "pipeline.stage.blocklist", "pipeline.stage.ml", "pipeline.stage.error",
                 "rules.scan.allowlist", "rules.scan.blocklist", "features.extract_features",
                 "pe.parse_pe",
                 "learners.predict_gbdt.single", "attack.oracle", "attack.rule_probe",
                 "evaluation.composite_roc", "evaluation.rule_stats", "evaluation.roc"):
        assert name in names, name
    assert tracer.total("pipeline.predict")[0] == len(files)
    assert (pipeline.predict, pipeline.make_oracle, pipeline.scan,
            pipeline.AiSystem.__dict__["stage"], sievemal.rules.engine.scan) == originals


def test_call_counter_counts_scans_and_extractions(tracing, unit_system_dir, unit_corpus):
    system = pipeline.load_system(unit_system_dir / "system")
    plain = next(r for r in unit_corpus.samples("future")
                 if not r.planted and not r.allowlisted)
    counter = tracing.CallCounter().install()
    try:
        counter.phase = "predict"
        pipeline.predict(system, read(plain.path))
        counter.phase = "unparseable"
        pipeline.predict(system, b"not a pe at all")
    finally:
        counter.uninstall()
    assert counter.total("rules.scan", "predict") == 2
    assert counter.total("features.extract_features", "predict") == 1
    # the error route carries its reason, so no second extraction asks for it
    assert counter.total("features.extract_features", "unparseable") == 1
    assert pipeline.scan is sievemal.rules.engine.scan


def sievemal_attributes():
    """Every attribute of every loaded sievemal module, and the traced methods."""
    attrs = {(name, key): value for name, module in list(sys.modules.items())
             if module is not None and name.split(".")[0] == "sievemal"
             for key, value in vars(module).items()}
    attrs["AiSystem.stage"] = pipeline.AiSystem.__dict__["stage"]
    attrs["Tree.predict_margin"] = sievemal.learners.gbdt.Tree.__dict__["predict_margin"]
    return attrs


def test_tracer_and_counter_see_one_training_pass(tracing, unit_corpus, unit_spec,
                                                  unit_allowlist, unit_blocklist):
    """The set-up of a traced benchmark run: train_system under both instruments."""
    texts = {"allow_text": emit_allowlist(unit_corpus),
             "block_text": emit_rules_from_bank(unit_spec)}
    before = sievemal_attributes()
    counter = tracing.CallCounter().install()
    tracer = tracing.Tracer().install()
    try:
        counter.phase = tracer.phase = "train"
        system = pipeline.train_system(unit_corpus.samples("present-train"),
                                       unit_allowlist, unit_blocklist,
                                       TrainConfig(kind="gbdt", seed=0, n_trees=5),
                                       **texts)
    finally:
        tracer.uninstall()
        counter.uninstall()

    survivors = system.metadata["filter_report"]["survivors"]
    assert survivors == 156
    names = {name for (_, name) in tracer.calls}
    for name in ("pipeline.train_system", "features.extract_features", "pe.parse_pe",
                 "learners.train_gbdt"):
        assert name in names, name
    assert counter.total("features.extract_features", "train") == survivors
    assert tracer.total("features.extract_features")[0] == survivors
    after = sievemal_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
