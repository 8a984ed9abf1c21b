import re

import pytest

from sievemal.corpus import (
    CorpusSpec,
    emit_allowlist,
    emit_rules_from_bank,
    synthesize_corpus,
    write_manifest,
)
from sievemal.learners import TrainConfig
from sievemal.pipeline import save_system, train_system
from sievemal.rules import RuleSet, parse_rules

# small corpus with exact plant counts: 120*0.3=36, 40*0.3=12, 40*0.45=18
UNIT_COUNTS = {
    "present-train": (120, 80),
    "present-test": (40, 20),
    "future": (40, 20),
}


@pytest.fixture(scope="session")
def unit_spec():
    return CorpusSpec(counts=UNIT_COUNTS, seed=7)


@pytest.fixture(scope="session")
def unit_corpus(unit_spec, tmp_path_factory):
    out = tmp_path_factory.mktemp("unit-corpus")
    manifest = synthesize_corpus(unit_spec, str(out))
    return manifest


@pytest.fixture(scope="session")
def unit_blocklist(unit_spec):
    return parse_rules(emit_rules_from_bank(unit_spec))


@pytest.fixture(scope="session")
def unit_allowlist(unit_corpus):
    return parse_rules(emit_allowlist(unit_corpus), role="allowlist")


@pytest.fixture(scope="session")
def unit_system_dir(unit_corpus, unit_spec, tmp_path_factory):
    """The unit corpus's manifest.csv and a rule-filtered system saved under
    one directory, as the CLI reads them."""
    root = tmp_path_factory.mktemp("unit-system")
    write_manifest(unit_corpus, str(root / "manifest.csv"))
    allow_text = emit_allowlist(unit_corpus)
    block_text = emit_rules_from_bank(unit_spec)
    system = train_system(
        unit_corpus.samples("present-train"),
        parse_rules(allow_text, role="allowlist"), parse_rules(block_text),
        TrainConfig(kind="gbdt", seed=0, n_trees=10),
        allow_text=allow_text, block_text=block_text)
    save_system(system, str(root / "system"))
    return root


@pytest.fixture(scope="session")
def default_corpus(tmp_path_factory):
    """The full-size seed-0 synthetic corpus: 3200 files, plant rates .30/.30/.45."""
    spec = CorpusSpec(seed=0)
    out = tmp_path_factory.mktemp("default-corpus")
    manifest = synthesize_corpus(spec, out)
    return spec, manifest


@pytest.fixture(scope="session")
def empty_allowlist():
    return RuleSet(rules=(), role="allowlist")


@pytest.fixture(scope="session")
def empty_blocklist():
    return RuleSet(rules=(), role="blocklist")


# --- acceptance summary: one PASS/FAIL line per numbered criterion -----------

CRITERIA = {
    1: "rule-engine verdicts match the naive interpreter on 1000+ fuzz cases",
    2: "PE round trips are byte-identical; 1/10/50 injections stay valid",
    3: "rule TPR exactly .3000/.3000/.4500; allowlist removes exact hashes",
    4: "composite ROC never dips below the blocklist floor",
    5: "filtered training keeps future TPR@1%FPR on fewer samples",
    6: "learner numerics (loss monotone, grad/hess, XOR, RBF blobs)",
    7: "attack: budget accounting, bare-model evasion, pipeline resistance, backfire",
    8: "full-confidence ties give a joint ROC step; tpr_at_fpr stays conservative",
    9: "full CLI workflow is byte-identical across two runs of one seed",
}

_acceptance_results = {}


def pytest_runtest_logreport(report):
    m = re.search(r"test_acceptance\.py::test_c(\d+)_", report.nodeid)
    if m and report.when == "call":
        _acceptance_results[int(m.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        outcome = _acceptance_results.get(num)
        word = {"passed": "PASS", None: "SKIP"}.get(outcome, "FAIL")
        terminalreporter.write_line(f"[{word}] criterion {num}: {CRITERIA[num]}")
