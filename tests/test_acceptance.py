"""End-to-end acceptance suite.

Each test covers one numbered guarantee; the terminal summary (see conftest)
prints a PASS/FAIL line per criterion. Every test asserts its own runtime
budget so a regression in speed fails as loudly as one in behavior.
"""

import filecmp
import math
import os
import random
import time

import numpy as np
import pytest

import fuzz_gen
import naive_rules
from sievemal.attack import AttackConfig, attack_sample, gamma_attack, harvest_sections
from sievemal.cli import main as cli_main
from sievemal.corpus import (
    CorpusSpec,
    emit_allowlist,
    emit_rules_from_bank,
)
from sievemal.evaluation import (
    composite_roc,
    detection_rate_curve,
    roc,
    rule_stats,
    tpr_at_fpr,
)
from sievemal.learners import TrainConfig
from sievemal.learners.common import log_loss, logistic_grad_hess
from sievemal.learners.gbdt import predict_gbdt, train_gbdt
from sievemal.learners.svm import predict_svm_rbf, train_svm_rbf
from sievemal.pe import build_pe, inject_section, parse_pe, serialize_pe
from sievemal.pipeline import (
    AiSystem,
    Route,
    make_oracle,
    route_rules,
    train_system,
)
from sievemal.rules import RuleSet, parse_rules, scan

DATA = 0xC0000040
EXEC = 0x60000020


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def bare_model(default_corpus):
    """All-data GBDT system (empty rulesets), 100 trees, calibrated threshold."""
    _, manifest = default_corpus
    return train_system(
        manifest.samples("present-train"),
        RuleSet(rules=(), role="allowlist"), RuleSet(rules=(), role="blocklist"),
        TrainConfig(kind="gbdt", seed=0, n_trees=100))


# -- criterion 1: rule engine agrees with the naive interpreter ---------------

def test_c1_rule_engine_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(1729)
    cases = 0
    for i in range(400):
        text, regex_asts, witnesses = fuzz_gen.gen_rule(rng, f"fz{i}")
        rs = parse_rules(text)
        rule = rs.rules[0]
        for _ in range(3):
            data = fuzz_gen.gen_data(rng, witnesses)
            with fuzz_gen.deadline(f"seed 1729, rule {i}\n{text}"):
                got = scan(data, rs).verdict
                want = naive_rules.naive_scan_verdict(rule, data, regex_asts)
            assert got == want, f"case {cases}\n{text}\ndata={data.hex()}"
            cases += 1
    assert cases >= 1000
    assert time.perf_counter() - start < 30


# -- criterion 2: byte-exact round trips and valid injections -----------------

def test_c2_pe_round_trip_and_injection(default_corpus):
    start = time.perf_counter()
    _, manifest = default_corpus
    for rec in manifest.records:
        raw = read(rec.path)
        assert serialize_pe(parse_pe(raw)) == raw

    rng = np.random.default_rng(0)
    sample = [manifest.records[i]
              for i in rng.choice(len(manifest.records), size=30, replace=False)]
    for n_inject in (1, 10, 50):
        for rec in sample[:10]:
            raw = read(rec.path)
            original = out = parse_pe(raw)
            for j in range(n_inject):
                content = rng.integers(0, 256, int(rng.integers(1, 2000)),
                                       dtype=np.uint8).tobytes()
                out = parse_pe(inject_section(out, b".inj%02d" % j, content))
            assert out.num_sections == original.num_sections + n_inject
            assert out.entry_point_rva == original.entry_point_rva
            for before, after in zip(original.sections, out.sections):
                assert before.data == after.data
    assert time.perf_counter() - start < 30


# -- criterion 3: exact rule TPR per split; allowlist removes exact hashes ----

def test_c3_rule_stats_exact_counts(default_corpus):
    start = time.perf_counter()
    spec, manifest = default_corpus
    block = parse_rules(emit_rules_from_bank(spec))
    allow = parse_rules(emit_allowlist(manifest), role="allowlist")
    samples = manifest.samples()
    # files no rule decides go to the model, whose score rule_stats never reads
    routes = [route_rules(read(s.path), allow, block) or Route("ml", 0.5, ())
              for s in samples]
    c = rule_stats(routes, [s.label for s in samples], [s.epoch for s in samples])

    # by-count equality, zero tolerance
    assert c["present-train"]["blocklist_malware"] * 10 == c["present-train"]["malware_total"] * 3
    assert c["present-test"]["blocklist_malware"] * 10 == c["present-test"]["malware_total"] * 3
    assert c["future"]["blocklist_malware"] * 20 == c["future"]["malware_total"] * 9
    assert c["present-train"]["tpr"] == 0.3000
    assert c["present-test"]["tpr"] == 0.3000
    assert c["future"]["tpr"] == 0.4500
    for epoch in c:
        assert c[epoch]["fpr"] == 0.0

    # the allowlist fires on exactly the registered-hash goodware
    registered = {r.sha256 for r in manifest.records if r.allowlisted}
    assert registered
    for rec in manifest.records:
        fired = scan(read(rec.path), allow).verdict
        assert fired == (rec.sha256 in registered)
    per_epoch_allowlisted = {
        e: sum(1 for r in manifest.records if r.allowlisted and r.epoch == e)
        for e in c}
    for epoch in c:
        assert c[epoch]["allowlist_goodware"] == per_epoch_allowlisted[epoch]
        assert c[epoch]["allowlist_malware"] == 0
    assert time.perf_counter() - start < 60


# -- criterion 4: composite-ROC horizontal floor ------------------------------

def test_c4_composite_roc_floor(default_corpus, bare_model):
    start = time.perf_counter()
    spec, manifest = default_corpus
    # bank rules plus one deliberately false-positive-prone count rule
    fp_block = parse_rules(
        emit_rules_from_bank(spec) + "\n"
        'rule fp_prone { strings: $a = "InstallShield Setup" condition: #a >= 12 }\n')
    system = AiSystem(
        allowlist=RuleSet(rules=(), role="allowlist"), blocklist=fp_block,
        model=bare_model.model, threshold=bare_model.threshold)

    samples = manifest.samples("present-test")
    pairs = [(read(s.path), s.label) for s in samples]
    f_rules = m_rules = g_total = m_total = 0
    for raw, label in pairs:
        if label == 1:
            m_total += 1
        else:
            g_total += 1
        if scan(raw, fp_block).verdict:
            if label == 1:
                m_rules += 1
            else:
                f_rules += 1
    assert 0 < f_rules < g_total   # the floor is real and nontrivial

    curve = composite_roc([system.stage(raw) for raw, _ in pairs],
                          [label for _, label in pairs])
    floor_fpr = f_rules / g_total
    assert all(p[0] >= floor_fpr for p in curve.points)
    min_fpr_points = [p for p in curve.points if p[0] == floor_fpr]
    assert min(p[1] for p in min_fpr_points) == m_rules / m_total

    # 20-sample constructed instance vs exhaustive threshold enumeration
    rng = random.Random(4)
    table, samples20 = {}, []
    for i in range(20):
        raw = b"s%02d" % i
        label = 1 if i < 9 else 0
        r = rng.random()
        if r < 0.3:
            table[raw] = ("blocklist", 1.0, ("r",))
        else:
            table[raw] = ("ml", rng.choice([0.2, 0.5, 0.5, 0.8, 1.0]), ())
        samples20.append((raw, label))
    mr = sum(1 for r, y in samples20 if table[r][0] == "blocklist" and y == 1)
    fr = sum(1 for r, y in samples20 if table[r][0] == "blocklist" and y == 0)
    mt = sum(1 for _, y in samples20 if y == 1)
    gt = 20 - mt
    expected = {(fr / gt, mr / mt)}
    ml = [(table[r][1], y) for r, y in samples20 if table[r][0] == "ml"]
    for t in {s for s, _ in ml}:
        tp = mr + sum(1 for s, y in ml if s >= t and y == 1)
        fp = fr + sum(1 for s, y in ml if s >= t and y == 0)
        expected.add((fp / gt, tp / mt))
    got = {(p[0], p[1]) for p in composite_roc([table[r] for r, _ in samples20],
                                               [y for _, y in samples20]).points}
    assert got == expected
    assert time.perf_counter() - start < 10


# -- criterion 5: filtered training keeps future TPR with fewer samples -------

def test_c5_filtered_training_parity_under_drift(default_corpus, bare_model):
    start = time.perf_counter()
    spec, manifest = default_corpus
    allow_text, block_text = emit_allowlist(manifest), emit_rules_from_bank(spec)
    allow = parse_rules(allow_text, role="allowlist")
    block = parse_rules(block_text)
    cfg = TrainConfig(kind="gbdt", seed=0, n_trees=100)
    filtered = train_system(manifest.samples("present-train"), allow, block, cfg,
                            allow_text=allow_text, block_text=block_text)

    corpus_count = len(manifest.samples("present-train"))
    report = filtered.metadata["filter_report"]
    assert report["survivors"] < corpus_count
    assert report["survivors"] == (corpus_count - report["removed_by_allowlist"]
                                   - report["removed_by_blocklist"])

    pairs = [(read(s.path), s.label) for s in manifest.samples("future")]
    filtered_tpr, _ = tpr_at_fpr(composite_roc([filtered.stage(raw) for raw, _ in pairs],
                                               [label for _, label in pairs]), 0.01)

    score = make_oracle(bare_model)[0]
    scores = [score(raw) for raw, _ in pairs]
    labels = [label for _, label in pairs]
    alldata_tpr, _ = tpr_at_fpr(roc(scores, labels), 0.01)

    assert filtered_tpr >= alldata_tpr - 0.02
    assert time.perf_counter() - start < 120


# -- criterion 6: learner numerics --------------------------------------------

def test_c6_learner_numerics():
    start = time.perf_counter()
    rng = np.random.default_rng(6)

    # (g, h) against central finite differences, 100 random points
    margins = rng.uniform(-6, 6, size=100)
    labels = rng.integers(0, 2, size=100)
    g, h = logistic_grad_hess(margins, labels)
    for i in range(100):
        m, y = margins[i], np.array([labels[i]])
        g_fd = (log_loss(np.array([m + 1e-6]), y)
                - log_loss(np.array([m - 1e-6]), y)) / 2e-6
        h_fd = (log_loss(np.array([m + 1e-4]), y)
                - 2 * log_loss(np.array([m]), y)
                + log_loss(np.array([m - 1e-4]), y)) / 1e-8
        assert math.isclose(g[i], g_fd, rel_tol=1e-4, abs_tol=1e-7)
        assert math.isclose(h[i], h_fd, rel_tol=1e-4, abs_tol=1e-7)

    # four-cluster XOR: depth-2 boosting reaches 99% within 50 rounds,
    # training loss never increases beyond 1e-9
    centers = rng.choice([-1.0, 1.0], size=(1000, 2))
    X = centers + rng.normal(0.0, 0.1, size=(1000, 2))
    y = ((centers[:, 0] > 0) ^ (centers[:, 1] > 0)).astype(np.int64)
    model = train_gbdt(X, y, TrainConfig(seed=0, n_trees=50, max_depth=2,
                                         colsample=1.0, eta=0.5, reg_lambda=0.1))
    losses = model.train_log_loss
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
    acc = float(np.mean((predict_gbdt(model, X) >= 0.5) == (y == 1)))
    assert acc >= 0.99

    # RBF analogue on blobs ten standard deviations apart
    half = 150
    Xb = np.vstack([rng.normal(0.0, 1.0, size=(half, 2)),
                    rng.normal(10.0, 1.0, size=(half, 2))])
    yb = np.array([0] * half + [1] * half)
    svm = train_svm_rbf(Xb, yb, TrainConfig(kind="svm", seed=0, gamma=0.05,
                                            reg=1e-3, max_iters=4000))
    acc_svm = float(np.mean((predict_svm_rbf(svm, Xb) >= 0.5) == (yb == 1)))
    assert acc_svm >= 0.99
    assert time.perf_counter() - start < 60


# -- criterion 7: attack behavior ---------------------------------------------

def test_c7_attack_properties(default_corpus, bare_model):
    start = time.perf_counter()
    spec, manifest = default_corpus
    threshold = bare_model.threshold
    score = make_oracle(bare_model)[0]

    goodware = [s for s in manifest.samples("present-train") if s.label == 0]
    pool = harvest_sections(goodware, k=10, seed=0)

    # (a) every query is traced; the budget is a hard cap
    some_malware = read(next(r.path for r in manifest.samples("present-test")
                             if r.label == 1))
    capped = gamma_attack(lambda raw: 0.9, some_malware, pool,
                          AttackConfig(query_budget=25, seed=0,
                                       success_threshold=0.0))
    assert capped.queries_used == len(capped.queries) == 25

    # (b) the seeded attack strictly lowers the bare model's detection rate
    attacked = []
    for rec in manifest.samples("present-test"):
        if rec.label != 1:
            continue
        raw = read(rec.path)
        if score(raw) >= threshold:
            attacked.append((rec, raw))
        if len(attacked) == 10:
            break
    assert len(attacked) == 10
    cfg = AttackConfig(query_budget=200, lam=1e-5, seed=7,
                       success_threshold=threshold)
    bare_rows = []
    for rec, raw in attacked:
        row, _ = attack_sample(score, raw, pool, cfg)
        assert row["queries"] <= cfg.query_budget
        bare_rows.append(row)
    clean_rate = 1.0  # subset chosen above threshold
    adv_rate = sum(1 for row in bare_rows if row["adv_score"] >= threshold) / len(bare_rows)
    assert adv_rate < clean_rate

    # (c) the rule-armed pipeline resists at least as well per payload bucket
    block = parse_rules(emit_rules_from_bank(spec))
    allow = parse_rules(emit_allowlist(manifest), role="allowlist")
    pipeline = AiSystem(allowlist=allow, blocklist=block,
                        model=bare_model.model, threshold=threshold)
    oracle, probe = make_oracle(pipeline)
    planted = [read(rec.path) for rec in manifest.samples("present-test") if rec.planted][:10]
    pipe_rows = [attack_sample(oracle, raw, pool, cfg, probe)[0] for raw in planted]
    bare_rows = [attack_sample(score, raw, pool, cfg)[0] for raw in planted]
    pipe_curve = dict(detection_rate_curve(pipe_rows, threshold))
    bare_curve = dict(detection_rate_curve(bare_rows, threshold))
    for bucket in set(pipe_curve) & set(bare_curve):
        assert pipe_curve[bucket] >= bare_curve[bucket]
    pipe_rate = sum(1 for row in pipe_rows if row["adv_score"] >= threshold) / len(pipe_rows)
    bare_rate = sum(1 for row in bare_rows if row["adv_score"] >= threshold) / len(bare_rows)
    assert pipe_rate >= bare_rate

    # (d) backfire: a filesize-guarded rule fires on the adversarial file
    # but not on the benign file its payload came from
    guard_limit = 6 * 1024
    benign_source = build_pe(
        [(b".text", b"\x90" * 256, EXEC),
         (b".rsrc", b"trapmark-payload" + b"\x00" * 7000, DATA)])
    assert len(benign_source) >= guard_limit
    guarded = parse_rules(
        emit_rules_from_bank(spec)
        + f'\nrule guard_backfire {{ strings: $a = "trapmark-payload" '
          f'condition: $a and filesize < {guard_limit} }}\n')
    assert not scan(benign_source, guarded).verdict

    small_malware = build_pe([(b".text", b"\xcc" * 128, EXEC)])
    src = parse_pe(benign_source).sections[1]
    adversarial = inject_section(parse_pe(small_malware), b".gamma00", src.data[:64])
    assert len(adversarial) < guard_limit
    res = scan(adversarial, guarded)
    assert "guard_backfire" in res.rule_names
    assert time.perf_counter() - start < 180


# -- criterion 8: ties at full confidence -------------------------------------

def test_c8_full_confidence_ties():
    scores = [1.0, 1.0, 1.0, 1.0, 0.4, 0.2]
    labels = [1, 1, 1, 0, 0, 0]
    curve = roc(scores, labels)
    # the 1.0 block is one joint diagonal step, not separable points
    assert curve.points[1] == (1 / 3, 1.0, 1.0)
    got_tpr, _ = tpr_at_fpr(curve, 0.01)
    assert got_tpr == 0.0   # conservative: fpr 1/3 is not <= 1%
    achieved = [p for p in curve.points if p[0] <= 0.01]
    assert all(p[0] <= 0.01 for p in achieved)
    got_tpr_loose, _ = tpr_at_fpr(curve, 1 / 3)
    assert got_tpr_loose == 1.0


# -- criterion 9: end-to-end CLI determinism ----------------------------------

def run_cli_workflow(root, monkeypatch):
    """gen-corpus -> train -> eval -> attack -> report, all relative paths."""
    os.makedirs(root, exist_ok=True)
    monkeypatch.chdir(root)
    spec = CorpusSpec(
        counts={"present-train": (60, 40), "present-test": (20, 14), "future": (20, 14)},
        seed=33)
    from sievemal.corpus import save_spec
    save_spec(spec, "spec.json")
    assert cli_main(["gen-corpus", "--spec", "spec.json", "--out", "corpus"]) == 0
    assert cli_main([
        "train", "--corpus", "corpus/manifest.csv",
        "--allow", "corpus/allowlist.yar", "--block", "corpus/blocklist.yar",
        "--system-out", "system", "--seed", "33", "--n-trees", "30"]) == 0
    assert cli_main([
        "eval", "--system", "system", "--corpus", "corpus/manifest.csv",
        "--split", "future", "--report", "eval.json"]) == 0
    assert cli_main([
        "attack", "--system", "system", "--malware", "corpus/manifest.csv",
        "--pool-source", "corpus/manifest.csv", "--sections", "10",
        "--budget", "10", "--seed", "33", "--out", "attack"]) == 0
    assert cli_main(["report", "--results", "attack", "--out", "summary.json"]) == 0


def test_c9_end_to_end_determinism(tmp_path, monkeypatch):
    run_cli_workflow(tmp_path / "run1", monkeypatch)
    run_cli_workflow(tmp_path / "run2", monkeypatch)

    compare = [
        "corpus/manifest.csv", "corpus/blocklist.yar", "corpus/allowlist.yar",
        "system/model.json",
        "eval.json", "eval.composite.dat", "eval.model.dat",
        "attack/results.json", "summary.json",
    ]
    a = tmp_path / "run1"
    b = tmp_path / "run2"
    compare += [os.path.join("attack", n) for n in os.listdir(a / "attack")
                if n.endswith(".jsonl")]
    for rel in compare:
        assert (a / rel).exists() and (b / rel).exists(), rel
        assert filecmp.cmp(a / rel, b / rel, shallow=False), f"{rel} differs"
