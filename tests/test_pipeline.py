import dataclasses
import random

import numpy as np
import pytest

from sievemal.attack import AttackConfig, attack_sample, harvest_sections
from sievemal.corpus import ManifestRecord, emit_allowlist, emit_rules_from_bank
from sievemal.errors import DegenerateData, ParseError, SpecInvalid
from sievemal.evaluation import read_bytes
from sievemal.features import extract_features
from sievemal.learners import TrainConfig, train_model
from sievemal.pe import build_pe
from sievemal.pipeline import (
    CALIB_FRACTION,
    AiSystem,
    FilterReport,
    Route,
    evaluate,
    filter_training,
    load_system,
    make_oracle,
    model_route,
    predict,
    save_system,
    train_system,
)
from sievemal.rules import parse_rules

DATA = 0xC0000040

GBDT_CFG = TrainConfig(kind="gbdt", seed=0, n_trees=30, max_depth=4)
SVM_CFG = TrainConfig(kind="svm", seed=0, gamma=1e-3, reg=1e-3, max_iters=2000)


@pytest.fixture(scope="module")
def filtered_system(unit_corpus, unit_allowlist, unit_blocklist, unit_spec):
    return train_system(
        unit_corpus.samples("present-train"), unit_allowlist, unit_blocklist,
        GBDT_CFG,
        allow_text=emit_allowlist(unit_corpus),
        block_text=emit_rules_from_bank(unit_spec),
    )


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


# --- stage precedence --------------------------------------------------------

def test_predict_routes_through_stages(filtered_system, unit_corpus):
    by_stage = {"benign_by_allowlist": 0, "malicious_by_blocklist": 0, "ml_score": 0}
    for rec in unit_corpus.samples("present-test"):
        verdict = predict(filtered_system, read(rec.path))
        by_stage[verdict.stage] += 1
        if rec.allowlisted:
            assert verdict.stage == "benign_by_allowlist"
            assert verdict.fired != ()
        elif rec.planted:
            assert verdict.stage == "malicious_by_blocklist"
            assert verdict.fired != ()
        else:
            assert verdict.stage == "ml_score"
            assert 0.0 <= verdict.score <= 1.0
    assert by_stage["benign_by_allowlist"] == 2   # 10% of 20 goodware
    assert by_stage["malicious_by_blocklist"] == 12  # 30% of 40 malware


def test_allowlist_beats_blocklist():
    import hashlib
    raw = build_pe([(b".d", b"contains mal_marker here", DATA)])
    digest = hashlib.sha256(raw).hexdigest()
    allow = 'rule h { condition: hash.sha256(0, filesize) == "%s" }' % digest
    block = 'rule m { strings: $a = "mal_marker" condition: $a }'
    system = AiSystem(allow, block, None, {"threshold": 0.5})
    assert predict(system, raw).stage == "benign_by_allowlist"
    # without the allowlist entry, the same bytes are blocked
    bare = AiSystem("", block, None, {"threshold": 0.5})
    assert predict(bare, raw).stage == "malicious_by_blocklist"
    # the oracle for a file known to be blocklisted keeps the precedence
    for composite, score in ((system, 0.0), (bare, 1.0)):
        score_fn, _ = make_oracle(composite)
        assert score_fn(raw, blocklisted=True) == score_fn(raw) == score


def test_unparsable_file_reports_error(filtered_system):
    verdict = predict(filtered_system, b"not a pe at all")
    assert verdict.stage == "error"
    assert verdict.score is None
    assert verdict.error == "file shorter than a DOS header"
    error = Route("error", 1.0, ("file shorter than a DOS header",))
    assert model_route(filtered_system.model, b"not a pe at all") == error
    assert filtered_system.stage(b"not a pe at all") == error


def test_evaluate_scores_unparsable_files_one_on_both_curves(filtered_system, tmp_path):
    samples = []
    for label in (1, 0):
        path = tmp_path / f"broken{label}.bin"
        path.write_bytes(b"not a pe, label %d" % label)
        samples.append(ManifestRecord(path=str(path), sha256="0" * 64, label=label,
                                      epoch="present-test"))
    report = evaluate(filtered_system, samples)
    # both files share the one score 1.0: a single diagonal step
    expected = [[0.0, 0.0, float("inf")], [1.0, 1.0, 1.0]]
    assert report["composite_roc"] == expected
    assert report["model_roc"] == expected


# --- training-time filtering -------------------------------------------------

def test_filter_report_dict_has_every_field():
    report = FilterReport(per_rule={"b": 1, "a": 2}, io_failures=["x: gone"])
    assert list(report.to_dict()) == [f.name for f in dataclasses.fields(FilterReport)]
    assert report.to_dict() == {"removed_by_allowlist": 0, "removed_by_blocklist": 0,
                                "survivors": 0, "per_rule": {"a": 2, "b": 1},
                                "io_failures": ["x: gone"]}


def test_filter_training_counts(unit_corpus, unit_allowlist, unit_blocklist):
    samples = unit_corpus.samples("present-train")
    survivors, report = filter_training(samples, unit_allowlist, unit_blocklist)
    assert report.removed_by_allowlist == 8    # 10% of 80 goodware
    assert report.removed_by_blocklist == 36   # 30% of 120 malware
    assert report.survivors == len(survivors) == 200 - 8 - 36
    assert sum(report.per_rule.values()) >= 44
    assert report.io_failures == []


def test_filter_training_with_empty_rules_keeps_everything(
        unit_corpus, empty_allowlist, empty_blocklist):
    samples = unit_corpus.samples("present-train")
    survivors, report = filter_training(samples, empty_allowlist, empty_blocklist)
    assert [s.sha256 for s in survivors] == [s.sha256 for s in samples]
    assert report.removed_by_allowlist == report.removed_by_blocklist == 0


def test_filter_training_records_io_failures(empty_allowlist, empty_blocklist):
    missing = ManifestRecord(path="/nonexistent/file.bin", sha256="0" * 64,
                             label=1, epoch="present-train")
    survivors, report = filter_training([missing], empty_allowlist, empty_blocklist)
    assert survivors == []
    assert len(report.io_failures) == 1


# --- system training ---------------------------------------------------------

def test_train_system_reads_each_file_once(unit_corpus, unit_spec, unit_allowlist,
                                           unit_blocklist, monkeypatch):
    import sievemal.evaluation
    import sievemal.pipeline

    opened, extracted = [], []

    def counted_read(path):
        opened.append(path)
        return read_bytes(path)

    def counted_extract(*args):
        extracted.append(args)
        return extract_features(*args)

    monkeypatch.setattr(sievemal.evaluation, "read_bytes", counted_read)
    monkeypatch.setattr(sievemal.pipeline, "extract_features", counted_extract)
    samples = unit_corpus.samples("present-train")
    system = train_system(samples, unit_allowlist, unit_blocklist, GBDT_CFG,
                          allow_text=emit_allowlist(unit_corpus),
                          block_text=emit_rules_from_bank(unit_spec))
    assert len(opened) == 200
    assert sorted(opened) == sorted(r.path for r in samples)
    assert len(extracted) == system.metadata["filter_report"]["survivors"] == 156


def test_train_system_model_equals_one_trained_on_stacked_rows(
        filtered_system, unit_corpus, unit_allowlist, unit_blocklist):
    """The one-matrix build trains the model that stacking the survivors' rows
    and taking the training rows perm[n_calib:] in float64 would train."""
    survivors, _ = filter_training(unit_corpus.samples("present-train"),
                                   unit_allowlist, unit_blocklist)
    X = np.vstack([extract_features(read(rec.path)) for rec in survivors]).astype(np.float64)
    y = np.array([rec.label for rec in survivors])
    perm = np.random.default_rng(GBDT_CFG.seed).permutation(len(y))
    train_idx = perm[max(2, int(len(y) * CALIB_FRACTION)):]
    reference = train_model(X[train_idx], y[train_idx], GBDT_CFG)
    assert filtered_system.model.to_dict() == reference.to_dict()
    assert filtered_system.metadata["train_samples"] == len(train_idx)


def test_train_system_metadata(filtered_system):
    md = filtered_system.metadata
    assert md["filtered"] is True
    assert md["filter_report"]["survivors"] == 156
    assert md["train_samples"] + md["calibration_samples"] == 156
    assert md["config"]["kind"] == "gbdt"
    assert md["threshold"] == filtered_system.threshold
    assert 0.0 <= filtered_system.threshold <= 1.0


def test_train_system_unfiltered_uses_all_samples(
        unit_corpus, empty_allowlist, empty_blocklist):
    system = train_system(unit_corpus.samples("present-train"),
                          empty_allowlist, empty_blocklist, GBDT_CFG)
    md = system.metadata
    assert md["filtered"] is False
    assert md["filter_report"]["survivors"] == 200
    assert md["train_samples"] + md["calibration_samples"] == 200


def test_train_system_svm(unit_corpus, empty_allowlist, empty_blocklist):
    samples = unit_corpus.samples("present-test")
    system = train_system(samples, empty_allowlist, empty_blocklist, SVM_CFG)
    raw = read(samples[0].path)
    verdict = predict(system, raw)
    assert verdict.stage == "ml_score"


def test_train_system_refuses_rules_without_their_text(unit_corpus, unit_spec,
                                                       unit_allowlist, unit_blocklist):
    # save_system writes the texts; rule sets without them would be saved empty
    samples = unit_corpus.samples("present-train")
    with pytest.raises(ValueError, match="allow_text"):
        train_system(samples, unit_allowlist, unit_blocklist, GBDT_CFG)
    with pytest.raises(ValueError, match="block_text"):
        train_system(samples, unit_allowlist, unit_blocklist, GBDT_CFG,
                     allow_text=emit_allowlist(unit_corpus))


def test_calibrated_threshold_stays_at_or_below_the_blocklist_score(
        unit_corpus, unit_spec, unit_blocklist, empty_allowlist):
    """Shuffled labels leave a model whose top calibration score is a
    goodware's, so no point of the calibration curve but its (0, 0, inf) start
    lies within the target FPR. The threshold stays at 1.0, where a
    blocklisted file, which scores 1.0, is still detected."""
    samples = unit_corpus.samples("present-train")
    labels = [r.label for r in samples]
    random.Random(2).shuffle(labels)
    shuffled = [dataclasses.replace(r, label=y) for r, y in zip(samples, labels)]
    system = train_system(shuffled, empty_allowlist, unit_blocklist,
                          TrainConfig(kind="gbdt", seed=0, n_trees=5),
                          block_text=emit_rules_from_bank(unit_spec))
    assert system.threshold == system.metadata["threshold"] == 1.0

    target = next(r for r in unit_corpus.samples("future") if r.planted)
    score_fn, rule_probe = make_oracle(system)
    goodware = [r for r in samples if r.label == 0]
    row, _ = attack_sample(score_fn, read(target.path), harvest_sections(goodware, 10, 0),
                           AttackConfig(query_budget=5, seed=0,
                                        success_threshold=system.threshold), rule_probe)
    assert row["adv_score"] == 1.0
    assert row["fired_on_best"]
    assert not row["evaded"]
    assert row["queries"] == 5


def test_train_system_single_class_survivors_rejected(
        unit_corpus, empty_allowlist, empty_blocklist):
    goodware = [s for s in unit_corpus.samples("present-train") if s.label == 0]
    with pytest.raises(DegenerateData):
        train_system(goodware, empty_allowlist, empty_blocklist, GBDT_CFG)


@pytest.mark.parametrize("n_malware, n_goodware, split", [
    (3, 7, "the 2 calibration rows of the 10 survivors"),
    (1, 3, "the 2 training rows of the 4 survivors"),
], ids=["calibration", "training"])
def test_train_system_refuses_a_split_of_one_class(unit_corpus, empty_allowlist,
                                                   empty_blocklist, n_malware, n_goodware,
                                                   split):
    # seed 0 puts only goodware in the split: no threshold at TARGET_FPR can
    # be calibrated, or no model trained, on it
    records = unit_corpus.samples("present-train")
    tiny = ([r for r in records if r.label == 1][:n_malware]
            + [r for r in records if r.label == 0][:n_goodware])
    with pytest.raises(DegenerateData, match=f"{split} hold a single class"):
        train_system(tiny, empty_allowlist, empty_blocklist, GBDT_CFG)


def test_train_system_deterministic(unit_corpus, empty_allowlist, empty_blocklist):
    samples = unit_corpus.samples("present-test")
    a = train_system(samples, empty_allowlist, empty_blocklist, GBDT_CFG)
    b = train_system(samples, empty_allowlist, empty_blocklist, GBDT_CFG)
    assert a.threshold == b.threshold
    raw = read(samples[0].path)
    assert predict(a, raw) == predict(b, raw)


# --- attack oracle adapter ---------------------------------------------------

def test_make_oracle_score_conventions(filtered_system, unit_corpus):
    score_fn, rule_probe = make_oracle(filtered_system)
    recs = unit_corpus.samples("present-test")
    blocked = next(r for r in recs if r.planted)
    allowed = next(r for r in recs if r.allowlisted)
    plain = next(r for r in recs if not r.planted and not r.allowlisted)
    assert score_fn(read(blocked.path)) == 1.0
    assert rule_probe(read(blocked.path)) != ()
    assert score_fn(read(allowed.path)) == 0.0
    assert 0.0 <= score_fn(read(plain.path)) <= 1.0
    assert rule_probe(read(plain.path)) == ()
    assert score_fn(b"garbage, not a pe") == 1.0


# --- persistence -------------------------------------------------------------

def test_system_save_load_round_trip(filtered_system, unit_corpus, tmp_path):
    out = tmp_path / "system"
    save_system(filtered_system, out)
    loaded = load_system(out)
    assert loaded.threshold == filtered_system.threshold
    assert loaded.metadata == filtered_system.metadata
    for rec in unit_corpus.samples("present-test")[:20]:
        raw = read(rec.path)
        assert predict(loaded, raw) == predict(filtered_system, raw)


def test_system_save_load_without_rules(unit_corpus, empty_allowlist,
                                        empty_blocklist, tmp_path):
    system = train_system(unit_corpus.samples("present-test"),
                          empty_allowlist, empty_blocklist, GBDT_CFG)
    save_system(system, tmp_path / "bare")
    loaded = load_system(tmp_path / "bare")
    assert loaded.allowlist.rules == ()
    assert loaded.blocklist.rules == ()


# --- a system is what save_system writes -------------------------------------

def test_a_replaced_threshold_is_saved(filtered_system, tmp_path):
    system = dataclasses.replace(filtered_system,
                                 metadata={**filtered_system.metadata, "threshold": 0.25})
    assert system.threshold == 0.25
    save_system(system, tmp_path / "system")
    assert load_system(tmp_path / "system").threshold == 0.25


def test_an_all_data_model_behind_the_rules_saves_and_loads(
        unit_corpus, unit_spec, empty_allowlist, empty_blocklist, tmp_path):
    """Arm B of the study: the bare model's metadata behind the corpus rule texts."""
    bare = train_system(unit_corpus.samples("present-train"), empty_allowlist,
                        empty_blocklist, GBDT_CFG)
    arm_b = AiSystem(emit_allowlist(unit_corpus), emit_rules_from_bank(unit_spec),
                     bare.model, bare.metadata)
    save_system(arm_b, tmp_path / "arm-b")
    loaded = load_system(tmp_path / "arm-b")
    assert loaded.threshold == arm_b.threshold == bare.threshold
    for role in ("allowlist", "blocklist"):
        names = [r.name for r in getattr(loaded, role).rules]
        assert names and names == [r.name for r in getattr(arm_b, role).rules]
    recs = unit_corpus.samples("present-test")
    files = [next(r for r in recs if r.allowlisted), next(r for r in recs if r.planted),
             next(r for r in recs if not r.planted and not r.allowlisted)]
    routes = [loaded.stage(read(r.path)) for r in files]
    assert [route.stage for route in routes] == ["allowlist", "blocklist", "ml"]
    assert routes == [arm_b.stage(read(r.path)) for r in files]


def test_a_replaced_rule_text_is_scanned_and_saved(filtered_system, unit_corpus, tmp_path):
    import hashlib
    plain = next(r for r in unit_corpus.samples("present-test")
                 if not r.planted and not r.allowlisted)
    raw = read(plain.path)
    text = ('rule allowed { condition: hash.sha256(0, filesize) == "%s" }\n'
            % hashlib.sha256(raw).hexdigest())
    system = dataclasses.replace(filtered_system, allow_text=text)
    allowed = Route("allowlist", 0.0, ("allowed",))
    assert [r.name for r in system.allowlist.rules] == ["allowed"]
    assert system.stage(raw) == allowed
    save_system(system, tmp_path / "system")
    loaded = load_system(tmp_path / "system")
    assert loaded.allow_text == text and loaded.stage(raw) == allowed


@pytest.mark.parametrize("field", ["allowlist", "blocklist", "threshold"])
def test_a_derived_field_cannot_be_replaced(filtered_system, field):
    with pytest.raises(ValueError, match=f"field {field} is declared with init=False"):
        dataclasses.replace(filtered_system, **{field: getattr(filtered_system, field)})


@pytest.mark.parametrize("metadata, shown", [({}, "None"), ({"threshold": float("nan")}, "nan"),
                                             ({"threshold": 7.5}, "7.5")],
                         ids=["missing", "nan", "7.5"])
def test_construction_refuses_a_threshold_outside_the_unit_interval(metadata, shown):
    with pytest.raises(SpecInvalid) as info:
        AiSystem("", "", None, metadata)
    assert str(info.value) == f"model.json: threshold must be a finite number in [0, 1], not {shown}"


@pytest.mark.parametrize("role", ["allowlist", "blocklist"])
def test_construction_names_the_rule_file_a_parse_error_is_in(role):
    texts = {"allowlist": "", "blocklist": "", role: "rule {"}
    with pytest.raises(ParseError, match=f"^{role}.yar: "):
        AiSystem(texts["allowlist"], texts["blocklist"], None, {"threshold": 0.5})


def test_load_system_parses_each_rule_file_once(unit_system_dir, monkeypatch):
    import sievemal.pipeline

    roles = []

    def counted_parse(text, role="blocklist"):
        roles.append(role)
        return parse_rules(text, role=role)

    monkeypatch.setattr(sievemal.pipeline, "parse_rules", counted_parse)
    system = load_system(unit_system_dir / "system")
    assert roles == ["allowlist", "blocklist"]
    assert len(system.allowlist.rules) and len(system.blocklist.rules)
