"""AI-system composition: allowlist, blocklist, and model in sequence, with
rule-based filtering of the training corpus.

Stage order is allowlist first (known-good short-circuits), blocklist second,
model last; a sample decided by rules never reaches the model.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateData, FeatureFailure, MalformedPe, ParseError, SpecInvalid
from . import evaluation
from .features import DIM, extract_features
from .learners import TrainConfig, model_from_dict, score_model, train_model
from .rules import RuleSet, parse_rules, scan

TARGET_FPR = 0.01
CALIB_FRACTION = 0.1
SYSTEM_FORMAT = "sievemal-system"
SYSTEM_FORMAT_VERSION = 1


class Route(NamedTuple):
    """How the composite system decides one file: the deciding stage, the score
    the system gives the file and the rules that fired. Every ROC curve and
    attack reads its score off this one field.

    The stage is allowlist (score 0.0), blocklist (1.0), ml (the model's score)
    or error (1.0: a file the model cannot parse or featurize counts as
    detected). Route stays a 3-tuple: the benchmark's tracer unpacks
    AiSystem.stage() as (stage, score, fired) and counts each call under its
    stage name, so an unscorable file counts under error."""
    stage: str                    # allowlist | blocklist | ml | error
    score: float                  # never None
    fired: tuple                  # rule names; empty for ml, error and an unscanned blocklist


@dataclass(frozen=True)
class Verdict:
    stage: str                    # benign_by_allowlist | malicious_by_blocklist | ml_score | error
    score: float | None = None
    fired: tuple = ()
    error: str | None = None


@dataclass
class FilterReport:
    removed_by_allowlist: int = 0
    removed_by_blocklist: int = 0
    survivors: int = 0
    per_rule: dict = field(default_factory=dict)
    io_failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class AiSystem:
    allowlist: RuleSet
    blocklist: RuleSet
    model: object
    threshold: float
    allow_text: str = ""
    block_text: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.allowlist.role != "allowlist" or self.blocklist.role != "blocklist":
            raise ValueError("ruleset roles do not match their slots")

    def stage(self, raw: bytes) -> Route:
        """Rules first; the model scores only what no rule decides."""
        return (route_rules(raw, self.allowlist, self.blocklist)
                or model_route(self.model, raw))


def route_rules(raw: bytes, allow: RuleSet, block: RuleSet,
                blocklisted: bool = False) -> Route | None:
    """The allowlist -> blocklist precedence: the route of the first ruleset
    that fires on raw, or None when neither does.

    blocklisted says that the blocklist is known to fire on raw, as it is on
    every mutant of a target that attack.blocklist_settled settles: the
    blocklist is then not scanned, and its route names no rules."""
    for stage, rs, score in (("allowlist", allow, 0.0), ("blocklist", block, 1.0)):
        if stage == "blocklist" and blocklisted:
            return Route(stage, score, ())
        if len(rs.rules):
            res = scan(raw, rs)
            if res.verdict:
                return Route(stage, score, res.rule_names)
    return None


def model_route(model, raw: bytes) -> Route:
    """The model's route for one file: its score, or the error route when the
    file cannot be parsed or featurized."""
    try:
        vec = extract_features(raw)
    except (MalformedPe, FeatureFailure):
        return Route("error", 1.0, ())
    return Route("ml", float(score_model(model, vec[None, :])[0]), ())


def predict(system: AiSystem, raw: bytes) -> Verdict:
    """Stage routing per the system definition; rule stages never fail."""
    stage, score, fired = system.stage(raw)
    if stage == "allowlist":
        return Verdict(stage="benign_by_allowlist", fired=fired)
    if stage == "blocklist":
        return Verdict(stage="malicious_by_blocklist", fired=fired)
    if stage == "error":
        # model_route keeps no reason; extraction is deterministic, so it fails again
        try:
            extract_features(raw)
        except (MalformedPe, FeatureFailure) as exc:
            return Verdict(stage="error", error=str(exc))
    return Verdict(stage="ml_score", score=score)


def _route_training(records, allow: RuleSet, block: RuleSet, report: FilterReport):
    """Reads each record's file once, counts what the rules remove into report
    and yields (record, raw) for every file no rule fires on."""
    for rec in records:
        try:
            with open(rec.path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            report.io_failures.append(f"{rec.path}: {exc}")
            continue
        route = route_rules(raw, allow, block)
        if route is None:
            report.survivors += 1
            yield rec, raw
            continue
        if route.stage == "allowlist":
            report.removed_by_allowlist += 1
        else:
            report.removed_by_blocklist += 1
        for name in route.fired:
            report.per_rule[name] = report.per_rule.get(name, 0) + 1


def filter_training(records, allow: RuleSet, block: RuleSet):
    """Drop every record on whose file either ruleset fires, regardless of label."""
    report = FilterReport()
    survivors = [rec for rec, _ in _route_training(records, allow, block, report)]
    return survivors, report


def featurize(pairs, n: int):
    """Features of up to n (record, raw) pairs in one preallocated float32
    (n, DIM) matrix, whose unfilled rows are never touched: (the filled rows,
    their records, (record, reason) for each file that cannot be featurized)."""
    X = np.empty((n, DIM), dtype=np.float32)
    kept, failures = [], []
    for rec, raw in pairs:
        try:
            X[len(kept)] = extract_features(raw)
        except (MalformedPe, FeatureFailure) as exc:
            failures.append((rec, str(exc)))
            continue
        kept.append(rec)
    return X[:len(kept)], kept, failures


def train_system(records, allow: RuleSet, block: RuleSet, cfg: TrainConfig,
                 allow_text: str = "", block_text: str = "") -> AiSystem:
    """Filter the records with the rules and train on the survivors, in one pass
    that reads each file once; threshold calibrated on a held-out split of the
    survivors at the target FPR. allow_text and block_text are the sources that
    save_system writes, so each must parse to the ruleset it goes with."""
    for text, rs, name in ((allow_text, allow, "allow_text"), (block_text, block, "block_text")):
        if parse_rules(text, role=rs.role).rules != rs.rules:
            raise ValueError(f"{name} does not parse to the {rs.role} the records are "
                             f"filtered with ({len(rs.rules)} rules), and it is the text "
                             "that save_system saves")
    report = FilterReport()
    X, kept, _ = featurize(_route_training(records, allow, block, report), len(records))
    if not kept:
        raise DegenerateData("no extractable samples")
    y = np.array([rec.label for rec in kept])
    if len(np.unique(y)) < 2:
        raise DegenerateData("survivors contain a single class")

    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(len(y))
    n_calib = max(2, int(len(y) * CALIB_FRACTION))
    # the one copy: calibration rows first, then the training rows in perm order
    X, y = X[perm], y[perm]
    X_train, y_train = X[n_calib:], y[n_calib:]
    y_calib = y[:n_calib]
    for split, labels in (("training", y_train), ("calibration", y_calib)):
        if len(np.unique(labels)) < 2:
            raise DegenerateData(f"the {len(labels)} {split} rows of the {len(y)} survivors "
                                 "hold a single class")
    model = train_model(X_train, y_train, cfg)

    calib_scores = score_model(model, X[:n_calib])
    _, threshold = evaluation.tpr_at_fpr(evaluation.roc(calib_scores, y_calib), TARGET_FPR)
    # the curve's first point has threshold inf; model scores lie in [0, 1]
    # and the blocklist scores 1.0, which must stay detected
    threshold = min(threshold, 1.0)

    metadata = {
        "filtered": bool(len(allow.rules) or len(block.rules)),
        "filter_report": report.to_dict(),
        "seed": cfg.seed,
        "target_fpr": TARGET_FPR,
        "threshold": float(threshold),
        "train_samples": int(len(y_train)),
        "calibration_samples": int(n_calib),
        "config": cfg.to_dict(),
    }
    return AiSystem(allowlist=allow, blocklist=block, model=model,
                    threshold=float(threshold), allow_text=allow_text,
                    block_text=block_text, metadata=metadata)


def evaluate(system: AiSystem, samples) -> dict:
    """The eval report of a system on manifest records: both ROC curves (the
    composite system's and the bare model's) as rows, their TPRs at TARGET_FPR
    (None where a curve's rule floor lies above it) and the rule statistics per
    split. Each file is read and routed once; the model also scores the files
    a rule decided, for the bare curve."""
    routes, bare_scores = [], []
    for s in samples:
        with open(s.path, "rb") as fh:
            raw = fh.read()
        route = system.stage(raw)
        routes.append(route)
        rule_decided = route.stage in ("allowlist", "blocklist")
        bare_scores.append((model_route(system.model, raw) if rule_decided else route).score)
    labels = [s.label for s in samples]
    composite = evaluation.composite_roc(routes, labels)
    bare = evaluation.roc(bare_scores, labels)
    return {
        "threshold": system.threshold,
        "composite_roc": evaluation.curve_rows(composite),
        "model_roc": evaluation.curve_rows(bare),
        "composite_tpr_at_1fpr": evaluation.tpr_at_fpr(composite, TARGET_FPR)[0],
        "model_tpr_at_1fpr": evaluation.tpr_at_fpr(bare, TARGET_FPR)[0],
        "rule_stats": evaluation.rule_stats(routes, labels, [s.epoch for s in samples]),
    }


def make_oracle(system: AiSystem):
    """(score_fn, rule_probe) for black-box attacks: the score of the file's
    route, and the rules that fire on it.

    score_fn(raw, blocklisted=True) is for a file the blocklist is known to
    fire on: it scans the allowlist alone and gives the same score, 0.0 where
    the allowlist fires and 1.0 elsewhere. The allowlist still runs, since a
    mutant may be byte-identical to an allowlisted file."""

    def score_fn(raw: bytes, blocklisted: bool = False) -> float:
        if blocklisted:
            return route_rules(raw, system.allowlist, system.blocklist, blocklisted).score
        return system.stage(raw).score

    def rule_probe(raw: bytes):
        route = route_rules(raw, system.allowlist, system.blocklist)
        return route.fired if route else ()

    return score_fn, rule_probe


# --- system artifact directory ----------------------------------------------

def save_system(system: AiSystem, directory):
    """The directory holds the two rule texts and model.json, one document with
    the model and its training metadata, which write_report writes."""
    os.makedirs(directory, exist_ok=True)
    for name, text in (("allowlist.yar", system.allow_text), ("blocklist.yar", system.block_text)):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    evaluation.write_report(os.path.join(directory, "model.json"), {
        "format": SYSTEM_FORMAT, "version": SYSTEM_FORMAT_VERSION,
        "metadata": system.metadata, "model": system.model.to_dict()})


def read_rules(path, role: str) -> tuple:
    """(text, RuleSet) of a rule file (evaluation.read_text), or no rules for an
    empty path; a parse error names the file."""
    text = evaluation.read_text(path) if path else ""
    try:
        return text, parse_rules(text, role=role)
    except ParseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def load_system(directory) -> AiSystem:
    """The system save_system wrote. A rule file read_rules refuses, or a
    model.json that is not a system document, whose threshold is not a number
    in [0, 1] or whose model does not read DIM features, raises naming it."""
    allow_text, allowlist = read_rules(os.path.join(directory, "allowlist.yar"), "allowlist")
    block_text, blocklist = read_rules(os.path.join(directory, "blocklist.yar"), "blocklist")
    path = os.path.join(directory, "model.json")
    doc = evaluation.read_report(path)
    try:
        if not (isinstance(doc, dict) and doc.get("format") == SYSTEM_FORMAT
                and doc.get("version") == SYSTEM_FORMAT_VERSION):
            raise SpecInvalid(f"not a system document: want format {SYSTEM_FORMAT!r} "
                              f"version {SYSTEM_FORMAT_VERSION}")
        metadata = doc.get("metadata")
        if not isinstance(metadata, dict):
            raise SpecInvalid("no 'metadata' object")
        threshold = metadata.get("threshold")
        evaluation.check_threshold(threshold)
        model = model_from_dict(doc.get("model"))
        if model.n_features != DIM:
            raise SpecInvalid(f"the model reads {model.n_features} features, not {DIM}")
    except SpecInvalid as exc:
        raise SpecInvalid(f"{path}: {exc}") from None
    return AiSystem(allowlist=allowlist, blocklist=blocklist, model=model,
                    threshold=float(threshold), allow_text=allow_text,
                    block_text=block_text, metadata=metadata)
