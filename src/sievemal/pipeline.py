"""AI-system composition: allowlist, blocklist, and model in sequence, with
rule-based filtering of the training corpus.

Stage order is allowlist first (known-good short-circuits), blocklist second,
model last; a sample decided by rules never reaches the model.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateData, FeatureFailure, MalformedPe, SpecInvalid
from . import evaluation
from .features import DIM, extract_features
from .learners import TrainConfig, load_model, save_model, score_model, train_model
from .rules import RuleSet, parse_rules, scan

TARGET_FPR = 0.01
CALIB_FRACTION = 0.1


class Route(NamedTuple):
    """How one sample was routed: the deciding stage, the model score and the
    rules that fired."""
    stage: str                    # allowlist | blocklist | ml
    score: float | None           # ml only; None when extraction failed
    fired: tuple                  # rule names; empty for ml


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
                or Route("ml", model_score(self.model, raw), ()))


def route_rules(raw: bytes, allow: RuleSet, block: RuleSet) -> Route | None:
    """The allowlist -> blocklist precedence: the route of the first ruleset
    that fires on raw, or None when neither does."""
    for stage, rs in (("allowlist", allow), ("blocklist", block)):
        if len(rs.rules):
            res = scan(raw, rs)
            if res.verdict:
                return Route(stage, None, res.rule_names)
    return None


def model_score(model, raw: bytes) -> float | None:
    """The model's score for one file, or None when it cannot be parsed or
    featurized."""
    try:
        vec = extract_features(raw)
    except (MalformedPe, FeatureFailure):
        return None
    return float(score_model(model, vec[None, :])[0])


def predict(system: AiSystem, raw: bytes) -> Verdict:
    """Stage routing per the system definition; rule stages never fail."""
    stage, score, fired = system.stage(raw)
    if stage == "allowlist":
        return Verdict(stage="benign_by_allowlist", fired=fired)
    if stage == "blocklist":
        return Verdict(stage="malicious_by_blocklist", fired=fired)
    if score is None:
        # model_score keeps no reason; extraction is deterministic, so it fails again
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
    survivors at the target FPR."""
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
    if len(np.unique(y_train)) < 2:
        X_train, y_train = X, y  # tiny corpus: train on everything
    model = train_model(X_train, y_train, cfg)

    y_calib = y[:n_calib]
    calib_scores = score_model(model, X[:n_calib])
    if len(np.unique(y_calib)) < 2:
        threshold = 0.5
    else:
        _, threshold = evaluation.tpr_at_fpr(evaluation.roc(calib_scores, y_calib), TARGET_FPR)

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
        score = route.score if route.stage == "ml" else model_score(system.model, raw)
        routes.append(route)
        bare_scores.append(1.0 if score is None else score)
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
    """(score_fn, rule_probe) for black-box attacks: blocklist hit scores 1.0,
    allowlist hit 0.0, otherwise the model score. Extraction failure scores 1.0."""

    def score_fn(raw: bytes) -> float:
        stage, score, _ = system.stage(raw)
        if stage == "allowlist":
            return 0.0
        return 1.0 if score is None else score  # blocklist routes carry no score

    def rule_probe(raw: bytes):
        route = route_rules(raw, system.allowlist, system.blocklist)
        return route.fired if route else ()

    return score_fn, rule_probe


# --- system artifact directory ----------------------------------------------

def _training_digest(metadata) -> str:
    return hashlib.sha256(json.dumps(metadata, sort_keys=True).encode()).hexdigest()


def save_system(system: AiSystem, directory):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "allowlist.yar"), "w", encoding="utf-8") as fh:
        fh.write(system.allow_text)
    with open(os.path.join(directory, "blocklist.yar"), "w", encoding="utf-8") as fh:
        fh.write(system.block_text)
    save_model(system.model, os.path.join(directory, "model.json"),
               training_digest=_training_digest(system.metadata))
    evaluation.write_report(os.path.join(directory, "metadata.json"), system.metadata)


def load_system(directory) -> AiSystem:
    """The system save_system wrote; a model.json whose training_digest is not
    the digest of metadata.json (a model of another training) is refused."""
    with open(os.path.join(directory, "allowlist.yar"), encoding="utf-8") as fh:
        allow_text = fh.read()
    with open(os.path.join(directory, "blocklist.yar"), encoding="utf-8") as fh:
        block_text = fh.read()
    meta_path = os.path.join(directory, "metadata.json")
    metadata = evaluation.read_report(meta_path)
    if not (isinstance(metadata, dict) and isinstance(metadata.get("threshold"), (int, float))):
        raise SpecInvalid(f"{meta_path}: not system metadata: want an object with a numeric "
                          "'threshold'")
    model_path = os.path.join(directory, "model.json")
    model, training_digest = load_model(model_path)
    if training_digest != _training_digest(metadata):
        raise SpecInvalid(f"{model_path} was not saved with {meta_path}: its training_digest "
                          f"is not the sha256 of that metadata")
    allow = parse_rules(allow_text, role="allowlist")
    block = parse_rules(block_text, role="blocklist")
    return AiSystem(allowlist=allow, blocklist=block, model=model,
                    threshold=metadata["threshold"], allow_text=allow_text,
                    block_text=block_text, metadata=metadata)
