"""AI-system composition: allowlist, blocklist, and model in sequence, with
rule-based filtering of the training corpus.

Stage order is allowlist first (known-good short-circuits), blocklist second,
model last; a sample decided by rules never reaches the model.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateData, FeatureFailure, MalformedPe
from .features import extract_features
from .learners import (
    GbdtModel,
    RbfSvmModel,
    TrainConfig,
    load_model,
    predict_gbdt,
    predict_svm_rbf,
    save_model,
    train_gbdt,
    train_svm_rbf,
)
from .pe import parse_pe
from .rules import RuleSet, parse_rules, scan

DEFAULT_TARGET_FPR = 0.01
CALIB_FRACTION = 0.1


@dataclass(frozen=True)
class Sample:
    sha256: str
    path: str
    label: int                    # goodware 0 | malware 1
    epoch: str                    # present-train | present-test | future


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
        return {
            "removed_by_allowlist": self.removed_by_allowlist,
            "removed_by_blocklist": self.removed_by_blocklist,
            "survivors": self.survivors,
            "per_rule": dict(sorted(self.per_rule.items())),
            "io_failures": list(self.io_failures),
        }


def score_model(model, X) -> np.ndarray:
    if isinstance(model, GbdtModel):
        return predict_gbdt(model, X)
    if isinstance(model, RbfSvmModel):
        return predict_svm_rbf(model, X)
    raise TypeError(f"unknown model type {type(model)!r}")


def train_model(X, y, cfg: TrainConfig):
    if cfg.kind == "gbdt":
        return train_gbdt(X, y, cfg)
    return train_svm_rbf(X, y, cfg)


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
        vec = extract_features(parse_pe(raw), raw)
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
        return Verdict(stage="error", error="feature extraction failed")
    return Verdict(stage="ml_score", score=score)


def filter_training(corpus, allow: RuleSet, block: RuleSet):
    """Drop every sample on which either ruleset fires, regardless of label."""
    survivors = []
    report = FilterReport()
    for sample in corpus:
        try:
            with open(sample.path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            report.io_failures.append(f"{sample.path}: {exc}")
            continue
        route = route_rules(raw, allow, block)
        if route is None:
            survivors.append(sample)
            continue
        if route.stage == "allowlist":
            report.removed_by_allowlist += 1
        else:
            report.removed_by_blocklist += 1
        for name in route.fired:
            report.per_rule[name] = report.per_rule.get(name, 0) + 1
    report.survivors = len(survivors)
    return survivors, report


def _load_features(samples):
    rows, labels, kept = [], [], []
    for sample in samples:
        with open(sample.path, "rb") as fh:
            raw = fh.read()
        try:
            pe = parse_pe(raw)
            rows.append(extract_features(pe, raw))
        except (MalformedPe, FeatureFailure):
            continue
        labels.append(sample.label)
        kept.append(sample)
    if not rows:
        raise DegenerateData("no extractable samples")
    return np.vstack(rows), np.array(labels), kept


def train_system(corpus, allow: RuleSet, block: RuleSet, cfg: TrainConfig,
                 allow_text: str = "", block_text: str = "",
                 target_fpr: float = DEFAULT_TARGET_FPR) -> AiSystem:
    """filter_training, then train on survivors; threshold calibrated on a
    held-out split of the survivors at the target FPR."""
    from .evaluation import roc, tpr_at_fpr  # deferred to avoid an import cycle

    survivors, report = filter_training(corpus, allow, block)
    X, y, kept = _load_features(survivors)
    if len(np.unique(y)) < 2:
        raise DegenerateData("survivors contain a single class")

    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(len(y))
    n_calib = max(2, int(len(y) * CALIB_FRACTION))
    calib_idx = perm[:n_calib]
    train_idx = perm[n_calib:]
    if len(np.unique(y[train_idx])) < 2:
        train_idx = perm  # tiny corpus: train on everything
    model = train_model(X[train_idx], y[train_idx], cfg)

    calib_scores = score_model(model, X[calib_idx])
    if len(np.unique(y[calib_idx])) < 2:
        threshold = 0.5
    else:
        _, threshold = tpr_at_fpr(roc(calib_scores, y[calib_idx]), target_fpr)

    metadata = {
        "filtered": bool(len(allow.rules) or len(block.rules)),
        "filter_report": report.to_dict(),
        "seed": cfg.seed,
        "target_fpr": target_fpr,
        "threshold": float(threshold),
        "train_samples": int(len(train_idx)),
        "calibration_samples": int(n_calib),
        "config": cfg.to_dict(),
    }
    return AiSystem(allowlist=allow, blocklist=block, model=model,
                    threshold=float(threshold), allow_text=allow_text,
                    block_text=block_text, metadata=metadata)


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

def save_system(system: AiSystem, directory):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "allowlist.yar"), "w", encoding="utf-8") as fh:
        fh.write(system.allow_text)
    with open(os.path.join(directory, "blocklist.yar"), "w", encoding="utf-8") as fh:
        fh.write(system.block_text)
    digest = hashlib.sha256(
        json.dumps(system.metadata, sort_keys=True).encode()).hexdigest()
    save_model(system.model, os.path.join(directory, "model.json"),
               training_digest=digest)
    with open(os.path.join(directory, "metadata.json"), "w", encoding="utf-8") as fh:
        json.dump(system.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_system(directory) -> AiSystem:
    with open(os.path.join(directory, "allowlist.yar"), encoding="utf-8") as fh:
        allow_text = fh.read()
    with open(os.path.join(directory, "blocklist.yar"), encoding="utf-8") as fh:
        block_text = fh.read()
    with open(os.path.join(directory, "metadata.json"), encoding="utf-8") as fh:
        metadata = json.load(fh)
    allow = (parse_rules(allow_text, role="allowlist") if allow_text.strip()
             else RuleSet(rules=(), role="allowlist"))
    block = (parse_rules(block_text, role="blocklist") if block_text.strip()
             else RuleSet(rules=(), role="blocklist"))
    model = load_model(os.path.join(directory, "model.json"))
    return AiSystem(allowlist=allow, blocklist=block, model=model,
                    threshold=metadata["threshold"], allow_text=allow_text,
                    block_text=block_text, metadata=metadata)
