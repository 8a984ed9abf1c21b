"""Black-box section-injection attack: a query-limited genetic search over
per-section injection fractions, trading target score against payload size.

The search point is a vector s in [0,1]^k; gene i injects the first
round(s_i * len_i) bytes of harvested section i as a new non-executable
section. The objective is score(x + s) + lambda * payload_size(s).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetZero, MalformedPe, PoolExhausted, SectionLimitExceeded
from .pe import PeFile, inject_section, parse_pe, serialize_pe


@dataclass(frozen=True)
class PayloadPool:
    sections: tuple               # ((source_id, name, content), ...)

    def __len__(self):
        return len(self.sections)

    def lengths(self):
        return [len(content) for _, _, content in self.sections]


@dataclass(frozen=True)
class AttackConfig:
    k: int = 10                   # harvested sections: 10 | 20 | 30 | 50
    query_budget: int = 200       # 200 for the margin model, 500 for trees
    lam: float = 1e-5             # payload regularizer
    population: int = 10
    mutation_sigma: float = 0.2
    seed: int = 0
    success_threshold: float = 0.5

    def __post_init__(self):
        if self.k <= 0 or self.population <= 0:
            raise ValueError("k and population must be positive")
        if self.mutation_sigma < 0 or self.lam < 0:
            raise ValueError("mutation_sigma and lambda must be non-negative")


@dataclass
class AttackTrace:
    queries: list = field(default_factory=list)  # (s, score, payload_bytes)
    best_s: np.ndarray | None = None
    best_score: float | None = None
    best_objective: float = float("inf")
    best_digest: str | None = None
    fired_on_best: tuple = ()
    succeeded: bool = False

    @property
    def queries_used(self) -> int:
        return len(self.queries)

    def to_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s, score, payload in self.queries:
                fh.write(json.dumps({
                    "s": [float(v) for v in s],
                    "score": float(score),
                    "payload_bytes": int(payload),
                }, sort_keys=True) + "\n")
            fh.write(json.dumps({
                "best_s": None if self.best_s is None else [float(v) for v in self.best_s],
                "best_score": self.best_score,
                "best_digest": self.best_digest,
                "fired_on_best": list(self.fired_on_best),
                "queries_used": self.queries_used,
                "succeeded": self.succeeded,
            }, sort_keys=True) + "\n")


def harvest_sections(goodware, k: int, seed: int) -> PayloadPool:
    """k distinct non-executable, non-empty sections sampled across the corpus.

    goodware: iterable of samples providing .path (and .sha256 as source id).
    """
    candidates = []
    for sample in goodware:
        with open(sample.path, "rb") as fh:
            raw = fh.read()
        try:
            pe = parse_pe(raw)
        except MalformedPe:
            continue
        for s in pe.sections:
            if not s.is_executable and s.raw_size > 0:
                candidates.append((sample.sha256, bytes(s.name), s.data))
    if len(candidates) < k:
        raise PoolExhausted(f"{len(candidates)} harvestable sections, need {k}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(candidates), size=k, replace=False)
    return PayloadPool(sections=tuple(candidates[i] for i in picks))


def payload_size(pool: PayloadPool, s) -> int:
    lens = pool.lengths()
    return int(sum(round(float(si) * li) for si, li in zip(s, lens)))


def apply_manipulation(malware: PeFile, pool: PayloadPool, s) -> bytes:
    """Inject one ".gammaNN" section per gene with a nonzero byte budget."""
    if len(s) != len(pool):
        raise ValueError("manipulation vector length disagrees with pool size")
    pe = malware
    for i, ((_, _, content), si) in enumerate(zip(pool.sections, s)):
        n = round(float(si) * len(content))
        if n <= 0:
            continue
        pe = inject_section(pe, b".gamma%02d" % i, content[:n])
    return serialize_pe(pe)


def gamma_attack(target, malware: bytes, pool: PayloadPool, cfg: AttackConfig,
                 rule_probe=None) -> AttackTrace:
    """Seeded elitist genetic search under a strict query budget.

    target: callable raw bytes -> score in [0, 1]. Every oracle call is one
    trace entry; the loop halts on budget exhaustion or a score below the
    success threshold. Candidates whose manipulation fails are infeasible.
    """
    if cfg.query_budget <= 0:
        raise BudgetZero("query budget must be positive")
    base_pe = parse_pe(malware)
    rng = np.random.default_rng(cfg.seed)
    trace = AttackTrace()
    lens = np.array(pool.lengths(), dtype=np.float64)

    def evaluate(s) -> float | None:
        """One oracle query; returns the objective, or None when budget is spent."""
        if trace.queries_used >= cfg.query_budget:
            return None
        try:
            raw = apply_manipulation(base_pe, pool, s)
        except SectionLimitExceeded:
            return float("inf")
        score = float(target(raw))
        payload = payload_size(pool, s)
        trace.queries.append((np.array(s, copy=True), score, payload))
        objective = score + cfg.lam * payload
        if objective < trace.best_objective:
            trace.best_objective = objective
            trace.best_s = np.array(s, copy=True)
            trace.best_score = score
            trace.best_digest = hashlib.sha256(raw).hexdigest()
            if rule_probe is not None:
                trace.fired_on_best = tuple(rule_probe(raw))
        if score < cfg.success_threshold:
            trace.succeeded = True
        return objective

    population = [rng.uniform(0.0, 1.0, size=cfg.k) for _ in range(cfg.population)]
    objectives = []
    for s in population:
        obj = evaluate(s)
        if obj is None or trace.succeeded:
            return trace
        objectives.append(obj)

    while trace.queries_used < cfg.query_budget and not trace.succeeded:
        order = np.argsort(objectives, kind="stable")
        n_elite = max(1, len(population) // 2)
        elite = [population[i] for i in order[:n_elite]]
        elite_obj = [objectives[i] for i in order[:n_elite]]
        offspring = []
        for _ in range(len(population) - n_elite):
            pa, pb = rng.integers(0, n_elite, size=2)
            mask = rng.integers(0, 2, size=cfg.k).astype(bool)
            child = np.where(mask, elite[pa], elite[pb])
            child = child + rng.normal(0.0, cfg.mutation_sigma, size=cfg.k)
            offspring.append(np.clip(child, 0.0, 1.0))
        population = elite + offspring
        objectives = elite_obj[:]
        for s in offspring:
            obj = evaluate(s)
            if obj is None or trace.succeeded:
                return trace
            objectives.append(obj)
    return trace


def attack_sample(score_fn, raw: bytes, pool: PayloadPool, cfg: AttackConfig,
                  rule_probe=None):
    """(row, trace) for one attacked sample; a row holds the clean and best
    adversarial scores, the best payload, the queries spent, the rules firing
    on the best candidate and whether it evaded cfg.success_threshold."""
    clean_score = float(score_fn(raw))
    trace = gamma_attack(score_fn, raw, pool, cfg, rule_probe=rule_probe)
    best_payload = 0 if trace.best_s is None else payload_size(pool, trace.best_s)
    row = {
        "clean_score": clean_score,
        "adv_score": trace.best_score,
        "payload_kb": best_payload / 1024.0,
        "queries": trace.queries_used,
        "fired_on_best": list(trace.fired_on_best),
        "evaded": bool(trace.best_score is not None
                       and trace.best_score < cfg.success_threshold),
    }
    return row, trace
