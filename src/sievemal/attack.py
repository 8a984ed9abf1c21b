"""Black-box section-injection attack: a query-limited genetic search over
per-section injection fractions, trading target score against payload size.

The search point is a vector s in [0,1]^k, one gene per section of the
payload pool; gene i injects the first round(s_i * len_i) bytes of harvested
section i as a new non-executable section named ".gammaNN". The search
minimizes score(x + s) + lambda * payload bytes with a fixed population of
POPULATION and Gaussian mutation of scale MUTATION_SIGMA, and it stops at the
first query that scores under the success threshold: that query is then the
reported best, so "evaded" and "succeeded" are one fact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetZero, MalformedPe, PoolExhausted
from .pe import InjectionPlan, parse_pe


POPULATION = 10
MUTATION_SIGMA = 0.2
MAX_GENES = 100                   # ".gamma%02d" fits a section name's 8 bytes up to gene 99


@dataclass(frozen=True)
class PayloadPool:
    sections: tuple               # ((source_id, name, content), ...)
    _lengths: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < len(self.sections) <= MAX_GENES:
            raise ValueError(f"a payload pool holds 1 to {MAX_GENES} sections, "
                             f"got {len(self.sections)}")
        object.__setattr__(self, "_lengths",
                           tuple(len(content) for _, _, content in self.sections))

    def __len__(self):
        return len(self.sections)

    def lengths(self) -> tuple:
        return self._lengths


@dataclass(frozen=True)
class AttackConfig:
    query_budget: int = 200       # 200 for the margin model, 500 for trees
    lam: float = 1e-5             # payload regularizer
    seed: int = 0
    success_threshold: float = 0.5

    def __post_init__(self):
        if not self.query_budget >= 1:
            raise BudgetZero("query budget must be positive")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")


@dataclass
class AttackTrace:
    queries: list = field(default_factory=list)  # (s, score, payload_bytes)
    best_s: np.ndarray | None = None
    best_score: float | None = None
    best_objective: float = float("inf")
    best_payload: int = 0
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


def gene_bytes(pool: PayloadPool, s) -> list:
    """Bytes each gene injects: round(s_i * len_i)."""
    return [round(si * n) for si, n in zip(np.asarray(s, dtype=np.float64).tolist(),
                                           pool.lengths())]


def apply_manipulation(plan: InjectionPlan, pool: PayloadPool, s) -> tuple:
    """(mutant bytes, payload size): one ".gammaNN" section per gene with a
    nonzero byte budget, emitted from the clean sample's injection plan in one
    layout pass. The payload size is the sum of the same per-gene byte counts."""
    if len(s) != len(pool):
        raise ValueError("manipulation vector length disagrees with pool size")
    counts = gene_bytes(pool, s)
    items = [(b".gamma%02d" % i, content[:n])
             for i, ((_, _, content), n) in enumerate(zip(pool.sections, counts)) if n > 0]
    return plan.inject(items), sum(counts)


def gamma_attack(target, malware: bytes, pool: PayloadPool, cfg: AttackConfig,
                 rule_probe=None) -> AttackTrace:
    """Seeded elitist genetic search under a strict query budget.

    target: callable raw bytes -> score in [0, 1]. Every oracle call is one
    trace entry. The first batch of candidates is drawn uniformly; each later
    batch breeds the better half of the last one. The best query is the one
    with the lowest objective, until a query scores under the success
    threshold: that query becomes the best and ends the search, as does
    budget exhaustion; only then are the best query's digest and rule_probe's
    rules taken. A candidate the target has no room for raises
    SectionLimitExceeded before any query is spent on it.
    """
    plan = InjectionPlan(parse_pe(malware))
    rng = np.random.default_rng(cfg.seed)
    k = len(pool)
    trace = AttackTrace()
    population, objectives = [], []
    batch = [rng.uniform(0.0, 1.0, size=k) for _ in range(POPULATION)]
    while True:
        for s in batch:
            raw, payload = apply_manipulation(plan, pool, s)
            score = float(target(raw))
            trace.queries.append((s, score, payload))
            objective = score + cfg.lam * payload
            trace.succeeded = bool(score < cfg.success_threshold)
            if trace.succeeded or objective < trace.best_objective:
                trace.best_objective = objective
                trace.best_s = s
                trace.best_score = score
                trace.best_payload = payload
                best_raw = raw
            if trace.succeeded or trace.queries_used == cfg.query_budget:
                trace.best_digest = hashlib.sha256(best_raw).hexdigest()
                if rule_probe is not None:
                    trace.fired_on_best = tuple(rule_probe(best_raw))
                return trace
            population.append(s)
            objectives.append(objective)
        elite = np.argsort(objectives, kind="stable")[:POPULATION // 2]
        population = [population[i] for i in elite]
        objectives = [objectives[i] for i in elite]
        batch = []
        for _ in range(POPULATION - len(population)):
            pa, pb = rng.integers(0, len(population), size=2)
            mask = rng.integers(0, 2, size=k).astype(bool)
            child = np.where(mask, population[pa], population[pb])
            child = child + rng.normal(0.0, MUTATION_SIGMA, size=k)
            batch.append(np.clip(child, 0.0, 1.0))


def attack_sample(score_fn, raw: bytes, pool: PayloadPool, cfg: AttackConfig,
                  rule_probe=None):
    """(row, trace); the row is the sample's one record, as results.json holds
    it: the clean and best adversarial scores, the best payload, the queries
    spent, the rules firing on the best candidate and whether the search evaded."""
    clean_score = float(score_fn(raw))
    trace = gamma_attack(score_fn, raw, pool, cfg, rule_probe=rule_probe)
    row = {
        "clean_score": clean_score,
        "adv_score": trace.best_score,
        "payload_kb": trace.best_payload / 1024.0,
        "queries": trace.queries_used,
        "fired_on_best": list(trace.fired_on_best),
        "evaded": trace.succeeded,
    }
    return row, trace
