"""Black-box section-injection attack: a query-limited genetic search over
per-section injection fractions, trading target score against payload size.

The search point is a vector s in [0,1]^k, one gene per section of the
payload pool; gene i injects the first round(s_i * len_i) bytes of harvested
section i as a new non-executable section named ".gammaNN". The search
minimizes score(x + s) + lambda * payload bytes with a fixed population of
POPULATION and Gaussian mutation of scale MUTATION_SIGMA, and it stops at the
first query that scores under the success threshold: that query is then the
reported best, so "evaded" and "succeeded" are one fact.

The search's random draws depend only on (seed, number of genes), never on
the target's scores: every breeding keeps ELITES = POPULATION // 2, so each
child draws two parent indices, a crossover mask and a mutation from the
same bounds. Those draws are made once per process into a shared read-only
tape (_tape), one generation at a time as the deepest search reaches it, and
each target's search reads a prefix of it; only the choice of elites depends
on the target.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetZero, MalformedPe, PoolExhausted
from .evaluation import is_threshold
from .pe import InjectionPlan, PeFile, parse_pe
from .rules import RuleSet, scan
from .rules.engine import stays_fired


POPULATION = 10
ELITES = POPULATION // 2          # kept at each breeding; the other POPULATION - ELITES are bred
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
        # the search stops at queries_used == query_budget, which 2.5 never meets
        if isinstance(self.query_budget, bool) or not isinstance(self.query_budget, int):
            raise ValueError(f"query budget must be an integer, got {self.query_budget!r}")
        if self.query_budget < 1:
            raise BudgetZero("query budget must be positive")
        # no objective is below a NaN or infinite one, so no query would become the best
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lambda must be finite and non-negative, got {self.lam!r}")
        # a blocklisted file scores 1.0, which must never count as an evasion
        if not is_threshold(self.success_threshold):
            raise ValueError(f"success threshold must be a number in [0, 1], "
                             f"got {self.success_threshold!r}")


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
        lines = [_JSONL.encode({
            "s": _floats(s),
            "score": float(score),
            "payload_bytes": int(payload),
        }) + "\n" for s, score, payload in self.queries]
        lines.append(_JSONL.encode({
            "best_s": None if self.best_s is None else _floats(self.best_s),
            "best_score": self.best_score,
            "best_digest": self.best_digest,
            "fired_on_best": list(self.fired_on_best),
            "queries_used": self.queries_used,
            "succeeded": self.succeeded,
        }) + "\n")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)


# one encoder for every trace line: json.dumps(..., sort_keys=True) builds a new one per call
_JSONL = json.JSONEncoder(sort_keys=True)


def _floats(s) -> list:
    """A vector as the Python floats float(v) gives for each entry, in one call."""
    return np.asarray(s, dtype=np.float64).tolist()


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


def blocklist_settled(blocklist: RuleSet, raw: bytes, pe: PeFile) -> bool:
    """Whether the blocklist is proved to fire on every mutant that
    apply_manipulation can emit from raw, whose parse is pe.

    Every mutant keeps the clean file's section data and overlay verbatim and
    is no shorter (InjectionPlan.kept), so a fired rule that needs only hits
    inside those spans, and a file at least this long, fires on each one
    (rules.engine.stays_fired). The spans are spans of the plan's clean file,
    so raw must be that file. A settled target scores 1.0 under its system
    on every query unless the allowlist fires, which scores 0.0.
    """
    plan = InjectionPlan(pe)
    return plan.clean == raw and stays_fired(blocklist, scan(raw, blocklist), len(raw),
                                             plan.kept)


class _Tape:
    """The search's random draws for one (seed, gene count), in the order the
    per-child search makes them: POPULATION uniform vectors for the first
    batch, then per generation, child by child, two parent indices below
    ELITES, a 0/1 crossover mask and a Gaussian mutation. Generation g is
    drawn the first time a search reaches it; every array is read-only, so
    no search can change what a later one reads."""

    def __init__(self, seed: int, k: int):
        self._rng = np.random.default_rng(seed)
        self._k = k
        self._generations = []
        self._lock = threading.Lock()
        self.first = _read_only(np.array([self._rng.uniform(0.0, 1.0, size=k)
                                          for _ in range(POPULATION)]))

    def generation(self, g: int) -> tuple:
        """(parents_a, parents_b, mask, noise) of breeding g: the first two of
        shape (POPULATION - ELITES,), the others (POPULATION - ELITES, k)."""
        with self._lock:
            while len(self._generations) <= g:
                self._generations.append(self._draw())
            return self._generations[g]

    def _draw(self) -> tuple:
        rng, n = self._rng, POPULATION - ELITES
        parents_a, parents_b = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        mask = np.empty((n, self._k), dtype=bool)
        noise = np.empty((n, self._k))
        for j in range(n):
            parents_a[j], parents_b[j] = rng.integers(0, ELITES, size=2)
            mask[j] = rng.integers(0, 2, size=self._k).astype(bool)
            noise[j] = rng.normal(0.0, MUTATION_SIGMA, size=self._k)
        return tuple(map(_read_only, (parents_a, parents_b, mask, noise)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=16)
def _tape(seed: int, k: int) -> _Tape:
    """The one tape per process for (seed, k); an evicted tape is drawn again
    from its seed, with the same values."""
    return _Tape(seed, k)


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
    tape = _tape(cfg.seed, len(pool))
    trace = AttackTrace()
    population, objectives = [], []
    batch = tape.first
    for generation in itertools.count():
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
        elite = np.argsort(objectives, kind="stable")[:ELITES]
        population = [population[i] for i in elite]
        objectives = [objectives[i] for i in elite]
        # the whole brood in one step: row j is child j of the per-child recipe
        # clip(where(mask, a, b) + noise, 0, 1), elementwise and so bit-identical
        parents_a, parents_b, mask, noise = tape.generation(generation)
        elites = np.array(population)
        batch = np.clip(np.where(mask, elites[parents_a], elites[parents_b]) + noise, 0.0, 1.0)


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
