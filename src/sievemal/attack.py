"""Black-box section-injection attack: a query-limited genetic search over
per-section injection fractions, trading target score against payload size.

The search point is a vector s in [0,1]^k, one gene per section of the
payload pool; gene i injects the first round(s_i * len_i) bytes of harvested
section i as a new non-executable section named ".gammaNN". The search
minimizes score(x + s) + lambda * payload bytes with a fixed population of
POPULATION and Gaussian mutation of scale MUTATION_SIGMA, and it stops at the
first query that scores under the success threshold: that query is then the
reported best, so "evaded" and "succeeded" are one fact.

Each search draws from its own generator, seeded from the config, and its
draws depend only on (seed, number of genes), never on the target's scores:
every breeding keeps ELITES = POPULATION // 2, so each child draws two parent
indices, a crossover mask and a mutation from the same bounds. Only the
choice of elites depends on the target.

A target whose scores are all 1.0 has no say in even that, so the searches of
the blocklist-settled targets of one attack are one search, run once
(SettledSchedule); each such target only emits and scores its mutants.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetZero, MalformedPe, PoolExhausted, check_number, is_number
from .evaluation import read_bytes
from .pe import InjectedSections, InjectionPlan, parse_pe
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
    _genes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < len(self.sections) <= MAX_GENES:
            raise ValueError(f"a payload pool holds 1 to {MAX_GENES} sections, "
                             f"got {len(self.sections)}")
        object.__setattr__(self, "_lengths",
                           tuple(len(content) for _, _, content in self.sections))
        # each gene's section name and a view of its content, so no injection copies it
        object.__setattr__(self, "_genes", tuple(
            (b".gamma%02d" % i, memoryview(content))
            for i, (_, _, content) in enumerate(self.sections)))

    def __len__(self):
        return len(self.sections)

    def lengths(self) -> tuple:
        return self._lengths

    def items(self, counts) -> list:
        """The (name, content) items that per-gene byte counts inject: for each
        gene i with n = counts[i] > 0, ".gamma<i>" and the first n bytes of
        section i, as a view."""
        return [(name, view[:n]) for (name, view), n in zip(self._genes, counts) if n]


@dataclass(frozen=True)
class AttackConfig:
    query_budget: int = 200       # 200 for the margin model, 500 for trees
    lam: float = 1e-5             # payload regularizer
    seed: int = 0
    success_threshold: float = 0.5

    def __post_init__(self):
        # the search stops at queries_used == query_budget, which 2.5 never meets
        if is_number(self.query_budget, high=0, integer=True):
            raise BudgetZero(f"query budget must be an integer >= 1, not {self.query_budget!r}")
        check_number(self.query_budget, "query budget", 1, integer=True)
        # no objective is below a NaN or infinite one, so no query would become the best
        check_number(self.lam, "lambda", 0)
        check_number(self.seed, "seed", 0, integer=True)
        # a blocklisted file scores 1.0, which must never count as an evasion
        check_number(self.success_threshold, "success threshold", 0, 1)


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
        lines = getattr(self.queries, "lines", None)
        if lines is None:
            lines = _query_lines(self.queries)
        last = _JSONL.encode({
            "best_s": None if self.best_s is None else _floats(self.best_s),
            "best_score": self.best_score,
            "best_digest": self.best_digest,
            "fired_on_best": list(self.fired_on_best),
            "queries_used": self.queries_used,
            "succeeded": self.succeeded,
        })
        with open(path, "wb") as fh:
            fh.write(lines)
            fh.write(last.encode("ascii") + b"\n")


# one encoder for every trace line: json.dumps(..., sort_keys=True) builds a new one per call;
# it escapes every non-ASCII character, so each line is ASCII
_JSONL = json.JSONEncoder(sort_keys=True)


def _query_lines(queries) -> bytes:
    """The trace lines of queries, one per (s, score, payload), joined and encoded."""
    return "".join(_JSONL.encode({
        "s": _floats(s),
        "score": float(score),
        "payload_bytes": int(payload),
    }) + "\n" for s, score, payload in queries).encode("ascii")


class _SharedQueries(tuple):
    """The queries of a settled search, shared by every trace read from its
    schedule, with their trace lines encoded once (`lines`, the bytes every
    such trace file starts with). A tuple of tuples of read-only vectors, so
    no trace can change what another holds."""

    def __new__(cls, queries):
        self = super().__new__(cls, queries)
        self.lines = _query_lines(self)
        return self


def _floats(s) -> list:
    """A vector as the Python floats float(v) gives for each entry, in one call."""
    return np.asarray(s, dtype=np.float64).tolist()


def harvest_sections(goodware, k: int, seed: int) -> PayloadPool:
    """k distinct non-executable, non-empty sections sampled across the corpus.

    goodware: iterable of samples providing .path (and .sha256 as source id).
    The draw is over (sample, section index) pairs in corpus order; only the
    files of the k drawn sections are read again for their bytes, so no other
    section's bytes are held.
    """
    candidates = []                  # (sample, section index)
    for sample in goodware:
        try:
            pe = parse_pe(read_bytes(sample.path))
        except MalformedPe:
            continue
        candidates.extend((sample, i) for i, s in enumerate(pe.sections)
                          if not s.is_executable and s.raw_size > 0)
    if len(candidates) < k:
        raise PoolExhausted(f"{len(candidates)} harvestable sections, need {k}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(candidates), size=k, replace=False)
    sections = []
    for sample, i in (candidates[p] for p in picks):
        section = parse_pe(read_bytes(sample.path)).sections[i]
        sections.append((sample.sha256, bytes(section.name), section.data))
    return PayloadPool(sections=tuple(sections))


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
    return plan.inject(pool.items(counts)), sum(counts)


def blocklist_settled(blocklist: RuleSet, raw: bytes, plan: InjectionPlan) -> bool:
    """Whether the blocklist is proved to fire on every mutant that
    apply_manipulation can emit from plan, the injection plan of raw.

    Every mutant keeps the clean file's section data and overlay verbatim and
    is no shorter (InjectionPlan.kept), so a fired rule that needs only hits
    inside those spans, and a file at least this long, fires on each one
    (rules.engine.stays_fired). The spans are spans of the plan's clean file,
    so raw must be that file. A settled target scores 1.0 under its system
    on every query unless the allowlist fires, which scores 0.0.
    """
    return plan.clean == raw and stays_fired(blocklist, scan(raw, blocklist), len(raw),
                                             plan.kept)


def _brood(rng: np.random.Generator, k: int) -> tuple:
    """(parents_a, parents_b, mask, noise) of one breeding, drawn child by
    child as the per-child search draws them: two parent indices below
    ELITES, a 0/1 crossover mask and a Gaussian mutation. The first two have
    shape (POPULATION - ELITES,), the others (POPULATION - ELITES, k)."""
    n = POPULATION - ELITES
    parents_a, parents_b = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    mask = np.empty((n, k), dtype=bool)
    noise = np.empty((n, k))
    for j in range(n):
        parents_a[j], parents_b[j] = rng.integers(0, ELITES, size=2)
        mask[j] = rng.integers(0, 2, size=k).astype(bool)
        noise[j] = rng.normal(0.0, MUTATION_SIGMA, size=k)
    return parents_a, parents_b, mask, noise


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _search(evaluate, k: int, cfg: AttackConfig) -> tuple:
    """The search loop of every attack: (trace, what evaluate kept of the
    best query). evaluate(s) -> (score, payload, kept) queries candidate s.

    The first batch of candidates is drawn uniformly; each later batch breeds
    the better half of the last one. The best query is the one with the
    lowest objective, until a query scores under the success threshold: that
    query becomes the best and ends the search, as does budget exhaustion.
    Every batch is read-only, so the vectors a trace holds cannot be changed
    through another that shares them.
    """
    rng = np.random.default_rng(cfg.seed)
    trace = AttackTrace()
    population, objectives = [], []
    # one call draws the bits, and leaves rng in the state, of POPULATION calls of size k
    batch = _read_only(rng.uniform(0.0, 1.0, size=(POPULATION, k)))
    while True:
        for s in batch:
            score, payload, kept = evaluate(s)
            trace.queries.append((s, score, payload))
            objective = score + cfg.lam * payload
            trace.succeeded = bool(score < cfg.success_threshold)
            if trace.succeeded or objective < trace.best_objective:
                trace.best_objective = objective
                trace.best_s = s
                trace.best_score = score
                trace.best_payload = payload
                best = kept
            if trace.succeeded or trace.queries_used == cfg.query_budget:
                return trace, best
            population.append(s)
            objectives.append(objective)
        elite = np.argsort(objectives, kind="stable")[:ELITES]
        population = [population[i] for i in elite]
        objectives = [objectives[i] for i in elite]
        # the whole brood in one step: row j is child j of the per-child recipe
        # clip(where(mask, a, b) + noise, 0, 1), elementwise and so bit-identical
        parents_a, parents_b, mask, noise = _brood(rng, k)
        elites = np.array(population)
        batch = _read_only(np.clip(np.where(mask, elites[parents_a], elites[parents_b]) + noise,
                                   0.0, 1.0))


def _finish(trace: AttackTrace, best_raw: bytes, rule_probe) -> AttackTrace:
    """trace with its best query's digest and, given rule_probe, its rules."""
    trace.best_digest = hashlib.sha256(best_raw).hexdigest()
    if rule_probe is not None:
        trace.fired_on_best = tuple(rule_probe(best_raw))
    return trace


def gamma_attack(target, malware: bytes, pool: PayloadPool, cfg: AttackConfig,
                 rule_probe=None, plan: InjectionPlan | None = None) -> AttackTrace:
    """Seeded elitist genetic search under a strict query budget (_search).

    target: callable raw bytes -> score in [0, 1]. Every oracle call is one
    trace entry. The best query's digest and rule_probe's rules are taken
    once, when the search stops. A candidate the target has no room for
    raises SectionLimitExceeded before any query is spent on it. plan is
    malware's InjectionPlan, when the caller has built it.
    """
    if plan is None:
        plan = InjectionPlan(parse_pe(malware))

    def evaluate(s):
        raw, payload = apply_manipulation(plan, pool, s)
        return float(target(raw)), payload, raw

    trace, best_raw = _search(evaluate, len(pool), cfg)
    return _finish(trace, best_raw, rule_probe)


class SettledSchedule:
    """The search of every blocklist-settled target, run once for all of them.

    While each mutant of a target scores 1.0, its search does not depend on
    the target: every objective is 1.0 + lam * payload, the payload depends
    only on the pool's section lengths, the draws only on (seed, gene count),
    and 1.0 is never under the success threshold, which AttackConfig keeps at
    most 1. So the search is run once against the constant 1.0, with its
    trace lines encoded once, and each query's injected sections laid out
    once per (file, section) alignment pair (pe.InjectedSections). A target
    then emits each scheduled mutant from its own plan and scores it, and
    leaves the schedule at the first mutant that does not score 1.0 (one the
    allowlist fires on); gamma_attack then searches it from the start.
    """

    def __init__(self, pool: PayloadPool, cfg: AttackConfig):
        self.pool, self.cfg = pool, cfg
        self._sections = {}
        index = itertools.count()

        def evaluate(s):
            return 1.0, sum(gene_bytes(pool, s)), next(index)

        self._trace, self._best = _search(evaluate, len(pool), cfg)
        self._trace.queries = _SharedQueries(self._trace.queries)

    def sections(self, alignments: tuple) -> tuple:
        """Each scheduled query's InjectedSections for the (file, section)
        alignment pair, laid out the first time a target with that pair asks."""
        queries = self._sections.get(alignments)
        if queries is None:
            queries = self._sections[alignments] = tuple(
                InjectedSections(self.pool.items(gene_bytes(self.pool, s)), *alignments)
                for s, _, _ in self._trace.queries)
        return queries

    def trace(self, target, plan: InjectionPlan, rule_probe=None) -> AttackTrace | None:
        """The trace gamma_attack gives the target of plan, or None when one of
        its scheduled mutants does not score 1.0 under target."""
        for i, sections in enumerate(self.sections(plan.alignments)):
            raw = plan.emit(sections)
            if float(target(raw)) != 1.0:
                return None
            if i == self._best:
                best_raw = raw
        return _finish(dataclasses.replace(self._trace), best_raw, rule_probe)


def attack_sample(score_fn, raw: bytes, pool: PayloadPool, cfg: AttackConfig,
                  rule_probe=None, plan: InjectionPlan | None = None,
                  schedule: SettledSchedule | None = None):
    """(row, trace); the row is the sample's one record, as results.json holds
    it: the clean and best adversarial scores, the best payload, the queries
    spent, the rules firing on the best candidate and whether the search evaded.

    plan is raw's InjectionPlan, when the caller has built it. schedule is the
    SettledSchedule of (pool, cfg), for a target that blocklist_settled
    settles: its trace is then read from the schedule, unless a mutant leaves it.
    """
    if schedule is not None and (schedule.pool is not pool or schedule.cfg != cfg):
        raise ValueError("the schedule was made for another pool or config")
    clean_score = float(score_fn(raw))
    if plan is None:
        plan = InjectionPlan(parse_pe(raw))
    trace = None if schedule is None else schedule.trace(score_fn, plan, rule_probe)
    if trace is None:
        trace = gamma_attack(score_fn, raw, pool, cfg, rule_probe=rule_probe, plan=plan)
    row = {
        "clean_score": clean_score,
        "adv_score": trace.best_score,
        "payload_kb": trace.best_payload / 1024.0,
        "queries": trace.queries_used,
        "fired_on_best": list(trace.fired_on_best),
        "evaded": trace.succeeded,
    }
    return row, trace
