"""Reference genetic search used as the exactness oracle.

Deliberately plain: one generator per search, seeded from the config, and
one child bred at a time with its own parent, mask and mutation draws. This
is the loop that `sievemal.attack.gamma_attack` replaced with one uniform
draw for the first batch and one numpy breeding step per generation, from a
generator seeded the same way; the new search must give every trace field of
this one, bit for bit. `AttackTrace`, `apply_manipulation` and the constants are shared with
`sievemal.attack`, because they did not change.

`harvest_sections` is the pool harvesting that held the bytes of every
candidate section before it sampled k of them; the harvesting that keeps
(sample, section index) pairs must give its pool.
"""

import hashlib

import numpy as np

from sievemal.attack import (
    MUTATION_SIGMA,
    POPULATION,
    AttackConfig,
    AttackTrace,
    PayloadPool,
    apply_manipulation,
)
from sievemal.errors import MalformedPe, PoolExhausted
from sievemal.pe import InjectionPlan, parse_pe


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


def harvest_sections(goodware, k: int, seed: int) -> PayloadPool:
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
