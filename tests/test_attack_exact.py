"""attack.gamma_attack against the naive oracle, and the isolation of searches.

`tests/naive_attack.py` holds the per-child search that `gamma_attack`
replaced: one generator per search and three draws per child. The new search
also draws from one generator per search, but breeds a generation in one
numpy step. Every trace field must equal the oracle's, bit for bit, and no
search may see what another one ran or did to its trace.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import naive_attack
import sievemal
from sievemal.attack import ELITES, POPULATION, AttackConfig, apply_manipulation, gamma_attack
from sievemal.pe import InjectionPlan, parse_pe
from test_attack import fields, malware_bytes, tiny_pool

SEEDS = range(4)
GENES = (1, 3, 10)
# not multiples of the brood of POPULATION - ELITES = 5 (1, 7, 11, 123) and
# ends of the first batch and of a brood (10, 15, 60)
BUDGETS = (1, 7, 10, 11, 15, 60, 123)
# the largest pool `sievemal attack --sections` takes, at fewer points
LARGEST_POOL = [(seed, 50, budget) for seed in SEEDS for budget in (15, 60)]
LENGTH_THRESHOLD = 0.1


def flat_target(pool):
    """Never evades; the payload regularizer alone picks the elites."""
    return lambda raw: 0.9


def content_target(pool):
    """Never evades; a score in [0.5, 1) from the mutant's sha256."""
    return lambda raw: 0.5 + int.from_bytes(hashlib.sha256(raw).digest()[:4], "big") / 2 ** 33


def length_target(pool):
    """1 minus the mutant's growth as a share of the growth at s = 1: under
    LENGTH_THRESHOLD once the search injects enough, on some configurations
    in the middle of a brood."""
    mal = malware_bytes()
    full = len(apply_manipulation(InjectionPlan(parse_pe(mal)), pool, [1.0] * len(pool))[0])
    return lambda raw: 1.0 - (len(raw) - len(mal)) / (full - len(mal))


TARGETS = {"flat": (flat_target, 0.5), "content": (content_target, 0.5),
           "length": (length_target, LENGTH_THRESHOLD)}


def run(search, kind, seed, k, budget):
    """(trace, sha256 of every mutant the target received) of one search."""
    make, threshold = TARGETS[kind]
    pool = tiny_pool(k)
    score = make(pool)
    received = []

    def target(raw):
        received.append(hashlib.sha256(raw).hexdigest())
        return score(raw)

    cfg = AttackConfig(query_budget=budget, seed=seed, success_threshold=threshold)
    trace = search(target, malware_bytes(), pool, cfg,
                   rule_probe=lambda raw: ("len%d" % (len(raw) % 7),))
    return trace, received


@pytest.mark.parametrize("seed,k,budget", [(seed, k, budget) for seed in SEEDS for k in GENES
                                            for budget in BUDGETS] + LARGEST_POOL)
@pytest.mark.parametrize("kind", sorted(TARGETS))
def test_search_equals_the_per_child_oracle(kind, seed, k, budget):
    got, got_received = run(gamma_attack, kind, seed, k, budget)
    want, want_received = run(naive_attack.gamma_attack, kind, seed, k, budget)
    assert fields(got) == fields(want)
    assert got_received == want_received


def test_the_grid_crosses_the_threshold_inside_a_brood():
    """The grid above holds a search that evades on a child that is not the
    last of its brood, so the stop inside the one-step brood is checked."""
    stops = [run(naive_attack.gamma_attack, "length", seed, k, 123)[0]
             for seed in SEEDS for k in GENES]
    inside = [t.queries_used for t in stops
              if t.succeeded and t.queries_used > POPULATION
              and (t.queries_used - POPULATION) % (POPULATION - ELITES) != 0]
    assert inside, [t.queries_used for t in stops]
    assert not all(t.succeeded for t in stops)


def trace_bytes(trace, path):
    trace.to_jsonl(path)
    return path.read_bytes()


def test_a_trace_does_not_depend_on_the_searches_before_it(tmp_path):
    """A (a deep search) then B, B then A, and B in a fresh process give the
    same traces: a search draws from its own generator, not from the state
    earlier searches left."""
    def both(order):
        traces = {kind: run(gamma_attack, kind, 2, 3, budget)[0]
                  for kind, budget in order}
        return {kind: trace_bytes(t, tmp_path / f"{kind}.jsonl") for kind, t in traces.items()}

    a_then_b = both([("flat", 123), ("content", 60)])
    b_then_a = both([("content", 60), ("flat", 123)])
    assert a_then_b == b_then_a
    code = ("import test_attack_exact as t\n"
            "trace = t.run(t.gamma_attack, 'content', 2, 3, 60)[0]\n"
            f"trace.to_jsonl({str(tmp_path / 'fresh.jsonl')!r})\n")
    paths = [os.path.dirname(os.path.dirname(sievemal.__file__)), os.path.dirname(__file__)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    assert (tmp_path / "fresh.jsonl").read_bytes() == a_then_b["content"]


def test_changing_a_returned_trace_leaves_later_searches_unchanged(tmp_path):
    first, _ = run(gamma_attack, "flat", 1, 3, 60)
    before = trace_bytes(first, tmp_path / "before.jsonl")
    vectors = [s for s, _, _ in first.queries] + [first.best_s]
    for s in vectors:
        try:
            s[:] = 0.5
        except ValueError:       # every batch is read-only
            pass
    assert any(not s.flags.writeable for s in vectors)
    again, _ = run(gamma_attack, "flat", 1, 3, 60)
    assert trace_bytes(again, tmp_path / "again.jsonl") == before
