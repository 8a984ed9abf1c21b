import dataclasses
import functools
import hashlib
import json
import random
import re
import struct

import numpy as np
import pytest

import fuzz_gen
import naive_attack
import naive_pe
import sievemal.attack as attack_mod
from sievemal.attack import (
    AttackConfig,
    PayloadPool,
    SettledSchedule,
    apply_manipulation,
    attack_sample,
    blocklist_settled,
    gamma_attack,
    gene_bytes,
    harvest_sections,
)
from sievemal.errors import BudgetZero, PoolExhausted, SectionLimitExceeded
from sievemal.pe import InjectedSections, InjectionPlan, build_pe, parse_pe
from sievemal.pipeline import load_system, make_oracle, route_rules
from sievemal.rules import parse_rules, scan

DATA = 0xC0000040
EXEC = 0x60000020


def tiny_pool(k=3, seed=0):
    rng = np.random.default_rng(seed)
    sections = tuple(
        (f"src{i:02d}", b".pool%d" % i, rng.integers(0, 256, 400 + 100 * i,
                                                     dtype=np.uint8).tobytes())
        for i in range(k))
    return PayloadPool(sections=sections)


def malware_bytes():
    return build_pe([(b".text", b"\xcc" * 200, EXEC),
                     (b".data", b"mal payload body", DATA)])


def fields(trace):
    """Every trace field, vectors as (dtype, shape, bytes) so equality is bit equality."""
    def bits(s):
        return None if s is None else (s.dtype.str, s.shape, s.tobytes())
    return {
        "queries": [(bits(s), score, payload) for s, score, payload in trace.queries],
        "best_s": bits(trace.best_s), "best_score": trace.best_score,
        "best_objective": trace.best_objective, "best_payload": trace.best_payload,
        "best_digest": trace.best_digest, "fired_on_best": trace.fired_on_best,
        "succeeded": trace.succeeded, "queries_used": trace.queries_used,
    }


# --- pool harvesting ---------------------------------------------------------

def test_harvest_skips_executable_and_empty_sections(tmp_path, unit_corpus):
    class S:
        def __init__(self, path, sha256):
            self.path, self.sha256 = path, sha256

    p = tmp_path / "g.bin"
    p.write_bytes(build_pe([(b".text", b"\x90" * 64, EXEC),
                            (b".data", b"takeme" * 10, DATA)]))
    pool = harvest_sections([S(str(p), "g")], k=1, seed=0)
    assert len(pool) == 1
    assert pool.sections[0][1] == b".data"
    with pytest.raises(PoolExhausted):
        harvest_sections([S(str(p), "g")], k=2, seed=0)


def test_harvest_from_corpus_is_seeded(unit_corpus):
    goodware = [s for s in unit_corpus.samples("present-train") if s.label == 0]
    a = harvest_sections(goodware, k=10, seed=3)
    b = harvest_sections(goodware, k=10, seed=3)
    c = harvest_sections(goodware, k=10, seed=4)
    assert a.sections == b.sections
    assert a.sections != c.sections
    assert len(a) == 10
    assert all(content for _, _, content in a.sections)


@pytest.mark.parametrize("seed", [0, 3, 11, 2026])
@pytest.mark.parametrize("k", [1, 10, 100])
def test_harvest_draws_the_pool_of_the_reference(unit_corpus, tmp_path, seed, k):
    """The harvesting that keeps (sample, section index) pairs and reads only
    the drawn files gives the pool of the one that held every section's bytes,
    a file that is not a PE among the sources included."""
    bad = tmp_path / "not-a-pe.bin"
    bad.write_bytes(b"MZ" + bytes(100))
    goodware = [s for s in unit_corpus.samples() if s.label == 0]
    goodware.insert(5, dataclasses.replace(goodware[0], path=str(bad), sha256="bad"))
    want = naive_attack.harvest_sections(goodware, k, seed)
    assert harvest_sections(goodware, k, seed).sections == want.sections


# --- manipulation ------------------------------------------------------------

def test_gene_bytes_round_per_gene():
    pool = tiny_pool(2)
    lens = pool.lengths()
    assert gene_bytes(pool, [0.0, 0.0]) == [0, 0]
    assert gene_bytes(pool, [1.0, 1.0]) == list(lens)
    assert gene_bytes(pool, [0.5, 0.0]) == [round(0.5 * lens[0]), 0]


def test_apply_manipulation_zero_vector_is_identity():
    raw = malware_bytes()
    pe = parse_pe(raw)
    out, payload = apply_manipulation(InjectionPlan(pe), tiny_pool(3), [0.0, 0.0, 0.0])
    assert out == raw
    assert payload == 0


def test_apply_manipulation_injects_exact_prefixes():
    raw = malware_bytes()
    pe = parse_pe(raw)
    pool = tiny_pool(3)
    out, payload = apply_manipulation(InjectionPlan(pe), pool, [1.0, 0.0, 0.25])
    assert payload == sum(gene_bytes(pool, [1.0, 0.0, 0.25]))
    adv = parse_pe(out)
    names = [s.name for s in adv.sections]
    assert names[:2] == [b".text", b".data"]
    assert b".gamma00" in names and b".gamma02" in names
    assert b".gamma01" not in names
    sec0 = next(s for s in adv.sections if s.name == b".gamma00")
    content0 = pool.sections[0][2]
    assert sec0.data[:len(content0)] == content0
    n2 = round(0.25 * len(pool.sections[2][2]))
    sec2 = next(s for s in adv.sections if s.name == b".gamma02")
    assert sec2.data[:n2] == pool.sections[2][2][:n2]
    # original bytes intact
    assert adv.sections[0].data == pe.sections[0].data
    assert adv.entry_point_rva == pe.entry_point_rva


def test_apply_manipulation_length_mismatch():
    with pytest.raises(ValueError):
        apply_manipulation(InjectionPlan(parse_pe(malware_bytes())), tiny_pool(3), [0.5])


# --- the search itself -------------------------------------------------------

def test_every_oracle_call_is_traced():
    calls = []

    def target(raw):
        calls.append(raw)
        return 0.9

    cfg = AttackConfig(query_budget=37, seed=1, success_threshold=0.0)
    trace = gamma_attack(target, malware_bytes(), tiny_pool(3), cfg)
    assert trace.queries_used == len(calls) == 37
    assert not trace.succeeded


@pytest.mark.parametrize("budget", [0, -1])
def test_budget_zero_rejected(budget):
    with pytest.raises(BudgetZero, match=f"^query budget must be an integer >= 1, not {budget}$"):
        AttackConfig(query_budget=budget, seed=0)


def test_constant_low_oracle_succeeds_in_one_query():
    trace = gamma_attack(lambda raw: 0.0, malware_bytes(), tiny_pool(3),
                         AttackConfig(query_budget=50, seed=0))
    assert trace.succeeded
    assert trace.queries_used == 1
    assert trace.best_score == 0.0


def test_best_objective_is_monotone_over_the_trace():
    def target(raw):
        # deterministic pseudo-score from content
        return (raw[-1] % 97) / 97.0 * 0.4 + 0.55

    cfg = AttackConfig(query_budget=60, seed=5, lam=1e-6,
                       success_threshold=0.0)
    pool = tiny_pool(3)
    trace = gamma_attack(target, malware_bytes(), pool, cfg)
    best = float("inf")
    for s, score, payload in trace.queries:
        best = min(best, score + cfg.lam * payload)
    assert trace.best_objective == best
    assert trace.best_score is not None
    assert trace.best_payload == sum(gene_bytes(pool, trace.best_s)) <= sum(pool.lengths())


def test_payload_pressure_prefers_smaller_injections():
    # score is flat, so the only signal is the payload regularizer
    pool = tiny_pool(4)
    cfg = AttackConfig(query_budget=80, seed=2, lam=1e-3,
                       success_threshold=0.0)
    trace = gamma_attack(lambda raw: 0.9, malware_bytes(), pool, cfg)
    first_payload = trace.queries[0][2]
    assert trace.best_payload <= first_payload


def test_search_is_deterministic():
    def target(raw):
        return (len(raw) % 1009) / 1009.0

    cfg = AttackConfig(query_budget=40, seed=9, success_threshold=0.0)
    t1 = gamma_attack(target, malware_bytes(), tiny_pool(3), cfg)
    t2 = gamma_attack(target, malware_bytes(), tiny_pool(3), cfg)
    assert t1.best_digest == t2.best_digest
    assert [q[1] for q in t1.queries] == [q[1] for q in t2.queries]


def test_adversarial_file_differs_only_by_appended_sections():
    raw = malware_bytes()
    pe = parse_pe(raw)
    out, _ = apply_manipulation(InjectionPlan(pe), tiny_pool(2), [0.5, 0.5])
    adv = parse_pe(out)
    # byte-level check: original section payloads appear verbatim in the output
    for s in pe.sections:
        assert s.data in out
    assert len(adv.sections) == len(pe.sections) + 2


@pytest.mark.parametrize("stage", ["blocklist", None], ids=["blocklisted", "no-rule"])
def test_every_queried_mutant_equals_the_oracle(unit_system_dir, unit_corpus, stage):
    """A whole attack against the unit system: each mutant the target receives
    has the bytes that the one-section-at-a-time oracle gives for the vector
    traced with it. A blocklisted sample never evades, so it spends the budget;
    the unit model alone lets every sample evade at once, so the other search
    runs to a zero threshold and spends its budget too."""
    system = load_system(str(unit_system_dir / "system"))
    score_fn, _ = make_oracle(system)
    goodware = [s for s in unit_corpus.samples("present-train") if s.label == 0]
    pool = harvest_sections(goodware, k=10, seed=0)
    for rec in unit_corpus.samples("future"):
        with open(rec.path, "rb") as fh:
            raw = fh.read()
        route = route_rules(raw, system.allowlist, system.blocklist)
        if rec.label == 1 and (route and route.stage) == stage:
            break
    else:
        pytest.fail(f"no future malware with route {stage}")
    received = []

    def target(mutant):
        received.append(mutant)
        return score_fn(mutant)

    cfg = AttackConfig(query_budget=200, seed=0,
                       success_threshold=system.threshold if stage else 0.0)
    trace = gamma_attack(target, raw, pool, cfg)
    assert len(received) == trace.queries_used == cfg.query_budget
    assert not trace.succeeded
    pe = parse_pe(raw)
    for mutant, (s, _, payload) in zip(received, trace.queries):
        items = [(b".gamma%02d" % i, content[:round(float(si) * len(content))])
                 for i, ((_, _, content), si) in enumerate(zip(pool.sections, s))]
        assert mutant == naive_pe.serialize_pe(naive_pe.inject_all(pe, items))
        assert payload == sum(len(content) for _, content in items)


def test_trace_jsonl_round_trip(tmp_path):
    trace = gamma_attack(lambda raw: 0.7, malware_bytes(), tiny_pool(2),
                         AttackConfig(query_budget=5, seed=0,
                                      success_threshold=0.0))
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(lines) == 6
    assert all("score" in l for l in lines[:-1])
    assert lines[-1]["queries_used"] == 5


# --- one attacked sample -----------------------------------------------------

def test_attack_sample_rows():
    """A constant 0.4 target evades at the first query, a constant 0.6 one
    never does; the row's rules come from the probe on the best candidate."""
    pool = tiny_pool(3)
    cfg = AttackConfig(query_budget=6, seed=0,
                       success_threshold=0.5)

    def probe(raw):
        return (hashlib.sha256(raw).hexdigest(),)

    for clean, evaded in ((0.4, True), (0.6, False)):
        row, trace = attack_sample(lambda raw: clean, malware_bytes(), pool, cfg,
                                   rule_probe=probe)
        assert row["queries"] == trace.queries_used <= cfg.query_budget
        assert row["clean_score"] == clean
        assert row["evaded"] is evaded
        assert row["payload_kb"] == sum(gene_bytes(pool, trace.best_s)) / 1024
        assert row["fired_on_best"] == [trace.best_digest]


def test_attack_sample_probes_the_rules_once_on_the_rebuilt_best():
    """The rule probe runs once per sample, on the best query's bytes, which
    the clean sample's plan rebuilds from best_s alone. An oracle that falls
    with the payload improves the best query many times before the budget
    ends the search."""
    pool = tiny_pool(3)
    raw = malware_bytes()
    cfg = AttackConfig(query_budget=60, seed=3, lam=0.0, success_threshold=0.0)
    probed = []

    def probe(mutant):
        probed.append(mutant)
        return ("r",)

    def target(mutant):
        return 1.0 / len(mutant)

    row, trace = attack_sample(target, raw, pool, cfg, rule_probe=probe)
    assert trace.queries_used == cfg.query_budget
    improvements = sum(1 for i, q in enumerate(trace.queries)
                       if all(q[1] < p[1] for p in trace.queries[:i]))
    assert improvements > 1
    rebuilt = apply_manipulation(InjectionPlan(parse_pe(raw)), pool, trace.best_s)[0]
    assert probed == [rebuilt]
    assert hashlib.sha256(rebuilt).hexdigest() == trace.best_digest
    assert row["fired_on_best"] == ["r"]


def test_search_stops_at_an_evading_query_and_reports_it():
    """An evading query can have a worse objective than an earlier one: here
    only a payload over 42,000 bytes scores under the threshold, and lambda
    charges it more than the score gains. The search stops at that query, and
    both the trace and the row report it as the best, so the row evades."""
    pool = PayloadPool(sections=tuple((f"src{i}", b".pool%d" % i, b"\x01" * 20_000)
                                      for i in range(3)))
    clean = malware_bytes()

    def injected(raw):
        return sum(len(s.data.rstrip(b"\0")) for s in parse_pe(raw).sections
                   if s.name.startswith(b".gamma"))

    def target(raw):
        return 0.4 if injected(raw) > 42_000 else 0.6

    cfg = AttackConfig(query_budget=200, lam=1e-4, seed=0, success_threshold=0.5)
    row, trace = attack_sample(target, clean, pool, cfg)
    s, score, payload = trace.queries[-1]
    assert trace.succeeded
    assert score == 0.4 and payload > 42_000
    assert min(q[1] + cfg.lam * q[2] for q in trace.queries) < trace.best_objective
    assert trace.best_s is s
    assert (trace.best_score, trace.best_payload) == (score, payload)
    assert trace.best_objective == score + cfg.lam * payload
    assert row["evaded"] is True
    assert row["adv_score"] == 0.4
    assert row["payload_kb"] == payload / 1024


@pytest.mark.parametrize("k", [0, 101])
def test_pool_size_is_bounded(k):
    with pytest.raises(ValueError, match="1 to 100 sections"):
        tiny_pool(k)


def test_pool_of_one_hundred_sections_is_attacked():
    pool = tiny_pool(100)
    trace = gamma_attack(lambda raw: 0.9, malware_bytes(), pool,
                         AttackConfig(query_budget=2, seed=0, success_threshold=0.0))
    assert trace.queries_used == 2
    assert len(trace.best_s) == len(pool) == 100


def crowded_target(n_sections):
    return build_pe([(b".e", b"", DATA)] * n_sections)


def test_target_without_room_for_the_pool_raises_before_any_query():
    calls = []

    def target(raw):
        calls.append(raw)
        return 0.9

    with pytest.raises(SectionLimitExceeded, match="cannot exceed 65535 sections"):
        gamma_attack(target, crowded_target(65534), tiny_pool(10),
                     AttackConfig(query_budget=5, seed=0))
    assert calls == []


def test_target_with_exactly_enough_room_is_attacked():
    counts = []

    def target(raw):
        counts.append(parse_pe(raw).num_sections)
        return 0.9

    trace = gamma_attack(target, crowded_target(65535 - 10), tiny_pool(10),
                         AttackConfig(query_budget=2, seed=0, success_threshold=0.0))
    assert trace.queries_used == 2
    assert counts == [65535, 65535]     # every gene of both queries injects bytes


def test_attack_config_validation():
    """A NaN or infinite lambda leaves no query with a finite objective, a
    fractional budget is never met exactly, a threshold above 1 would count a
    blocklisted score of 1.0 as an evasion, and the search's draws take a
    seed that is an integer >= 0: each is refused, as the CLI refuses it."""
    for field_name, value, match in [
            ("lam", -1.0, "lambda"),
            ("lam", float("nan"), "lambda"),
            ("lam", float("inf"), "lambda"),
            ("lam", True, "lambda must be a finite number >= 0, not True"),
            ("query_budget", 2.5, "integer"),
            ("query_budget", 200.0, "integer"),
            ("query_budget", True, "integer"),
            ("seed", -1, "seed must be an integer >= 0, not -1"),
            ("seed", 1.5, "seed must be an integer >= 0, not 1.5"),
            ("seed", True, "seed must be an integer >= 0, not True"),
            ("success_threshold", float("nan"), "threshold"),
            ("success_threshold", 1.5, "threshold"),
            ("success_threshold", -0.1, "threshold"),
            ("success_threshold", True, "threshold")]:
        with pytest.raises(ValueError, match=re.escape(match)):
            AttackConfig(**{field_name: value})


@pytest.mark.parametrize("threshold", [0.0, 1.0])
def test_attack_config_accepts_the_threshold_bounds(threshold):
    assert AttackConfig(success_threshold=threshold).success_threshold == threshold


# --- targets settled by the blocklist ---------------------------------------

def planted_future_malware(unit_corpus, system):
    """(record, bytes) of each future malware the unit system blocklists."""
    found = []
    for rec in unit_corpus.samples("future"):
        with open(rec.path, "rb") as fh:
            raw = fh.read()
        route = route_rules(raw, system.allowlist, system.blocklist)
        if rec.label == 1 and route is not None and route.stage == "blocklist":
            found.append((rec, raw))
    return found


def unit_pool(unit_corpus):
    goodware = [s for s in unit_corpus.samples("present-train") if s.label == 0]
    return harvest_sections(goodware, k=10, seed=0)


def test_settled_oracle_gives_the_full_oracle_trace(unit_system_dir, unit_corpus):
    """Every planted future malware of the unit system is settled, and its
    search read from the schedule under the settled oracle (allowlist only)
    equals, field for field, the search under the full composite oracle and
    the naive search."""
    system = load_system(str(unit_system_dir / "system"))
    score_fn, rule_probe = make_oracle(system)
    settled_fn = functools.partial(score_fn, blocklisted=True)
    pool = unit_pool(unit_corpus)
    cfg = AttackConfig(query_budget=200, seed=0, success_threshold=system.threshold)
    schedule = SettledSchedule(pool, cfg)
    targets = planted_future_malware(unit_corpus, system)
    assert len(targets) == sum(1 for r in unit_corpus.samples("future") if r.planted)
    for rec, raw in targets:
        plan = InjectionPlan(parse_pe(raw))
        assert blocklist_settled(system.blocklist, raw, plan), rec.path
        assert schedule.trace(settled_fn, plan) is not None
        row, got = attack_sample(settled_fn, raw, pool, cfg, rule_probe, plan=plan,
                                 schedule=schedule)
        full_row, full = attack_sample(score_fn, raw, pool, cfg, rule_probe)
        naive = naive_attack.gamma_attack(score_fn, raw, pool, cfg, rule_probe)
        assert fields(got) == fields(full) == fields(naive)
        assert row == full_row
        assert got.queries_used == cfg.query_budget and got.fired_on_best


def allowing(system, digest):
    """system with an allowlist of one hash rule, on digest."""
    text = f'rule allowed_mutant {{ condition: hash.sha256(0, filesize) == "{digest}" }}\n'
    return dataclasses.replace(system, allow_text=text)


@pytest.mark.parametrize("threshold", [0.5, 0.0])
def test_an_allowlisted_scheduled_mutant_leaves_the_schedule(unit_system_dir, unit_corpus,
                                                             threshold):
    """Target A's k-th scheduled mutant is allowlisted, so it scores 0.0 there.
    At threshold 0.5 that query evades and ends A's search; at 0.0 it does
    not, but it becomes an elite and the search goes on along another path.
    Either way A's trace is gamma_attack's under the full oracle and the naive
    search's, field for field, and B, read from the same schedule before or
    after A, keeps the schedule's trace."""
    base = load_system(str(unit_system_dir / "system"))
    pool = unit_pool(unit_corpus)
    cfg = AttackConfig(query_budget=200, seed=0, success_threshold=threshold)
    (_, a), (_, b) = planted_future_malware(unit_corpus, base)[:2]
    k = 37
    scheduled = SettledSchedule(pool, cfg).trace(
        functools.partial(make_oracle(base)[0], blocklisted=True), InjectionPlan(parse_pe(a)))
    s_k = scheduled.queries[k][0]
    mutant, _ = apply_manipulation(InjectionPlan(parse_pe(a)), pool, s_k)
    system = allowing(base, hashlib.sha256(mutant).hexdigest())
    score_fn, rule_probe = make_oracle(system)
    settled_fn = functools.partial(score_fn, blocklisted=True)

    def attack(targets):
        """Each target's trace, attacked in this order from one schedule."""
        schedule = SettledSchedule(pool, cfg)
        return {raw: attack_sample(settled_fn, raw, pool, cfg, rule_probe,
                                   schedule=schedule)[1] for raw in targets}

    forward, backward = attack([a, b]), attack([b, a])
    got = forward[a]
    assert fields(got) == fields(backward[a])
    assert fields(got) == fields(gamma_attack(score_fn, a, pool, cfg, rule_probe)) \
        == fields(naive_attack.gamma_attack(score_fn, a, pool, cfg, rule_probe))
    assert got.queries[k][1] == 0.0 and np.array_equal(got.queries[k][0], s_k)
    assert [q[1] for q in got.queries[:k]] == [1.0] * k
    if threshold > 0.0:
        assert got.succeeded and got.queries_used == k + 1
        assert got.best_digest == hashlib.sha256(mutant).hexdigest()
    else:
        assert not got.succeeded and got.queries_used == cfg.query_budget
        assert got.best_score == 0.0 and np.array_equal(got.best_s, s_k)
        assert any(not np.array_equal(q[0], p[0])
                   for q, p in zip(got.queries[k + 1:], scheduled.queries[k + 1:]))
    assert fields(forward[b]) == fields(backward[b]) \
        == fields(gamma_attack(score_fn, b, pool, cfg, rule_probe))


def test_a_settled_trace_cannot_change_another(unit_system_dir, unit_corpus):
    """Traces read from one schedule share its queries and vectors, which are
    read-only: writing to them raises, and every other trace is unchanged."""
    system = load_system(str(unit_system_dir / "system"))
    score_fn, rule_probe = make_oracle(system)
    settled_fn = functools.partial(score_fn, blocklisted=True)
    pool = unit_pool(unit_corpus)
    cfg = AttackConfig(query_budget=60, seed=0, success_threshold=system.threshold)
    schedule = SettledSchedule(pool, cfg)
    (_, a), (_, b) = planted_future_malware(unit_corpus, system)[:2]
    one = schedule.trace(settled_fn, InjectionPlan(parse_pe(a)), rule_probe)
    other = schedule.trace(settled_fn, InjectionPlan(parse_pe(b)), rule_probe)
    before = fields(other)
    with pytest.raises(ValueError):
        one.best_s[0] = 0.5
    with pytest.raises(ValueError):
        one.queries[-1][0][:] = 0.0
    with pytest.raises(AttributeError):
        one.queries.append((one.best_s, 0.0, 0))
    one.best_score = 0.0
    assert fields(other) == before
    assert fields(schedule.trace(settled_fn, InjectionPlan(parse_pe(b)), rule_probe)) == before


def test_every_scheduled_mutant_is_apply_manipulation(monkeypatch):
    """A settled target's scheduled mutants are, query for query, what
    apply_manipulation emits from its plan for that query's s. The schedule
    lays out each query's sections once per alignment pair: a second target
    with the same alignments reuses them, one with another file alignment
    gets its own."""
    built = []
    monkeypatch.setattr(attack_mod, "InjectedSections",
                        lambda *args: built.append(args[1:]) or InjectedSections(*args))
    pool = tiny_pool(k=5)
    cfg = AttackConfig(query_budget=60, seed=3)
    schedule = SettledSchedule(pool, cfg)
    targets = [build_pe([(b".text", b"\xcc" * n, EXEC), (b".data", b"d" * 3 * n, DATA)],
                        file_align=align, min_headers=headers)
               for n, align, headers in ((200, 0x200, 0x400), (90, 0x200, 0), (200, 0x10, 0))]
    for raw, layouts in zip(targets, (60, 60, 120)):
        plan = InjectionPlan(parse_pe(raw))
        mutants = []
        trace = schedule.trace(lambda mutant: mutants.append(mutant) or 1.0, plan)
        assert len(mutants) == trace.queries_used == cfg.query_budget
        for mutant, (s, _, _) in zip(mutants, trace.queries):
            assert mutant == apply_manipulation(plan, pool, s)[0]
        assert len(built) == layouts
    assert built == [(0x200, 0x1000)] * 60 + [(0x10, 0x1000)] * 60
    plans = [InjectionPlan(parse_pe(raw)) for raw in targets]
    assert schedule.sections(plans[0].alignments) is schedule.sections(plans[1].alignments)
    assert schedule.sections(plans[2].alignments) is not schedule.sections(plans[0].alignments)


def filled(rng, data, align):
    """data led by random bytes to a multiple of align, so that it fills its
    raw size: its last bytes then meet whatever follows it."""
    return rng.randbytes(-len(data) % align) + data


def random_pool(rng, k, witnesses=()):
    """k sections of random bytes, with witnesses planted in some, so that
    an injection can add hits as well as bytes. Half end with a witness and
    fill a raw size of 0x200, so that injected in full they end right where
    the overlay starts."""
    def section():
        data = fuzz_gen.gen_data(rng, witnesses)
        if witnesses and rng.random() < 0.5:
            data = filled(rng, data + rng.choice(witnesses), 0x200)
        return data

    return PayloadPool(sections=tuple((f"src{i}", b".p%d" % i, section()) for i in range(k)))


def random_target(rng, witnesses):
    """A PE whose data section holds random bytes with witnesses planted, its
    overlay sometimes too; a small header region makes injections shift the
    section data, a large one leaves room in the section table.

    Half the time a witness sits at an edge of a kept span, where an anchored
    regex reads bytes that an injection changes: at the end of section data
    that fills its raw size with no overlay after it (the first injected byte
    follows it), or at the start of the overlay (the last injected byte
    precedes it)."""
    align = rng.choice([0x10, 0x200])
    data = fuzz_gen.gen_data(rng, witnesses)
    overlay = fuzz_gen.gen_data(rng, witnesses) if rng.random() < 0.3 else b""
    edge = rng.random() if witnesses else 1.0
    if edge < 0.25:
        data, overlay = filled(rng, data + rng.choice(witnesses), align), b""
    elif edge < 0.5:
        overlay = rng.choice(witnesses) + fuzz_gen.gen_data(rng, witnesses)
    return build_pe([(b".text", rng.randbytes(rng.randint(0, 300)), EXEC), (b".data", data, DATA)],
                    overlay=overlay, file_align=align, min_headers=rng.choice([0, 0x400]))


def test_settled_targets_fire_on_random_mutants():
    """Soundness: every fuzzed target that the proof settles is blocklisted on
    each of its random mutants. The fuzz settles many targets and leaves many
    blocklisted ones unsettled, so both sides of the proof are exercised.
    Every other rule fires on one anchored regex, which the proof must refuse:
    at a span's edge an injection breaks its hits."""
    rng = random.Random(2026)
    settled = unsettled = 0
    for i in range(300):
        gen = fuzz_gen.gen_anchored_rule if i % 2 else fuzz_gen.gen_rule
        text, _, witnesses = gen(rng, f"fz{i}")
        rs = parse_rules(text)
        for _ in range(2):
            raw = random_target(rng, witnesses)
            with fuzz_gen.deadline(f"seed 2026, rule {i}\n{text}"):
                fired = scan(raw, rs).verdict
            if not fired:
                continue
            plan = InjectionPlan(parse_pe(raw))
            if not blocklist_settled(rs, raw, plan):
                unsettled += 1
                continue
            settled += 1
            pool = random_pool(rng, rng.randint(1, 6), witnesses)
            for _ in range(5):
                s = [rng.choice([0.0, 1.0, rng.random()]) for _ in range(len(pool))]
                mutant, _ = apply_manipulation(plan, pool, s)
                with fuzz_gen.deadline(f"seed 2026, rule {i}, s={s}\n{text}"):
                    fired = scan(mutant, rs).verdict
                assert fired, (text, s)
    assert settled >= 50 and unsettled >= 50, (settled, unsettled)


def test_every_mutant_keeps_the_spans_and_grows():
    """Every injected file is at least as long as the clean file and holds
    each kept span verbatim: the section data where the first data section
    now starts, and the overlay at its end."""
    rng = random.Random(5)
    for _ in range(60):
        raw = random_target(rng, [b"witness"])
        pe = parse_pe(raw)
        plan = InjectionPlan(pe)
        (data_start, data_end), (overlay_start, overlay_end) = plan.kept
        # the first section with raw data: an empty .text has none and no offset
        first = next(i for i, section in enumerate(pe.sections) if section.raw_size)
        assert plan.clean == raw
        assert data_start == pe.sections[first].raw_offset and overlay_end == len(raw)
        pool = random_pool(rng, rng.randint(1, 12), [b"witness"])
        for _ in range(4):
            s = [rng.choice([0.0, rng.random()]) for _ in range(len(pool))]
            mutant, _ = apply_manipulation(plan, pool, s)
            assert len(mutant) >= len(plan.clean)
            moved = parse_pe(mutant).sections[first].raw_offset - data_start
            assert mutant[data_start + moved:data_end + moved] == raw[data_start:data_end]
            assert mutant[len(mutant) - (overlay_end - overlay_start):] \
                == raw[overlay_start:overlay_end]


PLANT = b"PLANTED!"
TAIL = b"tail OVERLAY"


def plain_target():
    """.data holds PLANT twice; the overlay follows it."""
    return build_pe([(b".text", b"\xcc" * 200, EXEC),
                     (b".data", b"xx " + PLANT + b" yy " + PLANT, DATA)], overlay=TAIL)


def rule(strings, condition):
    """A blocklist of one rule with these string lines and this condition."""
    lines = "".join(f"        {line}\n" for line in strings)
    return parse_rules("rule r\n{\n" + (f"    strings:\n{lines}" if strings else "")
                       + f"    condition:\n        {condition}\n}}\n")


TEXT = '$a = "PLANTED!"'
HEX = "$a = { " + " ".join(f"{b:02X}" for b in PLANT) + " }"
ABSENT = '$b = "nowhere"'


@pytest.mark.parametrize("strings,condition", [
    ([TEXT], "$a"),
    ([HEX], "$a"),
    ([TEXT], "#a >= 2"),
    ([TEXT], "#a > 1"),
    ([TEXT, ABSENT], "any of them"),
    ([TEXT, ABSENT], "$a or not $b"),
    ([TEXT], "$a and filesize > 100"),
    ([], "filesize >= 100"),
    ([TEXT], "#a != 0"),
    ([TEXT], "$a and not (filesize < 100)"),
    ([HEX], "#a >= 1"),
], ids=["text", "hex", "count-ge", "count-gt", "any-of", "or-not", "and-filesize", "filesize",
        "count-ne", "and-not-filesize-lt", "hex-count-ge-1"])
def test_monotone_conditions_settle(strings, condition):
    raw = plain_target()
    rs = rule(strings, condition)
    assert scan(raw, rs).verdict
    assert blocklist_settled(rs, raw, InjectionPlan(parse_pe(raw)))


@pytest.mark.parametrize("strings,condition", [
    ([ABSENT], "not $b"),
    ([], "filesize < 100000"),
    ([], f'hash.sha256(0, filesize) == "{hashlib.sha256(plain_target()).hexdigest()}"'),
    ([TEXT], "#a == 2"),
    ([HEX], "#a >= 2"),
    (['$a = /PLANTED!/'], "$a"),
    ([TEXT], "$a and filesize < 100000"),
    ([TEXT, "$b = /xx /"], "all of them"),
    ([], "uint16(0) == 0x5A4D"),
], ids=["not", "filesize-lt", "hash", "count-eq", "hex-count", "regex", "and-filesize-lt",
        "all-of-regex", "uint"])
def test_excluded_constructs_do_not_settle(strings, condition):
    raw = plain_target()
    rs = rule(strings, condition)
    assert scan(raw, rs).verdict
    assert not blocklist_settled(rs, raw, InjectionPlan(parse_pe(raw)))


def test_a_hit_in_the_patched_header_does_not_settle():
    raw = bytearray(plain_target())
    raw[0x40:0x40 + 6] = b"HEADER"          # the DOS stub, inside the header region
    raw = bytes(raw)
    rs = rule(['$a = "HEADER"'], "$a")
    assert scan(raw, rs).verdict and InjectionPlan(parse_pe(raw)).clean == raw
    assert not blocklist_settled(rs, raw, InjectionPlan(parse_pe(raw)))


def test_a_hit_across_a_span_end_does_not_settle():
    """The section data ends in END! and the overlay starts right after it;
    an injected section lands between the two."""
    raw = build_pe([(b".data", b"\x01" * 0x1FC + b"END!", DATA)], overlay=TAIL)
    rs = rule(['$a = "END!tail"'], "$a")
    assert scan(raw, rs).verdict
    assert not blocklist_settled(rs, raw, InjectionPlan(parse_pe(raw)))
    mutant, _ = apply_manipulation(InjectionPlan(parse_pe(raw)), tiny_pool(1), [1.0])
    assert not scan(mutant, rs).verdict


def test_a_hit_the_clean_file_drops_does_not_settle():
    """A hit in a gap between sections is in raw but not in the clean file
    the injection plan emits from, so no mutant holds it."""
    raw = bytearray(build_pe([(b".data", b"\x01" * 0x400, DATA), (b".rsrc", b"\x02" * 16, DATA)]))
    pe = parse_pe(bytes(raw))
    table = pe.section_table_offset()
    struct.pack_into("<I", raw, table + 16, 0x200)    # .data's raw size: the rest is a gap
    at = pe.sections[0].raw_offset + 0x300
    raw[at:at + len(PLANT)] = PLANT
    raw = bytes(raw)
    rs = rule([TEXT], "$a")
    assert scan(raw, rs).verdict
    assert InjectionPlan(parse_pe(raw)).clean != raw
    assert not blocklist_settled(rs, raw, InjectionPlan(parse_pe(raw)))
