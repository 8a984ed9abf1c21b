import hashlib
import json

import numpy as np
import pytest

import naive_pe
from sievemal.attack import (
    AttackConfig,
    PayloadPool,
    apply_manipulation,
    attack_sample,
    gamma_attack,
    gene_bytes,
    harvest_sections,
)
from sievemal.errors import BudgetZero, PoolExhausted, SectionLimitExceeded
from sievemal.pe import InjectionPlan, build_pe, parse_pe
from sievemal.pipeline import load_system, make_oracle, route_rules

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
    with pytest.raises(BudgetZero, match="query budget must be positive"):
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
    with pytest.raises(ValueError):
        AttackConfig(lam=-1.0)
