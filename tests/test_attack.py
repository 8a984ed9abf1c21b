import hashlib
import json

import numpy as np
import pytest

from sievemal.attack import (
    AttackConfig,
    PayloadPool,
    apply_manipulation,
    attack_sample,
    gamma_attack,
    harvest_sections,
    payload_size,
)
from sievemal.corpus import build_pe
from sievemal.errors import BudgetZero, PoolExhausted
from sievemal.pe import parse_pe

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

def test_payload_size_rounds_per_gene():
    pool = tiny_pool(2)
    lens = pool.lengths()
    assert payload_size(pool, [0.0, 0.0]) == 0
    assert payload_size(pool, [1.0, 1.0]) == sum(pool.lengths())
    assert payload_size(pool, [0.5, 0.0]) == round(0.5 * lens[0])


def test_apply_manipulation_zero_vector_is_identity():
    raw = malware_bytes()
    pe = parse_pe(raw)
    out = apply_manipulation(pe, tiny_pool(3), [0.0, 0.0, 0.0])
    assert out == raw


def test_apply_manipulation_injects_exact_prefixes():
    raw = malware_bytes()
    pe = parse_pe(raw)
    pool = tiny_pool(3)
    out = apply_manipulation(pe, pool, [1.0, 0.0, 0.25])
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
        apply_manipulation(parse_pe(malware_bytes()), tiny_pool(3), [0.5])


# --- the search itself -------------------------------------------------------

def test_every_oracle_call_is_traced():
    calls = []

    def target(raw):
        calls.append(raw)
        return 0.9

    cfg = AttackConfig(k=3, query_budget=37, seed=1, success_threshold=0.0)
    trace = gamma_attack(target, malware_bytes(), tiny_pool(3), cfg)
    assert trace.queries_used == len(calls) == 37
    assert not trace.succeeded


def test_budget_zero_rejected():
    with pytest.raises(BudgetZero):
        gamma_attack(lambda raw: 1.0, malware_bytes(), tiny_pool(3),
                     AttackConfig(k=3, query_budget=0, seed=0))


def test_constant_low_oracle_succeeds_in_one_query():
    trace = gamma_attack(lambda raw: 0.0, malware_bytes(), tiny_pool(3),
                         AttackConfig(k=3, query_budget=50, seed=0))
    assert trace.succeeded
    assert trace.queries_used == 1
    assert trace.best_score == 0.0


def test_best_objective_is_monotone_over_the_trace():
    def target(raw):
        # deterministic pseudo-score from content
        return (raw[-1] % 97) / 97.0 * 0.4 + 0.55

    cfg = AttackConfig(k=3, query_budget=60, seed=5, lam=1e-6,
                       success_threshold=0.0)
    pool = tiny_pool(3)
    trace = gamma_attack(target, malware_bytes(), pool, cfg)
    best = float("inf")
    for s, score, payload in trace.queries:
        best = min(best, score + cfg.lam * payload)
    assert trace.best_objective == best
    assert trace.best_score is not None
    assert payload_size(pool, trace.best_s) <= sum(pool.lengths())


def test_payload_pressure_prefers_smaller_injections():
    # score is flat, so the only signal is the payload regularizer
    pool = tiny_pool(4)
    cfg = AttackConfig(k=4, query_budget=80, seed=2, lam=1e-3,
                       success_threshold=0.0)
    trace = gamma_attack(lambda raw: 0.9, malware_bytes(), pool, cfg)
    first_payload = trace.queries[0][2]
    assert payload_size(pool, trace.best_s) <= first_payload


def test_search_is_deterministic():
    def target(raw):
        return (len(raw) % 1009) / 1009.0

    cfg = AttackConfig(k=3, query_budget=40, seed=9, success_threshold=0.0)
    t1 = gamma_attack(target, malware_bytes(), tiny_pool(3), cfg)
    t2 = gamma_attack(target, malware_bytes(), tiny_pool(3), cfg)
    assert t1.best_digest == t2.best_digest
    assert [q[1] for q in t1.queries] == [q[1] for q in t2.queries]


def test_adversarial_file_differs_only_by_appended_sections():
    raw = malware_bytes()
    pe = parse_pe(raw)
    out = apply_manipulation(pe, tiny_pool(2), [0.5, 0.5])
    adv = parse_pe(out)
    # byte-level check: original section payloads appear verbatim in the output
    for s in pe.sections:
        assert s.data in out
    assert len(adv.sections) == len(pe.sections) + 2


def test_trace_jsonl_round_trip(tmp_path):
    trace = gamma_attack(lambda raw: 0.7, malware_bytes(), tiny_pool(2),
                         AttackConfig(k=2, query_budget=5, seed=0,
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
    cfg = AttackConfig(k=3, query_budget=6, seed=0, population=3,
                       success_threshold=0.5)

    def probe(raw):
        return (hashlib.sha256(raw).hexdigest(),)

    for clean, evaded in ((0.4, True), (0.6, False)):
        row, trace = attack_sample(lambda raw: clean, malware_bytes(), pool, cfg,
                                   rule_probe=probe)
        assert row["queries"] == trace.queries_used <= cfg.query_budget
        assert row["clean_score"] == clean
        assert row["evaded"] is evaded
        assert row["payload_kb"] == payload_size(pool, trace.best_s) / 1024
        assert row["fired_on_best"] == [trace.best_digest]


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(k=0)
    with pytest.raises(ValueError):
        AttackConfig(k=1, population=0)
    with pytest.raises(ValueError):
        AttackConfig(k=1, lam=-1.0)
