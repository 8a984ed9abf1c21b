import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievemal.errors import DegenerateLabels
from sievemal.evaluation import (
    RocCurve,
    composite_roc,
    curve_rows,
    detection_rate_curve,
    roc,
    rule_stats,
    tpr_at_fpr,
    write_curve_files,
    write_report,
)
from sievemal.pipeline import Route, route_rules


def brute_force_roc_points(scores, labels):
    """Oracle: evaluate score >= t for every distinct threshold explicitly."""
    n_pos = sum(1 for y in labels if y == 1)
    n_neg = len(labels) - n_pos
    pts = {(0.0, 0.0)}
    for t in set(scores):
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 0)
        pts.add((fp / n_neg, tp / n_pos))
    return sorted(pts)


def area(curve):
    """Trapezoid area under a curve's (fpr, tpr) points."""
    pts = curve.points
    return sum((x1 - x0) * (y0 + y1) / 2 for (x0, y0, _), (x1, y1, _) in zip(pts, pts[1:]))


# --- plain roc ---------------------------------------------------------------

def test_roc_tiny_example_by_hand():
    # scores: m=0.9, g=0.8, m=0.7, g=0.1
    curve = roc([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0])
    assert curve.points == (
        (0.0, 0.0, float("inf")),
        (0.0, 0.5, 0.9),
        (0.5, 0.5, 0.8),
        (0.5, 1.0, 0.7),
        (1.0, 1.0, 0.1),
    )
    assert math.isclose(area(curve), 0.75)


def test_roc_perfect_and_inverted():
    perfect = roc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert (0.0, 1.0, 0.8) in perfect.points
    assert math.isclose(area(perfect), 1.0)
    inverted = roc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
    assert math.isclose(area(inverted), 0.0)


def test_roc_ties_collapse_to_single_diagonal_step():
    curve = roc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
    assert curve.points == ((0.0, 0.0, float("inf")), (1.0, 1.0, 0.5))


def test_roc_requires_both_classes():
    with pytest.raises(DegenerateLabels):
        roc([0.1, 0.2], [1, 1])
    with pytest.raises(DegenerateLabels):
        roc([0.1, 0.2], [0, 0])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]),
                          st.integers(0, 1)),
                min_size=2, max_size=30))
def test_roc_matches_bruteforce_threshold_enumeration(pairs):
    scores = [p[0] for p in pairs]
    labels = [p[1] for p in pairs]
    if len(set(labels)) < 2:
        return
    curve = roc(scores, labels)
    got = sorted({(p[0], p[1]) for p in curve.points})
    assert got == brute_force_roc_points(scores, labels)


def test_roc_thresholds_strictly_decreasing():
    rng = random.Random(0)
    scores = [rng.choice([0.2, 0.4, 0.6]) for _ in range(40)]
    labels = [rng.randint(0, 1) for _ in range(40)]
    curve = roc(scores, labels)
    thrs = [p[2] for p in curve.points]
    assert all(a > b for a, b in zip(thrs, thrs[1:]))


# --- operating point ---------------------------------------------------------

def test_tpr_at_fpr_is_conservative():
    curve = RocCurve(points=(
        (0.0, 0.0, float("inf")),
        (0.0, 0.4, 0.9),
        (0.05, 0.6, 0.7),
        (0.2, 0.9, 0.5),
        (1.0, 1.0, 0.1),
    ))
    # nothing achievable strictly between 0.05 and 0.2: stay at 0.05
    tpr, thr = tpr_at_fpr(curve, 0.1)
    assert (tpr, thr) == (0.6, 0.7)
    tpr, thr = tpr_at_fpr(curve, 0.0)
    assert (tpr, thr) == (0.4, 0.9)
    tpr, thr = tpr_at_fpr(curve, 1.0)
    assert tpr == 1.0


def test_tpr_at_fpr_full_confidence_tie():
    # exact 1.0 for all malware plus one goodware: the top step is joint,
    # so zero FPR is unreachable and the conservative answer is TPR 0
    curve = roc([1.0, 1.0, 1.0, 0.3], [1, 1, 0, 0])
    assert curve.points[1] == (0.5, 1.0, 1.0)
    tpr, _ = tpr_at_fpr(curve, 0.01)
    assert tpr == 0.0


def test_tpr_at_fpr_below_the_rule_floor_is_none():
    # one of four goodware is blocklisted: every composite point has fpr >= 0.25
    routes = [Route("blocklist", None, ("r",)), Route("ml", 0.9, ()), Route("ml", 0.2, ()),
              Route("ml", 0.1, ()), Route("ml", 0.8, ()), Route("ml", 0.3, ())]
    curve = composite_roc(routes, [0, 0, 0, 0, 1, 1])
    assert curve.points[0] == (0.25, 0.0, float("inf"))
    assert tpr_at_fpr(curve, 0.01) == (None, None)
    assert tpr_at_fpr(curve, 0.25) == (0.0, float("inf"))


# --- composite pipeline roc --------------------------------------------------

def routed(table, samples):
    """(routes, labels) looked up in a table (raw -> (stage, score, fired))
    instead of routing real files."""
    return [table[raw] for raw, _ in samples], [label for _, label in samples]


def exhaustive_composite_points(samples, table):
    """Oracle: enumerate every threshold over the ml scores explicitly."""
    m_total = sum(1 for _, y in samples if y == 1)
    g_total = len(samples) - m_total
    ml = [(1.0 if table[r][1] is None else table[r][1], y)
          for r, y in samples if table[r][0] == "ml"]
    m_rules = sum(1 for r, y in samples if table[r][0] == "blocklist" and y == 1)
    f_rules = sum(1 for r, y in samples if table[r][0] == "blocklist" and y == 0)
    pts = {(f_rules / g_total, m_rules / m_total)}
    for t in {s for s, _ in ml}:
        tp = m_rules + sum(1 for s, y in ml if s >= t and y == 1)
        fp = f_rules + sum(1 for s, y in ml if s >= t and y == 0)
        pts.add((fp / g_total, tp / m_total))
    return sorted(pts)


def make_composite_instance(seed):
    """20 samples across all three routing stages with score ties."""
    rng = random.Random(seed)
    table = {}
    samples = []
    for i in range(20):
        raw = b"sample-%02d" % i
        label = rng.randint(0, 1)
        r = rng.random()
        if r < 0.15:
            table[raw] = ("allowlist", None, ("allow_hash",))
        elif r < 0.40:
            table[raw] = ("blocklist", None, ("bank_00",))
        else:
            score = rng.choice([None, 0.1, 0.5, 0.5, 0.9, 1.0])
            table[raw] = ("ml", score, ())
        samples.append((raw, label))
    return samples, table


def test_composite_roc_matches_exhaustive_enumeration():
    hit = 0
    for seed in range(30):
        samples, table = make_composite_instance(seed)
        labels = [y for _, y in samples]
        if len(set(labels)) < 2:
            continue
        hit += 1
        curve = composite_roc(*routed(table, samples))
        got = sorted({(p[0], p[1]) for p in curve.points})
        assert got == exhaustive_composite_points(samples, table)
    assert hit >= 20


def test_composite_roc_floor_point():
    samples, table = make_composite_instance(3)
    m_total = sum(1 for _, y in samples if y == 1)
    g_total = len(samples) - m_total
    m_rules = sum(1 for r, y in samples if table[r][0] == "blocklist" and y == 1)
    f_rules = sum(1 for r, y in samples if table[r][0] == "blocklist" and y == 0)
    curve = composite_roc(*routed(table, samples))
    first = curve.points[0]
    assert first == (f_rules / g_total, m_rules / m_total, float("inf"))
    assert all(p[0] >= f_rules / g_total for p in curve.points)


def test_composite_roc_allowlisted_malware_never_detected():
    samples = [(b"am", 1), (b"m", 1), (b"g", 0)]
    table = {
        b"am": ("allowlist", None, ("h",)),
        b"m": ("ml", 0.99, ()),
        b"g": ("ml", 0.01, ()),
    }
    curve = composite_roc(*routed(table, samples))
    # even at the loosest threshold half the malware stays invisible
    assert max(p[1] for p in curve.points) == 0.5


def test_composite_roc_extraction_failure_scores_positive():
    samples = [(b"broken", 1), (b"g", 0)]
    table = {b"broken": ("ml", None, ()), b"g": ("ml", 0.2, ())}
    curve = composite_roc(*routed(table, samples))
    assert (0.0, 1.0, 1.0) in curve.points


# --- rule performance table --------------------------------------------------

def rule_routes(samples, allow, block):
    """Routes of sample files through the rules alone; a file no rule decides
    goes to the model, which rule statistics never consult."""
    routes = []
    for s in samples:
        with open(s.path, "rb") as fh:
            routes.append(route_rules(fh.read(), allow, block) or Route("ml", None, ()))
    return routes


def test_rule_stats_exact_counts(unit_corpus, unit_blocklist, unit_allowlist):
    samples = unit_corpus.samples()
    stats = rule_stats(rule_routes(samples, unit_allowlist, unit_blocklist),
                       [s.label for s in samples], [s.epoch for s in samples])
    assert stats["present-train"]["malware_total"] == 120
    assert stats["present-train"]["goodware_total"] == 80
    assert stats["present-train"]["tpr"] == pytest.approx(0.30)
    assert stats["present-test"]["tpr"] == pytest.approx(0.30)
    assert stats["future"]["tpr"] == pytest.approx(0.45)
    for epoch in ("present-train", "present-test", "future"):
        assert stats[epoch]["fpr"] == 0.0
    # allowlist registered 10% of present goodware by hash
    assert stats["present-train"]["allowlist_goodware"] == 8
    assert stats["present-test"]["allowlist_goodware"] == 2
    assert stats["future"]["allowlist_goodware"] == 0


def test_rule_stats_allowlist_precedence():
    from sievemal.rules import parse_rules

    import hashlib
    digest = hashlib.sha256(b"token-both-lists").hexdigest()
    allow = parse_rules(
        'rule a { condition: hash.sha256(0, filesize) == "%s" }' % digest,
        role="allowlist")
    block = parse_rules('rule b { strings: $t = "token" condition: $t }')
    route = route_rules(b"token-both-lists", allow, block)
    c = rule_stats([route], [0], ["present-test"])["present-test"]
    assert c["allowlist_goodware"] == 1
    assert c["blocklist_goodware"] == 0


# --- detection-rate summaries ------------------------------------------------

def attack_rows(*pairs):
    return [{"payload_kb": kb, "adv_score": score} for kb, score in pairs]


def test_detection_rate_curve_buckets():
    rows = attack_rows((10, 0.9), (10, 0.1), (50, 0.8), (50, 0.9), (50, 0.2), (5, 0.99))
    curve = detection_rate_curve(rows, threshold=0.5)
    assert curve == [(5, 1.0), (10, 0.5), (50, 2 / 3)]


def test_detection_rate_curve_rounds_payload_to_whole_kb():
    rows = attack_rows((9.6, 0.9), (10.4, 0.1), (0.4, 0.8), (50.3, 0.9))
    assert detection_rate_curve(rows, threshold=0.5) == [(0, 1.0), (10, 0.5), (50, 1.0)]


def test_detection_rate_curve_threshold_inclusive():
    assert detection_rate_curve(attack_rows((1, 0.5)), threshold=0.5) == [(1, 1.0)]


# --- emission ----------------------------------------------------------------

def test_write_report_bytes(tmp_path):
    path = tmp_path / "report.json"
    write_report(path, {"b": [1, 2.5], "a": {"z": None, "y": "\u00e9"}})
    assert path.read_bytes() == (b'{\n  "a": {\n    "y": "\\u00e9",\n    "z": null\n  },\n'
                                 b'  "b": [\n    1,\n    2.5\n  ]\n}\n')
    assert json.loads(path.read_bytes().decode("utf-8"))["a"]["y"] == "\u00e9"


def test_write_report_and_curves(tmp_path):
    curve = roc([0.9, 0.1], [1, 0])
    report_path = tmp_path / "report.json"
    write_report(report_path, {"tpr": 1.0, "curve": curve_rows(curve)})
    doc = json.loads(report_path.read_text())
    assert doc["tpr"] == 1.0
    assert doc["curve"][0][2] == float("inf")

    script = write_curve_files(str(tmp_path / "curves"), {"bare": curve_rows(curve)})
    dat = (tmp_path / "curves.bare.dat").read_text().splitlines()
    assert dat[0].startswith("#")
    assert len(dat) == 1 + len(curve.points)
    with open(script) as fh:
        assert "plot" in fh.read()
