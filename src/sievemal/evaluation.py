"""ROC computation, fixed-FPR operating points, composite pipeline curves,
rule performance tables, detection-rate-vs-payload summaries, read_text, the
one reader of text inputs, and write_report, the one writer of JSON artifacts.

No interpolation anywhere: every reported point is an empirical operating
point reachable by an actual threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, SpecInvalid


@dataclass(frozen=True)
class RocCurve:
    """Stepwise curve; thresholds strictly decreasing, tied scores collapsed."""
    points: tuple  # ((fpr, tpr, threshold), ...)


def roc(scores, labels) -> RocCurve:
    """Sort-and-sweep ROC; tied scores produce a single diagonal step."""
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("both classes are required for a ROC curve")
    return _sweep(scores, labels, 0, 0, n_pos, n_neg)


def _sweep(scores, labels, tp, fp, n_pos, n_neg) -> RocCurve:
    """Curve from the operating point (fp, tp) down through the scores, highest
    first; each distinct score adds one point."""
    scores = np.asarray(scores, dtype=np.float64)
    if np.isnan(scores).any():
        raise ValueError("a ROC score is NaN: scores must be numbers")
    labels = np.asarray(labels)
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    points = [(fp / n_neg, tp / n_pos, float("inf"))]
    i = 0
    n = len(s)
    while i < n:
        j = i
        while j < n and s[j] == s[i]:
            tp += int(y[j] == 1)
            fp += int(y[j] == 0)
            j += 1
        points.append((fp / n_neg, tp / n_pos, float(s[i])))
        i = j
    return RocCurve(points=tuple(points))


def tpr_at_fpr(curve: RocCurve, target_fpr: float):
    """Conservative operating point: (tpr, threshold) at the maximal achievable
    fpr <= target; (None, None) when a composite curve's rule floor lies above it."""
    best = None
    for fpr, tpr, thr in curve.points:
        if fpr <= target_fpr:
            if best is None or (fpr, tpr) >= (best[0], best[1]):
                best = (fpr, tpr, thr)
    if best is None:
        return None, None
    _, tpr, thr = best
    return tpr, thr


def composite_roc(routes, labels) -> RocCurve:
    """Pipeline ROC: rule verdicts fix TPR/FPR offsets, the ML threshold sweeps.

    routes: per-sample (stage, score, fired) records, as AiSystem.stage returns
    them; labels: the matching 0/1 labels. The threshold sweeps the scores of
    the ml and error routes alike. Allowlisted malware is undetectable at every
    threshold; the minimum-FPR point sits at the blocklist's goodware fire rate
    (the horizontal-floor phenomenon).
    """
    m_total = g_total = 0
    m_rules = f_rules = 0
    ml_scores = []
    ml_labels = []
    for (stage, score, _), label in zip(routes, labels):
        if label == 1:
            m_total += 1
        else:
            g_total += 1
        if stage == "allowlist":
            continue  # permanent negative
        if stage == "blocklist":
            if label == 1:
                m_rules += 1
            else:
                f_rules += 1
            continue
        ml_scores.append(score)
        ml_labels.append(label)
    if m_total == 0 or g_total == 0:
        raise DegenerateLabels("both classes are required for a composite ROC")
    return _sweep(ml_scores, ml_labels, m_rules, f_rules, m_total, g_total)


def rule_stats(routes, labels, epochs) -> dict:
    """Exact counts per split from per-sample routes, labels and epochs:
    {epoch: {<class>_total, <list>_<class> for both lists, tpr, fpr}}, where tpr
    and fpr are the blocklist's fire rates on the split's malware and goodware.

    A sample the allowlist decided never counts as a blocklist hit: the routes
    carry the pipeline's precedence.
    """
    counts = {}
    for (stage, _, _), label, epoch in zip(routes, labels, epochs):
        c = counts.setdefault(epoch, dict.fromkeys((
            "malware_total", "goodware_total", "blocklist_malware", "blocklist_goodware",
            "allowlist_malware", "allowlist_goodware"), 0))
        key = "malware" if label == 1 else "goodware"
        c[f"{key}_total"] += 1
        if stage in ("allowlist", "blocklist"):
            c[f"{stage}_{key}"] += 1
    for c in counts.values():
        c["tpr"] = c["blocklist_malware"] / c["malware_total"] if c["malware_total"] else 0.0
        c["fpr"] = c["blocklist_goodware"] / c["goodware_total"] if c["goodware_total"] else 0.0
    return counts


def is_threshold(value) -> bool:
    """Whether value is a number in [0, 1]: not a bool, NaN or an infinity."""
    # written so that NaN fails too
    return not isinstance(value, bool) and isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def check_threshold(threshold):
    """Raise SpecInvalid unless a stored threshold is a number in [0, 1]
    (is_threshold)."""
    if not is_threshold(threshold):
        raise SpecInvalid(f"threshold {threshold!r} is not a number in [0, 1]")


def detection_rate_curve(rows, threshold: float):
    """Detection rate per payload bucket at a fixed precalibrated threshold.

    rows: attack_sample rows; a row's bucket is round(payload_kb), and it is
    detected when adv_score >= threshold. Returns [(bucket, rate)] by bucket.
    """
    buckets = {}
    for row in rows:
        kb, score = round(row["payload_kb"]), row["adv_score"]
        total, hit = buckets.get(kb, (0, 0))
        buckets[kb] = (total + 1, hit + (1 if score >= threshold else 0))
    return [(kb, hit / total) for kb, (total, hit) in sorted(buckets.items())]


# --- report emission ---------------------------------------------------------

def curve_rows(curve: RocCurve) -> list:
    return [[p[0], p[1], p[2]] for p in curve.points]


def write_report(path, report: dict):
    """2-space indent, sorted keys and a trailing newline: equal documents, equal bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_text(path) -> str:
    """A file's UTF-8 text; a byte that does not decode is a SpecInvalid naming both."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise SpecInvalid(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: "
                              f"{exc.reason})") from None


def read_report(path):
    """The JSON document in a file (read_text), or a SpecInvalid naming the file."""
    try:
        return json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:
        raise SpecInvalid(f"{path}: not a JSON document ({exc})") from None


def write_curve_files(stem, curves: dict):
    """Tabular curve data plus a gnuplot script (no rendered images); curves
    maps a name to its curve_rows."""
    data_paths = []
    for name, rows in sorted(curves.items()):
        data_path = f"{stem}.{name}.dat"
        with open(data_path, "w", encoding="utf-8") as fh:
            fh.write("# fpr tpr threshold\n")
            for fpr, tpr, thr in rows:
                fh.write(f"{fpr!r} {tpr!r} {thr!r}\n")
        data_paths.append((name, data_path))
    script = f"{stem}.gnuplot"
    with open(script, "w", encoding="utf-8") as fh:
        fh.write("set xlabel 'FPR'\nset ylabel 'TPR'\nset logscale x\nset key bottom right\n")
        plots = ", ".join(f"'{p}' using 1:2 with steps title '{n}'" for n, p in data_paths)
        fh.write(f"plot {plots}\n")
    return script
