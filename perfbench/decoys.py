"""Seeded decoy blocklist rules that must never fire on the synthetic corpus.

Decoys give the rule engine a large blocklist without changing any verdict:
every pattern carries at least twelve random fixed bytes, so the chance of a
match anywhere in a few megabytes of corpus is below 1e-20, and the benchmark
checks on every run that none fired.  Large text sets push the engine past its
Aho-Corasick threshold, which the 8-rule bank never reaches.

The mix of kinds is an assumption, not measured from any rule feed: 80% plain
text, 7% nocase text, 7% wide text, 5% hex with wildcards and bounded jumps,
1% bounded regex.  Of all rules 15% have two patterns (both of the rule's
kind), and 10% of one-pattern rules add a filesize or count condition.  The
mix decides how scan time divides between the shared automata and the
per-pattern regex and case-folding paths; a traced run reports that division
(``rules.scan_share_pct.<kind>``).
"""

from __future__ import annotations

import random
import string

PREFIX = "decoy_"
KINDS = ("text", "nocase", "wide", "hex", "regex")

_TEXT_ALPHABET = string.ascii_letters + string.digits + "_-.:/ "
_LOWER = string.ascii_lowercase


def _text(rnd, n):
    return "".join(rnd.choice(_TEXT_ALPHABET) for _ in range(n))


def _hex_bytes(rnd, n):
    return " ".join(f"{rnd.randrange(256):02X}" for _ in range(n))


def _pattern(rnd, kind, pid):
    if kind == "text":
        return f'{pid} = "{_text(rnd, rnd.randint(14, 24))}"'
    if kind == "nocase":
        return f'{pid} = "{"".join(rnd.choice(_LOWER) for _ in range(rnd.randint(14, 20)))}" nocase'
    if kind == "wide":
        mods = "wide ascii" if rnd.random() < 0.5 else "wide"
        return f'{pid} = "{_text(rnd, rnd.randint(12, 18))}" {mods}'
    if kind == "hex":
        lo = rnd.randint(0, 4)
        return (f"{pid} = {{ {_hex_bytes(rnd, 4)} ?? {_hex_bytes(rnd, 4)} "
                f"[{lo}-{lo + rnd.randint(1, 8)}] {_hex_bytes(rnd, 4)} }}")
    word = "".join(rnd.choice(_LOWER) for _ in range(8))
    tail = "".join(rnd.choice(_LOWER) for _ in range(4))
    return f"{pid} = /{word}[0-9]{{2,4}}{tail}[a-z]{{1,3}}/"


def _kind(rnd):
    x = rnd.random()
    if x < 0.80:
        return "text"
    if x < 0.87:
        return "nocase"
    if x < 0.94:
        return "wide"
    if x < 0.99:
        return "hex"
    return "regex"


def decoys(seed: int, count: int, text_only: bool = False) -> list:
    """(kind, rule source) for `count` decoys named decoy_0000...; same seed, same rules."""
    rnd = random.Random(f"perfbench-decoys:{seed}:{int(text_only)}")
    out = []
    for i in range(count):
        kind = "text" if text_only else _kind(rnd)
        n_patterns = 2 if rnd.random() < 0.15 else 1
        patterns = [_pattern(rnd, kind, f"$p{j}") for j in range(n_patterns)]
        x = rnd.random()
        if n_patterns == 2:
            condition = "all of them" if x < 0.5 else "$p0 and $p1"
        elif x < 0.05:
            condition = "$p0 and filesize < 1048576"
        elif x < 0.10:
            condition = "#p0 >= 1"
        else:
            condition = "$p0"
        body = "\n        ".join(patterns)
        out.append((kind, f"rule {PREFIX}{i:04d}\n{{\n    strings:\n        {body}\n"
                          f"    condition:\n        {condition}\n}}\n"))
    return out


def source(rules) -> str:
    """Rule text of (kind, source) pairs."""
    return "\n".join(text for _, text in rules)


def is_decoy(rule_name: str) -> bool:
    return rule_name.startswith(PREFIX)
