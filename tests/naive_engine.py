"""Reference rule scan used as the exactness oracle.

Every rule is evaluated on every scan: each pattern's offsets are built and
each condition is walked, whether or not any pattern of the rule has a hit,
every hex and regex pattern runs over the whole data, and hash-only rules are
evaluated one by one like any other. This is the scan that candidate-only
evaluation in `sievemal.rules.engine.CompiledRuleSet` replaced; its
`MatchResult` (fired names, offsets and order) must equal this one's. The text
search is its own: every occurrence of every needle, found with bytes.find in
that needle's haystack (the data, or the data lowercased for nocase), with no
prefix filter and no gates. The needle variants, the pattern regexes and the
condition walk, asked about the one scanned file, are shared with
`sievemal.rules.engine`.
"""

from collections import defaultdict

from sievemal.rules.engine import (
    _EvalContext,
    _pattern_regex,
    _text_variants,
    _truth,
)
from sievemal.rules.model import MatchResult


class NaiveRuleSet:
    def __init__(self, rs):
        self.rules = rs.rules
        self.regexes = {}            # (position, pattern_id) -> re.Pattern
        self.needles = []            # [((position, pattern_id), needle, nocase)]
        for pos, rule in enumerate(rs.rules):
            for p in rule.strings:
                key = (pos, p.id)
                if p.kind == "text":
                    self.needles += [(key, needle, "nocase" in p.modifiers)
                                     for needle in _text_variants(p)]
                else:
                    self.regexes[key] = _pattern_regex(p)

    def text_offsets(self, data):
        hits = defaultdict(set)
        lowered = data.lower()
        for key, needle, nocase in self.needles:
            hay = lowered if nocase else data
            off = hay.find(needle)
            while off >= 0:
                hits[key].add(off)
                off = hay.find(needle, off + 1)
        return {k: tuple(sorted(v)) for k, v in hits.items()}

    def scan(self, data):
        text_hits = self.text_offsets(data)
        ctx = _EvalContext(data)
        size = (len(data), len(data))
        fired = []
        for pos, rule in enumerate(self.rules):
            offsets = {}
            for p in rule.strings:
                key = (pos, p.id)
                if p.kind == "text":
                    offsets[p.id] = text_hits.get(key, ())
                else:
                    offsets[p.id] = tuple(m.start() for m in self.regexes[key].finditer(data))
            counts = {pid: len(found) for pid, found in offsets.items()}
            if _truth(rule.condition, counts, counts, size, ctx):
                fired.append((rule.name, offsets))
        return MatchResult(fired=tuple(fired))


def scan(data, rs):
    return NaiveRuleSet(rs).scan(data)
