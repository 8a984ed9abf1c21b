"""Reference rule scan used as the exactness oracle.

Every rule is evaluated on every scan: each pattern's offsets are built and
each condition is walked, whether or not any pattern of the rule has a hit,
every hex and regex pattern runs over the whole data, and hash-only rules are
evaluated one by one like any other. This is the scan that candidate-only
evaluation in `sievemal.rules.engine.CompiledRuleSet` replaced; its
`MatchResult` (fired names, offsets and order) must equal this one's. The text
search, the pattern regexes and the condition evaluator are shared with
`sievemal.rules.engine`, because they did not change.
"""

from collections import defaultdict

from sievemal.rules.engine import (
    _EvalContext,
    _eval,
    _pattern_regex,
    _text_variants,
    _TextIndex,
)
from sievemal.rules.model import MatchResult


class NaiveRuleSet:
    def __init__(self, rs):
        self.rules = rs.rules
        self.regexes = {}            # (position, pattern_id) -> re.Pattern
        owners = ({}, {})            # per haystack: needle -> [(position, pattern_id)]
        for pos, rule in enumerate(rs.rules):
            for p in rule.strings:
                key = (pos, p.id)
                if p.kind == "text":
                    for needle in _text_variants(p):
                        owners["nocase" in p.modifiers].setdefault(needle, []).append(key)
                else:
                    self.regexes[key] = _pattern_regex(p)
        self.text = [(_TextIndex(list(o)), list(o.values())) for o in owners]

    def text_offsets(self, data):
        hits = defaultdict(set)
        for (index, keys), hay in zip(self.text, (data, data.lower())):
            for i, off in index.find_all(hay):
                for key in keys[i]:
                    hits[key].add(off)
        return {k: tuple(sorted(v)) for k, v in hits.items()}

    def scan(self, data):
        text_hits = self.text_offsets(data)
        ctx = _EvalContext(data)
        fired = []
        for pos, rule in enumerate(self.rules):
            offsets = {}
            for p in rule.strings:
                key = (pos, p.id)
                if p.kind == "text":
                    offsets[p.id] = text_hits.get(key, ())
                else:
                    offsets[p.id] = tuple(m.start() for m in self.regexes[key].finditer(data))
            if _eval(rule.condition, offsets, ctx):
                fired.append((rule.name, offsets))
        return MatchResult(fired=tuple(fired), verdict=bool(fired))


def scan(data, rs):
    return NaiveRuleSet(rs).scan(data)
