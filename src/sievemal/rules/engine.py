"""Rule evaluation over raw bytes: pattern scanning plus condition trees.

All text patterns of all rules in a set are searched in one logical pass
(multi-pattern automaton semantics). Hex and regex patterns compile to
byte-level regular expressions and scan independently; jumps are bounded at
parse time so scanning stays linear in practice.
"""

from __future__ import annotations

import hashlib
import re

from .aho import AhoCorasick
from .model import (
    And,
    CountCmp,
    FilesizeCmp,
    MatchResult,
    Not,
    OfQuantifier,
    Or,
    PatternDef,
    RuleSet,
    Sha256Eq,
    StringMatch,
    UintCmp,
)

# below this many needles, repeated bytes.find beats the pure-Python automaton;
# results are identical either way
_AC_THRESHOLD = 32

_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _text_variants(p: PatternDef) -> list[bytes]:
    """Concrete needles for a text pattern: ascii and/or UTF-16LE forms."""
    body = p.body
    variants = []
    mods = p.modifiers
    if "wide" in mods:
        variants.append(b"".join(bytes([b, 0]) for b in body))
        if "ascii" in mods:
            variants.append(body)
    else:
        variants.append(body)
    return variants


def _hex_to_regex(items: tuple) -> bytes:
    parts = []
    for item in items:
        if item[0] == "byte":
            parts.append(re.escape(bytes([item[1]])))
        elif item[0] == "any":
            parts.append(b".")
        else:  # jump
            _, lo, hi = item
            parts.append(b".{%d,%d}?" % (lo, hi))
    return b"".join(parts)


class _CompiledPattern:
    """Occurrence finder for one pattern definition."""

    def __init__(self, p: PatternDef):
        self.pattern = p
        self.kind = p.kind
        self.nocase = "nocase" in p.modifiers
        if p.kind == "text":
            self.needles = _text_variants(p)
            if self.nocase:
                self.needles = [n.lower() for n in self.needles]
        elif p.kind == "hex":
            self.regex = re.compile(_hex_to_regex(p.body), re.DOTALL)
        else:  # regex
            flags = re.DOTALL | (re.IGNORECASE if self.nocase else 0)
            self.regex = re.compile(p.body.encode("latin-1"), flags)

    def find_offsets(self, data: bytes, folded: bytes) -> tuple:
        if self.kind == "text":
            hay = folded if self.nocase else data
            offsets = []
            for needle in self.needles:
                start = hay.find(needle)
                while start >= 0:
                    offsets.append(start)
                    start = hay.find(needle, start + 1)
            return tuple(sorted(offsets))
        return tuple(m.start() for m in self.regex.finditer(data))


class CompiledRuleSet:
    """A RuleSet prepared for scanning: shared text automaton + per-pattern matchers."""

    def __init__(self, rs: RuleSet):
        self.rules = rs.rules        # not rs itself: rs holds this object
        self.compiled = {}           # (rule_name, pattern_id) -> _CompiledPattern
        self.has_nocase_text = False
        case_needles, case_keys = [], []
        fold_needles, fold_keys = [], []
        for rule in rs.rules:
            for p in rule.strings:
                cp = _CompiledPattern(p)
                self.compiled[(rule.name, p.id)] = cp
                if p.kind == "text":
                    for n in cp.needles:
                        if cp.nocase:
                            fold_needles.append(n)
                            fold_keys.append((rule.name, p.id))
                            self.has_nocase_text = True
                        else:
                            case_needles.append(n)
                            case_keys.append((rule.name, p.id))
        self._case_ac = (AhoCorasick(case_needles)
                         if len(case_needles) >= _AC_THRESHOLD else None)
        self._case_keys = case_keys
        self._fold_ac = (AhoCorasick(fold_needles)
                         if len(fold_needles) >= _AC_THRESHOLD else None)
        self._fold_keys = fold_keys

    def _text_offsets(self, data: bytes, folded: bytes) -> dict:
        """One pass for all text patterns; returns (rule, id) -> sorted offsets."""
        hits = {}
        for ac, keys, hay in ((self._case_ac, self._case_keys, data),
                              (self._fold_ac, self._fold_keys, folded)):
            if ac is None:
                continue
            for idx, off in ac.find_all(hay):
                hits.setdefault(keys[idx], []).append(off)
        return {k: tuple(sorted(set(v))) for k, v in hits.items()}

    def scan(self, data: bytes) -> MatchResult:
        folded = data.lower() if self.has_nocase_text else data
        text_hits = self._text_offsets(data, folded)
        ctx = _EvalContext(data)
        fired = []
        for rule in self.rules:
            offsets = {}
            for p in rule.strings:
                cp = self.compiled[(rule.name, p.id)]
                if p.kind == "text" and (self._case_ac if not cp.nocase else self._fold_ac):
                    offsets[p.id] = text_hits.get((rule.name, p.id), ())
                else:
                    offsets[p.id] = cp.find_offsets(data, folded)
            if _eval(rule.condition, offsets, ctx):
                fired.append((rule.name, offsets))
        return MatchResult(fired=tuple(fired), verdict=bool(fired))


class _EvalContext:
    def __init__(self, data: bytes):
        self.data = data
        self.filesize = len(data)
        self._sha256 = None

    def sha256(self) -> str:
        if self._sha256 is None:
            self._sha256 = hashlib.sha256(self.data).hexdigest()
        return self._sha256

    def read_uint(self, width: int, offset: int):
        n = width // 8
        chunk = self.data[offset:offset + n]
        if offset < 0 or len(chunk) != n:
            return None  # out-of-bounds read: comparison is false
        return int.from_bytes(chunk, "little")


def _eval(node, offsets: dict, ctx: _EvalContext) -> bool:
    if isinstance(node, StringMatch):
        return bool(offsets[node.id])
    if isinstance(node, CountCmp):
        return _OPS[node.op](len(offsets["$" + node.id[1:]]), node.value)
    if isinstance(node, OfQuantifier):
        ids = node.ids if node.ids is not None else tuple(offsets)
        hits = sum(1 for i in ids if offsets[i])
        if node.count == "any":
            return hits >= 1
        if node.count == "all":
            return hits == len(ids)
        return hits >= node.count
    if isinstance(node, FilesizeCmp):
        return _OPS[node.op](ctx.filesize, node.value)
    if isinstance(node, UintCmp):
        value = ctx.read_uint(node.width, node.offset)
        return value is not None and _OPS[node.op](value, node.value)
    if isinstance(node, Sha256Eq):
        return ctx.sha256() == node.digest
    if isinstance(node, And):
        return all(_eval(i, offsets, ctx) for i in node.items)
    if isinstance(node, Or):
        return any(_eval(i, offsets, ctx) for i in node.items)
    if isinstance(node, Not):
        return not _eval(node.item, offsets, ctx)
    raise TypeError(f"unknown condition node {node!r}")


def compile_ruleset(rs: RuleSet) -> CompiledRuleSet:
    """Compile a RuleSet for repeated scans, once: the compiled form is kept on
    rs itself, so it lives exactly as long as rs does."""
    compiled = vars(rs).get("_compiled")
    if compiled is None:
        compiled = CompiledRuleSet(rs)
        object.__setattr__(rs, "_compiled", compiled)  # RuleSet is frozen
    return compiled


def scan(data: bytes, rs: RuleSet) -> MatchResult:
    """Evaluate every rule in rs against data; total over arbitrary bytes."""
    return compile_ruleset(rs).scan(data)


def count_matches(data: bytes, pattern: PatternDef) -> int:
    """Occurrences of one pattern: text counts all, hex/regex leftmost non-overlapping."""
    cp = _CompiledPattern(pattern)
    folded = data.lower() if cp.nocase and pattern.kind == "text" else data
    return len(cp.find_offsets(data, folded))
