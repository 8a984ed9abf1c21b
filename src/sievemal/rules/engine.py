"""Rule evaluation over raw bytes: pattern scanning plus condition trees.

All text needles of a rule set are searched in one step per scan
(`_TextIndex`), and a text pattern's offsets are the sorted set of every
occurrence, overlaps included, of any of its variants. Hex and regex patterns
compile to byte-level regular expressions, each run once over the whole data;
jumps are bounded at parse time, and the parser rejects regexes with nested or
overlapping unbounded repeats, so scanning stays linear in practice. When
the text search uses its prefix filter, a hex pattern that starts with fixed
bytes is gated on them: they join the search as one more needle, and its
regex runs only when they occur.

Only candidate rules are evaluated: those with at least one pattern hit, and
those whose condition can hold with no hit at all (`not $a`, `#a == 0`,
`filesize < N`, ...), decided once per rule set by a conservative check of the
condition. Every other rule is false on that data without evaluation.

Hash-only rules (no strings, and a condition that is exactly one
`hash.sha256(0, filesize) == "..."`) are not evaluated one by one: they sit in
one digest -> rules dict, so a scan hashes the data once and finds every one
of them that fires with one lookup. A hash equality inside a larger condition
(`$a and hash...`, `not hash...`) stays on the evaluated path. Fired rules are
reported in rule order either way.
"""

from __future__ import annotations

import hashlib
import re
from collections import defaultdict

import numpy as np

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

# From this many needles on, one prefix-filter pass over the haystack beats a
# bytes.find loop per needle: on the synthetic corpus (6.3 KB mean file, 2-core
# VM) find costs about 2.2 us per needle per file and the filter 45-58 us per
# file at any needle count, so they cross near 22 needles.
_FILTER_MIN_NEEDLES = 24
_HASH_BITS = 18          # 4-byte prefixes hash into a bitmap of 2**18 slots
_HASH_MULT = np.uint32(0x9E3779B1)

_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _text_variants(p: PatternDef) -> list[bytes]:
    """Concrete needles for a text pattern: ascii and/or UTF-16LE forms,
    lowercased for nocase (they are then searched in the lowercased data)."""
    body = p.body
    variants = []
    mods = p.modifiers
    if "wide" in mods:
        variants.append(b"".join(bytes([b, 0]) for b in body))
        if "ascii" in mods:
            variants.append(body)
    else:
        variants.append(body)
    if "nocase" in mods:
        variants = [v.lower() for v in variants]
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


def _pattern_regex(p: PatternDef) -> re.Pattern:
    """A hex or regex pattern as a byte regex (leftmost non-overlapping matches)."""
    if p.kind == "hex":
        return re.compile(_hex_to_regex(p.body), re.DOTALL)
    flags = re.DOTALL | (re.IGNORECASE if "nocase" in p.modifiers else 0)
    return re.compile(p.body.encode("latin-1"), flags)


def _windows(hay: bytes, width: int) -> np.ndarray:
    """The little-endian value of the width bytes at every offset of hay."""
    return np.ndarray((max(len(hay) - width + 1, 0),), dtype=f"<u{width}",
                      buffer=hay, strides=(1,))


def _slots(keys: np.ndarray, width: int) -> np.ndarray:
    """Bitmap slots of prefix values: 1- and 2-byte values index it directly."""
    if width < 4:
        return keys
    return (keys * _HASH_MULT) >> np.uint32(32 - _HASH_BITS)


class _TextIndex:
    """Every occurrence, overlaps included, of a fixed list of non-empty needles,
    or only the first one for the needles whose indices are in `once`.

    Below _FILTER_MIN_NEEDLES needles, one bytes.find loop per needle. From
    there up, a bitmap of the needles' prefixes (the first 4 bytes, hashed, or
    the first 2 or 1 bytes of shorter needles) is read at every offset of the
    haystack, and each candidate offset is confirmed with startswith.
    """

    def __init__(self, needles: list[bytes], once=frozenset()):
        self.needles = needles
        self.once = once
        self._groups = None       # [(prefix width, bitmap, prefix value -> needle indices)]
        if len(needles) < _FILTER_MIN_NEEDLES:
            return
        tables = {}
        for i, needle in enumerate(needles):
            width = 4 if len(needle) >= 4 else 2 if len(needle) >= 2 else 1
            key = int.from_bytes(needle[:width], "little")
            tables.setdefault(width, {}).setdefault(key, []).append(i)
        self._groups = []
        for width, table in sorted(tables.items()):
            bitmap = np.zeros(1 << (_HASH_BITS if width == 4 else 8 * width), dtype=bool)
            bitmap[_slots(np.array(list(table), dtype=f"<u{width}"), width)] = True
            self._groups.append((width, bitmap, table))

    def find_all(self, hay: bytes):
        """Yield (needle_index, offset) for every occurrence in hay, and for a
        needle in `once` only the first one."""
        needles, once = self.needles, self.once
        if self._groups is None:
            for i, needle in enumerate(needles):
                start = hay.find(needle)
                while start >= 0:
                    yield i, start
                    start = -1 if i in once else hay.find(needle, start + 1)
            return
        found = set()             # the once-needles seen so far
        for width, bitmap, table in self._groups:
            keys = _windows(hay, width)
            offsets = np.flatnonzero(bitmap[_slots(keys, width)])
            for off, key in zip(offsets.tolist(), keys[offsets].tolist()):
                for i in table.get(key, ()):
                    if i not in found and hay.startswith(needles[i], off):
                        if i in once:
                            found.add(i)
                        yield i, off


def _needs_hit(node, n_strings: int) -> bool:
    """Whether node is false whenever no pattern of its rule has a hit.

    Conservative: False means only that the check cannot tell, so the rule is
    evaluated on every scan. `not`, filesize, uintN and hash comparisons can
    hold with no hit; an `and` needs a hit if any item does, an `or` only if
    every item does.
    """
    if isinstance(node, StringMatch):
        return True
    if isinstance(node, CountCmp):
        return not _OPS[node.op](0, node.value)
    if isinstance(node, OfQuantifier):
        if node.count == "any":
            return True
        if node.count == "all":   # all of an empty set holds
            return bool(node.ids if node.ids is not None else n_strings)
        return node.count >= 1
    if isinstance(node, And):
        return any(_needs_hit(i, n_strings) for i in node.items)
    if isinstance(node, Or):
        return all(_needs_hit(i, n_strings) for i in node.items)
    return False


def _fixed_prefix(items: tuple) -> bytes:
    """The bytes every match of a hex pattern starts with."""
    prefix = bytearray()
    for item in items:
        if item[0] != "byte":
            break
        prefix.append(item[1])
    return bytes(prefix)


class CompiledRuleSet:
    """A RuleSet prepared for scanning: one text index per haystack (as is and
    lowercased), one regex per hex or regex pattern, the positions of the rules
    that can fire with no pattern hit, and the digest -> rules dict of the
    hash-only rules.

    Patterns are keyed by (rule position, pattern id). When the case-sensitive
    index uses the prefix filter, a hex pattern that starts with fixed bytes
    adds them to it as a gate needle under its own key. The search reports a
    needle that only gates at its first occurrence, and the regex runs once if
    the gate occurs at all.
    """

    def __init__(self, rs: RuleSet):
        self.rules = rs.rules
        self.by_digest = {}          # sha256 hex -> [(position, rule)], in rule order
        self.always = []             # positions of the rules that can fire with no hit
        owners = ({}, {})            # per haystack: needle -> [key]
        gates = {}                   # fixed prefix of a hex pattern -> [key]
        regexes = []                 # [(key, re.Pattern)]
        for pos, rule in enumerate(rs.rules):
            if not rule.strings and type(rule.condition) is Sha256Eq:
                self.by_digest.setdefault(rule.condition.digest, []).append((pos, rule))
                continue
            if not _needs_hit(rule.condition, len(rule.strings)):
                self.always.append(pos)
            for p in rule.strings:
                key = (pos, p.id)
                if p.kind == "text":
                    for needle in _text_variants(p):
                        owners["nocase" in p.modifiers].setdefault(needle, []).append(key)
                    continue
                gate = _fixed_prefix(p.body) if p.kind == "hex" else b""
                if gate:
                    gates.setdefault(gate, []).append(key)
                regexes.append((key, _pattern_regex(p)))
        # Gates ride the prefix filter's one pass over the data. Below its
        # threshold each gate would cost a bytes.find of its own, which is no
        # cheaper than the regex's own scan for its prefix.
        if len(owners[0].keys() | gates.keys()) < _FILTER_MIN_NEEDLES:
            gates = {}
        gated = set()
        for gate, keys in gates.items():
            owners[0].setdefault(gate, []).extend(keys)
            gated.update(keys)
        once = frozenset(i for i, keys in enumerate(owners[0].values())
                         if gated.issuperset(keys))
        self.regexes = [(key, regex, key in gated) for key, regex in regexes]
        self._text = [(_TextIndex(list(owners[0]), once), list(owners[0].values())),
                      (_TextIndex(list(owners[1])), list(owners[1].values()))]
        self.has_nocase_text = bool(owners[1])

    def _hits(self, data: bytes) -> dict:
        """key -> sorted offsets, for every pattern with at least one hit."""
        folded = data.lower() if self.has_nocase_text else data
        found = defaultdict(set)
        for (index, keys), hay in zip(self._text, (data, folded)):
            for i, off in index.find_all(hay):
                for key in keys[i]:
                    found[key].add(off)
        hits = {k: tuple(sorted(v)) for k, v in found.items()}
        for key, regex, gated in self.regexes:
            if gated and key not in hits:
                continue             # the fixed prefix is absent: no match
            offsets = tuple(m.start() for m in regex.finditer(data))
            if offsets:
                hits[key] = offsets
            elif gated:
                del hits[key]
        return hits

    def scan(self, data: bytes) -> MatchResult:
        hits = self._hits(data)
        ctx = _EvalContext(data)
        fired = []                   # [(position, (rule_name, offsets))]
        for pos in sorted({pos for pos, _ in hits}.union(self.always)):
            rule = self.rules[pos]
            offsets = {p.id: hits.get((pos, p.id), ()) for p in rule.strings}
            if _eval(rule.condition, offsets, ctx):
                fired.append((pos, (rule.name, offsets)))
        if self.by_digest:
            matched = self.by_digest.get(ctx.sha256(), ())
            if matched:
                fired.extend((pos, (rule.name, {})) for pos, rule in matched)
                fired.sort(key=lambda item: item[0])
        return MatchResult(fired=tuple(entry for _, entry in fired), verdict=bool(fired))


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

