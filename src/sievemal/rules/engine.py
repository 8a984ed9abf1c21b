"""Rule evaluation over raw bytes: pattern scanning plus condition trees.

All text needles of a rule set, case-sensitive and nocase alike, are searched
in one step per scan (`_TextIndex`), and a text pattern's offsets are the
sorted set of every occurrence, overlaps included, of any of its variants.
Hex and regex patterns compile to byte-level regular expressions, each run
once over the whole data; jumps are bounded at parse time, and the parser
rejects regexes with nested or overlapping unbounded repeats, so no match
backtracks exponentially. When the text search uses its prefix filter, a hex
or regex pattern whose matches all start with the same 4 or more bytes (its
leading fixed bytes, or its regex's leading literals) is gated on them: they
join the search as one more needle, and its regex runs only when they occur.

Every condition is read by one three-valued walk (`_truth`) over what all the
files of a set share: each pattern's least and most hits, the least and most
file size, and the bytes when the set is one file. It answers True, False, or
None for "depends on the file". A scan asks it about the one file it reads.
Only candidate rules are evaluated: those with at least one pattern hit, and
those whose condition the walk does not answer False for every file with no
hit (`not $a`, `#a == 0`, `filesize < N`, ...), decided once per rule set.
Every other rule is false on that data without evaluation.

Hash-only rules (no strings, and a condition that is exactly one
`hash.sha256(0, filesize) == "..."`, alone or and-ed with one
`filesize == N` in either order) are not evaluated one by one: they sit in
one digest -> rules dict with the size each names, if any, so a scan hashes
the data once and finds every one of them that fires with one lookup. A sized
rule fires only on data of its size, so a scan hashes the data only when its
length is one that some sized rule names, or when the set holds a bare hash
rule: for a sized allowlist most scans are one set lookup. A hash equality
inside a larger condition (`$a and hash...`, `not hash...`) stays on the
evaluated path. Fired rules are reported in rule order either way.

`stays_fired` asks the same walk about every file that is no shorter than
the scanned data and keeps given spans of it verbatim: a fired rule answered
True there is proved to fire on each such file.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
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
from .parser import _sre

# From this many needles on, one prefix-filter pass over the data replaces a
# bytes.find loop per needle. On the synthetic corpus (6.3 KB mean file, 2-core
# VM) find costs about 2.2 us per needle per file, and the pass already wins at
# 16 needles (35 against 42 us per scan for the 8-rule bank plus 8 text rules):
# the threshold is conservative, and keeps small sets such as the bank on find.
_FILTER_MIN_NEEDLES = 24
_HASH_BITS = 18          # 4-byte prefixes hash into a bitmap of 2**18 slots
_HASH_MULT = np.uint32(0x9E3779B1)
_HASH_SHIFT = np.uint32(32 - _HASH_BITS)

_OPS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_INF = float("inf")      # no bound on a count or a file size


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
    return (keys * _HASH_MULT) >> _HASH_SHIFT


def _occurrences(hay: bytes, needle: bytes, start: int, end: int, once: bool) -> list:
    """The offsets of needle in hay[start:end], overlaps included, or only the first."""
    found = []
    off = hay.find(needle, start, end)
    while off >= 0:
        found.append(off)
        off = -1 if once else hay.find(needle, off + 1, end)
    return found


class _TextIndex:
    """Every occurrence, overlaps included, of a fixed list of non-empty needles,
    or only the first one for the needles whose indices are in `once`. A needle
    whose `folded` flag is set is lowercase and is searched in the lowercased
    data; every other needle in the data as is.

    Below _FILTER_MIN_NEEDLES needles, one bytes.find loop per needle. From
    there up, one pass over the lowercased data (over the data as is when no
    needle is folded): a bitmap of the needles' prefixes, lowercased likewise
    (the first 4 bytes, hashed, or the first 2 or 1 bytes of shorter needles),
    is read at every offset, and numpy keeps the offsets whose prefix is
    exactly some needle's. Python then handles each prefix found, not each
    occurrence: a needle no longer than its prefix occurs wherever the prefix
    does (in its own case, for a case-sensitive one), and a longer needle is
    found with bytes.find between its first and last candidate. This is exact
    because bytes.lower() folds A-Z only, so the data and the lowercased data
    hold the same byte at each offset, up to case.
    """

    def __init__(self, needles: list[bytes], folded: list[bool], once=frozenset()):
        self.needles = needles
        self.folded = folded
        self.once = once
        self._lowers = any(folded)
        self._groups = None       # [(prefix width, bitmap, sorted prefixes, [entries per prefix])]
        if len(needles) < _FILTER_MIN_NEEDLES:
            return
        tables = {}               # width -> searched prefix -> [(needle index, exact prefix)]
        for i, (needle, fold) in enumerate(zip(needles, folded)):
            width = 4 if len(needle) >= 4 else 2 if len(needle) >= 2 else 1
            head = needle[:width]
            key = int.from_bytes(head.lower() if self._lowers else head, "little")
            # a case-sensitive prefix with letters must also match in the data as is
            exact = (int.from_bytes(head, "little")
                     if self._lowers and not fold and head.lower() != head.upper() else None)
            tables.setdefault(width, {}).setdefault(key, []).append((i, exact))
        self._groups = []
        for width, table in sorted(tables.items()):
            keys = np.array(sorted(table), dtype=f"<u{width}")
            bitmap = np.zeros(1 << (_HASH_BITS if width == 4 else 8 * width), dtype=bool)
            bitmap[_slots(keys, width)] = True
            self._groups.append((width, bitmap, keys, [table[k] for k in keys.tolist()]))

    def find_all(self, data: bytes):
        """Yield (needle_index, offsets) for every needle that occurs: the sorted
        offsets of every occurrence, or of the first one for a needle in `once`."""
        needles, folded, once = self.needles, self.folded, self.once
        lowered = data.lower() if self._lowers else data
        if self._groups is None:
            for i, needle in enumerate(needles):
                hay = lowered if folded[i] else data
                found = _occurrences(hay, needle, 0, len(hay), i in once)
                if found:
                    yield i, found
            return
        for width, bitmap, keys, entries in self._groups:
            windows = _windows(lowered, width)
            offsets = np.flatnonzero(np.take(bitmap, _slots(windows, width)))
            if not offsets.size:
                continue
            prefixes = windows[offsets]
            at = np.searchsorted(keys, prefixes)
            np.minimum(at, len(keys) - 1, out=at)
            known = keys[at] == prefixes
            offsets, at = offsets[known], at[known]
            if not offsets.size:
                continue
            cuts = np.flatnonzero(at[1:] != at[:-1]) + 1
            if cuts.size:                # group by prefix, offsets ascending in each
                order = np.argsort(at, kind="stable")
                offsets, at = offsets[order], at[order]
                cuts = np.flatnonzero(at[1:] != at[:-1]) + 1
            starts = [0] + cuts.tolist()
            raw = _windows(data, width)
            for start, stop in zip(starts, starts[1:] + [len(at)]):
                cands = offsets[start:stop]
                for i, exact_key in entries[at[start]]:
                    hits = cands if exact_key is None else cands[raw[cands] == exact_key]
                    if not hits.size:
                        continue
                    needle, first = needles[i], int(hits[0])
                    if len(needle) == width:
                        found = [first] if i in once else hits.tolist()
                    else:
                        found = _occurrences(lowered if folded[i] else data, needle, first,
                                             int(hits[-1]) + len(needle), i in once)
                    if found:
                        yield i, found


def _longest_match(p: PatternDef) -> int:
    """The most bytes one match of a text or hex pattern can cover."""
    if p.kind == "text":
        return max(map(len, _text_variants(p)))
    return sum(item[2] if item[0] == "jump" else 1 for item in p.body)


def stays_fired(rs: RuleSet, result: MatchResult, filesize: int, spans) -> bool:
    """Whether some rule that fired in result, which is scan(data, rs) for a
    data of filesize bytes, is proved to fire on every file that is no shorter
    than data and holds each (start, end) span of data in spans verbatim, the
    spans in places that do not overlap.

    The proof asks _truth about every such file. Its size is at least
    filesize. A text pattern has at least as many hits as the scan found
    whose longest possible match lies inside a span; a hex pattern with such
    a hit has at least one, since its leftmost non-overlapping matches can
    regroup; a regex may have none, since `^`, `$` and `\\b` read the bytes
    around a match. No count or size is bounded from above, and there are no
    bytes to read. A rule answered True stays fired; False means only that
    the proof cannot tell, never that such a file exists.
    """
    rules = {rule.name: rule for rule in rs.rules}
    size = (filesize, _INF)
    for name, offsets in result.fired:
        rule = rules[name]
        least = {}
        for p in rule.strings:
            inside = 0
            if p.kind != "regex":
                width = _longest_match(p)
                inside = sum(1 for o in offsets[p.id]
                             if any(a <= o and o + width <= b for a, b in spans))
            least[p.id] = inside if p.kind == "text" else min(inside, 1)
        if _truth(rule.condition, least, dict.fromkeys(least, _INF), size, None):
            return True
    return False


def _digest_key(rule):
    """(digest, size) of a hash-only rule, size None for a bare hash rule and
    N for one and-ed with `filesize == N`; None for any other rule."""
    if rule.strings:
        return None
    cond = rule.condition
    if type(cond) is Sha256Eq:
        return cond.digest, None
    if type(cond) is And and len(cond.items) == 2:
        size, digest = sorted(cond.items, key=lambda item: type(item) is Sha256Eq)
        if type(size) is FilesizeCmp and size.op == "==" and type(digest) is Sha256Eq:
            return digest.digest, size.value
    return None


def _gate(p: PatternDef) -> bytes:
    """The bytes every match of a hex or regex pattern starts with: its leading
    fixed bytes, or its regex's leading literals up to the first item that is
    not one (a branch, repeat, group, class or anchor). A nocase regex's gate is
    lowercased: re.IGNORECASE on bytes folds A-Z only, as bytes.lower() does."""
    if p.kind == "hex":
        return bytes(item[1] for item in itertools.takewhile(lambda i: i[0] == "byte", p.body))
    literals = itertools.takewhile(lambda item: item[0] is _sre.LITERAL,
                                   _sre.parse(p.body.encode("latin-1")))
    gate = bytes(av for _, av in literals)
    return gate.lower() if "nocase" in p.modifiers else gate


class CompiledRuleSet:
    """A RuleSet prepared for scanning: one text index over every needle (as
    is, and lowercased for nocase), one regex per hex or regex pattern, the
    positions of the rules that can fire with no pattern hit, and the digest ->
    rules dict of the hash-only rules with the sizes they name.

    Patterns are keyed by (rule position, pattern id). When the text index
    uses the prefix filter, a hex or regex pattern whose gate (`_gate`) is 4
    or more bytes long adds it to the index as a needle under its own key. The
    search reports a needle that only gates at its first occurrence, and the
    regex runs once if the gate occurs at all.

    A ruleset of hash-only rules alone has nothing to search or evaluate: its
    scan looks the data's length up, then, if a rule can fire on that length,
    hashes the data and looks the digest up, and nothing else.
    """

    def __init__(self, rs: RuleSet):
        self.rules = rs.rules
        self.by_digest = {}          # sha256 hex -> [(position, rule, size or None)], in rule order
        sizes = set()                # the sizes the sized hash-only rules name
        bare = False                 # whether some hash-only rule names no size
        self.always = []             # positions of the rules that can fire with no hit
        owners = {}                  # (needle, searched lowercased) -> [key]
        gates = {}                   # (gate, searched lowercased) -> [key]
        regexes = []                 # [(key, re.Pattern)]
        for pos, rule in enumerate(rs.rules):
            key = _digest_key(rule)
            if key is not None:
                digest, size = key
                self.by_digest.setdefault(digest, []).append((pos, rule, size))
                if size is None:
                    bare = True
                else:
                    sizes.add(size)
                continue
            no_hits = dict.fromkeys((p.id for p in rule.strings), 0)
            if _truth(rule.condition, no_hits, no_hits, (0, _INF), None) is not False:
                self.always.append(pos)
            for p in rule.strings:
                key = (pos, p.id)
                folded = "nocase" in p.modifiers
                if p.kind == "text":
                    for needle in _text_variants(p):
                        owners.setdefault((needle, folded), []).append(key)
                    continue
                gate = _gate(p)
                if len(gate) >= 4:       # a shorter one would need a pass of its own width
                    gates.setdefault((gate, folded), []).append(key)
                regexes.append((key, _pattern_regex(p)))
        # Gates ride the prefix filter's one pass over the data. Below its
        # threshold each gate would cost a bytes.find of its own, which is no
        # cheaper than the regex's own scan for its prefix.
        if len(owners.keys() | gates.keys()) < _FILTER_MIN_NEEDLES:
            gates = {}
        gated = set()
        for gate, keys in gates.items():
            owners.setdefault(gate, []).extend(keys)
            gated.update(keys)
        once = frozenset(i for i, keys in enumerate(owners.values())
                         if gated.issuperset(keys))
        self.gated = {key: regex for key, regex in regexes if key in gated}
        self.regexes = [(key, regex) for key, regex in regexes if key not in gated]
        self._index = _TextIndex([needle for needle, _ in owners],
                                 [folded for _, folded in owners], once)
        self._owners = list(owners.values())
        self._digest_only = not (owners or regexes or self.always)
        # the lengths on which some hash-only rule can fire; None for any length
        self._hashed_sizes = None if bare else frozenset(sizes)

    def _hits(self, data: bytes) -> dict:
        """key -> sorted offsets, for every pattern with at least one hit."""
        found = defaultdict(list)    # key -> [offsets of each of its needles]
        for i, offsets in self._index.find_all(data):
            for key in self._owners[i]:
                found[key].append(offsets)
        hits = {k: tuple(v[0]) if len(v) == 1 else tuple(sorted(set().union(*v)))
                for k, v in found.items()}
        for key in [k for k in hits if k in self.gated]:    # the gate occurs
            offsets = tuple(m.start() for m in self.gated[key].finditer(data))
            if offsets:
                hits[key] = offsets
            else:
                del hits[key]
        for key, regex in self.regexes:
            offsets = tuple(m.start() for m in regex.finditer(data))
            if offsets:
                hits[key] = offsets
        return hits

    def _hashes(self, size: int) -> bool:
        """Whether some hash-only rule can fire on data of this size."""
        return self._hashed_sizes is None or size in self._hashed_sizes

    def _digest_fired(self, digest: str, size: int) -> list:
        """The (position, rule) of the hash-only rules that fire on data of
        this digest and size."""
        return [(pos, rule) for pos, rule, named in self.by_digest.get(digest, ())
                if named is None or named == size]

    def scan(self, data: bytes) -> MatchResult:
        if self._digest_only:
            matched = (self._digest_fired(hashlib.sha256(data).hexdigest(), len(data))
                       if self._hashes(len(data)) else ())
            return MatchResult(fired=tuple((rule.name, {}) for _, rule in matched))
        hits = self._hits(data)
        ctx = _EvalContext(data)
        size = (ctx.filesize, ctx.filesize)
        fired = []                   # [(position, (rule_name, offsets))]
        for pos in sorted({pos for pos, _ in hits}.union(self.always)):
            rule = self.rules[pos]
            offsets = {p.id: hits.get((pos, p.id), ()) for p in rule.strings}
            counts = {pid: len(found) for pid, found in offsets.items()}
            if _truth(rule.condition, counts, counts, size, ctx):
                fired.append((pos, (rule.name, offsets)))
        if self._hashes(ctx.filesize):
            matched = self._digest_fired(ctx.sha256(), ctx.filesize)
            if matched:
                fired.extend((pos, (rule.name, {})) for pos, rule in matched)
                fired.sort(key=lambda item: item[0])
        return MatchResult(fired=tuple(entry for _, entry in fired))


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


def _compare(lo, hi, op: str, value: int):
    """op against value for every number from lo to hi: True or False when
    they all agree, else None."""
    if lo == hi:
        return _OPS[op](lo, value)
    if op in ("==", "!="):
        return None if lo <= value <= hi else op == "!="
    first = _OPS[op](lo, value)
    return first if first == _OPS[op](hi, value) else None


def _truth(node, least: dict, most: dict, size: tuple, ctx):
    """Whether node holds on every file of a set (True), on none (False), or
    on some only (None). The set is given by what its files share: least[i]
    and most[i], the fewest and the most hits of pattern id i; size, the
    least and the most file size; and ctx, the _EvalContext of the one file
    when the set is one file, else None, and then uintN and hash.sha256 are
    None. `and`, `or` and `not` follow Kleene's three-valued logic."""
    if isinstance(node, StringMatch):
        return True if least[node.id] else None if most[node.id] else False
    if isinstance(node, CountCmp):
        pid = "$" + node.id[1:]
        return _compare(least[pid], most[pid], node.op, node.value)
    if isinstance(node, OfQuantifier):
        ids = node.ids if node.ids is not None else tuple(least)
        need = 1 if node.count == "any" else len(ids) if node.count == "all" else node.count
        if sum(1 for i in ids if least[i]) >= need:
            return True
        return None if sum(1 for i in ids if most[i]) >= need else False
    if isinstance(node, FilesizeCmp):
        return _compare(size[0], size[1], node.op, node.value)
    if isinstance(node, UintCmp):
        if ctx is None:
            return None
        value = ctx.read_uint(node.width, node.offset)
        return value is not None and _OPS[node.op](value, node.value)
    if isinstance(node, Sha256Eq):
        return None if ctx is None else ctx.sha256() == node.digest
    if isinstance(node, Not):
        value = _truth(node.item, least, most, size, ctx)
        return None if value is None else not value
    if isinstance(node, (And, Or)):
        decides = isinstance(node, Or)   # the item value that decides the whole
        result = not decides
        for item in node.items:
            value = _truth(item, least, most, size, ctx)
            if value is decides:
                return decides
            if value is None:
                result = None
        return result
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

