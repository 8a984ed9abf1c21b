"""Independent naive rule interpreter used as the fuzz oracle.

Deliberately dumb: exhaustive sliding-window pattern search and direct
recursive condition evaluation, sharing no code with the scanning engine.
"""

import hashlib

from sievemal.rules.model import (
    And,
    CountCmp,
    FilesizeCmp,
    Not,
    OfQuantifier,
    Or,
    Sha256Eq,
    StringMatch,
    UintCmp,
)

_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def text_needles(pattern):
    body = pattern.body
    needles = []
    if "wide" in pattern.modifiers:
        needles.append(b"".join(bytes([c, 0]) for c in body))
        if "ascii" in pattern.modifiers:
            needles.append(body)
    else:
        needles.append(body)
    if "nocase" in pattern.modifiers:
        needles = [n.lower() for n in needles]
    return needles


def text_offsets(data, pattern):
    hay = data.lower() if "nocase" in pattern.modifiers else data
    offsets = set()
    for needle in text_needles(pattern):
        for i in range(len(hay) - len(needle) + 1):
            if hay[i:i + len(needle)] == needle:
                offsets.add(i)
    return sorted(offsets)


def hex_match_end(items, data, pos, idx=0):
    """Smallest end offset of a match starting at pos, or None (lazy jumps)."""
    if idx == len(items):
        return pos
    item = items[idx]
    if item[0] == "byte":
        if pos < len(data) and data[pos] == item[1]:
            return hex_match_end(items, data, pos + 1, idx + 1)
        return None
    if item[0] == "any":
        if pos < len(data):
            return hex_match_end(items, data, pos + 1, idx + 1)
        return None
    _, lo, hi = item
    for jump in range(lo, hi + 1):
        if pos + jump > len(data):
            break
        end = hex_match_end(items, data, pos + jump, idx + 1)
        if end is not None:
            return end
    return None


def hex_offsets(data, items):
    """Leftmost non-overlapping occurrences."""
    offsets = []
    pos = 0
    while pos <= len(data):
        end = hex_match_end(items, data, pos)
        if end is not None:
            offsets.append(pos)
            pos = max(end, pos + 1)
        else:
            pos += 1
    return offsets


# --- tiny regex AST matcher --------------------------------------------------
# nodes: ("lit", byte) ("class", frozenset) ("dot",) ("seq", [..]) ("alt", [..])
# ("star", node) ("plus", node) ("opt", node), and the anchors ("bol",) for ^,
# ("eol",) for $ and ("wordb",) for \b, with Python's meaning on bytes

_WORD = frozenset(b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _is_word(data, i):
    return 0 <= i < len(data) and data[i] in _WORD


def regex_match_ends(node, data, pos):
    """All end positions of matches of node starting at pos (set)."""
    kind = node[0]
    if kind == "bol":
        return {pos} if pos == 0 else set()
    if kind == "eol":     # the end, or just before a newline that ends the data
        return {pos} if pos == len(data) or data[pos:] == b"\n" else set()
    if kind == "wordb":
        return {pos} if _is_word(data, pos - 1) != _is_word(data, pos) else set()
    if kind == "lit":
        return {pos + 1} if pos < len(data) and data[pos] == node[1] else set()
    if kind == "class":
        return {pos + 1} if pos < len(data) and data[pos] in node[1] else set()
    if kind == "dot":
        return {pos + 1} if pos < len(data) else set()
    if kind == "seq":
        ends = {pos}
        for child in node[1]:
            ends = {e2 for e in ends for e2 in regex_match_ends(child, data, e)}
            if not ends:
                return set()
        return ends
    if kind == "alt":
        out = set()
        for child in node[1]:
            out |= regex_match_ends(child, data, pos)
        return out
    if kind == "opt":
        return {pos} | regex_match_ends(node[1], data, pos)
    if kind in ("star", "plus"):
        ends = regex_match_ends(node[1], data, pos)
        seen = set(ends)
        frontier = set(ends)
        while frontier:
            nxt = set()
            for e in frontier:
                if e == pos:
                    continue  # zero-width repetition guard
                for e2 in regex_match_ends(node[1], data, e):
                    if e2 not in seen:
                        seen.add(e2)
                        nxt.add(e2)
            frontier = nxt
        return seen if kind == "plus" else seen | {pos}
    raise ValueError(node)


def regex_matches_somewhere(node, data):
    return any(regex_match_ends(node, data, i) for i in range(len(data) + 1))


# --- condition evaluation ----------------------------------------------------

def naive_scan_verdict(rule, data, regex_asts=None):
    """Direct evaluation of one rule; regex patterns need their ASTs supplied."""
    present = {}
    counts = {}
    for p in rule.strings:
        if p.kind == "text":
            offs = text_offsets(data, p)
            present[p.id] = bool(offs)
            counts[p.id] = len(offs)
        elif p.kind == "hex":
            offs = hex_offsets(data, p.body)
            present[p.id] = bool(offs)
            counts[p.id] = len(offs)
        else:
            present[p.id] = regex_matches_somewhere(regex_asts[p.id], data)
            counts[p.id] = None  # fuzz conditions never count regexes

    def ev(node):
        if isinstance(node, StringMatch):
            return present[node.id]
        if isinstance(node, CountCmp):
            return _OPS[node.op](counts["$" + node.id[1:]], node.value)
        if isinstance(node, OfQuantifier):
            ids = node.ids if node.ids is not None else tuple(present)
            hits = sum(1 for i in ids if present[i])
            need = {"any": 1, "all": len(ids)}.get(node.count, node.count)
            return hits >= need
        if isinstance(node, FilesizeCmp):
            return _OPS[node.op](len(data), node.value)
        if isinstance(node, UintCmp):
            n = node.width // 8
            chunk = data[node.offset:node.offset + n]
            if len(chunk) != n:
                return False
            return _OPS[node.op](int.from_bytes(chunk, "little"), node.value)
        if isinstance(node, Sha256Eq):
            return hashlib.sha256(data).hexdigest() == node.digest
        if isinstance(node, And):
            return all(ev(i) for i in node.items)
        if isinstance(node, Or):
            return any(ev(i) for i in node.items)
        if isinstance(node, Not):
            return not ev(node.item)
        raise TypeError(node)

    return ev(rule.condition)
