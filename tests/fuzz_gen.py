"""Seeded random generator of subset-grammar rules and inputs for oracle fuzzing."""

import contextlib
import hashlib
import random
import signal
import threading

_SAFE_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789"

# a fuzz scan takes milliseconds; a regex whose scan time is polynomial in the
# data (ROADMAP item 5) can take minutes on a few KB
SCAN_DEADLINE_S = 20.0


@contextlib.contextmanager
def deadline(case: str, seconds: float = SCAN_DEADLINE_S):
    """Fail the block, naming `case` (the fuzz case's seed and rule source),
    when it runs past `seconds`, so a stalled scan fails instead of hanging
    the suite. A SIGALRM timer raises in the main thread, and the regex
    engine checks for signals while it backtracks. Where there is no SIGALRM,
    or off the main thread, the block runs without a deadline."""
    if (not hasattr(signal, "setitimer")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def expired(signum, frame):
        raise AssertionError(f"fuzz scan still running after {seconds} s: {case}")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def escape_text(body: bytes) -> str:
    out = []
    for b in body:
        c = chr(b)
        if c == '"':
            out.append('\\"')
        elif c == "\\":
            out.append("\\\\")
        elif 0x20 <= b <= 0x7E:
            out.append(c)
        else:
            out.append(f"\\x{b:02x}")
    return "".join(out)


def gen_text_pattern(rng: random.Random):
    n = rng.randint(3, 8)
    if rng.random() < 0.5:
        body = bytes(rng.choice(_SAFE_CHARS.encode()) for _ in range(n))
    else:
        body = bytes(rng.randrange(256) for _ in range(n))
    mods = []
    if rng.random() < 0.25:
        mods.append("nocase")
    if rng.random() < 0.2:
        mods.append("wide")
        if rng.random() < 0.5:
            mods.append("ascii")
    return body, mods


def gen_hex_pattern(rng: random.Random):
    items = []
    n = rng.randint(3, 8)
    for i in range(n):
        r = rng.random()
        if 0 < i < n - 1 and r < 0.2:
            items.append(("any",))
        elif 0 < i < n - 1 and r < 0.35:
            lo = rng.randint(0, 3)
            items.append(("jump", lo, lo + rng.randint(0, 3)))
        else:
            items.append(("byte", rng.randrange(256)))
    return tuple(items)


def gen_periodic_hex(rng: random.Random):
    """(items, unit): a hex pattern that repeats a unit of a fixed byte and a
    byte or ??, then ends with that fixed byte, so its matches can overlap.
    hex_witness(rng, unit + items) holds two overlapping matches, of which a
    scan counts one (matches are leftmost non-overlapping)."""
    unit = (("byte", rng.randrange(256)), rng.choice([("any",), ("byte", rng.randrange(256))]))
    return unit * rng.randint(1, 3) + unit[:1], unit


def render_hex(items) -> str:
    parts = []
    for item in items:
        if item[0] == "byte":
            parts.append(f"{item[1]:02X}")
        elif item[0] == "any":
            parts.append("??")
        else:
            parts.append(f"[{item[1]}-{item[2]}]")
    return "{ " + " ".join(parts) + " }"


def hex_witness(rng: random.Random, items) -> bytes:
    out = bytearray()
    for item in items:
        if item[0] == "byte":
            out.append(item[1])
        elif item[0] == "any":
            out.append(rng.randrange(256))
        else:
            out.extend(rng.randrange(256) for _ in range(rng.randint(item[1], item[2])))
    return bytes(out)


# --- regex ASTs (see naive_rules.regex_match_ends for node shapes) -----------
# The anchors ("bol",) ^, ("eol",) $ and ("wordb",) \b match no byte: they read
# the bytes around a match, so a match can come and go with its neighbours.

def gen_regex_atom(rng: random.Random):
    r = rng.random()
    if r < 0.5:
        return ("lit", ord(rng.choice(_SAFE_CHARS)))
    if r < 0.75:
        chars = frozenset(ord(rng.choice(_SAFE_CHARS)) for _ in range(rng.randint(2, 4)))
        return ("class", chars)
    return ("dot",)


def gen_regex(rng: random.Random, depth: int = 0):
    atoms = []
    for _ in range(rng.randint(2, 5)):
        r = rng.random()
        if depth < 2 and r < 0.15:
            atoms.append(("alt", [gen_regex(rng, depth + 1), gen_regex(rng, depth + 1)]))
        elif r < 0.35:
            # quantify a non-nullable atom only
            atoms.append((rng.choice(["star", "plus", "opt"]), gen_regex_atom(rng)))
        else:
            atoms.append(gen_regex_atom(rng))
    return ("seq", atoms)


def gen_anchored_regex(rng: random.Random):
    """A run of literals and classes, a literal sometimes repeated, between
    anchors: ^ or \\b before it, $ or \\b after it, at least one of the two.
    Nothing in it is a dot or nests, so a scan of it stays linear."""
    atoms = []
    for _ in range(rng.randint(2, 5)):
        atom = gen_regex_atom(rng)
        while atom[0] == "dot":
            atom = gen_regex_atom(rng)
        atoms.append(("plus", atom) if atom[0] == "lit" and rng.random() < 0.2 else atom)
    lead, tail = rng.choice([(True, False), (False, True), (True, True)])
    if lead:
        atoms.insert(0, (rng.choice(["bol", "wordb", "wordb"]),))
    if tail:
        atoms.append((rng.choice(["eol", "wordb"]),))
    return ("seq", atoms)


def render_regex(node) -> str:
    kind = node[0]
    if kind == "lit":
        return chr(node[1])
    if kind == "class":
        return "[" + "".join(chr(c) for c in sorted(node[1])) + "]"
    if kind == "dot":
        return "."
    if kind == "seq":
        return "".join(render_regex(c) for c in node[1])
    if kind == "alt":
        return "(" + "|".join(render_regex(c) for c in node[1]) + ")"
    if kind == "star":
        return render_regex(node[1]) + "*"
    if kind == "plus":
        return render_regex(node[1]) + "+"
    if kind == "opt":
        return render_regex(node[1]) + "?"
    if kind in _ANCHORS:
        return _ANCHORS[kind]
    raise ValueError(node)


_ANCHORS = {"bol": "^", "eol": "$", "wordb": "\\b"}


def regex_witness(rng: random.Random, node) -> bytes:
    kind = node[0]
    if kind == "lit":
        return bytes([node[1]])
    if kind == "class":
        return bytes([rng.choice(sorted(node[1]))])
    if kind == "dot":
        return bytes([rng.randrange(256)])
    if kind == "seq":
        return b"".join(regex_witness(rng, c) for c in node[1])
    if kind == "alt":
        return regex_witness(rng, rng.choice(node[1]))
    if kind == "star":
        return b"".join(regex_witness(rng, node[1]) for _ in range(rng.randint(0, 3)))
    if kind == "plus":
        return b"".join(regex_witness(rng, node[1]) for _ in range(rng.randint(1, 3)))
    if kind == "opt":
        return regex_witness(rng, node[1]) if rng.random() < 0.5 else b""
    if kind in _ANCHORS:
        return b""
    raise ValueError(node)


# --- whole rules -------------------------------------------------------------

def gen_condition(rng: random.Random, patterns, depth: int = 0) -> str:
    """patterns: list of (id, kind). Returns condition source text."""
    counted = [pid for pid, kind in patterns if kind != "regex"]
    choices = ["match", "of", "filesize", "uint"]
    if counted:
        choices.append("count")
    if depth < 2:
        choices += ["and", "or", "not"]
    op = rng.choice(choices)
    relop = rng.choice(["==", "!=", "<", "<=", ">", ">="])
    if op == "match":
        return rng.choice(patterns)[0]
    if op == "count":
        return f"#{rng.choice(counted)[1:]} {relop} {rng.randint(0, 3)}"
    if op == "of":
        if rng.random() < 0.5:
            quant = rng.choice(["any", "all", str(rng.randint(1, len(patterns)))])
            return f"{quant} of them"
        subset = rng.sample([p[0] for p in patterns], rng.randint(1, len(patterns)))
        quant = rng.choice(["any", "all", str(rng.randint(1, len(subset)))])
        return f"{quant} of ({', '.join(subset)})"
    if op == "filesize":
        return f"filesize {relop} {rng.randint(0, 500)}"
    if op == "uint":
        width = rng.choice([8, 16, 32])
        return f"uint{width}({rng.randint(0, 300)}) {relop} {rng.randrange(2 ** width)}"
    if op == "not":
        return f"not ({gen_condition(rng, patterns, depth + 1)})"
    joiner = f" {op} "
    parts = [f"({gen_condition(rng, patterns, depth + 1)})"
             for _ in range(rng.randint(2, 3))]
    return joiner.join(parts)


def gen_rule(rng: random.Random, name: str):
    """Returns (rule_text, regex_asts: {pattern_id: ast}, witnesses: [bytes])."""
    n_patterns = rng.randint(1, 3)
    lines = []
    patterns = []
    regex_asts = {}
    witnesses = []
    for i in range(n_patterns):
        pid = f"$p{i}"
        r = rng.random()
        if r < 0.5:
            body, mods = gen_text_pattern(rng)
            lines.append(f'        {pid} = "{escape_text(body)}" {" ".join(mods)}')
            patterns.append((pid, "text"))
            if "wide" in mods:
                witnesses.append(b"".join(bytes([c, 0]) for c in body))
            else:
                witnesses.append(body)
        elif r < 0.65:
            items = gen_hex_pattern(rng)
            lines.append(f"        {pid} = {render_hex(items)}")
            patterns.append((pid, "hex"))
            witnesses.append(hex_witness(rng, items))
        elif r < 0.8:
            items, unit = gen_periodic_hex(rng)
            lines.append(f"        {pid} = {render_hex(items)}")
            patterns.append((pid, "hex"))
            witnesses.append(hex_witness(rng, unit + items))
        else:
            ast = gen_anchored_regex(rng) if rng.random() < 0.5 else gen_regex(rng)
            lines.append(f"        {pid} = /{render_regex(ast)}/")
            patterns.append((pid, "regex"))
            regex_asts[pid] = ast
            witnesses.append(regex_witness(rng, ast))
    condition = gen_condition(rng, patterns)
    text = (f"rule {name}\n{{\n    strings:\n" + "\n".join(lines)
            + f"\n    condition:\n        {condition}\n}}\n")
    return text, regex_asts, witnesses


def gen_anchored_rule(rng: random.Random, name: str):
    """gen_rule's (rule_text, regex_asts, witnesses) for a rule that fires on
    one anchored regex: its hits come and go with the bytes next to them."""
    ast = gen_anchored_regex(rng)
    text = (f"rule {name}\n{{\n    strings:\n        $p0 = /{render_regex(ast)}/"
            f"\n    condition:\n        $p0\n}}\n")
    return text, {"$p0": ast}, [regex_witness(rng, ast)]


def gen_hash_rule(rng: random.Random, name: str, data: bytes, others) -> str:
    """A hash-only rule: `hash.sha256(0, filesize) == "D"` alone, or and-ed
    with `filesize == N` in either order, N the length of data, one less or
    one more. D is data's digest, or that of one of others."""
    source = data if rng.random() < 0.7 else rng.choice(others)
    hash_eq = f'hash.sha256(0, filesize) == "{hashlib.sha256(source).hexdigest()}"'
    condition = hash_eq
    if rng.random() < 0.75:
        size_eq = f"filesize == {max(len(data) + rng.choice((-1, 0, 1)), 0)}"
        condition = " and ".join(rng.sample([size_eq, hash_eq], 2))
    return f"rule {name}\n{{\n    condition:\n        {condition}\n}}\n"


def gen_data(rng: random.Random, witnesses) -> bytes:
    """Random bytes with witnesses planted; some at the start or the end, where
    an anchored regex reads past the data."""
    data = bytearray(rng.randrange(256) for _ in range(rng.randint(50, 400)))
    if witnesses and rng.random() < 0.7:
        for _ in range(rng.randint(1, 3)):
            w = rng.choice(witnesses)
            if not w:
                continue
            off = rng.choice([0, len(data)]) if rng.random() < 0.3 else rng.randint(0, len(data))
            data[off:off] = w
    return bytes(data)
