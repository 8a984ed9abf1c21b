"""Reference rule parser used as the exactness oracle.

This is `sievemal.rules.parser` as it was before every token became one regex
match: quoted strings, regexes and hex bodies are read by character loops, and
the parser rewinds the lexer for regexes and hex bodies. Only its imports are
made absolute. `parse_rules` there must give an equal RuleSet, or the same
error class, message, line and column, on every text. The undefined string it
names is the first in source order, as `referenced_ids` lists them.

Hand-written lexer and recursive-descent parser for the rule language subset.

Supported: text/hex/regex string definitions with nocase/ascii/wide modifiers,
and conditions built from string matches, #counts, N-of quantifiers, filesize
and uintN() comparisons, hash.sha256 equality, and and/or/not. Anything else
in the YARA language is rejected with UnsupportedConstruct at parse time; a
silently dropped rule would corrupt downstream statistics.
"""

from __future__ import annotations

import re

try:
    from re import _parser as _sre      # Python 3.11 and later
except ImportError:                     # Python 3.10
    import sre_parse as _sre

from sievemal.errors import ParseError, UnsupportedConstruct
from sievemal.rules.model import (
    MAX_CONDITION_DEPTH,
    MAX_HEX_JUMP,
    And,
    CountCmp,
    FilesizeCmp,
    Not,
    OfQuantifier,
    Or,
    PatternDef,
    Rule,
    RuleSet,
    Sha256Eq,
    StringMatch,
    UintCmp,
    condition_depth,
    referenced_ids,
)

UNSUPPORTED_KEYWORDS = {
    "import", "for", "at", "in", "global", "private", "entrypoint", "include",
    "int8", "int16", "int32", "uint8be", "uint16be", "uint32be", "matches",
    "contains", "defined",
}

MODIFIERS = {"nocase", "ascii", "wide"}
UNSUPPORTED_MODIFIERS = {"fullword", "xor", "base64", "base64wide", "private"}

RELOPS = {"==", "!=", "<", "<=", ">", ">="}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<strid>\$[A-Za-z0-9_]*)
    | (?P<countid>\#[A-Za-z0-9_]*)
    | (?P<num>0x[0-9A-Fa-f]+|\d+(?:KB|MB)?)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>==|!=|<=|>=|[<>={}():,.\[\]\-|*/])
    """,
    re.VERBOSE | re.DOTALL,
)
_HEX_BYTE_RE = re.compile(r"[0-9A-Fa-f]{2}")


class Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos            # source offset; line and column are derived on error

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r})"


class Lexer:
    """Tokenizer with parser-driven modes for quoted strings, regexes and hex bodies."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _linecol(self, pos):
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def error(self, message, cls=ParseError, token=None, pos=None):
        line, col = self._linecol(self.pos if pos is None else pos)
        raise cls(message, line, col, token)

    def _skip_trivia(self):
        while self.pos < len(self.text):
            m = _TOKEN_RE.match(self.text, self.pos)
            if m and (m.lastgroup == "ws" or m.lastgroup == "comment"):
                self.pos = m.end()
            else:
                break

    def next(self) -> Token:
        self._skip_trivia()
        if self.pos >= len(self.text):
            return Token("eof", None, self.pos)
        if self.text[self.pos] == '"':
            return self._read_quoted()
        m = _TOKEN_RE.match(self.text, self.pos)
        if m is None:
            self.error(f"unexpected character {self.text[self.pos]!r}")
        start = m.start()
        kind = m.lastgroup
        value = m.group()
        self.pos = m.end()
        if kind == "num":
            if value.endswith("KB"):
                value = int(value[:-2]) * 1024
            elif value.endswith("MB"):
                value = int(value[:-2]) * 1024 * 1024
            elif value.startswith("0x"):
                value = int(value, 16)
            else:
                value = int(value)
            return Token("num", value, start)
        return Token(kind, value, start)

    def _read_quoted(self) -> Token:
        start = self.pos
        assert self.text[self.pos] == '"'
        i = self.pos + 1
        out = bytearray()
        while True:
            if i >= len(self.text):
                self.error("unterminated string literal")
            c = self.text[i]
            if c == '"':
                i += 1
                break
            if c == "\\":
                if i + 1 >= len(self.text):
                    self.error("unterminated escape", pos=i)
                e = self.text[i + 1]
                if e == "n":
                    out.append(0x0A)
                elif e == "t":
                    out.append(0x09)
                elif e == "r":
                    out.append(0x0D)
                elif e in ('"', "\\"):
                    out.append(ord(e))
                elif e == "x":
                    digits = self.text[i + 2:i + 4]
                    if not _HEX_BYTE_RE.fullmatch(digits):
                        self.error("\\x escape needs two hex digits", pos=i)
                    out.append(int(digits, 16))
                    i += 2
                else:
                    self.error(f"unsupported escape \\{e}", pos=i)
                i += 2
            else:
                out.extend(c.encode("utf-8"))
                i += 1
        self.pos = i
        return Token("string", bytes(out), start)

    def read_regex(self) -> str:
        """Read a /.../ regex body; the leading '/' has not been consumed."""
        self._skip_trivia()
        assert self.text[self.pos] == "/"
        i = self.pos + 1
        body = []
        while True:
            if i >= len(self.text) or self.text[i] == "\n":
                self.error("unterminated regex")
            c = self.text[i]
            if c == "\\" and i + 1 < len(self.text):
                body.append(self.text[i:i + 2])
                i += 2
                continue
            if c == "/":
                i += 1
                break
            body.append(c)
            i += 1
        self.pos = i
        return "".join(body)

    def read_hex_body(self) -> tuple:
        """Read a { ... } hex string body; the leading '{' has not been consumed."""
        self._skip_trivia()
        assert self.text[self.pos] == "{"
        self.pos += 1
        items = []
        while True:
            self._skip_trivia()
            if self.pos >= len(self.text):
                self.error("unterminated hex string")
            c = self.text[self.pos]
            if c == "}":
                self.pos += 1
                break
            if c == "?":
                if self.text[self.pos:self.pos + 2] != "??":
                    self.error("lone '?' in hex string; only full-byte ?? wildcards are supported",
                               UnsupportedConstruct)
                items.append(("any",))
                self.pos += 2
            elif c == "[":
                end = self.text.find("]", self.pos)
                if end < 0:
                    self.error("unterminated hex jump")
                spec = self.text[self.pos + 1:end].strip()
                m = re.fullmatch(r"(\d+)(?:\s*-\s*(\d+))?", spec)
                if not m:
                    self.error(f"bad hex jump [{spec}]", UnsupportedConstruct)
                lo = int(m.group(1))
                hi = int(m.group(2)) if m.group(2) else lo
                if not (0 <= lo <= hi <= MAX_HEX_JUMP):
                    self.error(f"hex jump out of range [{lo}-{hi}], max {MAX_HEX_JUMP}")
                items.append(("jump", lo, hi))
                self.pos = end + 1
            elif c == "(":
                self.error("hex string alternation is not supported", UnsupportedConstruct)
            elif re.match(r"[0-9A-Fa-f]", c):
                pair = self.text[self.pos:self.pos + 2]
                if not re.fullmatch(r"[0-9A-Fa-f]{2}", pair):
                    self.error("hex bytes must come in full pairs", UnsupportedConstruct)
                items.append(("byte", int(pair, 16)))
                self.pos += 2
            else:
                self.error(f"unexpected character {c!r} in hex string")
        if not items:
            self.error("empty hex string")
        return tuple(items)


_REGEX_FORBIDDEN = re.compile(r"\\[1-9]|\(\?")
_REPEATS = {_sre.MAX_REPEAT, _sre.MIN_REPEAT,
            getattr(_sre, "POSSESSIVE_REPEAT", _sre.MAX_REPEAT)}


def _subpatterns(op, av) -> list:
    if op in _REPEATS:
        return [av[2]]
    if op is _sre.SUBPATTERN:
        return [av[-1]]
    if op is _sre.BRANCH:
        return av[1]
    return []


def _first_bytes(seq):
    """The bytes a match of seq can start with, both cases of a letter
    included; None when a class, a dot, an anchor or the empty string can."""
    for op, av in seq:
        if op is _sre.LITERAL:
            return {av, bytes([av]).swapcase()[0]}
        if op is _sre.SUBPATTERN or (op in _REPEATS and av[0] >= 1):
            return _first_bytes(_subpatterns(op, av)[0])
        if op is _sre.BRANCH:
            firsts = [_first_bytes(branch) for branch in av[1]]
            return None if None in firsts else set().union(*firsts)
        return None
    return None


def _overlapping(branches) -> bool:
    seen = set()
    for branch in branches:
        first = _first_bytes(branch)
        if first is None or seen & first:
            return True
        seen |= first
    return False


def _ambiguous(seq) -> bool:
    """Whether seq holds a repeat of more than one, or an alternation whose
    branches can start with the same byte: under an unbounded repeat, either
    lets a backtracking matcher split one input in exponentially many ways."""
    for op, av in seq:
        if op in _REPEATS and av[1] > 1:
            return True
        if op is _sre.BRANCH and _overlapping(av[1]):
            return True
        if any(_ambiguous(sub) for sub in _subpatterns(op, av)):
            return True
    return False


def _backtracks(seq) -> bool:
    """Whether seq has an unbounded repeat (*, +, {n,}) over an ambiguous operand."""
    for op, av in seq:
        if op in _REPEATS and av[1] == _sre.MAXREPEAT and _ambiguous(av[2]):
            return True
        if any(_backtracks(sub) for sub in _subpatterns(op, av)):
            return True
    return False


def _validate_regex(body: str, lexer: Lexer):
    """Reject what the subset leaves out, and regexes like (a+)+ or (a|a)* whose
    matching time can grow exponentially with the input. The check is
    conservative: a class, a dot or a nullable branch counts as overlapping any
    other branch, and letters overlap their other case."""
    if _REGEX_FORBIDDEN.search(body):
        lexer.error("regex backreferences and (?...) groups are not supported",
                    UnsupportedConstruct)
    try:
        pattern = body.encode("latin-1")
        re.compile(pattern)
    except (re.error, UnicodeEncodeError) as exc:
        lexer.error(f"invalid regex: {exc}")
    if _backtracks(_sre.parse(pattern)):
        lexer.error("regex nests a repeat or an overlapping alternation inside an "
                    "unbounded repeat", UnsupportedConstruct)


class Parser:
    def __init__(self, text: str):
        self.lexer = Lexer(text)
        self.tok = self.lexer.next()

    def error(self, message, cls=ParseError, tok=None):
        tok = tok or self.tok
        self.lexer.error(message, cls, tok.value, tok.pos)

    def advance(self):
        self.tok = self.lexer.next()

    def expect(self, kind, value=None):
        if self.tok.kind != kind or (value is not None and self.tok.value != value):
            want = value if value is not None else kind
            self.error(f"expected {want!r}")
        t = self.tok
        self.advance()
        return t

    # --- top level ---------------------------------------------------------

    def parse_ruleset(self, role: str) -> RuleSet:
        rules = []
        names = set()
        while self.tok.kind != "eof":
            if self.tok.kind == "name" and self.tok.value in UNSUPPORTED_KEYWORDS:
                self.error(f"construct {self.tok.value!r} is outside the supported subset",
                           UnsupportedConstruct)
            rule = self.parse_rule()
            if rule.name in names:
                self.error(f"duplicate rule name {rule.name!r}")
            names.add(rule.name)
            rules.append(rule)
        return RuleSet(rules=tuple(rules), role=role)

    def parse_rule(self) -> Rule:
        self.expect("name", "rule")
        name = self.expect("name").value
        tags = []
        if self.tok.kind == "op" and self.tok.value == ":":
            self.advance()
            while self.tok.kind == "name":
                tags.append(self.tok.value)
                self.advance()
        self.expect("op", "{")
        meta = {}
        strings = []
        condition = None
        while True:
            if self.tok.kind == "op" and self.tok.value == "}":
                self.advance()
                break
            if self.tok.kind != "name":
                self.error("expected meta/strings/condition section")
            section = self.tok.value
            if section == "meta":
                self.advance()
                self.expect("op", ":")
                meta = self.parse_meta()
            elif section == "strings":
                self.advance()
                self.expect("op", ":")
                strings = self.parse_strings()
            elif section == "condition":
                self.advance()
                self.expect("op", ":")
                condition = self.parse_expr()
            else:
                self.error(f"unknown section {section!r}",
                           UnsupportedConstruct if section in UNSUPPORTED_KEYWORDS
                           else ParseError)
        if condition is None:
            self.error(f"rule {name!r} has no condition")
        defined = {p.id for p in strings}
        for ref in referenced_ids(condition):
            if ref not in defined:
                self.error(f"condition of rule {name!r} references undefined string {ref}")
        if condition_depth(condition) > MAX_CONDITION_DEPTH:
            self.error(f"condition of rule {name!r} exceeds depth {MAX_CONDITION_DEPTH}")
        # string sets in N-of must not exceed definitions; uses checked above
        return Rule(name=name, tags=tuple(tags), meta=meta,
                    strings=tuple(strings), condition=condition)

    def parse_meta(self) -> dict:
        meta = {}
        while self.tok.kind == "name" and self.tok.value not in ("strings", "condition", "meta"):
            key = self.tok.value
            self.advance()
            self.expect("op", "=")
            if self.tok.kind == "string":
                meta[key] = self.tok.value.decode("utf-8", "replace")
            elif self.tok.kind == "num":
                meta[key] = str(self.tok.value)
            elif self.tok.kind == "name" and self.tok.value in ("true", "false"):
                meta[key] = self.tok.value
            else:
                self.error("bad meta value")
            self.advance()
        return meta

    def parse_strings(self) -> list:
        out = []
        seen = set()
        while self.tok.kind == "strid":
            pid = self.tok.value
            if pid == "$":
                self.error("anonymous strings are not supported", UnsupportedConstruct)
            if pid in seen:
                self.error(f"duplicate string id {pid}")
            seen.add(pid)
            self.advance()
            self.expect("op", "=")
            if self.tok.kind == "string":
                body = self.tok.value
                if not body:
                    self.error(f"empty text string {pid}")
                self.advance()
                kind = "text"
            elif self.tok.kind == "op" and self.tok.value == "{":
                # re-read the body from source: the '{' token was already lexed,
                # so rewind onto it
                self.lexer.pos = self.tok.pos
                body = self.lexer.read_hex_body()
                self.advance()
                kind = "hex"
            elif self.tok.kind == "op" and self.tok.value == "/":
                self.lexer.pos = self.tok.pos
                body = self.lexer.read_regex()
                _validate_regex(body, self.lexer)
                self.advance()
                kind = "regex"
            else:
                self.error("expected a text, hex or regex pattern")
            mods = self.parse_modifiers(kind)
            out.append(PatternDef(id=pid, kind=kind, body=body, modifiers=frozenset(mods)))
        if not out:
            self.error("empty strings section")
        return out

    def parse_modifiers(self, kind: str) -> set:
        mods = set()
        while self.tok.kind == "name" and self.tok.value in MODIFIERS | UNSUPPORTED_MODIFIERS:
            mod = self.tok.value
            if mod in UNSUPPORTED_MODIFIERS:
                self.error(f"modifier {mod!r} is outside the supported subset",
                           UnsupportedConstruct)
            if mod == "wide" and kind != "text":
                self.error("'wide' applies to text patterns only", UnsupportedConstruct)
            mods.add(mod)
            self.advance()
        return mods

    # --- conditions --------------------------------------------------------

    def parse_expr(self):
        items = [self.parse_term()]
        while self.tok.kind == "name" and self.tok.value == "or":
            self.advance()
            items.append(self.parse_term())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def parse_term(self):
        items = [self.parse_factor()]
        while self.tok.kind == "name" and self.tok.value == "and":
            self.advance()
            items.append(self.parse_factor())
        return items[0] if len(items) == 1 else And(tuple(items))

    def parse_factor(self):
        if self.tok.kind == "name" and self.tok.value == "not":
            self.advance()
            return Not(self.parse_factor())
        if self.tok.kind == "op" and self.tok.value == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect("op", ")")
            return inner
        return self.parse_primary()

    def _relop(self) -> str:
        if self.tok.kind == "op" and self.tok.value in RELOPS:
            op = self.tok.value
            self.advance()
            return op
        self.error("expected a comparison operator")

    def parse_primary(self):
        t = self.tok
        if t.kind == "strid":
            self.advance()
            if self.tok.kind == "op" and self.tok.value == "*":
                self.error("wildcard string ids are not supported", UnsupportedConstruct)
            return StringMatch(t.value)
        if t.kind == "countid":
            self.advance()
            op = self._relop()
            val = self.expect("num").value
            return CountCmp(t.value, op, val)
        if t.kind == "num":
            self.advance()
            self.expect("name", "of")
            return OfQuantifier(t.value, self.parse_id_set())
        if t.kind == "name":
            word = t.value
            if word in UNSUPPORTED_KEYWORDS:
                self.error(f"construct {word!r} is outside the supported subset",
                           UnsupportedConstruct)
            if word in ("any", "all"):
                self.advance()
                self.expect("name", "of")
                return OfQuantifier(word, self.parse_id_set())
            if word == "filesize":
                self.advance()
                op = self._relop()
                val = self.expect("num").value
                return FilesizeCmp(op, val)
            if word in ("uint8", "uint16", "uint32"):
                self.advance()
                self.expect("op", "(")
                off = self.expect("num").value
                self.expect("op", ")")
                op = self._relop()
                val = self.expect("num").value
                return UintCmp(int(word[4:]), off, op, val)
            if word == "hash":
                self.advance()
                self.expect("op", ".")
                fn = self.expect("name")
                if fn.value != "sha256":
                    self.error(f"hash.{fn.value} is outside the supported subset",
                               UnsupportedConstruct, fn)
                self.expect("op", "(")
                self.expect("num")  # offset; only whole-file digests supported
                self.expect("op", ",")
                self.expect("name", "filesize")
                self.expect("op", ")")
                self.expect("op", "==")
                tok = self.expect("string")
                digest = tok.value.decode("ascii").lower()
                if not re.fullmatch(r"[0-9a-f]{64}", digest):
                    self.error("sha256 digest must be 64 hex characters", tok=tok)
                return Sha256Eq(digest)
            if word in ("true", "false"):
                self.error("bare boolean literals are not supported", UnsupportedConstruct)
            # bare identifier: external variable or module reference
            self.error(f"external variables / modules ({word!r}) are outside the supported subset",
                       UnsupportedConstruct)
        self.error("expected a condition")

    def parse_id_set(self):
        if self.tok.kind == "name" and self.tok.value == "them":
            self.advance()
            return None
        self.expect("op", "(")
        ids = []
        while True:
            t = self.expect("strid")
            if self.tok.kind == "op" and self.tok.value == "*":
                self.error("wildcard string ids are not supported", UnsupportedConstruct)
            ids.append(t.value)
            if self.tok.kind == "op" and self.tok.value == ",":
                self.advance()
                continue
            break
        self.expect("op", ")")
        return tuple(ids)


def parse_rules(text: str, role: str = "blocklist") -> RuleSet:
    """Parse rule source text into a RuleSet with the given role."""
    if role not in ("blocklist", "allowlist"):
        raise ValueError(f"bad role {role!r}")
    return Parser(text).parse_ruleset(role)
