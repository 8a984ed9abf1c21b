"""Hand-written lexer and recursive-descent parser for the rule language subset.

Supported: text/hex/regex string definitions (nocase/ascii/wide modifiers on
text, nocase/ascii on a regex, none on hex), and conditions built from string
matches, #counts, N-of quantifiers, filesize and uintN() comparisons,
whole-file hash.sha256 equality, and and/or/not. Anything else
in the YARA language is rejected with UnsupportedConstruct at parse time; a
silently dropped rule would corrupt downstream statistics.

A rule has YARA's one layout: an optional meta: section, an optional
strings: section, then condition: and '}'. A section repeated or out of that
order is a ParseError at the token where it stands, and a keyword outside the
subset is refused wherever it stands, after a condition or a (group) too
(`$a at 0`).

Every token, with the whitespace and comments before it, is one `_TOKEN_RE`
match; quoted strings and /regexes/ are tokens like any other, and a hex
body's items are `_HEX_ITEM_RE` matches read on from its '{' token. Conditions
and regex groups nested MAX_CONDITION_DEPTH deep are rejected, so hostile
nesting raises ParseError, never RecursionError.
"""

from __future__ import annotations

import itertools
import re

try:
    from re import _parser as _sre      # Python 3.11 and later
except ImportError:                     # Python 3.10
    import sre_parse as _sre

from ..errors import ParseError, UnsupportedConstruct
from .model import (
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

# whitespace one character at a time, a comment whole; an unclosed /* is no comment
_TRIVIA = r"(?:\s|//[^\n]*|/\*.*?\*/)*"
_HEX_BYTE = r"[0-9A-Fa-f]{2}"
# The last two alternatives match wherever the others do not, so a match never
# fails and never backtracks into the trivia before it.
_TOKEN_RE = re.compile(_TRIVIA + r"""
    (?: (?P<strid>\$[A-Za-z0-9_]*)
      | (?P<countid>\#[A-Za-z0-9_]*)
      | (?P<num>0x[0-9A-Fa-f]+|\d+(?:KB|MB)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<regex>/(?:[^/\\\n]|\\.)*/)
      | (?P<op>==|!=|<=|>=|[<>={}():,.\[\]\-|*/])
      | (?P<eof>\Z)
      | (?P<bad>.)
    )""", re.VERBOSE | re.DOTALL)
_HEX_ITEM_RE = re.compile(_TRIVIA + r"""
    (?: (?P<byte>%s) | (?P<any>\?\?) | (?P<jump>\[[^\]]*\]) | (?P<end>\}) | (?P<bad>.?) )
    """ % _HEX_BYTE, re.VERBOSE | re.DOTALL)
_ESCAPE_RE = re.compile(r'\\(?:x(%s)|([ntr"\\])|(.?))' % _HEX_BYTE, re.DOTALL)
_ESCAPES = {"n": 0x0A, "t": 0x09, "r": 0x0D, '"': 0x22, "\\": 0x5C}


class Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos            # source offset; line and column are derived on error

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r})"


class Lexer:
    """Tokenizer: one `_TOKEN_RE` match per token, and hex bodies on the parser's call."""

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

    def next(self) -> Token:
        m = _TOKEN_RE.match(self.text, self.pos)
        kind = m.lastgroup
        start = m.start(kind)
        value = m.group(kind)
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
        elif kind == "string":
            value = self._unescape(start + 1, m.end() - 1)
        elif kind == "regex":
            value = value[1:-1]
        elif kind == "eof":
            value = None
        elif kind == "bad":
            if value == '"':      # unclosed: a bad escape in it is reported first
                self._unescape(start + 1, len(self.text))
                self.error("unterminated string literal", pos=start)
            self.error(f"unexpected character {value!r}", pos=start)
        return Token(kind, value, start)

    def _unescape(self, start, end) -> bytes:
        """The bytes of the quoted text in [start, end), which is UTF-8 encoded
        apart from its escapes; the first bad escape raises, and so does a
        lone surrogate, which UTF-8 cannot encode."""
        body = self.text[start:end]
        try:
            if "\\" not in body:
                return body.encode("utf-8")
            out = bytearray()
            done = 0
            for m in _ESCAPE_RE.finditer(body):
                hex_byte, char, other = m.groups()
                if other is not None:
                    self.error("unterminated escape" if not other else
                               "\\x escape needs two hex digits" if other == "x" else
                               f"unsupported escape \\{other}", pos=start + m.start())
                out += body[done:m.start()].encode("utf-8")
                out.append(int(hex_byte, 16) if hex_byte else _ESCAPES[char])
                done = m.end()
            out += body[done:].encode("utf-8")
            return bytes(out)
        except UnicodeEncodeError as exc:
            self.error(f"string holds a lone surrogate {exc.object[exc.start]!r}", pos=start - 1)

    def read_hex_body(self) -> tuple:
        """Read a hex string's items and its closing '}'; its '{' token was the last one read.

        A match attempt can try every combination of jump lengths, so the
        product of the jumps' spans is bounded by the span of one
        [0-MAX_HEX_JUMP] jump: no hex string tries more combinations per offset."""
        items = []
        spans = 1
        for m in _HEX_ITEM_RE.finditer(self.text, self.pos):
            kind = m.lastgroup
            at = m.start(kind)
            if kind == "byte":
                items.append(("byte", int(m.group(kind), 16)))
            elif kind == "any":
                items.append(("any",))
            elif kind == "jump":
                spec = m.group(kind)[1:-1].strip()
                jump = re.fullmatch(r"(\d+)(?:\s*-\s*(\d+))?", spec)
                if not jump:
                    self.error(f"bad hex jump [{spec}]", UnsupportedConstruct, pos=at)
                lo = int(jump.group(1))
                hi = int(jump.group(2)) if jump.group(2) else lo
                if not (0 <= lo <= hi <= MAX_HEX_JUMP):
                    self.error(f"hex jump out of range [{lo}-{hi}], max {MAX_HEX_JUMP}", pos=at)
                spans *= hi - lo + 1
                if spans > MAX_HEX_JUMP + 1:
                    self.error(f"hex jump spans multiply to {spans}, max {MAX_HEX_JUMP + 1}",
                               pos=at)
                items.append(("jump", lo, hi))
            elif kind == "end":
                self.pos = m.end()
                if not items:
                    self.error("empty hex string")
                return tuple(items)
            else:
                c = m.group(kind)
                if c and c in "0123456789ABCDEFabcdef":
                    self.error("hex bytes must come in full pairs", UnsupportedConstruct, pos=at)
                message, cls = {
                    "": ("unterminated hex string", ParseError),
                    "?": ("lone '?' in hex string; only full-byte ?? wildcards are supported",
                          UnsupportedConstruct),
                    "[": ("unterminated hex jump", ParseError),
                    "(": ("hex string alternation is not supported", UnsupportedConstruct),
                }.get(c, (f"unexpected character {c!r} in hex string", ParseError))
                self.error(message, cls, pos=at)


_REGEX_FORBIDDEN = re.compile(r"\\[1-9]|\(\?")
# what can open or close a group: an escape or a character class opens none
_REGEX_GROUPING_RE = re.compile(r"\\.|\[\^?\]?(?:[^\]\\]|\\.)*\]|[()]", re.DOTALL)
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


def _group_depth(body: str) -> int:
    steps = ((t == "(") - (t == ")") for t in _REGEX_GROUPING_RE.findall(body))
    return max(itertools.accumulate(steps), default=0)


def _validate_regex(body: str, lexer: Lexer):
    """Reject what the subset leaves out, groups nested deeper than
    MAX_CONDITION_DEPTH, and regexes like (a+)+ or (a|a)* whose matching time
    can grow exponentially with the input. The last check is conservative: a
    class, a dot or a nullable branch counts as overlapping any other branch,
    and letters overlap their other case."""
    if _REGEX_FORBIDDEN.search(body):
        lexer.error("regex backreferences and (?...) groups are not supported",
                    UnsupportedConstruct)
    if body.count("(") > MAX_CONDITION_DEPTH and _group_depth(body) > MAX_CONDITION_DEPTH:
        lexer.error(f"regex nests groups deeper than {MAX_CONDITION_DEPTH}")
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
        self.rule_name = None
        self.depth = 0            # the '(' and 'not' the condition factor is inside

    def error(self, message, cls=ParseError, tok=None):
        """Raises at `tok`, by default the current token; a regex token is
        reported as the '/' it starts with."""
        tok = tok or self.tok
        self.lexer.error(message, cls, "/" if tok.kind == "regex" else tok.value, tok.pos)

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
            self.refuse_keyword()
            rule = self.parse_rule()
            if rule.name in names:
                self.error(f"duplicate rule name {rule.name!r}")
            names.add(rule.name)
            rules.append(rule)
        return RuleSet(rules=tuple(rules), role=role)

    def parse_rule(self) -> Rule:
        self.expect("name", "rule")
        name = self.rule_name = self.expect("name").value
        tags = []
        if self.tok.kind == "op" and self.tok.value == ":":
            self.advance()
            while self.tok.kind == "name":
                tags.append(self.tok.value)
                self.advance()
        self.expect("op", "{")
        meta = self.parse_meta() if self.section("meta") else {}
        strings = self.parse_strings() if self.section("strings") else []
        self.expect("name", "condition")
        self.expect("op", ":")
        condition = self.parse_expr()
        self.expect("op", "}")
        defined = {p.id for p in strings}
        for ref in referenced_ids(condition):
            if ref not in defined:
                self.error(f"condition of rule {name!r} references undefined string {ref}")
        if condition_depth(condition) > MAX_CONDITION_DEPTH:
            self.error_too_deep()
        # string sets in N-of must not exceed definitions; uses checked above
        return Rule(name=name, tags=tuple(tags), meta=meta,
                    strings=tuple(strings), condition=condition)

    def refuse_keyword(self):
        """A YARA keyword that the subset leaves out is refused where it stands."""
        if self.tok.kind == "name" and self.tok.value in UNSUPPORTED_KEYWORDS:
            self.error(f"construct {self.tok.value!r} is outside the supported subset",
                       UnsupportedConstruct)

    def section(self, word) -> bool:
        """Reads `word :` if the next token is `word`; says whether it did."""
        if self.tok.kind != "name" or self.tok.value != word:
            return False
        self.advance()
        self.expect("op", ":")
        return True

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
                body = self.lexer.read_hex_body()
                self.advance()
                kind = "hex"
            elif self.tok.kind == "regex":
                body = self.tok.value
                _validate_regex(body, self.lexer)
                self.advance()
                kind = "regex"
            elif self.tok.kind == "op" and self.tok.value == "/":
                self.lexer.error("unterminated regex", pos=self.tok.pos)
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
            if kind == "hex":
                self.error("hex strings take no modifiers", UnsupportedConstruct)
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
        # where a condition or a (group) ends, `$a at 0` or `$a matches /x/` is
        # a construct the subset leaves out, not a missing '}' or ')'
        self.refuse_keyword()
        return items[0] if len(items) == 1 else Or(tuple(items))

    def parse_term(self):
        items = [self.parse_factor()]
        while self.tok.kind == "name" and self.tok.value == "and":
            self.advance()
            items.append(self.parse_factor())
        return items[0] if len(items) == 1 else And(tuple(items))

    def error_too_deep(self):
        self.error(f"condition of rule {self.rule_name!r} exceeds depth {MAX_CONDITION_DEPTH}")

    def parse_factor(self):
        opener = self.tok.value
        if not (self.tok.kind == "name" and opener == "not"
                or self.tok.kind == "op" and opener == "("):
            return self.parse_primary()
        self.depth += 1
        if self.depth >= MAX_CONDITION_DEPTH:
            self.error_too_deep()
        self.advance()
        if opener == "not":
            inner = Not(self.parse_factor())
        else:
            inner = self.parse_expr()
            self.expect("op", ")")
        self.depth -= 1
        return inner

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
            self.refuse_keyword()
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
                offset = self.expect("num")
                if offset.value != 0:
                    self.error("hash.sha256 with an offset other than 0 is outside the "
                               "supported subset", UnsupportedConstruct, offset)
                self.expect("op", ",")
                self.expect("name", "filesize")
                self.expect("op", ")")
                self.expect("op", "==")
                tok = self.expect("string")
                digest = tok.value.decode("latin-1").lower()
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
