import os
import random
import subprocess
import sys

import pytest

import fuzz_gen
import naive_parser

import sievemal
from sievemal.cli import main
from sievemal.errors import ParseError, UnsupportedConstruct
from sievemal.rules import RuleSet, parse_rules
from sievemal.rules.model import (
    MAX_CONDITION_DEPTH,
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
from sievemal.rules.parser import Lexer

FULL_RULE = """
// leading comment
rule demo : apt dropper
{
    meta:
        author = "nobody"
        severity = 3
    strings:
        $a = "hello\\x00world" nocase wide
        $b = { 4D 5A ?? [2-5] 90 }
        $c = /ab+c[0-9]/
    condition:
        ($a and #a >= 2) or 2 of ($b, $c) or filesize < 100KB
}
"""


def test_parse_full_rule_shape():
    rs = parse_rules(FULL_RULE)
    assert rs.role == "blocklist"
    (rule,) = rs.rules
    assert rule.name == "demo"
    assert rule.tags == ("apt", "dropper")
    assert rule.meta == {"author": "nobody", "severity": "3"}
    a, b, c = rule.strings
    assert a.id == "$a" and a.kind == "text"
    assert a.body == b"hello\x00world"
    assert a.modifiers == frozenset({"nocase", "wide"})
    assert b.kind == "hex"
    assert b.body == (("byte", 0x4D), ("byte", 0x5A), ("any",), ("jump", 2, 5), ("byte", 0x90))
    assert c.kind == "regex" and c.body == "ab+c[0-9]"
    assert isinstance(rule.condition, Or)
    first, second, third = rule.condition.items
    assert first == And((StringMatch("$a"), CountCmp("#a", ">=", 2)))
    assert second == OfQuantifier(2, ("$b", "$c"))
    assert third == FilesizeCmp("<", 100 * 1024)


def test_parse_condition_only_constructs():
    rs = parse_rules("""
rule ops {
    strings:
        $x = "q"
    condition:
        not $x and uint16(0) == 0x5A4D and any of them
        and hash.sha256(0, filesize) == "%s"
}
""" % ("ab" * 32))
    cond = rs.rules[0].condition
    assert isinstance(cond, And)
    assert cond.items[0] == Not(StringMatch("$x"))
    assert cond.items[1] == UintCmp(16, 0, "==", 0x5A4D)
    assert cond.items[2] == OfQuantifier("any", None)
    assert cond.items[3] == Sha256Eq("ab" * 32)


def test_number_suffixes():
    rs = parse_rules("""
rule sz { strings: $a = "x" condition: filesize < 2MB or filesize > 0x10 or $a }
""")
    ors = rs.rules[0].condition.items
    assert ors[0].value == 2 * 1024 * 1024
    assert ors[1].value == 0x10


def test_multiple_rules_and_roles():
    text = 'rule a { strings: $s = "1" condition: $s }\nrule b { strings: $s = "2" condition: $s }'
    rs = parse_rules(text, role="allowlist")
    assert [r.name for r in rs.rules] == ["a", "b"]
    assert rs.role == "allowlist"
    with pytest.raises(ValueError):
        parse_rules(text, role="denylist")


@pytest.mark.parametrize("role", ["blocklist", "allowlist"])
@pytest.mark.parametrize("text", ["", "   \n", "// only a comment\n", "/* c */"])
def test_text_without_rules_parses_to_empty_ruleset(text, role):
    # rule files and saved systems with no rules load through the parser alone
    assert parse_rules(text, role=role) == RuleSet(rules=(), role=role)


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as exc:
        parse_rules('rule bad {\n    condition:\n        %%%\n}')
    assert exc.value.line == 3
    assert exc.value.column >= 1


LONG_PREFIX = "".join(f'rule r{i} {{ strings: $a = "x{i}" $h = {{ 4D 5A }} condition: $a or $h }}\n'
                      for i in range(500))


def test_clean_parse_computes_no_line_numbers(monkeypatch):
    calls = []
    original = Lexer._linecol
    monkeypatch.setattr(Lexer, "_linecol",
                        lambda self, pos: calls.append(pos) or original(self, pos))
    assert len(parse_rules(LONG_PREFIX + FULL_RULE)) == 501
    assert calls == []


@pytest.mark.parametrize("tail, line, col", [
    ('rule bad {\n    condition:\n        %%%\n}', 503, 9),
    ('rule bad {\n  strings:\n    $a = ""\n  condition:\n    $a\n}', 503, 10),
    ('rule bad {\n  strings:\n    $a = "\\xZZ"\n  condition:\n    $a\n}', 503, 11),
    ('rule bad {\n  strings:\n    $a = "\\x4"\n  condition:\n    $a\n}', 503, 11),
    ('rule bad {\n  strings:\n    $a = "ab\\q"\n  condition:\n    $a\n}', 503, 13),
], ids=["lexer", "parser", "bad-hex-escape", "short-hex-escape", "unknown-escape"])
def test_late_error_reports_exact_location(tail, line, col):
    with pytest.raises(ParseError) as exc:
        parse_rules(LONG_PREFIX + tail)
    assert (exc.value.line, exc.value.column) == (line, col)


@pytest.mark.parametrize("text", [
    'rule r { strings: $a = "x" condition: $b }',           # undefined ref
    'rule r { strings: $a = "x" condition: #b > 0 }',       # undefined count
    'rule r { strings: $a = "x" condition: 1 of ($a, $b) }',
])
def test_undefined_string_references_rejected(text):
    with pytest.raises(ParseError):
        parse_rules(text)


def test_duplicate_rule_names_rejected():
    text = 'rule a { strings: $s = "1" condition: $s }\nrule a { strings: $s = "2" condition: $s }'
    with pytest.raises(ParseError):
        parse_rules(text)


def test_duplicate_string_ids_rejected():
    with pytest.raises(ParseError):
        parse_rules('rule r { strings: $a = "x" $a = "y" condition: $a }')


def test_condition_depth_limit():
    deep = "$a"
    for _ in range(70):
        deep = f"not ({deep})"
    with pytest.raises(ParseError):
        parse_rules('rule r { strings: $a = "x" condition: %s }' % deep)


def condition_rule(condition: str) -> str:
    return f'rule r {{ strings: $a = "x" condition: {condition} }}'


def nested(depth: int, opener: str, inner: str, closer: str = "") -> str:
    return opener * depth + inner + closer * depth


HOSTILE_NESTING = {
    "330-parens": condition_rule(nested(330, "(", "$a", ")")),
    "2000-nots": condition_rule(nested(2000, "not ", "$a")),
    "1000-regex-groups": f"rule r {{ strings: $a = /{nested(1000, '(', 'a', ')')}/ condition: $a }}",
}


@pytest.mark.parametrize("text", HOSTILE_NESTING.values(), ids=HOSTILE_NESTING.keys())
def test_hostile_nesting_is_a_parse_error(text, tmp_path, capsys):
    # each of these exhausted the Python stack (RecursionError) in the
    # recursive descent or in re.compile; the depth bound refuses them first
    with pytest.raises(ParseError, match=f"(exceeds depth|deeper than) {MAX_CONDITION_DEPTH}"):
        parse_rules(text)
    path = tmp_path / "hostile.yar"
    path.write_text(text)
    assert main(["rules", "check", str(path)]) == 1
    assert capsys.readouterr().err.startswith("rule parse error: ")


def test_nesting_at_the_bound_parses():
    # a factor inside 63 '(' or 'not' parses, one inside 64 does not
    depth = MAX_CONDITION_DEPTH - 1
    assert parse_rules(condition_rule(nested(depth, "(", "$a", ")"))).rules[0].condition \
        == StringMatch("$a")
    assert parse_rules(condition_rule(nested(depth, "not ", "$a")))
    for condition in (nested(depth + 1, "(", "$a", ")"), nested(depth + 1, "not ", "$a")):
        with pytest.raises(ParseError, match=f"exceeds depth {MAX_CONDITION_DEPTH}"):
            parse_rules(condition_rule(condition))
    groups = nested(MAX_CONDITION_DEPTH, "(", "a", ")")
    assert parse_rules(regex_rule(groups)).rules[0].strings[0].body == groups
    with pytest.raises(ParseError, match=f"deeper than {MAX_CONDITION_DEPTH}"):
        parse_rules(regex_rule(f"({groups})"))
    # escaped parentheses and parentheses in a class open no group
    flat = "\\(" * 100 + "[" + "(" * 100 + "]" + "\\)" * 100
    assert parse_rules(regex_rule(flat)).rules[0].strings[0].body == flat


def test_undefined_string_error_names_the_first_in_source_order():
    # the undefined id named must not depend on set iteration order, which
    # changes with the string hash seed
    code = ("from sievemal.rules import parse_rules\n"
            "try:\n"
            "    parse_rules('rule r { strings: $a = \"x\" condition: $b or $c or $d }')\n"
            "except Exception as exc:\n"
            "    print(exc)\n")
    src = os.path.dirname(os.path.dirname(sievemal.__file__))
    for seed in range(1, 7):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert "references undefined string $b (" in out, (seed, out)


def test_hex_jump_bounds():
    with pytest.raises(ParseError):
        parse_rules('rule r { strings: $a = { 90 [5000] 90 } condition: $a }')
    with pytest.raises(ParseError):
        parse_rules('rule r { strings: $a = { 90 [5-2] 90 } condition: $a }')


def hex_rule(body):
    return f"rule r\n{{\n    strings:\n        $a = {{ {body} }}\n    condition:\n        $a\n}}\n"


def test_the_product_of_hex_jump_spans_is_bounded():
    # each jump is in range, but a match attempt can try 65 * 65 * 65 gap
    # lengths; the jump that takes the product past one [0-4096] jump's is named
    text = hex_rule("00 [0-64] 00 [0-64] 00 [0-64] FF")
    for parse in (parse_rules, naive_parser.parse_rules):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value).startswith("hex jump spans multiply to 4225, max 4097")
        assert (info.value.line, info.value.column) == (4, 29)
    assert outcome(parse_rules, text) == outcome(naive_parser.parse_rules, text)
    assert outcome(parse_rules, hex_rule("00 [0-16] 00 [0-241] FF"))[1].startswith(
        "hex jump spans multiply to 4114,")


@pytest.mark.parametrize("body", [
    "00 [0-4096] FF",                                      # one span of 4097
    "00 [0-16] 00 [0-240] FF",                             # 17 * 241 = 4097
    "00 [0-16] 00 [0-240] 00 [7] 00 [3-3] FF",             # spans of 1 leave it at 4097
    "00 [0-3] 00 [0-3] 00 [0-3] 00 [0-3] 00 [0-3] 00 [0-3] FF",  # fuzz_gen's largest, 4**6
])
def test_hex_jump_spans_multiplying_to_at_most_4097_parse(body):
    rs = parse_rules(hex_rule(body))
    assert rs == naive_parser.parse_rules(hex_rule(body))
    assert len(rs.rules[0].strings[0].body) == body.count(" ") + 1


@pytest.mark.parametrize("text", [
    'import "pe"\nrule r { condition: filesize > 0 }',
    'rule r { strings: $a = "x" condition: for all i in (1..2) : ( $a ) }',
    'rule r { strings: $a = "x" condition: $a at 0 }',
    'rule r { strings: $a = "x" condition: $a in (0..10) }',
    'rule r { strings: $a = "x" condition: $a matches /x/ }',
    'rule r { strings: $a = "x" condition: ($a at 0) or $a }',
    'global rule r { strings: $a = "x" condition: $a }',
    'rule r { strings: $a = "x" fullword condition: $a }',
    'rule r { strings: $a = "x" xor condition: $a }',
    'rule r { strings: $a = { 41 ( 42 | 43 ) } condition: $a }',
    'rule r { strings: $a = { 4? } condition: $a }',
    'rule r { strings: $a = /a(?i)b/ condition: $a }',
    'rule r { strings: $a = /(a)\\1/ condition: $a }',
    'rule r { strings: $a = { 90 } wide condition: $a }',
    'rule r { strings: $a = { 4D 5A } nocase condition: $a }',
    'rule r { strings: $a = /ab/ wide condition: $a }',
    'rule r { strings: $a = "x" condition: $a and entrypoint == 0 }',
    'rule r { strings: $a = "x" condition: pe_machine == 1 }',
    'rule r { strings: $a = "x" condition: true }',
    'rule r { strings: $a = "x" condition: $* }',
    'rule r { strings: $a = "x" condition: hash.md5(0, filesize) == "00" }',
])
def test_unsupported_constructs_rejected_loudly(text):
    with pytest.raises(UnsupportedConstruct) as info:
        parse_rules(text)
    # the message names the construct: a keyword after a condition is no section
    assert "section" not in str(info.value)


def regex_rule(body: str) -> str:
    return f"rule r {{ strings: $a = /{body}/ condition: $a }}"


@pytest.mark.parametrize("body", [
    "(a+)+b", "(a*)*b", "(a|a)*c", "(.*a)+", "(a|ab)*c", "(x[0-9]{2})+", "((ab)+)+",
    "(a|.b)+", "(ab|AB)*", "(a|b|ab){2,}", "(a?|b)*", "x(y(a|a))*",
])
def test_backtracking_regexes_rejected(body):
    with pytest.raises(UnsupportedConstruct, match="unbounded repeat"):
        parse_rules(regex_rule(body))


@pytest.mark.parametrize("body", [
    "ab+c", "(ab)+c", "(a|b)*c", "word[0-9]{2,4}tail[a-z]{1,3}", "(ab|cd)+x",
    "(ab?)+", "(x|[a-z])*", "(a+){2}", "a{3,}", "(ab){2,}", "(a|a)c", "(a+b)?",
])
def test_linear_regexes_accepted(body):
    assert parse_rules(regex_rule(body)).rules[0].strings[0].body == body


def test_backtracking_shapes_over_fuzz_atoms():
    # every fuzz-generated regex quantifies atoms only and parses; wrapping a
    # quantified atom or an alternation of two equal atoms in an unbounded
    # repeat is rejected
    rng = random.Random(6)
    for _ in range(200):
        body = fuzz_gen.render_regex(fuzz_gen.gen_regex(rng))
        assert parse_rules(regex_rule(body)).rules[0].strings[0].body == body
        atom = fuzz_gen.render_regex(fuzz_gen.gen_regex_atom(rng))
        for shape in ("({a}+)+", "({a}*)*z", "({a}|{a}y)*", "(q{a}+)*"):
            with pytest.raises(UnsupportedConstruct):
                parse_rules(regex_rule(shape.format(a=atom)))


def test_unsupported_is_a_parse_error():
    assert issubclass(UnsupportedConstruct, ParseError)


@pytest.mark.parametrize("condition,cls,message,col,near", [
    ('hash.sha256(0, filesize) == "abc"', ParseError,
     "sha256 digest must be 64 hex characters", 37, b"abc"),
    ('hash.md5(0, filesize) == "00"', UnsupportedConstruct,
     "hash.md5 is outside the supported subset", 14, "md5"),
    (f'hash.sha256(64, filesize) == "{"0" * 64}"', UnsupportedConstruct,
     "hash.sha256 with an offset other than 0 is outside the supported subset", 21, 64),
], ids=["bad-digest", "hash-function", "hash-offset"])
def test_hash_errors_point_at_the_checked_token(condition, cls, message, col, near):
    # the digest string, the function name and the offset are checked after
    # the parser has moved past them; the error still names their line and column
    text = f"rule r\n{{\n    condition:\n        {condition}\n}}\n"
    for parse in (parse_rules, naive_parser.parse_rules):
        with pytest.raises(cls) as info:
            parse(text)
        assert str(info.value).startswith(message)
        assert (info.value.line, info.value.column, info.value.token) == (4, col, near)


def test_string_escapes():
    rs = parse_rules(r'rule e { strings: $a = "a\n\t\r\"\\\xff" condition: $a }')
    assert rs.rules[0].strings[0].body == b'a\n\t\r"\\\xff'


@pytest.mark.parametrize("text,message", [
    ('rule r { condition: hash.sha256(0, filesize) == "\u00e9" }',
     "sha256 digest must be 64 hex characters"),
    ('rule r { condition: hash.sha256(0, filesize) == "%s\u00e9" }' % ("0" * 63),
     "sha256 digest must be 64 hex characters"),
    ('rule r { strings: $a = "ab\udcff" condition: $a }',
     r"string holds a lone surrogate '\\udcff' \(line 1, col 24\)"),
    ('rule r { strings: $a = "\\x41\ud800z" condition: $a }',
     r"string holds a lone surrogate '\\ud800' \(line 1, col 24\)"),
    ('rule r { strings: $a = "ab\udcff', "string holds a lone surrogate"),
], ids=["non-ascii-digest", "64-chars-one-non-ascii", "surrogate", "surrogate-after-escape",
        "surrogate-unclosed"])
def test_strings_that_do_not_encode_are_parse_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_rules(text)


def test_non_ascii_digest_is_a_parse_error_in_rules_check(tmp_path, capsys):
    rule = tmp_path / "digest.yar"
    rule.write_text('rule r { condition: hash.sha256(0, filesize) == "\u00e9" }\n',
                    encoding="utf-8")
    assert main(["rules", "check", str(rule)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"rule parse error: {rule}: sha256 digest must be 64 hex characters")
    assert err.count("\n") == 1


def test_encoded_surrogate_in_a_rule_file_exits_one(tmp_path, capsys):
    # a file cannot carry a lone surrogate to the parser: its UTF-8 encoding
    # is invalid UTF-8, which the rule reader refuses first
    rule = tmp_path / "surrogate.yar"
    rule.write_bytes(b'rule r { strings: $a = "ab\xed\xb3\xbf" condition: $a }\n')
    assert main(["rules", "check", str(rule)]) == 1
    assert capsys.readouterr().err == (
        f"error: {rule}: not UTF-8 text (byte 0xed: invalid continuation byte)\n")


def test_comments_ignored():
    rs = parse_rules("""
/* block
   comment */
rule c { // trailing
    strings:
        $a = "x" // another
    condition: $a /* inline */
}
""")
    assert rs.rules[0].name == "c"


def test_missing_condition_rejected():
    with pytest.raises(ParseError):
        parse_rules('rule r { strings: $a = "x" }')


def test_empty_strings_section_rejected():
    with pytest.raises(ParseError):
        parse_rules('rule r { strings: condition: filesize > 0 }')


def test_strings_section_optional():
    rs = parse_rules("rule sz { condition: filesize > 10 }")
    assert rs.rules[0].strings == ()


def layout_rule(*sections):
    return "rule r\n{\n" + "".join(f"    {s}\n" for s in sections) + "}\n"


STRINGS_A = 'strings:\n        $a = "AAA"'
CONDITION_A = "condition:\n        $a"


@pytest.mark.parametrize("parse", [parse_rules, naive_parser.parse_rules],
                         ids=["parser", "naive"])
@pytest.mark.parametrize("text,message,line,col", [
    # read as an override, the second condition would fire on any file
    (layout_rule(STRINGS_A, CONDITION_A, "condition:\n        filesize > 0"),
     "expected '}'", 7, 5),
    (layout_rule(STRINGS_A, 'strings:\n        $b = "BBB"', "condition:\n        $b"),
     "expected 'condition'", 5, 5),
    (layout_rule(CONDITION_A, STRINGS_A), "expected '}'", 5, 5),
    (layout_rule(STRINGS_A, 'meta:\n        author = "x"', CONDITION_A),
     "expected 'condition'", 5, 5),
    (layout_rule('meta:\n        author = "x"', "meta:\n        version = 2",
                 "condition:\n        filesize > 0"),
     "expected 'condition'", 5, 5),
], ids=["repeated-condition", "repeated-strings", "strings-after-condition",
        "meta-after-strings", "two-meta"])
def test_sections_come_once_in_yara_order(parse, text, message, line, col):
    # meta, strings, condition, each at most once and condition required: a
    # section out of that layout is an error at the token where it stands
    with pytest.raises(ParseError) as info:
        parse(text)
    assert type(info.value) is ParseError
    assert str(info.value).startswith(message + " (")
    assert (info.value.line, info.value.column) == (line, col)


# --- the one-regex tokenizer against the previous parser --------------------

DIFFERENTIAL_TEXTS = [FULL_RULE] + [fuzz_gen.gen_rule(random.Random(seed), f"r{seed}")[0]
                                    for seed in range(40)]
INSERTS = ['"', "/", "\\", "{", "}", "*", "$", "#", "[", "?", "\n", "/*", "//"]


def outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def mutants(text, rng):
    """Every truncation, then seeded one-character deletions and insertions."""
    yield from (text[:i] for i in range(len(text) + 1))
    for _ in range(60):
        i = rng.randrange(len(text))
        yield text[:i] + text[i + 1:]
    for _ in range(120):
        i = rng.randrange(len(text) + 1)
        yield text[:i] + rng.choice(INSERTS) + text[i:]


@pytest.mark.filterwarnings("ignore:Possible nested set:FutureWarning")
@pytest.mark.parametrize("index", range(len(DIFFERENTIAL_TEXTS)))
def test_parse_matches_previous_parser(index):
    # tests/naive_parser.py is the parser before strings, regexes and hex bodies
    # were read by one regex match each: every mutant gives an equal RuleSet
    # from both, or the same error class, message, line and column
    text = DIFFERENTIAL_TEXTS[index]
    for mutant in mutants(text, random.Random(index)):
        assert outcome(parse_rules, mutant) == outcome(naive_parser.parse_rules, mutant), mutant
