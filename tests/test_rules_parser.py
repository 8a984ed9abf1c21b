import random

import pytest

import fuzz_gen

from sievemal.errors import ParseError, UnsupportedConstruct
from sievemal.rules import RuleSet, parse_rules
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


def test_hex_jump_bounds():
    with pytest.raises(ParseError):
        parse_rules('rule r { strings: $a = { 90 [5000] 90 } condition: $a }')
    with pytest.raises(ParseError):
        parse_rules('rule r { strings: $a = { 90 [5-2] 90 } condition: $a }')


@pytest.mark.parametrize("text", [
    'import "pe"\nrule r { condition: filesize > 0 }',
    'rule r { strings: $a = "x" condition: for all i in (1..2) : ( $a ) }',
    'rule r { strings: $a = "x" condition: $a at 0 }',
    'global rule r { strings: $a = "x" condition: $a }',
    'rule r { strings: $a = "x" fullword condition: $a }',
    'rule r { strings: $a = "x" xor condition: $a }',
    'rule r { strings: $a = { 41 ( 42 | 43 ) } condition: $a }',
    'rule r { strings: $a = { 4? } condition: $a }',
    'rule r { strings: $a = /a(?i)b/ condition: $a }',
    'rule r { strings: $a = /(a)\\1/ condition: $a }',
    'rule r { strings: $a = { 90 } wide condition: $a }',
    'rule r { strings: $a = /ab/ wide condition: $a }',
    'rule r { strings: $a = "x" condition: $a and entrypoint == 0 }',
    'rule r { strings: $a = "x" condition: pe_machine == 1 }',
    'rule r { strings: $a = "x" condition: true }',
    'rule r { strings: $a = "x" condition: $* }',
    'rule r { strings: $a = "x" condition: hash.md5(0, filesize) == "00" }',
])
def test_unsupported_constructs_rejected_loudly(text):
    with pytest.raises(UnsupportedConstruct):
        parse_rules(text)


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


def test_string_escapes():
    rs = parse_rules(r'rule e { strings: $a = "a\n\t\r\"\\\xff" condition: $a }')
    assert rs.rules[0].strings[0].body == b'a\n\t\r"\\\xff'


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
