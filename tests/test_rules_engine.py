import dataclasses
import gc
import hashlib
import random
import weakref

import pytest

import fuzz_gen
import naive_rules
from sievemal.corpus import emit_allowlist, emit_rules_from_bank
from sievemal.errors import ParseError
from sievemal.rules import RuleSet, parse_rules
from sievemal.rules.engine import _FILTER_MIN_NEEDLES, compile_ruleset, scan
from sievemal.rules.model import And

# pad 0 keeps a small set on bytes.find; pad=_FILTER_MIN_NEEDLES moves every
# text search of the set onto the prefix filter
PADS = (0, _FILTER_MIN_NEEDLES)


def padding(pad: int) -> str:
    """A never-firing rule with pad case-sensitive and pad nocase text needles."""
    if not pad:
        return ""
    fill = " ".join(f'$c{i} = "\\xff\\xfe{i:04d}" $n{i} = "\\xfd{i:04d}" nocase'
                    for i in range(pad))
    return f"rule pad {{ strings: {fill} condition: all of them }}\n"


def one_rule(strings: str, condition: str, pad: int = 0):
    return parse_rules(f"rule t {{ strings: {strings} condition: {condition} }}\n"
                       + padding(pad))


def fires(rs, data: bytes) -> bool:
    return scan(data, rs).fired != ()


# --- plain text matching -----------------------------------------------------

def test_text_substring():
    for pad in PADS:
        rs = one_rule('$a = "needle"', "$a", pad)
        assert fires(rs, b"hay needle hay")
        assert not fires(rs, b"hay needl hay")
        assert fires(rs, b"needle")                  # exact
        assert fires(rs, b"needleneedle")            # adjacent


def test_text_nocase():
    for pad in PADS:
        rs = one_rule('$a = "NeeDLe" nocase', "$a", pad)
        assert fires(rs, b"xxNEEDLExx")
        assert fires(rs, b"xxneedlexx")
        rs2 = one_rule('$a = "NeeDLe"', "$a", pad)
        assert not fires(rs2, b"xxneedlexx")


def test_text_wide():
    for pad in PADS:
        wide = b"n\x00e\x00e\x00d\x00"
        rs = one_rule('$a = "need" wide', "$a", pad)
        assert fires(rs, b"xx" + wide + b"xx")
        assert not fires(rs, b"xxneedxx")            # ascii form not requested
        rs2 = one_rule('$a = "need" wide ascii', "$a", pad)
        assert fires(rs2, b"xxneedxx")
        assert fires(rs2, wide)


def test_text_wide_nocase():
    for pad in PADS:
        rs = one_rule('$a = "AB" wide nocase', "$a", pad)
        assert fires(rs, b"a\x00b\x00")
        assert fires(rs, b"A\x00B\x00")
        assert not fires(rs, b"ab")


def test_count_overlapping_text():
    for pad in PADS:
        # overlapping occurrences all count: "aaaa" contains "aa" at 0,1,2
        rs = one_rule('$a = "aa"', "#a == 3", pad)
        assert fires(rs, b"aaaa")
        assert not fires(rs, b"aaa")
        assert fires(one_rule('$x = "ab"', "#x == 2", pad), b"abab")
        # needles that overlap one another: "ushers" holds she@1, he@2 and hers@2
        rs = one_rule('$a = "he" $b = "she" $c = "his" $d = "hers"',
                      "#a == 1 and #b == 1 and #c == 0 and #d == 1", pad)
        assert fires(rs, b"ushers")


def test_variants_share_one_offset_set():
    for pad in PADS:
        # "\x00" wide ascii searches b"\x00\x00" (at 0) and b"\x00" (at 0 and 1) in
        # b"\x00\x00": two distinct offsets, so the count is 2, as in the oracle
        rs = one_rule('$a = "\\x00" wide ascii', "#a == 2", pad)
        assert fires(rs, b"\x00\x00")
        assert naive_rules.naive_scan_verdict(rs.rules[0], b"\x00\x00")


def test_empty_text_string_rejected():
    for pad in PADS:
        with pytest.raises(ParseError, match="empty text string"):
            one_rule('$a = "x" $b = ""', "$a or $b", pad)


# --- hex matching ------------------------------------------------------------

def test_hex_exact_and_wildcard():
    rs = one_rule("$h = { DE AD ?? EF }", "$h")
    assert fires(rs, b"\xde\xad\x00\xef")
    assert fires(rs, b"..\xde\xad\xff\xef..")
    assert not fires(rs, b"\xde\xad\xef")


def test_hex_jump_range():
    rs = one_rule("$h = { 41 [1-3] 42 }", "$h")
    assert fires(rs, b"A.B")
    assert fires(rs, b"A...B")
    assert not fires(rs, b"AB")
    assert not fires(rs, b"A....B")


def test_hex_counts_nonoverlapping():
    # leftmost non-overlapping: "ABAB" has {41 ?? } at 0 and 2 only
    rs = one_rule("$h = { 41 ?? }", "#h == 2")
    assert fires(rs, b"ABAB")
    assert fires(rs, b"AAAA")


# --- regex matching ----------------------------------------------------------

def test_regex_presence():
    rs = one_rule("$r = /ab+c/", "$r")
    assert fires(rs, b"xabbbcx")
    assert not fires(rs, b"xacx")


def test_regex_count_is_nonoverlapping():
    assert fires(one_rule("$r = /a+/", "#r == 1"), b"aaaa")
    assert fires(one_rule("$r = /a+/", "#r == 2"), b"aa.aa")


def test_regex_on_binary_bytes():
    rs = one_rule(r"$r = /\x00{3}/", "$r")
    assert fires(rs, b"x\x00\x00\x00x")
    assert not fires(rs, b"x\x00\x00x")


# --- condition machinery -----------------------------------------------------

def test_filesize_and_uint():
    rs = one_rule('$a = "x"', "filesize == 4 and uint16(0) == 0x5A4D and not $a")
    assert fires(rs, b"MZ\x01\x02")
    assert not fires(rs, b"MZ\x01")              # filesize miss
    assert not fires(rs, b"ZM\x01\x02")          # uint miss


def test_uint_out_of_bounds_is_false():
    rs = parse_rules("rule u { condition: uint32(100) >= 0 }")
    assert not fires(rs, b"short")
    # even a tautology fails when the read crosses the end of file
    rs2 = parse_rules("rule u { condition: uint16(4) >= 0 }")
    assert not fires(rs2, b"abcde")
    assert fires(rs2, b"abcdef")


def test_sha256_equality():
    data = b"sample body"
    digest = hashlib.sha256(data).hexdigest()
    rs = parse_rules(
        'rule h { condition: hash.sha256(0, filesize) == "%s" }' % digest,
        role="allowlist")
    assert fires(rs, data)
    assert not fires(rs, data + b"!")


def test_of_quantifiers():
    strings = '$a = "aaa" $b = "bbb" $c = "ccc"'
    assert fires(one_rule(strings, "any of them"), b"..bbb..")
    assert not fires(one_rule(strings, "2 of them"), b"..bbb..")
    assert fires(one_rule(strings, "2 of them"), b"aaa bbb")
    assert fires(one_rule(strings, "all of ($a, $c)"), b"cccaaa")
    assert not fires(one_rule(strings, "all of them"), b"cccaaa")


def test_result_reports_all_fired_rules():
    rs = parse_rules("""
rule one { strings: $a = "foo" condition: $a }
rule two { strings: $a = "bar" condition: $a }
rule three { strings: $a = "zzz" condition: $a }
""")
    res = scan(b"foo bar", rs)
    assert res.verdict
    assert res.rule_names == ("one", "two")
    empty = scan(b"nothing", rs)
    assert not empty.verdict and empty.rule_names == ()


# --- the digest index for hash-only rules -----------------------------------

def evaluated_one_by_one(rs):
    """rs with every condition wrapped in a one-item `and`: the same rules, but
    none is hash-only, so a scan evaluates each of them in turn, as every scan
    did before hash-only rules were looked up by digest."""
    return RuleSet(rules=tuple(dataclasses.replace(r, condition=And((r.condition,)))
                               for r in rs.rules), role=rs.role)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hash_rule(name: str, digest: str) -> str:
    return f'rule {name} {{ condition: hash.sha256(0, filesize) == "{digest}" }}\n'


def assert_same_as_evaluated(rs, data, asts=None):
    got = scan(data, rs)
    assert got == scan(data, evaluated_one_by_one(rs))
    want = tuple(r.name for r in rs.rules
                 if naive_rules.naive_scan_verdict(r, data, asts or {}))
    assert got.rule_names == want
    return got.rule_names


def test_digest_index_holds_only_hash_only_rules():
    a, b, c = b"first file with text", b"second file", b"third"
    rs = parse_rules(
        hash_rule("h_a", sha(a))
        + 'rule t1 { strings: $a = "text" condition: $a }\n'
        + hash_rule("h_b", sha(b).upper())
        + hash_rule("h_a_again", sha(a))
        + f'rule both {{ strings: $a = "text" '
          f'condition: $a and hash.sha256(0, filesize) == "{sha(a)}" }}\n'
        + f'rule not_b {{ condition: not hash.sha256(0, filesize) == "{sha(b)}" }}\n'
        + 'rule t2 { strings: $x = "file" condition: $x }\n'
        + hash_rule("h_none", "0" * 64),
        role="allowlist")
    compiled = compile_ruleset(rs)
    assert {d: [r.name for _, r in entries] for d, entries in compiled.by_digest.items()} == {
        sha(a): ["h_a", "h_a_again"], sha(b): ["h_b"], "0" * 64: ["h_none"]}
    assert [r.name for _, r in compiled.evaluated] == ["t1", "both", "not_b", "t2"]

    assert assert_same_as_evaluated(rs, a) == ("h_a", "t1", "h_a_again", "both", "not_b", "t2")
    assert assert_same_as_evaluated(rs, b) == ("h_b", "t2")
    assert assert_same_as_evaluated(rs, c) == ("not_b",)
    assert assert_same_as_evaluated(rs, a + b"!") == ("t1", "not_b", "t2")
    assert scan(a, rs).fired[0] == ("h_a", {})


def test_digest_index_fuzz_against_the_evaluated_path():
    rng = random.Random(8)
    blobs = [bytes(rng.randrange(97, 101) for _ in range(rng.randint(0, 12))) for _ in range(6)]
    for case in range(150):
        chunks = []
        for i in range(rng.randint(1, 12)):
            digest = sha(rng.choice(blobs)) if rng.random() < 0.8 else sha(b"%d" % i)
            needle = bytes(rng.randrange(97, 101) for _ in range(2)).decode()
            kind = rng.randrange(5)
            if kind <= 1:
                chunks.append(hash_rule(f"r{i}", digest))
            elif kind == 2:
                chunks.append(f'rule r{i} {{ strings: $a = "{needle}" condition: $a }}\n')
            elif kind == 3:
                chunks.append(f'rule r{i} {{ strings: $a = "{needle}" condition: '
                              f'$a and hash.sha256(0, filesize) == "{digest}" }}\n')
            else:
                chunks.append(f'rule r{i} {{ condition: '
                              f'not hash.sha256(0, filesize) == "{digest}" }}\n')
        rs = parse_rules("".join(chunks))
        for data in (rng.choice(blobs), rng.choice(blobs) + rng.choice(blobs)):
            assert_same_as_evaluated(rs, data)


def test_digest_index_on_every_seed0_file(default_corpus):
    spec, manifest = default_corpus
    allow = parse_rules(emit_allowlist(manifest), role="allowlist")
    block = parse_rules(emit_rules_from_bank(spec))
    assert len(compile_ruleset(allow).by_digest) == len(allow.rules)
    references = [(rs, evaluated_one_by_one(rs)) for rs in (allow, block)]
    fired = 0
    for rec in manifest.records:
        with open(rec.path, "rb") as fh:
            raw = fh.read()
        for rs, reference in references:
            got = scan(raw, rs).fired
            assert got == scan(raw, reference).fired, rec.path
            fired += bool(got)
    assert fired > len(allow.rules)


# --- many-pattern path -------------------------------------------------------

def test_padding_selects_the_search():
    for pad in PADS:
        rs = one_rule('$a = "x" $b = "y" nocase', "$a or $b", pad)
        indexes = [index for index, _ in compile_ruleset(rs)._text]
        assert [index._groups is not None for index in indexes] == [bool(pad)] * 2


def test_many_needle_path_agrees_with_bruteforce():
    for pad in PADS:
        rng = random.Random(42)
        bodies = [bytes(rng.randrange(65, 91) for _ in range(rng.randint(2, 5)))
                  for _ in range(40)]
        strings = " ".join(f'$p{i} = "{b.decode()}"' for i, b in enumerate(bodies))
        rs = one_rule(strings, "any of them", pad)
        for trial in range(50):
            data = bytes(rng.randrange(60, 96) for _ in range(300))
            want = any(b in data for b in bodies)
            assert fires(rs, data) == want, f"pad {pad} trial {trial}"


def test_many_needle_counts_agree_with_bruteforce():
    for pad in PADS:
        rng = random.Random(9)
        bodies = [bytes([rng.randrange(65, 68)]) * rng.randint(1, 3) for _ in range(33)]
        strings = " ".join(f'$p{i} = "{b.decode()}"' for i, b in enumerate(bodies))
        conds = " and ".join(
            f"#p{i} == {{}}" for i in range(len(bodies)))
        data = bytes(rng.randrange(64, 70) for _ in range(200))
        counts = [sum(1 for j in range(len(data) - len(b) + 1) if data[j:j + len(b)] == b)
                  for b in bodies]
        rs = one_rule(strings, conds.format(*counts), pad)
        assert fires(rs, data)


# --- seeded differential fuzz against the naive interpreter ------------------

def test_fuzz_against_naive_interpreter():
    rng = random.Random(20260825)
    for case in range(120):
        text, regex_asts, witnesses = fuzz_gen.gen_rule(rng, f"fz{case}")
        rs = parse_rules(text)
        rule = rs.rules[0]
        for _ in range(2):
            data = fuzz_gen.gen_data(rng, witnesses)
            got = scan(data, rs).verdict
            want = naive_rules.naive_scan_verdict(rule, data, regex_asts)
            assert got == want, f"case {case}\n{text}\ndata={data.hex()}"


def test_many_rule_fuzz_against_naive_interpreter():
    # 40 rules in one set share the text search; each must fire as it does alone
    for pad in PADS:
        rng = random.Random(20261018)
        gens = [fuzz_gen.gen_rule(rng, f"fz{i}") for i in range(40)]
        rs = parse_rules("".join(text for text, _, _ in gens) + padding(pad))
        witnesses = [w for _, _, ws in gens for w in ws]
        for trial in range(15):
            data = fuzz_gen.gen_data(rng, witnesses)
            got = scan(data, rs).rule_names
            want = tuple(rule.name for rule, (_, asts, _) in zip(rs.rules, gens)
                         if naive_rules.naive_scan_verdict(rule, data, asts))
            assert got == want, f"pad {pad} trial {trial}\ndata={data.hex()}"


def test_empty_ruleset_never_fires():
    rs = parse_rules("")
    assert rs.rules == ()
    assert not scan(b"anything", rs).verdict


def test_compiled_form_lives_as_long_as_its_ruleset():
    rs = one_rule('$a = "needle"', "$a")
    scan(b"needle", rs)
    assert compile_ruleset(rs) is compile_ruleset(rs)   # compiled once per set
    ref = weakref.ref(rs)
    del rs
    gc.collect()
    assert ref() is None
