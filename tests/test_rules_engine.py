import gc
import hashlib
import importlib.util
import pathlib
import random
import re
import signal
import time
import weakref

import pytest

import fuzz_gen
import naive_engine
import naive_rules
from sievemal.corpus import emit_allowlist, emit_rules_from_bank
from sievemal.errors import ParseError
from sievemal.rules import RuleSet, parse_rules
from sievemal.rules import engine
from sievemal.rules.model import And
from sievemal.rules.engine import _FILTER_MIN_NEEDLES, compile_ruleset, scan

DECOYS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "decoys.py"


@pytest.fixture(scope="module")
def perfbench_decoys():
    """The benchmark's seeded decoy rules, loaded read-only from outside the package."""
    spec = importlib.util.spec_from_file_location("perfbench_decoys", DECOYS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hash_rule(name: str, digest: str) -> str:
    return f'rule {name} {{ condition: hash.sha256(0, filesize) == "{digest}" }}\n'


def assert_same_as_evaluated(rs, data, asts=None):
    got = scan(data, rs)
    assert got == naive_engine.scan(data, rs)
    want = tuple(r.name for r in rs.rules
                 if naive_rules.naive_scan_verdict(r, data, asts or {}))
    assert got.rule_names == want
    return got.rule_names


def sized_rule(name: str, size: int, digest: str, hash_first: bool = False) -> str:
    conjuncts = [f"filesize == {size}", f'hash.sha256(0, filesize) == "{digest}"']
    condition = " and ".join(conjuncts[::-1] if hash_first else conjuncts)
    return f"rule {name} {{ condition: {condition} }}\n"


def test_digest_index_holds_only_hash_only_rules():
    a, b, c = b"first file with text", b"second file", b"third"
    rs = parse_rules(
        hash_rule("h_a", sha(a))
        + 'rule t1 { strings: $a = "text" condition: $a }\n'
        + hash_rule("h_b", sha(b).upper())
        + sized_rule("s_a", len(a), sha(a))
        + hash_rule("h_a_again", sha(a))
        + sized_rule("s_a_hash_first", len(a), sha(a), hash_first=True)
        + f'rule both {{ strings: $a = "text" '
          f'condition: $a and hash.sha256(0, filesize) == "{sha(a)}" }}\n'
        + f'rule not_b {{ condition: not hash.sha256(0, filesize) == "{sha(b)}" }}\n'
        + sized_rule("s_a_wrong_size", len(a) + 1, sha(a))
        + f'rule s_ne {{ condition: filesize != 3 and hash.sha256(0, filesize) == "{sha(a)}" }}\n'
        + f'rule s_three {{ condition: filesize == {len(a)} and filesize > 0 and '
          f'hash.sha256(0, filesize) == "{sha(a)}" }}\n'
        + 'rule t2 { strings: $x = "file" condition: $x }\n'
        + sized_rule("s_c", len(c), sha(c), hash_first=True)
        + hash_rule("h_none", "0" * 64),
        role="allowlist")
    compiled = compile_ruleset(rs)
    # bare hash rules name no size; a `filesize == N` conjunct in either order names N
    assert {d: [(r.name, size) for _, r, size in entries]
            for d, entries in compiled.by_digest.items()} == {
        sha(a): [("h_a", None), ("s_a", len(a)), ("h_a_again", None),
                 ("s_a_hash_first", len(a)), ("s_a_wrong_size", len(a) + 1)],
        sha(b): [("h_b", None)], sha(c): [("s_c", len(c))], "0" * 64: [("h_none", None)]}
    assert [rs.rules[pos].name for pos in compiled.always] == ["not_b", "s_ne", "s_three"]

    assert assert_same_as_evaluated(rs, a) == (
        "h_a", "t1", "s_a", "h_a_again", "s_a_hash_first", "both", "not_b", "s_ne", "s_three",
        "t2")
    assert assert_same_as_evaluated(rs, b) == ("h_b", "t2")
    assert assert_same_as_evaluated(rs, c) == ("not_b", "s_c")
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


def test_a_hash_only_ruleset_scans_as_one_digest_lookup(monkeypatch):
    """A ruleset of hash-only rules alone is scanned without a pattern search,
    an evaluation context or the rule loop, and gives the evaluated path's
    MatchResult: rules in rule order, a digest that two rules share included."""
    a, b, c = b"first file", b"second file", b"third file"
    rulesets = [
        parse_rules(hash_rule("h_a", sha(a)) + hash_rule("h_b", sha(b).upper())
                    + hash_rule("h_a_again", sha(a)) + hash_rule("h_none", "0" * 64),
                    role="allowlist"),
        parse_rules(hash_rule("h_b", sha(b))),
    ]
    want = {(i, data): naive_engine.scan(data, rs)
            for i, rs in enumerate(rulesets) for data in (a, b, c, b"")}

    def unreachable(*args, **kwargs):
        raise AssertionError("a hash-only scan searched or evaluated")

    monkeypatch.setattr(engine, "_EvalContext", unreachable)
    monkeypatch.setattr(engine, "_eval", unreachable)
    monkeypatch.setattr(engine.CompiledRuleSet, "_hits", unreachable)
    for (i, data), result in want.items():
        assert scan(data, rulesets[i]) == result
    assert scan(a, rulesets[0]).rule_names == ("h_a", "h_a_again")
    assert scan(b, rulesets[0]).rule_names == ("h_b",)
    assert not scan(c, rulesets[0]).verdict and scan(b, rulesets[1]).verdict


class CountingHashlib:
    """Stands in for the engine module's hashlib and counts its sha256 calls."""

    def __init__(self):
        self.calls = 0

    def sha256(self, data):
        self.calls += 1
        return hashlib.sha256(data)


def test_a_scan_hashes_only_data_of_a_named_size(monkeypatch):
    """A scan computes no sha256 for data whose length no sized hash rule
    names, and exactly one when the length matches or the set holds a bare
    hash rule, on the digest-only path and on the evaluated one alike."""
    a, b = b"first file", b"the second file"
    same_size = b"first fil!"
    sized = sized_rule("s_a", len(a), sha(a)) + sized_rule("s_b", len(b), sha(b), hash_first=True)
    text = 'rule t { strings: $t = "file" condition: $t }\n'
    counter = CountingHashlib()
    monkeypatch.setattr(engine, "hashlib", counter)
    cases = [
        # (rules, data, sha256 calls, fired)
        (sized, b"unnamed size", 0, ()),
        (sized, a, 1, ("s_a",)),
        (sized, same_size, 1, ()),
        (sized + text, b"unnamed file", 0, ("t",)),
        (sized + text, b, 1, ("s_b", "t")),
        (sized + hash_rule("h", sha(b"unnamed size")), b"unnamed size", 1, ("h",)),
        (sized + text + hash_rule("h", "0" * 64), b"unnamed file", 1, ("t",)),
        # an evaluated hash equality and the index share one digest
        (sized + f'rule e {{ strings: $t = "file" condition: $t and '
                 f'hash.sha256(0, filesize) == "{sha(a)}" }}\n', a, 1, ("s_a", "e")),
    ]
    for rules, data, calls, fired in cases:
        rs = parse_rules(rules, role="allowlist")
        counter.calls = 0
        got = scan(data, rs)
        assert (counter.calls, got.rule_names) == (calls, fired), (rules, data)
        assert got == naive_engine.scan(data, rs)
    assert compile_ruleset(parse_rules(sized))._digest_only


def test_a_size_that_disagrees_with_its_digest_never_fires():
    rng = random.Random(5)
    for n in (0, 1, 2, 17, 300):
        data = bytes(rng.randrange(256) for _ in range(n))
        wrong = [size for size in (n - 1, n + 1, 2 * n + 5) if size >= 0]
        rules = "".join(sized_rule(f"w{i}", size, sha(data), hash_first=bool(i % 2))
                        for i, size in enumerate(wrong))
        rs = parse_rules(rules + sized_rule("right", n, sha(data)), role="allowlist")
        for probe in (data, data + b"\x00", data[:-1], bytes(n + 1), bytes(2 * n + 5)):
            assert scan(probe, rs) == naive_engine.scan(probe, rs)
            assert scan(probe, rs).rule_names == (("right",) if probe == data else ())


def test_sized_hash_rules_fuzz_against_the_oracle():
    """Bare and sized hash rules, N the length of a fuzzed file, one less or
    one more, mixed with the generator's other rules, scan as the naive
    interpreter does: on the file, on one a byte shorter and one a byte
    longer, on the digest-only path and the evaluated one."""
    rng = random.Random(20261020)
    digest_only, fired, sized_fired = set(), 0, 0
    for case in range(150):
        gens = [fuzz_gen.gen_rule(rng, f"fz{i}") for i in range(rng.choice((0, 0, 1, 3)))]
        witnesses = [w for _, _, ws in gens for w in ws]
        files = [fuzz_gen.gen_data(rng, witnesses) for _ in range(3)]
        rules = [text for text, _, _ in gens] + [
            fuzz_gen.gen_hash_rule(rng, f"h{i}", rng.choice(files), files)
            for i in range(rng.randint(1, 6))]
        rng.shuffle(rules)
        text = "".join(rules) + padding(rng.choice(PADS))
        rs = parse_rules(text, role="allowlist")
        digest_only.add(compile_ruleset(rs)._digest_only)
        sized = {r.name for r in rs.rules if r.name[0] == "h" and type(r.condition) is And}
        reference = naive_engine.NaiveRuleSet(rs)
        for data in files + [files[0][:-1], files[0] + b"\x00"]:
            with fuzz_gen.deadline(f"seed 20261020, case {case}\n{text}"):
                got = scan(data, rs)
                want = reference.scan(data)
            assert got == want, f"case {case}\n{text}\ndata={data.hex()}"
            fired += len(got.fired)
            sized_fired += sum(1 for name, _ in got.fired if name in sized)
    assert digest_only == {False, True} and fired > 300 and sized_fired > 80


def test_every_seed0_file_matches_the_oracle(default_corpus, perfbench_decoys):
    # the triage rule sets: the allowlist, the bank, and the bank plus the
    # 2,000 decoys; whole MatchResults (names, offsets, order) must be equal
    spec, manifest = default_corpus
    allow = parse_rules(emit_allowlist(manifest), role="allowlist")
    bank_text = emit_rules_from_bank(spec)
    block = parse_rules(bank_text)
    triage = parse_rules(bank_text + "\n"
                         + perfbench_decoys.source(perfbench_decoys.decoys(0, 2000)))
    assert len(compile_ruleset(allow).by_digest) == len(allow.rules)
    assert len(triage.rules) == 2008 and not compile_ruleset(triage).always
    references = [(rs, naive_engine.NaiveRuleSet(rs)) for rs in (allow, block, triage)]
    fired = [0, 0, 0]
    for rec in manifest.records:
        with open(rec.path, "rb") as fh:
            raw = fh.read()
        for i, (rs, reference) in enumerate(references):
            got = scan(raw, rs)
            assert got == reference.scan(raw), rec.path
            fired[i] += got.verdict
    assert fired[0] == len(allow.rules) and fired[1] > 0 and fired[2] == fired[1]


# --- candidate-only evaluation ---------------------------------------------

# conditions that can hold with no pattern hit, and conditions that need one;
# {a} and {b} are pattern ids, {n} a file size
HITLESS = ("not {a}", "#{a_} == 0", "#{a_} <= 1", "0 of them", "filesize < {n}",
           "uint16(0) == 0x4241", "{a} or filesize < {n}", "not ({a} and {b})",
           "not {a} and filesize < {n}", "({a} or {b}) or uint8(1) != 66")
NEEDS_HIT = ("{a}", "any of them", "all of them", "#{a_} >= 2", "{a} and {b}",
             "1 of ({a}, {b})", "{a} and filesize < {n}", "{a} or {b}",
             "#{a_} != 0 and not {b}", "all of them and not {a}")


def gen_hex(rng, prefix: int):
    """Hex items over a 3-byte alphabet with exactly `prefix` leading fixed bytes."""
    items = [("byte", rng.randrange(65, 68)) for _ in range(prefix)]
    items.append(rng.choice([("any",), ("jump", 0, rng.randint(0, 2))]))
    items += [("byte", rng.randrange(65, 68)) for _ in range(rng.randint(1, 2))]
    return tuple(items)


MIXED_CASE = b"ABCabc"


def gen_candidate_ruleset(rng, pad: int):
    """Rule text plus witnesses to plant. Text needles and literal-led regexes
    mix cases, and half their witnesses are planted in the other case."""
    chunks, witnesses = [], []

    def plant(witness):
        witnesses.append(witness.swapcase() if rng.random() < 0.5 else witness)

    for r in range(rng.randint(1, 8)):
        patterns = []
        for i in range(rng.randint(2, 3)):
            kind = rng.choice(("text", "text", "hex", "regex", "literal-led regex"))
            if kind == "text":
                body = bytes(rng.choice(MIXED_CASE) for _ in range(rng.randint(2, 4)))
                mods = rng.choice(("", "nocase", "wide", "wide ascii", "wide nocase"))
                patterns.append(f'$p{i} = "{body.decode()}" {mods}')
                plant(body)
                if "wide" in mods:
                    plant(b"".join(bytes([c, 0]) for c in body))
            elif kind == "hex":
                items = gen_hex(rng, rng.choice((0, 1, 4, 6)))
                patterns.append(f"$p{i} = {fuzz_gen.render_hex(items)}")
                witnesses.append(fuzz_gen.hex_witness(rng, items))
            elif kind == "regex":
                ast = fuzz_gen.gen_regex(rng)
                patterns.append(f"$p{i} = /{fuzz_gen.render_regex(ast)}/")
                witnesses.append(fuzz_gen.regex_witness(rng, ast))
            else:   # a lead of 4 or more literals gates the regex on the prefix filter
                lead = bytes(rng.choice(MIXED_CASE) for _ in range(rng.randint(1, 6)))
                ast = fuzz_gen.gen_regex(rng)
                mods = rng.choice(("", "nocase"))
                patterns.append(f"$p{i} = /{lead.decode()}{fuzz_gen.render_regex(ast)}/ {mods}")
                plant(lead + fuzz_gen.regex_witness(rng, ast))
        a, b = rng.sample(range(len(patterns)), 2)
        condition = rng.choice(rng.choice((HITLESS, NEEDS_HIT))).format(
            a=f"$p{a}", a_=f"p{a}", b=f"$p{b}", n=rng.randint(0, 400))
        chunks.append(f"rule r{r} {{ strings: {' '.join(patterns)} condition: {condition} }}\n")
    return "".join(chunks) + padding(pad), witnesses


def test_seeded_rulesets_match_the_oracle():
    rng = random.Random(20261018)
    filters = set()
    fired = hitless_fired = gated = 0
    for case in range(160):
        text, witnesses = gen_candidate_ruleset(rng, rng.choice(PADS))
        rs = parse_rules(text)
        compiled = compile_ruleset(rs)
        filters.add(compiled._index._groups is not None)
        gated += len(compiled.gated)
        reference = naive_engine.NaiveRuleSet(rs)
        blobs = (b"", b"BA" + bytes(rng.randrange(256) for _ in range(60)),
                 fuzz_gen.gen_data(rng, []), fuzz_gen.gen_data(rng, witnesses),
                 bytes(rng.randrange(65, 69) for _ in range(300)),
                 bytes(rng.choice(MIXED_CASE) for _ in range(300)))
        for data in blobs:
            with fuzz_gen.deadline(f"seed 20261018, case {case}\n{text}"):
                got = scan(data, rs)
                want = reference.scan(data)
            assert got == want, f"case {case}\n{text}\ndata={data.hex()}"
            fired += len(got.fired)
            hitless_fired += sum(1 for name, offsets in got.fired
                                 if not any(offsets.values()))
    # both text searches ran, gates were set, and both kinds of candidate fired
    assert filters == {False, True} and gated > 50
    assert fired > 500 and hitless_fired > 100


def test_needs_hit_truth_table():
    cases = {
        "$a": True, "#a == 0": False, "#a == 1": True, "#a != 0": True,
        "#a != 1": False, "#a < 1": False, "#a < 0": True, "#a <= 1": False,
        "#a > 0": True, "#a >= 1": True, "#a >= 0": False,
        "any of them": True, "all of them": True, "all of ($a)": True,
        "1 of them": True, "2 of ($a, $b)": True, "0 of them": False,
        "filesize < 10": False, "uint16(0) == 0x5A4D": False,
        "not $a": False, "not not $a": False,
        f'hash.sha256(0, filesize) == "{"0" * 64}"': False,
        "$a and filesize < 10": True, "filesize < 10 and not $a": False,
        "$a or $b": True, "$a or filesize < 10": False, "#a == 0 or $b": False,
        "($a or $b) and not $a": True, "($a and #b == 0) or any of them": True,
    }
    for condition, want in cases.items():
        rule = one_rule('$a = "xy" $b = { 41 ?? 42 }', condition).rules[0]
        assert engine._needs_hit(rule.condition, len(rule.strings)) is want, condition
        if want:   # sound: false on data of every size with no hit
            for data in (b"", b"MZ" + b"\x00" * 30, b"q" * 500):
                ctx = engine._EvalContext(data)
                assert not engine._eval(rule.condition, {"$a": (), "$b": ()}, ctx), condition
    # with no strings, "all of them" holds and "any of them" never does
    rules = parse_rules("rule e1 { condition: all of them }\n"
                        "rule e2 { condition: any of them }\n").rules
    assert [engine._needs_hit(r.condition, 0) for r in rules] == [False, True]
    assert scan(b"data", RuleSet(rules=rules)).rule_names == ("e1",)


@pytest.fixture
def regex_runs(monkeypatch):
    """The PatternDef of every hex or regex pattern whose regex a scan runs, in
    run order, for rule sets compiled after the fixture is set up."""
    runs = []
    pattern_regex = engine._pattern_regex

    class CountingRegex:
        def __init__(self, p):
            self.pattern, self.regex = p, pattern_regex(p)

        def finditer(self, data):
            runs.append(self.pattern)
            return self.regex.finditer(data)

    monkeypatch.setattr(engine, "_pattern_regex", CountingRegex)
    return runs


# pattern, its matches in FREQUENT, and the first offset of its gate in
# FREQUENT: None when the gate is absent, "ungated" when its fixed prefix is
# shorter than the 4 bytes a gate needs
FREQUENT = (b"\x00" * 5 + b"AB") * 1000 + b"\x00" * 1000
FREQUENT_GATES = (
    ("{ 00 00 00 00 ?? 41 }", 1000, 0),
    ("/\\x00\\x00\\x00\\x00AB/", 1000, 1),
    ("/\\x00\\x00\\x00\\x00ab/ nocase", 1000, 1),
    ("{ 00 00 00 00 00 00 }", 166, 7000),
    ("{ 00 00 00 00 43 }", 0, None),
    ("{ 00 ?? 41 }", 1000, "ungated"),
)


def test_frequent_gate_runs_its_regex_once(regex_runs):
    for pad in PADS:
        for pattern, count, first in FREQUENT_GATES:
            rs = one_rule(f"$h = {pattern}", f"#h == {count}", pad)
            regex_runs.clear()
            got = scan(FREQUENT, rs)
            assert got == naive_engine.scan(FREQUENT, rs) and got.verdict, pattern
            # gated behind the prefix filter only: there the gate occurs
            # thousands of times or not at all, and the search reports its
            # first occurrence only
            assert len(regex_runs) == (not pad or first is not None), (pad, pattern)
            if pad:
                found = [offsets for _, offsets in compile_ruleset(rs)._index.find_all(FREQUENT)]
                assert found == ([[first]] if isinstance(first, int) else []), pattern


def test_once_needles_report_their_first_occurrence():
    hay = b"aBc" * 100
    # case-sensitive "aB", "ca", "Bc" and "bc", and "bc" in the lowercased hay
    needles = [b"aB", b"bc", b"ca", b"Bc", b"bc"]
    folded = [False, True, False, False, False]
    pad = [b"\xff%d" % i for i in range(_FILTER_MIN_NEEDLES)]
    for index in (engine._TextIndex(needles, folded, frozenset({1})),
                  engine._TextIndex(needles + pad, folded + [False] * len(pad),
                                    frozenset({1}))):
        found = sorted(index.find_all(hay))
        assert found == [(0, list(range(0, len(hay), 3))), (1, [1]),
                         (2, list(range(2, len(hay) - 1, 3))),
                         (3, list(range(1, len(hay), 3)))]


def test_no_hit_evaluates_no_rule_that_needs_one(monkeypatch, regex_runs, unit_corpus,
                                                 unit_spec, perfbench_decoys):
    # counted, not timed: on a file where no pattern hits, the 2,008 rules of the
    # triage blocklist cost no condition walk and no regex run: every hex and
    # regex pattern in it starts with at least 4 fixed bytes and is gated on them
    rs = parse_rules(emit_rules_from_bank(unit_spec) + "\n"
                     + perfbench_decoys.source(perfbench_decoys.decoys(0, 2000))
                     + 'rule hitless { strings: $a = "mal_beacon" condition: not $a }\n')
    compiled = compile_ruleset(rs)
    assert compiled.always == [len(rs.rules) - 1]
    patterns = [p for rule in rs.rules for p in rule.strings if p.kind != "text"]
    assert sum(p.kind == "hex" for p in patterns) > 100
    assert sum(p.kind == "regex" for p in patterns) > 10
    assert len(compiled.gated) == len(patterns) and not compiled.regexes

    evaluated = []
    eval_ = engine._eval
    monkeypatch.setattr(engine, "_eval", lambda node, offsets, ctx: (
        evaluated.append(id(node)), eval_(node, offsets, ctx))[1])
    rec = next(r for r in unit_corpus.records if r.label == 0 and not r.allowlisted)
    with open(rec.path, "rb") as fh:
        raw = fh.read()
    reference = naive_engine.NaiveRuleSet(rs)
    assert reference.text_offsets(raw) == {}
    assert not any(regex.search(raw) for regex in reference.regexes.values())

    evaluated.clear()
    regex_runs.clear()
    assert scan(raw, rs).rule_names == ("hitless",)
    condition = rs.rules[-1].condition
    assert evaluated == [id(condition), id(condition.item)]
    assert regex_runs == []


def test_hostile_input_costs_a_fixed_number_of_finds(monkeypatch, regex_runs,
                                                     perfbench_decoys):
    # counted, not timed: over 16 KB and 64 KB of zeros, or of one gate repeated,
    # the triage decoys plus a 1-byte-led hex pattern and a regex gated on the
    # repeated prefix cost the same bytes.find confirmations and regex runs,
    # however often the prefixes occur
    decoys = perfbench_decoys.decoys(0, 2000)
    word = re.search(r"/([a-z]{8})", next(text for kind, text in decoys
                                            if kind == "regex")).group(1).encode()
    rs = parse_rules(perfbench_decoys.source(decoys)
                     + "rule hostile { strings: $h = { 00 ?? 41 42 } "
                     + f"$r = /{word.decode()}[0-9a-z]{{0,64}}!/ condition: any of them }}\n")
    reference = naive_engine.NaiveRuleSet(rs)
    finds = []
    occurrences = engine._occurrences
    monkeypatch.setattr(engine, "_occurrences", lambda hay, needle, *args: (
        finds.append(needle), occurrences(hay, needle, *args))[1])
    for unit in (b"\x00", word):
        counts = set()
        for size in (16 << 10, 64 << 10):
            data = unit * (size // len(unit))
            finds.clear()
            regex_runs.clear()
            got = scan(data, rs)
            assert got == reference.scan(data) and not got.verdict
            counts.add((len(finds), len(regex_runs)))
        # one find for the gate that the decoy regex and $r share, and one run
        # each of them and of the ungated $h
        assert counts == ({(0, 1)} if unit == b"\x00" else {(1, 3)}), unit


# --- many-pattern path -------------------------------------------------------

def test_padding_selects_the_search():
    for pad in PADS:
        rs = one_rule('$a = "x" $b = "y" nocase', "$a or $b", pad)
        assert (compile_ruleset(rs)._index._groups is not None) == bool(pad)


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
            with fuzz_gen.deadline(f"seed 20260825, case {case}\n{text}"):
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
            with fuzz_gen.deadline(f"seed 20261018, pad {pad}, trial {trial}\n"
                                   + "".join(text for text, _, _ in gens)):
                got = scan(data, rs).rule_names
                want = tuple(rule.name for rule, (_, asts, _) in zip(rs.rules, gens)
                             if naive_rules.naive_scan_verdict(rule, data, asts))
            assert got == want, f"pad {pad} trial {trial}\ndata={data.hex()}"


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="the deadline needs SIGALRM")
def test_a_stalled_fuzz_scan_fails_with_its_case():
    """A fuzz case whose regex backtracks for minutes (ROADMAP item 5: the
    parser accepts three unbounded repeats before a group that never matches)
    fails at its deadline, naming its case, and leaves no timer behind."""
    rs = one_rule("$r = /.+.*2?.*(.?5r[1cn]|[09m].[48j]l+[46g])/", "$r")
    start = time.perf_counter()
    with pytest.raises(AssertionError, match="seed 1, rule 7"):
        with fuzz_gen.deadline("seed 1, rule 7", seconds=0.2):
            scan(bytes(1 << 16), rs)
    assert time.perf_counter() - start < 10
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


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
