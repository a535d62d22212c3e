import json
import random
import re
from pathlib import Path

import pytest

from asmsieve.corpus import (
    AssemblyFunction,
    build_pairs,
    canonical_arch,
    corpus_line,
    filter_short,
    instruction_body,
    load_corpus,
    load_pairs,
    parse_listing,
    save_corpus,
    save_pairs,
    truncate,
)
from asmsieve.errors import ConfigurationError, ListingParseError

DATA = Path(__file__).parent / "data"


def make_fn(symbol="f", arch="x86-64", opt="O0", n=5, library="lib", fid=None):
    return AssemblyFunction(
        id=fid or f"{library}/{symbol}@{arch}/{opt}",
        library=library,
        source_symbol=symbol,
        arch=arch,
        opt_level=opt,
        instructions=tuple(f"mov eax, {i}" for i in range(n)),
    )


class TestParseListing:
    def test_two_blocks(self):
        text = "; FUNCTION alpha\nmov eax, 1\nret\n; FUNCTION beta\nxor eax, eax\nret\n"
        fns = parse_listing(text, library="lib", arch="x86-64", opt_level="O0")
        assert [fn.source_symbol for fn in fns] == ["alpha", "beta"]
        assert fns[0].instructions == ("mov eax, 1", "ret")

    def test_instruction_before_header_fails(self):
        text = "mov eax, 1\n; FUNCTION alpha\nret\n"
        with pytest.raises(ListingParseError) as excinfo:
            parse_listing(text, library="lib", arch="x86-64", opt_level="O0")
        assert excinfo.value.line_number == 1

    def test_header_without_symbol_fails(self):
        text = "; FUNCTION alpha\nret\n; FUNCTION\nret\n"
        with pytest.raises(ListingParseError) as excinfo:
            parse_listing(text, library="lib", arch="x86-64", opt_level="O0")
        assert excinfo.value.line_number == 3

    def test_header_with_trailing_text_fails(self):
        text = "; FUNCTION alpha trailing words\nret\n"
        with pytest.raises(ListingParseError) as excinfo:
            parse_listing(text, library="lib", arch="x86-64", opt_level="O0")
        assert excinfo.value.line_number == 1

    def test_comment_sharing_the_prefix_is_not_a_header(self):
        text = "; FUNCTIONALITY overview comment\n; FUNCTION alpha\nret\n"
        fns = parse_listing(text, library="lib", arch="x86-64", opt_level="O0")
        assert [fn.source_symbol for fn in fns] == ["alpha"]

    def test_empty_input(self):
        assert parse_listing("", library="lib", arch="x86-64", opt_level="O0") == []

    def test_empty_block_fails(self):
        text = "; FUNCTION alpha\n; FUNCTION beta\nret\n"
        with pytest.raises(ListingParseError) as excinfo:
            parse_listing(text, library="lib", arch="x86-64", opt_level="O0")
        assert excinfo.value.line_number == 1

    def test_comments_and_blanks_skipped(self):
        text = "; a remark\n\n; FUNCTION alpha\n; inner remark\nret\n\n"
        fns = parse_listing(text, library="lib", arch="x86-64", opt_level="O0")
        assert fns[0].instructions == ("ret",)

    def test_addresses_preserved(self):
        text = "; FUNCTION alpha\n401000: mov eax, 1\n401005: ret\n"
        fns = parse_listing(text, library="lib", arch="x86-64", opt_level="O0")
        assert fns[0].instructions[0] == "401000: mov eax, 1"
        assert instruction_body(fns[0].instructions[0]) == (0x401000, "mov eax, 1")

    def test_md5init_variants(self):
        specs = [
            ("md5init_x86_64_O0.lst", "x86-64", "O0", 15),
            ("md5init_x86_64_O3.lst", "x86-64", "O3", 5),
            ("md5init_mips_O0.lst", "MIPS", "O0", 23),
        ]
        records = []
        for name, arch, opt, expected in specs:
            fns = parse_listing(
                (DATA / name).read_text(), library="hashlib", arch=arch, opt_level=opt
            )
            assert len(fns) == 1
            assert len(fns[0].instructions) == expected
            records.append(fns[0])
        assert {fn.source_symbol for fn in records} == {"MD5Init"}

    def test_meta_must_be_non_empty(self):
        with pytest.raises(ConfigurationError):
            parse_listing("", library="", arch="x86-64", opt_level="O0")

    def test_arch_aliases(self):
        assert canonical_arch("amd64") == "x86-64"
        assert canonical_arch("AArch64") == "ARM"
        assert canonical_arch("sparc") == "sparc"


class TestFilterShort:
    def test_below_threshold_removed(self):
        assert filter_short([make_fn(n=2)], 3) == []

    def test_boundary_kept(self):
        fns = [make_fn(n=3)]
        assert filter_short(fns, 3) == fns

    def test_empty_list(self):
        assert filter_short([], 3) == []

    def test_monotone_in_threshold(self):
        rng = random.Random(11)
        fns = [make_fn(symbol=f"f{i}", n=rng.randint(1, 10)) for i in range(30)]
        previous = {fn.id for fn in fns}
        for threshold in range(1, 12):
            kept = {fn.id for fn in filter_short(fns, threshold)}
            assert kept <= previous
            previous = kept

    def test_order_preserved(self):
        fns = [make_fn(symbol=f"f{i}", n=5) for i in (3, 1, 2)]
        assert filter_short(fns, 1) == fns


class TestTruncate:
    def test_long_function_truncated(self):
        fn = make_fn(n=200)
        out = truncate(fn, 128)
        assert len(out.instructions) == 128
        assert out.truncated is True

    def test_short_function_unchanged(self):
        fn = make_fn(n=40)
        out = truncate(fn, 128)
        assert out is fn
        assert out.truncated is False

    def test_idempotent(self):
        fn = make_fn(n=200)
        once = truncate(fn, 128)
        assert truncate(once, 128) == once

    def test_retained_lines_unchanged(self):
        fn = make_fn(n=50)
        out = truncate(fn, 20)
        assert out.instructions == fn.instructions[:20]


class TestBuildPairs:
    def test_cross_optimization_pair(self):
        a = [make_fn("MD5Init", "x86-64", "O0")]
        b = [make_fn("MD5Init", "x86-64", "O3")]
        pairs = build_pairs(a, b, "cross_optimization")
        assert len(pairs) == 1
        assert pairs[0].left == a[0].id and pairs[0].right == b[0].id

    def test_cross_architecture_pair(self):
        a = [make_fn("MD5Init", "x86-64", "O0")]
        b = [make_fn("MD5Init", "MIPS", "O0")]
        assert len(build_pairs(a, b, "cross_architecture")) == 1

    def test_one_sided_symbol_skipped(self):
        a = [make_fn("only_here", "x86-64", "O0"), make_fn("shared", "x86-64", "O0")]
        b = [make_fn("shared", "x86-64", "O3")]
        pairs = build_pairs(a, b, "cross_optimization")
        assert [p.left for p in pairs] == [a[1].id]

    def test_mismatched_meta_rejected(self):
        a = [make_fn("f", "x86-64", "O0")]
        b = [make_fn("f", "MIPS", "O3")]
        with pytest.raises(ConfigurationError):
            build_pairs(a, b, "cross_optimization")
        with pytest.raises(ConfigurationError):
            build_pairs(a, b, "cross_architecture")

    def test_same_setting_rejected(self):
        a = [make_fn("f", "x86-64", "O0")]
        with pytest.raises(ConfigurationError):
            build_pairs(a, a, "cross_optimization")

    def test_sorted_output(self):
        a = [make_fn(s, "x86-64", "O0") for s in ("zeta", "alpha", "mid")]
        b = [make_fn(s, "x86-64", "O3") for s in ("mid", "zeta", "alpha")]
        pairs = build_pairs(a, b, "cross_optimization")
        symbols = [p.left.split("/")[1].split("@")[0] for p in pairs]
        assert symbols == sorted(symbols)

    def test_symmetric_symbol_sets(self):
        rng = random.Random(3)
        names = [f"fn{i}" for i in range(20)]
        a = [make_fn(s, "x86-64", "O0") for s in rng.sample(names, 12)]
        b = [make_fn(s, "x86-64", "O3") for s in rng.sample(names, 14)]
        forward = build_pairs(a, b, "cross_optimization")
        backward = build_pairs(b, a, "cross_optimization")
        assert {(p.left, p.right) for p in forward} == {
            (p.right, p.left) for p in backward
        }

    def test_pair_invariants_hold(self):
        a = [make_fn(s, "ARM", "O1") for s in ("f1", "f2")]
        b = [make_fn(s, "ARM", "O3") for s in ("f1", "f2")]
        lookup = {fn.id: fn for fn in a + b}
        for pair in build_pairs(a, b, "cross_optimization"):
            left, right = lookup[pair.left], lookup[pair.right]
            assert (left.library, left.source_symbol) == (right.library, right.source_symbol)
            assert left.arch == right.arch and left.opt_level != right.opt_level

    def test_duplicate_key_rejected(self):
        a = [make_fn("f", "x86-64", "O0", fid="one"), make_fn("f", "x86-64", "O0", fid="two")]
        b = [make_fn("f", "x86-64", "O3")]
        with pytest.raises(ConfigurationError, match="ambiguous"):
            build_pairs(a, b, "cross_optimization")


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        fns = [make_fn(f"f{i}", n=4) for i in range(3)]
        path = tmp_path / "corpus.jsonl"
        save_corpus(path, fns)
        assert load_corpus(path) == fns

    def test_duplicate_id_rejected(self, tmp_path):
        fn = make_fn()
        path = tmp_path / "corpus.jsonl"
        save_corpus(path, [fn, fn])
        with pytest.raises(ListingParseError, match="duplicate"):
            load_corpus(path)

    def test_pairs_round_trip(self, tmp_path):
        pairs = build_pairs(
            [make_fn("f", "x86-64", "O0")], [make_fn("f", "x86-64", "O3")],
            "cross_optimization",
        )
        path = tmp_path / "pairs.jsonl"
        save_pairs(path, pairs)
        assert load_pairs(path) == pairs

    @pytest.mark.parametrize(
        "record, message",
        [
            ('[1]', "not a JSON object"),
            ('"a"', "not a JSON object"),
            ('{"left": "a", "pairing": "cross_optimization"}', "'right'"),
            ('{"right": "b", "pairing": "cross_optimization"}', "'left'"),
            ('{"left": 1, "right": "b", "pairing": "cross_optimization"}', "'left'"),
            ('{"left": "a", "right": null, "pairing": "cross_optimization"}', "'right'"),
            ('{"left": "a", "right": "b"', "invalid JSON: Expecting"),
            pytest.param('{"left": "a", "right": "b", "x": ' + "9" * 5000 + "}", "invalid JSON: Exceeds",
                         id="oversized-integer"),
            pytest.param("[" * 100_000, "invalid JSON: maximum recursion", id="deep-nesting"),
        ],
    )
    def test_malformed_pair_record_names_line(self, tmp_path, record, message):
        path = tmp_path / "pairs.jsonl"
        good = '{"left": "a", "right": "b", "pairing": "cross_optimization"}'
        path.write_text(good + "\n\n" + record + "\n")
        with pytest.raises(ListingParseError, match=f"^{re.escape(str(path))}:3: .*{message}") as excinfo:
            load_pairs(path)
        assert excinfo.value.line_number == 3

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda r: [1, 2], "not a JSON object"),
            (lambda r: {**r, "instructions": "mov eax, 1"}, "'instructions' as a list of strings"),
            (lambda r: {**r, "instructions": ["ret", 7]}, "'instructions' as a list of strings"),
            (lambda r: {k: v for k, v in r.items() if k != "instructions"}, "'instructions'"),
            (lambda r: {**r, "id": 5}, "string 'id'"),
            (lambda r: {**r, "library": None}, "string 'library'"),
            (lambda r: {**r, "source_symbol": ["f"]}, "string 'source_symbol'"),
            (lambda r: {**r, "arch": 64}, "string 'arch'"),
            (lambda r: {**r, "opt_level": 2}, "string 'opt_level'"),
            (lambda r: {k: v for k, v in r.items() if k != "arch"}, "string 'arch'"),
            (lambda r: {**r, "truncated": "no"}, "'truncated' as a boolean"),
        ],
        ids=["list", "instructions-string", "instructions-int-element", "no-instructions",
             "int-id", "null-library", "list-symbol", "int-arch", "int-opt-level", "no-arch",
             "string-truncated"],
    )
    def test_malformed_corpus_record_names_line(self, tmp_path, change, message):
        good = json.loads(corpus_line(make_fn("g")))
        path = tmp_path / "corpus.jsonl"
        path.write_text(corpus_line(make_fn()) + "\n" + json.dumps(change(good)) + "\n")
        with pytest.raises(ListingParseError, match=f"^{re.escape(str(path))}:3: .*{message}") as excinfo:
            load_corpus(path)
        assert excinfo.value.line_number == 3

    def test_oversized_integer_in_corpus_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(corpus_line(make_fn()).rstrip("}\n") + ',"x":' + "9" * 5000 + "}\n")
        with pytest.raises(ListingParseError, match=f"^{re.escape(str(path))}:1: invalid JSON: Exceeds") as excinfo:
            load_corpus(path)
        assert excinfo.value.line_number == 1

    def test_deep_nesting_in_corpus_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(corpus_line(make_fn()) + "[" * 100_000 + "\n")
        with pytest.raises(ListingParseError,
                           match=f"^{re.escape(str(path))}:2: invalid JSON: maximum recursion") as excinfo:
            load_corpus(path)
        assert excinfo.value.line_number == 2

    @pytest.mark.parametrize("load, good", [
        (load_pairs, '{"left": "a", "right": "b", "pairing": "cross_optimization"}\n'),
        (load_corpus, corpus_line(make_fn())),
    ], ids=["pairs", "corpus"])
    def test_non_utf8_line_names_file_and_line(self, tmp_path, load, good):
        path = tmp_path / "records.jsonl"
        path.write_bytes(good.encode() + b"\n\xff\n")
        with pytest.raises(ListingParseError, match=f"^{re.escape(str(path))}:3: not UTF-8: "
                                                    "'utf-8' codec can't decode byte 0xff") as excinfo:
            load(path)
        assert excinfo.value.line_number == 3
