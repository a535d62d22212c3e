import hashlib
import json
import re
import sys
import threading
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmsieve import prompts
from asmsieve.corpus import AssemblyFunction, parse_listing
from asmsieve.errors import ConfigurationError, SchemaError
from asmsieve.fixtures import prompt_sha256
from asmsieve.prompts import (
    SECTIONS,
    PromptConfig,
    build_prompt,
    load_example_bank,
    parse_target_block,
    schema_reference_text,
)
from asmsieve.schema import FIELD_ORDER, SECTION_FIELDS, validate


@pytest.fixture(scope="module")
def bank():
    return load_example_bank()


@pytest.fixture
def bank_dir(tmp_path):
    """A directory holding a copy of the shipped example bank."""
    for entry in resources.files("asmsieve").joinpath("assets", "examples").iterdir():
        (tmp_path / entry.name).write_bytes(entry.read_bytes())
    return tmp_path


@pytest.fixture
def fn():
    return AssemblyFunction(
        id="lib/f@x86-64/O0", library="lib", source_symbol="f", arch="x86-64",
        opt_level="O0", instructions=("401000: mov eax, 5", "401005: ret"),
    )


class TestPromptConfig:
    def test_defaults(self):
        cfg = PromptConfig()
        assert cfg.sections == SECTIONS and cfg.num_examples == 3

    def test_unknown_section(self):
        with pytest.raises(ConfigurationError):
            PromptConfig(sections=("Moonphase",))

    def test_empty_sections(self):
        with pytest.raises(ConfigurationError):
            PromptConfig(sections=())

    def test_examples_range(self):
        with pytest.raises(ConfigurationError):
            PromptConfig(num_examples=5)
        with pytest.raises(ConfigurationError):
            PromptConfig(num_examples=-1)

    def test_sections_normalized(self):
        cfg = PromptConfig(sections=("Categorization", "TypeSignature"))
        assert cfg.sections == ("TypeSignature", "Categorization")


class TestExampleBank:
    def test_three_diverse_examples(self, bank):
        assert len(bank) == 3
        assert len({e.arch for e in bank}) == 3  # three architectures

    def test_documents_validate_fully(self, bank):
        for example in bank:
            fs = validate(example.document)
            assert fs.present_fields == FIELD_ORDER


    def test_shipped_bank_is_read_once(self):
        assert load_example_bank() is load_example_bank()

    def test_directory_copy_loads_equal(self, bank, bank_dir):
        assert load_example_bank(bank_dir) == bank
        assert load_example_bank(str(bank_dir)) == bank

    @pytest.mark.parametrize(
        "body, message",
        [
            ("[" * 100_000, "invalid JSON: maximum recursion"),
            ('"a string"', "not a JSON object"),
            ('{"loop": tru', "invalid JSON: Expecting value"),
        ],
        ids=["deep-nesting", "string", "truncated"],
    )
    def test_malformed_document_names_its_file(self, bank_dir, body, message):
        bad = bank_dir / "ex2_arm.json"
        bad.write_text(body)
        with pytest.raises(SchemaError, match=f"^example bank {re.escape(str(bad))}: {message}"):
            load_example_bank(bank_dir)

    def test_assembly_not_utf8_names_its_file(self, bank_dir):
        bad = bank_dir / "ex1_x86_64.asm"
        bad.write_bytes(b"; arch: x86-64\n\xff\n")
        with pytest.raises(SchemaError, match=f"^example bank {re.escape(str(bad))}: not UTF-8: "):
            load_example_bank(bank_dir)

    @pytest.mark.parametrize(
        "doc, message",
        [({"loop": 5}, "field 'loop' must be a boolean, got 5"),
         ({"loop": True}, "missing"),
         ({"int_consts": ["0x1"]}, "trivial constant 0x1")],
        ids=["wrong-type", "incomplete", "trivial-constant"],
    )
    def test_invalid_document_names_its_file(self, bank_dir, doc, message):
        bad = bank_dir / "ex3_mips.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"^example bank {re.escape(str(bad))}: .*{message}"):
            load_example_bank(bank_dir)

    def test_valid_document_is_kept_as_read(self, bank, bank_dir):
        # Validation would fold "0X1234" to "0x1234" and set the extension
        # aside; the prompt shows the document as the file holds it.
        path = bank_dir / "ex2_arm.json"
        doc = {**json.loads(path.read_text()), "int_consts": ["0X1234"], "note": "kept"}
        path.write_text(json.dumps(doc))
        loaded = load_example_bank(bank_dir)
        assert loaded[1].document == doc
        assert loaded[0] == bank[0] and loaded[2] == bank[2]


class TestBuildPrompt:
    def test_requested_example_count(self, fn, bank):
        for n in range(4):
            if n > len(bank):
                continue
            prompt = build_prompt(fn, PromptConfig(num_examples=n), bank)
            assert prompt.user.count("[Example") == n

    def test_too_many_examples(self, fn, bank):
        with pytest.raises(ConfigurationError, match="bank"):
            build_prompt(fn, PromptConfig(num_examples=4), bank)

    def test_schema_only_prompt(self, fn, bank):
        cfg = PromptConfig(
            num_examples=0, system_prompt_enabled=False, include_schema_in_prompt=True
        )
        prompt = build_prompt(fn, cfg, bank)
        assert prompt.system == schema_reference_text(SECTIONS)
        assert "[Example" not in prompt.user

    def test_system_prompt_disabled(self, fn, bank):
        cfg = PromptConfig(system_prompt_enabled=False)
        assert build_prompt(fn, cfg, bank).system == ""

    def test_constants_section_fields(self, fn, bank):
        cfg = PromptConfig(sections=("NotableConstants",))
        assert set(cfg.enabled_fields) == {
            "int_consts", "float_consts", "imm_values_cnt", "string_literals"
        }

    def test_field_mentioned_iff_section_enabled(self, fn, bank):
        for dropped in SECTIONS:
            kept = tuple(s for s in SECTIONS if s != dropped)
            prompt = build_prompt(fn, PromptConfig(sections=kept), bank)
            text = prompt.system + "\n" + prompt.user
            for section in SECTIONS:
                for field in SECTION_FIELDS[section]:
                    assert (field in text) == (section != dropped), (
                        f"{field} presence wrong with {dropped} dropped"
                    )

    def test_target_function_embedded(self, fn, bank):
        prompt = build_prompt(fn, PromptConfig(), bank)
        assert "401000: mov eax, 5" in prompt.user
        assert "(arch: x86-64)" in prompt.user

    def test_example_documents_filtered(self, fn, bank):
        cfg = PromptConfig(sections=("TypeSignature",), num_examples=3)
        prompt = build_prompt(fn, cfg, bank)
        assert '"in_param_cnt"' in prompt.user
        assert '"inferred_algo"' not in prompt.user

    def test_deterministic(self, fn, bank):
        a = build_prompt(fn, PromptConfig(), bank)
        b = build_prompt(fn, PromptConfig(), bank)
        assert (a.system, a.user) == (b.system, b.user)


MINI = Path(__file__).parent / "data" / "mini"

# Every configuration: 31 non-empty section subsets x 0-3 examples x schema
# flag x system flag.
GRID = tuple(
    PromptConfig(sections=tuple(s for j, s in enumerate(SECTIONS) if mask >> j & 1),
                 num_examples=n, include_schema_in_prompt=schema, system_prompt_enabled=system)
    for mask in range(1, 1 << len(SECTIONS))
    for n in range(4)
    for schema in (False, True)
    for system in (False, True)
)

# SHA-256 over the prompt hashes of GRID x mini_functions on the shipped bank,
# as rendered before the fixed part of a prompt was cached.
GRID_DIGEST = "e397c0535268c0f7f2dec4fcbcd22e2b4697a42ef57fb97b82664546f71eabb1"


@pytest.fixture(scope="module")
def mini_functions():
    """The first function of each mini listing (O0 and O3)."""
    return [
        parse_listing((MINI / "listings" / f"miniapp_x86-64_{opt}.lst").read_text(encoding="utf-8"),
                      library="miniapp", arch="x86-64", opt_level=opt)[0]
        for opt in ("O0", "O3")
    ]


@pytest.fixture(scope="module")
def changed_bank(tmp_path_factory):
    """A directory bank equal to the shipped one but for one document."""
    root = tmp_path_factory.mktemp("bank")
    for entry in resources.files("asmsieve").joinpath("assets", "examples").iterdir():
        (root / entry.name).write_bytes(entry.read_bytes())
    doc = json.loads((root / "ex2_arm.json").read_text())
    (root / "ex2_arm.json").write_text(json.dumps({**doc, "loop": not doc["loop"]}))
    return load_example_bank(root)


class TestPromptBytes:
    def test_grid_digest_pinned(self, bank, mini_functions):
        assert len(GRID) == 496
        digest = hashlib.sha256()
        for cfg in GRID:
            for fn in mini_functions:
                prompt = build_prompt(fn, cfg, bank)
                digest.update(prompt_sha256(prompt.system, prompt.user).encode("ascii"))
        assert digest.hexdigest() == GRID_DIGEST

    def test_fixed_part_rendered_once_per_config_and_bank(self, fn, bank, monkeypatch):
        calls = []
        real = prompts.load_system_preamble
        monkeypatch.setattr(prompts, "load_system_preamble", lambda: calls.append(1) or real())
        one, two, other = PromptConfig(), PromptConfig(num_examples=1), tuple(list(bank))
        for cfg, b in [(one, bank)] * 3 + [(two, bank), (two, other), (two, other), (one, other)]:
            build_prompt(fn, cfg, b)
        assert len(calls) == 4

    def test_no_bank_reuses_the_render(self, fn, monkeypatch):
        calls = []
        real = prompts._render_fixed
        monkeypatch.setattr(prompts, "_last_fixed", None)
        monkeypatch.setattr(prompts, "_render_fixed", lambda *args: calls.append(1) or real(*args))
        first = build_prompt(fn, PromptConfig())
        assert build_prompt(fn, PromptConfig()) == first
        assert len(calls) == 1

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_interleaved_renders_equal_cold_renders(self, data, bank, changed_bank, mini_functions):
        banks = {"shipped": bank, "equal-copy": tuple(list(bank)), "list": list(bank),
                 "changed-directory": changed_bank}
        palette = data.draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=3))
        calls = data.draw(st.lists(
            st.tuples(st.sampled_from(palette), st.sampled_from(sorted(banks)),
                      st.sampled_from(mini_functions)),
            min_size=1, max_size=12))
        rendered = [build_prompt(fn, cfg, banks[name]) for cfg, name, fn in calls]
        for (cfg, name, fn), got in zip(calls, rendered):
            assert got == build_prompt(fn, cfg, tuple(list(banks[name])))

    def test_threads_sharing_the_cache_render_cold_bytes(self, bank, changed_bank, mini_functions):
        """Eight threads render interleaved (config, bank) pairs with a short
        switch interval; a torn or mismatched cache entry would show up as a
        prompt that differs from its cold render."""
        cases = [(cfg, b, fn) for cfg in GRID[::61] for b in (bank, changed_bank) for fn in mini_functions]
        want = [build_prompt(fn, cfg, tuple(list(b))) for cfg, b, fn in cases]
        mismatches = []

        def worker(offset):
            for i in range(400):
                j = (offset + i * 7) % len(cases)
                cfg, b, fn = cases[j]
                if build_prompt(fn, cfg, b) != want[j]:
                    mismatches.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []


class TestTargetBlock:
    def test_round_trip(self, fn, bank):
        prompt = build_prompt(fn, PromptConfig(num_examples=2), bank)
        arch, lines = parse_target_block(prompt.user)
        assert arch == "x86-64"
        assert tuple(lines) == fn.instructions

    def test_missing_block_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_target_block("no function here")


class TestSchemaReference:
    def test_lists_enums(self):
        text = schema_reference_text(SECTIONS)
        parsed = json.loads(text.split("Allowed values:")[0].split(":", 1)[1])
        assert set(parsed) == set(FIELD_ORDER)
        assert "Initialization" in text

    def test_respects_sections(self):
        text = schema_reference_text(("TypeSignature",))
        assert "in_param_cnt" in text and "int_consts" not in text
