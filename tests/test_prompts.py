import json
import re
from importlib import resources

import pytest

from asmsieve.corpus import AssemblyFunction
from asmsieve.errors import ConfigurationError, SchemaError
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
