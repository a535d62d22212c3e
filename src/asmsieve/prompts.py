"""Prompt assembly: system preamble, per-section field requests, few-shot
examples, and the target function block.

The system text is the preamble asset plus one request block per enabled
section (and, when asked, a generated schema reference). The user text holds
the worked examples followed by the function to analyze. A field name is
mentioned in the prompt exactly when its section is enabled.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, Mapping

from .corpus import AssemblyFunction
from .errors import ConfigurationError, SchemaError
from .schema import FIELD_BY_NAME, FIELD_ORDER, SECTION_FIELDS, SECTIONS, read_json_file, validate

MAX_FEW_SHOT = 4

SECTION_TITLES = {
    "TypeSignature": "type signature",
    "LogicOperations": "logic and operations",
    "NotableConstants": "notable constants",
    "SideEffects": "side effects",
    "Categorization": "categorization",
}

BLOCK_BEGIN = "--- begin function ---"
BLOCK_END = "--- end function ---"
_ARCH_RE = re.compile(r"\(arch:\s*([^)]+)\)")


@dataclass(frozen=True)
class PromptConfig:
    sections: tuple[str, ...] = SECTIONS
    num_examples: int = 3
    include_schema_in_prompt: bool = False
    system_prompt_enabled: bool = True

    def __post_init__(self) -> None:
        unknown = set(self.sections) - set(SECTIONS)
        if unknown:
            raise ConfigurationError(f"unknown prompt section(s): {sorted(unknown)}")
        if not self.sections:
            raise ConfigurationError("at least one prompt section must be enabled")
        # normalize to declaration order, deduplicated
        ordered = tuple(s for s in SECTIONS if s in set(self.sections))
        object.__setattr__(self, "sections", ordered)
        if not 0 <= self.num_examples <= MAX_FEW_SHOT:
            raise ConfigurationError(
                f"num_examples must lie in 0..{MAX_FEW_SHOT}, got {self.num_examples}"
            )

    @property
    def enabled_fields(self) -> tuple[str, ...]:
        allowed = {n for s in self.sections for n in SECTION_FIELDS[s]}
        return tuple(n for n in FIELD_ORDER if n in allowed)


@dataclass(frozen=True)
class PromptExample:
    assembly: str
    document: dict[str, Any]
    arch: str = ""


@dataclass(frozen=True)
class Prompt:
    system: str
    user: str


def _asset_text(name: str) -> str:
    return resources.files("asmsieve").joinpath("assets", name).read_text(encoding="utf-8")


def load_system_preamble() -> str:
    return _asset_text("system_prompt.txt").strip()


def load_example_bank(path: str | Path | None = None) -> tuple[PromptExample, ...]:
    """Read the (assembly, document) example pairs shipped as assets, or from
    a directory holding matching ``<stem>.asm`` / ``<stem>.json`` files. A
    file that is not UTF-8, a ``.json`` that is not a JSON object, and in a
    directory a document that fails ``schema.validate`` raise a SchemaError
    naming the file. A document is kept as read, not as validated. The
    shipped documents are not validated here, on every call; a test does."""
    root = resources.files("asmsieve").joinpath("assets", "examples") if path is None else Path(path)
    bank = []
    for name in sorted(entry.name for entry in root.iterdir() if entry.name.endswith(".asm")):
        asm_path, doc_path = root.joinpath(name), root.joinpath(name[:-4] + ".json")
        try:
            asm_text = asm_path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"example bank {asm_path}: not UTF-8: {exc}") from exc
        doc = read_json_file(doc_path, lambda message: SchemaError(f"example bank {doc_path}: {message}"))
        if path is not None:
            try:
                validate(doc)
            except SchemaError as exc:
                raise SchemaError(f"example bank {doc_path}: {exc}") from exc
        arch = ""
        lines = []
        for line in asm_text.splitlines():
            stripped = line.strip()
            if stripped.startswith("; arch:"):
                arch = stripped.split(":", 1)[1].strip()
            elif stripped:
                lines.append(stripped)
        bank.append(PromptExample(assembly="\n".join(lines), document=doc, arch=arch))
    return tuple(bank)


def section_request_text(section: str) -> str:
    lines = [f"Requested fields ({SECTION_TITLES[section]}):"]
    for name in SECTION_FIELDS[section]:
        lines.append(f'  - "{name}": {FIELD_BY_NAME[name].hint}')
    return "\n".join(lines)


def schema_reference_text(sections: Iterable[str] = SECTIONS) -> str:
    """A compact reference document for the requested fields, suitable for
    embedding in a prompt or publishing in the docs."""
    enabled = [s for s in SECTIONS if s in set(sections)]
    skeleton: dict[str, str] = {}
    enums: list[str] = []
    for section in enabled:
        for name in SECTION_FIELDS[section]:
            spec = FIELD_BY_NAME[name]
            if spec.kind == "bool":
                skeleton[name] = "<true|false>"
            elif spec.kind == "count":
                skeleton[name] = "<integer >= 0>"
            elif spec.kind == "enum":
                skeleton[name] = "<string>"
                enums.append(f"  {name}: " + " | ".join(spec.values))
            elif spec.kind == "param_types":
                skeleton[name] = "<array of strings>"
                enums.append(f"  {name} entries: " + " | ".join(spec.values))
            elif spec.kind == "cat_array":
                skeleton[name] = "<array of strings>"
                enums.append(f"  {name} entries: " + " | ".join(spec.values))
            elif spec.kind == "hex_array":
                skeleton[name] = '<array of "0x..." strings>'
            else:
                skeleton[name] = "<array of decimal strings>"
    body = json.dumps(skeleton, indent=1)
    text = "Reference schema (one JSON object with these members):\n" + body
    if enums:
        text += "\nAllowed values:\n" + "\n".join(enums)
    return text


def _filtered_document(doc: Mapping[str, Any], enabled: tuple[str, ...]) -> str:
    kept = {name: doc[name] for name in enabled if name in doc}
    return json.dumps(kept, indent=1)


def _function_block(arch: str, lines: Iterable[str], *, target: bool) -> str:
    head = "Function to analyze" if target else "Function"
    return "\n".join([f"{head} (arch: {arch}):", BLOCK_BEGIN, *lines, BLOCK_END])


def build_prompt(
    fn: AssemblyFunction,
    cfg: PromptConfig,
    bank: Iterable[PromptExample] | None = None,
) -> Prompt:
    """Render the (system, user) prompt pair for one function."""
    examples = tuple(bank) if bank is not None else load_example_bank()
    if cfg.num_examples > len(examples):
        raise ConfigurationError(
            f"prompt asks for {cfg.num_examples} examples but the bank holds {len(examples)}"
        )
    enabled = cfg.enabled_fields

    system_parts: list[str] = []
    if cfg.system_prompt_enabled:
        system_parts.append(load_system_preamble())
        system_parts.extend(section_request_text(s) for s in cfg.sections)
    if cfg.include_schema_in_prompt:
        system_parts.append(schema_reference_text(cfg.sections))
    system_text = "\n\n".join(system_parts)

    user_parts: list[str] = []
    for i, example in enumerate(examples[: cfg.num_examples], 1):
        user_parts.append(
            "\n".join(
                [
                    f"[Example {i}]",
                    _function_block(example.arch, example.assembly.splitlines(), target=False),
                    "Analysis:",
                    _filtered_document(example.document, enabled),
                ]
            )
        )
    field_list = ", ".join(enabled)
    user_parts.append(
        "\n".join(
            [
                "Now analyze this function.",
                _function_block(fn.arch, fn.instructions, target=True),
                f"Respond with one JSON object holding exactly these fields: {field_list}.",
            ]
        )
    )
    return Prompt(system=system_text, user="\n\n".join(user_parts))


def parse_target_block(user_text: str) -> tuple[str, list[str]]:
    """Recover (arch, instruction lines) of the final function block in a
    rendered prompt. Used by the static-analysis client."""
    begin = user_text.rfind(BLOCK_BEGIN)
    end = user_text.rfind(BLOCK_END)
    if begin < 0 or end < begin:
        raise ConfigurationError("prompt holds no function block")
    lines = [l for l in user_text[begin + len(BLOCK_BEGIN):end].splitlines() if l.strip()]
    arch_match = None
    for m in _ARCH_RE.finditer(user_text, 0, begin):
        arch_match = m
    if arch_match is None:
        raise ConfigurationError("prompt function block names no architecture")
    return arch_match.group(1).strip(), lines
