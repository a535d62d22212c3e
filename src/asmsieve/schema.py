"""Feature document schema: validation, canonical text, and field-level diffs.

A feature document is a flat JSON object describing one binary function in
human-readable terms. The core schema is a closed set of 21 fields grouped
into five sections (type signature, logic/operations, notable constants,
side effects, categorization). Unknown keys are preserved verbatim in an
extensions map so new features can be added without invalidating stored
documents.

Each core field's rule lives in one validator, built once from ``FIELDS``
by ``field_validators`` (a table by field name); ``validate`` dispatches
through it, and so does the token reader in ``similarity``, which keeps
its own memos around the same validators. ``check_complete`` holds
the document-level rules (required fields, parameter count).

Outside JSON is decoded in one place, ``json_object``: the features,
embeddings, corpus and pairs readers go through ``read_json_lines`` and
word every error ``path:line: ``; fixtures and the example bank go through
``read_json_file``. Features files are read by ``read_records``, which
checks each record's ``id`` and ``present`` list and rejects an id
repeated across the files.

Canonical form rules:
  * fields serialized in the fixed order of ``FIELD_ORDER``;
  * ``int_consts`` and ``float_consts`` sorted lexicographically;
  * ``dominant_operation_categories`` sorted in declaration order;
  * ``in_param_types`` kept positional (argument order is meaningful);
  * extension keys appended after core fields, sorted, with nested object
    keys sorted recursively;
  * no insignificant whitespace.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Mapping

from .errors import SchemaError

SECTIONS = (
    "TypeSignature",
    "LogicOperations",
    "NotableConstants",
    "SideEffects",
    "Categorization",
)

PARAM_TYPES = ("Integer", "Pointer")
RET_TYPES = ("Integer", "Pointer", "Float", "None")
OPERATION_CATEGORIES = (
    "Arithmetic",
    "Bitwise",
    "DataMovement",
    "ConditionalBranching",
    "SubroutineCall",
    "MemoryAccess",
)
ALGO_CATEGORIES = (
    "SystemOsInteraction",
    "MemoryManagement",
    "DataProcessing",
    "ControlFlowDispatch",
    "Initialization",
    "ErrorHandling",
    "UtilityHelper",
    "CryptographicHashing",
    "InterfacingWrapper",
    "Undetermined",
)

MAX_INT_CONSTS = 15

# Values excluded from int_consts: 0, 1, and -1 at common register widths.
TRIVIAL_CONSTANTS = frozenset({0, 1} | {(1 << w) - 1 for w in (8, 16, 32, 64, 128)})


@dataclass(frozen=True)
class FieldSpec:
    name: str
    section: str
    kind: str  # count | bool | enum | param_types | cat_array | hex_array | dec_array
    values: tuple[str, ...] = ()
    hint: str = ""  # one-line request text used by the prompt builder


ARRAY_KINDS = frozenset({"param_types", "cat_array", "hex_array", "dec_array"})


FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("in_param_cnt", "TypeSignature", "count",
              hint="integer >= 0: how many distinct conceptual inputs the routine consumes"),
    FieldSpec("in_param_types", "TypeSignature", "param_types", PARAM_TYPES,
              hint='array with one entry per input, each "Integer" or "Pointer", in argument order'),
    FieldSpec("ret_type", "TypeSignature", "enum", RET_TYPES,
              hint='"Integer", "Pointer", "Float", or "None" when nothing is returned'),
    FieldSpec("dominant_operation_categories", "LogicOperations", "cat_array", OPERATION_CATEGORIES,
              hint="non-empty array naming the kinds of work that dominate the body"),
    FieldSpec("loop", "LogicOperations", "bool",
              hint="true when a branch targets an earlier instruction or an iterative construct is present"),
    FieldSpec("jump_table", "LogicOperations", "bool",
              hint="true when control transfers through a computed/indirect jump over a table"),
    FieldSpec("indexed_addr", "LogicOperations", "bool",
              hint="true when memory is addressed as base + index (optionally scaled)"),
    FieldSpec("simd", "LogicOperations", "bool",
              hint="true when vector instructions or wide vector registers are used"),
    FieldSpec("subcall_targets", "LogicOperations", "count",
              hint="integer >= 0: how many distinct routines are called"),
    FieldSpec("int_consts", "NotableConstants", "hex_array",
              hint='array of at most 15 distinctive integer literals as lowercase hex strings ("0x1f2e"); '
                   "leave out 0, 1, -1 and other unremarkable values"),
    FieldSpec("float_consts", "NotableConstants", "dec_array",
              hint="array of floating-point literals as decimal strings"),
    FieldSpec("imm_values_cnt", "NotableConstants", "count",
              hint="integer >= 0: how many distinct literal values appear in the body"),
    FieldSpec("string_literals", "NotableConstants", "bool",
              hint="true when the code references identifiable text strings"),
    FieldSpec("mutates_inputs", "SideEffects", "bool",
              hint="true when memory reached through an input pointer is written"),
    FieldSpec("mutates_globals", "SideEffects", "bool",
              hint="true when fixed or global addresses are written"),
    FieldSpec("mem_alloc", "SideEffects", "bool",
              hint="true when dynamic memory is acquired or released"),
    FieldSpec("io_ops", "SideEffects", "bool",
              hint="true when the routine appears to read or write external data"),
    FieldSpec("block_mem_ops", "SideEffects", "bool",
              hint="true when large memory regions are copied or filled"),
    FieldSpec("error_handling", "SideEffects", "bool",
              hint="true when results of calls are checked and failure paths taken"),
    FieldSpec("interrupts_syscalls", "SideEffects", "count",
              hint="integer >= 0: how many instructions trap into the kernel"),
    FieldSpec("inferred_algo", "Categorization", "enum", ALGO_CATEGORIES,
              hint="one label for the routine's overall purpose: " + ", ".join(ALGO_CATEGORIES)),
)

FIELD_ORDER: tuple[str, ...] = tuple(f.name for f in FIELDS)
FIELD_BY_NAME: dict[str, FieldSpec] = {f.name: f for f in FIELDS}
SECTION_FIELDS: dict[str, tuple[str, ...]] = {
    s: tuple(f.name for f in FIELDS if f.section == s) for s in SECTIONS
}

_CANON_STRIP = re.compile(r"[^a-z0-9]+")


def _canon_key(text: str) -> str:
    return _CANON_STRIP.sub("", text.lower())


def _alias_table(values: Iterable[str], extra: Mapping[str, str]) -> dict[str, str]:
    table = {_canon_key(v): v for v in values}
    for alias, target in extra.items():
        table[_canon_key(alias)] = target
    return table

# Tolerated input spellings, normalized to canonical casing on validation.
PARAM_TYPE_ALIASES = _alias_table(PARAM_TYPES, {"ptr": "Pointer", "int": "Integer"})
RET_TYPE_ALIASES = _alias_table(
    RET_TYPES, {"ptr": "Pointer", "int": "Integer", "void": "None", "null": "None"}
)
CATEGORY_ALIASES = _alias_table(OPERATION_CATEGORIES, {})
ALGO_ALIASES = _alias_table(
    ALGO_CATEGORIES,
    {
        "system/OS interaction": "SystemOsInteraction",
        "data processing or transformation": "DataProcessing",
        "control-flow or dispatch": "ControlFlowDispatch",
        "control flow": "ControlFlowDispatch",
        "dispatch": "ControlFlowDispatch",
        "utility/helper": "UtilityHelper",
        "cryptographic or hashing": "CryptographicHashing",
        "hashing": "CryptographicHashing",
        "interfacing/wrapper": "InterfacingWrapper",
        "wrapper": "InterfacingWrapper",
    },
)

_HEX_STRING = re.compile(r"^(0[xX])?0*([0-9a-fA-F]+)$")


def normalize_hex_constant(value: Any) -> str:
    """Normalize an integer literal to lowercase ``0x`` hex without leading zeros."""
    if isinstance(value, bool):
        raise SchemaError(f"integer constant may not be a boolean: {value!r}")
    if isinstance(value, int):
        if value < 0:
            raise SchemaError(f"integer constant may not be negative: {value}")
        n = value
    elif isinstance(value, str):
        m = _HEX_STRING.match(value.strip())
        if not m:
            raise SchemaError(f"not a hexadecimal constant: {value!r}")
        n = int(m.group(2), 16)
    else:
        raise SchemaError(f"integer constant must be a string or integer: {value!r}")
    return f"0x{n:x}"


def is_trivial_constant(value: int) -> bool:
    return value in TRIVIAL_CONSTANTS


def _require_bool(name: str, value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        key = _canon_key(value)
        if key == "true":
            return True
        if key == "false":
            return False
    raise SchemaError(f"field {name!r} must be a boolean, got {value!r}")


def _require_count(name: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"field {name!r} must be an integer, got {value!r}")
    if value < 0:
        raise SchemaError(f"field {name!r} must be >= 0, got {value}")
    return value


def _require_enum(name: str, value: Any, aliases: Mapping[str, str]) -> str:
    if value is None and name == "ret_type":
        return "None"
    if not isinstance(value, str):
        raise SchemaError(f"field {name!r} must be a string, got {value!r}")
    canonical = aliases.get(_canon_key(value))
    if canonical is None:
        raise SchemaError(f"field {name!r} has unknown value {value!r}")
    return canonical


def _require_array(name: str, value: Any) -> None:
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"field {name!r} must be an array, got {value!r}")


def _param_types(name: str, value: Any) -> tuple[str, ...]:
    _require_array(name, value)
    return tuple(_require_enum(name, v, PARAM_TYPE_ALIASES) for v in value)


_CATEGORY_RANK = {c: i for i, c in enumerate(OPERATION_CATEGORIES)}


def _categories(name: str, value: Any) -> tuple[str, ...]:
    _require_array(name, value)
    cats = [_require_enum(name, v, CATEGORY_ALIASES) for v in value]
    if not cats:
        raise SchemaError(f"field {name!r} must not be empty")
    if len(set(cats)) != len(cats):
        raise SchemaError(f"field {name!r} contains duplicates: {value!r}")
    return tuple(sorted(cats, key=_CATEGORY_RANK.__getitem__))


def _hex_entry(name: str, value: Any) -> str:
    text = normalize_hex_constant(value)
    if is_trivial_constant(int(text, 16)):
        raise SchemaError(f"field {name!r} contains trivial constant {text}")
    return text


def _hex_array(name: str, value: Any) -> tuple[str, ...]:
    _require_array(name, value)
    texts = {_hex_entry(name, v) for v in value}
    if len(texts) > MAX_INT_CONSTS:
        raise SchemaError(
            f"field {name!r} holds {len(texts)} constants, limit is {MAX_INT_CONSTS}"
        )
    return tuple(sorted(texts))


def _dec_entry(name: str, value: Any) -> str:
    if isinstance(value, bool):
        raise SchemaError(f"field {name!r} entries must be numbers or strings")
    if isinstance(value, (int, float)):
        return json.dumps(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            float(text)
        except ValueError:
            raise SchemaError(f"field {name!r} entry is not numeric: {value!r}") from None
        return text
    raise SchemaError(f"field {name!r} entries must be numbers or strings")


def _dec_array(name: str, value: Any) -> tuple[str, ...]:
    _require_array(name, value)
    return tuple(sorted({_dec_entry(name, v) for v in value}))


def _field_validator(spec: FieldSpec) -> Callable[[Any], Any]:
    name, kind = spec.name, spec.kind
    if kind == "bool":
        return partial(_require_bool, name)
    if kind == "count":
        return partial(_require_count, name)
    if kind == "enum":
        aliases = RET_TYPE_ALIASES if name == "ret_type" else ALGO_ALIASES
        return partial(_require_enum, name, aliases=aliases)
    if kind == "param_types":
        return partial(_param_types, name)
    if kind == "cat_array":
        return partial(_categories, name)
    if kind == "hex_array":
        return partial(_hex_array, name)
    if kind == "dec_array":
        return partial(_dec_array, name)
    raise AssertionError(f"unhandled field kind {kind}")


def field_validators() -> dict[str, Callable[[Any], Any]]:
    """One validator per core field, by name: each takes the raw JSON value
    and returns the normalized one or raises SchemaError."""
    return {spec.name: _field_validator(spec) for spec in FIELDS}


_VALIDATORS = field_validators()
_ALL_FIELDS = frozenset(FIELD_ORDER)


def required_set(required_fields: Iterable[str] | None) -> frozenset[str]:
    """The core fields a document must hold: all of them for ``None``."""
    if required_fields is None:
        return _ALL_FIELDS
    required = frozenset(required_fields)
    unknown = required - _ALL_FIELDS
    if unknown:
        raise SchemaError(f"unknown required field(s): {sorted(unknown)}")
    return required


def check_complete(fields: Mapping[str, Any], required: frozenset[str]) -> None:
    """The document-level rules, once every field has passed its validator:
    no required field missing, and one parameter type per parameter.
    ``fields`` may hold the raw values: neither rule looks past a count and
    an array length, which validation does not change."""
    missing = sorted(required.difference(fields))
    if missing:
        raise SchemaError(f"missing required field(s): {', '.join(missing)}")
    if "in_param_cnt" in fields and "in_param_types" in fields:
        cnt, n_types = fields["in_param_cnt"], len(fields["in_param_types"])
        if n_types != cnt:
            raise SchemaError(f"in_param_types has {n_types} entries but in_param_cnt is {cnt}")


@dataclass(frozen=True)
class FeatureSet:
    """A validated feature document. ``fields`` holds normalized core fields
    (possibly a subset, for partial documents); unknown keys live in
    ``extensions`` untouched."""

    fields: dict[str, Any]
    extensions: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Any:
        return self.fields[name]

    def get(self, name: str, default: Any = None) -> Any:
        return self.fields.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self.fields

    @property
    def present_fields(self) -> tuple[str, ...]:
        return tuple(n for n in FIELD_ORDER if n in self.fields)

    def as_dict(self) -> dict[str, Any]:
        """Plain JSON-ready dict in canonical key order (tuples become lists)."""
        out: dict[str, Any] = {}
        for name in FIELD_ORDER:
            if name in self.fields:
                value = self.fields[name]
                out[name] = list(value) if isinstance(value, tuple) else value
        for key in sorted(self.extensions):
            out[key] = self.extensions[key]
        return out


def validate(doc: Mapping[str, Any], required_fields: Iterable[str] | None = None) -> FeatureSet:
    """Validate a parsed JSON object into a FeatureSet.

    ``required_fields`` defaults to the full core schema; pass a subset to
    validate partial documents (e.g. when prompt sections are disabled).
    Unknown keys are kept as extensions. Raises SchemaError on any missing
    field, type mismatch, or invariant violation.
    """
    if not isinstance(doc, Mapping):
        raise SchemaError(f"feature document must be a JSON object, got {type(doc).__name__}")
    required = required_set(required_fields)
    fields: dict[str, Any] = {}
    extensions: dict[str, Any] = {}
    for key, value in doc.items():
        check = _VALIDATORS.get(key)
        if check is None:
            extensions[key] = value
        else:
            fields[key] = check(value)
    check_complete(fields, required)
    return FeatureSet(fields=fields, extensions=extensions)


def _sorted_json(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _sorted_json(value[k]) for k in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_sorted_json(v) for v in value]
    return value


def canonicalize(fs: FeatureSet) -> str:
    """Byte-deterministic serialization; a fixpoint under validate+canonicalize."""
    out: dict[str, Any] = {}
    for name in FIELD_ORDER:
        if name in fs.fields:
            value = fs.fields[name]
            out[name] = list(value) if isinstance(value, tuple) else value
    for key in sorted(fs.extensions):
        out[key] = _sorted_json(fs.extensions[key])
    return json.dumps(out, separators=(",", ":"))


@dataclass(frozen=True)
class FieldDiff:
    """One differing field. For array fields ``added``/``removed`` carry the
    set difference (right minus left / left minus right)."""

    field: str
    left: Any = None
    right: Any = None
    left_present: bool = True
    right_present: bool = True
    added: tuple = ()
    removed: tuple = ()

    def as_dict(self) -> dict[str, Any]:
        def plain(v: Any) -> Any:
            return list(v) if isinstance(v, tuple) else v

        out: dict[str, Any] = {
            "field": self.field,
            "left": plain(self.left) if self.left_present else None,
            "right": plain(self.right) if self.right_present else None,
        }
        if not self.left_present:
            out["left_present"] = False
        if not self.right_present:
            out["right_present"] = False
        if self.added or self.removed:
            out["added"] = list(self.added)
            out["removed"] = list(self.removed)
        return out


def diff(a: FeatureSet, b: FeatureSet) -> list[FieldDiff]:
    """Field-level differences in fixed order; empty iff canonical texts match."""
    out: list[FieldDiff] = []
    ext_keys = sorted(set(a.extensions) | set(b.extensions))
    for name in FIELD_ORDER + tuple(ext_keys):
        if name in FIELD_BY_NAME:
            in_a, in_b = name in a.fields, name in b.fields
            va = a.fields.get(name)
            vb = b.fields.get(name)
        else:
            in_a, in_b = name in a.extensions, name in b.extensions
            va = a.extensions.get(name)
            vb = b.extensions.get(name)
        if in_a == in_b and va == vb:
            continue
        added: tuple = ()
        removed: tuple = ()
        if (
            name in FIELD_BY_NAME
            and FIELD_BY_NAME[name].kind in ARRAY_KINDS
            and in_a
            and in_b
        ):
            sa, sb = set(va), set(vb)
            added = tuple(sorted(sb - sa))
            removed = tuple(sorted(sa - sb))
        out.append(
            FieldDiff(
                field=name,
                left=va,
                right=vb,
                left_present=in_a,
                right_present=in_b,
                added=added,
                removed=removed,
            )
        )
    return out


def read_lines(path, error: Callable[[int, str], Exception]) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each line of a UTF-8 text file. A line
    that is not UTF-8 raises ``error(line number, "not UTF-8: <codec
    message>")``: the file is decoded with ``surrogateescape``, so a bad
    byte reaches its own line before it fails."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise error(line_no, f"not UTF-8: {exc}") from exc
            yield line_no, line


def read_text(path, error: Callable[[int, str], Exception]) -> str:
    """The text of a UTF-8 file, with the errors of ``read_lines``."""
    return "".join(line for _, line in read_lines(path, error))


def json_object(text: str, error: Callable[[str], Exception]) -> dict:
    """The JSON object ``text`` holds, or ``error("invalid JSON: ...")`` for
    text that is not JSON or that Python cannot hold (a too-long integer,
    deep nesting), and ``error("not a JSON object")`` for any other value."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise error("not a JSON object")
    return obj


def read_json_lines(path, error: Callable[[int, str], Exception]) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for each non-blank line of a JSON-lines
    file; every failure raises ``error(line number, message)``."""
    for line_no, line in read_lines(path, error):
        line = line.strip()
        if line:
            yield line_no, json_object(line, partial(error, line_no))


def read_json_file(path, error: Callable[[str], Exception]) -> dict:
    """The JSON object of a whole UTF-8 file (a ``Path`` or a package
    resource), or ``error(message)``."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"not UTF-8: {exc}") from exc
    return json_object(text, error)


def located(error_type: Callable[[str], Exception], path) -> Callable[[int, str], Exception]:
    """A ``read_json_lines`` error worded ``error_type("path:line: message")``."""
    return lambda line_no, message: error_type(f"{path}:{line_no}: {message}")


def _parse_record(obj: dict) -> tuple[str, list[str] | None, Any]:
    """The id, the ``present`` list (None when absent) and the raw features of one record."""
    if "id" not in obj or "features" not in obj:
        raise SchemaError("expected keys 'id' and 'features'")
    fid, present = obj["id"], obj.get("present")
    if not isinstance(fid, str):
        raise SchemaError("'id' must be a string")
    if present is not None and not (
        isinstance(present, list) and all(isinstance(name, str) for name in present)
    ):
        raise SchemaError("'present' must be a list of field names")
    return fid, present, obj["features"]


def _first_location(paths, fid: str) -> str:
    for path in paths:
        for line_no, obj in read_json_lines(path, located(SchemaError, path)):
            if obj.get("id") == fid:
                return f"{path}:{line_no}"
    return "an earlier line"  # the files changed while being read


def read_records(paths, convert: Callable[[Any, list[str] | None], Any],
                 only: str | None = None) -> Iterator[tuple[str, Any]]:
    """Yield ``(id, convert(features, present))`` for each record of the
    features files, in file and line order. A ``present`` list names the
    core fields the record must hold; only a missing (or null) ``present``
    means all of them. Ids must be unique across the files. Every error, the ones
    ``convert`` raises included, is a SchemaError prefixed ``path:line: ``.
    With ``only``, every line is still parsed and its id checked, but only
    the record with that id is converted and yielded."""
    seen: set[str] = set()
    for path in paths:
        error = located(SchemaError, path)
        for line_no, obj in read_json_lines(path, error):
            try:
                fid, present, doc = _parse_record(obj)
                if fid in seen:
                    raise SchemaError(f"duplicate id {fid!r} (first at {_first_location(paths, fid)})")
                seen.add(fid)
                if only is not None and fid != only:
                    continue
                value = convert(doc, present)
            except SchemaError as exc:
                raise error(line_no, str(exc)) from exc
            yield fid, value


def load_features(*paths) -> dict[str, FeatureSet]:
    """Read features files (JSON lines of ``{"id": ..., "features": {...}}``,
    with an optional ``"present"`` list) into validated documents by id."""
    return dict(read_records(paths, validate))


def save_features(path, features: Mapping[str, FeatureSet]) -> None:
    """Write a features file. Partial documents record their present fields so
    they re-validate on load."""
    with open(path, "w", encoding="utf-8") as fh:
        for fid, fs in features.items():
            record: dict[str, Any] = {"id": fid}
            if fs.present_fields != FIELD_ORDER:
                record["present"] = list(fs.present_fields)
            prefix = json.dumps(record, separators=(",", ":"))
            fh.write(prefix[:-1] + ',"features":' + canonicalize(fs) + "}\n")
