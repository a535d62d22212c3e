"""Function corpus: listing ingestion, filtering, truncation, and pairing.

Listing format: a function block starts with a header comment
``; FUNCTION <symbol>``; every following non-empty, non-comment line is one
instruction, optionally prefixed ``<hex-address>:``. A block ends at the next
header or end of file. Comment lines start with ``;``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from .errors import ConfigurationError, ListingParseError
from .schema import read_json_lines, read_text

ARCH_ALIASES = {
    "x86-64": "x86-64",
    "x86_64": "x86-64",
    "x8664": "x86-64",
    "amd64": "x86-64",
    "x64": "x86-64",
    "arm": "ARM",
    "aarch64": "ARM",
    "arm64": "ARM",
    "mips": "MIPS",
    "powerpc": "PowerPC",
    "ppc": "PowerPC",
}

OPT_LEVELS = ("O0", "O1", "O2", "O3", "unknown")

PAIRING_KINDS = ("cross_optimization", "cross_architecture")


def canonical_arch(name: str) -> str:
    """Map common spellings onto canonical names; unknown ISAs pass through."""
    return ARCH_ALIASES.get(name.strip().lower().replace(" ", ""), name.strip())


def canonical_opt_level(name: str) -> str:
    text = name.strip()
    upper = text.upper()
    if upper in ("O0", "O1", "O2", "O3"):
        return upper
    if text.lower() in ("", "unknown"):
        return "unknown"
    raise ConfigurationError(f"unknown optimization level {name!r}")


@dataclass(frozen=True)
class AssemblyFunction:
    id: str
    library: str
    source_symbol: str
    arch: str
    opt_level: str
    instructions: tuple[str, ...]
    truncated: bool = False


@dataclass(frozen=True)
class FunctionPair:
    left: str
    right: str
    pairing: str


_HEADER_PREFIX = re.compile(r"^;\s*FUNCTION\b")
_HEADER = re.compile(r"^;\s*FUNCTION\s+(\S+)\s*$")
_ADDRESS_PREFIX = re.compile(r"^([0-9a-fA-F]+):\s*(.*)$")


def _located(path) -> Callable[[int, str], ListingParseError]:
    return lambda line_no, message: ListingParseError(message, line_no, path)


def function_id(library: str, source_symbol: str, arch: str, opt_level: str) -> str:
    return f"{library}/{source_symbol}@{arch}/{opt_level}"


def parse_listing(text: str, *, library: str, arch: str, opt_level: str,
                  path=None) -> list[AssemblyFunction]:
    """Split a listing into function records, in file order.

    Raises ListingParseError (with the offending line number, and ``path``
    when given) for a header without a symbol, an instruction outside any
    block, or an empty block. Empty input yields an empty list.
    """
    if not library or not arch or not opt_level:
        raise ConfigurationError("library, arch and opt_level must be non-empty")
    arch = canonical_arch(arch)
    opt_level = canonical_opt_level(opt_level)

    records: list[AssemblyFunction] = []
    id_counts: dict[str, int] = {}
    symbol: str | None = None
    header_line = 0
    body: list[str] = []

    def close_block() -> None:
        nonlocal symbol, body
        if symbol is None:
            return
        if not body:
            raise ListingParseError(f"function block {symbol!r} has no instructions", header_line, path)
        base = function_id(library, symbol, arch, opt_level)
        n = id_counts.get(base, 0) + 1
        id_counts[base] = n
        fid = base if n == 1 else f"{base}#{n}"
        records.append(
            AssemblyFunction(
                id=fid,
                library=library,
                source_symbol=symbol,
                arch=arch,
                opt_level=opt_level,
                instructions=tuple(body),
            )
        )
        symbol, body = None, []

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(";"):
            if _HEADER_PREFIX.match(line):
                m = _HEADER.match(line)
                if not m:
                    raise ListingParseError(
                        "function header must be '; FUNCTION <symbol>'", line_no, path
                    )
                close_block()
                symbol = m.group(1)
                header_line = line_no
            continue
        if symbol is None:
            raise ListingParseError("instruction outside any function block", line_no, path)
        body.append(line)
    close_block()
    return records


def read_listing(path, *, library: str, arch: str, opt_level: str) -> list[AssemblyFunction]:
    """``parse_listing`` over a listing file. Every error names ``path:line``,
    a line that is not UTF-8 included (``schema.read_text``)."""
    text = read_text(path, _located(path))
    return parse_listing(text, library=library, arch=arch, opt_level=opt_level, path=path)


def instruction_body(line: str) -> tuple[int | None, str]:
    """Split an instruction line into (address or None, mnemonic+operand text)."""
    m = _ADDRESS_PREFIX.match(line)
    if m:
        return int(m.group(1), 16), m.group(2).strip()
    return None, line


def filter_short(
    fns: Sequence[AssemblyFunction], min_instructions: int = 3
) -> list[AssemblyFunction]:
    """Drop functions with fewer than ``min_instructions`` instructions."""
    if min_instructions < 1:
        raise ConfigurationError(f"min_instructions must be >= 1, got {min_instructions}")
    return [fn for fn in fns if len(fn.instructions) >= min_instructions]


def truncate(fn: AssemblyFunction, max_instructions: int) -> AssemblyFunction:
    """Keep the first ``max_instructions`` instructions; flag when shortened."""
    if max_instructions < 1:
        raise ConfigurationError(f"max_instructions must be >= 1, got {max_instructions}")
    if len(fn.instructions) <= max_instructions:
        return fn
    return replace(fn, instructions=fn.instructions[:max_instructions], truncated=True)


def _uniform_meta(fns: Sequence[AssemblyFunction], side: str) -> tuple[str, str]:
    archs = {fn.arch for fn in fns}
    opts = {fn.opt_level for fn in fns}
    if len(archs) != 1 or len(opts) != 1:
        raise ConfigurationError(
            f"corpus {side} mixes settings (archs={sorted(archs)}, opt_levels={sorted(opts)}); "
            "pairing needs one setting per side"
        )
    return archs.pop(), opts.pop()


def _by_pair_key(fns: Sequence[AssemblyFunction], side: str) -> dict[tuple[str, str], AssemblyFunction]:
    out: dict[tuple[str, str], AssemblyFunction] = {}
    for fn in fns:
        key = (fn.library, fn.source_symbol)
        if key in out:
            raise ConfigurationError(
                f"corpus {side} holds more than one function for {key}; pairing is ambiguous"
            )
        out[key] = fn
    return out


def build_pairs(
    a: Sequence[AssemblyFunction],
    b: Sequence[AssemblyFunction],
    pairing: str,
) -> list[FunctionPair]:
    """Pair functions sharing (library, source_symbol) across two corpora.

    ``cross_optimization`` requires equal arch and differing opt_level;
    ``cross_architecture`` the reverse. Output is sorted by library then symbol.
    """
    if pairing not in PAIRING_KINDS:
        raise ConfigurationError(f"unknown pairing kind {pairing!r}")
    if not a or not b:
        return []
    arch_a, opt_a = _uniform_meta(a, "a")
    arch_b, opt_b = _uniform_meta(b, "b")
    if pairing == "cross_optimization":
        if arch_a != arch_b:
            raise ConfigurationError(
                f"cross_optimization pairing needs one architecture, got {arch_a} vs {arch_b}"
            )
        if opt_a == opt_b:
            raise ConfigurationError(
                f"cross_optimization pairing needs two optimization levels, both sides are {opt_a}"
            )
    else:
        if opt_a != opt_b:
            raise ConfigurationError(
                f"cross_architecture pairing needs one optimization level, got {opt_a} vs {opt_b}"
            )
        if arch_a == arch_b:
            raise ConfigurationError(
                f"cross_architecture pairing needs two architectures, both sides are {arch_a}"
            )
    left = _by_pair_key(a, "a")
    right = _by_pair_key(b, "b")
    pairs = [
        FunctionPair(left=left[key].id, right=right[key].id, pairing=pairing)
        for key in sorted(left.keys() & right.keys())
    ]
    return pairs


def corpus_line(fn: AssemblyFunction) -> str:
    """One corpus-file record: compact JSON ending in a newline."""
    record = {
        "id": fn.id,
        "library": fn.library,
        "source_symbol": fn.source_symbol,
        "arch": fn.arch,
        "opt_level": fn.opt_level,
        "instructions": list(fn.instructions),
        "truncated": fn.truncated,
    }
    return json.dumps(record, separators=(",", ":")) + "\n"


def save_corpus(path, fns: Iterable[AssemblyFunction]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(corpus_line, fns))


_CORPUS_TEXT_KEYS = ("id", "library", "source_symbol", "arch", "opt_level")


def load_corpus(path) -> list[AssemblyFunction]:
    out: list[AssemblyFunction] = []
    seen: set[str] = set()
    error = _located(path)
    for line_no, obj in read_json_lines(path, error):
        for key in _CORPUS_TEXT_KEYS:
            if not isinstance(obj.get(key), str):
                raise error(line_no, f"corpus record needs a string {key!r}")
        instructions = obj.get("instructions")
        if not (isinstance(instructions, list) and all(isinstance(i, str) for i in instructions)):
            raise error(line_no, "corpus record needs 'instructions' as a list of strings")
        truncated = obj.get("truncated", False)
        if not isinstance(truncated, bool):
            raise error(line_no, "corpus record needs 'truncated' as a boolean")
        fn = AssemblyFunction(
            instructions=tuple(instructions),
            truncated=truncated,
            **{key: obj[key] for key in _CORPUS_TEXT_KEYS},
        )
        if not fn.instructions:
            raise error(line_no, f"function {fn.id!r} has no instructions")
        if fn.id in seen:
            raise error(line_no, f"duplicate function id {fn.id!r}")
        seen.add(fn.id)
        out.append(fn)
    return out


def save_pairs(path, pairs: Iterable[FunctionPair]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(
                json.dumps(
                    {"left": p.left, "right": p.right, "pairing": p.pairing},
                    separators=(",", ":"),
                )
                + "\n"
            )


def load_pairs(path) -> list[FunctionPair]:
    out: list[FunctionPair] = []
    error = _located(path)
    for line_no, obj in read_json_lines(path, error):
        for side in ("left", "right"):
            if not isinstance(obj.get(side), str):
                raise error(line_no, f"pair record needs a string {side!r}")
        pairing = obj.get("pairing", "")
        if pairing not in PAIRING_KINDS:
            raise error(line_no, f"unknown pairing kind {pairing!r}")
        out.append(FunctionPair(left=obj["left"], right=obj["right"], pairing=pairing))
    return out
