"""Deterministic analyzer for the statically decidable feature fields.

Fills exactly: ``loop``, ``subcall_targets``, ``interrupts_syscalls``,
``int_consts``, ``imm_values_cnt``, ``indexed_addr``, ``simd``. Everything
else needs judgement and is left absent.

Per-architecture rule tables (x86-64, ARM, MIPS):

  * loop: a branch mnemonic whose target resolves to a position at or before
    the branch itself. Positions are instruction addresses when every line
    carries one, else 0-based line indices. Targets are recognized as
    ``loc_<hex>``, ``0x<hex>`` or ``<digit...>h`` in address mode, and as bare
    decimal indices otherwise.
  * subcall_targets: count of distinct call-operand texts.
  * interrupts_syscalls: count of instructions whose mnemonic traps into the
    kernel (x86-64: int/syscall/sysenter; ARM: svc/swi; MIPS: syscall).
  * literals: integer literals in operand text (``0x..``, IDA ``<digits>..h``,
    decimal, with optional ``#``/``$`` marker and sign). Branch and call
    operands are control-flow targets, not literals, and are skipped.
    ``imm_values_cnt`` counts distinct signed values; ``int_consts`` keeps
    magnitudes, drops trivial values (0, 1, -1 at any width), and caps at 15
    entries preferring longer bit-lengths (ties lexicographic).
  * indexed_addr: x86-64 bracket operand with a scale ``*`` or two registers;
    ARM bracket operand with two registers or an inline shift; MIPS has no
    such mode, always false.
  * simd: vector registers (xmm/ymm/zmm, q/v arrangements, MSA ``$w``) or a
    vector mnemonic.

Register names are expected in symbolic form (``$v0``, not ``$2``). A
decimal literal or branch index longer than Python's int_max_str_digits
(4,300 digits by default) is skipped, or left unresolved: no ISA has an
immediate that wide.
"""

from __future__ import annotations

import re
import warnings

from .corpus import AssemblyFunction, canonical_arch, instruction_body
from .schema import MAX_INT_CONSTS, FeatureSet, is_trivial_constant

STATIC_FIELDS = (
    "loop",
    "indexed_addr",
    "simd",
    "subcall_targets",
    "int_consts",
    "imm_values_cnt",
    "interrupts_syscalls",
)

SUPPORTED_ARCHES = ("x86-64", "ARM", "MIPS")


class UnsupportedArchWarning(UserWarning):
    pass


_X86_COND = [p + cc for p in ("j",) for cc in (
    "a", "ae", "b", "be", "c", "e", "g", "ge", "l", "le", "na", "nae", "nb", "nbe",
    "nc", "ne", "ng", "nge", "nl", "nle", "no", "np", "ns", "nz", "o", "p", "pe",
    "po", "s", "z", "cxz", "ecxz", "rcxz",
)]

_RULES = {
    "x86-64": {
        "branch": frozenset(_X86_COND + ["jmp", "loop", "loope", "loopne", "loopz", "loopnz"]),
        "call": frozenset({"call"}),
        "kernel": frozenset({"int", "syscall", "sysenter"}),
        "simd_mnemonic": re.compile(
            r"^(mov(dq|ap|up|ss|hl|lh)|p(add|sub|mul|and|or|xor|cmp|shuf|unpck|sll|srl|sra|ack)"
            r"|v(mov|add|sub|mul|div|xor|and|or|p)|(add|sub|mul|div)[sp][sd]$)"
        ),
        "simd_register": re.compile(r"\b[xyz]mm\d+\b"),
    },
    "ARM": {
        "branch": frozenset({
            "b", "bne", "beq", "bcs", "bcc", "bmi", "bpl", "bvs", "bvc", "bhi",
            "bls", "bge", "blt", "bgt", "ble", "bal", "cbz", "cbnz", "tbz", "tbnz", "bx",
        }),
        "call": frozenset({"bl", "blx", "blr"}),
        "kernel": frozenset({"svc", "swi"}),
        "simd_mnemonic": re.compile(
            r"^(v(add|sub|mul|ld|st|mov|dup|eor|and|orr|max|min|mla|abs)|ld[1-4]$|st[1-4]$)"
        ),
        "simd_register": re.compile(r"\bq\d+\b|\bv\d+\.\d+[bhsd]\b", re.IGNORECASE),
    },
    "MIPS": {
        "branch": frozenset({
            "b", "beq", "bne", "beqz", "bnez", "bgez", "bgtz", "blez", "bltz", "j",
        }),
        "call": frozenset({"jal", "jalr", "bal"}),
        "kernel": frozenset({"syscall"}),
        "simd_mnemonic": re.compile(r"^$"),  # MSA detection is register-based
        "simd_register": re.compile(r"\$w\d+\b"),
    },
}

_IMM_RE = re.compile(
    r"(?<![\w$.])"
    r"[#$]?"
    r"(-?)"
    r"(?:0[xX]([0-9a-fA-F]+)\b"
    r"|([0-9][0-9a-fA-F]*)[hH]\b"
    r"|(\d+)\b)"
)

_TARGET_ADDR_RE = re.compile(
    r"\bloc(?:ret)?_([0-9a-fA-F]+)\b|\b0[xX]([0-9a-fA-F]+)\b|\b([0-9][0-9a-fA-F]*)[hH]\b"
)
_TARGET_INDEX_RE = re.compile(r"\b(\d+)\b")

_BRACKET_RE = re.compile(r"\[([^\]]*)\]")
_X86_REG_RE = re.compile(
    r"\b(r(?:[a-d]x|[sd]i|[sb]p|\d{1,2}[bwd]?)|e(?:[a-d]x|[sd]i|[sb]p)|rip)\b"
)
_ARM_REG_RE = re.compile(r"\b(r\d{1,2}|[xw]\d{1,2}|sp|fp|lr|ip|pc)\b", re.IGNORECASE)
_ARM_SHIFT_RE = re.compile(r"\b(lsl|lsr|asr|ror)\b", re.IGNORECASE)


def _decimal(digits: str) -> int | None:
    """``int(digits)``, or None past Python's int_max_str_digits."""
    try:
        return int(digits)
    except ValueError:
        return None


def _parse_literals(text: str) -> list[int]:
    values = []
    for sign, hex_0x, hex_h, dec in _IMM_RE.findall(text):
        v = int(hex_0x or hex_h, 16) if hex_0x or hex_h else _decimal(dec)
        if v is not None:
            values.append(-v if sign else v)
    return values


def _branch_target(operand: str, address_mode: bool) -> int | None:
    if address_mode:
        last = None
        for m in _TARGET_ADDR_RE.finditer(operand):
            last = m.group(1) or m.group(2) or m.group(3)
        return int(last, 16) if last is not None else None
    last = None
    for m in _TARGET_INDEX_RE.finditer(operand):
        last = m.group(1)
    return _decimal(last) if last is not None else None


def _is_indexed(arch: str, body: str) -> bool:
    if arch == "MIPS":
        return False
    for content in _BRACKET_RE.findall(body):
        if arch == "x86-64":
            if "*" in content:
                return True
            if "+" in content and len(_X86_REG_RE.findall(content)) >= 2:
                return True
        else:
            if _ARM_SHIFT_RE.search(content):
                return True
            if len(_ARM_REG_RE.findall(content)) >= 2:
                return True
    return False


def _cap_constants(values: set[int]) -> tuple[str, ...]:
    texts = {f"0x{v:x}" for v in values}
    if len(texts) > MAX_INT_CONSTS:
        ranked = sorted(texts, key=lambda t: (-int(t, 16).bit_length(), t))
        texts = set(ranked[:MAX_INT_CONSTS])
    return tuple(sorted(texts))


def static_extract(fn: AssemblyFunction) -> FeatureSet:
    """Analyze one function; returns a partial FeatureSet with STATIC_FIELDS.

    Unsupported architectures produce an empty FeatureSet plus an
    UnsupportedArchWarning.
    """
    arch = canonical_arch(fn.arch)
    if arch not in _RULES:
        warnings.warn(
            f"no static rule table for architecture {fn.arch!r}; returning no fields",
            UnsupportedArchWarning,
            stacklevel=2,
        )
        return FeatureSet(fields={})
    rules = _RULES[arch]

    parsed: list[tuple[int | None, str]] = [instruction_body(line) for line in fn.instructions]
    address_mode = bool(parsed) and all(addr is not None for addr, _ in parsed)

    loop = False
    indexed = False
    simd = False
    call_targets: set[str] = set()
    kernel_count = 0
    literal_values: set[int] = set()

    for pos, (addr, body) in enumerate(parsed):
        if not body:
            continue
        split = body.split(None, 1)
        mnemonic = split[0].lower()
        operand = split[1] if len(split) > 1 else ""
        base = mnemonic.split(".")[0]

        if not simd and (
            rules["simd_register"].search(body) or rules["simd_mnemonic"].match(base)
        ):
            simd = True
        if not indexed and _is_indexed(arch, body):
            indexed = True

        if base in rules["kernel"]:
            kernel_count += 1
        if base in rules["call"]:
            call_targets.add(" ".join(operand.split()).lower())
            continue
        if base in rules["branch"]:
            target = _branch_target(operand, address_mode)
            if target is not None:
                here = addr if address_mode else pos
                if target <= here:
                    loop = True
            continue
        literal_values.update(_parse_literals(operand))

    notable = {abs(v) for v in literal_values if not is_trivial_constant(abs(v))}
    return FeatureSet(
        fields={
            "loop": loop,
            "indexed_addr": indexed,
            "simd": simd,
            "subcall_targets": len(call_targets),
            "int_consts": _cap_constants(notable),
            "imm_values_cnt": len(literal_values),
            "interrupts_syscalls": kernel_count,
        }
    )
