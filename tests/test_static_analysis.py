import random

import pytest

from asmsieve.corpus import AssemblyFunction
from asmsieve.schema import TRIVIAL_CONSTANTS
from asmsieve.static_analysis import STATIC_FIELDS, UnsupportedArchWarning, static_extract


def make_fn(lines, arch="x86-64"):
    return AssemblyFunction(
        id="t", library="lib", source_symbol="t", arch=arch, opt_level="O0",
        instructions=tuple(lines),
    )


# Hand-traced snippets: (name, arch, lines, expected partial feature fields).
SNIPPETS = [
    (
        "x86_backward_branch",
        "x86-64",
        ["401000: mov ecx, 10", "401005: dec ecx", "401008: jne 0x401005"],
        {"loop": True, "indexed_addr": False, "simd": False, "subcall_targets": 0,
         "int_consts": ("0xa",), "imm_values_cnt": 1, "interrupts_syscalls": 0},
    ),
    (
        "x86_forward_branch",
        "x86-64",
        ["401000: cmp edi, 5", "401003: jne 0x401010", "401009: mov eax, 7",
         "40100e: ret", "401010: mov eax, 9", "401015: ret"],
        {"loop": False, "indexed_addr": False, "simd": False, "subcall_targets": 0,
         "int_consts": ("0x5", "0x7", "0x9"), "imm_values_cnt": 3,
         "interrupts_syscalls": 0},
    ),
    (
        "x86_distinct_calls",
        "x86-64",
        ["401000: push rbp", "401001: call sub_401100", "401006: call sub_401200",
         "40100b: call sub_401100", "401010: pop rbp", "401011: ret"],
        {"loop": False, "indexed_addr": False, "simd": False, "subcall_targets": 2,
         "int_consts": (), "imm_values_cnt": 0, "interrupts_syscalls": 0},
    ),
    (
        "x86_kernel_transitions",
        "x86-64",
        ["401000: mov eax, 1", "401005: int 0x80", "401007: mov eax, 60",
         "40100c: syscall"],
        {"loop": False, "indexed_addr": False, "simd": False, "subcall_targets": 0,
         "int_consts": ("0x3c", "0x80"), "imm_values_cnt": 3,
         "interrupts_syscalls": 2},
    ),
    (
        "x86_trivial_exclusion",
        "x86-64",
        ["401000: mov eax, 0", "401005: add eax, 1", "40100a: mov ebx, 0xdeadbeef",
         "40100f: xor ecx, ecx", "401012: ret"],
        {"loop": False, "indexed_addr": False, "simd": False, "subcall_targets": 0,
         "int_consts": ("0xdeadbeef",), "imm_values_cnt": 3,
         "interrupts_syscalls": 0},
    ),
    (
        "x86_indexed_addressing",
        "x86-64",
        ["401000: mov eax, [rdi+rsi*4]", "401004: add eax, [rdi+8]", "401007: ret"],
        {"loop": False, "indexed_addr": True, "simd": False, "subcall_targets": 0,
         "int_consts": ("0x4", "0x8"), "imm_values_cnt": 2, "interrupts_syscalls": 0},
    ),
    (
        "x86_simd",
        "x86-64",
        ["401000: movdqa xmm0, [rdi]", "401005: paddd xmm0, [rsi]",
         "40100a: movdqa [rdx], xmm0", "40100f: ret"],
        {"loop": False, "indexed_addr": False, "simd": True, "subcall_targets": 0,
         "int_consts": (), "imm_values_cnt": 0, "interrupts_syscalls": 0},
    ),
    (
        "arm_backward_branch",
        "ARM",
        ["10000: mov r2, #0", "10004: add r2, r2, #1", "10008: cmp r2, r3",
         "1000c: bne loc_10004", "10010: bx lr"],
        {"loop": True, "indexed_addr": False, "simd": False, "subcall_targets": 0,
         "int_consts": (), "imm_values_cnt": 2, "interrupts_syscalls": 0},
    ),
    (
        "arm_svc_and_calls",
        "ARM",
        ["20000: mov r7, #4", "20004: svc 0", "20008: bl sub_20100",
         "2000c: blx r3", "20010: bx lr"],
        {"loop": False, "indexed_addr": False, "simd": False, "subcall_targets": 2,
         "int_consts": ("0x4",), "imm_values_cnt": 2, "interrupts_syscalls": 1},
    ),
    (
        "arm_neon",
        "ARM",
        ["30000: vld1.32 {d0}, [r0]", "30004: vadd.i32 d0, d0, d1",
         "30008: vst1.32 {d0}, [r1]", "3000c: bx lr"],
        {"loop": False, "indexed_addr": False, "simd": True, "subcall_targets": 0,
         "int_consts": (), "imm_values_cnt": 0, "interrupts_syscalls": 0},
    ),
    (
        "mips_calls_and_syscall",
        "MIPS",
        ["400100: li $v0, 4011", "400104: syscall", "400108: jal sub_400200",
         "40010c: nop", "400110: jal sub_400200", "400114: nop",
         "400118: jalr $t9", "40011c: nop", "400120: jr $ra"],
        {"loop": False, "indexed_addr": False, "simd": False, "subcall_targets": 2,
         "int_consts": ("0xfab",), "imm_values_cnt": 1, "interrupts_syscalls": 1},
    ),
    (
        "x86_constant_cap",
        "x86-64",
        ["401000: mov eax, 2", "401005: mov ebx, 3"]
        + [f"40{0x1010 + 5 * i:x}: mov ecx, 0x{0x100 + i:x}" for i in range(15)]
        + ["401100: ret"],
        {"loop": False, "indexed_addr": False, "simd": False, "subcall_targets": 0,
         "int_consts": tuple(sorted(f"0x{0x100 + i:x}" for i in range(15))),
         "imm_values_cnt": 17, "interrupts_syscalls": 0},
    ),
]


class TestSpotChecks:
    @pytest.mark.parametrize("name,arch,lines,expected", SNIPPETS,
                             ids=[s[0] for s in SNIPPETS])
    def test_snippet(self, name, arch, lines, expected):
        fs = static_extract(make_fn(lines, arch))
        assert fs.fields == expected

    def test_suite_has_twelve_snippets(self):
        assert len(SNIPPETS) == 12


class TestRules:
    def test_only_static_fields_filled(self):
        fs = static_extract(make_fn(["401000: ret"]))
        assert set(fs.fields) == set(STATIC_FIELDS)

    def test_unsupported_arch_warns_and_returns_empty(self):
        fn = make_fn(["nop"], arch="z80")
        with pytest.warns(UnsupportedArchWarning):
            fs = static_extract(fn)
        assert fs.fields == {}

    def test_line_indices_used_without_addresses(self):
        # bare decimal branch targets name instruction indices
        fs = static_extract(make_fn(["mov ecx, 5", "dec ecx", "jne 1"]))
        assert fs["loop"] is True
        fs = static_extract(make_fn(["mov ecx, 5", "jne 2", "dec ecx"]))
        assert fs["loop"] is False

    def test_branch_targets_not_counted_as_literals(self):
        fs = static_extract(make_fn(["401000: jmp 0x401000"]))
        assert fs["imm_values_cnt"] == 0 and fs["loop"] is True

    def test_register_names_not_literals(self):
        fs = static_extract(make_fn(["401000: mov r15, r8", "401004: add eax, ebx"]))
        assert fs["imm_values_cnt"] == 0

    def test_decimal_too_long_for_int_is_skipped(self):
        fs = static_extract(make_fn(["401000: mov eax, 0x2f41", f"401005: add eax, {'9' * 5000}",
                                     "40100a: ret"]))
        assert fs["int_consts"] == ("0x2f41",) and fs["imm_values_cnt"] == 1

    def test_index_target_too_long_for_int_is_unresolved(self):
        # the target reads 1, an earlier index, but has 5,000 digits
        fs = static_extract(make_fn(["mov ecx, 5", "dec ecx", f"jne {'0' * 4999}1"]))
        assert fs["loop"] is False

    def test_ida_hex_suffix(self):
        fs = static_extract(make_fn(["401000: mov eax, [rbp+50h]"]))
        assert fs["int_consts"] == ("0x50",)

    def test_eight_bit_register_not_hex(self):
        # ah/bh/ch/dh must not parse as <hex>h literals
        fs = static_extract(make_fn(["401000: mov ah, bh"]))
        assert fs["imm_values_cnt"] == 0

    def test_negative_magnitude_rule(self):
        fs = static_extract(make_fn(["400100: addiu $sp, -0x20"], arch="MIPS"))
        assert fs["int_consts"] == ("0x20",)
        assert fs["imm_values_cnt"] == 1

    def test_negative_one_is_trivial(self):
        fs = static_extract(make_fn(["401000: mov eax, -1", "401005: or ebx, 0xffffffff"]))
        assert fs["int_consts"] == ()
        assert fs["imm_values_cnt"] == 2  # -1 and 0xffffffff differ as raw literals


class TestProperties:
    def test_deterministic(self):
        fn = make_fn(["401000: mov eax, 5", "401005: call sub_1", "40100a: jne 0x401000"])
        assert static_extract(fn) == static_extract(fn)

    def test_constants_invariant_under_permutation(self):
        rng = random.Random(19)
        lines = [f"mov eax, 0x{rng.randrange(2, 1 << 20):x}" for _ in range(12)]
        base = static_extract(make_fn(lines))
        for _ in range(10):
            shuffled = lines[:]
            rng.shuffle(shuffled)
            got = static_extract(make_fn(shuffled))
            assert got["int_consts"] == base["int_consts"]
            assert got["imm_values_cnt"] == base["imm_values_cnt"]

    def test_loop_depends_on_order(self):
        forward = ["401000: jmp 0x401005", "401005: ret"]
        backward = ["401000: ret", "401005: jmp 0x401000"]
        assert static_extract(make_fn(forward))["loop"] is False
        assert static_extract(make_fn(backward))["loop"] is True

    def test_random_bodies_respect_schema_invariants(self):
        rng = random.Random(77)
        mnemonics = ["mov eax", "add ebx", "cmp ecx", "xor edx", "sub esi"]
        for _ in range(60):
            lines = [
                f"{rng.choice(mnemonics)}, {rng.randrange(0, 1 << 40)}"
                for _ in range(rng.randint(1, 40))
            ]
            fs = static_extract(make_fn(lines))
            assert len(fs["int_consts"]) <= 15
            for text in fs["int_consts"]:
                assert int(text, 16) not in TRIVIAL_CONSTANTS
