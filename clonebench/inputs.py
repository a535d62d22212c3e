"""Seeded input generators for the clone-search benchmark.

Everything here depends only on the seed and on the sizes passed in; the
program under test sees the files and objects built from these inputs, never
the generators. Documents are kept in two forms that are built from the same
columns: the JSON feature document the program reads, and an independent
token-id encoding (one id per ``field=value`` or ``field~element`` token) that
the oracle scans.

Shapes:

* ``schema``: all 21 fields of the feature schema. Bool, enum and count
  fields have low cardinality; integer constants come from a heavy-tailed
  (Zipf) pool, so a few recur widely and most are rare.
* ``uniform``: 30 tokens per document drawn uniformly from a 4000-token
  vocabulary, carried in ``float_consts`` of a partial document.

Drift follows the O3 drift of ``tools/make_mini_corpus.py``: the return type
and the algorithm label are redrawn with probability 1/2 each, one to three
judgement booleans flip, the last parameter is dropped with probability 0.4,
and each integer constant survives with probability 0.8.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

PARAM_TYPES = ("Integer", "Pointer")
RET_TYPES = ("Integer", "Pointer", "Float", "None")
RET_P = (0.5, 0.25, 0.05, 0.2)
OPERATION_CATEGORIES = (
    "Arithmetic", "Bitwise", "DataMovement",
    "ConditionalBranching", "SubroutineCall", "MemoryAccess",
)
CAT_P = (0.5, 0.3, 0.6, 0.4, 0.3, 0.4)
ALGO_CATEGORIES = (
    "SystemOsInteraction", "MemoryManagement", "DataProcessing",
    "ControlFlowDispatch", "Initialization", "ErrorHandling",
    "UtilityHelper", "CryptographicHashing", "InterfacingWrapper", "Undetermined",
)
ALGO_P = (0.06, 0.1, 0.22, 0.08, 0.1, 0.06, 0.2, 0.04, 0.1, 0.04)
BOOL_FIELDS = (
    "loop", "jump_table", "indexed_addr", "simd", "string_literals",
    "mutates_inputs", "mutates_globals", "mem_alloc", "io_ops",
    "block_mem_ops", "error_handling",
)
BOOL_P = (0.4, 0.05, 0.3, 0.1, 0.2, 0.3, 0.15, 0.1, 0.1, 0.1, 0.25)
# the judgement booleans the mini-corpus drift flips
DRIFT_BOOLS = tuple(
    BOOL_FIELDS.index(n) for n in (
        "jump_table", "string_literals", "mutates_inputs", "mutates_globals",
        "mem_alloc", "io_ops", "block_mem_ops", "error_handling",
    )
)
CNT_P = (0.1, 0.35, 0.3, 0.15, 0.1)
MAX_PARAMS = len(CNT_P) - 1
SUB_MAX = 20
MAX_CONSTS = 15
IMM_MAX = MAX_CONSTS + 40
INTR_MAX = 3
FLOAT_POOL = tuple(sorted(
    ("0.5", "1.5", "2.0", "0.0625", "100.0", "0.25", "3.0", "10.0",
     "0.1", "1e-06", "255.0", "0.75", "4.0", "1000.0", "0.01", "6.5")
))
CONST_POOL = 200_000
ZIPF_S = 1.1
# 0, 1 and all-ones masks are trivial constants the schema rejects
TRIVIAL = {0, 1} | {(1 << w) - 1 for w in (8, 16, 32, 64, 128)}

UNIFORM_VOCAB = 4000
UNIFORM_TOKENS = 30
UNIFORM_DRIFT = 10  # tokens replaced in a drifted uniform copy

EMBED_DIM = 64
EMBED_NOISE = 0.5  # query embedding = source embedding + noise * N(0, 1)
# Self-lookup embeddings do not depend on the seed, so the set of self-lookup
# reranks that meet cosine(v, v) > 1 is the same in every run.
SELF_LOOKUP_RNG_SEED = 0


@dataclass
class Docs:
    """A batch of generated documents: ids, the token-id CSR the oracle scans,
    and the compact JSON text of each feature document. ``present`` lists the
    fields of partial documents and is None for full ones."""

    ids: list[str]
    offsets: np.ndarray  # int64, len n + 1
    flat: np.ndarray  # int32 token ids, sorted within each document
    texts: list[str]
    present: list[str] | None = None

    def __len__(self) -> int:
        return len(self.ids)

    def tokens(self, i: int) -> np.ndarray:
        return self.flat[self.offsets[i]:self.offsets[i + 1]]

    def features(self, i: int) -> dict:
        return json.loads(self.texts[i])

    def lines(self):
        present = "" if self.present is None else f',"present":{json.dumps(self.present)}'
        for fid, text in zip(self.ids, self.texts):
            yield f'{{"id":{json.dumps(fid)}{present},"features":{text}}}\n'


def concat_docs(parts: list[Docs]) -> Docs:
    sizes = np.concatenate([np.diff(p.offsets) for p in parts])
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return Docs(
        ids=[fid for p in parts for fid in p.ids],
        offsets=offsets,
        flat=np.concatenate([p.flat for p in parts]),
        texts=[t for p in parts for t in p.texts],
        present=parts[0].present,
    )


def subset(docs: Docs, rows) -> Docs:
    rows = [int(r) for r in rows]
    sizes = np.diff(docs.offsets)[rows]
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    flat = np.concatenate([docs.tokens(r) for r in rows]) if rows else docs.flat[:0]
    return Docs(
        ids=[docs.ids[r] for r in rows],
        offsets=offsets,
        flat=flat,
        texts=[docs.texts[r] for r in rows],
        present=docs.present,
    )


def write_features(path, docs: Docs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(docs.lines())


def _csr(doc_of: np.ndarray, tok: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Group (document, token) pairs into per-document sorted unique token ids."""
    order = np.lexsort((tok, doc_of))
    doc_of, tok = doc_of[order], tok[order]
    keep = np.ones(len(tok), dtype=bool)
    keep[1:] = (doc_of[1:] != doc_of[:-1]) | (tok[1:] != tok[:-1])
    doc_of, tok = doc_of[keep], tok[keep]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(doc_of, minlength=n), out=offsets[1:])
    return offsets, tok.astype(np.int32)


# ------------------------------------------------------------------ schema


class SchemaSpace:
    """Token-id layout of schema-shaped documents and the constant pool."""

    def __init__(self, rng: np.random.Generator):
        values = rng.choice(1 << 32, size=CONST_POOL + 64, replace=False)
        values = [int(v) for v in values if int(v) not in TRIVIAL][:CONST_POOL]
        hexes = sorted(f"0x{v:x}" for v in values)
        # token order = canonical (lexicographic) order of the hex strings
        self.const_quoted = [f'"{h}"' for h in hexes]
        # popularity rank r -> pool position, so popular constants are spread
        self.const_by_rank = rng.permutation(CONST_POOL)
        weights = 1.0 / np.arange(1, CONST_POOL + 1) ** ZIPF_S
        self.const_cdf = np.cumsum(weights / weights.sum())

        self.base = {}
        pos = 0
        for name, width in (
            ("cnt", MAX_PARAMS + 1), ("ptype", MAX_PARAMS * 2), ("ret", len(RET_TYPES)),
            ("cat", len(OPERATION_CATEGORIES)), ("bool", len(BOOL_FIELDS) * 2),
            ("sub", SUB_MAX + 1), ("imm", IMM_MAX + 1), ("intr", INTR_MAX + 1),
            ("algo", len(ALGO_CATEGORIES)), ("float", len(FLOAT_POOL)), ("const", CONST_POOL),
        ):
            self.base[name] = pos
            pos += width
        self.n_tokens = pos

    def draw_consts(self, rng: np.random.Generator, total: int) -> np.ndarray:
        ranks = np.searchsorted(self.const_cdf, rng.random(total), side="right")
        return self.const_by_rank[np.minimum(ranks, CONST_POOL - 1)]


@dataclass
class SchemaColumns:
    cnt: np.ndarray
    ptype: np.ndarray  # (n, MAX_PARAMS) 0 Integer / 1 Pointer
    ret: np.ndarray
    cat: np.ndarray  # (n, 6) bool
    bools: np.ndarray  # (n, 11) bool
    sub: np.ndarray
    intr: np.ndarray
    algo: np.ndarray
    floats: np.ndarray  # (n, len(FLOAT_POOL)) bool
    const_off: np.ndarray  # CSR over pool positions, unique within a document
    const_flat: np.ndarray
    imm_extra: np.ndarray

    def __len__(self) -> int:
        return len(self.cnt)


def schema_columns(rng: np.random.Generator, space: SchemaSpace, n: int) -> SchemaColumns:
    cnt = rng.choice(len(CNT_P), size=n, p=CNT_P)
    cat = rng.random((n, len(OPERATION_CATEGORIES))) < np.asarray(CAT_P)
    cat[~cat.any(axis=1), 2] = True  # the list must not be empty
    nfloat = rng.choice(3, size=n, p=(0.8, 0.15, 0.05))
    floats = np.zeros((n, len(FLOAT_POOL)), dtype=bool)
    for k in (1, 2):
        rows = np.nonzero(nfloat >= k)[0]
        floats[rows, rng.integers(0, len(FLOAT_POOL), size=len(rows))] = True
    nconst = np.minimum(rng.geometric(0.22, size=n) - 1, MAX_CONSTS)
    const_doc = np.repeat(np.arange(n), nconst)
    const_off, const_flat = _csr(const_doc, space.draw_consts(rng, int(nconst.sum())), n)
    intr = np.where(rng.random(n) < 0.97, 0, rng.integers(1, INTR_MAX + 1, size=n))
    return SchemaColumns(
        cnt=cnt,
        ptype=(rng.random((n, MAX_PARAMS)) < 0.45).astype(np.int64),
        ret=rng.choice(len(RET_TYPES), size=n, p=RET_P),
        cat=cat,
        bools=rng.random((n, len(BOOL_FIELDS))) < np.asarray(BOOL_P),
        sub=np.minimum(rng.geometric(0.45, size=n) - 1, SUB_MAX),
        intr=intr,
        algo=rng.choice(len(ALGO_CATEGORIES), size=n, p=ALGO_P),
        floats=floats,
        const_off=const_off,
        const_flat=const_flat,
        imm_extra=np.minimum(rng.geometric(0.15, size=n) - 1, IMM_MAX - MAX_CONSTS),
    )


def take_columns(cols: SchemaColumns, rows) -> SchemaColumns:
    rows = np.asarray(rows, dtype=np.int64)
    sizes = np.diff(cols.const_off)[rows]
    off = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(sizes, out=off[1:])
    flat = (
        np.concatenate([cols.const_flat[cols.const_off[r]:cols.const_off[r + 1]] for r in rows])
        if len(rows) else cols.const_flat[:0]
    )
    return SchemaColumns(
        cnt=cols.cnt[rows].copy(), ptype=cols.ptype[rows].copy(), ret=cols.ret[rows].copy(),
        cat=cols.cat[rows].copy(), bools=cols.bools[rows].copy(), sub=cols.sub[rows].copy(),
        intr=cols.intr[rows].copy(), algo=cols.algo[rows].copy(),
        floats=cols.floats[rows].copy(), const_off=off, const_flat=flat.astype(np.int64),
        imm_extra=cols.imm_extra[rows].copy(),
    )


def drift_columns(rng: np.random.Generator, cols: SchemaColumns) -> SchemaColumns:
    """The O3 drift, applied to a copy of every row."""
    n = len(cols)
    out = take_columns(cols, np.arange(n))
    redraw = rng.random(n) < 0.5
    out.ret[redraw] = rng.choice(len(RET_TYPES), size=int(redraw.sum()), p=RET_P)
    redraw = rng.random(n) < 0.5
    out.algo[redraw] = rng.choice(len(ALGO_CATEGORIES), size=int(redraw.sum()), p=ALGO_P)
    flips = rng.integers(1, 4, size=n)
    for k in range(3):
        rows = np.nonzero(flips > k)[0]
        cols_ix = np.asarray(DRIFT_BOOLS)[rng.integers(0, len(DRIFT_BOOLS), size=len(rows))]
        out.bools[rows, cols_ix] = ~out.bools[rows, cols_ix]
    drop = (rng.random(n) < 0.4) & (out.cnt > 1)
    out.cnt[drop] -= 1
    keep = rng.random(len(out.const_flat)) < 0.8
    nconst = np.diff(out.const_off)
    doc_of = np.repeat(np.arange(n), nconst)
    # a document that had constants keeps at least its first one
    lost_all = (nconst > 0) & (np.bincount(doc_of[keep], minlength=n) == 0)
    keep[out.const_off[:-1][lost_all]] = True
    out.const_off, flat = _csr(doc_of[keep], out.const_flat[keep], n)
    out.const_flat = flat.astype(np.int64)
    return out


def _quoted(values) -> list[str]:
    return [json.dumps(v) for v in values]


def _list_table(name: str, values, width: int) -> list[str]:
    """``"name":[...]`` for every subset of ``values``, indexed by bit mask."""
    q = _quoted(values)
    return [
        f'"{name}":[' + ",".join(q[j] for j in range(width) if mask >> j & 1) + "]"
        for mask in range(1 << width)
    ]


_BITS = 1 << np.arange(64, dtype=np.int64)
_HEAD = [
    f'"in_param_cnt":{cnt},"in_param_types":['
    + ",".join(json.dumps(PARAM_TYPES[bits >> j & 1]) for j in range(cnt)) + "]"
    for cnt in range(MAX_PARAMS + 1) for bits in range(1 << MAX_PARAMS)
]
_RET = [f'"ret_type":{json.dumps(v)}' for v in RET_TYPES]
_CAT = _list_table("dominant_operation_categories", OPERATION_CATEGORIES, len(OPERATION_CATEGORIES))
_BOOL = [
    ",".join(f'"{name}":{"true" if mask >> j & 1 else "false"}' for j, name in enumerate(BOOL_FIELDS))
    for mask in range(1 << len(BOOL_FIELDS))
]
_ALGO = [f'"inferred_algo":{json.dumps(v)}' for v in ALGO_CATEGORIES]


def encode_schema(space: SchemaSpace, cols: SchemaColumns, ids: list[str]) -> Docs:
    n = len(cols)
    b = space.base
    nconst = np.diff(cols.const_off)
    imm = np.minimum(nconst + cols.imm_extra, IMM_MAX)
    fixed = [
        b["cnt"] + cols.cnt,
        b["ret"] + cols.ret,
        b["sub"] + cols.sub,
        b["imm"] + imm,
        b["intr"] + cols.intr,
        b["algo"] + cols.algo,
    ]
    fixed += [b["bool"] + 2 * j + cols.bools[:, j] for j in range(len(BOOL_FIELDS))]
    doc_of = [np.tile(np.arange(n), len(fixed))]
    tok = [np.concatenate(fixed)]
    for j in range(MAX_PARAMS):
        rows = np.nonzero(cols.cnt > j)[0]
        doc_of.append(rows)
        tok.append(b["ptype"] + 2 * j + cols.ptype[rows, j])
    rows, which = np.nonzero(cols.cat)
    doc_of.append(rows)
    tok.append(b["cat"] + which)
    rows, which = np.nonzero(cols.floats)
    doc_of.append(rows)
    tok.append(b["float"] + which)
    doc_of.append(np.repeat(np.arange(n), nconst))
    tok.append(b["const"] + cols.const_flat)
    offsets, flat = _csr(np.concatenate(doc_of), np.concatenate(tok), n)

    used = np.arange(MAX_PARAMS) < cols.cnt[:, None]
    head = (cols.cnt * (1 << MAX_PARAMS) + ((cols.ptype * used) @ _BITS[:MAX_PARAMS])).tolist()
    cat = (cols.cat @ _BITS[: len(OPERATION_CATEGORIES)]).tolist()
    bools = (cols.bools @ _BITS[: len(BOOL_FIELDS)]).tolist()
    floats = (cols.floats @ _BITS[: len(FLOAT_POOL)]).tolist()
    float_text: dict[int, str] = {}
    qfloat = _quoted(FLOAT_POOL)
    for mask in set(floats):
        float_text[mask] = (
            '"float_consts":[' + ",".join(qfloat[j] for j in range(len(FLOAT_POOL)) if mask >> j & 1) + "]"
        )
    ret, sub, intr, algo = cols.ret.tolist(), cols.sub.tolist(), cols.intr.tolist(), cols.algo.tolist()
    imm_l, coff, cflat = imm.tolist(), cols.const_off.tolist(), cols.const_flat.tolist()
    qhex = space.const_quoted
    texts = [
        f'{{{_HEAD[head[i]]},{_RET[ret[i]]},{_CAT[cat[i]]},{_BOOL[bools[i]]},'
        f'"subcall_targets":{sub[i]},"int_consts":[{",".join(map(qhex.__getitem__, cflat[coff[i]:coff[i + 1]]))}],'
        f'{float_text[floats[i]]},"imm_values_cnt":{imm_l[i]},'
        f'"interrupts_syscalls":{intr[i]},{_ALGO[algo[i]]}}}'
        for i in range(n)
    ]
    return Docs(ids=ids, offsets=offsets, flat=flat, texts=texts)


# ------------------------------------------------------------------ uniform

UNIFORM_QUOTED = [f'"{w}"' for w in sorted(f"{i}.5" for i in range(UNIFORM_VOCAB))]


def uniform_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform random UNIFORM_TOKENS-subsets of the vocabulary, sorted per row
    (rows that drew a repeat are drawn again)."""
    rows = np.empty((n, UNIFORM_TOKENS), dtype=np.int64)
    todo = np.arange(n)
    while len(todo):
        draw = np.sort(rng.integers(0, UNIFORM_VOCAB, size=(len(todo), UNIFORM_TOKENS)), axis=1)
        ok = (draw[:, 1:] != draw[:, :-1]).all(axis=1)
        rows[todo[ok]] = draw[ok]
        todo = todo[~ok]
    return rows


def drift_uniform(rng: np.random.Generator, rows: np.ndarray) -> np.ndarray:
    """Replace UNIFORM_DRIFT tokens of every row with tokens it does not hold."""
    out = rows.copy()
    for i, row in enumerate(rows.tolist()):
        held = set(row)
        kept = rng.permutation(row)[: UNIFORM_TOKENS - UNIFORM_DRIFT].tolist()
        fresh: list[int] = []
        while len(fresh) < UNIFORM_DRIFT:
            for t in rng.integers(0, UNIFORM_VOCAB, size=UNIFORM_DRIFT).tolist():
                if t not in held and len(fresh) < UNIFORM_DRIFT:
                    held.add(t)
                    fresh.append(t)
        out[i] = np.sort(kept + fresh)
    return out


def encode_uniform(rows: np.ndarray, ids: list[str]) -> Docs:
    n = len(rows)
    offsets = np.arange(0, (n + 1) * UNIFORM_TOKENS, UNIFORM_TOKENS, dtype=np.int64)
    q = UNIFORM_QUOTED
    texts = [
        '{"float_consts":[' + ",".join(map(q.__getitem__, row)) + "]}" for row in rows.tolist()
    ]
    return Docs(
        ids=ids, offsets=offsets, flat=rows.astype(np.int32).ravel(),
        texts=texts, present=["float_consts"],
    )


# ------------------------------------------------------------------ listings


class _Addr:
    def __init__(self, rng: random.Random, base: int):
        self.rng = rng
        self.value = base

    def emit(self, lines: list[str], text: str) -> int:
        current = self.value
        self.value += self.rng.choice((2, 3, 4, 5, 7))
        lines.append(f"{current:x}: {text}")
        return current


def _o0_body(rng: random.Random, base: int, consts: list[int], callees: list[str]) -> list[str]:
    lines: list[str] = []
    addr = _Addr(rng, base)
    addr.emit(lines, "push rbp")
    addr.emit(lines, "mov rbp, rsp")
    addr.emit(lines, f"sub rsp, 0x{rng.choice((0x10, 0x18, 0x20, 0x30)):x}")
    addr.emit(lines, "mov [rbp+var_8], rdi")
    if rng.random() < 0.6:
        addr.emit(lines, "mov [rbp+var_10], rsi")
    for value in consts:
        slot = rng.choice(("eax", "ecx", "edx", "dword ptr [rbp+var_c]"))
        addr.emit(lines, f"mov {slot}, 0x{value:x}")
        if rng.random() < 0.4:
            addr.emit(lines, "mov rax, [rbp+var_8]")
    for callee in callees:
        addr.emit(lines, "mov rdi, rax")
        addr.emit(lines, f"call {callee}")
    if rng.random() < 0.5:
        addr.emit(lines, f"mov ecx, 0x{rng.randrange(2, 60):x}")
        top = addr.emit(lines, "add eax, edx")
        addr.emit(lines, "dec ecx")
        addr.emit(lines, f"jne 0x{top:x}")
    addr.emit(lines, "mov eax, 0")
    addr.emit(lines, "leave")
    addr.emit(lines, "ret")
    return lines


def _o3_body(rng: random.Random, base: int, consts: list[int], callees: list[str]) -> list[str]:
    lines: list[str] = []
    addr = _Addr(rng, base)
    if rng.random() < 0.25:
        addr.emit(lines, "movdqa xmm0, cs:xmmword_5a1000")
        addr.emit(lines, "movups xmmword ptr [rdi], xmm0")
    for value in [v for v in consts if rng.random() < 0.8] or consts[:1]:
        addr.emit(lines, f"mov dword ptr [rdi+{rng.choice((8, 16, 24)):#x}], 0x{value:x}")
    for callee in callees:
        if rng.random() < 0.7:
            addr.emit(lines, f"call {callee}")
    if rng.random() < 0.35:
        top = addr.emit(lines, "add eax, [rdi+rcx*4]")
        addr.emit(lines, "dec edx")
        addr.emit(lines, f"jne 0x{top:x}")
    addr.emit(lines, "xor eax, eax")
    addr.emit(lines, "ret")
    return lines


def listing_bodies(seed: int, symbols: list[str], opt_level: str) -> list[list[str]]:
    """Instruction lines per symbol, synthesized as in tools/make_mini_corpus.py
    except that every function starts at its own address, so no two prompts
    (and so no two fixture keys) coincide."""
    pool_rng = random.Random(f"{seed}:pools")
    const_pool = [pool_rng.randrange(0x20, 1 << pool_rng.choice((8, 16, 24))) for _ in range(64)]
    callee_pool = [f"sub_{pool_rng.randrange(0x400000, 0x40ffff):x}" for _ in range(32)]
    bodies = []
    for i, symbol in enumerate(symbols):
        base = (0x400000 if opt_level == "O0" else 0x10000000) + (i + 1) * 0x1000
        sym_rng = random.Random(f"{seed}:{symbol}")
        consts = sym_rng.sample(const_pool, sym_rng.randint(1, 4))
        callees = sym_rng.sample(callee_pool, sym_rng.randint(0, 2))
        body_rng = random.Random(f"{seed}:{symbol}:{opt_level}")
        body = (_o0_body if opt_level == "O0" else _o3_body)(body_rng, base, consts, callees)
        bodies.append(body)
    return bodies


def listing_text(symbols: list[str], bodies: list[list[str]]) -> str:
    return "\n\n".join(
        "\n".join([f"; FUNCTION {s}", *body]) for s, body in zip(symbols, bodies)
    ) + "\n"


# ------------------------------------------------------------------ embeddings


def embeddings(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, EMBED_DIM))


def drifted_embeddings(rng: np.random.Generator, source: np.ndarray) -> np.ndarray:
    return source + EMBED_NOISE * rng.standard_normal(source.shape)


def self_lookup_embeddings(n: int) -> np.ndarray:
    return np.random.default_rng(SELF_LOOKUP_RNG_SEED).standard_normal((n, EMBED_DIM))


def write_embeddings(path, ids: list[str], vectors: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for fid, row in zip(ids, vectors.tolist()):
            fh.write(json.dumps({"id": fid, "values": row}, separators=(",", ":")) + "\n")
