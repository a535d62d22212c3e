"""Token-set flattening, Jaccard overlap, cosine, and the hybrid combiner.

Flattening turns a feature document into a set of text tokens:

  * scalar / boolean / enum fields: ``field=value``
  * set-like arrays (``int_consts``, ``float_consts``,
    ``dominant_operation_categories``): ``field~element``
  * positional arrays (``in_param_types``, extension arrays): ``field~i:element``
    so that argument order still matters under set semantics
  * extension scalars/objects: ``name=<compact JSON>``

Two valid full documents flatten to equal token sets exactly when their
canonical texts are equal. Optional log-bucketing coarsens the four count
fields for robustness experiments; it is off by default.

Each core field's token rule lives in one emitter, built once from
``schema.FIELDS`` for each ``FlattenConfig`` (a table by field name).
``flatten`` applies it to a validated ``FeatureSet``; ``read_token_sets``
goes from a features-file line to its token set in one pass, calling each
field's validator and then its emitter, with no ``FeatureSet`` in between.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import SchemaError
from .schema import (
    ARRAY_KINDS,
    FIELDS,
    MAX_INT_CONSTS,
    FeatureSet,
    FieldSpec,
    _sorted_json,
    check_complete,
    field_validators,
    located,
    read_json_lines,
    read_records,
    required_set,
)

BUCKETED_FIELDS = ("in_param_cnt", "imm_values_cnt", "subcall_targets", "interrupts_syscalls")

_POSITIONAL_ARRAYS = {"in_param_types"}
# the constants arrays, memoized by entry (see read_token_sets), not as whole arrays
_CONSTANTS = {"int_consts", "float_consts"}


@dataclass(frozen=True)
class FlattenConfig:
    """Knobs for token generation. ``bucket_counts`` swaps exact count tokens
    for log buckets; ``atomic_arrays`` emits one token per array instead of
    one per element."""

    bucket_counts: bool = False
    atomic_arrays: bool = False


@dataclass(frozen=True)
class TokenSet:
    tokens: frozenset[str]
    source: str = ""

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class HybridScore:
    s_a: float
    s_e: float
    S: float


def count_bucket(n: int) -> str:
    """Log bucket label: 0, 1, 2, 3-4, 5-8, 9-16, ..."""
    if n < 0:
        raise ValueError(f"count must be >= 0, got {n}")
    if n <= 2:
        return str(n)
    low = 2
    while low * 2 < n:
        low *= 2
    return f"{low + 1}-{low * 2}"


def _extension_value(value: Any) -> str:
    return json.dumps(_sorted_json(value), separators=(",", ":"))


def _extension_tokens(key: str, value: Any, atomic_arrays: bool) -> Iterable[str]:
    if isinstance(value, list) and not atomic_arrays:
        return [f"{key}~{i}:{_extension_value(v)}" for i, v in enumerate(value)]
    return (f"{key}={_extension_value(value)}",)


def _field_emitter(spec: FieldSpec, cfg: FlattenConfig) -> Callable[[Any], tuple[str, ...]]:
    name = spec.name
    if spec.kind in ARRAY_KINDS:
        if cfg.atomic_arrays:
            return lambda v: (f"{name}={json.dumps(list(v), separators=(',', ':'))}",)
        if name in _POSITIONAL_ARRAYS:
            return lambda v: tuple(f"{name}~{i}:{x}" for i, x in enumerate(v))
        return lambda v: tuple(f"{name}~{x}" for x in v)
    if cfg.bucket_counts and name in BUCKETED_FIELDS:
        return lambda v: (f"{name}=bucket:{count_bucket(v)}",)
    if spec.kind == "bool":
        return lambda v: (f"{name}={'true' if v else 'false'}",)
    return lambda v: (f"{name}={v}",)


# (bucket_counts, atomic_arrays) -> the token emitter of each core field, by
# name: it takes the validated value and returns the field's tokens.
_EMITTERS: dict[tuple[bool, bool], dict[str, Callable[[Any], tuple[str, ...]]]] = {
    (b, a): {spec.name: _field_emitter(spec, FlattenConfig(b, a)) for spec in FIELDS}
    for b in (False, True)
    for a in (False, True)
}


def _emitters(cfg: FlattenConfig) -> dict[str, Callable[[Any], tuple[str, ...]]]:
    return _EMITTERS[bool(cfg.bucket_counts), bool(cfg.atomic_arrays)]


def flatten(fs: FeatureSet, config: FlattenConfig | None = None, source: str = "") -> TokenSet:
    """Flatten a feature document into its field-value token set."""
    cfg = config or FlattenConfig()
    emit = _emitters(cfg)
    tokens: set[str] = set()
    for name, value in fs.fields.items():
        tokens.update(emit[name](value))
    for key, value in fs.extensions.items():
        tokens.update(_extension_tokens(key, value, cfg.atomic_arrays))
    return TokenSet(tokens=frozenset(tokens), source=source)


def _memoized(fn: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """``fn`` with its results kept, keyed on ``(type(v), v)`` so that
    ``True``, ``1`` and ``1.0`` stay apart (a float by its repr, since
    ``0.0 == -0.0``) and a list on its tuple. Only results are kept, never
    errors: a list is only ever valid as a list of strings, whose tuple no
    other JSON value equals. An unhashable value bypasses the cache."""
    cache: dict = {}

    def call(value: Any) -> Any:
        kind = type(value)
        key = tuple(value) if kind is list else (kind, repr(value) if kind is float else value)
        try:
            out = cache.get(key)
        except TypeError:
            return fn(value)
        if out is None:
            out = cache[key] = fn(value)
        return out

    return call


def _constants_step(name: str, check: Callable[[Any], tuple[str, ...]],
                    emit: Callable[[Any], tuple[str, ...]], atomic: bool) -> Callable[[Any], Any]:
    """The token step of ``int_consts`` or ``float_consts``: ``emit(check(v))``,
    served from a table of the string entries seen so far. Each entry maps to
    its token, or under ``atomic`` to its normalized text, so an array whose
    entries are all in the table costs one C-level ``map``. On a miss (an
    entry not in the table, or an unhashable one) the array is walked entry
    by entry: a string in the table gives its token, and any other entry is
    validated alone, raising the error ``check`` raises at the array's first
    invalid entry; a string entry is then recorded. The table holds only
    ``str`` keys, so ``True``, ``1`` and ``1.0`` never meet a string's entry.
    A value that is no list, or an ``int_consts`` array of more than
    ``MAX_INT_CONSTS`` distinct entries, goes to ``check`` for its error.
    Without ``atomic`` the tokens come unsorted and possibly repeated, for
    the caller's frozenset."""
    table: dict[str, str] = {}
    limit = MAX_INT_CONSTS if name == "int_consts" else None

    def entry(x: Any) -> str:
        text = check([x])
        out = text[0] if atomic else emit(text)[0]
        if type(x) is str:
            table[x] = out
        return out

    def step(value: Any) -> Any:
        if type(value) is list:
            try:
                items = list(map(table.__getitem__, value))
            except (KeyError, TypeError):
                items = [table[x] if type(x) is str and x in table else entry(x) for x in value]
            if limit is None or len(items) <= limit or len(set(items)) <= limit:
                return emit(tuple(sorted(set(items)))) if atomic else items
        return emit(check(value))

    return step


def read_token_sets(paths, config: FlattenConfig | None = None,
                    only: str | None = None) -> Iterator[tuple[str, frozenset[str]]]:
    """Yield ``(id, tokens)`` for each record of the features files, with
    ``tokens == flatten(validate(features, present), config).tokens``: each
    field is validated and turned into tokens in one pass over the document,
    through ``schema.field_validators`` and this module's emitters, with no
    FeatureSet in between. Errors are those of ``schema.read_records``, and
    so is ``only``: the one id whose record is validated and yielded.

    A line costs one JSON decode, the record checks and one step per
    field, memoized for the duration of the call: by value for the scalar
    fields, ``in_param_types`` and ``dominant_operation_categories``, and
    for ``int_consts`` and ``float_consts`` by a table from each string
    entry to its token (``_constants_step``), so an array of entries seen
    on earlier lines costs one C-level ``map`` and an unseen entry is
    validated once. On the benchmark's seed-11 ``query-uniform`` file
    (100,000 lines of 30 ``float_consts`` from 4,000 distinct values, 99.5 %
    of arrays fully seen; 2-vCPU host) the reader took 2.5 s where
    one memoized call, a sort and a format per entry took 4.9 s."""
    cfg = config or FlattenConfig()
    emit = _emitters(cfg)
    steps: dict[str, Callable[[Any], Iterable[str]]] = {}
    for name, check in field_validators().items():
        if name in _CONSTANTS:
            steps[name] = _constants_step(name, check, emit[name], cfg.atomic_arrays)
        else:
            steps[name] = _memoized(lambda v, check=check, emit=emit[name]: emit(check(v)))

    def tokens(doc: Any, present: list[str] | None) -> frozenset[str]:
        if not isinstance(doc, dict):  # decoded JSON holds no other Mapping
            raise SchemaError(f"feature document must be a JSON object, got {type(doc).__name__}")
        required = required_set(present)
        out: list[str] = []
        for name, value in doc.items():
            step = steps.get(name)
            out.extend(step(value) if step else _extension_tokens(name, value, cfg.atomic_arrays))
        check_complete(doc, required)
        return frozenset(out)

    return read_records(paths, tokens, only)


def _as_token_frozenset(x: TokenSet | Iterable[str]) -> frozenset[str]:
    if isinstance(x, TokenSet):
        return x.tokens
    return frozenset(x)


def jaccard(a: TokenSet | Iterable[str], b: TokenSet | Iterable[str]) -> float:
    """|A ∩ B| / |A ∪ B|; defined as 1.0 when both sets are empty."""
    sa, sb = _as_token_frozenset(a), _as_token_frozenset(b)
    union = len(sa | sb)
    if union == 0:
        return 1.0
    return len(sa & sb) / union


@dataclass(frozen=True, eq=False)
class EmbeddingVector:
    """A non-empty 1-D float64 embedding. It holds its own read-only copy of
    ``values`` and that copy's Euclidean ``norm``, computed once here, so
    neither can change after construction."""

    values: np.ndarray
    norm: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1 or values.shape[0] == 0:
            raise ValueError("embedding must be a non-empty 1-D vector")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "norm", float(np.linalg.norm(values)))

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])


def _as_embedding(v: EmbeddingVector | Iterable[float]) -> EmbeddingVector:
    if isinstance(v, EmbeddingVector):
        return v
    return EmbeddingVector(v if isinstance(v, np.ndarray) else list(v))


def _check_pair(u: EmbeddingVector, v: EmbeddingVector) -> None:
    if u.dim != v.dim:
        raise ValueError(f"embedding dimensions differ: {u.dim} vs {v.dim}")
    if u.norm == 0.0 or v.norm == 0.0:
        raise ValueError("cosine similarity is undefined for a zero vector")


def cosine(u: EmbeddingVector | Iterable[float], v: EmbeddingVector | Iterable[float]) -> float:
    """``u · v / (|u| |v|)`` in float64, from the vectors' cached norms."""
    eu, ev = _as_embedding(u), _as_embedding(v)
    _check_pair(eu, ev)
    return float(np.dot(eu.values, ev.values) / (eu.norm * ev.norm))


def cosines(u: EmbeddingVector | Iterable[float], vs: Sequence[EmbeddingVector]) -> np.ndarray:
    """``[cosine(u, v) for v in vs]`` as one float64 array, bit for bit, with
    the same first error. ``np.vecdot`` of the stacked rows with ``u`` runs
    the same dot product per row as ``np.dot`` does for one pair, and the
    norm products and quotients are the same IEEE operations, element by
    element; a matrix product (``M @ u``) would not be."""
    if not vs:
        return np.empty(0)
    eu = _as_embedding(u)
    rows = [v.values for v in vs]
    norms = np.array([v.norm for v in vs])
    if eu.norm == 0.0 or not norms.all() or set(map(len, rows)) != {eu.dim}:
        for v in vs:
            _check_pair(eu, v)
    stacked = np.concatenate(rows).reshape(len(rows), eu.dim)
    return np.vecdot(stacked, eu.values) / (eu.norm * norms)


def hybrid(s_a: float, s_e: float) -> HybridScore:
    """Equal-weight combination of token overlap and embedding similarity."""
    if not 0.0 <= s_a <= 1.0:
        raise ValueError(f"s_a must lie in [0, 1], got {s_a}")
    if not -1.0 <= s_e <= 1.0:
        raise ValueError(f"s_e must lie in [-1, 1], got {s_e}")
    return HybridScore(s_a=s_a, s_e=s_e, S=(s_e + s_a) / 2)


class EmbeddingStore:
    """Embeddings keyed by function id, all sharing one dimension."""

    def __init__(self) -> None:
        self._vectors: dict[str, EmbeddingVector] = {}
        self._dim: int | None = None

    def add(self, fid: str, values: Iterable[float]) -> None:
        vec = EmbeddingVector(list(values))
        if not np.all(np.isfinite(vec.values)):
            raise ValueError(f"embedding for {fid!r} holds a NaN or infinite value")
        if not np.any(vec.values):
            raise ValueError(f"embedding for {fid!r} is all-zero")
        if self._dim is None:
            self._dim = vec.dim
        elif vec.dim != self._dim:
            raise ValueError(
                f"embedding for {fid!r} has dim {vec.dim}, store uses {self._dim}"
            )
        self._vectors[fid] = vec

    def __contains__(self, fid: str) -> bool:
        return fid in self._vectors

    def __getitem__(self, fid: str) -> EmbeddingVector:
        return self._vectors[fid]

    def __len__(self) -> int:
        return len(self._vectors)

    @property
    def dim(self) -> int | None:
        return self._dim

    def ids(self) -> list[str]:
        return list(self._vectors)


def load_embeddings(path) -> EmbeddingStore:
    """Read a JSON-lines embedding file: ``{"id": ..., "values": [...]}``,
    each id once. Every error is a SchemaError prefixed ``path:line: ``."""
    store = EmbeddingStore()
    error = located(SchemaError, path)
    for line_no, obj in read_json_lines(path, error):
        if "id" not in obj or "values" not in obj:
            raise error(line_no, "expected keys 'id' and 'values'")
        fid = obj["id"]
        if not isinstance(fid, str):
            raise error(line_no, "'id' must be a string")
        if fid in store:
            raise error(line_no, f"duplicate id {fid!r}")
        if not isinstance(obj["values"], list):
            raise error(line_no, "'values' must be a list of numbers")
        try:
            store.add(fid, obj["values"])
        except (TypeError, ValueError) as exc:  # an element that is not a number
            raise error(line_no, str(exc)) from exc
    return store


def save_embeddings(path, vectors: Mapping[str, Iterable[float]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for fid, values in vectors.items():
            fh.write(
                json.dumps({"id": fid, "values": [float(v) for v in values]},
                           separators=(",", ":"))
                + "\n"
            )
