"""Shared generators and brute-force oracles for the test suite.

The oracles are deliberately written against the written contracts, not the
library internals: exhaustive scans, direct counting, plain arithmetic.
"""

from __future__ import annotations

import http.server
import json
import random
import struct
import threading
import zlib

import numpy as np

from asmsieve.schema import (
    ALGO_CATEGORIES,
    OPERATION_CATEGORIES,
    PARAM_TYPES,
    RET_TYPES,
    TRIVIAL_CONSTANTS,
    FeatureSet,
    validate,
)

BOOL_FIELDS = (
    "loop", "jump_table", "indexed_addr", "simd", "string_literals",
    "mutates_inputs", "mutates_globals", "mem_alloc", "io_ops",
    "block_mem_ops", "error_handling",
)

# A vector whose cosine with itself rounds to 1.0000000000000002 in float64:
# the first row of this draw.
SELF_OVER_ONE = np.random.default_rng(0).standard_normal((5, 64))[0]


class ScriptedClient:
    """Returns canned responses in order; records the temperatures it saw."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.temperatures = []

    def complete(self, system_text, user_text, temperature, max_output_tokens=0):
        self.temperatures.append(temperature)
        if not self.responses:
            raise AssertionError("client called more often than scripted")
        return self.responses.pop(0)

_FLOAT_POOL = ("0.5", "3.14159", "2.71828", "1.5", "0.25", "6.02e23", "-0.125")


def random_hex_constants(rng: random.Random, max_entries: int = 15) -> list[str]:
    out: set[str] = set()
    for _ in range(rng.randint(0, max_entries)):
        value = rng.randint(2, 1 << 48)
        if value in TRIVIAL_CONSTANTS:
            continue
        out.add(f"0x{value:x}")
    return sorted(out)


def random_feature_set(rng: random.Random, with_extensions: bool = False) -> FeatureSet:
    cnt = rng.randint(0, 4)
    doc = {
        "in_param_cnt": cnt,
        "in_param_types": [rng.choice(PARAM_TYPES) for _ in range(cnt)],
        "ret_type": rng.choice(RET_TYPES),
        "dominant_operation_categories": rng.sample(
            OPERATION_CATEGORIES, rng.randint(1, len(OPERATION_CATEGORIES))
        ),
        "subcall_targets": rng.randint(0, 6),
        "int_consts": random_hex_constants(rng),
        "float_consts": sorted(
            rng.sample(_FLOAT_POOL, rng.randint(0, 3))
        ),
        "imm_values_cnt": rng.randint(0, 40),
        "interrupts_syscalls": rng.randint(0, 3),
        "inferred_algo": rng.choice(ALGO_CATEGORIES),
    }
    for name in BOOL_FIELDS:
        doc[name] = rng.random() < 0.5
    if with_extensions and rng.random() < 0.5:
        doc["origin"] = rng.choice(["static", "model-a", "model-b"])
        doc["tags"] = rng.sample(["crypto", "parser", "io", "math"], rng.randint(0, 2))
    return validate(doc)


def random_token_set(rng: random.Random, vocab: list[str], max_tokens: int = 40) -> frozenset[str]:
    size = rng.randint(1, max_tokens)
    return frozenset(rng.sample(vocab, min(size, len(vocab))))


def exhaustive_search(
    docs: dict[str, frozenset[str]], query: frozenset[str], k: int
) -> list[tuple[str, float]]:
    """Reference ranking: score every document |A ∩ B| / |A ∪ B|, or 1.0 when
    both sets are empty, order by descending score then ascending id."""
    scored = []
    for fid, tokens in docs.items():
        union = len(query | tokens)
        scored.append((fid, len(query & tokens) / union if union else 1.0))
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[: min(k, len(scored))]


def brute_force_metrics(
    pairs: list[tuple[str, str]], score: "callable"
) -> tuple[float, float, list[int]]:
    """Reference MRR / Recall@1: count how many candidates beat the truth."""
    rights = sorted(r for _, r in pairs)
    ranks = []
    for left, right in pairs:
        s_true = score(left, right)
        rank = 1
        for cand in rights:
            s = score(left, cand)
            if s > s_true or (s == s_true and cand < right):
                rank += 1
        ranks.append(rank)
    mrr = sum(1.0 / r for r in ranks) / len(ranks)
    recall = sum(1 for r in ranks if r == 1) / len(ranks)
    return mrr, recall, ranks


# Index snapshots, read and written per the layout in asmsieve.index's
# docstring: magic, uint32 version, then (uint64 length, uint32 CRC32,
# payload) sections.

SNAPSHOT_MAGIC = b"ASMSIEVE1"


def snapshot_sections(blob: bytes) -> list[bytes]:
    """The section payloads of a well-formed snapshot."""
    pos = len(SNAPSHOT_MAGIC) + 4
    sections = []
    while pos < len(blob):
        length, _ = struct.unpack_from("<QI", blob, pos)
        sections.append(blob[pos + 12 : pos + 12 + length])
        pos += 12 + length
    return sections


def seal_snapshot(sections: list[bytes], version: int = 3) -> bytes:
    """A snapshot file of these payloads, lengths and CRCs made to match."""
    parts = [SNAPSHOT_MAGIC, struct.pack("<I", version)]
    for payload in sections:
        parts += [struct.pack("<QI", len(payload), zlib.crc32(payload)), payload]
    return b"".join(parts)


def snapshot_documents(sections: list[bytes]) -> dict[str, frozenset[str]]:
    """The documents the ids, tokens, offsets and postings sections describe."""
    ids, tokens = json.loads(sections[1]), json.loads(sections[2])
    offsets = struct.unpack(f"<{len(sections[3]) // 8}q", sections[3])
    postings = struct.unpack(f"<{len(sections[4]) // 4}i", sections[4])
    docs: dict[str, set[str]] = {fid: set() for fid in ids}
    for t, token in enumerate(tokens):
        for doc in postings[offsets[t] : offsets[t + 1]]:
            assert 0 <= doc < len(ids), f"posting {doc} names no document"
            docs[ids[doc]].add(token)
    return {fid: frozenset(tokens) for fid, tokens in docs.items()}


class ChatEndpoint:
    """A chat endpoint on 127.0.0.1 that records each request and answers with
    the status and body set on it."""

    def __init__(self):
        self.requests = []
        self.status = 200
        self.body = b"{}"
        endpoint = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                data = self.rfile.read(int(self.headers["Content-Length"]))
                endpoint.requests.append(
                    {"path": self.path, "headers": dict(self.headers), "payload": json.loads(data)}
                )
                self.send_response(endpoint.status)
                self.send_header("Content-Length", str(len(endpoint.body)))
                self.end_headers()
                self.wfile.write(endpoint.body)

            def log_message(self, *args):
                pass

        self.server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_port}/v1/chat"
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    def reply(self, doc, status=200):
        self.body = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
        self.status = status

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()
