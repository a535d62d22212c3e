"""Recorded-response fixture store and the replay/recording clients.

Layout: one JSON file per prompt, named ``<sha256 of prompt>.json``, holding
every recorded attempt:

    {"prompt_hash": "...",
     "attempts": [{"attempt": 0, "temperature": 0.2, "response": "..."}]}

The prompt hash covers ``system_text + "\\x00" + user_text`` (UTF-8), and a
file's ``prompt_hash`` must name its file: it equals the file's stem. Each
attempt holds an integer ``attempt`` and a numeric (not boolean)
``temperature``. Replay looks responses up by (prompt hash, temperature)
and never falls back to a live client: an unseen key raises
FixtureMissError. Reading and recording both check a fixture file's layout
first, and a malformed file raises a SchemaError naming it (recording
leaves it unchanged). Reads are lock-free; writes are serialized, and each
replaces its file in one ``os.replace``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from .errors import ConfigurationError, FixtureMissError, SchemaError
from .schema import read_json_file


def prompt_sha256(system_text: str, user_text: str) -> str:
    digest = hashlib.sha256()
    digest.update(system_text.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(user_text.encode("utf-8"))
    return digest.hexdigest()


def _read_fixture(path: Path) -> dict:
    """A fixture file's object, once its layout is checked: an object whose
    ``"prompt_hash"`` is its file's stem and whose ``"attempts"`` list holds
    objects with an integer ``"attempt"`` and a numeric ``"temperature"``."""
    data = read_json_file(path, lambda message: SchemaError(f"fixture {path}: {message}"))
    if data.get("prompt_hash") != path.stem:
        raise SchemaError(
            f"fixture {path}: 'prompt_hash' must name its file, got {data.get('prompt_hash')!r}"
        )
    attempts = data.get("attempts")
    if not isinstance(attempts, list) or not all(
        isinstance(a, dict)
        and type(a.get("attempt")) is int
        and type(a.get("temperature")) in (int, float)  # not bool, whose True == 1.0
        for a in attempts
    ):
        raise SchemaError(
            f"fixture {path}: expected an object with a list of attempts,"
            " each with an integer 'attempt' and a numeric 'temperature'"
        )
    return data


class FixtureStore:
    def __init__(self, root: str | Path, create: bool = False):
        self.root = Path(root)
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise ConfigurationError(f"fixture directory does not exist: {self.root}")
        self._write_lock = threading.Lock()

    def _path(self, prompt_hash: str) -> Path:
        return self.root / f"{prompt_hash}.json"

    def get(self, prompt_hash: str, temperature: float) -> str:
        path = self._path(prompt_hash)
        if not path.is_file():
            raise FixtureMissError(
                f"no fixture recorded for prompt {prompt_hash[:16]}… at temperature {temperature!r}"
            )
        for attempt in _read_fixture(path)["attempts"]:
            if attempt.get("temperature") == temperature:
                if not isinstance(attempt.get("response"), str):
                    raise SchemaError(
                        f"fixture {path}: attempt at temperature {temperature!r} has no string response"
                    )
                return attempt["response"]
        raise FixtureMissError(
            f"fixture {prompt_hash[:16]}… holds no attempt at temperature {temperature!r}"
        )

    def put(self, prompt_hash: str, temperature: float, attempt: int, response: str) -> None:
        with self._write_lock:
            path = self._path(prompt_hash)
            if path.is_file():
                data = _read_fixture(path)
            else:
                data = {"prompt_hash": prompt_hash, "attempts": []}
            attempts = [
                a for a in data["attempts"] if a.get("temperature") != temperature
            ]
            attempts.append(
                {"attempt": attempt, "temperature": temperature, "response": response}
            )
            attempts.sort(key=lambda a: a["attempt"])
            data["attempts"] = attempts
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(
                json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8"
            )
            os.replace(tmp, path)


class ReplayClient:
    """Serves recorded responses only; misses are hard errors."""

    def __init__(self, store: FixtureStore):
        self.store = store

    def complete(
        self, system_text: str, user_text: str, temperature: float, max_output_tokens: int = 0
    ) -> str:
        return self.store.get(prompt_sha256(system_text, user_text), temperature)


class RecordingClient:
    """Wraps a live client, persisting every response it returns."""

    def __init__(self, inner, store: FixtureStore):
        self.inner = inner
        self.store = store
        self._attempt_counts: dict[str, int] = {}
        self._count_lock = threading.Lock()

    def complete(
        self, system_text: str, user_text: str, temperature: float, max_output_tokens: int = 0
    ) -> str:
        response = self.inner.complete(system_text, user_text, temperature, max_output_tokens)
        key = prompt_sha256(system_text, user_text)
        with self._count_lock:
            attempt = self._attempt_counts.get(key, 0)
            self._attempt_counts[key] = attempt + 1
        self.store.put(key, temperature, attempt, response)
        return response
