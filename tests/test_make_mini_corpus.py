"""``tools/make_mini_corpus.py`` rewrites ``tests/data/mini`` byte for byte.

Fixture files are named by the SHA-256 of their prompt, so this also catches
any drift in the prompt bytes."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MINI = ROOT / "tests" / "data" / "mini"


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_regenerates_the_committed_mini_corpus(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_mini_corpus", ROOT / "tools" / "make_mini_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(sys, "argv", ["make_mini_corpus.py"])
    assert module.main() == 0
    written, committed = _files(tmp_path), _files(MINI)
    assert sorted(written) == sorted(committed)
    for name, body in committed.items():
        assert written[name] == body, name
