import importlib
import json
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from asmsieve import cli
from asmsieve.schema import validate, save_features
from asmsieve.similarity import save_embeddings
from helpers import SELF_OVER_ONE, ChatEndpoint, seal_snapshot, snapshot_sections

ROOT = Path(__file__).parent.parent
DATA = ROOT / "tests" / "data"
MINI = DATA / "mini"

GOOD_LISTING = """\
; FUNCTION alpha
401000: mov eax, 0x2f41
401005: call sub_401100
40100a: ret
; FUNCTION beta
401100: xor eax, eax
401102: mov ecx, 0x77
401107: ret
; FUNCTION tiny
401200: ret
"""


def run(argv):
    return cli.main(argv)


@pytest.fixture
def listing(tmp_path):
    path = tmp_path / "app.lst"
    path.write_text(GOOD_LISTING)
    return path


@pytest.fixture
def features_file(tmp_path):
    docs = {
        "lib/sha384_init@ARM/O2": validate(
            json.loads((DATA / "sha384_init_arm.json").read_text())
        ),
        "lib/sha384_init@x86-64/O2": validate(
            json.loads((DATA / "sha384_init_x86_64.json").read_text())
        ),
    }
    path = tmp_path / "features.jsonl"
    save_features(path, docs)
    return path


class TestIngest:
    def test_valid_listing(self, listing, tmp_path, capsys):
        out = tmp_path / "corpus.jsonl"
        assert run(["ingest", str(listing), "--library", "lib", "--arch", "x86-64",
                    "--opt-level", "O0", "-o", str(out)]) == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        # `tiny` has fewer than three instructions and is filtered
        assert [r["source_symbol"] for r in records] == ["alpha", "beta"]

    def test_min_instr_flag(self, listing, tmp_path):
        out = tmp_path / "corpus.jsonl"
        assert run(["ingest", str(listing), "--library", "lib", "--arch", "x86-64",
                    "--opt-level", "O0", "--min-instr", "1", "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_malformed_listing_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.lst"
        bad.write_text("mov eax, 1\n")
        rc = run(["ingest", str(bad), "--library", "lib", "--arch", "x86-64",
                  "--opt-level", "O0", "-o", str(tmp_path / "c.jsonl")])
        assert rc == 2
        assert f"{bad}:1: instruction outside any function block" in capsys.readouterr().err

    def test_non_utf8_listing_names_file_and_line(self, listing, tmp_path, capsys):
        bad = tmp_path / "bad.lst"
        bad.write_bytes(b"; FUNCTION alpha\nmov eax, 1\nmov ebx, '\xff'\nret\n")
        rc = run(["ingest", str(listing), str(bad), "--library", "lib", "--arch", "x86-64",
                  "--opt-level", "O0", "-o", str(tmp_path / "c.jsonl")])
        assert rc == 2
        assert (f"{bad}:3: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 10"
                in capsys.readouterr().err)

    def test_listing_error_names_the_second_listing(self, listing, tmp_path, capsys):
        bad = tmp_path / "bad.lst"
        bad.write_text("; FUNCTION alpha\nret\n; FUNCTION\nret\n")
        rc = run(["ingest", str(listing), str(bad), "--library", "lib", "--arch", "x86-64",
                  "--opt-level", "O0", "-o", str(tmp_path / "c.jsonl")])
        assert rc == 2
        assert (f"{bad}:3: function header must be '; FUNCTION <symbol>'"
                in capsys.readouterr().err)

    def test_unknown_flag_exit_2(self, listing, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(["ingest", str(listing), "--library", "lib", "--arch", "x86-64",
                 "--opt-level", "O0", "--bogus"])
        assert excinfo.value.code == 2

    def test_truncation_flag(self, tmp_path):
        lines = "\n".join(f"40{i:04x}: mov eax, {i}" for i in range(200))
        path = tmp_path / "long.lst"
        path.write_text("; FUNCTION big\n" + lines + "\n")
        out = tmp_path / "corpus.jsonl"
        assert run(["ingest", str(path), "--library", "lib", "--arch", "x86-64",
                    "--opt-level", "O0", "-o", str(out)]) == 0
        record = json.loads(out.read_text())
        assert len(record["instructions"]) == 128 and record["truncated"] is True


class TestExtract:
    def _corpus(self, listing, tmp_path):
        out = tmp_path / "corpus.jsonl"
        run(["ingest", str(listing), "--library", "lib", "--arch", "x86-64",
             "--opt-level", "O0", "-o", str(out)])
        return out

    def test_static_client_deterministic(self, listing, tmp_path):
        corpus = self._corpus(listing, tmp_path)
        outputs = []
        for name in ("f1.jsonl", "f2.jsonl"):
            out = tmp_path / name
            assert run(["extract", "--corpus", str(corpus), "--client", "static",
                        "-o", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        first = json.loads(outputs[0].decode().splitlines()[0])
        assert first["features"]["subcall_targets"] == 1

    def test_static_client_skips_literals_too_long_for_int(self, tmp_path, capsys):
        wide = "9" * 5000
        listing = tmp_path / "wide.lst"
        listing.write_text(GOOD_LISTING + f"; FUNCTION wide\nmov eax, {wide}\nb {wide}\nret\n")
        corpus = self._corpus(listing, tmp_path)
        out = tmp_path / "f.jsonl"
        assert run(["extract", "--corpus", str(corpus), "--client", "static", "-o", str(out)]) == 0
        ids = [json.loads(line)["id"] for line in out.read_text().splitlines()]
        assert ids == [f"lib/{name}@x86-64/O0" for name in ("alpha", "beta", "wide")]
        assert "extracted 3/3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body",
        [b'{"choices":[{"message":{"content":null}}]}', b'{"choices":[{"message":{"content":5}}]}',
         b"[" * 100_000],
        ids=["null-content", "number-content", "deep-nesting"],
    )
    def test_unusable_live_answer_exits_3_naming_each_function(self, listing, tmp_path, capsys,
                                                                 body):
        corpus = self._corpus(listing, tmp_path)
        endpoint = ChatEndpoint()
        try:
            endpoint.reply(body)
            rc = run(["extract", "--corpus", str(corpus), "--client", "live", "--url", endpoint.url,
                      "-o", str(tmp_path / "f.jsonl")])
        finally:
            endpoint.close()
        assert rc == 3
        err = capsys.readouterr().err
        for name in ("alpha", "beta"):  # tiny falls below the ingest minimum
            assert f"extraction failed for lib/{name}@x86-64/O0: chat endpoint " in err
        assert "extracted 0/2" in err and "Traceback" not in err

    def test_replay_without_fixtures_is_config_error(self, listing, tmp_path):
        corpus = self._corpus(listing, tmp_path)
        rc = run(["extract", "--corpus", str(corpus), "--client", "replay",
                  "-o", str(tmp_path / "f.jsonl")])
        assert rc == 4

    def test_replay_miss_exits_3(self, listing, tmp_path, capsys):
        corpus = self._corpus(listing, tmp_path)
        empty = tmp_path / "empty_fixtures"
        empty.mkdir()
        rc = run(["extract", "--corpus", str(corpus), "--client", "replay",
                  "--fixtures", str(empty), "-o", str(tmp_path / "f.jsonl")])
        assert rc == 3
        assert "extraction failed" in capsys.readouterr().err

    def test_malformed_fixture_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        run(["ingest", str(MINI / "listings" / "miniapp_x86-64_O0.lst"),
             "--library", "miniapp", "--arch", "x86-64", "--opt-level", "O0",
             "-o", str(corpus)])
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        for src in (MINI / "fixtures").glob("*.json"):
            (fixtures / src.name).write_text("[]")
        rc = run(["extract", "--corpus", str(corpus), "--client", "replay",
                  "--fixtures", str(fixtures), "-o", str(tmp_path / "f.jsonl")])
        assert rc == 2
        assert str(fixtures) in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["[" * 100_000, '"a string"', "[1, 2]"],
                             ids=["deep-nesting", "string", "list"])
    def test_malformed_example_bank_document_exits_2(self, listing, tmp_path, capsys, body):
        corpus = self._corpus(listing, tmp_path)
        bank = tmp_path / "bank"
        shutil.copytree(Path(cli.__file__).parent / "assets" / "examples", bank)
        bad = bank / "ex3_mips.json"
        bad.write_text(body)
        rc = run(["extract", "--corpus", str(corpus), "--client", "static",
                  "--example-bank", str(bank), "-o", str(tmp_path / "f.jsonl")])
        assert rc == 2
        assert f"example bank {bad}: " in capsys.readouterr().err

    @pytest.mark.parametrize("name, body", [("ex1_x86_64.asm", b"; arch: x86-64\n\xff\n"),
                                            ("ex3_mips.json", b'{"loop": 5}')],
                             ids=["asm-not-utf8", "invalid-document"])
    def test_bad_example_bank_file_exits_2_naming_it(self, listing, tmp_path, capsys, name, body):
        corpus = self._corpus(listing, tmp_path)
        bank = tmp_path / "bank"
        shutil.copytree(Path(cli.__file__).parent / "assets" / "examples", bank)
        bad = bank / name
        bad.write_bytes(body)
        rc = run(["extract", "--corpus", str(corpus), "--client", "static",
                  "--example-bank", str(bank), "-o", str(tmp_path / "f.jsonl")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"example bank {bad}: " in err and "Traceback" not in err

    def test_example_bank_that_is_a_file_exits_2(self, listing, tmp_path, capsys):
        corpus = self._corpus(listing, tmp_path)
        rc = run(["extract", "--corpus", str(corpus), "--client", "static",
                  "--example-bank", str(listing), "-o", str(tmp_path / "f.jsonl")])
        assert rc == 2
        assert str(listing) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record",
        [pytest.param("[1,2]", id="list"),
         pytest.param('{"id": 5, "library": "l", "source_symbol": "f", "arch": "x86-64", '
                      '"opt_level": "O0", "instructions": ["ret"]}', id="integer-id")],
    )
    def test_malformed_corpus_record_exits_2(self, tmp_path, capsys, record):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(record + "\n")
        rc = run(["extract", "--corpus", str(corpus), "--client", "static",
                  "-o", str(tmp_path / "f.jsonl")])
        assert rc == 2
        assert f"{corpus}:1: " in capsys.readouterr().err

    def test_mini_corpus_replay_identical_across_runs(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        run(["ingest", str(MINI / "listings" / "miniapp_x86-64_O0.lst"),
             "--library", "miniapp", "--arch", "x86-64", "--opt-level", "O0",
             "-o", str(corpus)])
        outputs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert run(["extract", "--corpus", str(corpus), "--client", "replay",
                        "--fixtures", str(MINI / "fixtures"), "-o", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_parallel_extraction_same_bytes(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        run(["ingest", str(MINI / "listings" / "miniapp_x86-64_O0.lst"),
             "--library", "miniapp", "--arch", "x86-64", "--opt-level", "O0",
             "-o", str(corpus)])
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        run(["extract", "--corpus", str(corpus), "--client", "replay",
             "--fixtures", str(MINI / "fixtures"), "-o", str(serial)])
        run(["extract", "--corpus", str(corpus), "--client", "replay",
             "--fixtures", str(MINI / "fixtures"), "--parallel", "4",
             "-o", str(parallel)])
        assert serial.read_bytes() == parallel.read_bytes()


class TestIndexSearch:
    def test_search_indexed_document_ranks_first(self, features_file, tmp_path, capsys):
        snap = tmp_path / "index.snap"
        assert run(["index", "--features", str(features_file), "-o", str(snap)]) == 0
        rc = run(["search", "--index", str(snap), "--query", str(features_file),
                  "--id", "lib/sha384_init@ARM/O2", "-k", "2", "--format", "json"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["results"][0]["id"] == "lib/sha384_init@ARM/O2"
        assert result["results"][0]["score"] == 1.0

    def test_search_unknown_id_exit_2(self, features_file, tmp_path):
        snap = tmp_path / "index.snap"
        run(["index", "--features", str(features_file), "-o", str(snap)])
        assert run(["search", "--index", str(snap), "--query", str(features_file),
                    "--id", "nope"]) == 2

    def test_failed_search_leaves_output_file_as_it_was(self, features_file, tmp_path, capsys):
        snap = tmp_path / "index.snap"
        run(["index", "--features", str(features_file), "-o", str(snap)])
        out = tmp_path / "out.txt"
        out.write_text("kept\n")
        rc = run(["search", "--index", str(snap), "--query", str(features_file),
                  "-k", "0", "-o", str(out)])
        assert rc == 2
        assert "k must be positive, got 0" in capsys.readouterr().err
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["search", "rerank"])
    def test_id_validates_only_the_selected_query(self, command, features_file, tmp_path, capsys):
        snap = tmp_path / "index.snap"
        run(["index", "--features", str(features_file), "-o", str(snap)])
        emb = tmp_path / "emb.jsonl"
        save_embeddings(emb, {"lib/sha384_init@ARM/O2": [1.0, 0.2],
                              "lib/sha384_init@x86-64/O2": [0.9, 0.3]})
        queries = tmp_path / "queries.jsonl"
        queries.write_text('{"id":"bad","present":["loop"],"features":{"loop":5}}\n'
                           + features_file.read_text())
        argv = ["search", "--index", str(snap), "-k", "2"] if command == "search" else [
            "rerank", "--index", str(snap), "--embeddings", str(emb), "--k1", "2", "--k2", "1"]
        argv += ["--query", str(queries), "--format", "json"]
        capsys.readouterr()
        # The unselected record's invalid field value is not validated ...
        assert run([*argv, "--id", "lib/sha384_init@ARM/O2"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["query"] == "lib/sha384_init@ARM/O2"
        assert result["results"][0] == {"id": "lib/sha384_init@ARM/O2", "score": 1.0}
        # ... but it is when selected, or when every query runs.
        for extra in (["--id", "bad"], []):
            assert run([*argv, *extra]) == 2
            assert f"{queries}:1: field 'loop' must be a boolean" in capsys.readouterr().err
        assert run([*argv, "--id", "nope"]) == 2
        assert "no features for id 'nope'" in capsys.readouterr().err
        # Every line is still parsed and its id checked.
        for line in ("{", features_file.read_text().splitlines()[0]):
            broken = tmp_path / "broken.jsonl"
            broken.write_text(features_file.read_text() + line + "\n")
            argv[argv.index(str(queries))] = str(broken)
            assert run([*argv, "--id", "lib/sha384_init@ARM/O2"]) == 2
            assert f"{broken}:3: " in capsys.readouterr().err
            argv[argv.index(str(broken))] = str(queries)

    def test_corrupt_snapshot_exit_2(self, features_file, tmp_path):
        snap = tmp_path / "index.snap"
        snap.write_bytes(b"garbage")
        assert run(["search", "--index", str(snap), "--query", str(features_file)]) == 2

    def test_invalid_snapshot_exit_2(self, features_file, tmp_path, capsys):
        # CRCs intact, but the last posting names a document past the last.
        snap = tmp_path / "index.snap"
        run(["index", "--features", str(features_file), "-o", str(snap)])
        sections = snapshot_sections(snap.read_bytes())
        n_docs = json.loads(sections[0])["n_docs"]
        sections[4] = sections[4][:-4] + struct.pack("<i", n_docs)
        snap.write_bytes(seal_snapshot(sections))
        assert run(["search", "--index", str(snap), "--query", str(features_file)]) == 2
        assert "posting outside documents" in capsys.readouterr().err

    def test_version_1_snapshot_exit_2(self, features_file, tmp_path, capsys):
        snap = tmp_path / "index.snap"
        run(["index", "--features", str(features_file), "-o", str(snap)])
        sections = snapshot_sections(snap.read_bytes())
        for version in (1, 2):  # version 2 still held a refs section
            snap.write_bytes(seal_snapshot(sections, version=version))
            assert run(["search", "--index", str(snap), "--query", str(features_file)]) == 2
            assert "re-run `asmsieve index`" in capsys.readouterr().err

    def test_malformed_features_record_exit_2(self, tmp_path, capsys):
        features = tmp_path / "features.jsonl"
        features.write_text('{"id":"a","present":5,"features":{"loop":true}}\n')
        assert run(["index", "--features", str(features), "-o", str(tmp_path / "ix")]) == 2
        assert ":1: 'present' must be a list" in capsys.readouterr().err

    def test_duplicate_id_across_files_exit_2(self, features_file, tmp_path, capsys):
        again = tmp_path / "again.jsonl"
        again.write_text(features_file.read_text().splitlines()[1] + "\n")
        assert run(["index", "--features", str(features_file), "--features", str(again),
                    "-o", str(tmp_path / "ix")]) == 2
        err = capsys.readouterr().err
        assert f"{again}:1: duplicate id 'lib/sha384_init@x86-64/O2' (first at {features_file}:2)" in err
        assert not (tmp_path / "ix").exists()

    def test_parallel_search_matches_serial(self, features_file, tmp_path):
        snap = tmp_path / "index.snap"
        run(["index", "--features", str(features_file), "-o", str(snap)])
        serial, parallel = tmp_path / "serial.out", tmp_path / "parallel.out"
        assert run(["search", "--index", str(snap), "--query", str(features_file),
                    "--format", "json", "-o", str(serial)]) == 0
        assert run(["search", "--index", str(snap), "--query", str(features_file),
                    "--format", "json", "--parallel", "4", "-o", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("value", ["0", "-2"])
    @pytest.mark.parametrize("command", ["search", "extract"])
    def test_parallel_below_one_exit_2(self, command, value, features_file, tmp_path, capsys):
        if command == "search":
            argv = ["search", "--index", str(tmp_path / "index.snap"), "--query", str(features_file)]
        else:
            argv = ["extract", "--corpus", str(tmp_path / "corpus.jsonl"), "-o", str(tmp_path / "f.jsonl")]
        with pytest.raises(SystemExit) as excinfo:
            run(argv + ["--parallel", value])
        assert excinfo.value.code == 2
        assert f"--parallel: must be at least 1, got {value}" in capsys.readouterr().err

    def test_parallel_below_one_from_config_exit_2(self, features_file, tmp_path):
        cfg = tmp_path / "asmsieve.conf"
        cfg.write_text("parallel = 0\n")
        with pytest.raises(SystemExit) as excinfo:
            run(["--config", str(cfg), "search", "--index", str(tmp_path / "index.snap"),
                 "--query", str(features_file)])
        assert excinfo.value.code == 2


@pytest.mark.parametrize("reader", ["features", "pool", "corpus", "embeddings"])
def test_deeply_nested_line_exits_2_naming_it(reader, features_file, tmp_path, capsys):
    # One line of 100,000 '[' passes Python's recursion limit inside json.loads.
    deep = tmp_path / "deep.jsonl"
    deep.write_text("[" * 100_000 + "\n")
    snap = tmp_path / "index.snap"
    assert run(["index", "--features", str(features_file), "-o", str(snap)]) == 0
    argv = {
        "features": ["index", "--features", str(deep), "-o", str(tmp_path / "ix")],
        "pool": ["eval", "--pool", str(deep), "--features", str(features_file)],
        "corpus": ["extract", "--corpus", str(deep), "--client", "static", "-o", str(tmp_path / "f")],
        "embeddings": ["rerank", "--index", str(snap), "--embeddings", str(deep),
                       "--query", str(features_file)],
    }[reader]
    assert run(argv) == 2
    assert f"{deep}:1: invalid JSON: maximum recursion" in capsys.readouterr().err


@pytest.mark.parametrize("reader", ["features", "pool", "corpus", "embeddings"])
def test_non_utf8_line_exits_2_naming_it(reader, features_file, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\n\xff\xfe\n")
    snap = tmp_path / "index.snap"
    assert run(["index", "--features", str(features_file), "-o", str(snap)]) == 0
    argv = {
        "features": ["index", "--features", str(bad), "-o", str(tmp_path / "ix")],
        "pool": ["eval", "--pool", str(bad), "--features", str(features_file)],
        "corpus": ["extract", "--corpus", str(bad), "--client", "static", "-o", str(tmp_path / "f")],
        "embeddings": ["rerank", "--index", str(snap), "--embeddings", str(bad),
                       "--query", str(features_file)],
    }[reader]
    assert run(argv) == 2
    assert f"{bad}:2: not UTF-8: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

class TestDiff:
    def test_three_fields_differ(self, features_file, capsys):
        rc = run(["diff", "--features", str(features_file),
                  "lib/sha384_init@ARM/O2", "lib/sha384_init@x86-64/O2",
                  "--format", "json"])
        assert rc == 0
        fields = [d["field"] for d in json.loads(capsys.readouterr().out)]
        assert fields == ["ret_type", "int_consts", "inferred_algo"]

    def test_table_output(self, features_file, capsys):
        rc = run(["diff", "--features", str(features_file),
                  "lib/sha384_init@ARM/O2", "lib/sha384_init@x86-64/O2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ret_type" in out and "added" in out

    def test_missing_id_exit_2(self, features_file):
        assert run(["diff", "--features", str(features_file), "nope",
                    "lib/sha384_init@ARM/O2"]) == 2


class TestRerank:
    def test_rerank_pipeline(self, features_file, tmp_path, capsys):
        snap = tmp_path / "index.snap"
        run(["index", "--features", str(features_file), "-o", str(snap)])
        emb = tmp_path / "emb.jsonl"
        save_embeddings(emb, {
            "lib/sha384_init@ARM/O2": [1.0, 0.2],
            "lib/sha384_init@x86-64/O2": [0.9, 0.3],
        })
        rc = run(["rerank", "--index", str(snap), "--embeddings", str(emb),
                  "--query", str(features_file), "--id", "lib/sha384_init@ARM/O2",
                  "--k1", "2", "--k2", "1", "--format", "json"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["results"][0]["id"] == "lib/sha384_init@ARM/O2"

    def test_fault_in_second_query_leaves_output_file_as_it_was(self, features_file, tmp_path,
                                                                 capsys):
        snap = tmp_path / "index.snap"
        run(["index", "--features", str(features_file), "-o", str(snap)])
        emb = tmp_path / "emb.jsonl"
        # the second query's self-match has cosine(v, v) > 1
        save_embeddings(emb, {"lib/sha384_init@ARM/O2": [1.0] * 64,
                              "lib/sha384_init@x86-64/O2": SELF_OVER_ONE})
        out = tmp_path / "out.jsonl"
        out.write_text("kept\n")
        rc = run(["rerank", "--index", str(snap), "--embeddings", str(emb),
                  "--query", str(features_file), "--k1", "2", "--k2", "1",
                  "--format", "json", "-o", str(out)])
        assert rc == 2
        assert "s_e must lie in [-1, 1]" in capsys.readouterr().err
        assert out.read_text() == "kept\n"

    def test_k2_greater_than_k1_is_config_error(self, features_file, tmp_path):
        snap = tmp_path / "index.snap"
        run(["index", "--features", str(features_file), "-o", str(snap)])
        emb = tmp_path / "emb.jsonl"
        save_embeddings(emb, {"lib/sha384_init@ARM/O2": [1.0]})
        assert run(["rerank", "--index", str(snap), "--embeddings", str(emb),
                    "--query", str(features_file), "--k1", "1", "--k2", "5"]) == 4

    def test_repeated_embedding_id_exit_2(self, features_file, tmp_path, capsys):
        snap = tmp_path / "index.snap"
        run(["index", "--features", str(features_file), "-o", str(snap)])
        emb = tmp_path / "emb.jsonl"
        emb.write_text('{"id":"lib/sha384_init@ARM/O2","values":[1.0,0.2]}\n'
                       '{"id":"lib/sha384_init@x86-64/O2","values":[0.9,0.3]}\n'
                       '{"id":"lib/sha384_init@ARM/O2","values":[0.1,0.9]}\n')
        rc = run(["rerank", "--index", str(snap), "--embeddings", str(emb),
                  "--query", str(features_file), "--k1", "2", "--k2", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{emb}:3: duplicate id 'lib/sha384_init@ARM/O2'" in captured.err

    @pytest.mark.parametrize("k2", ["0", "-1"])
    def test_k2_not_positive_exit_2(self, features_file, tmp_path, capsys, k2):
        snap = tmp_path / "index.snap"
        run(["index", "--features", str(features_file), "-o", str(snap)])
        emb = tmp_path / "emb.jsonl"
        save_embeddings(emb, {"lib/sha384_init@ARM/O2": [1.0], "lib/sha384_init@x86-64/O2": [0.5]})
        rc = run(["rerank", "--index", str(snap), "--embeddings", str(emb),
                  "--query", str(features_file), "--k1", "2", "--k2", k2])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"k2 must be positive, got {k2}" in captured.err


# Finite non-zero embeddings whose norms or dot products leave the float64
# range, and a power of two that scales each into range.
EXTREME_EMBEDDINGS = [
    ([1e200, 1e-300, 0.0, 0.0], -600),
    ([1e200] * 4, -600),
    ([1e-200] * 4, 600),
    ([5e-324, 0.0, 0.0, 0.0], 1070),
]


@pytest.mark.parametrize("values, e", EXTREME_EMBEDDINGS,
                         ids=["norm-overflows", "dot-overflows", "norm-underflows", "subnormal"])
@pytest.mark.parametrize("command", ["rerank", "eval-cosine", "eval-hybrid"])
def test_extreme_embedding_scores_as_scaled_into_range(features_file, tmp_path, capsys,
                                                       command, values, e):
    snap = tmp_path / "index.snap"
    run(["index", "--features", str(features_file), "-o", str(snap)])
    capsys.readouterr()
    pool = tmp_path / "pool.jsonl"
    pool.write_text("".join(
        json.dumps({"left": a, "right": b, "pairing": "cross_architecture"}) + "\n"
        for a, b in [("lib/sha384_init@ARM/O2", "lib/sha384_init@x86-64/O2"),
                     ("lib/sha384_init@x86-64/O2", "lib/sha384_init@ARM/O2")]))
    emb = tmp_path / "emb.jsonl"
    argv = {
        "rerank": ["rerank", "--index", str(snap), "--embeddings", str(emb),
                   "--query", str(features_file), "--k1", "2", "--k2", "2", "--format", "json"],
        "eval-cosine": ["eval", "--pool", str(pool), "--features", str(features_file),
                        "--scorer", "cosine", "--embeddings", str(emb), "--format", "json"],
        "eval-hybrid": ["eval", "--pool", str(pool), "--features", str(features_file),
                        "--scorer", "hybrid", "--embeddings", str(emb), "--format", "json"],
    }[command]
    outputs = []
    for arm in (values, np.ldexp(values, e).tolist()):
        save_embeddings(emb, {"lib/sha384_init@ARM/O2": arm,
                              "lib/sha384_init@x86-64/O2": [1.0, 0.25, 0.0, 0.0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


class TestEval:
    def test_committed_report_reproduced(self, tmp_path):
        feature_files = []
        for opt in ("O0", "O3"):
            corpus = tmp_path / f"corpus_{opt}.jsonl"
            run(["ingest", str(MINI / "listings" / f"miniapp_x86-64_{opt}.lst"),
                 "--library", "miniapp", "--arch", "x86-64", "--opt-level", opt,
                 "-o", str(corpus)])
            features = tmp_path / f"features_{opt}.jsonl"
            assert run(["extract", "--corpus", str(corpus), "--client", "replay",
                        "--fixtures", str(MINI / "fixtures"), "-o", str(features)]) == 0
            feature_files.append(features)
        report = tmp_path / "report.json"
        assert run(["eval", "--pool", str(MINI / "pairs.jsonl"),
                    "--features", str(feature_files[0]),
                    "--features", str(feature_files[1]),
                    "--format", "json", "-o", str(report)]) == 0
        assert report.read_bytes() == (MINI / "expected_report.json").read_bytes()

    def test_table_format(self, features_file, tmp_path, capsys):
        pool = tmp_path / "pool.jsonl"
        pool.write_text(json.dumps({
            "left": "lib/sha384_init@ARM/O2",
            "right": "lib/sha384_init@x86-64/O2",
            "pairing": "cross_architecture",
        }) + "\n")
        rc = run(["eval", "--pool", str(pool), "--features", str(features_file),
                  "--format", "table"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MRR" in out and "Recall@1" in out

    def test_hybrid_scorer_needs_embeddings(self, features_file, tmp_path, capsys):
        pool = tmp_path / "pool.jsonl"
        pool.write_text(json.dumps({
            "left": "lib/sha384_init@ARM/O2",
            "right": "lib/sha384_init@x86-64/O2",
            "pairing": "cross_architecture",
        }) + "\n")
        assert run(["eval", "--pool", str(pool), "--features", str(features_file),
                    "--scorer", "hybrid"]) == 2
        emb = tmp_path / "emb.jsonl"
        save_embeddings(emb, {
            "lib/sha384_init@ARM/O2": [0.6, 0.8],
            "lib/sha384_init@x86-64/O2": [0.8, 0.6],
        })
        rc = run(["eval", "--pool", str(pool), "--features", str(features_file),
                  "--scorer", "hybrid", "--embeddings", str(emb), "--format", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scorer"] == "hybrid" and report["per_pair_ranks"] == [1]

    @pytest.mark.parametrize(
        "record",
        ['{"left": "lib/sha384_init@ARM/O2", "pairing": "cross_architecture"}', "[1]"],
    )
    def test_malformed_pool_exit_2(self, features_file, tmp_path, capsys, record):
        pool = tmp_path / "pool.jsonl"
        pool.write_text(record + "\n")
        assert run(["eval", "--pool", str(pool), "--features", str(features_file)]) == 2
        assert f"{pool}:1: " in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, features_file, tmp_path, capsys):
        snap = tmp_path / "index.snap"
        run(["index", "--features", str(features_file), "-o", str(snap)])
        cfg = tmp_path / "asmsieve.conf"
        cfg.write_text("# search defaults\nk = 1\nformat = json\n")
        rc = run(["--config", str(cfg), "search", "--index", str(snap),
                  "--query", str(features_file), "--id", "lib/sha384_init@ARM/O2"])
        assert rc == 0
        assert len(json.loads(capsys.readouterr().out)["results"]) == 1
        rc = run(["--config", str(cfg), "search", "--index", str(snap),
                  "--query", str(features_file), "--id", "lib/sha384_init@ARM/O2",
                  "-k", "2"])
        assert len(json.loads(capsys.readouterr().out)["results"]) == 2

    def test_config_key_naming_no_option_ignored(self, features_file, tmp_path, capsys):
        snap = tmp_path / "index.snap"
        run(["index", "--features", str(features_file), "-o", str(snap)])
        cfg = tmp_path / "asmsieve.conf"
        cfg.write_text("func = 1\nk = 1\n")
        rc = run(["--config", str(cfg), "search", "--index", str(snap), "--format", "json",
                  "--query", str(features_file), "--id", "lib/sha384_init@ARM/O2"])
        assert rc == 0
        assert len(json.loads(capsys.readouterr().out)["results"]) == 1

    def test_missing_config_exit_4(self, tmp_path):
        assert run(["--config", str(tmp_path / "absent.conf"), "ingest", "x",
                    "--library", "l", "--arch", "a", "--opt-level", "O0"]) == 4

    @pytest.mark.parametrize("value", ["1" * 5000, "[" * 100_000], ids=["long-integer", "deep-nesting"])
    def test_unreadable_value_exit_4_names_file_and_line(self, tmp_path, capsys, value):
        cfg = tmp_path / "asmsieve.conf"
        cfg.write_text(f"# defaults\nk = {value}\n")
        assert run(["--config", str(cfg), "ingest", "x",
                    "--library", "l", "--arch", "a", "--opt-level", "O0"]) == 4
        assert f"{cfg}, line 2" in capsys.readouterr().err

    def test_non_utf8_config_exit_4_names_file(self, tmp_path, capsys):
        cfg = tmp_path / "asmsieve.conf"
        cfg.write_bytes(b"k = \xff\xfe\n")
        assert run(["--config", str(cfg), "ingest", "x",
                    "--library", "l", "--arch", "a", "--opt-level", "O0"]) == 4
        assert str(cfg) in capsys.readouterr().err

    @pytest.mark.parametrize("command,line,message", [
        ("search", "k = [3]", "argument -k: invalid int value: '[3]'"),
        ("search", "k = 2.5", "argument -k: invalid int value: '2.5'"),
        ("search", "parallel = [2]", "argument --parallel: invalid int value: '[2]'"),
        ("extract", 'client = "replai"', "argument --client: invalid choice: 'replai'"),
        ("extract", 'no_system_prompt = "no"',
         "argument --no-system-prompt: config value must be true or false, got 'no'"),
    ], ids=["k-list", "k-float", "parallel-list", "client-choice", "store-true-string"])
    def test_bad_value_exit_2_names_option(self, command, line, message, features_file,
                                           tmp_path, capsys):
        cfg = tmp_path / "asmsieve.conf"
        cfg.write_text(line + "\n")
        if command == "search":
            argv = ["search", "--index", str(tmp_path / "index.snap"), "--query", str(features_file)]
        else:
            argv = ["extract", "--corpus", str(tmp_path / "corpus.jsonl"), "-o", str(tmp_path / "f.jsonl")]
        with pytest.raises(SystemExit) as excinfo:
            run(["--config", str(cfg)] + argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err


class TestEntryPoint:
    def test_console_script_help(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
        module, _, attr = scripts["asmsieve"].partition(":")
        assert getattr(importlib.import_module(module), attr) is cli.main
        # what the installed console script runs: import the entry point, exit with its result
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys; from {module} import {attr}; sys.exit({attr}())",
             "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "ingest" in proc.stdout and "rerank" in proc.stdout

    def test_every_export_resolves(self):
        package = importlib.import_module("asmsieve")
        assert [name for name in package.__all__ if not hasattr(package, name)] == []

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "asmsieve.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
