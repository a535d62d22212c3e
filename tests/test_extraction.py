import json
from pathlib import Path

import pytest

from asmsieve.corpus import AssemblyFunction
from asmsieve.errors import (
    ClientTransportError,
    ConfigurationError,
    ExtractionFailedError,
    FixtureMissError,
    SchemaError,
)
from asmsieve.extraction import RetryPolicy, extract_features
from asmsieve.fixtures import (
    FixtureStore,
    RecordingClient,
    ReplayClient,
    prompt_sha256,
)
from asmsieve.clients import StaticAnalysisClient
from asmsieve.prompts import PromptConfig, load_example_bank
from asmsieve.static_analysis import STATIC_FIELDS

from helpers import ScriptedClient

DATA = Path(__file__).parent / "data"

VALID_DOC = (DATA / "sha384_init_x86_64.json").read_text()


class FailingTransport:
    def complete(self, *args, **kwargs):
        raise ClientTransportError("connection refused")


@pytest.fixture
def fn():
    return AssemblyFunction(
        id="lib/f@x86-64/O0", library="lib", source_symbol="f", arch="x86-64",
        opt_level="O0",
        instructions=("401000: mov eax, 5", "401005: call sub_1", "40100a: ret"),
    )


@pytest.fixture(scope="module")
def bank():
    return load_example_bank()


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_retries == 3
        assert policy.temperature_for(0) == pytest.approx(0.2)
        assert policy.temperature_for(2) == pytest.approx(0.6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(temperature_step=0.0)


class TestExtractFeatures:
    def test_success_after_two_bad_attempts(self, fn, bank):
        client = ScriptedClient(["not json", '{"bad": ', VALID_DOC])
        fs, transcript = extract_features(fn, client, bank=bank)
        assert fs["inferred_algo"] == "Initialization"
        assert len(transcript.attempts) == 3
        outcomes = [a.outcome for a in transcript.attempts]
        assert outcomes[0].startswith("invalid-json")
        assert outcomes[2] == "ok"

    def test_unparsable_json_values_are_retried(self, fn, bank):
        # Too deep for the parser, and an integer past int_max_str_digits.
        client = ScriptedClient(["[" * 100_000, "9" * 5000, VALID_DOC])
        fs, transcript = extract_features(fn, client, bank=bank)
        outcomes = [a.outcome for a in transcript.attempts]
        assert outcomes[0].startswith("invalid-json: maximum recursion depth")
        assert outcomes[1].startswith("invalid-json: Exceeds the limit")
        assert outcomes[2] == "ok"

    def test_always_invalid_exhausts_retries(self, fn, bank):
        client = ScriptedClient(["garbage"] * 4)
        with pytest.raises(ExtractionFailedError) as excinfo:
            extract_features(fn, client, policy=RetryPolicy(max_retries=3), bank=bank)
        assert len(excinfo.value.transcript.attempts) == 4

    @pytest.mark.parametrize("max_retries", [0, 1, 2, 3])
    @pytest.mark.parametrize("failures", [0, 1, 2, 3, 4])
    def test_retry_budget(self, fn, bank, max_retries, failures):
        client = ScriptedClient(["nope"] * failures + [VALID_DOC])
        policy = RetryPolicy(max_retries=max_retries)
        if failures <= max_retries:
            _, transcript = extract_features(fn, client, policy=policy, bank=bank)
            assert len(transcript.attempts) == failures + 1
        else:
            with pytest.raises(ExtractionFailedError):
                extract_features(fn, client, policy=policy, bank=bank)
            assert len(client.temperatures) == max_retries + 1
        temps = client.temperatures
        assert all(b > a for a, b in zip(temps, temps[1:]))

    def test_schema_invalid_triggers_retry(self, fn, bank):
        broken = json.dumps(dict(json.loads(VALID_DOC), ret_type="Quaternion"))
        client = ScriptedClient([broken, VALID_DOC])
        _, transcript = extract_features(fn, client, bank=bank)
        assert transcript.attempts[0].outcome.startswith("schema-error")

    def test_disabled_section_fields_dropped_not_required(self, fn, bank):
        cfg = PromptConfig(sections=("TypeSignature",))
        # response carries constants fields; they must be dropped, not kept
        client = ScriptedClient([VALID_DOC])
        fs, _ = extract_features(fn, client, cfg=cfg, bank=bank)
        assert fs.present_fields == ("in_param_cnt", "in_param_types", "ret_type")

    def test_partial_response_suffices_for_enabled_sections(self, fn, bank):
        cfg = PromptConfig(sections=("Categorization",))
        client = ScriptedClient(['{"inferred_algo": "Initialization"}'])
        fs, _ = extract_features(fn, client, cfg=cfg, bank=bank)
        assert fs.present_fields == ("inferred_algo",)

    def test_unknown_fields_become_extensions(self, fn, bank):
        doc = dict(json.loads(VALID_DOC), confidence=0.9)
        client = ScriptedClient([json.dumps(doc)])
        fs, _ = extract_features(fn, client, bank=bank)
        assert fs.extensions == {"confidence": 0.9}

    def test_transport_error_propagates_with_transcript(self, fn, bank):
        with pytest.raises(ClientTransportError) as excinfo:
            extract_features(fn, FailingTransport(), bank=bank)
        transcript = excinfo.value.transcript
        assert len(transcript.attempts) == 1
        assert transcript.attempts[0].outcome.startswith("transport-error")

    def test_deterministic_with_deterministic_client(self, fn, bank):
        results = []
        for _ in range(2):
            fs, transcript = extract_features(fn, ScriptedClient([VALID_DOC]), bank=bank)
            results.append((fs, transcript.prompt_hash))
        assert results[0] == results[1]

    def test_static_client_smoke(self, fn, bank):
        fs, transcript = extract_features(
            fn, StaticAnalysisClient(), bank=bank, required_fields=STATIC_FIELDS
        )
        assert set(fs.present_fields) == set(STATIC_FIELDS)
        assert fs["subcall_targets"] == 1
        assert len(transcript.attempts) == 1


class TestFixtures:
    def test_record_then_replay_identical(self, tmp_path):
        store = FixtureStore(tmp_path, create=True)
        inner = ScriptedClient(["response-bytes-1"])
        recording = RecordingClient(inner, store)
        first = recording.complete("sys", "user", 0.2)
        replayed = ReplayClient(store).complete("sys", "user", 0.2)
        assert replayed == first == "response-bytes-1"

    def test_replay_miss_is_error(self, tmp_path):
        store = FixtureStore(tmp_path, create=True)
        with pytest.raises(FixtureMissError):
            ReplayClient(store).complete("sys", "unseen", 0.2)

    def test_replay_miss_on_unseen_temperature(self, tmp_path):
        store = FixtureStore(tmp_path, create=True)
        store.put(prompt_sha256("s", "u"), 0.2, 0, "body")
        with pytest.raises(FixtureMissError, match="temperature"):
            ReplayClient(store).complete("s", "u", 0.4)

    # Each body names its own file (HASH stands for the file's stem) unless
    # the prompt hash is the fault under test. `true == 1.0` in Python, so a
    # boolean temperature would otherwise serve the lookup at 1.0.
    @pytest.mark.parametrize(
        "body",
        [
            "[]",
            '{"prompt_hash": "HASH", "attempts": [{"attempt": 0, "temperature": 1.0}]}',
            '{"prompt_hash": "HASH", "attempts": [{"attempt": 0, "temperature": 1.0, "response": 5}]}',
            '{"attempts": [',
            "[" * 100_000,
            '{"prompt_hash": "HASH", "attempts": [{"attempt": 0, "temperature": true, "response": "r"}]}',
            '{"prompt_hash": "HASH", "attempts": [{"attempt": 0, "temperature": "0.2", "response": "r"}]}',
            '{"attempts": [{"attempt": 0, "temperature": 1.0, "response": "r"}]}',
            '{"prompt_hash": "OTHER", "attempts": [{"attempt": 0, "temperature": 1.0, "response": "r"}]}',
        ],
        ids=["not-an-object", "no-response", "non-string-response", "invalid-json", "deep-nesting",
             "bool-temperature", "string-temperature", "no-prompt-hash", "other-prompt-hash"],
    )
    def test_malformed_fixture_names_its_file(self, tmp_path, body):
        path = tmp_path / f"{prompt_sha256('s', 'u')}.json"
        path.write_text(body.replace("HASH", path.stem).replace("OTHER", prompt_sha256("s", "v")))
        with pytest.raises(SchemaError, match=path.name):
            ReplayClient(FixtureStore(tmp_path)).complete("s", "u", 1.0)

    @pytest.mark.parametrize(
        "body",
        [
            "[]",
            '{"prompt_hash": "HASH"}',
            '{"prompt_hash": "HASH", "attempts": [{"temperature": 0.4, "response": "r"}]}',
            '{"prompt_hash": "OTHER", "attempts": []}',
        ],
        ids=["not-an-object", "no-attempts", "attempt-without-number", "other-prompt-hash"],
    )
    def test_put_over_malformed_fixture_names_its_file(self, tmp_path, body):
        path = tmp_path / f"{prompt_sha256('s', 'u')}.json"
        body = body.replace("HASH", path.stem).replace("OTHER", prompt_sha256("s", "v"))
        path.write_text(body)
        with pytest.raises(SchemaError, match=path.name):
            FixtureStore(tmp_path).put(prompt_sha256("s", "u"), 0.2, 0, "r")
        assert path.read_text() == body

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            FixtureStore(tmp_path / "absent")

    def test_end_to_end_replay_is_deterministic(self, tmp_path, fn, bank):
        store = FixtureStore(tmp_path, create=True)
        recording = RecordingClient(ScriptedClient([VALID_DOC]), store)
        extract_features(fn, recording, bank=bank)
        canon = []
        for _ in range(2):
            fs, _ = extract_features(fn, ReplayClient(store), bank=bank)
            from asmsieve.schema import canonicalize

            canon.append(canonicalize(fs))
        assert canon[0] == canon[1]
