import json
import socket
import threading

import pytest

from asmsieve.clients import HttpChatClient, StaticAnalysisClient
from asmsieve.corpus import AssemblyFunction
from asmsieve.errors import ClientTransportError, ConfigurationError
from asmsieve.index import InvertedIndex
from asmsieve.prompts import PromptConfig, build_prompt, load_example_bank
from helpers import ChatEndpoint


@pytest.fixture
def endpoint():
    server = ChatEndpoint()
    try:
        yield server
    finally:
        server.close()


class TestHttpChatClient:
    def test_requires_url(self, monkeypatch):
        monkeypatch.delenv("ASMSIEVE_LLM_URL", raising=False)
        with pytest.raises(ConfigurationError, match="ASMSIEVE_LLM_URL"):
            HttpChatClient()

    def test_request_shape_and_response(self, endpoint):
        endpoint.reply({"choices": [{"message": {"content": '{"ok": true}'}}]})
        client = HttpChatClient(url=endpoint.url, api_key="sk-x", model="m1")
        out = client.complete("sys text", "user text", 0.4, 256)
        assert out == '{"ok": true}'
        (request,) = endpoint.requests
        assert request["path"] == "/v1/chat"
        assert request["headers"]["Authorization"] == "Bearer sk-x"
        assert request["headers"]["Content-Type"] == "application/json"
        payload = request["payload"]
        assert payload["temperature"] == 0.4
        assert payload["max_tokens"] == 256
        assert payload["model"] == "m1"
        assert payload["messages"] == [
            {"role": "system", "content": "sys text"}, {"role": "user", "content": "user text"}
        ]

    def test_empty_system_text_omits_message(self, endpoint):
        endpoint.reply({"choices": [{"message": {"content": "x"}}]})
        HttpChatClient(url=endpoint.url).complete("", "user", 0.2, 64)
        (request,) = endpoint.requests
        assert [m["role"] for m in request["payload"]["messages"]] == ["user"]
        assert "Authorization" not in request["headers"]

    def test_http_error_becomes_transport_error(self, endpoint):
        endpoint.reply({}, status=500)
        client = HttpChatClient(url=endpoint.url)
        with pytest.raises(ClientTransportError, match="request failed.*500"):
            client.complete("s", "u", 0.2, 64)

    def test_malformed_body_becomes_transport_error(self, endpoint):
        endpoint.reply({"oops": 1})
        client = HttpChatClient(url=endpoint.url)
        with pytest.raises(ClientTransportError, match="choices"):
            client.complete("s", "u", 0.2, 64)

    @pytest.mark.parametrize(
        "body",
        [b"not json", b"\xff\xfe\xfd", b"[" * 100_000,
         '{"choices":[{"message":{"content":"x"}}]}'.encode("utf-16")],
        ids=["text", "bytes", "deep-nesting", "utf-16"],
    )
    def test_body_that_is_not_json_becomes_transport_error(self, endpoint, body):
        endpoint.reply(body)
        client = HttpChatClient(url=endpoint.url)
        with pytest.raises(ClientTransportError, match="invalid JSON"):
            client.complete("s", "u", 0.2, 64)

    @pytest.mark.parametrize("content", [b"null", b"5"], ids=["null", "number"])
    def test_content_that_is_not_a_string_becomes_transport_error(self, endpoint, content):
        endpoint.reply(b'{"choices":[{"message":{"content":%s}}]}' % content)
        with pytest.raises(ClientTransportError, match="content is not a string"):
            HttpChatClient(url=endpoint.url).complete("s", "u", 0.2, 64)

    def test_unreachable_url_becomes_transport_error(self):
        with socket.socket() as sock:  # a port that was free a moment ago
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        client = HttpChatClient(url=f"http://127.0.0.1:{port}/v1/chat", timeout=5)
        with pytest.raises(ClientTransportError, match="request failed"):
            client.complete("s", "u", 0.2, 64)

    @pytest.mark.parametrize("url", ["file:///etc/hostname", "llm.local/v1/chat"])
    def test_url_that_is_not_http_becomes_transport_error(self, url):
        with pytest.raises(ClientTransportError, match="not an HTTP URL"):
            HttpChatClient(url=url).complete("s", "u", 0.2, 64)

    def test_env_configuration(self, monkeypatch):
        monkeypatch.setenv("ASMSIEVE_LLM_URL", "http://from-env")
        monkeypatch.setenv("ASMSIEVE_LLM_KEY", "k")
        client = HttpChatClient()
        assert client.url == "http://from-env" and client.api_key == "k"


class TestStaticAnalysisClient:
    def test_analyzes_target_block(self):
        fn = AssemblyFunction(
            id="lib/f@x86-64/O0", library="lib", source_symbol="f", arch="x86-64",
            opt_level="O0",
            instructions=("401000: call sub_1", "401005: call sub_2", "40100a: ret"),
        )
        prompt = build_prompt(fn, PromptConfig(), load_example_bank())
        doc = json.loads(StaticAnalysisClient().complete(prompt.system, prompt.user, 0.2))
        assert doc["subcall_targets"] == 2
        assert doc["loop"] is False


class TestConcurrentSearch:
    def test_many_readers_agree(self):
        ix = InvertedIndex()
        for i in range(500):
            ix.add(f"doc{i:03d}", {f"t{j}" for j in range(i % 17, i % 17 + 5)})
        query = {"t3", "t4", "t5"}
        expected = ix.search(query, 10).entries
        results = []
        errors = []

        def worker():
            try:
                for _ in range(20):
                    results.append(ix.search(query, 10).entries)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(r == expected for r in results)
