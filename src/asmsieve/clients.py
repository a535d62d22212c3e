"""Model client adapters.

The client contract is one call:

    complete(system_text, user_text, temperature, max_output_tokens) -> str

Adapters: an HTTP chat-completions endpoint for live extraction, a fixture
replayer for offline determinism (see fixtures.py), and the static analyzer
wrapped as a client for smoke tests.
"""

from __future__ import annotations

import json
import os
from typing import Protocol

from .corpus import AssemblyFunction
from .errors import ClientTransportError, ConfigurationError
from .prompts import parse_target_block
from .schema import json_value
from .static_analysis import static_extract

DEFAULT_MAX_OUTPUT_TOKENS = 512

ENV_URL = "ASMSIEVE_LLM_URL"
ENV_KEY = "ASMSIEVE_LLM_KEY"


class ModelClient(Protocol):
    def complete(
        self, system_text: str, user_text: str, temperature: float, max_output_tokens: int
    ) -> str: ...


class HttpChatClient:
    """POSTs to a chat-completions style endpoint.

    URL and API key come from the constructor or the ASMSIEVE_LLM_URL /
    ASMSIEVE_LLM_KEY environment variables.
    """

    def __init__(
        self,
        url: str | None = None,
        api_key: str | None = None,
        model: str | None = None,
        timeout: float = 120.0,
    ):
        self.url = url or os.environ.get(ENV_URL, "")
        if not self.url:
            raise ConfigurationError(
                f"no endpoint URL: pass one or set {ENV_URL}"
            )
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_KEY, "")
        self.model = model
        self.timeout = timeout

    def complete(
        self,
        system_text: str,
        user_text: str,
        temperature: float,
        max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS,
    ) -> str:
        # imported here: urllib.request loads ssl, which no other command needs
        import http.client
        import urllib.parse
        import urllib.request

        messages = []
        if system_text:
            messages.append({"role": "system", "content": system_text})
        messages.append({"role": "user", "content": user_text})
        payload = {
            "messages": messages,
            "temperature": temperature,
            "max_tokens": max_output_tokens,
        }
        if self.model:
            payload["model"] = self.model
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        if urllib.parse.urlsplit(self.url).scheme not in ("http", "https"):
            # urlopen would also read file:, ftp: and data: URLs
            raise ClientTransportError(f"chat endpoint request failed: not an HTTP URL: {self.url!r}")
        request = urllib.request.Request(
            self.url, data=json.dumps(payload).encode("utf-8"), headers=headers, method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                raw = resp.read()
        except (OSError, http.client.HTTPException, ValueError) as exc:
            # HTTPError (a status >= 400), a refused connection and a timeout are
            # OSErrors; a malformed response is an HTTPException, a bad host a ValueError
            raise ClientTransportError(f"chat endpoint request failed: {exc}") from exc
        body = json_value(raw, lambda message: ClientTransportError(f"chat endpoint returned {message}"))
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ClientTransportError(
                "chat endpoint response lacks choices[0].message.content"
            ) from exc
        if not isinstance(content, str):
            raise ClientTransportError(f"chat endpoint content is not a string: {content!r:.40}")
        return content


class StaticAnalysisClient:
    """Answers prompts by running the deterministic analyzer on the target
    function block. Only the statically decidable fields appear in the reply;
    pair it with a matching required-field set."""

    def complete(
        self,
        system_text: str,
        user_text: str,
        temperature: float,
        max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS,
    ) -> str:
        arch, lines = parse_target_block(user_text)
        fn = AssemblyFunction(
            id="query",
            library="query",
            source_symbol="query",
            arch=arch,
            opt_level="unknown",
            instructions=tuple(lines),
        )
        return json.dumps(static_extract(fn).as_dict(), separators=(",", ":"))
