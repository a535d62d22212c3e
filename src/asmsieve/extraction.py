"""Feature extraction driver: prompt, call the client, retry on bad output.

An attempt fails when the response is not JSON or does not validate against
the schema for the enabled sections. Each retry repeats the identical prompt
at a higher sampling temperature (base + attempt * step). Transport failures
are not retried; they propagate with the transcript gathered so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .corpus import AssemblyFunction
from .errors import (
    ClientTransportError,
    ConfigurationError,
    ExtractionFailedError,
    SchemaError,
)
from .fixtures import prompt_sha256
from .prompts import PromptConfig, PromptExample, build_prompt
from .schema import FIELD_BY_NAME, FeatureSet, json_value, validate


@dataclass(frozen=True)
class RetryPolicy:
    max_retries: int = 3
    base_temperature: float = 0.2
    temperature_step: float = 0.2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.temperature_step <= 0:
            raise ConfigurationError(
                f"temperature_step must be > 0, got {self.temperature_step}"
            )

    def temperature_for(self, attempt: int) -> float:
        return self.base_temperature + attempt * self.temperature_step


@dataclass(frozen=True)
class Attempt:
    temperature: float
    response: str | None
    outcome: str  # "ok" | "invalid-json: ..." | "schema-error: ..." | "transport-error: ..."


@dataclass
class ClientTranscript:
    prompt_hash: str
    attempts: list[Attempt] = field(default_factory=list)


def _read_answer(response: str, enabled: set[str], required: tuple[str, ...]) -> FeatureSet | str:
    """One answer read in one step: decoded, stripped of the core fields
    outside ``enabled``, and validated. Returns the document, or the failed
    attempt's outcome."""
    try:
        doc = json_value(response, ValueError)
    except ValueError as exc:  # worded "invalid JSON: <decoder message>"
        return "invalid-json" + str(exc).removeprefix("invalid JSON")
    if isinstance(doc, dict):
        doc = {key: value for key, value in doc.items() if key not in FIELD_BY_NAME or key in enabled}
    try:
        return validate(doc, required_fields=required)
    except SchemaError as exc:
        return f"schema-error: {exc}"


def extract_features(
    fn: AssemblyFunction,
    client,
    cfg: PromptConfig | None = None,
    policy: RetryPolicy | None = None,
    bank: Iterable[PromptExample] | None = None,
    max_output_tokens: int = 512,
    required_fields: Iterable[str] | None = None,
) -> tuple[FeatureSet, ClientTranscript]:
    """Extract a validated feature document for one function.

    ``required_fields`` defaults to the fields of the enabled sections; core
    fields outside the enabled sections are dropped before validation.
    Raises ExtractionFailedError (with the full transcript) when every
    attempt produced unusable output.
    """
    cfg = cfg or PromptConfig()
    policy = policy or RetryPolicy()
    prompt = build_prompt(fn, cfg, bank)
    enabled = set(cfg.enabled_fields)
    required = tuple(required_fields) if required_fields is not None else cfg.enabled_fields
    transcript = ClientTranscript(prompt_hash=prompt_sha256(prompt.system, prompt.user))

    for attempt_no in range(policy.max_retries + 1):
        temperature = policy.temperature_for(attempt_no)
        try:
            response = client.complete(prompt.system, prompt.user, temperature, max_output_tokens)
        except ClientTransportError as exc:
            transcript.attempts.append(Attempt(temperature, None, f"transport-error: {exc}"))
            exc.transcript = transcript
            raise
        answer = _read_answer(response, enabled, required)
        failed = isinstance(answer, str)
        transcript.attempts.append(Attempt(temperature, response, answer if failed else "ok"))
        if not failed:
            return answer, transcript

    raise ExtractionFailedError(
        f"no valid feature document for {fn.id!r} after {policy.max_retries + 1} attempt(s)",
        transcript=transcript,
    )
