"""Completion providers with a content-addressed response cache.

Experiments run the same prompts repeatedly while metrics and reports evolve,
so every completion is cached under a key derived from the full request. Mock
providers cover offline work: a fixed-text provider, a parrot that echoes the
first shot's label line, and an oracle that answers from ground truth.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

from ._http import JsonPostClient
from .fileio import atomic_write_text
from .labels import format_labels
from .prompting import extract_test_code, shot_label_lines


class ProviderError(Exception):
    """Base class for completion failures."""


class ProviderTransportError(ProviderError):
    """The endpoint could not be reached or kept returning retryable errors."""


class ProviderRefusalError(ProviderError):
    """The model declined to answer; carries the refusal text verbatim."""


class MockProviderError(ProviderError):
    """A mock provider was used outside its contract."""


class CacheError(Exception):
    """A cache directory or cache file is unusable."""


@dataclass(frozen=True)
class CompletionRequest:
    """One completion call, fully determined by its fields."""

    model_id: str
    prompt: str
    temperature: float = 0.0
    max_output_tokens: int = 128

    def __post_init__(self) -> None:
        if not self.model_id:
            raise ValueError("model_id must be non-empty")
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if self.temperature < 0.0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_output_tokens < 1:
            raise ValueError(
                f"max_output_tokens must be >= 1, got {self.max_output_tokens}"
            )

    def to_json_dict(self) -> dict:
        return {
            "model_id": self.model_id,
            "prompt": self.prompt,
            "temperature": self.temperature,
            "max_output_tokens": self.max_output_tokens,
        }

    def cache_key(self) -> str:
        canonical = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CompletionResult:
    """Completion text plus whether it came from cache."""

    text: str
    cached: bool
    latency_ms: float


class Provider(Protocol):
    call_count: int
    max_in_flight: int
    """How many generate calls the provider may have outstanding at once."""

    def generate(self, request: CompletionRequest) -> str: ...


class ResponseCache:
    """One JSON file per request key, written atomically."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CacheError(f"cache root {self.root} is not a directory: {exc}") from None

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, request: CompletionRequest) -> str | None:
        """The cached response, or None on a miss.

        A missing, truncated or undecodable file, or one without a string
        "response", is a miss, so the next put rewrites it.
        """
        path = self._path(request.cache_key())
        try:
            response = json.loads(path.read_text(encoding="utf-8"))["response"]
        except (FileNotFoundError, ValueError, KeyError, TypeError):
            return None
        except OSError as exc:
            raise CacheError(f"unreadable cache file {path}: {exc}") from None
        return response if isinstance(response, str) else None

    def put(self, request: CompletionRequest, response: str) -> None:
        record = {
            "request": request.to_json_dict(),
            "response": response,
            "timestamp": time.time(),
        }
        atomic_write_text(self._path(request.cache_key()), json.dumps(record))

    def stats(self) -> dict:
        files = list(self.root.glob("*.json"))
        return {
            "entries": len(files),
            "bytes": sum(f.stat().st_size for f in files),
            "root": str(self.root),
        }

    def clear(self) -> int:
        files = list(self.root.glob("*.json"))
        for f in files:
            f.unlink()
        return len(files)


def complete(
    requests: Sequence[CompletionRequest],
    provider: Provider,
    cache: ResponseCache | None = None,
) -> list:
    """Resolve a batch of requests; results come back in input order.

    Every cache lookup finishes on the calling thread before any miss is
    fetched, so identical requests in one batch all miss together; requests
    are not de-duplicated. Misses go to the provider on a pool of
    min(provider.max_in_flight, misses) threads, or in order on the calling
    thread when that is 1, as it is for the in-process mocks. Each result is a
    CompletionResult, or the ProviderError that request raised; refusals are
    never retried or cached, and retry policy for transport errors lives
    inside remote providers. Any other exception propagates.
    """
    results: list = [None] * len(requests)
    misses: list = []
    for i, request in enumerate(requests):
        start = time.perf_counter()
        hit = cache.get(request) if cache is not None else None
        if hit is None:
            misses.append(i)
        else:
            results[i] = CompletionResult(
                text=hit, cached=True, latency_ms=(time.perf_counter() - start) * 1000
            )
    if not misses:
        return results

    def fetch(request: CompletionRequest):
        start = time.perf_counter()
        try:
            text = provider.generate(request)
        except ProviderError as exc:
            return exc
        if cache is not None:
            cache.put(request, text)
        return CompletionResult(
            text=text, cached=False, latency_ms=(time.perf_counter() - start) * 1000
        )

    workers = min(provider.max_in_flight, len(misses))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            fetched = list(pool.map(fetch, [requests[i] for i in misses]))
    else:
        fetched = [fetch(requests[i]) for i in misses]
    for i, result in zip(misses, fetched):
        results[i] = result
    return results


class _CountingProvider:
    """Thread-safe call counter shared by all providers; mocks resolve inline."""

    max_in_flight = 1

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.call_count = 0

    def _bump(self) -> None:
        with self._lock:
            self.call_count += 1


class FixedProvider(_CountingProvider):
    """Always returns the same text; useful for parser and failure tests."""

    def __init__(self, text: str) -> None:
        super().__init__()
        self.text = text

    def generate(self, request: CompletionRequest) -> str:
        self._bump()
        return self.text


class ParrotProvider(_CountingProvider):
    """Echoes the label line of the prompt's first shot.

    This mock assumes prompts follow the standard template, where every shot
    carries a "Vulnerabilities:" line. With one retrieved shot it reproduces
    nearest-neighbor labeling exactly.
    """

    def generate(self, request: CompletionRequest) -> str:
        self._bump()
        lines = shot_label_lines(request.prompt)
        if not lines:
            raise MockProviderError("parrot provider needs at least one shot")
        return lines[0]


class OracleProvider(_CountingProvider):
    """Answers from ground truth keyed by the exact test snippet text.

    This mock assumes prompts follow the standard template so the test
    snippet can be recovered from the rendered prompt.
    """

    def __init__(self, truth_by_code: dict) -> None:
        super().__init__()
        self._truth_by_code = dict(truth_by_code)

    def generate(self, request: CompletionRequest) -> str:
        self._bump()
        code = extract_test_code(request.prompt)
        try:
            truth = self._truth_by_code[code]
        except KeyError:
            raise MockProviderError(
                "oracle provider has no truth for the prompt's test snippet"
            ) from None
        return format_labels(truth)


def oracle_for_corpus(corpus) -> OracleProvider:
    """Oracle over every sample in a corpus (train and test)."""
    return OracleProvider({sample.code: sample.truth for sample in corpus.samples})


class RemoteChatProvider(_CountingProvider):
    """Client for a completion endpoint speaking a small JSON contract.

    Request:  POST endpoint {"model", "prompt", "temperature", "max_output_tokens"}
    Response: 200 with {"text": ...} for an answer, or {"refusal": ...} when
    the model declines. Refusals raise immediately and are never retried;
    transport failures and 5xx/429 statuses retry with exponential backoff.
    """

    def __init__(
        self,
        endpoint: str,
        api_key_env: str = "LLM_API_KEY",
        timeout_s: float = 30.0,
        retries: int = 3,
        retry_base_delay_s: float = 0.5,
        max_in_flight: int = 4,
        session=None,
        sleep=time.sleep,
    ) -> None:
        super().__init__()
        self.max_in_flight = max_in_flight
        self._http = JsonPostClient(
            endpoint,
            api_key_env=api_key_env,
            timeout_s=timeout_s,
            retries=retries,
            retry_base_delay_s=retry_base_delay_s,
            transport_error=ProviderTransportError,
            error=ProviderError,
            session=session,
            sleep=sleep,
        )

    def generate(self, request: CompletionRequest) -> str:
        self._bump()
        body = self._http.post(
            {
                "model": request.model_id,
                "prompt": request.prompt,
                "temperature": request.temperature,
                "max_output_tokens": request.max_output_tokens,
            }
        )
        if "refusal" in body:
            raise ProviderRefusalError(str(body["refusal"]))
        if "text" not in body:
            raise ProviderError("endpoint response has neither text nor refusal")
        return str(body["text"])
