"""Embedding backends for code-plus-label retrieval.

The default backend is a deterministic signed-hash bag-of-tokens model: every
token is hashed to a coordinate and a sign, counts accumulate, and the result
is L2-normalized. It needs no network access and is stable across processes,
which keeps retrieval experiments reproducible. A remote backend speaking a
minimal JSON contract is provided for real embedding services.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
import time
from dataclasses import dataclass
from typing import Protocol

from ._http import JsonPostClient
from .labels import CweLabel, format_labels

NORM_TOLERANCE = 1e-9

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]+")
_HASH_KEY = b"vulnprompt-embed-v1"
# Distinct tokens whose coordinates one hashed backend remembers; a code
# vocabulary is far smaller, so the bound only caps memory on odd inputs.
_COORDINATE_MEMO_SIZE = 1 << 16


class EmbeddingError(Exception):
    """Base class for embedding failures."""


class EmbeddingTransportError(EmbeddingError):
    """The remote embedding endpoint could not be reached or kept failing."""


class EmbeddingInputTooLarge(EmbeddingError):
    """Input exceeds the backend's maximum size; reported before any call."""


@dataclass(frozen=True)
class EmbeddingVector:
    """A unit-norm embedding, validated at construction."""

    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise EmbeddingError("embedding vector must be non-empty")
        norm = math.sqrt(sum(v * v for v in self.values))
        if abs(norm - 1.0) > NORM_TOLERANCE:
            raise EmbeddingError(f"embedding vector norm {norm!r} is not 1.0")

    @property
    def dim(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class EmbeddingInput:
    """Text to embed: a code snippet, optionally tagged with its labels.

    Train-side index entries include labels so that samples sharing a label
    pull together in the embedding space; test-side queries never do.
    """

    code: str
    labels: frozenset | None = None

    def __post_init__(self) -> None:
        if not self.code.strip():
            raise EmbeddingError("embedding input code must be non-empty")

    def rendered_text(self) -> str:
        if self.labels:
            return f"{self.code}\nLABELS: {format_labels(self.labels)}"
        return self.code


def tokenize(text: str) -> list:
    """Split text into identifier/number runs and punctuation runs."""
    return _TOKEN_RE.findall(text)


def token_hash(token: str) -> int:
    """64-bit keyed hash of a token, stable across processes."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=_HASH_KEY).digest()
    return int.from_bytes(digest, "big")


def token_coordinate(token: str, dimension: int) -> tuple:
    """Map a token to (index, sign) within a given dimension."""
    h = token_hash(token)
    index = h % dimension
    sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
    return index, sign


class EmbeddingBackend(Protocol):
    dimension: int

    def embed(self, item: EmbeddingInput) -> EmbeddingVector: ...


class HashedBagOfTokensBackend:
    """Deterministic offline embedding via signed token hashing.

    Equal token multisets map to bitwise-identical vectors: the per-token
    contributions are exact integers accumulated in float64, so summation
    order cannot change the result. A token's (index, sign) depends only on
    the token and the dimension, so each backend memoises it.
    """

    def __init__(self, dimension: int = 256) -> None:
        if dimension < 1:
            raise EmbeddingError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self._coordinate = functools.lru_cache(maxsize=_COORDINATE_MEMO_SIZE)(
            functools.partial(token_coordinate, dimension=dimension)
        )

    def embed(self, item: EmbeddingInput) -> EmbeddingVector:
        tokens = tokenize(item.rendered_text())
        if not tokens:
            raise EmbeddingError("input produced no tokens")
        accum = [0.0] * self.dimension
        coordinate = self._coordinate
        for token in tokens:
            index, sign = coordinate(token)
            accum[index] += sign
        norm = math.sqrt(sum(v * v for v in accum))
        if norm == 0.0:
            raise EmbeddingError("token contributions cancelled to a zero vector")
        return EmbeddingVector(values=tuple(v / norm for v in accum))


class RemoteEmbeddingBackend:
    """Client for an embedding endpoint speaking a small JSON contract.

    Request:  POST endpoint  {"model": ..., "input": ...}
    Response: 200 with {"embedding": [floats]}

    Responses are L2-normalized on receipt. Transport failures and 5xx/429
    statuses are retried with exponential backoff; anything else fails fast.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        dimension: int,
        api_key_env: str = "EMBEDDING_API_KEY",
        timeout_s: float = 30.0,
        retries: int = 3,
        retry_base_delay_s: float = 0.5,
        max_input_chars: int = 100_000,
        session=None,
        sleep=time.sleep,
    ) -> None:
        self.model = model
        self.dimension = dimension
        self.max_input_chars = max_input_chars
        self._http = JsonPostClient(
            endpoint,
            api_key_env=api_key_env,
            timeout_s=timeout_s,
            retries=retries,
            retry_base_delay_s=retry_base_delay_s,
            transport_error=EmbeddingTransportError,
            error=EmbeddingError,
            session=session,
            sleep=sleep,
        )

    def embed(self, item: EmbeddingInput) -> EmbeddingVector:
        text = item.rendered_text()
        if len(text) > self.max_input_chars:
            raise EmbeddingInputTooLarge(
                f"input is {len(text)} chars, limit is {self.max_input_chars}"
            )
        raw = self._http.post({"model": self.model, "input": text}).get("embedding")
        if not isinstance(raw, list) or len(raw) != self.dimension:
            raise EmbeddingError(
                f"endpoint returned {len(raw) if isinstance(raw, list) else 'no'}"
                f" values, expected {self.dimension}"
            )
        norm = math.sqrt(sum(float(v) ** 2 for v in raw))
        if norm == 0.0:
            raise EmbeddingError("endpoint returned a zero vector")
        return EmbeddingVector(values=tuple(float(v) / norm for v in raw))
