"""Embedding backends for code-plus-label retrieval.

The default backend is a deterministic signed-hash bag-of-tokens model: every
token is hashed to a coordinate and a sign, counts accumulate, and the result
is L2-normalized. It needs no network access and is stable across processes,
which keeps retrieval experiments reproducible. A remote backend speaking a
minimal JSON contract is provided for real embedding services.

Vectors are read-only 1-D float64 arrays. Hashed vectors are exact: every
coordinate is a signed token count and the squared norm is a sum of squared
counts, all integers far below 2**53, so float64 holds them without rounding
in any summation order (feature hashing with integer counts, Weinberger et
al., ICML 2009). Only the final square root and division round, once each and
the same way on every machine, so a vectorised accumulation gives the same
bits as a token-by-token loop.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
from dataclasses import dataclass

import numpy as np

from ._http import JsonPostClient
from .labels import format_labels

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


@dataclass(frozen=True, eq=False)
class EmbeddingVector:
    """A finite, unit-norm embedding: a read-only 1-D float64 array.

    Any sequence of numbers is copied into a new read-only array; an array
    that is already read-only float64 is kept as it is, so index rows stay
    views of the index matrix. Equality is exact, element by element.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = self.values
        if not (
            isinstance(values, np.ndarray)
            and values.dtype == np.float64
            and not values.flags.writeable
        ):
            values = np.array(values, dtype=np.float64)
            values.flags.writeable = False
            object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise EmbeddingError("embedding vector must be a non-empty 1-D array")
        # A NaN or infinite value makes the norm non-finite as well.
        norm = math.sqrt(float(values @ values))
        if not math.isfinite(norm) or abs(norm - 1.0) > NORM_TOLERANCE:
            raise EmbeddingError(f"embedding vector norm {norm!r} is not 1.0")

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingVector):
            return NotImplemented
        return bool(np.array_equal(self.values, other.values))

    @property
    def dim(self) -> int:
        return self.values.shape[0]


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


class HashedBagOfTokensBackend:
    """Deterministic offline embedding via signed token hashing.

    Equal token multisets map to bitwise-identical vectors: the per-token
    contributions are exact integers accumulated in float64, so summation
    order cannot change the result (see the module docstring). A token's
    (index, sign) depends only on the token and the dimension, so each
    backend memoises it.
    """

    def __init__(self, dimension: int = 256) -> None:
        if dimension < 1:
            raise EmbeddingError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self._coordinate = functools.lru_cache(maxsize=_COORDINATE_MEMO_SIZE)(
            functools.partial(token_coordinate, dimension=dimension)
        )

    @property
    def identity(self) -> dict:
        return {"backend": "hashed", "dimension": self.dimension, "hash_key": _HASH_KEY.decode()}

    def embed(self, item: EmbeddingInput) -> EmbeddingVector:
        # EmbeddingInput refuses blank code, so the text has at least one token.
        tokens = tokenize(item.rendered_text())
        indices, signs = zip(*map(self._coordinate, tokens))
        accum = np.bincount(indices, weights=signs, minlength=self.dimension)
        norm = math.sqrt(float(accum @ accum))
        if norm == 0.0:
            raise EmbeddingError("token contributions cancelled to a zero vector")
        values = accum / norm
        # Read-only float64, so EmbeddingVector keeps it instead of copying.
        values.flags.writeable = False
        return EmbeddingVector(values=values)


class RemoteEmbeddingBackend:
    """Client for an embedding endpoint speaking a small JSON contract.

    Request:  POST endpoint  {"model": ..., "input": ...}
    Response: 200 with {"embedding": [floats]}

    Responses are L2-normalized on receipt. The norm is a sequential Python
    sum over the returned floats: unlike hashed counts these are arbitrary
    reals, so a reordered (pairwise or BLAS) sum could move the last bit of a
    stored vector. Transport failures and 5xx/429 statuses are retried with
    exponential backoff; anything else fails fast. `timeout_s`, `retries`,
    `retry_base_delay_s`, `session` and `sleep` pass through to
    `JsonPostClient`, which declares their defaults.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        dimension: int,
        *,
        api_key_env: str = "EMBEDDING_API_KEY",
        max_input_chars: int = 100_000,
        **http,
    ) -> None:
        self.model = model
        self.dimension = dimension
        self.max_input_chars = max_input_chars
        self._http = JsonPostClient(
            endpoint,
            api_key_env=api_key_env,
            transport_error=EmbeddingTransportError,
            error=EmbeddingError,
            **http,
        )

    @property
    def identity(self) -> dict:
        # The endpoint is left out: the same model served elsewhere gives the same vectors.
        return {"backend": "remote", "model": self.model, "dimension": self.dimension}

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
        try:
            # type(), not isinstance(): a JSON boolean is an int to isinstance,
            # and float() would take it as 1 or 0, or a numeric string as its number.
            values = [float(v) for v in raw if type(v) in (int, float)]
        except OverflowError:
            values = []
        if len(values) != self.dimension:
            raise EmbeddingError("endpoint returned a non-numeric embedding value")
        try:
            norm = math.sqrt(sum(v**2 for v in values))
        except OverflowError:
            raise EmbeddingError("endpoint returned a value whose square overflows") from None
        if norm == 0.0:
            raise EmbeddingError("endpoint returned a zero vector")
        return EmbeddingVector(values=[v / norm for v in values])
