"""Completion providers with a content-addressed response cache.

Experiments run the same prompts repeatedly while metrics and reports evolve,
so every completion is cached under a key derived from the full request: the
prompt's SHA-256 plus the other request fields. Since the key needs only the
prompt's digest, a request can be planned by that digest with a function that
renders the text, and complete renders it only if the cache misses it. Mock
providers cover offline work: a fixed-text provider, a parrot that echoes the
first shot's label line, and an oracle that answers from ground truth.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sqlite3
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from ._http import JsonPostClient
from .fileio import is_utf8_text
from .labels import format_labels
from .prompting import extract_test_code, prompt_hash, shot_label_lines


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
    """One completion call, fully determined by its fields.

    The prompt is given either as text, or as its `prompt_hash` digest
    (`prompt_sha256`) plus `render`, a function that returns the text. The
    second form is how a caller plans many requests whose answers are
    probably cached: only a miss needs the text, and `complete` renders it.
    """

    model_id: str
    prompt: str | None = None
    temperature: float = 0.0
    max_output_tokens: int = 128
    prompt_sha256: str | None = None
    render: Callable[[], str] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.model_id:
            raise ValueError("model_id must be non-empty")
        if self.prompt is None:
            if self.prompt_sha256 is None or self.render is None:
                raise ValueError("a request needs its prompt, or its prompt_sha256 and render")
        elif not self.prompt:
            raise ValueError("prompt must be non-empty")
        elif self.prompt_sha256 is None:
            object.__setattr__(self, "prompt_sha256", prompt_hash(self.prompt))
        if not self.temperature >= 0.0:  # also true for NaN
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.temperature == math.inf:
            raise ValueError("temperature must be finite, got inf")
        if self.max_output_tokens < 1:
            raise ValueError(
                f"max_output_tokens must be >= 1, got {self.max_output_tokens}"
            )

    def rendered(self) -> "CompletionRequest":
        """This request with its prompt text, rendered now if it was planned by digest."""
        if self.prompt is not None:
            return self
        return replace(self, prompt=self.render())

    def cache_key(self) -> str:
        """SHA-256 over the JSON of model_id, temperature and
        max_output_tokens, plus the prompt's SHA-256 hex digest.

        The JSON keeps each value's type, so temperature 0 and 0.0 key apart.
        The digest is the one a record stores as its prompt_hash, so the
        prompt text is never JSON-encoded, and needs no rendering at all.
        """
        key = _key_head(self.model_id, self.temperature, self.max_output_tokens).copy()
        key.update(self.prompt_sha256.encode("ascii"))
        return key.hexdigest()


@functools.lru_cache(maxsize=16, typed=True)
def _key_head(model_id: str, temperature: float, max_output_tokens: int):
    """A SHA-256 fed with the JSON of the cache key's fields but the prompt,
    built once per distinct value, which is once per run; callers update a
    copy. `typed` keeps temperature 0 and 0.0 apart, as their JSON does."""
    head = json.dumps(
        {
            "model_id": model_id,
            "temperature": temperature,
            "max_output_tokens": max_output_tokens,
        },
        sort_keys=True,
    )
    return hashlib.sha256(head.encode("utf-8"))


@dataclass(frozen=True)
class CompletionResult:
    """Completion text plus whether it came from cache."""

    text: str
    cached: bool


CACHE_FILENAME = "responses.sqlite3"
# PRAGMA user_version of a cache file whose rows are keyed by
# CompletionRequest.cache_key as it is now. A file holding rows under an
# earlier key format (stamp 0) would miss on every lookup, so it is refused.
CACHE_KEY_FORMAT = 1
# How long a statement waits for another connection's lock before failing.
_BUSY_TIMEOUT_S = 5.0
# Most keys one read-ahead SELECT binds: SQLite before 3.32 allows 999
# parameters per statement.
READ_CHUNK = 999


def _decode_text(raw: bytes) -> str | None:
    """SQLite text that is not valid UTF-8 reads as None, which is a miss."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return None


class ResponseCache:
    """Responses keyed by request hash, in one SQLite file under the cache root.

    Rows hold only the key and the response text, and the file's
    `PRAGMA user_version` names the key format the rows were stored under.
    Inside `read_ahead(keys)`, `get` answers those keys from one
    `SELECT key, response ... WHERE key IN (...)` per READ_CHUNK keys rather
    than one statement each. The connection belongs to the thread that
    opened the cache, and every put commits on its own, so an interrupted
    batch keeps each answer stored before the interruption.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.path = self.root / CACHE_FILENAME
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CacheError(f"cache root {self.root} is not a directory: {exc}") from None
        # The old layout named each entry by its 64-hex-digit key; another
        # *.json file, such as the report of a run whose output_dir this is,
        # is not an entry.
        if next(self.root.glob("[0-9a-f]" * 64 + ".json"), None) is not None:
            raise CacheError(
                f"cache root {self.root} holds *.json entries of the old "
                "one-file-per-key layout, which is no longer read; use a new "
                "cache_dir or delete those files"
            )
        try:
            self._db = sqlite3.connect(
                self.path, timeout=_BUSY_TIMEOUT_S, isolation_level=None
            )
        except sqlite3.Error as exc:
            raise self._unusable(exc) from None
        self._db.text_factory = _decode_text
        # Key -> response as read by read_ahead (None: no row), while it lasts.
        self._ahead: dict = {}
        try:
            # Checked before the journal mode is set, which rewrites the
            # header of a file that is then refused.
            self._execute("BEGIN IMMEDIATE")
            self._check_or_stamp_key_format()
            self._execute("COMMIT")
            self._execute("PRAGMA journal_mode=WAL")
            self._execute("PRAGMA synchronous=NORMAL")
        except CacheError:
            self._db.close()  # rolls back an open transaction
            raise

    def _check_or_stamp_key_format(self) -> None:
        """Create and stamp the table in a new file; refuse one keyed otherwise.

        Runs inside a write transaction, so two processes opening one new
        file cannot see each other's table before its stamp.
        """
        ((stamp,),) = self._execute("PRAGMA user_version")
        tables = self._execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'responses'"
        )
        if tables and stamp != CACHE_KEY_FORMAT:
            raise CacheError(
                f"cache database {self.path} holds responses under another key "
                f"format (user_version {stamp}, not {CACHE_KEY_FORMAT}), which "
                "would miss on every lookup; use a new cache_dir or delete the file"
            )
        if not tables:
            self._execute(
                "CREATE TABLE responses "
                "(key TEXT PRIMARY KEY, response TEXT) WITHOUT ROWID"
            )
            self._execute(f"PRAGMA user_version = {CACHE_KEY_FORMAT}")

    def _unusable(self, exc: sqlite3.Error) -> CacheError:
        return CacheError(f"unusable cache database {self.path}: {exc}")

    def _execute(self, sql: str, params: tuple = ()) -> list:
        try:
            return self._db.execute(sql, params).fetchall()
        except sqlite3.Error as exc:
            raise self._unusable(exc) from None

    @contextmanager
    def read_ahead(self, keys: Sequence[str]):
        """Read the rows of `keys` at once, for `get` to answer from until the
        block ends: one SELECT per READ_CHUNK distinct keys, none for no keys."""
        distinct = list(dict.fromkeys(keys))
        self._ahead = dict.fromkeys(distinct)
        try:
            for start in range(0, len(distinct), READ_CHUNK):
                chunk = distinct[start:start + READ_CHUNK]
                self._ahead.update(self._execute(
                    "SELECT key, response FROM responses "
                    f"WHERE key IN ({', '.join('?' * len(chunk))})",
                    tuple(chunk),
                ))
            yield
        finally:
            self._ahead = {}

    def get(self, key: str) -> str | None:
        """The response cached under a request's `cache_key()`, or None on a miss.

        A missing row, or one whose response is not valid text (NULL, a BLOB,
        bytes that are not UTF-8), is a miss, so the next put rewrites it.
        A key that `read_ahead` read is answered from that read.
        """
        if key in self._ahead:
            response = self._ahead[key]
        else:
            rows = self._execute("SELECT response FROM responses WHERE key = ?", (key,))
            response = rows[0][0] if rows else None
        return response if isinstance(response, str) else None

    def put(self, key: str, response: str) -> None:
        self._ahead.pop(key, None)
        self._execute("INSERT OR REPLACE INTO responses VALUES (?, ?)", (key, response))

    def stats(self) -> dict:
        ((entries,),) = self._execute("SELECT COUNT(*) FROM responses")
        return {
            "entries": entries,
            "bytes": sum(f.stat().st_size for f in self.root.glob(CACHE_FILENAME + "*")),
            "root": str(self.root),
        }

    def clear(self) -> int:
        ((removed,),) = self._execute("SELECT COUNT(*) FROM responses")
        self._execute("DELETE FROM responses")
        self._execute("VACUUM")
        return removed

    def close(self) -> None:
        self._db.close()


def complete(
    requests: Sequence[CompletionRequest],
    provider,
    cache: ResponseCache | None = None,
) -> list:
    """Resolve a batch of requests; results come back in input order.

    Each request's cache key is computed once and serves both its lookup and,
    on a miss, its store. The key is built on the request's `prompt_sha256`
    digest, which the caller's record keeps too, so a lookup needs no prompt
    text: a request planned by digest is rendered only if it misses. The
    batch's keys are read from the cache in one SELECT per READ_CHUNK
    distinct keys (ResponseCache.read_ahead), and each request's `get` is
    answered from that read. Every cache lookup finishes on the calling
    thread before any miss is fetched, so identical requests in one batch
    all miss together; requests are not de-duplicated. Then every miss is
    rendered, also on the calling thread, and goes to the provider on a pool
    of min(provider.max_in_flight, misses) threads, or in order on the
    calling thread when that is 1, as it is for the in-process mocks. The
    calling thread stores each fresh answer as it takes it, in input order,
    so no worker touches the cache and an exception after the Nth answer
    leaves the first N-1 stored. Each result is a
    CompletionResult, or the ProviderError that request raised; refusals are
    never retried or cached, and retry policy for transport errors lives
    inside remote providers. Any other exception propagates.
    """
    results: list = [None] * len(requests)
    if cache is None:
        misses = list(range(len(requests)))
    else:
        keys = [request.cache_key() for request in requests]
        misses = []
        with cache.read_ahead(keys):
            for i, key in enumerate(keys):
                hit = cache.get(key)
                if hit is None:
                    misses.append(i)
                else:
                    results[i] = CompletionResult(text=hit, cached=True)
    if not misses:
        return results

    def fetch(request: CompletionRequest):
        try:
            text = provider.generate(request)
        except ProviderError as exc:
            return exc
        return CompletionResult(text=text, cached=False)

    pending = [requests[i].rendered() for i in misses]
    workers = min(provider.max_in_flight, len(misses))
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    fetched = pool.map(fetch, pending) if pool is not None else map(fetch, pending)
    try:
        for i, result in zip(misses, fetched):
            if cache is not None and isinstance(result, CompletionResult):
                cache.put(keys[i], result.text)
            results[i] = result
    finally:
        if pool is not None:
            # Requests not yet started are dropped if the loop above raised.
            pool.shutdown(cancel_futures=True)
    return results


class _CountingProvider:
    """Thread-safe call counter shared by all providers; mocks resolve inline."""

    max_in_flight = 1
    """How many generate calls the provider may have outstanding at once."""

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
    the model declines. Refusals, answers that are not a string, and answers
    holding a lone surrogate (not UTF-8 text) raise immediately and are never
    retried; transport failures and 5xx/429 statuses retry with exponential
    backoff. `timeout_s`, `retries`, `retry_base_delay_s`, `session` and
    `sleep` pass through to `JsonPostClient`, which declares their defaults.
    """

    def __init__(
        self,
        endpoint: str,
        *,
        api_key_env: str = "LLM_API_KEY",
        max_in_flight: int = 4,
        **http,
    ) -> None:
        super().__init__()
        self.max_in_flight = max_in_flight
        self._http = JsonPostClient(
            endpoint,
            api_key_env=api_key_env,
            transport_error=ProviderTransportError,
            error=ProviderError,
            **http,
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
        text = body["text"]
        if not isinstance(text, str):
            raise ProviderError(f"endpoint text is not a string, got {type(text).__name__}")
        # Such an answer could be neither cached nor written out as UTF-8.
        if not is_utf8_text(text):
            raise ProviderError("endpoint answer is not UTF-8 text: it holds a lone surrogate")
        return text
