"""Completion clients: cache behavior, mock providers, remote contract."""

from __future__ import annotations

import sqlite3
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import pytest

from http_stub import StubResponse, StubSession
from vulnprompt import llmclient
from vulnprompt.corpus import CodeSample
from vulnprompt.labels import label_set
from vulnprompt.llmclient import (
    CacheError,
    CompletionRequest,
    FixedProvider,
    MockProviderError,
    OracleProvider,
    ParrotProvider,
    ProviderError,
    ProviderRefusalError,
    ProviderTransportError,
    RemoteChatProvider,
    ResponseCache,
    _CountingProvider,
    complete,
)
from vulnprompt.prompting import prompt_hash, render


def request(prompt="Classify this.", **kw):
    return CompletionRequest(model_id="detector-model", prompt=prompt, **kw)


def one_shot_prompt(labels=("CWE-119", "CWE-476")):
    shot = CodeSample(id="s1", code="int f() { return 0; }", truth=label_set(labels))
    return render((shot,), "int g(char *p) { return *p; }")


def test_request_validation():
    with pytest.raises(ValueError):
        CompletionRequest(model_id="", prompt="x")
    with pytest.raises(ValueError):
        CompletionRequest(model_id="m", prompt="")
    with pytest.raises(ValueError):
        CompletionRequest(model_id="m", prompt="x", temperature=-0.1)
    with pytest.raises(ValueError):
        CompletionRequest(model_id="m", prompt="x", max_output_tokens=0)


def test_cache_key_sensitive_to_temperature():
    a = request(temperature=0.0)
    b = request(temperature=0.5)
    assert a.cache_key() != b.cache_key()


def test_cache_key_sensitive_to_every_field():
    base = request()
    assert base.cache_key() == request().cache_key()
    assert base.cache_key() != request(prompt="Other.").cache_key()
    assert base.cache_key() != request(max_output_tokens=64).cache_key()
    assert base.cache_key() != request(temperature=0).cache_key()
    assert (
        base.cache_key()
        != CompletionRequest(model_id="other-model", prompt="Classify this.").cache_key()
    )


def test_cache_key_bytes_are_stable():
    # responses.sqlite3 files stamped with CACHE_KEY_FORMAT are keyed by these
    # bytes: SHA-256 over '{"max_output_tokens": 128, "model_id":
    # "detector-model", "temperature": 0.0}' followed by the prompt's SHA-256.
    req = request()
    assert req.prompt_sha256 == prompt_hash("Classify this.") == (
        "9fb024293035790c45d89f2d98cd030b4d42ab41740a737831c86a3b4f94908b"
    )
    assert req.cache_key() == (
        "3055acc1ebcf552e538d3e206329a5b48c4df7461430bc3e2bd6cf55eb0ef64c"
    )


def test_new_cache_file_is_stamped_with_the_key_format(tmp_path):
    ResponseCache(tmp_path / "cache").close()
    with closing(sqlite3.connect(tmp_path / "cache" / llmclient.CACHE_FILENAME)) as raw:
        assert raw.execute("PRAGMA user_version").fetchone() == (llmclient.CACHE_KEY_FORMAT,)
    ResponseCache(tmp_path / "cache").close()  # a stamped file reopens


@pytest.mark.parametrize("stamp", [0, llmclient.CACHE_KEY_FORMAT + 1])
def test_cache_file_under_another_key_format_is_refused(tmp_path, stamp):
    path = tmp_path / llmclient.CACHE_FILENAME
    with closing(sqlite3.connect(path)) as raw, raw:
        raw.execute("CREATE TABLE responses (key TEXT PRIMARY KEY, response TEXT) WITHOUT ROWID")
        raw.execute("INSERT INTO responses VALUES ('k', 'CWE-119')")
        raw.execute(f"PRAGMA user_version = {stamp}")
    before = path.read_bytes()
    with pytest.raises(CacheError, match=f"cache database {path} holds responses"):
        ResponseCache(tmp_path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_complete_computes_each_cache_key_once(tmp_path, monkeypatch, warm):
    cache = ResponseCache(tmp_path / "cache")
    requests = [request(prompt=f"p{i}") for i in range(5)]
    if warm:
        complete(requests, FixedProvider("CWE-119"), cache)
    keyed = []
    real_cache_key = CompletionRequest.cache_key

    def counting_cache_key(self):
        keyed.append(self.prompt)
        return real_cache_key(self)

    monkeypatch.setattr(CompletionRequest, "cache_key", counting_cache_key)
    results = complete(requests, FixedProvider("CWE-119"), cache)
    assert [r.cached for r in results] == [warm] * 5
    assert keyed == [r.prompt for r in requests]


def test_complete_uses_cache_on_second_call(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    provider = FixedProvider("CWE-119")
    req = request()
    (first,) = complete([req], provider, cache)
    (second,) = complete([req], provider, cache)
    assert first.text == second.text == "CWE-119"
    assert first.cached is False
    assert second.cached is True
    assert provider.call_count == 1


def test_cache_round_trip_byte_fidelity(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    text = "CWE-119\n  weird \t spacing é"
    provider = FixedProvider(text)
    req = request()
    complete([req], provider, cache)
    assert cache.get(req.cache_key()) == text


@pytest.mark.parametrize(
    ("stored", "value"),
    [
        # "CWE-119 é" cut inside its last character, as a torn write leaves it.
        ("CAST(? AS TEXT)", "CWE-119 é".encode("utf-8")[:-1]),
        ("CAST(? AS TEXT)", b"\xff\xfe not utf-8"),
        ("?", None),
        ("?", b"[1, 2]"),
        ("?", b"CWE-119"),
    ],
    ids=["truncated", "undecodable", "no-response", "not-an-object", "not-a-string"],
)
def test_unreadable_cache_file_is_a_miss_and_rewritten(tmp_path, stored, value):
    # A row whose response is not valid text (bytes that are not UTF-8, NULL,
    # a BLOB even of valid text) reads as a miss and the fresh answer replaces it,
    # whether get reads it alone or complete reads it with the rest of its batch.
    cache = ResponseCache(tmp_path / "cache")
    req, sound = request(), request(prompt="A sound row.")
    complete([req, sound], FixedProvider("CWE-119"), cache)
    with closing(sqlite3.connect(cache.path)) as raw:
        raw.execute(
            f"UPDATE responses SET response = {stored} WHERE key = ?",
            (value, req.cache_key()),
        )
        raw.commit()
    assert cache.get(req.cache_key()) is None

    provider = FixedProvider("CWE-476")
    statements = traced_statements(cache)
    first, second = complete([sound, req], provider, cache)
    assert len(selects(statements)) == 1
    assert (first.text, first.cached) == ("CWE-119", True)
    assert (second.text, second.cached, provider.call_count) == ("CWE-476", False, 1)
    assert cache.get(req.cache_key()) == "CWE-476"
    with closing(sqlite3.connect(cache.path)) as raw:
        assert raw.execute("SELECT typeof(response) FROM responses").fetchall() == [
            ("text",), ("text",)
        ]


def traced_statements(cache) -> list:
    """Every SQL statement the cache's connection runs from now on."""
    statements = []
    cache._db.set_trace_callback(statements.append)
    return statements


def selects(statements) -> list:
    return [s for s in statements if s.lstrip().upper().startswith("SELECT")]


def test_complete_reads_a_batch_in_one_select_per_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(llmclient, "READ_CHUNK", 3)
    cache = ResponseCache(tmp_path / "cache")
    requests = [request(prompt=f"p{i}") for i in range(8)]
    provider = ScriptedProvider({f"p{i}": f"answer-p{i}" for i in range(8)})
    complete(requests[:7], provider, cache)
    statements = traced_statements(cache)
    results = complete(requests, provider, cache)
    # 8 distinct keys in chunks of 3, 3 and 2; p7 was never stored.
    reads = selects(statements)
    assert [read.count("'") // 2 for read in reads] == [3, 3, 2]
    assert all(read.startswith("SELECT key, response FROM responses WHERE key IN") for read in reads)
    assert [(r.text, r.cached) for r in results] == [
        (f"answer-p{i}", i < 7) for i in range(8)
    ]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_one_key_twice_in_a_batch_is_read_once_and_answered_twice(tmp_path, warm):
    cache = ResponseCache(tmp_path / "cache")
    req = request()
    if warm:
        complete([req], FixedProvider("CWE-119"), cache)
    provider = FixedProvider("CWE-119")
    statements = traced_statements(cache)
    results = complete([req, request(prompt="Other."), req], provider, cache)
    (read,) = selects(statements)
    assert read.count(req.cache_key()) == 1
    assert [r.cached for r in results] == [warm, False, warm]
    # Both copies of a missed prompt miss together; each is fetched.
    assert provider.call_count == (1 if warm else 3)


def test_an_empty_batch_runs_no_statement(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    provider = FixedProvider("CWE-119")
    statements = traced_statements(cache)
    assert complete([], provider, cache) == []
    assert statements == []
    assert provider.call_count == 0


def test_complete_without_cache_calls_provider_each_time():
    provider = FixedProvider("none")
    req = request()
    complete([req], provider, None)
    complete([req], provider, None)
    assert provider.call_count == 2


def test_cache_stats_and_clear(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    provider = FixedProvider("x")
    complete([request(prompt="a"), request(prompt="b")], provider, cache)
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["bytes"] > 0
    assert cache.clear() == 2
    assert cache.stats()["entries"] == 0


def test_cache_holds_one_file_with_keys_and_responses_only(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    req = request(prompt="a prompt the store must not keep")
    complete([req], FixedProvider("CWE-119"), cache)
    cache.close()
    assert [f.name for f in (tmp_path / "cache").iterdir()] == [llmclient.CACHE_FILENAME]
    with closing(sqlite3.connect(cache.path)) as raw:
        assert raw.execute("SELECT * FROM responses").fetchall() == [
            (req.cache_key(), "CWE-119")
        ]


def test_locked_cache_database_raises_cache_error_after_busy_timeout(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(llmclient, "_BUSY_TIMEOUT_S", 0.05)
    cache = ResponseCache(tmp_path / "cache")
    cache.put(request(prompt="before").cache_key(), "CWE-119")
    with closing(sqlite3.connect(cache.path, isolation_level=None)) as other:
        other.execute("BEGIN EXCLUSIVE")
        with pytest.raises(CacheError, match="database is locked"):
            cache.put(request(prompt="during").cache_key(), "CWE-476")
        other.execute("ROLLBACK")
    cache.put(request(prompt="during").cache_key(), "CWE-476")
    assert cache.get(request(prompt="before").cache_key()) == "CWE-119"
    assert cache.get(request(prompt="during").cache_key()) == "CWE-476"


class CrashesOnThirdMiss(_CountingProvider):
    """Answers "answer-<prompt>", but raises RuntimeError for prompt "p2"."""

    def generate(self, req: CompletionRequest) -> str:
        self._bump()
        if req.prompt == "p2":
            raise RuntimeError("provider crashed")
        return f"answer-{req.prompt}"


@pytest.mark.parametrize("max_in_flight", [1, 3], ids=["inline", "pool"])
def test_answers_before_a_crash_are_stored(tmp_path, max_in_flight):
    cache = ResponseCache(tmp_path / "cache")
    requests = [request(prompt=f"p{i}") for i in range(6)]
    provider = CrashesOnThirdMiss()
    provider.max_in_flight = max_in_flight
    with pytest.raises(RuntimeError, match="provider crashed"):
        complete(requests, provider, cache)

    # Answers are stored in input order as they are taken, so the two before
    # the crash are kept and none after it, whatever the workers finished.
    rerun = complete(requests, FixedProvider("fresh"), cache)
    assert [(r.text, r.cached) for r in rerun] == [
        ("answer-p0", True),
        ("answer-p1", True),
    ] + [("fresh", False)] * 4


class ScriptedProvider(_CountingProvider):
    """Answers each prompt from a table; a "refuse" entry raises a refusal."""

    def __init__(self, answers: dict) -> None:
        super().__init__()
        self.answers = answers

    def generate(self, req: CompletionRequest) -> str:
        self._bump()
        answer = self.answers[req.prompt]
        if answer == "refuse":
            raise ProviderRefusalError(f"declined {req.prompt}")
        return answer


def test_mixed_batch_keeps_input_order(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    cache.put(request(prompt="hit-a").cache_key(), "CWE-119")
    cache.put(request(prompt="hit-b").cache_key(), "CWE-476")
    provider = ScriptedProvider(
        {"miss-a": "CWE-120", "refused": "refuse", "miss-b": "CWE-469"}
    )
    provider.max_in_flight = 3
    prompts = ["miss-a", "hit-a", "refused", "hit-b", "miss-b", "miss-a"]
    results = complete([request(prompt=p) for p in prompts], provider, cache)

    assert isinstance(results[2], ProviderRefusalError)
    assert str(results[2]) == "declined refused"
    served = [(r.text, r.cached) for i, r in enumerate(results) if i != 2]
    assert served == [
        ("CWE-120", False),
        ("CWE-119", True),
        ("CWE-476", True),
        ("CWE-469", False),
        ("CWE-120", False),
    ]
    # Both copies of "miss-a" miss: a batch is not de-duplicated.
    assert provider.call_count == 4
    assert cache.get(request(prompt="refused").cache_key()) is None
    assert cache.get(request(prompt="miss-b").cache_key()) == "CWE-469"


def test_pool_is_sized_to_the_misses(tmp_path, monkeypatch):
    sizes = []
    real_pool = llmclient.ThreadPoolExecutor

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(llmclient, "ThreadPoolExecutor", recording_pool)
    cache = ResponseCache(tmp_path / "cache")
    provider = FixedProvider("CWE-119")
    provider.max_in_flight = 4
    complete([request(prompt="a")], provider, cache)
    complete([request(prompt=p) for p in "abc"], provider, cache)
    complete([request(prompt=p) for p in "abcdefg"], provider, cache)
    hits = complete([request(prompt=p) for p in "gfe"], provider, cache)
    # A lone miss is fetched inline and an all-hit batch builds no pool at all.
    assert sizes == [2, 4]
    assert all(r.cached for r in hits) and provider.call_count == 7


class ConcurrencyCountingSession:
    """Answers every POST after a short wait, recording the most outstanding."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.active = 0
        self.peak = 0
        self.posts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        with self._lock:
            self.active += 1
            self.posts += 1
            self.peak = max(self.peak, self.active)
        time.sleep(0.01)
        with self._lock:
            self.active -= 1
        return StubResponse(200, {"text": "CWE-119"})


def test_remote_provider_keeps_at_most_max_in_flight_posts_outstanding(tmp_path):
    session = ConcurrencyCountingSession()
    provider = RemoteChatProvider(
        endpoint="https://llm.test/v1", max_in_flight=3, session=session
    )
    results = complete(
        [request(prompt=f"p{i}") for i in range(12)],
        provider,
        ResponseCache(tmp_path / "cache"),
    )
    assert [r.text for r in results] == ["CWE-119"] * 12
    assert session.posts == provider.call_count == 12
    assert 1 < session.peak <= 3


def test_fixed_provider():
    provider = FixedProvider("none")
    assert provider.generate(request()) == "none"
    assert provider.generate(request(prompt="other")) == "none"
    assert provider.call_count == 2


def test_parrot_provider_returns_first_shot_labels():
    provider = ParrotProvider()
    shots = (
        CodeSample(id="a", code="int a();", truth=label_set(["CWE-120"])),
        CodeSample(id="b", code="int b();", truth=label_set(["CWE-469", "CWE-119"])),
    )
    assert provider.generate(request(prompt=render(shots, "int c();"))) == "CWE-120"


def test_parrot_provider_rejects_zero_shot():
    provider = ParrotProvider()
    with pytest.raises(MockProviderError, match="at least one shot"):
        provider.generate(request(prompt=render((), "int c();")))


def test_oracle_provider_answers_from_truth():
    code = "int g(char *p) { return *p; }"
    provider = OracleProvider({code: label_set(["CWE-476", "CWE-119"])})
    assert provider.generate(request(prompt=render((), code))) == "CWE-119, CWE-476"


def test_oracle_provider_unknown_snippet():
    provider = OracleProvider({})
    with pytest.raises(MockProviderError, match="no truth"):
        provider.generate(request(prompt=render((), "int x();")))


def test_mock_call_counts_are_thread_safe():
    provider = FixedProvider("x")
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda _: provider.generate(request()), range(200)))
    assert provider.call_count == 200


def test_remote_provider_success():
    session = StubSession([StubResponse(200, {"text": "CWE-119"})])
    provider = RemoteChatProvider(
        endpoint="https://llm.test/v1", session=session, sleep=lambda s: None
    )
    req = request(prompt=one_shot_prompt())
    assert provider.generate(req) == "CWE-119"
    assert provider.call_count == 1
    sent = session.requests[0]["json"]
    assert sent == {
        "model": "detector-model",
        "prompt": req.prompt,
        "temperature": 0.0,
        "max_output_tokens": 128,
    }


def test_remote_provider_refusal_not_retried():
    session = StubSession([StubResponse(200, {"refusal": "cannot assist"})])
    provider = RemoteChatProvider(
        endpoint="https://llm.test/v1", session=session, sleep=lambda s: None
    )
    with pytest.raises(ProviderRefusalError, match="cannot assist"):
        provider.generate(request())
    assert len(session.requests) == 1


def test_remote_answer_with_a_lone_surrogate_is_neither_retried_nor_cached(tmp_path):
    session = StubSession([StubResponse(200, {"text": "CWE-119 \ud800"})])
    provider = RemoteChatProvider(
        endpoint="https://llm.test/v1", session=session, sleep=lambda s: None
    )
    with closing(ResponseCache(tmp_path)) as cache:
        (result,) = complete([request()], provider, cache)
        assert isinstance(result, ProviderError)
        assert str(result) == "endpoint answer is not UTF-8 text: it holds a lone surrogate"
        assert cache.stats()["entries"] == 0
    assert len(session.requests) == provider.call_count == 1


@pytest.mark.parametrize("key", ["sk-test", "", None], ids=["set", "empty", "unset"])
def test_remote_provider_sends_a_bearer_key_only_when_llm_api_key_holds_one(monkeypatch, key):
    if key is None:
        monkeypatch.delenv("LLM_API_KEY", raising=False)
    else:
        monkeypatch.setenv("LLM_API_KEY", key)
    monkeypatch.setenv("EMBEDDING_API_KEY", "the-embedding-key")
    session = StubSession([StubResponse(200, {"text": "CWE-119"})])
    provider = RemoteChatProvider(endpoint="https://llm.test/v1", session=session)
    provider.generate(request())
    (sent,) = session.requests
    expected = {"Content-Type": "application/json"}
    if key:
        expected["Authorization"] = f"Bearer {key}"
    assert sent["url"] == "https://llm.test/v1"
    assert sent["headers"] == expected
    assert sent["timeout"] == 30.0


def test_remote_provider_hands_every_transport_setting_to_the_post(monkeypatch):
    monkeypatch.setenv("CUSTOM_LLM_KEY", "sk-custom")
    session = StubSession([StubResponse(503)] * 2)
    slept = []
    provider = RemoteChatProvider(
        "https://llm.test/v1",
        api_key_env="CUSTOM_LLM_KEY",
        timeout_s=5.0,
        retries=2,
        retry_base_delay_s=0.25,
        max_in_flight=2,
        session=session,
        sleep=slept.append,
    )
    with pytest.raises(ProviderTransportError, match="2 attempts"):
        provider.generate(request())
    assert [sent["timeout"] for sent in session.requests] == [5.0, 5.0]
    assert {sent["headers"]["Authorization"] for sent in session.requests} == {"Bearer sk-custom"}
    assert slept == [0.25]
    assert provider.max_in_flight == 2


def test_remote_provider_refuses_unknown_and_positional_settings():
    with pytest.raises(TypeError, match="timout_s"):
        RemoteChatProvider("https://llm.test/v1", timout_s=5.0)
    with pytest.raises(TypeError):
        RemoteChatProvider("https://llm.test/v1", "LLM_API_KEY")


def test_remote_provider_retries_transport_then_succeeds():
    session = StubSession(
        [ConnectionError("down"), StubResponse(500), StubResponse(200, {"text": "ok"})]
    )
    sleeps = []
    provider = RemoteChatProvider(
        endpoint="https://llm.test/v1", session=session, sleep=sleeps.append
    )
    assert provider.generate(request()) == "ok"
    assert len(session.requests) == 3
    assert sleeps == [0.5, 1.0]


@pytest.mark.parametrize(
    ("first", "sleeps"),
    [
        (StubResponse(429, headers={"Retry-After": "3"}), [3.0, 1.0]),
        (StubResponse(429, headers={"Retry-After": "1e9"}), [30.0, 1.0]),
        (StubResponse(429, headers={"Retry-After": "0"}), [0.5, 1.0]),
        (StubResponse(429, headers={"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"}), [0.5, 1.0]),
        (StubResponse(429, headers={}), [0.5, 1.0]),
        (StubResponse(429), [0.5, 1.0]),
        (StubResponse(503, headers={"Retry-After": "3"}), [0.5, 1.0]),
    ],
    ids=[
        "seconds", "past-the-timeout", "zero", "http-date", "absent", "no-headers-attribute",
        "not-a-429",
    ],
)
def test_remote_provider_honours_retry_after_on_429(first, sleeps):
    session = StubSession([first, StubResponse(503), StubResponse(200, {"text": "ok"})])
    slept = []
    provider = RemoteChatProvider(
        endpoint="https://llm.test/v1", session=session, sleep=slept.append
    )
    assert provider.generate(request()) == "ok"
    assert len(session.requests) == 3
    # The wait a 429 asks for covers only the retry right after it, and is
    # capped at the client's timeout_s (30 s by default).
    assert slept == sleeps


def test_remote_provider_lets_a_session_fault_propagate_unretried():
    session = StubSession([])
    slept = []
    provider = RemoteChatProvider(
        endpoint="https://llm.test/v1", session=session, sleep=slept.append
    )
    with pytest.raises(AssertionError, match="no canned response left"):
        provider.generate(request())
    assert len(session.requests) == 1
    assert slept == []


def test_remote_provider_exhausted_retries():
    session = StubSession([StubResponse(503)] * 3)
    provider = RemoteChatProvider(
        endpoint="https://llm.test/v1", session=session, sleep=lambda s: None
    )
    with pytest.raises(ProviderTransportError, match="3 attempts"):
        provider.generate(request())


def test_remote_provider_non_retryable_status():
    session = StubSession([StubResponse(401, text="bad key")])
    provider = RemoteChatProvider(
        endpoint="https://llm.test/v1", session=session, sleep=lambda s: None
    )
    with pytest.raises(ProviderError, match="status 401"):
        provider.generate(request())
    assert len(session.requests) == 1


@pytest.mark.parametrize(
    ("body", "message"),
    [
        (ValueError("Expecting value: line 1 column 1 (char 0)"), "non-JSON body"),
        (None, "not a JSON object"),
        (["CWE-119"], "not a JSON object"),
        ({}, "neither text nor refusal"),
    ],
    ids=["non_json", "null", "list", "empty_object"],
)
def test_remote_provider_malformed_body_is_typed_and_not_retried(body, message):
    session = StubSession([StubResponse(200, body)])
    provider = RemoteChatProvider(
        endpoint="https://llm.test/v1", session=session, sleep=lambda s: None
    )
    with pytest.raises(ProviderError, match=message) as excinfo:
        provider.generate(request())
    assert not isinstance(excinfo.value, ProviderTransportError)
    assert len(session.requests) == 1


def test_remote_provider_rejects_zero_retries():
    with pytest.raises(ValueError, match="retries must be >= 1"):
        RemoteChatProvider(endpoint="https://llm.test/v1", retries=0, session=StubSession([]))


def test_refusals_are_provider_errors():
    assert issubclass(ProviderRefusalError, ProviderError)
    assert issubclass(ProviderTransportError, ProviderError)
    assert issubclass(MockProviderError, ProviderError)
