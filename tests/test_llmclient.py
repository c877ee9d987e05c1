"""Completion clients: cache behavior, mock providers, remote contract."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from vulnprompt.labels import label_set
from vulnprompt.llmclient import (
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
    complete,
)
from vulnprompt.prompting import PromptSpec, Shot, Strategy, render


class StubResponse:
    def __init__(self, status_code, body=None, text=""):
        self.status_code = status_code
        self._body = body
        self.text = text

    def json(self):
        if isinstance(self._body, Exception):
            raise self._body
        return self._body


class StubSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def request(prompt="Classify this.", **kw):
    return CompletionRequest(model_id="detector-model", prompt=prompt, **kw)


def one_shot_prompt(labels=("CWE-119", "CWE-476")):
    spec = PromptSpec(
        strategy=Strategy.RETRIEVAL_FEW_SHOT,
        k=1,
        shots=(Shot(code="int f() { return 0; }", labels=label_set(labels)),),
        test_code="int g(char *p) { return *p; }",
    )
    return render(spec)


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
    assert (
        base.cache_key()
        != CompletionRequest(model_id="other-model", prompt="Classify this.").cache_key()
    )


def test_complete_uses_cache_on_second_call(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    provider = FixedProvider("CWE-119")
    req = request()
    first = complete(req, provider, cache)
    second = complete(req, provider, cache)
    assert first.text == second.text == "CWE-119"
    assert first.cached is False
    assert second.cached is True
    assert provider.call_count == 1


def test_cache_round_trip_byte_fidelity(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    text = "CWE-119\n  weird \t spacing é"
    provider = FixedProvider(text)
    req = request()
    complete(req, provider, cache)
    assert cache.get(req) == text


@pytest.mark.parametrize(
    "content",
    [b'{"request": {}, "respo', b"\xff\xfe not utf-8", b'{"request": {}}', b"[1, 2]", b'{"response": 5}'],
    ids=["truncated", "undecodable", "no-response", "not-an-object", "not-a-string"],
)
def test_unreadable_cache_file_is_a_miss_and_rewritten(tmp_path, content):
    cache = ResponseCache(tmp_path / "cache")
    req = request()
    complete(req, FixedProvider("CWE-119"), cache)
    path = cache.root / f"{req.cache_key()}.json"
    path.write_bytes(content)
    assert cache.get(req) is None

    provider = FixedProvider("CWE-476")
    result = complete(req, provider, cache)
    assert (result.text, result.cached, provider.call_count) == ("CWE-476", False, 1)
    assert cache.get(req) == "CWE-476"


def test_complete_without_cache_calls_provider_each_time():
    provider = FixedProvider("none")
    req = request()
    complete(req, provider, None)
    complete(req, provider, None)
    assert provider.call_count == 2


def test_cache_stats_and_clear(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    provider = FixedProvider("x")
    complete(request(prompt="a"), provider, cache)
    complete(request(prompt="b"), provider, cache)
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["bytes"] > 0
    assert cache.clear() == 2
    assert cache.stats()["entries"] == 0


def test_fixed_provider():
    provider = FixedProvider("none")
    assert provider.generate(request()) == "none"
    assert provider.generate(request(prompt="other")) == "none"
    assert provider.call_count == 2


def test_parrot_provider_returns_first_shot_labels():
    provider = ParrotProvider()
    spec = PromptSpec(
        strategy=Strategy.RANDOM_FEW_SHOT,
        k=2,
        shots=(
            Shot(code="int a();", labels=label_set(["CWE-120"])),
            Shot(code="int b();", labels=label_set(["CWE-469", "CWE-119"])),
        ),
        test_code="int c();",
    )
    assert provider.generate(request(prompt=render(spec))) == "CWE-120"


def test_parrot_provider_rejects_zero_shot():
    provider = ParrotProvider()
    spec = PromptSpec(strategy=Strategy.ZERO_SHOT, k=0, shots=(), test_code="int c();")
    with pytest.raises(MockProviderError, match="at least one shot"):
        provider.generate(request(prompt=render(spec)))


def test_oracle_provider_answers_from_truth():
    code = "int g(char *p) { return *p; }"
    provider = OracleProvider({code: label_set(["CWE-476", "CWE-119"])})
    spec = PromptSpec(strategy=Strategy.ZERO_SHOT, k=0, shots=(), test_code=code)
    assert provider.generate(request(prompt=render(spec))) == "CWE-119, CWE-476"


def test_oracle_provider_unknown_snippet():
    provider = OracleProvider({})
    spec = PromptSpec(strategy=Strategy.ZERO_SHOT, k=0, shots=(), test_code="int x();")
    with pytest.raises(MockProviderError, match="no truth"):
        provider.generate(request(prompt=render(spec)))


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
    ],
    ids=["non_json", "null", "list"],
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
