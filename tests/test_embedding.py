"""Embedding backends: determinism, normalization, remote contract."""

from __future__ import annotations

import math
import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from http_stub import StubResponse, StubSession
from vulnprompt import embedding
from vulnprompt.embedding import (
    EmbeddingError,
    EmbeddingInput,
    EmbeddingInputTooLarge,
    EmbeddingTransportError,
    EmbeddingVector,
    HashedBagOfTokensBackend,
    RemoteEmbeddingBackend,
    token_coordinate,
    tokenize,
)
from vulnprompt.labels import label_set
from vulnprompt.runner import build_index_from_corpus


def unit(values):
    norm = math.sqrt(sum(v * v for v in values))
    return [v / norm for v in values]


def test_vector_requires_unit_norm():
    EmbeddingVector(values=(1.0, 0.0))
    with pytest.raises(EmbeddingError, match="norm"):
        EmbeddingVector(values=(1.0, 1.0))
    for values in [(float("nan"), 0.0), (float("nan"), 1.0), (1.0, float("-inf"))]:
        with pytest.raises(EmbeddingError, match="norm"):
            EmbeddingVector(values=values)
    with pytest.raises(EmbeddingError):
        EmbeddingVector(values=())


def test_vector_values_are_a_read_only_float64_copy():
    source = np.array([0.6, 0.8])
    vec = EmbeddingVector(values=source)
    assert vec.values.dtype == np.float64 and vec.values.ndim == 1
    assert not np.shares_memory(vec.values, source)
    source[0] = 0.0
    assert vec.values.tolist() == [0.6, 0.8]
    with pytest.raises(ValueError, match="read-only"):
        vec.values[0] = 0.0
    with pytest.raises(EmbeddingError, match="1-D"):
        EmbeddingVector(values=[[1.0, 0.0]])


class CopyCountingNumpy:
    """numpy as the embedding module sees it, counting np.array calls."""

    def __init__(self) -> None:
        self.copies = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def array(self, *args, **kwargs):
        self.copies += 1
        return np.array(*args, **kwargs)


def test_hashed_embed_makes_no_second_copy(monkeypatch):
    counting = CopyCountingNumpy()
    monkeypatch.setattr(embedding, "np", counting)
    vec = HashedBagOfTokensBackend(dimension=64).embed(EmbeddingInput(code="int f(int x);"))
    assert counting.copies == 0
    assert not vec.values.flags.writeable


def test_vector_equality_is_exact():
    assert EmbeddingVector(values=(0.6, 0.8)) == EmbeddingVector(values=[0.6, 0.8])
    nudged = np.nextafter(0.8, 1.0)
    assert EmbeddingVector(values=(0.6, 0.8)) != EmbeddingVector(values=(0.6, nudged))


def test_input_requires_code():
    with pytest.raises(EmbeddingError):
        EmbeddingInput(code="   ")


def test_rendered_text_appends_label_suffix():
    item = EmbeddingInput(code="int x;", labels=label_set(["CWE-476", "CWE-119"]))
    assert item.rendered_text() == "int x;\nLABELS: CWE-119, CWE-476"
    assert EmbeddingInput(code="int x;").rendered_text() == "int x;"


def test_tokenize_splits_identifier_and_punctuation_runs():
    assert tokenize("int x = a+b;") == ["int", "x", "=", "a", "+", "b", ";"]
    assert tokenize("buf[i]->next") == ["buf", "[", "i", "]->", "next"]


def test_every_input_that_strip_keeps_has_a_token():
    """EmbeddingInput refuses code that strip() leaves empty, and embed relies
    on every other input having a token: tokenize keeps each character that
    is not whitespace, and str.isspace and re's \\s agree on every code point."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = [c for c in every if c.isspace()]
    assert re.findall(r"\s", every) == spaces
    assert "".join(tokenize(every)) == "".join(c for c in every if not c.isspace())
    assert "".join(spaces).strip() == ""
    with pytest.raises(EmbeddingError, match="code must be non-empty"):
        EmbeddingInput(code="".join(spaces))


def test_embed_refuses_tokens_that_cancel():
    """At dimension 1 every token lands on coordinate 0, "a" with sign -1
    and "c" with sign +1, so their sum is the zero vector."""
    backend = HashedBagOfTokensBackend(1)
    assert [token_coordinate(t, 1) for t in ("a", "c")] == [(0, -1.0), (0, 1.0)]
    with pytest.raises(EmbeddingError, match="token contributions cancelled to a zero vector"):
        backend.embed(EmbeddingInput(code="a c"))


def test_embed_deterministic_bitwise():
    backend = HashedBagOfTokensBackend(dimension=64)
    a = backend.embed(EmbeddingInput(code="int x;"))
    b = backend.embed(EmbeddingInput(code="int x;"))
    assert a == b


def test_embed_unit_norm():
    backend = HashedBagOfTokensBackend(dimension=64)
    vec = backend.embed(EmbeddingInput(code="char buf[16]; strcpy(buf, src);"))
    norm = math.sqrt(sum(v * v for v in vec.values))
    assert abs(norm - 1.0) <= 1e-9


def test_label_suffix_changes_vector():
    """A 3-token snippet with and without the label suffix must land on
    different coordinates, checked from the token multisets directly."""
    backend = HashedBagOfTokensBackend(dimension=64)
    plain = EmbeddingInput(code="int x ;")
    tagged = EmbeddingInput(code="int x ;", labels=label_set(["CWE-119"]))
    assert tokenize(plain.rendered_text()) == ["int", "x", ";"]

    coords_plain = Counter(
        token_coordinate(t, 64) for t in tokenize(plain.rendered_text())
    )
    coords_tagged = Counter(
        token_coordinate(t, 64) for t in tokenize(tagged.rendered_text())
    )
    assert coords_plain != coords_tagged

    a = backend.embed(plain)
    b = backend.embed(tagged)
    cosine = sum(x * y for x, y in zip(a.values, b.values))
    assert cosine < 1.0
    assert a != b


def test_token_multiset_locality():
    backend = HashedBagOfTokensBackend(dimension=64)
    a = backend.embed(EmbeddingInput(code="int  x ;\n"))
    b = backend.embed(EmbeddingInput(code="int x ;"))
    assert a == b


def test_remote_success_normalizes():
    session = StubSession([StubResponse(200, {"embedding": [3.0, 4.0, 0.0, 0.0]})])
    backend = RemoteEmbeddingBackend(
        endpoint="https://embed.test/v1",
        model="embed-small",
        dimension=4,
        session=session,
        sleep=lambda s: None,
    )
    vec = backend.embed(EmbeddingInput(code="int x;"))
    assert vec.values.tolist() == [0.6, 0.8, 0.0, 0.0]
    assert session.requests[0]["json"] == {"model": "embed-small", "input": "int x;"}


def test_remote_retries_on_500_then_succeeds():
    session = StubSession(
        [
            StubResponse(500),
            StubResponse(200, {"embedding": unit([1.0, 1.0, 1.0, 1.0])}),
        ]
    )
    sleeps = []
    backend = RemoteEmbeddingBackend(
        endpoint="https://embed.test/v1",
        model="embed-small",
        dimension=4,
        session=session,
        sleep=sleeps.append,
    )
    backend.embed(EmbeddingInput(code="int x;"))
    assert len(session.requests) == 2
    assert sleeps == [0.5]


def test_remote_does_not_retry_on_400():
    session = StubSession([StubResponse(400, text="bad request")])
    backend = RemoteEmbeddingBackend(
        endpoint="https://embed.test/v1",
        model="embed-small",
        dimension=4,
        session=session,
        sleep=lambda s: None,
    )
    with pytest.raises(EmbeddingError, match="status 400"):
        backend.embed(EmbeddingInput(code="int x;"))
    assert len(session.requests) == 1


def test_remote_transport_failure_exhausts_retries():
    session = StubSession([ConnectionError("down")] * 3)
    backend = RemoteEmbeddingBackend(
        endpoint="https://embed.test/v1",
        model="embed-small",
        dimension=4,
        session=session,
        sleep=lambda s: None,
    )
    with pytest.raises(EmbeddingTransportError, match="3 attempts"):
        backend.embed(EmbeddingInput(code="int x;"))
    assert len(session.requests) == 3


def test_remote_lets_a_session_fault_propagate_unretried():
    session = StubSession([])
    slept = []
    backend = RemoteEmbeddingBackend(
        endpoint="https://embed.test/v1",
        model="embed-small",
        dimension=4,
        session=session,
        sleep=slept.append,
    )
    with pytest.raises(AssertionError, match="no canned response left"):
        backend.embed(EmbeddingInput(code="int x;"))
    assert len(session.requests) == 1
    assert slept == []


@pytest.mark.parametrize(
    ("body", "message"),
    [
        (ValueError("Expecting value: line 1 column 1 (char 0)"), "non-JSON body"),
        (None, "not a JSON object"),
        ([0.6, 0.8, 0.0, 0.0], "not a JSON object"),
    ],
    ids=["non_json", "null", "list"],
)
def test_remote_malformed_body_is_typed_and_not_retried(body, message):
    session = StubSession([StubResponse(200, body)])
    backend = RemoteEmbeddingBackend(
        endpoint="https://embed.test/v1",
        model="embed-small",
        dimension=4,
        session=session,
        sleep=lambda s: None,
    )
    with pytest.raises(EmbeddingError, match=message) as excinfo:
        backend.embed(EmbeddingInput(code="int x;"))
    assert not isinstance(excinfo.value, EmbeddingTransportError)
    assert len(session.requests) == 1


def test_remote_oversize_precheck_makes_no_call():
    session = StubSession([])
    backend = RemoteEmbeddingBackend(
        endpoint="https://embed.test/v1",
        model="embed-small",
        dimension=4,
        max_input_chars=10,
        session=session,
        sleep=lambda s: None,
    )
    with pytest.raises(EmbeddingInputTooLarge, match="50 chars"):
        backend.embed(EmbeddingInput(code="y" * 50))
    assert session.requests == []


@pytest.mark.parametrize(
    ("values", "error"),
    [
        ([float("nan"), 1.0, 0.0, 0.0], "norm nan"),
        ([float("inf"), 1.0, 0.0, 0.0], "norm nan"),
        ([None, 1.0, 0.0, 0.0], "non-numeric"),
        (["x", 1.0, 0.0, 0.0], "non-numeric"),
        ([10**400, 1.0, 0.0, 0.0], "non-numeric"),
        ([True, False, False, False], "non-numeric"),
        (["0.6", 0.8, 0.0, 0.0], "non-numeric"),
        ([0.0, 0.0, 0.0, 0.0], "zero vector"),
        ([1e200, 0.0, 0.0, 0.0], "square overflows"),
    ],
    ids=[
        "nan", "inf", "null", "string", "huge-int", "bool", "numeric-string", "zero",
        "square-overflows",
    ],
)
def test_remote_bad_embedding_values_are_typed_errors(values, error):
    session = StubSession([StubResponse(200, {"embedding": values})])
    backend = RemoteEmbeddingBackend(
        endpoint="https://embed.test/v1",
        model="embed-small",
        dimension=4,
        session=session,
        sleep=lambda s: None,
    )
    with pytest.raises(EmbeddingError, match=error):
        backend.embed(EmbeddingInput(code="int x;"))
    assert len(session.requests) == 1


@pytest.mark.parametrize("key", ["sk-test", "", None], ids=["set", "empty", "unset"])
def test_remote_sends_a_bearer_key_only_when_embedding_api_key_holds_one(monkeypatch, key):
    if key is None:
        monkeypatch.delenv("EMBEDDING_API_KEY", raising=False)
    else:
        monkeypatch.setenv("EMBEDDING_API_KEY", key)
    monkeypatch.setenv("LLM_API_KEY", "the-chat-key")
    session = StubSession([StubResponse(200, {"embedding": [3.0, 4.0, 0.0, 0.0]})])
    backend = RemoteEmbeddingBackend(
        endpoint="https://embed.test/v1", model="embed-small", dimension=4, session=session
    )
    backend.embed(EmbeddingInput(code="int x;"))
    (sent,) = session.requests
    expected = {"Content-Type": "application/json"}
    if key:
        expected["Authorization"] = f"Bearer {key}"
    assert sent["url"] == "https://embed.test/v1"
    assert sent["headers"] == expected
    assert sent["timeout"] == 30.0


def test_remote_hands_every_transport_setting_to_the_post(monkeypatch):
    monkeypatch.setenv("CUSTOM_EMBEDDING_KEY", "sk-custom")
    session = StubSession([StubResponse(503)] * 2)
    slept = []
    backend = RemoteEmbeddingBackend(
        "https://embed.test/v1",
        "embed-small",
        4,
        api_key_env="CUSTOM_EMBEDDING_KEY",
        timeout_s=5.0,
        retries=2,
        retry_base_delay_s=0.25,
        max_input_chars=10,
        session=session,
        sleep=slept.append,
    )
    with pytest.raises(EmbeddingTransportError, match="2 attempts"):
        backend.embed(EmbeddingInput(code="int x;"))
    assert [sent["timeout"] for sent in session.requests] == [5.0, 5.0]
    assert {sent["headers"]["Authorization"] for sent in session.requests} == {"Bearer sk-custom"}
    assert slept == [0.25]
    assert backend.max_input_chars == 10


def test_remote_refuses_unknown_and_positional_settings():
    with pytest.raises(TypeError, match="timout_s"):
        RemoteEmbeddingBackend("https://embed.test/v1", "embed-small", 4, timout_s=5.0)
    with pytest.raises(TypeError):
        RemoteEmbeddingBackend("https://embed.test/v1", "embed-small", 4, "EMBEDDING_API_KEY")


def test_remote_dimension_mismatch():
    session = StubSession([StubResponse(200, {"embedding": [1.0, 0.0]})])
    backend = RemoteEmbeddingBackend(
        endpoint="https://embed.test/v1",
        model="embed-small",
        dimension=4,
        session=session,
        sleep=lambda s: None,
    )
    with pytest.raises(EmbeddingError, match="expected 4"):
        backend.embed(EmbeddingInput(code="int x;"))


@given(st.text(min_size=1).filter(lambda s: s.strip()))
def test_embed_always_unit_norm(code):
    backend = HashedBagOfTokensBackend(dimension=32)
    try:
        vec = backend.embed(EmbeddingInput(code=code))
    except EmbeddingError as exc:
        assert "zero vector" in str(exc)
        return
    norm = math.sqrt(sum(v * v for v in vec.values))
    assert abs(norm - 1.0) <= 1e-9


def unmemoised_embedding(text, dimension):
    """The hashed embedding computed token by token with no memo."""
    accum = [0.0] * dimension
    for token in tokenize(text):
        index, sign = token_coordinate(token, dimension)
        accum[index] += sign
    norm = math.sqrt(sum(v * v for v in accum))
    return [v / norm for v in accum]


@given(st.lists(st.text(min_size=1).filter(lambda s: s.strip()), min_size=1, max_size=5))
def test_memoised_coordinates_match_unmemoised_bit_for_bit(codes):
    backend = HashedBagOfTokensBackend(dimension=32)
    for code in codes + codes:
        item = EmbeddingInput(code=code)
        try:
            vec = backend.embed(item)
        except EmbeddingError:
            continue
        assert vec.values.tolist() == unmemoised_embedding(item.rendered_text(), 32)


def test_memo_never_leaks_across_dimensions():
    items = [
        EmbeddingInput(code="int main(void) { char buf[8]; strcpy(buf, argv[1]); }"),
        EmbeddingInput(code="free(p); free(p);", labels=label_set(["CWE-476"])),
    ]
    small = HashedBagOfTokensBackend(dimension=16)
    large = HashedBagOfTokensBackend(dimension=512)
    for _ in range(2):
        for backend in (small, large):
            fresh = HashedBagOfTokensBackend(dimension=backend.dimension)
            for item in items:
                assert backend.embed(item) == fresh.embed(item)


def test_index_rows_match_unmemoised_embedding_bit_for_bit(synthetic_corpus):
    backend = HashedBagOfTokensBackend(dimension=256)
    index = build_index_from_corpus(synthetic_corpus, backend, include_labels=True)
    assert list(index.ids) == [sample.id for sample in synthetic_corpus.train]
    for row, sample in zip(index.matrix, synthetic_corpus.train):
        item = EmbeddingInput(code=sample.code, labels=sample.truth)
        assert row.tolist() == unmemoised_embedding(item.rendered_text(), 256)
