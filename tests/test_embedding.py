"""Embedding backends: determinism, normalization, remote contract."""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def unit(values):
    norm = math.sqrt(sum(v * v for v in values))
    return [v / norm for v in values]


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
    """Canned responses in order; records every request made."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json})
        if not self.responses:
            raise AssertionError("no canned response left")
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def test_vector_requires_unit_norm():
    EmbeddingVector(values=(1.0, 0.0))
    with pytest.raises(EmbeddingError, match="norm"):
        EmbeddingVector(values=(1.0, 1.0))
    with pytest.raises(EmbeddingError):
        EmbeddingVector(values=())


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
    assert a.values != b.values


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
    assert vec.values == (0.6, 0.8, 0.0, 0.0)
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
    return tuple(v / norm for v in accum)


@given(st.lists(st.text(min_size=1).filter(lambda s: s.strip()), min_size=1, max_size=5))
def test_memoised_coordinates_match_unmemoised_bit_for_bit(codes):
    backend = HashedBagOfTokensBackend(dimension=32)
    for code in codes + codes:
        item = EmbeddingInput(code=code)
        try:
            vec = backend.embed(item)
        except EmbeddingError:
            continue
        assert vec.values == unmemoised_embedding(item.rendered_text(), 32)


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
