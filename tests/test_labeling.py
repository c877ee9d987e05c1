"""Output parsing and the retrieval-based labeling baseline."""

from __future__ import annotations

import re
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vulnprompt.corpus import CodeSample, Corpus
from vulnprompt.embedding import EmbeddingInput
from vulnprompt.labeling import (
    LabelingError,
    ParseOutcome,
    parse_labels,
    retrieval_label,
)
from vulnprompt.labels import ALL_LABELS, CweLabel, format_labels, label_set
from vulnprompt.vecindex import Neighbor, top_k


def test_parse_direct_list():
    outcome = parse_labels("CWE-119, CWE-476")
    assert outcome.labels == label_set(["CWE-119", "CWE-476"])
    assert outcome.unknown_mentions == ()
    assert outcome.empty_parse is False


def test_parse_prose_with_unknown_mention():
    outcome = parse_labels("likely cwe 120 (stack overflow); also CWE-787")
    assert outcome.labels == frozenset({CweLabel.CWE_120})
    assert outcome.unknown_mentions == ("787",)


def test_parse_no_mentions():
    outcome = parse_labels("No vulnerabilities found.")
    assert outcome.labels == frozenset()
    assert outcome.unknown_mentions == ()
    assert outcome.empty_parse is True


def test_parse_separator_variants():
    for text in ("CWE-119", "cwe 119", "CWE_119", "Cwe-119", "cwe119"):
        assert parse_labels(text).labels == frozenset({CweLabel.CWE_119}), text


def test_parse_zero_padded_number_is_unknown():
    outcome = parse_labels("CWE-0119")
    assert outcome.labels == frozenset()
    assert outcome.unknown_mentions == ("0119",)
    assert outcome.empty_parse is False


def test_parse_deduplicates_in_order():
    outcome = parse_labels("CWE-787, CWE-119, CWE-787, CWE-89, CWE-119")
    assert outcome.labels == frozenset({CweLabel.CWE_119})
    assert outcome.unknown_mentions == ("787", "89")


def test_parse_round_trips_rendered_label_lines():
    for labels in (
        ["CWE-119"],
        ["CWE-120", "CWE-476"],
        ["CWE-119", "CWE-120", "CWE-469", "CWE-476"],
    ):
        line = format_labels(label_set(labels))
        assert parse_labels(line).labels == label_set(labels)


@given(st.text())
def test_parse_is_total_and_in_scope(text):
    outcome = parse_labels(text)
    assert outcome.labels <= frozenset(ALL_LABELS)
    for mention in outcome.unknown_mentions:
        assert mention not in ("119", "120", "469", "476")


@given(st.sets(st.sampled_from(list(CweLabel)), min_size=1))
def test_parse_format_round_trip_property(labels):
    outcome = parse_labels(format_labels(labels))
    assert outcome.labels == frozenset(labels)
    assert outcome.unknown_mentions == ()


# Every character Python's `\s` matches; none lies above U+3000.
WHITESPACE = [chr(c) for c in range(0x3001) if re.fullmatch(r"\s", chr(c))]
IN_SCOPE_NUMBERS = {str(label.number) for label in CweLabel}


# What comes before the number: "cwe" in any letter case, then no separator,
# one whitespace character, "-" or "_".
cwe_prefix = st.builds(
    lambda cases, separator: "".join(
        letter.upper() if upper else letter for letter, upper in zip("cwe", cases)
    )
    + separator,
    st.tuples(st.booleans(), st.booleans(), st.booleans()),
    st.sampled_from(["", "-", "_"]) | st.sampled_from(WHITESPACE),
)


# Prose around a mention: no "c" in any case, so it cannot start a mention
# of its own, and a leading non-digit so it ends the mention's number.
non_digit = st.characters().filter(lambda c: re.fullmatch(r"\d", c) is None)
no_mention = st.text(st.characters(blacklist_characters="cC"))
tail = st.one_of(
    st.just(""),
    st.tuples(non_digit.filter(lambda c: c not in "cC"), no_mention).map("".join),
)


@given(st.sampled_from(ALL_LABELS), cwe_prefix, no_mention, tail)
def test_every_documented_spelling_parses_to_its_label(label, prefix, head, rest):
    outcome = parse_labels(head + prefix + str(label.number) + rest)
    assert outcome == ParseOutcome(
        labels=frozenset({label}), unknown_mentions=(), empty_parse=False
    )


# Any other digit string, zero-padded in-scope numbers ("0119") among them.
out_of_scope_number = st.one_of(
    st.from_regex(r"[0-9]{1,6}", fullmatch=True).filter(
        lambda n: n not in IN_SCOPE_NUMBERS
    ),
    st.builds(
        lambda zeros, n: "0" * zeros + n,
        st.integers(min_value=1, max_value=3),
        st.sampled_from(sorted(IN_SCOPE_NUMBERS)),
    ),
)


@given(out_of_scope_number, cwe_prefix, no_mention, tail)
def test_out_of_scope_number_is_an_unknown_mention(number, prefix, head, rest):
    outcome = parse_labels(head + prefix + number + rest)
    assert outcome == ParseOutcome(
        labels=frozenset(), unknown_mentions=(number,), empty_parse=False
    )


def two_sample_corpus():
    train = (
        CodeSample(id="n1", code="int a();", truth=label_set(["CWE-119"])),
        CodeSample(id="n2", code="int b();", truth=label_set(["CWE-120"])),
        CodeSample(id="n3", code="int c();", truth=label_set(["CWE-119", "CWE-476"])),
    )
    return Corpus(train=train, test=())


def test_retrieval_label_union():
    corpus = two_sample_corpus()
    neighbors = [
        Neighbor(sample_id="n1", similarity=0.9),
        Neighbor(sample_id="n2", similarity=0.8),
        Neighbor(sample_id="n3", similarity=0.7),
    ]
    assert retrieval_label(neighbors, corpus) == label_set(
        ["CWE-119", "CWE-120", "CWE-476"]
    )


def test_retrieval_label_single_neighbor():
    corpus = two_sample_corpus()
    assert retrieval_label(
        [Neighbor(sample_id="n2", similarity=1.0)], corpus
    ) == label_set(["CWE-120"])


def test_retrieval_label_idempotent_union():
    corpus = two_sample_corpus()
    neighbors = [
        Neighbor(sample_id="n1", similarity=0.9),
        Neighbor(sample_id="n1", similarity=0.9),
    ]
    assert retrieval_label(neighbors, corpus) == label_set(["CWE-119"])


def test_retrieval_label_requires_neighbors():
    with pytest.raises(LabelingError, match="at least one neighbor"):
        retrieval_label([], two_sample_corpus())


def test_retrieval_label_unresolvable_id():
    with pytest.raises(LabelingError, match="ghost"):
        retrieval_label([Neighbor(sample_id="ghost", similarity=0.5)], two_sample_corpus())


def test_retrieval_label_accepts_corpus_or_mapping():
    corpus = two_sample_corpus()
    by_id = corpus.by_id()
    neighbors = [
        Neighbor(sample_id="n3", similarity=0.9),
        Neighbor(sample_id="n2", similarity=0.8),
    ]
    expected = label_set(["CWE-119", "CWE-120", "CWE-476"])
    for samples in (corpus, by_id, types.MappingProxyType(by_id)):
        assert retrieval_label(neighbors, samples) == expected
        with pytest.raises(LabelingError, match="ghost"):
            retrieval_label([Neighbor(sample_id="ghost", similarity=0.5)], samples)


def test_retrieval_label_monotone_in_k(
    synthetic_corpus, synthetic_index, hashed_backend
):
    sample = synthetic_corpus.test[3]
    query = hashed_backend.embed(EmbeddingInput(code=sample.code))
    previous = frozenset()
    for k in range(1, 12):
        neighbors = top_k(synthetic_index, query, k)
        pred = retrieval_label(neighbors, synthetic_corpus)
        assert pred >= previous
        previous = pred
