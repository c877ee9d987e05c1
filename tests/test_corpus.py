"""Corpus ingestion: scoping rules, error reporting, and round-trips."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vulnprompt.corpus import (
    CodeSample,
    Corpus,
    IngestError,
    dump_jsonl,
    ingest,
    validate,
)
from vulnprompt.labels import CweLabel, label_set
from vulnprompt.synthetic import make_synthetic_corpus


def write_jsonl(path, records):
    lines = [json.dumps(record) for record in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def record(id, code="int f() { return 0; }", labels=("CWE-119",), split="train"):
    return {"id": id, "code": code, "labels": list(labels), "split": split}


def test_ingest_happy_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(
        path,
        [
            record("a", labels=["CWE-119", "CWE-476"]),
            record("b", labels=["CWE-120"], split="test"),
        ],
    )
    corpus = ingest(path)
    assert len(corpus.train) == 1
    assert len(corpus.test) == 1
    assert corpus.train[0].id == "a"
    assert corpus.train[0].truth == label_set(["CWE-119", "CWE-476"])


def test_ingest_drops_cwe_other_only_rows(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [record("a", labels=["CWE-other"]), record("b")])
    corpus = ingest(path)
    assert [s.id for s in corpus.train] == ["b"]
    assert corpus.stats.dropped_out_of_scope_only == 1
    assert corpus.stats.out_of_scope_counts == {"CWE-other": 1}


def test_ingest_drops_non_vulnerable_rows(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [record("a", labels=[]), record("b")])
    corpus = ingest(path)
    assert [s.id for s in corpus.train] == ["b"]
    assert corpus.stats.dropped_non_vulnerable == 1


def test_ingest_keeps_in_scope_labels_of_mixed_rows(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [record("a", labels=["CWE-119", "CWE-other"])])
    corpus = ingest(path)
    assert corpus.train[0].truth == frozenset({CweLabel.CWE_119})
    assert corpus.stats.out_of_scope_counts == {"CWE-other": 1}
    assert corpus.stats.retained == 1


def test_ingest_keeps_exactly_the_four_label_codes_in_scope(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [record("a", labels=["CWE-787", "CWE-120", "CWE-0119", "CWE-787"])])
    corpus = ingest(path)
    assert corpus.train[0].truth == frozenset({CweLabel.CWE_120})
    assert corpus.stats.out_of_scope_counts == {"CWE-787": 2, "CWE-0119": 1}


def test_ingest_retained_plus_dropped_equals_total(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(
        path,
        [
            record("a"),
            record("b", labels=[]),
            record("c", labels=["CWE-787"]),
            record("d", labels=["CWE-476"], split="test"),
        ],
    )
    corpus = ingest(path)
    stats = corpus.stats
    assert stats.total_records == 4
    assert stats.retained == 2
    assert stats.dropped_non_vulnerable == stats.dropped_out_of_scope_only == 1


def test_ingest_skips_blank_lines(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        json.dumps(record("a")) + "\n\n" + json.dumps(record("b")) + "\n",
        encoding="utf-8",
    )
    corpus = ingest(path)
    assert corpus.stats.total_records == 2


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_ingest_reads_any_line_ending(tmp_path, newline):
    path = tmp_path / "corpus.jsonl"
    text = newline.join(json.dumps(record(i)) for i in ("a", "b", "c")) + newline
    path.write_bytes(text.encode("utf-8"))
    assert [s.id for s in ingest(path).train] == ["a", "b", "c"]


def test_ingest_bytes_that_are_not_utf8_name_file_and_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    utf8 = json.dumps(record("a", code="/* caf\u00e9 */ int f();"), ensure_ascii=False)
    latin1 = json.dumps(record("b", code="/* caf? */ int g();")).replace("?", "\u00e9")
    path.write_bytes(utf8.encode("utf-8") + b"\n" + latin1.encode("latin-1") + b"\n")
    with pytest.raises(IngestError, match=re.escape(f"{path}: line 2: not UTF-8 text")):
        ingest(path)


def test_ingest_accepts_an_escaped_surrogate_pair_and_non_ascii_text(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [record("\u00e9", code="/* \ud83d\ude00 caf\u00e9 */ int f();")])
    assert json.dumps("\U0001f600") == '"\\ud83d\\ude00"'
    (sample,) = ingest(path).train
    assert (sample.id, sample.code) == ("\u00e9", "/* \U0001f600 caf\u00e9 */ int f();")


def test_ingest_malformed_json_reports_line_number(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(record("a")) + "\n{not json\n", encoding="utf-8")
    with pytest.raises(IngestError, match="line 2"):
        ingest(path)


def test_ingest_duplicate_id_rejected(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [record("a"), record("a", split="test")])
    with pytest.raises(IngestError, match="duplicate id"):
        ingest(path)


def test_ingest_unknown_split_rejected(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [record("a", split="validation")])
    with pytest.raises(IngestError, match="unknown split"):
        ingest(path)


def test_ingest_empty_code_rejected(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [record("a", code="   ")])
    with pytest.raises(IngestError, match="code must be"):
        ingest(path)


def test_ingest_missing_field_rejected(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        json.dumps({"id": "a", "code": "x", "labels": []}) + "\n", encoding="utf-8"
    )
    with pytest.raises(IngestError, match="missing field 'split'"):
        ingest(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"id": "b", "code": "caf\xe9"}'.encode("latin-1"), "not UTF-8 text"),
        (b"{not json", "malformed JSON: Expecting property name"),
        (b"[1]", "record must be a JSON object"),
        (b'{"id": "b", "code": "x", "labels": []}', "missing field 'split'"),
        (json.dumps(record("")).encode(), "id must be a non-empty string"),
        (json.dumps(record("a", split="test")).encode(), "duplicate id 'a'"),
        (json.dumps(record("b", code=" ")).encode(), "code must be a non-empty string"),
        (json.dumps(record("b", labels=[119])).encode(), "labels must be a list of strings"),
        (json.dumps(record("b", split="dev")).encode(), "unknown split 'dev'"),
        # json.dumps escapes a lone surrogate as \udfff, which decodes back to it.
        (json.dumps(record("b\udfff")).encode(), "id is not UTF-8 text"),
        (json.dumps(record("b", code="int x = 1; /* \ud800 */")).encode(), "code is not UTF-8 text"),
    ],
    ids=[
        "utf-8", "json", "object", "field", "id", "duplicate", "code", "labels", "split",
        "id-surrogate", "code-surrogate",
    ],
)
def test_every_ingest_line_error_names_the_file_and_line(tmp_path, line, message):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(json.dumps(record("a")).encode() + b"\n\n" + line + b"\n")
    with pytest.raises(IngestError, match=re.escape(f"{path}: line 3: {message}")):
        ingest(path)


def test_ingest_idempotent(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(
        path,
        [record("a"), record("b", labels=["CWE-469"], split="test")],
    )
    assert ingest(path) == ingest(path)


def test_code_sample_requires_code_and_labels():
    # A CodeSample is also a prompt shot, so these checks guard every shot.
    with pytest.raises(ValueError, match="truth must be non-empty"):
        CodeSample(id="a", code="int f();", truth=frozenset())
    with pytest.raises(ValueError, match="code must be non-empty"):
        CodeSample(id="a", code="  \n", truth=label_set(["CWE-119"]))


def test_corpus_rejects_cross_split_duplicate_ids():
    sample = CodeSample(id="a", code="int f();", truth=label_set(["CWE-119"]))
    with pytest.raises(ValueError, match="duplicate sample id"):
        Corpus(train=(sample,), test=(sample,))


def test_train_sha256_of_the_standard_fixture_is_pinned(tmp_path, synthetic_corpus):
    """The split digest that saved indexes carry in their stamps: a change to
    it makes every saved index fail to load."""
    digest = "1ba3c8af28b424930d9c2a06995ca6115b0ff4918351bc2c6efe92da6dfcd7bb"
    assert make_synthetic_corpus(seed=7, n_per_label=25).train_sha256 == digest
    path = tmp_path / "corpus.jsonl"
    dump_jsonl(synthetic_corpus, path)
    assert ingest(path).train_sha256 == digest


def test_train_sha256_reads_ids_labels_and_code_of_the_train_split_only():
    a = CodeSample(id="a", code="int f();", truth=label_set(["CWE-119"]))
    b = CodeSample(id="b", code="int g();", truth=label_set(["CWE-120"]))
    base = Corpus(train=(a,), test=(b,)).train_sha256
    assert Corpus(train=(a,), test=()).train_sha256 == base
    for changed in (
        CodeSample(id="c", code=a.code, truth=a.truth),
        CodeSample(id="a", code="int h();", truth=a.truth),
        CodeSample(id="a", code=a.code, truth=label_set(["CWE-119", "CWE-476"])),
    ):
        assert Corpus(train=(changed,), test=(b,)).train_sha256 != base
    # Each sample's lengths come first, so bytes moved from one sample's code
    # to the next sample's id change the digest.
    moved = [
        (CodeSample(id="a", code="int f();" + tail, truth=a.truth),
         CodeSample(id=head + "b", code=b.code, truth=b.truth))
        for tail, head in (("x", ""), ("", "x"))
    ]
    first, second = (Corpus(train=train, test=()).train_sha256 for train in moved)
    assert first != second


def test_validate_sizes_and_counts():
    train = (
        CodeSample(id="a", code="int f();", truth=label_set(["CWE-119", "CWE-120"])),
        CodeSample(id="b", code="int g();", truth=label_set(["CWE-119"])),
    )
    test = (CodeSample(id="c", code="int h();", truth=label_set(["CWE-476"])),)
    report = validate(Corpus(train=train, test=test))
    assert (report.train_size, report.test_size) == (2, 1)
    assert report.label_counts["train"]["CWE-119"] == 2
    assert report.label_counts["train"]["CWE-120"] == 1
    assert report.label_counts["test"]["CWE-476"] == 1
    total = sum(sum(counts.values()) for counts in report.label_counts.values())
    assert total == sum(len(s.truth) for s in train + test)


def test_validate_flags_cross_split_duplicate_code():
    code = "int f() { return 1; }"
    train = (CodeSample(id="a", code=code, truth=label_set(["CWE-119"])),)
    test = (CodeSample(id="b", code=code, truth=label_set(["CWE-120"])),)
    report = validate(Corpus(train=train, test=test))
    assert any("'b'" in w and "'a'" in w for w in report.warnings)


def test_dump_jsonl_round_trip(tmp_path, synthetic_corpus):
    path = tmp_path / "dump.jsonl"
    dump_jsonl(synthetic_corpus, path)
    loaded = ingest(path)
    assert loaded.train == synthetic_corpus.train
    assert loaded.test == synthetic_corpus.test


_label_lists = st.lists(
    st.sampled_from(["CWE-119", "CWE-120", "CWE-469", "CWE-476"]),
    min_size=1,
    max_size=4,
    unique=True,
)


@given(
    st.lists(
        st.tuples(_label_lists, st.sampled_from(["train", "test"])),
        min_size=1,
        max_size=20,
    )
)
def test_ingest_round_trip_property(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("prop") / "corpus.jsonl"
    records = [
        record(f"s{i}", code=f"int f{i}() {{ return {i}; }}", labels=labels, split=split)
        for i, (labels, split) in enumerate(rows)
    ]
    write_jsonl(path, records)
    corpus = ingest(path)
    assert corpus.stats.retained == len(records)
    dump_jsonl(corpus, path)
    assert ingest(path).samples == corpus.samples
