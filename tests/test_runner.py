"""Experiment runner: sweeps, failure policy, artifacts, and report emission."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sqlite3
import threading
from contextlib import closing

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from http_stub import StubResponse, StubSession
from vulnprompt import llmclient, prompting, runner
from vulnprompt.config import (
    DEFAULT_SHOT_COUNTS,
    ConfigError,
    ExperimentConfig,
    ProviderSettings,
    from_plain,
    json_writer,
    to_plain,
)
from vulnprompt.corpus import dump_jsonl, ingest
from vulnprompt.embedding import EmbeddingInput, HashedBagOfTokensBackend
from vulnprompt.labeling import ParseOutcome
from vulnprompt.labels import CweLabel, label_set
from vulnprompt.llmclient import (
    CACHE_FILENAME,
    CacheError,
    FixedProvider,
    ParrotProvider,
    RemoteChatProvider,
    oracle_for_corpus,
)
from vulnprompt.metrics import MetricsReport, rates_from_counts
from vulnprompt.prompting import ShotOrder, Strategy
from vulnprompt.runner import (
    CellReport,
    PredictionRecord,
    RunnerError,
    RunReport,
    StrictRunError,
    build_index_from_corpus,
    cells_from_records,
    emit_curves,
    emit_table,
    load_records,
    run,
)
from vulnprompt.synthetic import make_synthetic_corpus
from vulnprompt.vecindex import Neighbor, save_index, top_k


@pytest.fixture(scope="module")
def small_corpus():
    return make_synthetic_corpus(seed=7, n_per_label=5)


@pytest.fixture(scope="module")
def small_corpus_path(small_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("small") / "corpus.jsonl"
    dump_jsonl(small_corpus, path)
    return path


def make_config(corpus_path, out_dir, **kw):
    defaults = dict(
        corpus_path=str(corpus_path),
        output_dir=str(out_dir),
        strategies=(Strategy.RETRIEVAL_FEW_SHOT,),
        shot_counts=(1, 2),
        seed=0,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_oracle_run_scores_perfectly(small_corpus_path, small_corpus, tmp_path):
    config = make_config(
        small_corpus_path,
        tmp_path / "out",
        strategies=(
            Strategy.ZERO_SHOT,
            Strategy.RANDOM_FEW_SHOT,
            Strategy.RETRIEVAL_FEW_SHOT,
        ),
        shot_counts=(1, 3),
    )
    report = run(config, provider=oracle_for_corpus(small_corpus))
    assert len(report.cells) == 5
    for cell in report.cells:
        m = cell.metrics
        assert m.subset_accuracy == 1.0
        assert m.micro_f1 == 1.0
        assert cell.failures == 0


def test_zero_shot_is_a_single_k0_cell(small_corpus_path, small_corpus, tmp_path):
    config = make_config(
        small_corpus_path,
        tmp_path / "out",
        strategies=(Strategy.ZERO_SHOT,),
        shot_counts=(1, 2, 3),
    )
    report = run(config, provider=oracle_for_corpus(small_corpus))
    assert [(c.strategy, c.k) for c in report.cells] == [(Strategy.ZERO_SHOT, 0)]


def test_retrieval_labeling_never_calls_provider(small_corpus_path, tmp_path):
    config = make_config(
        small_corpus_path,
        tmp_path / "out",
        strategies=(Strategy.RETRIEVAL_LABELING,),
        shot_counts=(1, 2, 3),
    )
    provider = FixedProvider("CWE-119")
    report = run(config, provider=provider)
    assert provider.call_count == 0
    assert report.provider_calls == 0
    records = load_records(tmp_path / "out" / "records.jsonl")
    assert all(r.prompt_hash is None and r.raw_text is None for r in records)


def test_unparseable_reply_is_not_a_failure(small_corpus_path, tmp_path):
    config = make_config(
        small_corpus_path,
        tmp_path / "out",
        strategies=(Strategy.RETRIEVAL_FEW_SHOT,),
        shot_counts=(1,),
    )
    report = run(config, provider=FixedProvider("No vulnerabilities found."))
    (cell,) = report.cells
    assert cell.failures == 0
    assert cell.metrics.micro_recall == 0.0
    records = load_records(tmp_path / "out" / "records.jsonl")
    assert all(r.parsed is not None and r.parsed.empty_parse for r in records)
    assert all(r.pred == frozenset() for r in records)


def test_provider_failures_score_empty_and_count(small_corpus_path, tmp_path):
    config = make_config(
        small_corpus_path,
        tmp_path / "out",
        strategies=(Strategy.ZERO_SHOT,),
        shot_counts=(1,),
    )
    report = run(config, provider=ParrotProvider())
    (cell,) = report.cells
    assert cell.failures == cell.metrics.n_instances
    assert cell.metrics.micro_f1 == 0.0
    records = load_records(tmp_path / "out" / "records.jsonl")
    assert all(r.error is not None and r.pred == frozenset() for r in records)
    assert all(r.raw_text is None for r in records)


class NonJsonSession:
    """Answers every POST with a 200 whose body does not decode as JSON."""

    class Response:
        status_code = 200
        text = "<html>gateway</html>"

        def json(self):
            raise ValueError("Expecting value: line 1 column 1 (char 0)")

    def post(self, url, json=None, headers=None, timeout=None):
        return self.Response()


def test_non_json_reply_lands_in_failures(small_corpus_path, small_corpus, tmp_path):
    def provider():
        return RemoteChatProvider(
            endpoint="https://llm.test/v1", session=NonJsonSession(), sleep=lambda s: None
        )

    config = make_config(
        small_corpus_path,
        tmp_path / "out",
        strategies=(Strategy.ZERO_SHOT, Strategy.RETRIEVAL_FEW_SHOT),
        shot_counts=(1, 2),
    )
    report = run(config, provider=provider())
    assert len(report.cells) == 3
    assert all(cell.failures == len(small_corpus.test) for cell in report.cells)
    records = load_records(tmp_path / "out" / "records.jsonl")
    assert all("non-JSON body" in r.error for r in records)

    strict = make_config(
        small_corpus_path, tmp_path / "strict", shot_counts=(1,), strict=True
    )
    with pytest.raises(StrictRunError) as excinfo:
        run(strict, provider=provider())
    assert excinfo.value.partial_records_path is not None


class SurrogateAnswerSession:
    """Answers every POST with a 200 whose text holds a lone surrogate."""

    class Response:
        status_code = 200

        def json(self):
            return {"text": "CWE-119 \ud800"}

    def post(self, url, json=None, headers=None, timeout=None):
        return self.Response()


def test_an_answer_with_a_lone_surrogate_lands_in_failures_uncached(
    small_corpus_path, small_corpus, tmp_path
):
    def provider():
        return RemoteChatProvider(
            endpoint="https://llm.test/v1", session=SurrogateAnswerSession(), sleep=lambda s: None
        )

    cache_dir = tmp_path / "cache"
    config = make_config(small_corpus_path, tmp_path / "out", cache_dir=str(cache_dir))
    report = run(config, provider=provider())
    assert all(cell.failures == len(small_corpus.test) for cell in report.cells)
    records = load_records(tmp_path / "out" / "records.jsonl")
    assert {r.error for r in records} == {
        "endpoint answer is not UTF-8 text: it holds a lone surrogate"
    }
    with closing(llmclient.ResponseCache(cache_dir)) as cache:
        assert cache.stats()["entries"] == 0

    strict = dataclasses.replace(config, output_dir=str(tmp_path / "strict"), strict=True)
    with pytest.raises(StrictRunError) as excinfo:
        run(strict, provider=provider())
    assert load_records(excinfo.value.partial_records_path) == []


@pytest.mark.parametrize(
    ("text", "type_name"),
    [(None, "NoneType"), (42, "int"), (True, "bool")],
    ids=["null", "number", "true"],
)
def test_an_answer_that_is_not_a_string_lands_in_failures_uncached(
    small_corpus_path, small_corpus, tmp_path, text, type_name
):
    session = StubSession([StubResponse(200, {"text": text})] * 100)
    provider = RemoteChatProvider(endpoint="https://llm.test/v1", session=session)
    cache_dir = tmp_path / "cache"
    config = make_config(small_corpus_path, tmp_path / "out", cache_dir=str(cache_dir))
    report = run(config, provider=provider)
    assert all(cell.failures == len(small_corpus.test) for cell in report.cells)
    records = load_records(tmp_path / "out" / "records.jsonl")
    assert {r.error for r in records} == {f"endpoint text is not a string, got {type_name}"}
    assert len(session.requests) == provider.call_count > 0
    with closing(llmclient.ResponseCache(cache_dir)) as cache:
        assert cache.stats()["entries"] == 0


def test_strict_mode_aborts_with_checkpoint(small_corpus_path, tmp_path):
    out = tmp_path / "out"
    config = make_config(
        small_corpus_path,
        out,
        strategies=(Strategy.RETRIEVAL_FEW_SHOT, Strategy.ZERO_SHOT),
        shot_counts=(1,),
        strict=True,
    )
    with pytest.raises(StrictRunError) as excinfo:
        run(config, provider=ParrotProvider())
    checkpoint = excinfo.value.partial_records_path
    assert checkpoint is not None
    completed = load_records(checkpoint)
    assert all(r.strategy is Strategy.RETRIEVAL_FEW_SHOT for r in completed)
    assert not (out / "records.jsonl").exists()


class ScriptedParrot(ParrotProvider):
    """A parrot that runs `on_call(n)` before its n-th call, counting from 1."""

    def __init__(self, on_call) -> None:
        super().__init__()
        self.on_call = on_call

    def generate(self, request):
        self.on_call(self.call_count + 1)
        return super().generate(request)


def temp_records_files(out):
    return sorted(out.glob(".records.partial.jsonl.*.tmp"))


def test_records_stream_cell_by_cell(small_corpus_path, small_corpus, tmp_path):
    out = tmp_path / "out"
    n_test = len(small_corpus.test)
    seen = []

    def peek(call):
        # The first call of the second prompted cell.
        if call == n_test + 1:
            (tmp,) = temp_records_files(out)
            seen.append(tmp.read_bytes())

    config = make_config(
        small_corpus_path,
        out,
        strategies=(Strategy.RETRIEVAL_FEW_SHOT,),
        shot_counts=(1, 2, 3),
    )
    run(config, provider=ScriptedParrot(peek))
    lines = (out / "records.jsonl").read_bytes().splitlines(keepends=True)
    assert len(lines) == 3 * n_test
    assert seen == [b"".join(lines[:n_test])]
    assert temp_records_files(out) == []


def test_unexpected_error_removes_temp_records(small_corpus_path, small_corpus, tmp_path):
    out = tmp_path / "out"
    boom = RuntimeError("provider crashed")

    def crash(call):
        if call == len(small_corpus.test) + 1:
            raise boom

    config = make_config(small_corpus_path, out, shot_counts=(1, 2))
    with pytest.raises(RuntimeError) as excinfo:
        run(config, provider=ScriptedParrot(crash))
    assert excinfo.value is boom
    assert not (out / "records.jsonl").exists()
    assert not (out / "records.partial.jsonl").exists()
    assert temp_records_files(out) == []


def test_strict_checkpoint_is_the_leading_lines_of_a_full_run(
    small_corpus_path, small_corpus, tmp_path
):
    n_test = len(small_corpus.test)
    strategies = (Strategy.RETRIEVAL_LABELING, Strategy.RETRIEVAL_FEW_SHOT)
    full_out = tmp_path / "full"
    run(
        make_config(small_corpus_path, full_out, strategies=strategies, shot_counts=(1, 2, 3)),
        provider=ParrotProvider(),
    )

    def refuse(call):
        # The first call of the second retrieval_few_shot cell.
        if call == n_test + 1:
            raise llmclient.ProviderRefusalError("declined")

    out = tmp_path / "strict"
    config = make_config(
        small_corpus_path, out, strategies=strategies, shot_counts=(1, 2, 3), strict=True
    )
    with pytest.raises(StrictRunError) as excinfo:
        run(config, provider=ScriptedParrot(refuse))
    assert excinfo.value.partial_records_path == str(out / "records.partial.jsonl")
    # Finished: retrieval_labeling at k=1, 2, 3 and retrieval_few_shot at k=1.
    full_lines = (full_out / "records.jsonl").read_bytes().splitlines(keepends=True)
    assert (out / "records.partial.jsonl").read_bytes() == b"".join(
        full_lines[: 4 * n_test]
    )
    assert not (out / "records.jsonl").exists()
    assert temp_records_files(out) == []


def test_strict_failure_in_the_first_cell_leaves_an_empty_checkpoint(
    small_corpus_path, tmp_path
):
    out = tmp_path / "out"
    config = make_config(
        small_corpus_path, out, strategies=(Strategy.ZERO_SHOT,), strict=True
    )
    with pytest.raises(StrictRunError):
        run(config, provider=ParrotProvider())
    assert (out / "records.partial.jsonl").read_bytes() == b""
    assert temp_records_files(out) == []


def test_a_successful_rerun_consumes_the_strict_checkpoint(small_corpus_path, tmp_path):
    out = tmp_path / "out"
    strict = make_config(small_corpus_path, out, strategies=(Strategy.ZERO_SHOT,), strict=True)
    with pytest.raises(StrictRunError):
        run(strict, provider=ParrotProvider())
    assert (out / "records.partial.jsonl").exists()

    run(make_config(small_corpus_path, out), provider=ParrotProvider())
    assert (out / "records.jsonl").exists()
    assert not (out / "records.partial.jsonl").exists()
    assert temp_records_files(out) == []


class CountingBackend(HashedBagOfTokensBackend):
    def __init__(self) -> None:
        super().__init__(dimension=64)
        self.calls = 0

    def embed(self, item):
        self.calls += 1
        return super().embed(item)


@pytest.mark.parametrize(
    "settings, message",
    [
        (ProviderSettings(type="fixed"), "fixed provider requires fixed_text"),
        (ProviderSettings(type="remote"), "remote provider requires an endpoint"),
    ],
    ids=["fixed-without-text", "remote-without-endpoint"],
)
def test_a_missing_provider_setting_fails_before_any_embed_call(
    small_corpus_path, tmp_path, settings, message
):
    backend = CountingBackend()
    config = make_config(small_corpus_path, tmp_path / "out", provider=settings)
    with pytest.raises(ConfigError, match=message):
        run(config, embed_backend=backend)
    assert backend.calls == 0
    assert not (tmp_path / "out").exists()


def test_a_prompted_run_refuses_an_old_cache_before_any_embed_call(small_corpus_path, tmp_path):
    # A cache file of the earlier key format: the table, no user_version stamp.
    (tmp_path / "cache").mkdir()
    with closing(sqlite3.connect(tmp_path / "cache" / CACHE_FILENAME)) as raw, raw:
        raw.execute("CREATE TABLE responses (key TEXT PRIMARY KEY, response TEXT) WITHOUT ROWID")
    backend = CountingBackend()
    config = make_config(small_corpus_path, tmp_path / "out", cache_dir=str(tmp_path / "cache"))
    with pytest.raises(CacheError, match="another key format"):
        run(config, provider=ParrotProvider(), embed_backend=backend)
    assert backend.calls == 0


def test_retrieval_labeling_alone_never_opens_the_cache(small_corpus_path, tmp_path):
    cache_dir = tmp_path / "cache"
    config = make_config(
        small_corpus_path,
        tmp_path / "out",
        strategies=(Strategy.RETRIEVAL_LABELING,),
        cache_dir=str(cache_dir),
    )
    run(config)
    assert not (cache_dir / CACHE_FILENAME).exists()


def test_artifacts_written_and_recomputable(small_corpus_path, tmp_path):
    out = tmp_path / "out"
    config = make_config(
        small_corpus_path,
        out,
        strategies=(Strategy.RETRIEVAL_FEW_SHOT, Strategy.RETRIEVAL_LABELING),
        shot_counts=(1, 2),
    )
    report = run(config, provider=ParrotProvider())
    assert (out / "records.jsonl").exists()
    assert (out / "report.json").exists()
    assert (out / "report.csv").exists()

    reloaded = RunReport.from_json((out / "report.json").read_text(encoding="utf-8"))
    assert reloaded.payload_dict() == report.payload_dict()
    assert from_plain(ExperimentConfig, reloaded.config) == config
    assert (out / "report.csv").read_text(encoding="utf-8") == emit_table(report)

    corpus = ingest(small_corpus_path)
    records = load_records(out / "records.jsonl")
    assert cells_from_records(records, corpus) == report.cells


def test_retrieval_records_carry_k_neighbors(small_corpus_path, small_corpus, tmp_path):
    config = make_config(
        small_corpus_path,
        tmp_path / "out",
        strategies=(Strategy.RETRIEVAL_FEW_SHOT, Strategy.RETRIEVAL_LABELING),
        shot_counts=(2, 30),
    )
    report = run(config, provider=ParrotProvider())
    records = load_records(tmp_path / "out" / "records.jsonl")
    train_size = len(small_corpus.train)
    for record in records:
        expected = min(record.k, train_size)
        assert len(record.neighbor_ids) == expected
        assert len(record.similarities) == expected
    assert report.provider_calls > 0


def test_each_query_is_ranked_once_at_the_largest_k(
    small_corpus_path, small_corpus, tmp_path, hashed_backend, monkeypatch
):
    calls = []

    def recording_top_k(index, queries, k):
        assert iter(queries) is queries  # a stream, not a list the runner built
        queries = list(queries)
        calls.append((queries, k))
        return top_k(index, queries, k)

    monkeypatch.setattr(runner, "top_k", recording_top_k)
    shot_counts = (1, 2, 3, len(small_corpus.train) + 5)
    config = make_config(
        small_corpus_path,
        tmp_path / "out",
        strategies=(Strategy.RETRIEVAL_FEW_SHOT, Strategy.RETRIEVAL_LABELING),
        shot_counts=shot_counts,
    )
    run(config, provider=ParrotProvider(), embed_backend=hashed_backend)
    assert calls == [(
        [hashed_backend.embed(EmbeddingInput(code=sample.code)) for sample in small_corpus.test],
        max(shot_counts),
    )]

    index = build_index_from_corpus(small_corpus, hashed_backend, include_labels=True)
    samples_by_id = small_corpus.by_id()
    records = load_records(tmp_path / "out" / "records.jsonl")
    assert len(records) == 2 * len(shot_counts) * len(small_corpus.test)
    for record in records:
        query = hashed_backend.embed(EmbeddingInput(code=samples_by_id[record.test_id].code))
        direct = top_k(index, query, record.k)
        assert record.neighbor_ids == tuple(n.sample_id for n in direct)
        assert record.similarities == tuple(n.similarity for n in direct)


def test_equal_train_samples_rank_by_id_as_sorted_orders_them(tmp_path):
    # "x\x00" comes first in the file; sorted() puts "x" before it.
    code = "int f(char *s) { return s[9]; }"
    rows = [("x\x00", code, "train"), ("x", code, "train"), ("t", code.replace("9", "1"), "test")]
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("".join(
        json.dumps({"id": i, "code": c, "labels": ["CWE-119"], "split": split}) + "\n"
        for i, c, split in rows
    ), encoding="utf-8")
    config = make_config(
        corpus_path, tmp_path / "out", strategies=(Strategy.RETRIEVAL_LABELING,), shot_counts=(2,)
    )
    run(config)
    (record,) = load_records(tmp_path / "out" / "records.jsonl")
    assert record.neighbor_ids == ("x", "x\x00")
    assert record.similarities[0] == record.similarities[1]


def awkward_id_corpus(path) -> None:
    """22 train rows and 4 test rows whose ids hold NUL suffixes, non-ASCII
    letters and prefixes of one another. Train rows 12 apart share their code
    and labels, so their similarities tie."""
    stems = ["a", "a\x00", "a\x00\x00", "ab", "a\xe9", "\xe9", "\xe9\x00", "\u03a9", "\u03a9a",
             "\U0001f600", "x", "x\x00", "x\x00x", "xy", "y", "y\x00", "\u2603", "\u2603\x00",
             "b", "ba", "b\x00a", "c"]
    labels = ["CWE-119", "CWE-120", "CWE-469", "CWE-476"]
    rows = [
        (stem, f"int f{i % 6}(char *s) {{ return s[{i % 6}]; }}", [labels[i % 4]], "train")
        for i, stem in enumerate(stems)
    ] + [
        (stem, f"int g{i}(char *s) {{ return s[{i}]; }}", [labels[i]], "test")
        for i, stem in enumerate(["t", "t\x00", "t\xe9", "\u03a9t"])
    ]
    path.write_text("".join(
        json.dumps({"id": i, "code": c, "labels": ls, "split": split}) + "\n"
        for i, c, ls, split in rows
    ), encoding="utf-8")


def test_retrieval_records_write_their_ranking_text_as_json_dumps_does(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    awkward_id_corpus(corpus_path)
    strategies = (Strategy.RETRIEVAL_FEW_SHOT, Strategy.RETRIEVAL_LABELING)
    config = make_config(corpus_path, tmp_path / "out", strategies=strategies, shot_counts=(1, 50))
    run(config, provider=ParrotProvider())
    lines = (tmp_path / "out" / "records.jsonl").read_text(encoding="utf-8").splitlines()
    records = load_records(tmp_path / "out" / "records.jsonl")
    assert len(records) == 2 * 2 * 4
    assert any(len(set(r.similarities)) < len(r.similarities) for r in records)
    for line, record in zip(lines, records):
        assert line == json.dumps(to_plain(record), sort_keys=True)
    longest = {(r.strategy, r.test_id): r for r in records if r.k == 50}
    for record in records:
        full = longest[record.strategy, record.test_id]
        assert len(full.neighbor_ids) == len(full.similarities) == 22
        k = min(record.k, 22)
        assert record.neighbor_ids == full.neighbor_ids[:k]
        assert record.similarities == full.similarities[:k]


def test_random_strategy_records_have_no_neighbors(small_corpus_path, small_corpus, tmp_path):
    config = make_config(
        small_corpus_path,
        tmp_path / "out",
        strategies=(Strategy.RANDOM_FEW_SHOT,),
        shot_counts=(2,),
    )
    run(config, provider=oracle_for_corpus(small_corpus))
    records = load_records(tmp_path / "out" / "records.jsonl")
    assert all(r.neighbor_ids is None and r.similarities is None for r in records)


def test_shot_count_exceeding_train_pool_fails_fast(small_corpus_path, tmp_path):
    config = make_config(
        small_corpus_path,
        tmp_path / "out",
        strategies=(Strategy.RANDOM_FEW_SHOT,),
        shot_counts=(1000,),
    )
    with pytest.raises(RunnerError, match="exceeds train split size"):
        run(config, provider=FixedProvider("x"))


def test_prebuilt_index_is_used(small_corpus_path, small_corpus, tmp_path, hashed_backend):
    index = build_index_from_corpus(small_corpus, hashed_backend, include_labels=True)
    index_path = tmp_path / "index.jsonl"
    save_index(index, index_path)
    out = tmp_path / "out"
    config = make_config(
        small_corpus_path,
        out,
        strategies=(Strategy.RETRIEVAL_LABELING,),
        shot_counts=(1,),
        index_path=str(index_path),
    )
    inline = make_config(
        small_corpus_path,
        tmp_path / "out2",
        strategies=(Strategy.RETRIEVAL_LABELING,),
        shot_counts=(1,),
    )
    report_prebuilt = run(config)
    report_inline = run(inline)
    assert [c.metrics for c in report_prebuilt.cells] == [
        c.metrics for c in report_inline.cells
    ]


def test_index_dimension_mismatch_rejected(small_corpus_path, small_corpus, tmp_path):
    from vulnprompt.embedding import HashedBagOfTokensBackend

    other = HashedBagOfTokensBackend(dimension=16)
    index = build_index_from_corpus(small_corpus, other)
    index_path = tmp_path / "index.jsonl"
    save_index(index, index_path)
    config = make_config(
        small_corpus_path,
        tmp_path / "out",
        strategies=(Strategy.RETRIEVAL_LABELING,),
        shot_counts=(1,),
        index_path=str(index_path),
    )
    with pytest.raises(RunnerError, match="does not match this run in dimension;"):
        run(config)


def test_cache_makes_second_run_cached(small_corpus_path, small_corpus, tmp_path):
    cache_dir = tmp_path / "cache"
    config = make_config(
        small_corpus_path,
        tmp_path / "out",
        strategies=(Strategy.RETRIEVAL_FEW_SHOT,),
        shot_counts=(1,),
        cache_dir=str(cache_dir),
    )
    first_provider = oracle_for_corpus(small_corpus)
    run(config, provider=first_provider)
    assert first_provider.call_count > 0

    second_provider = oracle_for_corpus(small_corpus)
    report = run(config, provider=second_provider)
    assert second_provider.call_count == 0
    assert report.provider_calls == 0
    records = load_records(tmp_path / "out" / "records.jsonl")
    assert all(r.cached is True for r in records)


def test_warm_replay_starts_no_worker_thread(
    small_corpus_path, small_corpus, tmp_path, monkeypatch
):
    config = make_config(
        small_corpus_path,
        tmp_path / "out",
        strategies=(
            Strategy.ZERO_SHOT,
            Strategy.RANDOM_FEW_SHOT,
            Strategy.RETRIEVAL_FEW_SHOT,
        ),
        cache_dir=str(tmp_path / "cache"),
        provider=ProviderSettings(max_in_flight=4),
    )
    run(config, provider=oracle_for_corpus(small_corpus))
    filled = load_records(tmp_path / "out" / "records.jsonl")

    def no_pool(*args, **kwargs):
        raise AssertionError("a warm replay built a thread pool")

    monkeypatch.setattr(llmclient, "ThreadPoolExecutor", no_pool)
    report = run(config, provider=oracle_for_corpus(small_corpus))
    assert report.provider_calls == 0
    records = load_records(tmp_path / "out" / "records.jsonl")
    assert len(records) == 5 * len(small_corpus.test)
    assert all(r.cached is True for r in records)
    assert [dataclasses.replace(r, cached=None) for r in records] == [
        dataclasses.replace(r, cached=None) for r in filled
    ]


def test_warm_replay_renders_only_zero_shot_prompts_and_json_encodes_none(
    synthetic_corpus_path, synthetic_corpus, tmp_path, monkeypatch
):
    config = make_config(
        synthetic_corpus_path,
        tmp_path / "out",
        strategies=tuple(Strategy),
        shot_counts=DEFAULT_SHOT_COUNTS,
        seed=7,
        cache_dir=str(tmp_path / "cache"),
    )
    for _ in range(2):  # a cold fill, then an unwatched replay to compare with
        run(config, provider=oracle_for_corpus(synthetic_corpus))
    replayed = (tmp_path / "out" / "records.jsonl").read_bytes()

    rendered = []
    real_render = runner.render

    def recording_render(shots, test_code):
        rendered.append(tuple(shots))
        return real_render(shots, test_code)

    monkeypatch.setattr(runner, "render", recording_render)
    real_prompt_hash = prompting.prompt_hash
    hashed = []

    def recording_prompt_hash(text):
        hashed.append(text)
        return real_prompt_hash(text)

    for module in (prompting, llmclient, runner):
        if hasattr(module, "prompt_hash"):
            monkeypatch.setattr(module, "prompt_hash", recording_prompt_hash)
    real_encode = json.JSONEncoder.encode
    encoded_prompts = []

    def checking_encode(self, obj):
        text = real_encode(self, obj)
        if "You are a code vulnerability detector" in text:
            encoded_prompts.append(text)
        return text

    monkeypatch.setattr(json.JSONEncoder, "encode", checking_encode)
    report = run(config, provider=oracle_for_corpus(synthetic_corpus))
    assert report.provider_calls == 0
    assert (tmp_path / "out" / "records.jsonl").read_bytes() == replayed
    test_codes = [sample.code for sample in synthetic_corpus.test]
    assert rendered == [()] * len(test_codes)
    assert hashed == [real_render((), code) for code in test_codes]
    assert encoded_prompts == []


def test_cold_run_renders_each_miss_once_on_the_calling_thread(
    synthetic_corpus_path, tmp_path, monkeypatch
):
    class PooledParrot(ParrotProvider):
        max_in_flight = 2

    provider = PooledParrot()
    generate_threads = set()
    real_generate = provider.generate

    def recording_generate(request):
        generate_threads.add(threading.get_ident())
        return real_generate(request)

    provider.generate = recording_generate
    renders = []
    real_render = runner.render

    def recording_render(shots, test_code):
        text = real_render(shots, test_code)
        renders.append((threading.get_ident(), text))
        return text

    monkeypatch.setattr(runner, "render", recording_render)
    config = make_config(
        synthetic_corpus_path,
        tmp_path / "out",
        strategies=tuple(Strategy),
        shot_counts=(1, 2, 20),
        shot_order=ShotOrder.SIMILAR_LAST,
        cache_dir=str(tmp_path / "cache"),
    )
    report = run(config, provider=provider)
    prompted = [
        r.prompt_hash
        for r in load_records(tmp_path / "out" / "records.jsonl")
        if r.prompt_hash is not None
    ]
    assert report.provider_calls == len(prompted) == len(renders)
    assert sorted(prompting.prompt_hash(text) for _, text in renders) == sorted(prompted)
    assert {thread for thread, _ in renders} == {threading.get_ident()}
    assert threading.get_ident() not in generate_threads


def test_cold_mock_run_fetches_misses_on_the_calling_thread(
    small_corpus_path, small_corpus, tmp_path, monkeypatch
):
    # max_in_flight configures the remote provider only; a mock answers from
    # memory, so its misses never go to a worker thread.
    def no_pool(*args, **kwargs):
        raise AssertionError("a mock provider's misses went to a thread pool")

    monkeypatch.setattr(llmclient, "ThreadPoolExecutor", no_pool)
    provider = oracle_for_corpus(small_corpus)
    threads = set()
    real_generate = provider.generate

    def recording_generate(request):
        threads.add(threading.get_ident())
        return real_generate(request)

    provider.generate = recording_generate
    config = make_config(
        small_corpus_path,
        tmp_path / "out",
        strategies=(Strategy.ZERO_SHOT, Strategy.RETRIEVAL_FEW_SHOT),
        cache_dir=str(tmp_path / "cache"),
        provider=ProviderSettings(max_in_flight=4),
    )
    report = run(config, provider=provider)
    assert report.provider_calls > 0
    assert threads == {threading.get_ident()}


def test_identical_prompts_in_one_cell_both_miss_every_time(synthetic_corpus, tmp_path):
    # The first and the last test sample share their code, so the zero-shot
    # cell holds two identical prompts. Neither may hit an entry the other
    # stored during the same cell, however the workers interleave.
    corpus_path = tmp_path / "dup.jsonl"
    dump_jsonl(synthetic_corpus, corpus_path)
    rows = [json.loads(line) for line in corpus_path.read_text(encoding="utf-8").splitlines()]
    test_rows = [row for row in rows if row["split"] == "test"]
    test_rows[-1]["code"] = test_rows[0]["code"]
    corpus_path.write_text(
        "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8"
    )

    outputs = []
    for attempt in range(3):
        config = make_config(
            corpus_path,
            tmp_path / f"out{attempt}",
            strategies=(Strategy.ZERO_SHOT,),
            cache_dir=str(tmp_path / f"cache{attempt}"),
            provider=ProviderSettings(max_in_flight=4),
        )
        report = run(config, provider=FixedProvider("CWE-119"))
        assert report.provider_calls == len(test_rows)
        outputs.append((tmp_path / f"out{attempt}" / "records.jsonl").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert all(r.cached is False for r in load_records(tmp_path / "out0" / "records.jsonl"))


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_truncated_cache_file_is_refetched(small_corpus_path, tmp_path, strict):
    cache_dir = tmp_path / "cache"
    config = make_config(
        small_corpus_path,
        tmp_path / "out",
        shot_counts=(1,),
        cache_dir=str(cache_dir),
        strict=strict,
    )
    run(config, provider=ParrotProvider())
    clean = load_records(tmp_path / "out" / "records.jsonl")

    # Cut one stored answer in half and store the half as a BLOB, not text.
    with closing(sqlite3.connect(cache_dir / CACHE_FILENAME)) as raw:
        victim, intact = raw.execute(
            "SELECT key, response FROM responses ORDER BY key LIMIT 1"
        ).fetchone()
        raw.execute(
            "UPDATE responses SET response = ? WHERE key = ?",
            (intact[: len(intact) // 2].encode("utf-8"), victim),
        )
        raw.commit()

    provider = ParrotProvider()
    report = run(config, provider=provider)
    assert provider.call_count == report.provider_calls == 1
    with closing(sqlite3.connect(cache_dir / CACHE_FILENAME)) as raw:
        assert raw.execute(
            "SELECT response, typeof(response) FROM responses WHERE key = ?", (victim,)
        ).fetchone() == (intact, "text")
    rerun = load_records(tmp_path / "out" / "records.jsonl")
    assert [r.cached for r in rerun].count(False) == 1

    def without_cached(records):
        return [dataclasses.replace(r, cached=None) for r in records]

    assert without_cached(rerun) == without_cached(clean)


def test_prediction_record_json_round_trip():
    record = PredictionRecord(
        test_id="t1",
        strategy=Strategy.RETRIEVAL_FEW_SHOT,
        k=3,
        pred=label_set(["CWE-476", "CWE-119"]),
        neighbor_ids=("a", "b", "c"),
        similarities=(0.9, 0.8, 0.7),
        prompt_hash="ab" * 32,
        raw_text="CWE-119, CWE-476",
        parsed=ParseOutcome(
            labels=label_set(["CWE-119", "CWE-476"]),
            unknown_mentions=("787",),
            empty_parse=False,
        ),
        cached=True,
    )
    assert read_back(record) == record
    assert to_plain(record)["pred"] == ["CWE-119", "CWE-476"]


def read_back(record):
    """What load_records makes of the line that run() writes for `record`."""
    line = json_writer(PredictionRecord)(record)
    return from_plain(PredictionRecord, json.loads(line))


def optional(values):
    return st.none() | values


labels = st.frozensets(st.sampled_from(CweLabel))


@given(
    st.builds(
        PredictionRecord,
        test_id=st.text(),
        strategy=st.sampled_from(Strategy),
        k=st.integers(min_value=0, max_value=10_000),
        pred=labels,
        neighbor_ids=optional(st.lists(st.text()).map(tuple)),
        similarities=optional(st.lists(st.floats(allow_nan=False)).map(tuple)),
        prompt_hash=optional(st.text()),
        raw_text=optional(st.text()),
        parsed=optional(st.builds(
            ParseOutcome,
            labels=labels,
            unknown_mentions=st.lists(st.from_regex(r"\A[0-9]+\Z")).map(tuple),
            empty_parse=st.just(False),
        ) | st.just(ParseOutcome(frozenset(), (), empty_parse=True))),
        cached=optional(st.booleans()),
        error=optional(st.text()),
    )
)
def test_any_record_reads_back_as_written(record):
    assert read_back(record) == record


# Any code point, lone surrogates (category Cs) and non-ASCII text included.
any_text = st.text(st.characters(exclude_categories=()) | st.sampled_from("\ud800\udfff\xe9\u2603"))
awkward_floats = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-7]
)


@given(
    st.builds(
        PredictionRecord,
        test_id=any_text,
        strategy=st.sampled_from(Strategy),
        k=st.integers(min_value=0),
        pred=labels,
        neighbor_ids=optional(st.lists(any_text, max_size=3).map(tuple)),
        similarities=optional(st.lists(awkward_floats, max_size=3).map(tuple)),
        prompt_hash=optional(any_text),
        raw_text=optional(any_text),
        parsed=optional(st.builds(
            ParseOutcome,
            labels=labels,
            unknown_mentions=st.lists(any_text, max_size=2).map(tuple),
            empty_parse=st.just(False),
        ) | st.just(ParseOutcome(frozenset(), (), empty_parse=True))),
        cached=optional(st.booleans()),
        error=optional(any_text),
    )
)
@example(PredictionRecord(
    "t", Strategy.RETRIEVAL_FEW_SHOT, 3, frozenset(), ("a", "a\x00", "\xe9"), (math.nan, -math.inf, -0.0)
))
def test_the_record_writer_writes_the_text_json_dumps_writes(record):
    write = json_writer(PredictionRecord)
    assert write(record) == json.dumps(to_plain(record), sort_keys=True)
    if record.parsed is not None:
        # The parse outcome's text given ready-made, as run() writes it.
        parsed = json_writer(ParseOutcome)(record.parsed)
        assert write(record, parsed=parsed) == json.dumps(to_plain(record), sort_keys=True)
    if record.neighbor_ids is None or record.similarities is None:
        return
    # A retrieval record at each k, with its two lists' text given ready-made
    # from its query's ranking, as run() writes it.
    ranking = runner._Ranking([
        Neighbor(sample_id, similarity)
        for sample_id, similarity in zip(record.neighbor_ids, record.similarities)
    ])
    for k in range(len(ranking.ids) + 2):
        at_k = dataclasses.replace(
            record, k=k, neighbor_ids=ranking.ids[:k], similarities=ranking.similarities[:k]
        )
        assert write(at_k, **ranking.texts(k)) == json.dumps(to_plain(at_k), sort_keys=True)


def test_the_record_writer_refuses_text_for_a_field_it_lacks():
    record = PredictionRecord("t", Strategy.RETRIEVAL_LABELING, 1, frozenset())
    with pytest.raises(TypeError, match="PredictionRecord has no field"):
        json_writer(PredictionRecord)(record, neighbours="[]")


@pytest.mark.parametrize(
    "index, damage, message",
    [
        (1, lambda line: line.replace('"k": 1', '"k": "1"'),
         "line 2: not a prediction record: TypeError: k must be int, got str"),
        (2, lambda line: line.replace('"k": 1', '"k": -1'),
         "line 3: not a prediction record: ValueError: k must be >= 0, got -1"),
        (3, lambda line: line[: len(line) // 2],
         "line 4: not a prediction record: JSONDecodeError"),
    ],
    ids=["string-k", "negative-k", "truncated-last-line"],
)
def test_load_records_names_the_file_and_line_of_a_bad_record(
    small_corpus_path, tmp_path, index, damage, message
):
    run(make_config(small_corpus_path, tmp_path / "out", strategies=(Strategy.RETRIEVAL_LABELING,)))
    path = tmp_path / "out" / "records.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()[:4]
    lines[index] = damage(lines[index])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(RunnerError, match=re.escape(f"{path}: {message}")):
        load_records(path)


def test_load_records_names_the_field_of_a_nested_check(small_corpus_path, tmp_path):
    run(make_config(small_corpus_path, tmp_path / "out"), provider=ParrotProvider())
    path = tmp_path / "out" / "records.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    assert record["parsed"]["labels"]
    record["parsed"]["empty_parse"] = True
    lines[1] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    message = (
        f"{path}: line 2: not a prediction record: ValueError: parsed: "
        "an empty parse has no labels and no unknown mentions"
    )
    with pytest.raises(RunnerError, match=re.escape(message)):
        load_records(path)


def fabricated_report(cells):
    return RunReport(
        template_id="cwe-fewshot-template/v1",
        shot_order=ShotOrder.SIMILAR_FIRST,
        config={},
        cells=tuple(cells),
        provider_calls=0,
        metadata={},
    )


def fabricated_cell(strategy, k, **metric_overrides):
    values = dict(
        n_instances=10,
        n_labels=4,
        subset_accuracy=0.5,
        hamming_accuracy=0.5,
        partial_match_accuracy=0.5,
        micro_precision=0.5,
        micro_recall=0.5,
        micro_f1=0.5,
        tp=1,
        fp=1,
        fn=1,
        tn=37,
        partial_match_vs_truth=0.5,
    )
    values.update(metric_overrides)
    return CellReport(strategy=strategy, k=k, metrics=MetricsReport(**values), failures=0)


def test_emit_table_column_order_and_formatting():
    cell = fabricated_cell(
        Strategy.RETRIEVAL_FEW_SHOT,
        20,
        micro_f1=0.7405,
        partial_match_accuracy=0.839,
        subset_accuracy=0.649,
    )
    text = emit_table(fabricated_report([cell]))
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header == [
        "strategy",
        "k",
        "subset_accuracy",
        "hamming_accuracy",
        "partial_match",
        "precision",
        "recall",
        "f1",
        "partial_match_vs_truth",
        "failures",
    ]
    row = lines[1].split(",")
    assert row[0] == "retrieval_few_shot"
    assert row[1] == "20"
    assert row[header.index("f1")] == "74.05"
    assert row[header.index("partial_match")] == "83.90"
    assert row[header.index("subset_accuracy")] == "64.90"


def test_emit_table_zero_shot_row_has_k0():
    cell = fabricated_cell(Strategy.ZERO_SHOT, 0)
    lines = emit_table(fabricated_report([cell])).strip().split("\n")
    assert lines[1].split(",")[:2] == ["zero_shot", "0"]


def test_emit_curves_shape():
    cells = [
        fabricated_cell(Strategy.RANDOM_FEW_SHOT, 1, micro_f1=0.3),
        fabricated_cell(Strategy.RANDOM_FEW_SHOT, 2, micro_f1=0.4),
        fabricated_cell(Strategy.RETRIEVAL_FEW_SHOT, 1, micro_f1=0.6),
        fabricated_cell(Strategy.RETRIEVAL_FEW_SHOT, 2, micro_f1=0.7),
    ]
    curves = emit_curves(fabricated_report(cells))
    assert set(curves) == {
        "subset_accuracy",
        "hamming_accuracy",
        "partial_match_accuracy",
        "micro_precision",
        "micro_recall",
        "micro_f1",
    }
    f1 = curves["micro_f1"]
    assert f1["random_few_shot"] == [[1, 0.3], [2, 0.4]]
    assert f1["retrieval_few_shot"] == [[1, 0.6], [2, 0.7]]
    total_points = sum(len(series) for series in f1.values())
    assert total_points == 4


def test_emit_curves_requires_two_shot_counts():
    cells = [fabricated_cell(Strategy.RETRIEVAL_FEW_SHOT, 5)]
    with pytest.raises(RunnerError, match="two shot counts"):
        emit_curves(fabricated_report(cells))


@pytest.mark.parametrize(
    "k, failures, message",
    [
        (-1, 0, "k must be >= 0, got -1"),
        (1, -1, "failures must be in [0, n_instances], got -1"),
        (1, 11, "failures must be in [0, n_instances], got 11"),
    ],
)
def test_cell_report_out_of_range_rejected(k, failures, message):
    cell = fabricated_cell(Strategy.RANDOM_FEW_SHOT, 1)
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(cell, k=k, failures=failures)


def counted(tp, fp, fn, tn):
    """Counts with the rates they give, as MetricsReport fields."""
    return dict(tp=tp, fp=fp, fn=fn, tn=tn, **rates_from_counts(tp, fp, fn, tn))


def test_run_report_json_round_trip():
    cells = [
        fabricated_cell(Strategy.ZERO_SHOT, 0, **counted(1, 1, 1, 37)),
        dataclasses.replace(
            fabricated_cell(Strategy.RANDOM_FEW_SHOT, 1, **counted(0, 1, 1, 38)), failures=3
        ),
        fabricated_cell(Strategy.RETRIEVAL_LABELING, 20, **{**counted(4, 0, 0, 36), "micro_f1": 1}),
    ]
    report = dataclasses.replace(
        fabricated_report(cells),
        config=to_plain(ExperimentConfig(corpus_path="c", output_dir="o")),
        provider_calls=7,
        metadata={"wall_clock_s": 1.5},
    )
    text = report.to_json()
    assert RunReport.from_json(text) == report
    assert json.loads(text) == {**report.payload_dict(), "metadata": {"wall_clock_s": 1.5}}


def test_records_file_is_sorted_json(small_corpus_path, tmp_path):
    config = make_config(
        small_corpus_path,
        tmp_path / "out",
        strategies=(Strategy.RETRIEVAL_LABELING,),
        shot_counts=(1,),
    )
    run(config)
    raw = (tmp_path / "out" / "records.jsonl").read_text(encoding="utf-8")
    for line in raw.strip().split("\n"):
        parsed = json.loads(line)
        assert list(parsed) == sorted(parsed)
