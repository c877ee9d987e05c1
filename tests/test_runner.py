"""Experiment runner: sweeps, failure policy, artifacts, and report emission."""

from __future__ import annotations

import dataclasses
import json
import sqlite3
import threading
from contextlib import closing

import pytest

from vulnprompt import llmclient, runner
from vulnprompt.config import ExperimentConfig, ProviderSettings
from vulnprompt.corpus import dump_jsonl, ingest
from vulnprompt.embedding import EmbeddingInput
from vulnprompt.labels import label_set
from vulnprompt.llmclient import (
    CACHE_FILENAME,
    FixedProvider,
    ParrotProvider,
    RemoteChatProvider,
    oracle_for_corpus,
)
from vulnprompt.metrics import MetricsReport
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
from vulnprompt.vecindex import save_index, top_k


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
    return sorted(out.glob(".records.jsonl.*.tmp"))


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
    ks = []

    def counting_top_k(index, query, k):
        ks.append(k)
        return top_k(index, query, k)

    monkeypatch.setattr(runner, "top_k", counting_top_k)
    shot_counts = (1, 2, 3, len(small_corpus.train) + 5)
    config = make_config(
        small_corpus_path,
        tmp_path / "out",
        strategies=(Strategy.RETRIEVAL_FEW_SHOT, Strategy.RETRIEVAL_LABELING),
        shot_counts=shot_counts,
    )
    run(config, provider=ParrotProvider(), embed_backend=hashed_backend)
    assert ks == [max(shot_counts)] * len(small_corpus.test)

    index = build_index_from_corpus(small_corpus, hashed_backend, include_labels=True)
    samples_by_id = small_corpus.by_id()
    records = load_records(tmp_path / "out" / "records.jsonl")
    assert len(records) == 2 * len(shot_counts) * len(small_corpus.test)
    for record in records:
        query = hashed_backend.embed(EmbeddingInput(code=samples_by_id[record.test_id].code))
        direct = top_k(index, query, record.k)
        assert record.neighbor_ids == tuple(n.sample_id for n in direct)
        assert record.similarities == tuple(n.similarity for n in direct)


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
    with pytest.raises(RunnerError, match="does not match embedding dim"):
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
    from vulnprompt.labeling import ParseOutcome

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
    assert PredictionRecord.from_json_dict(record.to_json_dict()) == record
    assert record.to_json_dict()["pred"] == ["CWE-119", "CWE-476"]


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


def test_run_report_json_round_trip():
    cell = fabricated_cell(Strategy.ZERO_SHOT, 0)
    report = fabricated_report([cell])
    reloaded = RunReport.from_json(report.to_json())
    assert reloaded == report


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
