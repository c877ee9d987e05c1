"""Prompt construction: shot selection, rendering, and prompt introspection."""

from __future__ import annotations

import hashlib
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vulnprompt.config import DEFAULT_SHOT_COUNTS
from vulnprompt.corpus import CodeSample
from vulnprompt.embedding import EmbeddingInput
from vulnprompt.labels import label_set
from vulnprompt.prompting import (
    PROMPT_STRATEGIES,
    PromptError,
    PromptHasher,
    ShotOrder,
    Strategy,
    extract_test_code,
    prompt_hash,
    render,
    select_random,
    shot_label_lines,
    shots_from_neighbors,
)
from vulnprompt.vecindex import Neighbor, top_k


def make_pool(n):
    return tuple(
        CodeSample(
            id=f"t{i:03d}",
            code=f"int f{i}() {{ return {i}; }}",
            truth=label_set(["CWE-119"] if i % 2 else ["CWE-120", "CWE-476"]),
        )
        for i in range(n)
    )


def make_shot(i=0, labels=("CWE-119",)):
    return CodeSample(
        id=f"s{i:03d}", code=f"int f{i}() {{ return {i}; }}", truth=label_set(labels)
    )


def test_strategy_partition():
    assert Strategy.RETRIEVAL_LABELING not in PROMPT_STRATEGIES
    assert len(PROMPT_STRATEGIES) == 3


def test_select_random_deterministic():
    pool = make_pool(20)
    a = select_random(pool, (5,), seed=3, test_id="q1")
    b = select_random(pool, (5,), seed=3, test_id="q1")
    assert a == b


def test_select_random_distinct_shots():
    pool = make_pool(10)
    shots = select_random(pool, (10,), seed=0, test_id="q")[10]
    assert len(set(s.code for s in shots)) == 10
    assert sorted(s.code for s in shots) == sorted(s.code for s in pool)


def test_select_random_rejects_oversized_k():
    pool = make_pool(3)
    with pytest.raises(PromptError, match="pool of 3"):
        select_random(pool, (1, 4), seed=0, test_id="q")


def test_select_random_rejects_k_zero():
    with pytest.raises(PromptError, match="k must be >= 1, got 0"):
        select_random(make_pool(3), (0, 1), seed=0, test_id="q")


def test_select_random_seed_sensitivity():
    pool = make_pool(30)
    differs = any(
        select_random(pool, (3,), seed=1, test_id=f"q{i}")
        != select_random(pool, (3,), seed=2, test_id=f"q{i}")
        for i in range(100)
    )
    assert differs


def test_select_random_per_test_independence():
    pool = make_pool(30)
    draws = {
        test_id: select_random(pool, (3,), seed=1, test_id=test_id)[3]
        for test_id in ("a", "b", "c", "d")
    }
    assert len(set(draws.values())) > 1


def reference_draw(n, k, seed, test_id):
    """One random.sample per k, seeded from (seed, test_id) as select_random seeds it."""
    digest = hashlib.blake2b(f"{seed}:{test_id}".encode("utf-8"), digest_size=8).digest()
    return tuple(random.Random(int.from_bytes(digest, "big")).sample(range(n), k))


@given(
    st.integers(1, 300).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n), min_size=1, max_size=25))
    ),
    st.integers(0, 2**32),
    st.text(max_size=8),
)
# Pool sizes where random.sample switches algorithm between shot counts 1 and
# 20, so a single draw at the largest k would give other prefixes.
@example((22, set(DEFAULT_SHOT_COUNTS)), 0, "q")
@example((40, set(DEFAULT_SHOT_COUNTS)), 7, "t001")
@example((85, {5, 20}), 3, "x")
def test_select_random_equals_one_sample_per_shot_count(pool_and_ks, seed, test_id):
    n, shot_counts = pool_and_ks
    shots = select_random(range(n), sorted(shot_counts), seed, test_id)
    assert shots == {k: reference_draw(n, k, seed, test_id) for k in shot_counts}


def test_shots_from_neighbors_follow_top_k_order(
    hashed_backend, synthetic_corpus, synthetic_index
):
    samples_by_id = synthetic_corpus.by_id()
    sample = synthetic_corpus.test[0]
    query = hashed_backend.embed(EmbeddingInput(code=sample.code))
    neighbors = top_k(synthetic_index, query, 3)
    shots = shots_from_neighbors(neighbors, samples_by_id, ShotOrder.SIMILAR_FIRST)
    assert shots == tuple(samples_by_id[n.sample_id] for n in neighbors)
    reversed_shots = shots_from_neighbors(neighbors, samples_by_id, ShotOrder.SIMILAR_LAST)
    assert list(reversed_shots) == list(shots[::-1])


def test_shots_from_neighbors_refuses_an_id_the_corpus_lacks():
    samples_by_id = {shot.id: shot for shot in (make_shot(0), make_shot(1))}
    neighbors = [Neighbor("s000", 0.9), Neighbor("gone", 0.5)]
    with pytest.raises(PromptError, match="neighbor id 'gone' not found in corpus"):
        shots_from_neighbors(neighbors, samples_by_id, ShotOrder.SIMILAR_FIRST)


def hasher_pool(non_ascii):
    pool = list(make_pool(44))
    if non_ascii:
        pool[7] = CodeSample(
            id="t007", code='char *s = "naïve ✓ 缓冲";', truth=label_set(["CWE-469"])
        )
    return tuple(pool)


@pytest.mark.parametrize("non_ascii", [False, True], ids=["ascii", "non-ascii"])
@pytest.mark.parametrize(
    "shot_counts", [DEFAULT_SHOT_COUNTS, (20, 5, 1, 8, 8, 2, 20)], ids=["ascending", "unsorted"]
)
def test_prompt_hasher_digest_equals_the_hash_of_the_rendered_prompt(non_ascii, shot_counts):
    pool = hasher_pool(non_ascii)
    test_code = "int g(char *p) { /* déjà vu — 溢出 */ return *p; }" if non_ascii else "int g();"
    random_shots = select_random(pool, shot_counts, seed=7, test_id="t001")
    # With a 44-sample pool, random.sample takes one branch up to k=5 and the
    # other from k=6, and for this test id the two draws part at the fourth shot.
    assert random_shots[20][:5] != random_shots[5]
    ranking = [SimpleNamespace(sample_id=pool[i].id) for i in (7, *range(43, 24, -1))]
    samples_by_id = {s.id: s for s in pool}
    sequences = {
        "random": [random_shots[k] for k in shot_counts],
        **{
            order.value: [
                shots_from_neighbors(ranking[:k], samples_by_id, order) for k in shot_counts
            ]
            for order in ShotOrder
        },
    }
    for name, sequence in sequences.items():
        hasher = PromptHasher(test_code)
        digests = [hasher.digest(shots) for shots in sequence]
        assert digests == [prompt_hash(render(shots, test_code)) for shots in sequence], name


def test_render_zero_shot_has_no_shot_blocks():
    prompt = render((), "int f() { return 0; }")
    assert "int f() { return 0; }" in prompt
    assert shot_label_lines(prompt) == []
    assert prompt.endswith("Vulnerabilities:")


def test_render_two_shot_blocks_in_order():
    shots = (make_shot(1, labels=("CWE-476", "CWE-119")), make_shot(2, labels=("CWE-120",)))
    prompt = render(shots, "int g();")
    assert shot_label_lines(prompt) == ["CWE-119, CWE-476", "CWE-120"]
    assert prompt.index("int f1()") < prompt.index("int f2()")


def test_render_deterministic():
    shots = (make_shot(1),)
    assert render(shots, "int g();") == render(shots, "int g();")


def test_render_sensitive_to_shot_order():
    a, b = make_shot(1), make_shot(2)
    assert render((a, b), "x") != render((b, a), "x")


def test_preamble_names_exactly_four_cwes():
    import re

    prompt = render((), "int f();")
    mentioned = set(re.findall(r"CWE-\d+", prompt))
    assert mentioned == {"CWE-119", "CWE-120", "CWE-469", "CWE-476"}


def test_extract_test_code_round_trip():
    code = "int f(char *p) {\n    return *p;\n}"
    assert extract_test_code(render((make_shot(),), code)) == code


def test_extract_test_code_rejects_foreign_text():
    with pytest.raises(PromptError):
        extract_test_code("no stub here")


def test_extract_test_code_rejects_a_prompt_without_a_code_block():
    with pytest.raises(PromptError, match="prompt has no code block"):
        extract_test_code("Answer with CWE identifiers.\nVulnerabilities:")


def test_prompt_hash_is_stable_hex():
    h = prompt_hash("abc")
    assert h == prompt_hash("abc")
    assert len(h) == 64
    assert h != prompt_hash("abd")


@given(st.text(min_size=1).filter(lambda s: s.strip() and "\nCode:\n" not in s))
def test_extract_round_trip_property(code):
    assert extract_test_code(render((), code)) == code
