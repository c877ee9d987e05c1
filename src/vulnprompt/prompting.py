"""Prompt construction for few-shot vulnerability labeling.

Three strategies consult a model: zero-shot (instructions only), random
few-shot (k examples drawn uniformly from the train split), and retrieval
few-shot (k nearest train examples by embedding similarity). A fourth
strategy, retrieval labeling, never builds a prompt at all; it lives in
the labeling module and is listed here so runners can iterate strategies
from one place.

A prompt is the preamble, one block per shot and the test block, joined by
newlines. render builds the text; PromptHasher computes its prompt_hash from
the same blocks without building it, hashing each shot block once across a
test sample's shot counts. A cache lookup needs only that hash, so the runner
renders a few-shot prompt only when the cache misses it.
"""

from __future__ import annotations

import enum
import hashlib
import math
import random
import re

from .labels import format_labels

TEMPLATE_ID = "cwe-fewshot-template/v1"


class Strategy(str, enum.Enum):
    ZERO_SHOT = "zero_shot"
    RANDOM_FEW_SHOT = "random_few_shot"
    RETRIEVAL_FEW_SHOT = "retrieval_few_shot"
    RETRIEVAL_LABELING = "retrieval_labeling"


PROMPT_STRATEGIES = frozenset(
    {Strategy.ZERO_SHOT, Strategy.RANDOM_FEW_SHOT, Strategy.RETRIEVAL_FEW_SHOT}
)


class ShotOrder(str, enum.Enum):
    SIMILAR_FIRST = "similar_first"
    SIMILAR_LAST = "similar_last"


class PromptError(ValueError):
    """Raised when a shot selection is invalid."""


_PREAMBLE = (
    "You are a code vulnerability detector. Examine the final code snippet and\n"
    "decide which of these CWE categories apply:\n"
    "- CWE-119: buffer overflow\n"
    "- CWE-120: stack-based buffer overflow\n"
    "- CWE-469: pointer arithmetic error\n"
    "- CWE-476: null pointer dereference\n"
    "Answer with the matching CWE identifiers separated by commas."
)


def _sample_takes_pool_branch(n: int, k: int) -> bool:
    """Whether random.sample(range(n), k) draws from a shrinking copy of the
    population (its pool branch) rather than by rejection against a set.

    Mirrors CPython's threshold in random.sample. Within one branch, a draw
    of k from a given seed is the first k picks of any larger draw from that
    seed; across the two branches it is not.
    """
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return n <= setsize


def select_random(pool, shot_counts, seed: int, test_id: str) -> dict:
    """Draw k distinct shots from the train pool for each k in shot_counts,
    deterministically per test id; returns {k: shots}.

    Each k's shots are random.Random(s).sample(range(len(pool)), k) mapped
    onto the pool, where s is derived from (seed, test_id), so each test
    sample sees its own reproducible draw and reruns are bit-stable. The
    shot counts whose sample takes the same branch share one draw at the
    largest of them and take prefixes of it, so a test costs at most two
    draws.
    """
    pool = tuple(pool)
    by_branch: dict = {}
    for k in shot_counts:
        if k < 1:
            raise PromptError(f"k must be >= 1, got {k}")
        if k > len(pool):
            raise PromptError(f"cannot draw {k} shots from a pool of {len(pool)}")
        by_branch.setdefault(_sample_takes_pool_branch(len(pool), k), []).append(k)
    digest = hashlib.blake2b(f"{seed}:{test_id}".encode("utf-8"), digest_size=8).digest()
    rng_seed = int.from_bytes(digest, "big")
    shots = {}
    for ks in by_branch.values():
        picks = random.Random(rng_seed).sample(range(len(pool)), max(ks))
        drawn = tuple(pool[i] for i in picks)
        for k in ks:
            shots[k] = drawn[:k]
    return shots


def shots_from_neighbors(neighbors, samples_by_id, order: ShotOrder) -> tuple:
    """Map retrieval hits to shots, ordered by similarity as requested."""
    try:
        samples = [samples_by_id[n.sample_id] for n in neighbors]
    except KeyError as exc:
        raise PromptError(f"neighbor id {exc.args[0]!r} not found in corpus") from None
    if order is ShotOrder.SIMILAR_LAST:
        samples = samples[::-1]
    return tuple(samples)


def _shot_block(shot) -> str:
    return f"Code:\n{shot.code}\nVulnerabilities: {format_labels(shot.truth)}\n"


def _test_block(test_code: str) -> str:
    return f"Code:\n{test_code}\nVulnerabilities:"


def render(shots, test_code: str) -> str:
    """Render a prompt: preamble, shot blocks, then the unlabeled test block,
    joined by newlines.

    Each shot is a train CodeSample, shown with its code and truth labels.
    The prompt always ends with "Vulnerabilities:" so the model's completion
    is exactly the label list.
    """
    return "\n".join((_PREAMBLE, *map(_shot_block, shots), _test_block(test_code)))


_PREAMBLE_SHA256 = hashlib.sha256(_PREAMBLE.encode("utf-8"))


class PromptHasher:
    """`prompt_hash(render(shots, test_code))` for one test sample's successive
    shot tuples, computed without rendering a prompt.

    The hash of the preamble and the shots so far is kept, so a call whose
    shots extend the previous call's hashes only the new shot blocks and then
    finishes from a copy with the test block. Shots that do not extend the
    previous ones (reversed order, another random draw, a smaller k) restart
    from the preamble.
    """

    def __init__(self, test_code: str) -> None:
        self._tail = f"\n{_test_block(test_code)}".encode("utf-8")
        self._shots: tuple = ()
        self._state = _PREAMBLE_SHA256.copy()

    def digest(self, shots: tuple) -> str:
        done = len(self._shots)
        if shots[:done] != self._shots:
            done = 0
            self._state = _PREAMBLE_SHA256.copy()
        for shot in shots[done:]:
            self._state.update(f"\n{_shot_block(shot)}".encode("utf-8"))
        self._shots = shots
        final = self._state.copy()
        final.update(self._tail)
        return final.hexdigest()


_SHOT_LABEL_RE = re.compile(r"^Vulnerabilities: (.+)$", re.MULTILINE)


def shot_label_lines(prompt: str) -> list:
    """Labeled "Vulnerabilities:" lines, in shot order (excludes the final stub)."""
    return _SHOT_LABEL_RE.findall(prompt)


def extract_test_code(prompt: str) -> str:
    """Recover the test snippet from a rendered prompt (the final code block)."""
    suffix = "\nVulnerabilities:"
    if not prompt.endswith(suffix):
        raise PromptError("prompt does not end with an unlabeled Vulnerabilities stub")
    body = prompt[: -len(suffix)]
    marker = "\nCode:\n"
    pos = body.rfind(marker)
    if pos < 0:
        raise PromptError("prompt has no code block")
    return body[pos + len(marker):]


def prompt_hash(text: str) -> str:
    """Content hash used to tie prediction records back to exact prompts."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
