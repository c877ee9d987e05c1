"""Workload definitions and the helpers that turn them into sweep inputs.

Every input reaches the package through its public entry points:
`synthetic.make_synthetic_corpus`, `corpus.dump_jsonl`,
`runner.build_index_from_corpus` with `vecindex.save_index`, and
`runner.run(config, provider=..., embed_backend=...)`.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EMBED_DIM = 256
MAX_IN_FLIGHT = 2
# Real sleeps between attempts, small enough that a retried prompt costs a
# few milliseconds rather than the client's default half second.
RETRY_BASE_DELAY_S = 0.001
FAKE_ENDPOINT_URL = "fake://chat-endpoint/v1/complete"

# Fixed for every benchmark process. With its default thread pool, numpy's
# BLAS spins a helper thread per core during top_k's matrix-vector product,
# which doubled the CPU time of retrieval_scale on a 2-CPU machine. A fixed
# hash seed removes per-process variation in dict and set layout.
BENCH_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_per_label: int
    strategies: tuple
    # "empty": a fresh cache per sweep; "warm": filled once during set-up;
    # None: no cache and no provider.
    cache: str | None
    # True when set-up persists the index and sweeps load it via index_path.
    persisted_index: bool
    latency_s: float = 0.0
    fail_per_mille: int = 0
    # Set-ups run before each sweep, up to max_setups in a run (None: no
    # limit), so that `setup_s` samples the host over the whole run as
    # `sweep_s` does rather than over the few seconds before the first sweep.
    setups_per_sweep: int = 8
    max_setups: int | None = None

    @property
    def uses_provider(self) -> bool:
        return self.cache is not None


ALL_STRATEGIES = ("zero_shot", "random_few_shot", "retrieval_few_shot", "retrieval_labeling")

# BENCHMARK.json lists only sweep_warm_replay and retrieval_scale. On a
# 2-CPU shared virtual machine the ten-run spread of sweep_cold_remote's
# sweep_s was 18-24% of its median (its thousands of short endpoint waits and
# cache-file writes track the host's load), too close to the largest bound the
# benchmark may set; run it by name for work on the remote provider path.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep_cold_remote",
            why=(
                "first pass of a real experiment: provider waits, retries, cache "
                "writes and the thread pool do most of the work; ranking stays small"
            ),
            n_per_label=100,
            strategies=ALL_STRATEGIES,
            cache="empty",
            persisted_index=False,
            latency_s=0.002,
            fail_per_mille=15,
        ),
        Workload(
            name="sweep_warm_replay",
            why=(
                "re-scoring from a filled cache with a saved index: cache reads, "
                "load_index, top_k, render and parsing, with no provider waits"
            ),
            n_per_label=250,
            strategies=ALL_STRATEGIES,
            cache="warm",
            persisted_index=True,
            # Each set-up includes a cache-fill sweep, twice a replay's length,
            # and its file writes make it the noisiest step of the benchmark.
            setups_per_sweep=1,
            max_setups=4,
        ),
        Workload(
            name="retrieval_scale",
            why=(
                "retrieval labeling only, bypassing prompting and llmclient: index "
                "embedding, per-(query, k) top_k and per-call by_id dominate"
            ),
            n_per_label=600,
            strategies=("retrieval_labeling",),
            cache=None,
            persisted_index=False,
        ),
    )
}


def import_package():
    """Make the package importable from the checkout's source tree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import vulnprompt

    return vulnprompt


def scaled(workload: Workload, n_per_label: int | None) -> Workload:
    return workload if n_per_label is None else replace(workload, n_per_label=n_per_label)


def build_config(workload: Workload, seed: int, corpus_path, output_dir, cache_dir=None, index_path=None):
    from vulnprompt.config import EmbeddingSettings, ExperimentConfig, ProviderSettings
    from vulnprompt.prompting import Strategy

    return ExperimentConfig(
        corpus_path=str(corpus_path),
        output_dir=str(output_dir),
        strategies=tuple(Strategy(s) for s in workload.strategies),
        seed=seed,
        index_path=str(index_path) if index_path else None,
        cache_dir=str(cache_dir) if cache_dir else None,
        embedding=EmbeddingSettings(backend="hashed", dimension=EMBED_DIM),
        provider=ProviderSettings(
            type="remote", endpoint=FAKE_ENDPOINT_URL, max_in_flight=MAX_IN_FLIGHT
        ),
    )


def build_provider(endpoint):
    """A real RemoteChatProvider whose HTTP session is the in-process endpoint."""
    from vulnprompt.llmclient import RemoteChatProvider

    return RemoteChatProvider(
        endpoint=FAKE_ENDPOINT_URL,
        retry_base_delay_s=RETRY_BASE_DELAY_S,
        max_in_flight=MAX_IN_FLIGHT,
        session=endpoint,
    )


def build_backend():
    from vulnprompt.embedding import HashedBagOfTokensBackend

    return HashedBagOfTokensBackend(dimension=EMBED_DIM)


def expected_cells(workload: Workload) -> int:
    from vulnprompt.config import DEFAULT_SHOT_COUNTS

    return sum(1 if s == "zero_shot" else len(DEFAULT_SHOT_COUNTS) for s in workload.strategies)


def sha256_json(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()
