"""Synthetic C-like corpus generator for offline experiments and tests.

Each label gets its own family of function bodies built around the defect it
names: unchecked buffer writes for CWE-119, unbounded string copies into
stack arrays for CWE-120, raw pointer arithmetic for CWE-469, and
dereferences of possibly-null results for CWE-476. Identifier pools are
disjoint per label so token-level similarity tracks the label structure,
which is what retrieval experiments need from a fixture. Multi-label samples
concatenate two single-label cores.
"""

from __future__ import annotations

import random

from .corpus import CodeSample, Corpus
from .labels import LABEL_BY_NUMBER, label_set

_POOLS = {
    "119": {
        "fn": ("copy_region", "fill_frame", "write_block", "load_chunk", "blit_row"),
        "buf": ("frame_buf", "region_buf", "chunk_buf", "row_buf"),
        "src": ("incoming", "payload_data", "sector_data", "stream_bytes"),
        "n": ("frame_len", "region_len", "sector_count", "row_width"),
    },
    "120": {
        "fn": ("append_name", "store_title", "cat_path", "record_alias", "take_label"),
        "buf": ("name_stack", "title_box", "path_slot", "alias_field"),
        "src": ("user_name", "title_text", "path_text", "alias_text"),
        "n": ("name_cap", "title_cap", "path_cap", "alias_cap"),
    },
    "469": {
        "fn": ("span_width", "seek_gap", "diff_marks", "walk_span", "gap_count"),
        "buf": ("mark_base", "span_base", "gap_base", "seek_base"),
        "src": ("mark_end", "span_end", "gap_end", "seek_end"),
        "n": ("stride_val", "gap_units", "span_units", "mark_units"),
    },
    "476": {
        "fn": ("fetch_entry", "find_node", "grab_handle", "pick_slotp", "open_record"),
        "buf": ("entry_ptr", "node_ptr", "handle_ptr", "record_ptr"),
        "src": ("entry_table", "node_table", "handle_table", "record_table"),
        "n": ("entry_key", "node_key", "handle_key", "record_key"),
    },
}


def _core_119(rng: random.Random) -> str:
    pool = _POOLS["119"]
    buf = rng.choice(pool["buf"])
    src = rng.choice(pool["src"])
    n = rng.choice(pool["n"])
    variant = rng.randrange(3)
    if variant == 0:
        return (
            f"    char {buf}[{rng.choice((16, 32, 64))}];\n"
            f"    for (int i = 0; i <= {n}; i++) {buf}[i] = {src}[i];"
        )
    if variant == 1:
        return (
            f"    char {buf}[{rng.choice((16, 32, 64))}];\n"
            f"    memcpy({buf}, {src}, {n} * 2);"
        )
    return (
        f"    char {buf}[{rng.choice((16, 32, 64))}];\n"
        f"    int i = 0;\n"
        f"    while (i <= {n}) {{ {buf}[i] = {src}[i]; i++; }}"
    )


def _core_120(rng: random.Random) -> str:
    pool = _POOLS["120"]
    buf = rng.choice(pool["buf"])
    src = rng.choice(pool["src"])
    variant = rng.randrange(3)
    if variant == 0:
        return f"    char {buf}[{rng.choice((8, 12, 24))}];\n    strcpy({buf}, {src});"
    if variant == 1:
        return (
            f"    char {buf}[{rng.choice((8, 12, 24))}];\n"
            f"    strcpy({buf}, \"id-\");\n"
            f"    strcat({buf}, {src});"
        )
    return f"    char {buf}[{rng.choice((8, 12, 24))}];\n    gets({buf});"


def _core_469(rng: random.Random) -> str:
    pool = _POOLS["469"]
    base = rng.choice(pool["buf"])
    end = rng.choice(pool["src"])
    n = rng.choice(pool["n"])
    variant = rng.randrange(3)
    if variant == 0:
        return (
            f"    int {n} = {end} - {base};\n"
            f"    return {n} / sizeof(short);"
        )
    if variant == 1:
        return (
            f"    char *cursor = {base};\n"
            f"    cursor = cursor + {n} - ({end} - {base});\n"
            f"    return *cursor;"
        )
    return (
        f"    long {n} = ({end} - {base}) * sizeof(int);\n"
        f"    return {base}[{n}];"
    )


def _core_476(rng: random.Random) -> str:
    pool = _POOLS["476"]
    ptr = rng.choice(pool["buf"])
    table = rng.choice(pool["src"])
    key = rng.choice(pool["n"])
    variant = rng.randrange(3)
    if variant == 0:
        return (
            f"    struct item *{ptr} = lookup({table}, {key});\n"
            f"    return {ptr}->value;"
        )
    if variant == 1:
        return (
            f"    struct item *{ptr} = lookup({table}, {key});\n"
            f"    if ({ptr} == NULL) log_miss({key});\n"
            f"    return {ptr}->next->value;"
        )
    return (
        f"    struct item *{ptr} = {table}[{key} % TABLE_SIZE];\n"
        f"    {ptr}->hits++;\n"
        f"    return {ptr}->hits;"
    )


_CORES = {"119": _core_119, "120": _core_120, "469": _core_469, "476": _core_476}

_PARAM_SIGS = {
    "119": "const char *incoming, int frame_len",
    "120": "const char *user_name",
    "469": "char *mark_base, char *mark_end",
    "476": "struct item **entry_table, int entry_key",
}


def _make_code(nums: tuple, rng: random.Random) -> str:
    fn = rng.choice(_POOLS[nums[0]]["fn"])
    if len(nums) > 1:
        fn = f"{fn}_{rng.choice(_POOLS[nums[1]]['fn'])}"
    params = ", ".join(_PARAM_SIGS[num] for num in nums)
    body = "\n".join(_CORES[num](rng) for num in nums)
    return f"int {fn}({params}) {{\n{body}\n    return 0;\n}}"


def make_synthetic_corpus(seed: int, n_per_label: int) -> Corpus:
    """Generate a labeled corpus: n_per_label singles per CWE plus pair samples.

    Every fifth sample of each family lands in the test split. The generator
    is a pure function of (seed, n_per_label).
    """
    if n_per_label < 1:
        raise ValueError(f"n_per_label must be >= 1, got {n_per_label}")
    rng = random.Random(seed)
    train: list[CodeSample] = []
    test: list[CodeSample] = []

    def add(sample: CodeSample, position: int) -> None:
        if position % 5 == 4:
            test.append(sample)
        else:
            train.append(sample)

    for num in ("119", "120", "469", "476"):
        for i in range(n_per_label):
            sample = CodeSample(
                id=f"syn-{num}-{i:03d}",
                code=_make_code((num,), rng),
                truth=label_set([LABEL_BY_NUMBER[num].value]),
            )
            add(sample, i)

    n_pairs = max(1, n_per_label // 5)
    nums = ("119", "120", "469", "476")
    for a_idx in range(len(nums)):
        for b_idx in range(a_idx + 1, len(nums)):
            a, b = nums[a_idx], nums[b_idx]
            for j in range(n_pairs):
                sample = CodeSample(
                    id=f"syn-{a}-{b}-{j:03d}",
                    code=_make_code((a, b), rng),
                    truth=label_set([LABEL_BY_NUMBER[a].value, LABEL_BY_NUMBER[b].value]),
                )
                add(sample, j)

    return Corpus(train=tuple(train), test=tuple(test))
