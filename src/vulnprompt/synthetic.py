"""Synthetic C-like corpus generator for offline experiments and tests.

Each label has a family of function bodies built around the defect it names:
unchecked buffer writes for CWE-119, unbounded string copies into stack
arrays for CWE-120, raw pointer arithmetic for CWE-469, and dereferences of
possibly-null results for CWE-476. Identifier pools are disjoint per label,
so token-level similarity tracks the label structure, which is what
retrieval experiments need from a fixture. Multi-label samples concatenate
two single-label cores.

`_FAMILIES` is the one table of the families: for each label its function
names, signature, identifier pools, array sizes (none for CWE-469 and
CWE-476) and three bodies. `_core` draws any family's body from the one
`random.Random`: a name from each pool in order, then the variant, then the
size. That call order is the corpus format. Changing it changes every later
sample, the golden digests and the frozen acceptance figures;
`tests/test_synthetic.py` pins the output bytes.

Every fifth sample of a family lands in the test split, so fewer than five
samples per label give a corpus with no test split, which a run rejects.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, NamedTuple

from .corpus import CodeSample, Corpus
from .labels import LABEL_BY_NUMBER


class _Family(NamedTuple):
    fn: tuple[str, ...]
    params: str
    pools: tuple[tuple[str, ...], ...]
    sizes: tuple[int, ...]
    bodies: tuple[Callable[..., str], ...]


_FAMILIES = {
    "119": _Family(
        fn=("copy_region", "fill_frame", "write_block", "load_chunk", "blit_row"),
        params="const char *incoming, int frame_len",
        pools=(
            ("frame_buf", "region_buf", "chunk_buf", "row_buf"),
            ("incoming", "payload_data", "sector_data", "stream_bytes"),
            ("frame_len", "region_len", "sector_count", "row_width"),
        ),
        sizes=(16, 32, 64),
        bodies=(
            lambda buf, src, n, size: f"    char {buf}[{size}];\n"
                f"    for (int i = 0; i <= {n}; i++) {buf}[i] = {src}[i];",
            lambda buf, src, n, size: f"    char {buf}[{size}];\n"
                f"    memcpy({buf}, {src}, {n} * 2);",
            lambda buf, src, n, size: f"    char {buf}[{size}];\n    int i = 0;\n"
                f"    while (i <= {n}) {{ {buf}[i] = {src}[i]; i++; }}",
        ),
    ),
    "120": _Family(
        fn=("append_name", "store_title", "cat_path", "record_alias", "take_label"),
        params="const char *user_name",
        pools=(
            ("name_stack", "title_box", "path_slot", "alias_field"),
            ("user_name", "title_text", "path_text", "alias_text"),
        ),
        sizes=(8, 12, 24),
        bodies=(
            lambda buf, src, size: f"    char {buf}[{size}];\n    strcpy({buf}, {src});",
            lambda buf, src, size: f"    char {buf}[{size}];\n"
                f"    strcpy({buf}, \"id-\");\n    strcat({buf}, {src});",
            lambda buf, src, size: f"    char {buf}[{size}];\n    gets({buf});",
        ),
    ),
    "469": _Family(
        fn=("span_width", "seek_gap", "diff_marks", "walk_span", "gap_count"),
        params="char *mark_base, char *mark_end",
        pools=(
            ("mark_base", "span_base", "gap_base", "seek_base"),
            ("mark_end", "span_end", "gap_end", "seek_end"),
            ("stride_val", "gap_units", "span_units", "mark_units"),
        ),
        sizes=(),
        bodies=(
            lambda base, end, n: f"    int {n} = {end} - {base};\n    return {n} / sizeof(short);",
            lambda base, end, n: f"    char *cursor = {base};\n"
                f"    cursor = cursor + {n} - ({end} - {base});\n    return *cursor;",
            lambda base, end, n: f"    long {n} = ({end} - {base}) * sizeof(int);\n"
                f"    return {base}[{n}];",
        ),
    ),
    "476": _Family(
        fn=("fetch_entry", "find_node", "grab_handle", "pick_slotp", "open_record"),
        params="struct item **entry_table, int entry_key",
        pools=(
            ("entry_ptr", "node_ptr", "handle_ptr", "record_ptr"),
            ("entry_table", "node_table", "handle_table", "record_table"),
            ("entry_key", "node_key", "handle_key", "record_key"),
        ),
        sizes=(),
        bodies=(
            lambda ptr, table, key: f"    struct item *{ptr} = lookup({table}, {key});\n"
                f"    return {ptr}->value;",
            lambda ptr, table, key: f"    struct item *{ptr} = lookup({table}, {key});\n"
                f"    if ({ptr} == NULL) log_miss({key});\n    return {ptr}->next->value;",
            lambda ptr, table, key: f"    struct item *{ptr} = {table}[{key} % TABLE_SIZE];\n"
                f"    {ptr}->hits++;\n    return {ptr}->hits;",
        ),
    ),
}

_NUMS = tuple(_FAMILIES)


def _core(num: str, rng: random.Random) -> str:
    family = _FAMILIES[num]
    names = [rng.choice(pool) for pool in family.pools]
    body = family.bodies[rng.randrange(3)]
    if family.sizes:
        names.append(rng.choice(family.sizes))
    return body(*names)


def _make_code(nums: tuple, rng: random.Random) -> str:
    fn = "_".join([rng.choice(_FAMILIES[num].fn) for num in nums])
    params = ", ".join(_FAMILIES[num].params for num in nums)
    body = "\n".join([_core(num, rng) for num in nums])
    return f"int {fn}({params}) {{\n{body}\n    return 0;\n}}"


def make_synthetic_corpus(seed: int, n_per_label: int) -> Corpus:
    """n_per_label singles per CWE plus pair samples; a pure function of its arguments."""
    if n_per_label < 1:
        raise ValueError(f"n_per_label must be >= 1, got {n_per_label}")
    rng = random.Random(seed)
    train: list[CodeSample] = []
    test: list[CodeSample] = []

    def add(sample_id: str, nums: tuple, position: int) -> None:
        truth = frozenset(LABEL_BY_NUMBER[num] for num in nums)
        sample = CodeSample(id=sample_id, code=_make_code(nums, rng), truth=truth)
        (test if position % 5 == 4 else train).append(sample)

    for num in _NUMS:
        for i in range(n_per_label):
            add(f"syn-{num}-{i:03d}", (num,), i)
    for a, b in itertools.combinations(_NUMS, 2):
        for j in range(max(1, n_per_label // 5)):
            add(f"syn-{a}-{b}-{j:03d}", (a, b), j)
    return Corpus(train=tuple(train), test=tuple(test))
