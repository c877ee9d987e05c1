"""Command-line interface for corpus prep, experiment runs, and reports.

Exit codes: 0 success, 1 usage or configuration error, 2 provider failure
under --strict, 3 data validation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import closing
from pathlib import Path

from .config import ConfigError, load_config
from .corpus import IngestError, dump_jsonl, ingest, validate
from .embedding import EmbeddingError
from .fileio import atomic_write_text
from .llmclient import CACHE_FILENAME, CacheError, ResponseCache
from .runner import (
    RunnerError,
    RunReport,
    StrictRunError,
    build_backend,
    build_index_from_corpus,
    emit_curves,
    emit_table,
    run,
)
from .synthetic import make_synthetic_corpus
from .vecindex import VecIndexError, save_index

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROVIDER = 2
EXIT_DATA = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; this CLI reserves 2 for
    provider failures, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least_one(text: str) -> int:
    """An argparse type: an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        atomic_write_text(out, text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _cmd_ingest(args) -> int:
    corpus = ingest(args.input)
    report = validate(corpus)
    payload = {**dataclasses.asdict(report), "stats": dataclasses.asdict(corpus.stats)}
    _write_or_print(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.report)
    return EXIT_OK


def _cmd_index_build(args) -> int:
    config = load_config(args.config)
    if not config.index_path:
        raise ConfigError(f"{args.config} sets no index_path to write the index to")
    corpus = ingest(config.corpus_path)
    index = build_index_from_corpus(corpus, build_backend(config), config.include_labels_in_index)
    save_index(index, config.index_path)
    print(f"indexed {len(index)} train samples (dim {index.dimension}) -> {config.index_path}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.strict:
        config = dataclasses.replace(config, strict=True)
    if args.output_dir:
        config = dataclasses.replace(config, output_dir=args.output_dir)
    report = run(config)
    out_dir = Path(config.output_dir)
    print(f"wrote {out_dir / 'records.jsonl'}")
    print(f"wrote {out_dir / 'report.json'}")
    print(f"wrote {out_dir / 'report.csv'}")
    print(f"provider calls: {report.provider_calls}")
    return EXIT_OK


def _load_report(run_path: str) -> RunReport:
    path = Path(run_path)
    if path.is_dir():
        path = path / "report.json"
    try:
        return RunReport.from_json(path.read_text(encoding="utf-8"))
    except (RunnerError, UnicodeDecodeError) as exc:
        raise RunnerError(f"{path}: {exc}") from None


def _cmd_report_table(args) -> int:
    report = _load_report(args.run)
    _write_or_print(emit_table(report), args.out)
    return EXIT_OK


def _cmd_report_curves(args) -> int:
    report = _load_report(args.run)
    curves = emit_curves(report)
    _write_or_print(json.dumps(curves, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _cmd_synth(args) -> int:
    corpus = make_synthetic_corpus(seed=args.seed, n_per_label=args.n_per_label)
    dump_jsonl(corpus, args.out)
    print(
        f"wrote {len(corpus.train)} train + {len(corpus.test)} test samples -> {args.out}"
    )
    return EXIT_OK


def _cmd_cache(args) -> int:
    path = Path(args.cache_dir) / CACHE_FILENAME
    if not path.is_file():  # opening it would create it
        raise CacheError(f"no response cache at {path}")
    with closing(ResponseCache(args.cache_dir)) as cache:
        if args.cache_command == "stats":
            print(json.dumps(cache.stats(), indent=2, sort_keys=True))
        else:
            removed = cache.clear()
            print(f"removed {removed} cached response(s)")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="vulnprompt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="validate a corpus file and summarize it")
    p_ingest.add_argument("--input", required=True, help="corpus JSONL path")
    p_ingest.add_argument("--report", help="write the summary JSON here instead of stdout")
    p_ingest.set_defaults(fn=_cmd_ingest)

    p_index = sub.add_parser("index", help="vector index operations")
    index_sub = p_index.add_subparsers(dest="index_command", required=True)
    p_build = index_sub.add_parser("build", help="embed a config's train split into its index_path")
    p_build.add_argument("--config", required=True, help="YAML experiment config path")
    p_build.set_defaults(fn=_cmd_index_build)

    p_run = sub.add_parser("run", help="execute a full experiment sweep")
    p_run.add_argument("--config", required=True, help="YAML experiment config path")
    p_run.add_argument(
        "--strict", action="store_true", help="stop after the first cell with a provider failure"
    )
    p_run.add_argument("--output-dir", help="override the config output directory")
    p_run.set_defaults(fn=_cmd_run)

    p_report = sub.add_parser("report", help="re-emit artifacts from a finished run")
    report_sub = p_report.add_subparsers(dest="report_command", required=True)
    p_table = report_sub.add_parser("table", help="CSV table of all cells")
    p_table.add_argument("--run", required=True, help="run directory or report.json path")
    p_table.add_argument("--out", help="write CSV here instead of stdout")
    p_table.set_defaults(fn=_cmd_report_table)
    p_curves = report_sub.add_parser("curves", help="per-metric series for plotting")
    p_curves.add_argument("--run", required=True, help="run directory or report.json path")
    p_curves.add_argument("--out", help="write JSON here instead of stdout")
    p_curves.set_defaults(fn=_cmd_report_curves)

    p_synth = sub.add_parser("synth", help="generate the synthetic corpus")
    p_synth.add_argument("--seed", type=int, default=7)
    p_synth.add_argument("--n-per-label", type=_at_least_one, default=25)
    p_synth.add_argument("--out", required=True, help="corpus JSONL output path")
    p_synth.set_defaults(fn=_cmd_synth)

    p_cache = sub.add_parser("cache", help="response cache maintenance")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (("stats", "entry count and size"), ("clear", "delete all entries")):
        p = cache_sub.add_parser(name, help=help_text)
        p.add_argument("--cache-dir", required=True)
        p.set_defaults(fn=_cmd_cache)

    return parser


def _run_command(fn, args) -> int:
    """Run one command; a known failure becomes an `error:` line on stderr and
    its exit code. The quick-start script runs its sweep through this too."""
    try:
        return fn(args)
    except StrictRunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.partial_records_path:
            print(f"checkpoint: {exc.partial_records_path}", file=sys.stderr)
        return EXIT_PROVIDER
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # OSError: a missing file, or a directory where a file belongs.
    except (IngestError, RunnerError, VecIndexError, EmbeddingError, CacheError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return _run_command(args.fn, args)


if __name__ == "__main__":
    sys.exit(main())
