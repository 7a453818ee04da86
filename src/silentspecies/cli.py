"""Command-line front end for reproducible batch runs.

Subcommands: tally, estimate, report, accumulate, bootstrap, correlate,
synth. Inputs are UTF-8 CSV files (or standard input via --stdin); every
output carries a metadata header with the tool version, the exact command
line, and the seed, so any published run can be repeated byte for byte.

Exit codes: 0 success, 1 data error (one-line diagnostic on stderr),
2 usage error.

The parser needs no numpy: each handler imports the layers it runs, so
`--version`, `--help` and usage errors start without loading them.
"""

from __future__ import annotations

import argparse
import gc
import os
import shlex
import stat
import sys
import warnings
from contextlib import ExitStack, contextmanager
from io import TextIOWrapper
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, TextIO

from .choices import (
    ABUNDANCE,
    DISTRIBUTIONS,
    MODES,
    SORT_COLUMNS,
    UNIFORM,
    X_COLUMNS,
    Y_COLUMNS,
)
from .errors import SilentSpeciesError
from .version import __version__

if TYPE_CHECKING:
    from .tally import Observations

DEFAULT_SEED = 42


def _int_at_least(low: int, kind: str) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected a {kind} integer, got {text!r}")
    return parse


_non_negative = _int_at_least(0, "non-negative")
_positive = _int_at_least(1, "positive")


def _add_common(parser: argparse.ArgumentParser, mode: bool = True) -> None:
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="input CSV path")
    src.add_argument("--stdin", action="store_true",
                     help="read input CSV from standard input")
    parser.add_argument("--output", help="output path (default: stdout)")
    parser.add_argument("--seed", type=_non_negative, default=DEFAULT_SEED,
                        help="seed for all randomness (default: %(default)s)")
    if mode:
        parser.add_argument("--mode", choices=MODES, default=ABUNDANCE)


def _sizes(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="silentspecies",
        description="Unseen-species richness and coverage estimation.",
    )
    parser.add_argument("--version", action="version",
                        version=f"silentspecies {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tally", help="tally records into an f_r spectrum")
    p.set_defaults(handler=_cmd_tally)
    _add_common(p)

    for name, default_fmt in (("estimate", "csv"), ("report", "markdown")):
        p = sub.add_parser(
            name,
            help="per-group richness/coverage table"
            if name == "report"
            else "richness and coverage estimate",
        )
        p.set_defaults(handler=_cmd_estimate)
        _add_common(p)
        p.add_argument("--group-by", required=(name == "report"),
                       help="group column for per-group rows")
        p.add_argument("--correction", action="store_true",
                       help="apply the (m-1)/m small-sample factor (incidence)")
        p.add_argument("--format", choices=["csv", "markdown", "json"],
                       default=default_fmt)
        p.add_argument("--sort-by", default="coverage", choices=SORT_COLUMNS,
                       help="report column to sort by (default: %(default)s)")
        p.add_argument("--ascending", action="store_true")

    p = sub.add_parser("accumulate",
                       help="subsample accumulation curve (abundance)")
    p.set_defaults(handler=_cmd_accumulate)
    _add_common(p, mode=False)
    p.add_argument("--sizes", required=True, type=_sizes,
                   help="comma-separated subsample sizes k")
    p.add_argument("--replicates", type=int, default=1000)

    p = sub.add_parser("bootstrap",
                       help="percentile bootstrap CI for s_hat and coverage")
    p.set_defaults(handler=_cmd_bootstrap)
    _add_common(p)
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--correction", action="store_true")

    p = sub.add_parser("correlate",
                       help="per-group diversity-proxy vs coverage correlation")
    p.set_defaults(handler=_cmd_correlate)
    _add_common(p)
    p.add_argument("--group-by", required=True)
    p.add_argument("--x", choices=X_COLUMNS, default="ttr",
                   help="diversity proxy; ttr and str select the same value, "
                        "TTR in abundance mode and STR in incidence mode, "
                        "and differ only in the x_name label")
    p.add_argument("--y", choices=Y_COLUMNS, default="coverage")
    p.add_argument("--correction", action="store_true")
    p.add_argument("--trend-out", help="also write an x,fit,lower,upper trend CSV")
    p.add_argument("--trend-degree", type=_positive, default=2)
    p.add_argument("--trend-replicates", type=_non_negative, default=200,
                   help="bootstrap replicates for the trend band; 0 for none")

    p = sub.add_parser("synth", help="generate synthetic long-format CSV")
    p.set_defaults(handler=_cmd_synth)
    p.add_argument("--distribution", choices=list(DISTRIBUTIONS),
                   default=UNIFORM)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--species", type=int, required=True)
    draw = p.add_mutually_exclusive_group(required=True)
    draw.add_argument("--tokens", type=int,
                      help="abundance mode: tokens to draw")
    draw.add_argument("--sites", type=int, help="incidence mode: sites to draw")
    p.add_argument("--per-site", type=int, default=100,
                   help="tokens per site in incidence mode")
    p.add_argument("--detection", type=float, default=1.0)
    p.add_argument("--seed", type=_non_negative, default=DEFAULT_SEED)
    p.add_argument("--output", help="output path (default: stdout)")

    return parser


# Both sources decode alike: UTF-8 without newline translation, keeping an
# undecodable byte for read_records to name its row.
_DECODING = {"encoding": "utf-8", "errors": "surrogateescape", "newline": ""}


def _read_records(args: argparse.Namespace) -> Observations:
    from . import io

    if not args.stdin:
        with open(args.input, **_DECODING) as f:
            return io.read_records(f)
    if sys.stdin is None:  # started with descriptor 0 closed
        raise OSError("standard input is closed")
    if not hasattr(sys.stdin, "buffer"):  # a text stream with no bytes under it
        return io.read_records(sys.stdin)
    f = TextIOWrapper(sys.stdin.buffer, **_DECODING)
    try:
        return io.read_records(f)
    finally:
        f.detach()  # sys.stdin keeps its buffer open


def _open_output(path: str, created: list[str]) -> int:
    """A write descriptor on `path`, not truncated; `path` joins `created`
    when this call made the file."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except FileExistsError:
        return os.open(path, os.O_WRONLY | os.O_CREAT)
    created.append(path)
    return fd


def _regular_file(f: TextIO) -> tuple[int, int] | None:
    """(st_dev, st_ino) of the regular file under `f`; None for any other
    file, or for a stream without a descriptor."""
    try:
        st = os.fstat(f.fileno())
    except (OSError, ValueError):
        return None
    return (st.st_dev, st.st_ino) if stat.S_ISREG(st.st_mode) else None


@contextmanager
def _open_outputs(paths: list[str | None]) -> Iterator[list[TextIO]]:
    """The file at each path, or stdout for None, opened once for writing
    and not truncated, before the command reads its input. When one cannot
    be opened, two are one regular file, or anything later fails, the files
    this call created are removed; an existing file keeps its bytes until
    its output is written."""
    if sys.stdout is None and None in paths:
        raise OSError("standard output is closed")  # descriptor 1 was closed
    created: list[str] = []
    with ExitStack() as stack:
        try:
            files = [
                sys.stdout if path is None else
                stack.enter_context(open(_open_output(path, created), "w",
                                         encoding="utf-8", newline="\n"))
                for path in paths
            ]
            named: dict[tuple[int, int], str] = {}
            for path, f in zip(paths, files):
                name = "standard output" if path is None else repr(path)
                key = _regular_file(f)
                if key in named:
                    raise OSError(f"{named[key]} and {name} are one file")
                if key is not None:
                    named[key] = name
            yield files
        except BaseException:
            for path in created:
                os.remove(path)
            raise


# Each handler computes its results and returns one Emit per output path:
# `--output`, then `--trend-out` when given.
Emit = Callable[[TextIO], None]


def _write(files: list[TextIO], emits: list[Emit]) -> None:
    """Write each output through its `emit`, in order. A regular file is
    truncated just before it is written; a FIFO or a device is written as
    it is."""
    for f, emit in zip(files, emits, strict=True):
        if f is sys.stdout:
            try:
                emit(f)
                f.flush()
            except BrokenPipeError:
                # The reader stopped early, as `head` does: not an
                # error. Point stdout at devnull so that the flush at
                # exit does not fail again.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, f.fileno())
                os.close(devnull)
            continue
        with f:  # closed before the next output, which may be this file
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                os.ftruncate(f.fileno(), 0)
            emit(f)


def _cmd_tally(args, meta) -> list[Emit]:
    from . import io
    from .tally import spectrum, tally_records

    spec = spectrum(tally_records(_read_records(args), args.mode))
    return [lambda f: io.write_spectrum_csv(spec, f, meta)]


def _cmd_estimate(args, meta) -> list[Emit]:
    from . import analysis, io
    from .tally import group_by, tally_records

    records = _read_records(args)
    if args.group_by is not None:
        rows = analysis.report(
            group_by(records, args.group_by, args.mode),
            sort_by=args.sort_by,
            ascending=args.ascending,
            small_sample_correction=args.correction,
        )
    else:
        rows = [analysis.summarize("all", tally_records(records, args.mode),
                                   args.correction)]
    meta = {**meta, "estimator": rows[-1].estimator_name}
    group_label = "Group" if args.group_by is None else args.group_by

    def emit(f: TextIO) -> None:
        if args.format == "csv":
            io.write_report_csv(rows, f, meta)
        elif args.format == "markdown":
            io.write_report_markdown(rows, f, meta, group_label, args.mode)
        else:
            io.write_report_json(rows, f, meta)

    return [emit]


def _cmd_accumulate(args, meta) -> list[Emit]:
    from . import io, resampling
    from .tally import tally_abundance

    tally = tally_abundance(_read_records(args))
    points = resampling.accumulate(tally, args.sizes, args.replicates,
                                   args.seed)
    return [lambda f: io.write_accumulation_csv(points, f, meta)]


def _cmd_bootstrap(args, meta) -> list[Emit]:
    from . import io, resampling
    from .tally import tally_records

    tally = tally_records(_read_records(args), args.mode)
    results = resampling.bootstrap_ci(
        tally,
        replicates=args.replicates,
        level=args.level,
        seed=args.seed,
        small_sample_correction=args.correction,
    )
    return [lambda f: io.write_bootstrap_csv(results, f, meta)]


def _cmd_correlate(args, meta) -> list[Emit]:
    from . import analysis, io
    from .stats import pearson, polyfit
    from .tally import group_by

    dataset = group_by(_read_records(args), args.group_by, args.mode)
    xs, ys = analysis.group_xy(dataset, args.x, args.y, args.correction)
    result = pearson(xs, ys)
    emits = [lambda f: io.write_correlation_csv(result, args.x, args.y, f,
                                                meta)]
    if args.trend_out is not None:  # fitted now: a failing fit cuts no file
        fit = polyfit(xs, ys, args.trend_degree,
                      bootstrap_replicates=args.trend_replicates,
                      seed=args.seed)
        emits.append(lambda f: io.write_trend_csv(fit, xs, f, meta))
    return emits


def _cmd_synth(args, meta) -> list[Emit]:
    from . import io, synth

    spec = synth.PopulationSpec(
        s_true=args.species,
        distribution=args.distribution,
        alpha=args.alpha,
        sigma=args.sigma,
        seed=args.seed,
    )
    population = synth.generate(spec)
    if args.sites is not None:
        # Checked now, and drawn block by block as the writer asks.
        tables = synth._site_blocks(
            population, args.sites, args.per_site, args.detection, args.seed
        )
    else:
        tables = [synth._token_table(population, args.tokens, args.seed)]
    return [lambda f: io.write_record_blocks(tables, f, meta)]


def _diagnose(line: str) -> None:
    """One diagnostic line on stderr, or nowhere when stderr is closed or
    cannot be written: never on stdout (where print sends it when
    sys.stderr is None), and never failing the run."""
    if sys.stderr is not None:
        try:
            print(line, file=sys.stderr)
        except (OSError, ValueError):
            pass


def _show_warning(message, category, filename, lineno, file=None,
                  line=None) -> None:
    """A library warning as one stderr line, without its source location."""
    _diagnose(f"warning: {message}")


def run(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    from . import io

    meta = io.metadata("silentspecies " + shlex.join(argv), args.seed)
    paths = [args.output]
    if getattr(args, "trend_out", None) is not None:
        paths.append(args.trend_out)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            with _open_outputs(paths) as files:
                _write(files, args.handler(args, meta))
        except (SilentSpeciesError, OSError, ValueError, MemoryError) as exc:
            # numpy raises a private subclass of MemoryError: named as its base
            name = ("MemoryError" if isinstance(exc, MemoryError)
                    else type(exc).__name__)
            _diagnose(f"error: {name}: {exc}")
            return 1
    return 0


def main() -> None:
    # One process runs one command, and no command makes a reference cycle
    # per record, site or replicate: the collector stays off, and the heap
    # is frozen so that exit does not collect what the imports built.
    # run() leaves the collector alone for in-process callers.
    gc.disable()
    code = run()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
