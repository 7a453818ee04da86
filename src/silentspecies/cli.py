"""Command-line front end for reproducible batch runs.

Subcommands: tally, estimate, report, accumulate, bootstrap, correlate,
synth. Inputs are UTF-8 CSV files (or standard input via --stdin); every
output carries a metadata header with the tool version, the exact command
line, and the seed, so any published run can be repeated byte for byte.

Exit codes: 0 success, 1 data error (one-line diagnostic on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import shlex
import sys
import warnings
from dataclasses import fields
from io import TextIOWrapper
from typing import Sequence, TextIO

from . import analysis, io, resampling, synth
from .errors import SilentSpeciesError
from .stats import pearson, polyfit
from .tally import (
    ABUNDANCE,
    INCIDENCE,
    Column,
    Observations,
    group_by,
    spectrum,
    tally_abundance,
    tally_records,
)
from .version import __version__

DEFAULT_SEED = 42
_SORT_COLUMNS = [f.name for f in fields(analysis.GroupReportRow)]


def _add_input(parser: argparse.ArgumentParser) -> None:
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="input CSV path")
    src.add_argument("--stdin", action="store_true",
                     help="read input CSV from standard input")


def _seed(text: str) -> int:
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, got {text!r}")


def _add_common(parser: argparse.ArgumentParser, mode: bool = True) -> None:
    _add_input(parser)
    parser.add_argument("--output", help="output path (default: stdout)")
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                        help="seed for all randomness (default: %(default)s)")
    if mode:
        parser.add_argument("--mode", choices=[ABUNDANCE, INCIDENCE],
                            default=ABUNDANCE)


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
    _add_common(p)

    for name, default_fmt in (("estimate", "csv"), ("report", "markdown")):
        p = sub.add_parser(
            name,
            help="per-group richness/coverage table"
            if name == "report"
            else "richness and coverage estimate",
        )
        _add_common(p)
        p.add_argument("--group-by", required=(name == "report"),
                       help="group column for per-group rows")
        p.add_argument("--correction", action="store_true",
                       help="apply the (m-1)/m small-sample factor (incidence)")
        p.add_argument("--format", choices=["csv", "markdown", "json"],
                       default=default_fmt)
        p.add_argument("--sort-by", default="coverage", choices=_SORT_COLUMNS,
                       help="report column to sort by (default: %(default)s)")
        p.add_argument("--ascending", action="store_true")

    p = sub.add_parser("accumulate",
                       help="subsample accumulation curve (abundance)")
    _add_common(p, mode=False)
    p.add_argument("--sizes", required=True, type=_sizes,
                   help="comma-separated subsample sizes k")
    p.add_argument("--replicates", type=int, default=1000)

    p = sub.add_parser("bootstrap",
                       help="percentile bootstrap CI for s_hat and coverage")
    _add_common(p)
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--correction", action="store_true")

    p = sub.add_parser("correlate",
                       help="per-group diversity-proxy vs coverage correlation")
    _add_common(p)
    p.add_argument("--group-by", required=True)
    p.add_argument("--x", choices=["ttr", "str", "one-minus-ttr"],
                   default="ttr")
    p.add_argument("--y", choices=["coverage", "s_hat"], default="coverage")
    p.add_argument("--correction", action="store_true")
    p.add_argument("--trend-out", help="also write an x,fit,lower,upper trend CSV")
    p.add_argument("--trend-degree", type=int, default=2)
    p.add_argument("--trend-replicates", type=int, default=200)

    p = sub.add_parser("synth", help="generate synthetic long-format CSV")
    p.add_argument("--distribution", choices=list(synth.DISTRIBUTIONS),
                   default=synth.UNIFORM)
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
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--output", help="output path (default: stdout)")

    return parser


# Both sources decode alike: UTF-8 without newline translation, keeping an
# undecodable byte for read_records to name its row.
_DECODING = {"encoding": "utf-8", "errors": "surrogateescape", "newline": ""}


def _read_records(args: argparse.Namespace) -> Observations:
    if not args.stdin:
        with open(args.input, **_DECODING) as f:
            return io.read_records(f)
    if not hasattr(sys.stdin, "buffer"):  # a text stream with no bytes under it
        return io.read_records(sys.stdin)
    f = TextIOWrapper(sys.stdin.buffer, **_DECODING)
    try:
        return io.read_records(f)
    finally:
        f.detach()  # sys.stdin keeps its buffer open


def _write(args: argparse.Namespace, emit) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as f:
            emit(f)
    else:
        emit(sys.stdout)


def _command_string(argv: Sequence[str]) -> str:
    return "silentspecies " + " ".join(shlex.quote(a) for a in argv)


def _estimate_rows(args: argparse.Namespace, records: Observations):
    if args.group_by:
        dataset = group_by(records, args.group_by, args.mode)
        return analysis.report(
            dataset,
            sort_by=args.sort_by,
            ascending=args.ascending,
            small_sample_correction=args.correction,
        )
    return [analysis.summarize("all", tally_records(records, args.mode),
                               args.correction)]


def _cmd_tally(args, meta) -> None:
    spec = spectrum(tally_records(_read_records(args), args.mode))
    _write(args, lambda f: io.write_spectrum_csv(spec, f, meta))


def _cmd_estimate(args, meta) -> None:
    rows = _estimate_rows(args, _read_records(args))
    meta = {**meta, "estimator": rows[-1].estimator_name}
    group_label = args.group_by or "Group"

    def emit(f: TextIO) -> None:
        if args.format == "csv":
            io.write_report_csv(rows, f, meta)
        elif args.format == "markdown":
            io.write_report_markdown(rows, f, meta, group_label, args.mode)
        else:
            io.write_report_json(rows, f, meta)

    _write(args, emit)


def _cmd_accumulate(args, meta) -> None:
    tally = tally_abundance(_read_records(args))
    points = resampling.accumulate(tally, args.sizes, args.replicates,
                                   args.seed)
    _write(args, lambda f: io.write_accumulation_csv(points, f, meta))


def _cmd_bootstrap(args, meta) -> None:
    tally = tally_records(_read_records(args), args.mode)
    results = resampling.bootstrap_ci(
        tally,
        replicates=args.replicates,
        level=args.level,
        seed=args.seed,
        small_sample_correction=args.correction,
    )
    _write(args, lambda f: io.write_bootstrap_csv(results, f, meta))


def _cmd_correlate(args, meta) -> None:
    dataset = group_by(_read_records(args), args.group_by, args.mode)
    xs, ys = analysis.group_xy(dataset, args.x, args.y, args.correction)
    result = pearson(xs, ys)
    _write(
        args,
        lambda f: io.write_correlation_csv(result, args.x, args.y, f, meta),
    )
    if args.trend_out:
        fit = polyfit(
            xs,
            ys,
            args.trend_degree,
            bootstrap_replicates=args.trend_replicates,
            seed=args.seed,
        )
        with open(args.trend_out, "w", encoding="utf-8", newline="\n") as f:
            io.write_trend_csv(fit, f, meta)


def _cmd_synth(args, meta) -> None:
    spec = synth.PopulationSpec(
        s_true=args.species,
        distribution=args.distribution,
        alpha=args.alpha,
        sigma=args.sigma,
        seed=args.seed,
    )
    population = synth.generate(spec)
    if args.sites is not None:
        table = synth.sample_site_records(
            population, args.sites, args.per_site, args.detection, args.seed
        )
    else:
        tally = synth.sample(population, args.tokens, args.seed)
        species = sorted(tally.counts)
        n = len(species)
        table = Observations.of(
            {"sample_id": Column.of({"_default": 0}, [0] * n),
             "species_id": Column.of(dict(zip(species, range(n))), range(n))},
            [tally.counts[s] for s in species],
            range(1, n + 1),
        )
    _write(args, lambda f: io.write_records_csv(table, f, meta))


_HANDLERS = {
    "tally": _cmd_tally,
    "estimate": _cmd_estimate,
    "report": _cmd_estimate,
    "accumulate": _cmd_accumulate,
    "bootstrap": _cmd_bootstrap,
    "correlate": _cmd_correlate,
    "synth": _cmd_synth,
}


def _show_warning(message, category, filename, lineno, file=None,
                  line=None) -> None:
    """A library warning as one stderr line, without its source location."""
    print(f"warning: {message}", file=sys.stderr)


def run(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    meta = io.metadata(
        command=_command_string(argv),
        seed=getattr(args, "seed", DEFAULT_SEED),
    )
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            _HANDLERS[args.command](args, meta)
        except (SilentSpeciesError, OSError, ValueError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
