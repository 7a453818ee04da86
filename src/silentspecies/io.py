"""CSV ingestion and report serialization.

The one input format is the long format (UTF-8, header required, duplicate
headers rejected): sample_id,species_id,count[,<group columns...>], where
`count` is optional and defaults to 1. `sample_id` is optional too, so a
species_id,count histogram is a long-format file.

Every writer emits a metadata header (CSV comment lines or JSON fields)
recording the tool version, the command line, and the seed, so published
runs can be reproduced byte for byte.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from itertools import islice
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

from .analysis import GroupReportRow
from .errors import SchemaError
from .resampling import AccumulationPoint, BootstrapResult
from .stats import RegressionResult, TrendFit
from .tally import ABUNDANCE, FrequencySpectrum, ObservationRecord
from .version import __version__

LONG_COLUMNS = ("sample_id", "species_id", "count")
_CHUNK_ROWS = 1024


def _data_lines(f: TextIO) -> Iterator[str]:
    """Skip the `#` metadata lines before the header, so our own outputs
    round-trip; every line after the header is data."""
    lines = iter(f)
    for line in lines:
        if not line.lstrip().startswith("#"):
            yield line
            break
    yield from lines


def _read_table(
    f: TextIO, what: str
) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """Header names and the numbered data rows of a CSV table. Blank rows
    are skipped; a row whose field count differs from the header's raises
    SchemaError naming the row."""
    reader = csv.reader(_data_lines(f))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{what}: missing header row") from None
    names = [h.strip() for h in header]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise SchemaError(f"{what}: duplicate header column(s) {sorted(dupes)}")

    def rows() -> Iterator[tuple[int, list[str]]]:
        for row_num, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(names):
                raise SchemaError(
                    f"row {row_num}: expected {len(names)} fields, got {len(row)}"
                )
            yield row_num, row

    return names, rows()


def _parse_int(value: str, row: int, column: str) -> int:
    try:
        return int(value.strip())
    except ValueError:
        raise SchemaError(
            f"row {row}: non-integer {column} {value.strip()!r}"
        ) from None


def read_records(f: TextIO) -> list[ObservationRecord]:
    """Parse long-format CSV into observation records. Extra columns are
    kept as record attributes for grouping."""
    header, rows = _read_table(f, "long-format CSV")
    if "species_id" not in header:
        raise SchemaError("long-format CSV: missing species_id column")
    species_col = header.index("species_id")
    sample_col = header.index("sample_id") if "sample_id" in header else None
    count_col = header.index("count") if "count" in header else None
    extra = [(h, i) for i, h in enumerate(header) if h not in LONG_COLUMNS]
    records: list[ObservationRecord] = []
    for row_num, row in rows:
        count = 1
        if count_col is not None and row[count_col].strip() != "":
            count = _parse_int(row[count_col], row_num, "count")
        if count < 0:
            raise SchemaError(f"row {row_num}: negative count {count}")
        species = row[species_col].strip()
        if not species:
            raise SchemaError(f"row {row_num}: empty species_id")
        records.append(
            ObservationRecord(
                sample_id="" if sample_col is None else row[sample_col].strip(),
                species_id=species,
                count=count,
                attrs={h: row[i].strip() for h, i in extra},
            )
        )
    return records


# ---------------------------------------------------------------------------
# Writers


def metadata(
    command: str,
    seed: int | None = None,
    estimator: str | None = None,
    **extra: str,
) -> dict[str, str]:
    meta = {"tool": f"silentspecies {__version__}", "command": command}
    if seed is not None:
        meta["seed"] = str(seed)
    if estimator is not None:
        meta["estimator"] = estimator
    meta.update(extra)
    return meta


def _write_table(
    f: TextIO,
    meta: Mapping[str, str],
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    """Metadata comment lines, then the header and rows as CSV. Floats are
    written with repr, so they read back bit for bit."""
    for key, value in meta.items():
        f.write(f"# {key}: {value}\n")
    # csv quotes a field only for the characters of its line terminator, so
    # rows are formatted with CRLF, which gets a lone CR inside a field
    # quoted, and written with LF. Rows are formatted a chunk at a time so
    # that the rewrite is one replace per chunk unless a field holds a CR.
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append),
                        lineterminator="\r\n")
    writer.writerow(header)
    rows = iter(rows)
    while lines:
        text = "".join(lines)
        if text.count("\r") == len(lines):
            f.write(text.replace("\r\n", "\n"))
        else:
            f.writelines(line[:-2] + "\n" for line in lines)
        lines.clear()
        writer.writerows(islice(rows, _CHUNK_ROWS))


def _fmt(value: float, places: int = 3) -> str:
    return f"{value:.{places}f}"


def write_records_csv(
    records: Iterable[ObservationRecord], f: TextIO, meta: Mapping[str, str]
) -> None:
    _write_table(f, meta, LONG_COLUMNS,
                 ((rec.sample_id, rec.species_id, rec.count) for rec in records))


def write_spectrum_csv(
    spec: FrequencySpectrum, f: TextIO, meta: Mapping[str, str]
) -> None:
    _write_table(f, meta, ("r", "f_r"),
                 ((r, spec.freqs[r]) for r in sorted(spec.freqs)))


_REPORT_FIELDS = (
    "group_key",
    "types",
    "tokens_or_samples",
    "ttr_or_str",
    "f1",
    "f2",
    "coverage",
    "s_hat",
    "estimator_name",
    "fallback",
)


def write_report_csv(
    rows: Sequence[GroupReportRow], f: TextIO, meta: Mapping[str, str]
) -> None:
    _write_table(f, meta, _REPORT_FIELDS, (
        (
            row.group_key,
            row.types,
            row.tokens_or_samples,
            _fmt(row.ttr_or_str),
            row.f1,
            row.f2,
            _fmt(row.coverage),
            _fmt(row.s_hat),
            row.estimator_name,
            int(row.used_fallback),
        )
        for row in rows
    ))


def write_report_markdown(    rows: Sequence[GroupReportRow],
    f: TextIO,
    meta: Mapping[str, str],
    group_label: str = "Group",
    mode: str = ABUNDANCE,
) -> None:
    """Markdown table in the layout of the published tables:
    Group/Types/Tokens/TTR/f1/f2/Coverage (Samples/STR for incidence)."""
    for key, value in meta.items():
        f.write(f"<!-- {key}: {value} -->\n")
    if mode == ABUNDANCE:
        unit, ratio = "Tokens", "TTR"
    else:
        unit, ratio = "Samples", "STR"
    headers = [group_label, "Types", unit, ratio, "f1", "f2", "Coverage"]
    f.write("| " + " | ".join(headers) + " |\n")
    f.write("|" + "|".join("---" for _ in headers) + "|\n")
    for row in rows:
        f.write(
            "| "
            + " | ".join(
                [
                    row.group_key,
                    str(row.types),
                    str(row.tokens_or_samples),
                    _fmt(row.ttr_or_str),
                    str(row.f1),
                    str(row.f2),
                    _fmt(row.coverage),
                ]
            )
            + " |\n"
        )


def write_report_json(
    rows: Sequence[GroupReportRow], f: TextIO, meta: Mapping[str, str]
) -> None:
    payload = {
        "meta": dict(meta),
        "rows": [
            {**asdict(row), "fallback": row.used_fallback} for row in rows
        ],
    }
    json.dump(payload, f, indent=2, sort_keys=True)
    f.write("\n")


def write_accumulation_csv(
    points: Sequence[AccumulationPoint], f: TextIO, meta: Mapping[str, str]
) -> None:
    _write_table(
        f, meta, ("k", "replicates", "mean_s_obs", "mean_s_hat", "sd_s_hat"),
        ((p.k, p.replicates, p.mean_s_obs, p.mean_s_hat, p.sd_s_hat)
         for p in points),
    )


def write_bootstrap_csv(
    results: Mapping[str, BootstrapResult], f: TextIO, meta: Mapping[str, str]
) -> None:
    _write_table(
        f, meta,
        ("metric", "point", "lower", "upper", "level", "replicates", "seed"),
        ((metric, r.point, r.lower, r.upper, r.level, r.replicates, r.seed)
         for metric, r in sorted(results.items())),
    )


def write_correlation_csv(
    result: RegressionResult,
    x_name: str,
    y_name: str,
    f: TextIO,
    meta: Mapping[str, str],
) -> None:
    _write_table(
        f, meta, ("x_name", "y_name", "n", "slope", "intercept", "r", "p_value"),
        [(x_name, y_name, result.n_points, result.slope, result.intercept,
          result.r, result.p_value)],
    )


def write_trend_csv(fit: TrendFit, f: TextIO, meta: Mapping[str, str]) -> None:
    """Plot-data grid: x,fit,lower,upper (no rows when no band was
    computed)."""
    _write_table(
        f, meta, ("x", "fit", "lower", "upper"),
        ((x, float(fit.predict([x])[0]), lower, upper)
         for x, lower, upper in fit.band or ()),
    )
