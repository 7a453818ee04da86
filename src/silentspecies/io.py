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
import re
from dataclasses import asdict
from itertools import chain, islice
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from .analysis import GroupReportRow
from .errors import SchemaError
from .resampling import AccumulationPoint, BootstrapResult
from .stats import RegressionResult, TrendFit
from .tally import (
    ABUNDANCE,
    Column,
    ObservationRecord,
    Observations,
    _observations,
)
from .version import __version__

LONG_COLUMNS = ("sample_id", "species_id", "count")
_CHUNK_ROWS = 1024
# The characters that errors="surrogateescape" puts for undecodable bytes.
_UNDECODED = re.compile("[\udc80-\udcff]")
_LINE_BREAK = re.compile("\r\n|\r|\n")


def read_records(f: TextIO) -> Observations:
    """Parse long-format CSV into an Observations table. Every column but
    `count` is interned alike, so any of them can group the records.

    A leading byte-order mark is dropped. The `#` metadata lines before the
    header are skipped, so our own outputs round-trip; every line after the
    header is data. Blank rows are skipped. A record's row is the file line
    on which it starts, and every SchemaError names it. A byte that UTF-8
    could not decode (kept by errors="surrogateescape") is a SchemaError.
    """
    lines = iter(f)
    first = next(lines, "").removeprefix("\ufeff")  # as spreadsheets write it
    skipped = 0
    while first.lstrip().startswith("#"):
        skipped += 1
        first = next(lines, "")
    if not first:
        raise SchemaError("long-format CSV: missing header row")
    reader = csv.reader(chain([first], lines))
    try:
        header = [h.strip() for h in next(reader)]
    except csv.Error as exc:
        raise SchemaError(f"row {skipped + 1}: {exc}") from None
    _check_decoded(skipped + 1, "the header", "".join(header))
    dupes = {h for h in header if header.count(h) > 1}
    if dupes:
        raise SchemaError(
            f"long-format CSV: duplicate header column(s) {sorted(dupes)}"
        )
    if "species_id" not in header:
        raise SchemaError("long-format CSV: missing species_id column")
    width = len(header)
    species_col = header.index("species_id")
    count_col = header.index("count") if "count" in header else None
    names = [h for h in header if h != "count"]
    columns = [(header.index(h), {}, []) for h in names]
    counts: list[int] = []
    parsed: dict[str, int] = {}  # count text -> count; counts repeat a lot
    rows: list[int] = []
    line = skipped + reader.line_num  # the last file line the reader consumed
    try:
        for row in reader:
            start, line = line + 1, skipped + reader.line_num
            if len(row) != width:
                if any(map(str.strip, row)):
                    raise SchemaError(
                        f"row {start}: expected {width} fields, got {len(row)}"
                    )
                continue
            count = 1
            if count_col is not None:
                text = row[count_col].strip()
                if text:
                    count = parsed.get(text)
                    if count is None:
                        count = parsed[text] = _parse_count(start, text)
            if not row[species_col].strip():
                if any(map(str.strip, row)):
                    raise SchemaError(f"row {start}: empty species_id")
                continue
            for i, ids, codes in columns:
                codes.append(ids.setdefault(row[i].strip(), len(ids)))
            counts.append(count)
            rows.append(start)
    except csv.Error as exc:
        raise SchemaError(f"row {line + 1}: {exc}") from None
    # Each label is checked once, not each field: (row, column, label) of
    # the first undecodable label of each column.
    undecodable = []
    for name, (_, ids, codes) in zip(names, columns):
        if _UNDECODED.search("".join(ids)):
            code, label = next((code, label) for code, label in enumerate(ids)
                               if _UNDECODED.search(label))
            undecodable.append((rows[codes.index(code)], name, label))
    if undecodable:
        row, name, label = min(undecodable)
        _check_decoded(row, repr(name), label)
    return Observations.of(
        {h: Column.of(ids, codes)
         for h, (_, ids, codes) in zip(names, columns)},
        counts,
        rows,
    )


def _parse_count(row: int, text: str) -> int:
    """A count is ASCII digits; int() alone also takes "+3", "1_000" and
    non-ASCII digits."""
    try:
        count = int(text)
    except ValueError:
        count = None
    if count is not None and text.isascii() and text.isdigit():
        return count
    digits = text[1:]
    if count is not None and count < 0 and digits.isascii() and digits.isdigit():
        raise SchemaError(f"row {row}: negative count {count}")
    _check_decoded(row, "'count'", text)
    raise SchemaError(f"row {row}: non-integer count {text!r}")


def _check_decoded(row: int, where: str, text: str) -> None:
    """Raise SchemaError naming the row if `text` holds a byte that UTF-8
    could not decode (read with errors="surrogateescape")."""
    match = _UNDECODED.search(text)
    if match:
        byte = ord(match[0]) - 0xDC00
        raise SchemaError(f"row {row}: undecodable byte 0x{byte:02x} in {where}")


# ---------------------------------------------------------------------------
# Writers


def metadata(command: str, seed: int | None = None) -> dict[str, str]:
    meta = {"tool": f"silentspecies {__version__}", "command": command}
    if seed is not None:
        meta["seed"] = str(seed)
    return meta


def _one_line(value: str) -> str:
    """A metadata value on one line: CR and LF written as \\r and \\n."""
    return value.replace("\r", "\\r").replace("\n", "\\n")


def _write_table(
    f: TextIO,
    meta: Mapping[str, str],
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    """Metadata comment lines, then the header and rows as CSV. Floats are
    written with repr, so they read back bit for bit."""
    for key, value in meta.items():
        f.write(f"# {key}: {_one_line(value)}\n")
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
    records: Observations | Iterable[ObservationRecord],
    f: TextIO,
    meta: Mapping[str, str],
) -> None:
    """The sample_id, species_id and count columns of a table, as long
    format. A record list is converted to a table once."""
    obs = _observations(records)
    sample, species = obs.column("sample_id"), obs.column("species_id")
    # Labels are gathered a chunk at a time from object arrays, in C.
    sample_labels = np.array(sample.labels, dtype=object)
    species_labels = np.array(species.labels, dtype=object)
    parts = (slice(start, start + _CHUNK_ROWS)
             for start in range(0, len(obs), _CHUNK_ROWS))
    _write_table(f, meta, LONG_COLUMNS, chain.from_iterable(
        zip(sample_labels[sample.codes[part]].tolist(),
            species_labels[species.codes[part]].tolist(),
            obs.counts[part].tolist())
        for part in parts
    ))


def write_spectrum_csv(
    freqs: Mapping[int, int], f: TextIO, meta: Mapping[str, str]
) -> None:
    _write_table(f, meta, ("r", "f_r"), sorted(freqs.items()))


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


def _markdown_cell(text: str) -> str:
    """Table cell text: `|` escaped and each line break written as <br>."""
    return _LINE_BREAK.sub("<br>", text.replace("|", "\\|"))


def write_report_markdown(
    rows: Sequence[GroupReportRow],
    f: TextIO,
    meta: Mapping[str, str],
    group_label: str = "Group",
    mode: str = ABUNDANCE,
) -> None:
    """Markdown table in the layout of the published tables:
    Group/Types/Tokens/TTR/f1/f2/Coverage (Samples/STR for incidence)."""
    for key, value in meta.items():
        value = _one_line(value).replace("-->", "--&gt;")
        f.write(f"<!-- {key}: {value} -->\n")
    if mode == ABUNDANCE:
        unit, ratio = "Tokens", "TTR"
    else:
        unit, ratio = "Samples", "STR"
    headers = [group_label, "Types", unit, ratio, "f1", "f2", "Coverage"]
    f.write("| " + " | ".join(map(_markdown_cell, headers)) + " |\n")
    f.write("|" + "|".join("---" for _ in headers) + "|\n")
    for row in rows:
        cells = [row.group_key, str(row.types), str(row.tokens_or_samples),
                 _fmt(row.ttr_or_str), str(row.f1), str(row.f2),
                 _fmt(row.coverage)]
        f.write("| " + " | ".join(map(_markdown_cell, cells)) + " |\n")


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


def write_trend_csv(
    fit: TrendFit,
    xs: Sequence[float],
    f: TextIO,
    meta: Mapping[str, str],
) -> None:
    """Plot-data grid: x,fit,lower,upper, one row per distinct x of the
    fitted points `xs`, with lower and upper empty when no band was
    computed."""
    grid = np.unique(np.asarray(xs, dtype=float)).tolist()
    band = fit.band or [(x, None, None) for x in grid]
    _write_table(
        f, meta, ("x", "fit", "lower", "upper"),
        ((x, float(fit.predict([x])[0]), lower, upper)
         for x, lower, upper in band),
    )
