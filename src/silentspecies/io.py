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
import re
from dataclasses import asdict, astuple, fields
from itertools import chain
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence, TextIO

import numpy as np

from .choices import ABUNDANCE, GroupReportRow
from .errors import SchemaError
from .tally import (
    _INT64_MAX,
    Column,
    Observations,
    _distinct,
    _shown,
    _unique,
)
from .version import __version__

if TYPE_CHECKING:
    from .resampling import AccumulationPoint, BootstrapResult
    from .stats import RegressionResult, TrendFit

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
    The first defective row in file order raises; within a row, the field
    count is judged first, then the count, then species_id, then the other
    columns in header order.
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
    count_col = header.index("count") if "count" in header else None
    # name -> (field index, label -> code, per-record codes), in header order
    columns = {h: (i, {}, []) for i, h in enumerate(header) if h != "count"}
    species_col = columns["species_id"][0]
    # A row's labels are judged species_id first, then in header order.
    interned = sorted(columns.items(), key=lambda c: c[0] != "species_id")
    counts: list[int] = []
    parsed: dict[str, int] = {}  # count text -> count; counts repeat a lot
    # Typed: a list would hold a distinct int object per record, 4.5 times
    # the bytes, and numpy takes the array's buffer without a copy. The
    # array module is a shared library that commands reading no CSV (synth)
    # need not load.
    from array import array

    rows = array("q")
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
            for name, (i, ids, codes) in interned:
                label = row[i].strip()
                code = ids.get(label)
                if code is None:  # a new label: checked once, not per field
                    _check_decoded(start, repr(name), label)
                    code = ids[label] = len(ids)
                codes.append(code)
            counts.append(count)
            rows.append(start)
    except csv.Error as exc:
        raise SchemaError(f"row {line + 1}: {exc}") from None
    return Observations.of(
        {h: Column.of(ids, codes) for h, (_, ids, codes) in columns.items()},
        counts,
        rows,
    )


def _parse_count(row: int, text: str) -> int:
    """A count is ASCII digits; int() alone also takes "+3", "1_000" and
    non-ASCII digits. A bad count's error echoes at most _SHOWN characters
    of it, and then its length."""
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        value = digits.lstrip("0") or "0"
        if digits == text:
            # Measured before int() is called: it refuses over 4,300 digits.
            if (len(value) <= len(str(_INT64_MAX))
                    and int(value) <= _INT64_MAX):
                return int(value)
            raise SchemaError(
                f"row {row}: count {_shown(text)} outside the int64 range")
        if value != "0":
            raise SchemaError(f"row {row}: negative count {_shown(text)}")
    _check_decoded(row, "'count'", text)
    raise SchemaError(f"row {row}: non-integer count {_shown(text, repr)}")


def _check_decoded(row: int, where: str, text: str) -> None:
    """Raise SchemaError naming the row if `text` holds a byte that UTF-8
    could not decode (read with errors="surrogateescape")."""
    match = _UNDECODED.search(text)
    if match:
        byte = ord(match[0]) - 0xDC00
        raise SchemaError(f"row {row}: undecodable byte 0x{byte:02x} in {where}")


# ---------------------------------------------------------------------------
# Writers


def metadata(command: str, seed: int) -> dict[str, str]:
    return {"tool": f"silentspecies {__version__}", "command": command,
            "seed": str(seed)}


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
    f.writelines(line + "\n" for line in _csv_lines(chain([header], rows)))


def _csv_lines(rows: Iterable[Sequence[object]]) -> list[str]:
    """Each row as one CSV line, without its terminator. csv quotes a field
    only for the characters of its line terminator, so rows are formatted
    with CRLF, which gets a lone CR inside a field quoted, and the CRLF is
    then cut off."""
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append),
               lineterminator="\r\n").writerows(rows)
    return [line[:-2] for line in lines]


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _field_names(cls: type) -> list[str]:
    return [field.name for field in fields(cls)]


def write_record_blocks(
    blocks: Iterable[Observations],
    f: TextIO,
    meta: Mapping[str, str],
) -> None:
    """The long format of the tables that `blocks` yields, end to end: one
    header, then each table's rows, written as soon as it arrives.

    Rows are written as _write_table writes them, but each distinct label
    is quoted once: a table's sample_id labels with that table, and its
    species_id labels only when they differ from those of the table before
    it, as the blocks of one sampling hold equal lists."""
    _write_table(f, meta, LONG_COLUMNS, ())
    species_labels: list[str] | None = None
    for obs in blocks:
        labels = obs.column("species_id").labels
        if labels != species_labels:
            species_labels, species_fields = labels, _leading_fields(labels)
        _write_rows(f, obs, _leading_fields(obs.column("sample_id").labels),
                    species_fields)


def _write_rows(
    f: TextIO,
    obs: Observations,
    sample_fields: np.ndarray,
    species_fields: np.ndarray,
) -> None:
    """The table's data lines, _CHUNK_ROWS at a time, from its labels'
    leading fields: each chunk is a rows x 3 object table of texts, joined
    once. A chunk's count texts are made once per distinct count and
    gathered by searchsorted."""
    sample, species = obs.column("sample_id"), obs.column("species_id")
    for start in range(0, len(obs), _CHUNK_ROWS):
        part = slice(start, start + _CHUNK_ROWS)
        counts = obs.counts[part]
        distinct = _distinct(np.sort(counts))
        texts = np.array([f"{count}\n" for count in distinct.tolist()],
                         dtype=object)
        table = np.empty((len(counts), 3), dtype=object)
        table[:, 0] = sample_fields[sample.codes[part]]
        table[:, 1] = species_fields[species.codes[part]]
        table[:, 2] = texts[distinct.searchsorted(counts)]
        f.write("".join(table.ravel().tolist()))


def _leading_fields(labels: Sequence[str]) -> np.ndarray:
    """Each label as _write_table writes it before a further field: quoted
    by the csv rule, then its comma. A label alone in its row is written
    differently (an empty one as '""'), so each is formatted with an empty
    field after it."""
    return np.array(_csv_lines((label, "") for label in labels), dtype=object)


def write_spectrum_csv(
    freqs: Mapping[int, int], f: TextIO, meta: Mapping[str, str]
) -> None:
    _write_table(f, meta, ("r", "f_r"), sorted(freqs.items()))


def write_report_csv(
    rows: Sequence[GroupReportRow], f: TextIO, meta: Mapping[str, str]
) -> None:
    """A GroupReportRow's fields, floats to 3 places, then `fallback` as 0
    or 1."""
    _write_table(
        f, meta, [*_field_names(GroupReportRow), "fallback"],
        ([_fmt(value) if isinstance(value, float) else value
          for value in astuple(row)] + [int(row.used_fallback)]
         for row in rows),
    )


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
    import json

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
    from .resampling import AccumulationPoint

    _write_table(f, meta, _field_names(AccumulationPoint), map(astuple, points))


def write_bootstrap_csv(
    results: Mapping[str, BootstrapResult], f: TextIO, meta: Mapping[str, str]
) -> None:
    from .resampling import BootstrapResult

    _write_table(
        f, meta, ["metric", *_field_names(BootstrapResult)],
        ((metric, *astuple(r)) for metric, r in sorted(results.items())),
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
    band = fit.band  # a fitted band carries its grid
    if band is None:
        grid = _unique(xs)
        band = [(x, None, None) for x in grid.tolist()]
    fitted = fit.predict([x for x, _, _ in band]).tolist()
    _write_table(
        f, meta, ("x", "fit", "lower", "upper"),
        ((x, y, lower, upper) for (x, lower, upper), y in zip(band, fitted)),
    )
