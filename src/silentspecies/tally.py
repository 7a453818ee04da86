"""Tallying of raw observation records into abundance/incidence counts and
frequency spectra.

An observation record says "species X appeared in sample Y, `count` times".
Abundance mode sums those counts per species; incidence mode only registers
presence/absence of a species per distinct sample. The frequency spectrum
(how many species were seen exactly r times / in exactly r samples) is the
sole input the richness estimators need.

Records are tallied as columns: `Observations` interns every input column
(sample, species and group ids alike) to int64 codes, and the tallies are
numpy reductions over those codes. Record lists are converted to that table
once.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .choices import ABUNDANCE, INCIDENCE, MODES, known
from .errors import EmptyDataset, SchemaError

_INT64_MAX = int(np.iinfo(np.int64).max)
_SHOWN = 40  # characters of a bad count quoted in its error


@dataclass(frozen=True)
class ObservationRecord:
    """One raw observation: a species seen in a sample, `count` times.

    `attrs` carries any extra columns from the input (genre, composer,
    institution, ...) used for grouping.
    """

    sample_id: str
    species_id: str
    count: int = 1
    attrs: Mapping[str, str] = field(default_factory=dict)


class Column(NamedTuple):
    """An interned column: record i holds `labels[codes[i]]`. Labels are
    stripped and unique, so at most one, coded `empty`, is empty."""

    labels: list[str]
    codes: np.ndarray  # int64, one per record
    empty: int  # the empty label's code, -1 when there is none

    @classmethod
    def of(cls, ids: Mapping[str, int], codes: Sequence[int]) -> Column:
        """Column from an interning map (label -> code, in code order) and
        the per-record codes."""
        return cls(list(ids), np.asarray(codes, dtype=np.int64),
                   ids.get("", -1))

    def blank(self) -> np.ndarray:
        """Per record: is its value empty?"""
        return self.codes == self.empty


def _shown(text: str, form: Callable[[str], str] = str) -> str:
    """`text` for an error message, cut to _SHOWN characters and then
    followed by its length."""
    shown = form(text[:_SHOWN])
    if len(text) <= _SHOWN:
        return shown
    return f"{shown}... ({len(text)} characters)"


@dataclass(frozen=True, eq=False)
class Observations:
    """Observation records as columns: one interned Column (stripped labels)
    per input column except `count` (sample_id, species_id and every extra
    column alike), an int64 count and the row of each record.

    `read_records` numbers rows by the file line on which a record starts;
    `from_records` numbers them by position from 1. Iterating yields
    ObservationRecords.
    """

    columns: Mapping[str, Column]
    counts: np.ndarray  # int64
    rows: np.ndarray  # int64

    @classmethod
    def of(
        cls,
        columns: Mapping[str, Column],
        counts: Sequence[int],
        rows: Sequence[int],
    ) -> Observations:
        """Table of Python-int counts and rows; a count outside int64 raises
        SchemaError naming its row. Rows in an int64 buffer, such as an
        array("q"), are held without a copy."""
        try:
            count_array = np.asarray(counts, dtype=np.int64)
        except OverflowError:
            i = next(i for i, c in enumerate(counts)
                     if not -_INT64_MAX - 1 <= c <= _INT64_MAX)
            # str() refuses an int of over 4,300 digits; Decimal's does not.
            from decimal import Decimal
            raise SchemaError(f"row {rows[i]}: count "
                              f"{_shown(str(Decimal(int(counts[i]))))} outside "
                              "the int64 range") from None
        return cls(columns, count_array, np.asarray(rows, dtype=np.int64))

    @classmethod
    def from_records(cls, records: Iterable[ObservationRecord]) -> Observations:
        """Intern a record list. Ids and attribute values are stripped; a
        record without an attribute holds an empty value. Where `attrs` has
        a key `sample_id` or `species_id`, the record's own field wins."""
        records = list(records)
        names = dict.fromkeys(name for rec in records for name in rec.attrs)

        def intern(values: Iterable[str]) -> Column:
            ids: dict[str, int] = {}
            return Column.of(ids, [ids.setdefault(v.strip(), len(ids))
                                   for v in values])

        columns = {name: intern(rec.attrs.get(name, "") for rec in records)
                   for name in names}
        columns["sample_id"] = intern(rec.sample_id for rec in records)
        columns["species_id"] = intern(rec.species_id for rec in records)
        return cls.of(columns, [rec.count for rec in records],
                      range(1, len(records) + 1))

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self) -> Iterator[ObservationRecord]:
        columns = [(name, col.labels, col.codes.tolist())
                   for name, col in self.columns.items()]
        for i, count in enumerate(self.counts.tolist()):
            attrs = {name: labels[codes[i]] for name, labels, codes in columns}
            yield ObservationRecord(attrs.pop("sample_id", ""),
                                    attrs.pop("species_id"), count, attrs)

    def column(self, name: str) -> Column:
        """The named column; for a name the table lacks, a column whose
        every value is empty."""
        if name in self.columns:
            return self.columns[name]
        return Column([""], np.zeros(len(self), dtype=np.int64), 0)


@dataclass(frozen=True)
class Tally:
    """Per-species counts and their total.

    In abundance mode a count is the species' number of tokens and `total`
    is the token count n. In incidence mode a count is the number of
    distinct samples containing the species and `total` is the number of
    distinct samples m.
    """

    counts: Mapping[str, int]
    total: int
    mode: str  # ABUNDANCE or INCIDENCE

    @property
    def types(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class GroupedDataset:
    """One tally per value of a grouping attribute (genre, composer, ...)."""

    groups: Mapping[str, Tally]


def _observations(
    records: Observations | Iterable[ObservationRecord],
) -> Observations:
    if isinstance(records, Observations):
        return records
    return Observations.from_records(records)


def _check(obs: Observations, mode: str, group: str | None = None) -> None:
    """Raise SchemaError naming the row of the first record that cannot be
    tallied in `mode` or, given a `group` column, has no value in it; a
    record that breaks several of these rules is named by the first."""
    rules = {"negative count": obs.counts < 0,
             "empty species_id": obs.column("species_id").blank()}
    if mode == INCIDENCE:
        rules["missing sample_id in incidence mode"] = (
            obs.column("sample_id").blank())
    if group is not None:
        rules[f"missing group attribute {group!r}"] = obs.column(group).blank()
    bad = np.logical_or.reduce(list(rules.values()))
    if not bad.any():
        return
    i = int(bad.argmax())
    message = next(text for text, broken in rules.items() if broken[i])
    if obs.counts[i] < 0:
        message += f" {int(obs.counts[i])}"
    raise SchemaError(f"row {obs.rows[i]}: {message}")


def _distinct(ordered: np.ndarray) -> np.ndarray:
    """The distinct entries of an ascending array: each entry that differs
    from the one before it."""
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


# np.unique and np.quantile import numpy.ma (on numpy >= 2.3 np.unique calls
# np.ma.is_masked, and np.quantile calls np.unique), which costs a command
# over 1 MB of memory. The two helpers below give their results bit for bit
# without it, over float arrays.


def _unique(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """np.unique of a 1-D float sequence: each entry of the sorted values
    that differs from the one before it, and one NaN. Like np.unique it
    sorts with numpy's default sort, so of equal -0.0 and +0.0, and of
    several NaNs, it keeps the one that sort puts first."""
    found = _distinct(np.sort(np.asarray(values, dtype=float)))
    return found[:np.count_nonzero(~np.isnan(found)) + 1]  # NaNs sort last


def _quantile(values: np.ndarray, q: float | Sequence[float]) -> np.ndarray:
    """np.quantile(values, q, axis=0) of floats, for q in [0, 1] and
    either a sequence q or 2-D values, so that the result is an array: the
    linear (Hyndman-Fan type 7) method, step for step as numpy takes it.
    A copy is partitioned at numpy's own kth, so that ties of -0.0 and +0.0
    land where numpy's land; the neighbours are interpolated as numpy's
    _lerp does; and the result is NaN, the last entry after the partition,
    wherever a column holds a NaN."""
    arr = np.array(values, dtype=float)
    n = len(arr)
    virtual = (n - 1) * np.asarray(q, dtype=float)
    last = virtual >= n - 1  # both neighbours are the last entry
    below = np.where(last, -1, np.floor(virtual)).astype(np.intp)
    above = np.where(last, -1, below + 1)
    arr.partition(sorted({0, -1, *below.ravel().tolist(),
                          *above.ravel().tolist()}), axis=0)
    gamma = virtual - below
    lower, upper = arr[below], arr[above]
    step = upper - lower
    result = lower + step * gamma
    np.subtract(upper, step * (1 - gamma), out=result, where=gamma >= 0.5)
    np.copyto(result, arr[-1], where=np.isnan(arr[-1]))
    return result


def _tally(obs: Observations, part: slice | np.ndarray, mode: str) -> Tally:
    """The one tally reduction: the records at index `part` of a table that
    _check passed in `mode`."""
    given = obs.counts[part]
    present = given > 0
    column = obs.column("species_id")
    codes = column.codes[part][present]
    if mode == ABUNDANCE:
        total = sum(given.tolist())
        if total > _INT64_MAX:
            raise SchemaError(f"total count {total} exceeds the int64 range")
        species, index = np.unique(codes, return_inverse=True)
        counts = np.zeros(len(species), dtype=np.int64)
        np.add.at(counts, index, given[present])
    else:
        n_species = max(len(column.labels), 1)  # 1 for an empty table
        # Sorted, not plain np.unique: on numpy >= 2.3 that hashes, which on
        # these int64 keys is about 20 times slower than a sort, and it
        # imports numpy.ma. With return_counts, np.unique sorts.
        pairs = _distinct(np.sort(obs.column("sample_id").codes[part][present]
                                  * n_species + codes))
        species, counts = np.unique(pairs % n_species, return_counts=True)
        total = len(_distinct(pairs // n_species))
    if not len(species):
        raise EmptyDataset("no records with positive counts")
    return Tally(dict(zip([column.labels[i] for i in species.tolist()],
                          counts.tolist())), total, mode)


def tally_abundance(
    records: Observations | Iterable[ObservationRecord],
) -> Tally:
    """Sum occurrence counts per species. Zero-count records are dropped;
    an input that is empty after dropping them raises EmptyDataset."""
    obs = _observations(records)
    _check(obs, ABUNDANCE)
    return _tally(obs, slice(None), ABUNDANCE)


def tally_incidence(
    records: Observations | Iterable[ObservationRecord],
) -> Tally:
    """Count, per species, the number of distinct samples containing it.

    Duplicate (sample, species) observations collapse to a single incidence:
    a species used many times within one sample is still a single presence.
    """
    obs = _observations(records)
    _check(obs, INCIDENCE)
    return _tally(obs, slice(None), INCIDENCE)


def tally_records(
    records: Observations | Iterable[ObservationRecord], mode: str
) -> Tally:
    """Abundance or incidence tally of `records`, as `mode` says."""
    if known(mode, MODES, "mode") == ABUNDANCE:
        return tally_abundance(records)
    return tally_incidence(records)


def spectrum(tally: Tally) -> dict[int, int]:
    """The f_r spectrum {r: f_r} of a tally's positive counts: the number of
    species seen exactly r times (abundance) or in exactly r samples
    (incidence). A tally without a positive count raises EmptyDataset."""
    freqs = Counter(c for c in tally.counts.values() if c > 0)
    if not freqs:
        raise EmptyDataset("empty tally")
    return dict(freqs)


def group_by(
    records: Observations | Iterable[ObservationRecord],
    group_field: str,
    mode: str,
) -> GroupedDataset:
    """Partition records by the values of one column (any input column but
    `count`, sample_id and species_id included) and tally each partition.

    A column the table lacks raises SchemaError. Every record must carry a
    value; a missing value raises SchemaError naming the row, as does any
    record the mode cannot tally. Groups whose records are all zero-count
    are dropped. The table is checked once, and each group is tallied by
    the same reduction as the whole table, over its records' index.
    """
    known(mode, MODES, "mode")
    obs = _observations(records)
    if group_field not in obs.columns and len(obs):  # no records, no groups
        raise SchemaError(f"the input has no group column {group_field!r}")
    _check(obs, mode, group_field)
    column = obs.column(group_field)
    # Group c's records are order[bounds[c]:bounds[c + 1]], in input order.
    order = np.argsort(column.codes, kind="stable")
    bounds = np.searchsorted(column.codes[order],
                             np.arange(len(column.labels) + 1)).tolist()
    groups: dict[str, Tally] = {}
    for code, key in enumerate(column.labels):
        part = order[bounds[code]:bounds[code + 1]]
        if (obs.counts[part] > 0).any():  # else only zero-count placeholders
            groups[key] = _tally(obs, part, mode)
    if not groups:
        raise EmptyDataset("all groups empty after dropping zero counts")
    return GroupedDataset(groups)
