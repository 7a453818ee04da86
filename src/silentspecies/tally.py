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

import math
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import EmptyDataset, SchemaError

ABUNDANCE = "abundance"
INCIDENCE = "incidence"
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


def _shown_count(count: int) -> str:
    """`count` for an error message as io shows a count's text: whole up to
    _SHOWN characters, else its first _SHOWN characters and its length.
    str() refuses an int of over 4,300 digits, so only those are formatted."""
    sign = "-" if count < 0 else ""
    n = abs(count)
    digits = int(n.bit_length() * math.log10(2)) + 2  # n's digits, or 1-2 more
    while digits > 1 and n < 10 ** (digits - 1):
        digits -= 1
    if len(sign) + digits <= _SHOWN:
        return str(count)
    head = n // 10 ** (digits - _SHOWN + len(sign))
    return f"{sign}{head}... ({len(sign) + digits} characters)"


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
        SchemaError naming its row."""
        try:
            count_array = np.asarray(counts, dtype=np.int64)
        except OverflowError:
            i = next(i for i, c in enumerate(counts)
                     if not -_INT64_MAX - 1 <= c <= _INT64_MAX)
            raise SchemaError(f"row {rows[i]}: count "
                              f"{_shown_count(counts[i])} outside the int64 "
                              "range") from None
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

    def select(self, index: np.ndarray) -> Observations:
        """The records at `index`, sharing this table's labels."""
        return Observations(
            {name: col._replace(codes=col.codes[index])
             for name, col in self.columns.items()},
            self.counts[index],
            self.rows[index],
        )


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


def _check(obs: Observations, mode: str) -> None:
    """Raise SchemaError naming the row of the first record that cannot be
    tallied in `mode`."""
    species = obs.column("species_id")
    bad = (obs.counts < 0) | species.blank()
    if mode == INCIDENCE:
        bad |= obs.column("sample_id").blank()
    if not bad.any():
        return
    i = int(bad.argmax())
    row = obs.rows[i]
    if obs.counts[i] < 0:
        raise SchemaError(f"row {row}: negative count {int(obs.counts[i])}")
    if species.codes[i] == species.empty:
        raise SchemaError(f"row {row}: empty species_id")
    raise SchemaError(f"row {row}: missing sample_id in incidence mode")


def _tally(
    records: Observations | Iterable[ObservationRecord], mode: str
) -> Tally:
    """The one tally reduction behind tally_abundance and tally_incidence."""
    obs = _observations(records)
    _check(obs, mode)
    present = obs.counts > 0
    column = obs.column("species_id")
    if mode == ABUNDANCE:
        total = sum(obs.counts.tolist())
        if total > _INT64_MAX:
            raise SchemaError(f"total count {total} exceeds the int64 range")
        species, index = np.unique(column.codes[present], return_inverse=True)
        counts = np.zeros(len(species), dtype=np.int64)
        np.add.at(counts, index, obs.counts[present])
    else:
        n_species = max(len(column.labels), 1)  # 1 for an empty table
        pairs = np.unique(obs.column("sample_id").codes[present] * n_species
                          + column.codes[present])
        species, counts = np.unique(pairs % n_species, return_counts=True)
        total = len(np.unique(pairs // n_species))
    if not len(species):
        raise EmptyDataset("no records with positive counts")
    return Tally(dict(zip([column.labels[i] for i in species.tolist()],
                          counts.tolist())), total, mode)


def tally_abundance(
    records: Observations | Iterable[ObservationRecord],
) -> Tally:
    """Sum occurrence counts per species. Zero-count records are dropped;
    an input that is empty after dropping them raises EmptyDataset."""
    return _tally(records, ABUNDANCE)


def tally_incidence(
    records: Observations | Iterable[ObservationRecord],
) -> Tally:
    """Count, per species, the number of distinct samples containing it.

    Duplicate (sample, species) observations collapse to a single incidence:
    a species used many times within one sample is still a single presence.
    """
    return _tally(records, INCIDENCE)


def tally_records(
    records: Observations | Iterable[ObservationRecord], mode: str
) -> Tally:
    """Abundance or incidence tally of `records`, as `mode` says."""
    if mode == ABUNDANCE:
        return tally_abundance(records)
    if mode == INCIDENCE:
        return tally_incidence(records)
    raise ValueError(f"unknown mode {mode!r}")


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
    are dropped.
    """
    obs = _observations(records)
    if group_field not in obs.columns and len(obs):  # no records, no groups
        raise SchemaError(f"the input has no group column {group_field!r}")
    column = obs.column(group_field)
    missing = column.blank()
    if missing.any():
        raise SchemaError(f"row {obs.rows[missing.argmax()]}: missing group "
                          f"attribute {group_field!r}")
    _check(obs, mode)
    # Group c's records are order[bounds[c]:bounds[c + 1]], in input order.
    order = np.argsort(column.codes, kind="stable")
    bounds = np.searchsorted(column.codes[order],
                             np.arange(len(column.labels) + 1)).tolist()
    groups: dict[str, Tally] = {}
    for code, key in enumerate(column.labels):
        part = order[bounds[code]:bounds[code + 1]]
        if (obs.counts[part] > 0).any():  # else only zero-count placeholders
            groups[key] = tally_records(obs.select(part), mode)
    if not groups:
        raise EmptyDataset("all groups empty after dropping zero counts")
    return GroupedDataset(groups)
