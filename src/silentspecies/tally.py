"""Tallying of raw observation records into abundance/incidence counts and
frequency spectra.

An observation record says "species X appeared in sample Y, `count` times".
Abundance mode sums those counts per species; incidence mode only registers
presence/absence of a species per distinct sample. The frequency spectrum
(how many species were seen exactly r times / in exactly r samples) is the
sole input the richness estimators need.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .errors import EmptyDataset, SchemaError

ABUNDANCE = "abundance"
INCIDENCE = "incidence"


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
class FrequencySpectrum:
    """Sparse map r -> f_r: the number of species seen exactly r times
    (abundance) or in exactly r samples (incidence)."""

    freqs: Mapping[int, int]
    mode: str  # ABUNDANCE or INCIDENCE
    n_or_m: int  # total tokens (abundance) or total samples (incidence)

    @property
    def s_obs(self) -> int:
        return sum(self.freqs.values())

    def f(self, r: int) -> int:
        return self.freqs.get(r, 0)

    @property
    def f1(self) -> int:
        return self.f(1)

    @property
    def f2(self) -> int:
        return self.f(2)


@dataclass(frozen=True)
class GroupedDataset:
    """One tally per value of a grouping attribute (genre, composer, ...)."""

    groups: Mapping[str, Tally]
    group_field: str
    mode: str


def _clean_species(record: ObservationRecord, row: int | None = None) -> str:
    where = f"row {row}: " if row is not None else ""
    if record.count < 0:
        raise SchemaError(f"{where}negative count {record.count!r}")
    species = record.species_id.strip()
    if not species:
        raise SchemaError(f"{where}empty species_id")
    return species


def tally_abundance(records: Iterable[ObservationRecord]) -> Tally:
    """Sum occurrence counts per species. Zero-count records are dropped;
    an input that is empty after dropping them raises EmptyDataset."""
    counts: Counter[str] = Counter()
    for i, rec in enumerate(records, start=1):
        species = _clean_species(rec, i)
        if rec.count == 0:
            continue
        counts[species] += rec.count
    if not counts:
        raise EmptyDataset("no records with positive counts")
    return Tally(dict(counts), sum(counts.values()), ABUNDANCE)


def tally_incidence(records: Iterable[ObservationRecord]) -> Tally:
    """Count, per species, the number of distinct samples containing it.

    Duplicate (sample, species) observations collapse to a single incidence:
    a species used many times within one sample is still a single presence.
    """
    seen: set[tuple[str, str]] = set()
    samples: set[str] = set()
    for i, rec in enumerate(records, start=1):
        species = _clean_species(rec, i)
        sample = rec.sample_id.strip()
        if not sample:
            raise SchemaError(f"row {i}: missing sample_id in incidence mode")
        if rec.count == 0:
            continue
        seen.add((sample, species))
        samples.add(sample)
    if not seen:
        raise EmptyDataset("no records with positive counts")
    incidences: Counter[str] = Counter(species for _, species in seen)
    return Tally(dict(incidences), len(samples), INCIDENCE)


def tally_records(records: Iterable[ObservationRecord], mode: str) -> Tally:
    """Abundance or incidence tally of `records`, as `mode` says."""
    if mode == ABUNDANCE:
        return tally_abundance(records)
    if mode == INCIDENCE:
        return tally_incidence(records)
    raise ValueError(f"unknown mode {mode!r}")


def spectrum(tally: Tally) -> FrequencySpectrum:
    """Histogram the per-species counts into the f_r spectrum."""
    if not tally.counts:
        raise EmptyDataset("empty tally")
    return FrequencySpectrum(dict(Counter(tally.counts.values())), tally.mode,
                             tally.total)


def group_by(
    records: Sequence[ObservationRecord], group_field: str, mode: str
) -> GroupedDataset:
    """Partition records by a grouping attribute and tally each partition.

    Every record must carry the attribute; a missing value raises SchemaError
    naming the row. Groups whose records are all zero-count are dropped.
    """
    partitions: dict[str, list[ObservationRecord]] = {}
    for i, rec in enumerate(records, start=1):
        value = rec.attrs.get(group_field, "").strip()
        if not value:
            raise SchemaError(f"row {i}: missing group attribute {group_field!r}")
        partitions.setdefault(value, []).append(rec)
    groups: dict[str, Tally] = {}
    for key, part in partitions.items():
        try:
            groups[key] = tally_records(part, mode)
        except EmptyDataset:
            continue  # group contained only zero-count placeholder rows
        except SchemaError:
            # A group numbers its records from 1; the whole input names
            # the fault by its position in `records`.
            tally_records(records, mode)
            raise
    if not groups:
        raise EmptyDataset("all groups empty after dropping zero counts")
    return GroupedDataset(groups, group_field, mode)
