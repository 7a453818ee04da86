"""Grouped estimation tables: one richness estimate per group plus a pooled
total, and per-group diversity/coverage correlation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .choices import X_COLUMNS, Y_COLUMNS, GroupReportRow
from .errors import EmptyDataset
from .estimators import diversity_proxies, estimate_tally
from .tally import GroupedDataset, Tally

if TYPE_CHECKING:
    from .stats import RegressionResult

TOTAL_KEY = "Total"


def merge_tallies(tallies: Sequence[Tally]) -> Tally:
    """Pool tallies of one mode: counts are summed per species and totals
    are summed (in incidence mode, sampling sites are disjoint across
    groups)."""
    if not tallies:
        raise EmptyDataset("nothing to merge")
    counts: dict[str, int] = {}
    for t in tallies:
        for species, c in t.counts.items():
            counts[species] = counts.get(species, 0) + c
    return Tally(counts, sum(t.total for t in tallies), tallies[0].mode)


def summarize(
    key: str, tally: Tally, small_sample_correction: bool = False
) -> GroupReportRow:
    """Single report row for one tally."""
    est = estimate_tally(tally, small_sample_correction)
    return GroupReportRow(
        group_key=key,
        types=tally.types,
        tokens_or_samples=tally.total,
        ttr_or_str=diversity_proxies(tally),
        f1=est.f1,
        f2=est.f2,
        coverage=est.coverage,
        s_hat=est.s_hat,
        estimator_name=est.estimator_name,
    )


def report(
    dataset: GroupedDataset,
    sort_by: str = "coverage",
    ascending: bool = False,
    small_sample_correction: bool = False,
) -> list[GroupReportRow]:
    """One row per group plus a pooled Total row (estimated on the merged
    tally, not by summing per-group estimates). The Total row is always
    last; group rows are sorted by `sort_by` with group-key tiebreak."""
    if not dataset.groups:
        raise EmptyDataset("grouped dataset has no groups")
    rows = [
        summarize(key, tally, small_sample_correction)
        for key, tally in sorted(dataset.groups.items())
    ]
    rows.sort(key=lambda row: (getattr(row, sort_by), row.group_key),
              reverse=not ascending)
    pooled = merge_tallies([dataset.groups[k] for k in sorted(dataset.groups)])
    rows.append(summarize(TOTAL_KEY, pooled, small_sample_correction))
    return rows


def group_xy(
    dataset: GroupedDataset,
    x: str = "ttr",
    y: str = "coverage",
    small_sample_correction: bool = False,
) -> tuple[list[float], list[float]]:
    """Per-group (x, y) value pairs in group-key order. x is "ttr", "str",
    or "one-minus-ttr"; y is "coverage" or "s_hat"."""
    if x not in X_COLUMNS:
        raise ValueError(f"unknown x column {x!r}")
    if y not in Y_COLUMNS:
        raise ValueError(f"unknown y column {y!r}")
    rows = [summarize(key, dataset.groups[key], small_sample_correction)
            for key in sorted(dataset.groups)]
    xs = [row.ttr_or_str for row in rows]
    if x == "one-minus-ttr":
        xs = [1.0 - proxy for proxy in xs]
    return xs, [getattr(row, y) for row in rows]


def per_group_correlation(
    dataset: GroupedDataset,
    x: str = "ttr",
    y: str = "coverage",
    small_sample_correction: bool = False,
) -> RegressionResult:
    """Pearson correlation of a per-group diversity proxy against per-group
    coverage (or richness)."""
    from .stats import pearson

    xs, ys = group_xy(dataset, x, y, small_sample_correction)
    return pearson(xs, ys)
