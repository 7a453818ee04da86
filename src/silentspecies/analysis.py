"""Grouped estimation tables: one richness estimate per group plus a pooled
total, and per-group diversity/coverage correlation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .choices import SORT_COLUMNS, X_COLUMNS, Y_COLUMNS, GroupReportRow, known
from .errors import EmptyDataset
from .estimators import diversity_proxies, estimate_tally
from .tally import GroupedDataset, Tally

if TYPE_CHECKING:
    from .stats import RegressionResult

TOTAL_KEY = "Total"


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
    """One row per group plus a Total row, estimated on the pooled tally of
    all the grouped records (as `estimate` without --group-by tallies them),
    not by summing per-group estimates. The Total row is always last; group
    rows are sorted by `sort_by`, one of SORT_COLUMNS, with group-key
    tiebreak."""
    known(sort_by, SORT_COLUMNS, "sort column")
    if not dataset.groups:
        raise EmptyDataset("grouped dataset has no groups")
    rows = [
        summarize(key, tally, small_sample_correction)
        for key, tally in sorted(dataset.groups.items())
    ]
    rows.sort(key=lambda row: (getattr(row, sort_by), row.group_key),
              reverse=not ascending)
    rows.append(summarize(TOTAL_KEY, dataset.pooled, small_sample_correction))
    return rows


def group_xy(
    dataset: GroupedDataset,
    x: str = "ttr",
    y: str = "coverage",
    small_sample_correction: bool = False,
) -> tuple[list[float], list[float]]:
    """Per-group (x, y) value pairs in group-key order. x is "ttr", "str",
    or "one-minus-ttr"; y is "coverage" or "s_hat"."""
    known(x, X_COLUMNS, "x column")
    known(y, Y_COLUMNS, "y column")
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
