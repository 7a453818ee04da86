"""The values the CLI offers as choices: the tally modes, synth's
distributions, correlate's x and y columns and the report row, whose fields
are the `--sort-by` columns.

They live in this module, which imports no numpy, so that the parser is
built without loading the layers, and the package resolves them from here.
The library entries that take one of these names check it with `known`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields

ABUNDANCE = "abundance"
INCIDENCE = "incidence"

MODES = (ABUNDANCE, INCIDENCE)

UNIFORM = "uniform"
ZIPF = "zipf"
LOGNORMAL = "lognormal"

DISTRIBUTIONS = (UNIFORM, ZIPF, LOGNORMAL)

X_COLUMNS = ("ttr", "str", "one-minus-ttr")
Y_COLUMNS = ("coverage", "s_hat")


@dataclass(frozen=True)
class GroupReportRow:
    """One table row: a group's diversity proxies and richness estimate."""

    group_key: str
    types: int
    tokens_or_samples: int
    ttr_or_str: float
    f1: int
    f2: int
    coverage: float
    s_hat: float
    estimator_name: str

    @property
    def used_fallback(self) -> bool:
        return self.estimator_name.endswith("-bc")


SORT_COLUMNS = tuple(f.name for f in fields(GroupReportRow))


def known(value: str, values: Sequence[str], what: str) -> str:
    """`value` if it is one of `values`; else a ValueError naming it."""
    if value not in values:
        raise ValueError(f"unknown {what} {value!r}")
    return value
