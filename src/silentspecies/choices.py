"""The values the CLI offers as choices: the tally modes, synth's
distributions, correlate's x and y columns and the report row, whose fields
are the `--sort-by` columns.

They live in this module, which imports no numpy, so that the parser is
built without loading the layers. `tally`, `synth` and `analysis`
re-export them under the same names.
"""

from __future__ import annotations

from dataclasses import dataclass

ABUNDANCE = "abundance"
INCIDENCE = "incidence"

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
