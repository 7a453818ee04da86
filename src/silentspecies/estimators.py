"""Chao-type richness estimators, coverage, and diversity proxies.

The estimator needs only three numbers from a frequency spectrum: S_obs (the
number of distinct species seen), f1 (singletons) and f2 (doubletons). The
classic form estimates the unseen species count as f1^2 / (2*f2); when f2 = 0
the bias-corrected continuity completion f1*(f1-1)/2 is used instead and the
result is labelled "-bc" so the substitution stays auditable. The estimate is
a lower bound on the true richness, which makes the derived coverage
S_obs / S_hat an upper bound on the fraction of species already observed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, InsufficientSamples
from .tally import ABUNDANCE, INCIDENCE, Tally

_NAMES = {ABUNDANCE: "chao1", INCIDENCE: "chao2"}


@dataclass(frozen=True)
class RichnessEstimate:
    """Observed and estimated species richness, with coverage."""

    s_obs: int
    f1: int
    f2: int
    f0_hat: float
    s_hat: float
    coverage: float
    estimator_name: str

    @property
    def used_fallback(self) -> bool:
        return self.estimator_name.endswith("-bc")


def coverage_of(s_obs: float, s_hat: float) -> float:
    """Observed over estimated richness; an upper bound on true coverage
    because the unseen-species estimate is a lower bound."""
    if s_hat <= 0:
        raise ValueError("s_hat must be positive")
    return s_obs / s_hat


def estimate(
    s_obs: int,
    f1: int,
    f2: int,
    mode: str,
    m: int = 0,
    correction: bool = False,
) -> RichnessEstimate:
    """Chao1 (abundance) or Chao2 (incidence) estimate from S_obs, f1, f2.

    With `correction` in incidence mode the unseen-species estimate is
    scaled by (m-1)/m, the standard small-sample factor for m samples.
    Abundance mode ignores `correction` and `m`.
    """
    if f1 == 0:
        f0_hat, fallback = 0.0, False
    elif f2 > 0:
        f0_hat, fallback = f1 * f1 / (2.0 * f2), False
    else:
        f0_hat, fallback = f1 * (f1 - 1) / 2.0, True
    if correction and mode == INCIDENCE:
        if m < 2:
            raise InsufficientSamples(
                f"small-sample correction needs m >= 2, got m={m}"
            )
        f0_hat = f0_hat * (m - 1) / m
    s_hat = s_obs + f0_hat
    return RichnessEstimate(
        s_obs=s_obs,
        f1=f1,
        f2=f2,
        f0_hat=f0_hat,
        s_hat=s_hat,
        coverage=coverage_of(s_obs, s_hat),
        estimator_name=_NAMES[mode] + ("-bc" if fallback else ""),
    )


def _s_obs_f1_f2(counts: np.ndarray) -> tuple[int, int, int]:
    """S_obs, f1 and f2 of a non-negative per-species count vector; a zero
    count is a species not seen."""
    return (int(np.count_nonzero(counts)), int(np.count_nonzero(counts == 1)),
            int(np.count_nonzero(counts == 2)))


def estimate_tally(
    tally: Tally, small_sample_correction: bool = False
) -> RichnessEstimate:
    """Chao1 or Chao2 estimate of a tally, as its mode says; the (m-1)/m
    factor applies only in incidence mode. A tally without a positive count
    raises EmptyDataset."""
    s_obs, f1, f2 = _s_obs_f1_f2(np.fromiter(tally.counts.values(), np.int64))
    if not s_obs:
        raise EmptyDataset("empty tally")
    return estimate(s_obs, f1, f2, tally.mode, tally.total,
                    small_sample_correction)


def diversity_proxies(tally: Tally) -> float:
    """TTR (types/tokens) for abundance data, STR (samples/types) for
    incidence data."""
    if tally.mode == ABUNDANCE:
        return tally.types / tally.total
    return tally.total / tally.types
