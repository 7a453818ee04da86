"""Subsample accumulation curves and percentile-bootstrap confidence
intervals for richness estimates.

All randomness flows from a single 64-bit seed; each replicate derives its
own stream via SeedSequence spawn keys, so results are bit-identical
regardless of how many worker threads execute the replicates. Replicate
results are always reduced in replicate-index order.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidSize, SubsampleTooLarge
from .estimators import _s_obs_f1_f2, estimate, estimate_tally
from .tally import ABUNDANCE, INCIDENCE, Tally

THREADS_ENV = "SILENTSPECIES_THREADS"

LOW_REPLICATE_THRESHOLD = 100


@dataclass(frozen=True)
class AccumulationPoint:
    """Average richness estimates over subsamples of k tokens."""

    k: int
    replicates: int
    mean_s_obs: float
    mean_s_hat: float
    sd_s_hat: float


@dataclass(frozen=True)
class BootstrapResult:
    """Percentile bootstrap interval around a plug-in estimate."""

    point: float
    lower: float
    upper: float
    level: float
    replicates: int
    seed: int


def resolve_workers(threads: int | None = None) -> int:
    """Worker count: explicit argument, else SILENTSPECIES_THREADS
    (0 = auto), else all CPUs; never more than the CPU count."""
    if threads is None:
        value = os.environ.get(THREADS_ENV, "0") or "0"
        if not value.strip().isdecimal():
            raise ValueError(
                f"{THREADS_ENV} must be a non-negative integer, got {value!r}"
            )
        threads = int(value)
    elif threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    cpus = os.cpu_count() or 1
    return min(threads, cpus) if threads else cpus


def _counts(tally: Tally) -> np.ndarray:
    """The tally's counts as an int64 vector in species-label order."""
    return np.array([tally.counts[s] for s in sorted(tally.counts)], np.int64)


def _replicates(draw: Callable[[np.random.Generator], np.ndarray],
                key: tuple[int, ...], seed: int, replicates: int,
                workers: int, mode: str = ABUNDANCE, m: int = 0,
                correction: bool = False) -> np.ndarray:
    """replicates x (s_obs, s_hat, coverage) of the drawn count vectors, in
    replicate order. Replicate i draws on SeedSequence(seed, spawn_key=
    (*key, i)), so no result depends on `workers`. A draw that sees no
    species (only tiny incidence resamples can) has s_hat 0, coverage 1."""

    def one(i: int) -> tuple[float, float, float]:
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(*key, i)))
        s_obs, f1, f2 = _s_obs_f1_f2(draw(rng))
        if not s_obs:
            return 0.0, 0.0, 1.0
        est = estimate(s_obs, f1, f2, mode, m, correction)
        return s_obs, est.s_hat, est.coverage

    if workers <= 1 or replicates == 1:
        rows = [one(i) for i in range(replicates)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one, range(replicates)))
    return np.array(rows, dtype=np.float64)


def accumulate(
    tally: Tally,
    sizes: Sequence[int],
    replicates: int,
    seed: int,
    threads: int | None = None,
) -> list[AccumulationPoint]:
    """Accumulation curve: for each subsample size k, draw `replicates`
    subsamples of k tokens without replacement, re-estimate richness, and
    average S_obs and S_hat over replicates.
    """
    if replicates < 1:
        raise InvalidSize(f"replicates must be >= 1, got {replicates}")
    if not sizes:
        raise InvalidSize("sizes must name at least one subsample size")
    counts = _counts(tally)
    n = int(counts.sum())
    for k in sizes:
        if k <= 0:
            raise InvalidSize(f"subsample size must be positive, got {k}")
        if k > n:
            raise SubsampleTooLarge(f"k={k} exceeds total token count n={n}")
    workers = resolve_workers(threads)
    points: list[AccumulationPoint] = []
    for size_idx, k in enumerate(sizes):
        stacked = _replicates(
            lambda rng, k=k: rng.multivariate_hypergeometric(counts, k),
            (size_idx,), seed, replicates, workers)
        s_obs_vals, s_hat_vals = stacked[:, 0], stacked[:, 1]
        sd = float(np.std(s_hat_vals, ddof=1)) if replicates > 1 else 0.0
        points.append(AccumulationPoint(
            k=k, replicates=replicates, mean_s_obs=float(s_obs_vals.mean()),
            mean_s_hat=float(s_hat_vals.mean()), sd_s_hat=sd))
    return points


def _sample_coverage(f1: int, f2: int, total: int) -> float:
    """Good-Turing estimate of the fraction of the assemblage already
    observed, used to size the resampling population."""
    if f1 == 0:
        return 1.0
    if f2 > 0:
        adj = (total - 1) * f1 / ((total - 1) * f1 + 2 * f2)
    else:
        adj = (total - 1) * (f1 - 1) / ((total - 1) * (f1 - 1) + 2)
    return 1.0 - (f1 / total) * adj


def _augmented_probs(
    values: np.ndarray, total: int, f0_hat: float, f1: int, f2: int
) -> np.ndarray:
    """Resampling probabilities over observed species plus the estimated
    unseen ones.

    Resampling straight from the empirical frequencies loses singletons and
    biases every replicate's richness below the plug-in estimate; appending
    the estimated unseen species (with detection-adjusted probabilities for
    the observed ones) removes that bias.
    """
    rel = values / total
    c_hat = _sample_coverage(f1, f2, total)
    f0 = int(round(f0_hat))
    undetected = rel * (1.0 - rel) ** total
    denom = float(undetected.sum())
    lam = (1.0 - c_hat) / denom if denom > 0 else 0.0
    p_obs = np.clip(rel * (1.0 - lam * (1.0 - rel) ** total), 0.0, None)
    if f0 > 0:
        p_unseen = np.full(f0, (1.0 - c_hat) / f0)
        probs = np.concatenate([p_obs, p_unseen])
    else:
        probs = p_obs
    return probs / probs.sum()


def bootstrap_ci(
    tally: Tally,
    replicates: int,
    level: float,
    seed: int,
    threads: int | None = None,
    small_sample_correction: bool = False,
) -> dict[str, BootstrapResult]:
    """Percentile bootstrap intervals for s_hat and coverage.

    Abundance tallies are resampled by drawing n tokens with replacement
    from the augmented assemblage (observed species plus the estimated
    unseen ones). Incidence tallies redraw each species' presence across m
    samples from its augmented per-sample rate; per-sample composition is
    not retained in a tally, so cross-species correlation within samples is
    not modelled.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    if replicates < 1:
        raise InvalidSize(f"replicates must be >= 1, got {replicates}")
    if replicates < LOW_REPLICATE_THRESHOLD:
        warnings.warn(
            f"bootstrap with {replicates} replicates; "
            f">= {LOW_REPLICATE_THRESHOLD} recommended",
            stacklevel=2,
        )

    values = _counts(tally)
    total = tally.total
    point = estimate_tally(tally, small_sample_correction)
    probs = _augmented_probs(values, total, point.f0_hat, point.f1, point.f2)
    incidence = tally.mode == INCIDENCE
    if incidence:
        # presence probability per (observed + unseen) species, scaled so
        # expected total incidences match the augmented assemblage
        presence = np.clip(probs * values.sum() / total, 0.0, 1.0)

    def draw(rng: np.random.Generator) -> np.ndarray:
        if incidence:
            return rng.binomial(total, presence)
        return rng.multinomial(total, probs)

    stacked = _replicates(draw, (), seed, replicates,
                          resolve_workers(threads), tally.mode, total,
                          small_sample_correction)
    alpha = (1.0 - level) / 2.0

    def interval(col: int, point_value: float) -> BootstrapResult:
        lower, upper = np.quantile(stacked[:, col], [alpha, 1.0 - alpha])
        return BootstrapResult(point=point_value, lower=float(lower),
                               upper=float(upper), level=level,
                               replicates=replicates, seed=seed)

    return {
        "s_hat": interval(1, point.s_hat),
        "coverage": interval(2, point.coverage),
    }
