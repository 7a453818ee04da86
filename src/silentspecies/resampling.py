"""Subsample accumulation curves and percentile-bootstrap confidence
intervals for richness estimates.

All randomness flows from a single 64-bit seed; each replicate derives its
own stream via SeedSequence spawn keys, so results are bit-identical
regardless of how many worker threads execute the replicates. Replicate
results are always reduced in replicate-index order.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .choices import ABUNDANCE, INCIDENCE
from .errors import InvalidSize, SubsampleTooLarge
from .estimators import _s_obs_f1_f2, estimate, estimate_tally
from .streams import streams
from .tally import Tally, _quantile

THREADS_ENV = "SILENTSPECIES_THREADS"

LOW_REPLICATE_THRESHOLD = 100

# Generator.multivariate_hypergeometric's "marginals" method refuses a tally
# of this many tokens or more, and "count" would need 8 bytes per token.
_MAX_TOKENS = 10**9
# The largest n the sampler rule was timed at; "count" is not chosen above
# it, so its scratch stays within 16 MB per worker.
_COUNT_MAX_TOKENS = 2_000_000
# Incidence counts of the species an incidence replicate sees: once, twice,
# three or more times.
_SEEN = np.array([1, 2, 3])


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
    (0 = auto; ASCII digits, as a CSV count), else all CPUs; never more than
    the CPU count."""
    if threads is None:
        value = os.environ.get(THREADS_ENV, "0") or "0"
        digits = value.strip()
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(
                f"{THREADS_ENV} must be a non-negative integer, got {value!r}"
            )
        threads = int(digits)
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
    (*key, i)), so no result depends on `workers`; with W > 1 workers,
    worker w runs replicates w, w + W, ... as one task, on one generator
    set to each of its replicates' streams in turn (`streams`). A draw that
    sees no species (only tiny incidence resamples can) has s_hat 0,
    coverage 1. The result array is allocated before any draw, so a count
    of replicates too large for memory raises MemoryError at once."""

    def one(rng: np.random.Generator) -> tuple[float, float, float]:
        s_obs, f1, f2 = _s_obs_f1_f2(draw(rng))
        if not s_obs:
            return 0.0, 0.0, 1.0
        est = estimate(s_obs, f1, f2, mode, m, correction)
        return s_obs, est.s_hat, est.coverage

    rows = np.empty((replicates, 3), dtype=np.float64)
    workers = min(workers, replicates)

    def share(w: int) -> None:
        indices = range(w, replicates, workers)
        for i, rng in zip(indices, streams(seed, key, indices)):
            rows[i] = one(rng)

    if workers <= 1:
        share(0)
        return rows
    # One thread per share: concurrent.futures would also load logging,
    # queue and traceback, where numpy has already loaded threading.
    errors: list[BaseException | None] = [None] * workers

    def run(w: int) -> None:
        try:
            share(w)
        except BaseException as exc:  # re-raised on the calling thread
            errors[w] = exc

    threads = [threading.Thread(target=run, args=(w,))
               for w in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for error in errors:  # the lowest-numbered worker's, as pool.map raises
        if error is not None:
            raise error
    return rows


def _hypergeometric_method(n: int, species: int, k: int) -> str:
    """The cheaper exact method of `Generator.multivariate_hypergeometric`
    for drawing k of n tokens spread over `species` species.

    "count" fills an n-word scratch array with each token's species, then
    shuffles min(k, n - k) of its entries into place. "marginals" draws one
    univariate hypergeometric per species. Fitted by least squares on the
    per-draw times of both methods over n in 2,000-2,000,000, K in 20-200,000
    and k from 0.2% to 98% of n, on zipf and uniform counts (numpy 2.4,
    2-vCPU Xeon), in microseconds:

        count      ~ 8 + 0.00044 n + 0.011 K + 0.022 min(k, n - k)
        marginals  ~ 10 + 0.185 K

    Rounded, "count" is cheaper when n + 50 min(k, n - k) < 400 K. On a
    second grid of 126 (n, K, k) cells this rule picked the slower method
    once, by 9%. "count" is not chosen for n above _COUNT_MAX_TOKENS.
    """
    if n <= _COUNT_MAX_TOKENS and n + 50 * min(k, n - k) < 400 * species:
        return "count"
    return "marginals"


def accumulate(
    tally: Tally,
    sizes: Sequence[int],
    replicates: int,
    seed: int,
    threads: int | None = None,
) -> list[AccumulationPoint]:
    """Accumulation curve: for each subsample size k, draw `replicates`
    subsamples of k tokens without replacement, re-estimate richness, and
    average S_obs and S_hat over replicates. Each size draws by the cheaper
    exact sampler for its n, K and k (`_hypergeometric_method`); a tally of
    10**9 tokens or more raises InvalidSize.
    """
    if replicates < 1:
        raise InvalidSize(f"replicates must be >= 1, got {replicates}")
    if not sizes:
        raise InvalidSize("sizes must name at least one subsample size")
    counts = _counts(tally)
    n = int(counts.sum())
    if n >= _MAX_TOKENS:
        raise InvalidSize(f"accumulate needs fewer than {_MAX_TOKENS:,} tokens,"
                          f" got n={n:,}")
    for k in sizes:
        if k <= 0:
            raise InvalidSize(f"subsample size must be positive, got {k}")
        if k > n:
            raise SubsampleTooLarge(f"k={k} exceeds total token count n={n}")
    workers = resolve_workers(threads)
    points: list[AccumulationPoint] = []
    for size_idx, k in enumerate(sizes):
        method = _hypergeometric_method(n, counts.size, k)
        stacked = _replicates(
            lambda rng, k=k, method=method:
                rng.multivariate_hypergeometric(counts, k, method=method),
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


def _augmented_weights(
    values: np.ndarray, total: int, f0_hat: float, f1: int, f2: int
) -> tuple[np.ndarray, int, float]:
    """Detection-adjusted resampling weights of the observed species, the
    number round(f0_hat) of unseen ones, and the weight of each unseen one,
    which share 1 - C_hat equally (0 when there are none); not yet
    normalised.

    Resampling straight from the empirical frequencies loses singletons and
    biases every replicate's richness below the plug-in estimate; giving the
    estimated unseen species their share (and detection-adjusting the
    observed ones) removes that bias.
    """
    rel = values / total
    c_hat = _sample_coverage(f1, f2, total)
    undetected = rel * (1.0 - rel) ** total
    denom = float(undetected.sum())
    lam = (1.0 - c_hat) / denom if denom > 0 else 0.0
    p_obs = np.clip(rel * (1.0 - lam * (1.0 - rel) ** total), 0.0, None)
    f0 = int(round(f0_hat))
    return p_obs, f0, (1.0 - c_hat) / f0 if f0 > 0 else 0.0


def _augmented_probs(
    values: np.ndarray, total: int, f0_hat: float, f1: int, f2: int
) -> np.ndarray:
    """The augmented weights as probabilities: the observed species, then
    the unseen ones."""
    p_obs, f0, share = _augmented_weights(values, total, f0_hat, f1, f2)
    probs = np.concatenate([p_obs, np.full(f0, share)])
    return probs / probs.sum()


def _presence_classes(
    values: np.ndarray, m: int, f0_hat: float, f1: int, f2: int
) -> tuple[np.ndarray, np.ndarray]:
    """The incidence bootstrap population as classes of species sharing a
    per-sample presence rate: each class's size, and (classes x 4) its
    probabilities of being seen in 0, 1, 2 and 3 or more of m samples.

    The rates are the augmented weights (`_augmented_weights`), scaled
    so that the expected incidences total the tally's. Observed species of
    equal incidence count share a rate, and the round(f0_hat) unseen ones
    share one, so no per-species vector of the unseen is built.
    """
    p_obs, f0, share = _augmented_weights(values, m, f0_hat, f1, f2)
    scale = values.sum() / m / (p_obs.sum() + f0 * share)
    rates, groups = np.unique(np.clip(p_obs * scale, 0.0, 1.0),
                              return_counts=True)
    if f0 > 0:
        rates = np.append(rates, min(share * scale, 1.0))
        groups = np.append(groups, f0)
    return groups, _seen_probs(rates, m)


def _seen_probs(rates: np.ndarray, m: int) -> np.ndarray:
    """(rates x 4) Bin(m, rate) probabilities of 0, 1, 2 and 3 or more, for
    m >= 1; the first three in closed form, the last their complement."""
    miss = 1.0 - rates
    probs = np.zeros((rates.size, 4))
    probs[:, 0] = miss ** m
    probs[:, 1] = m * rates * miss ** (m - 1)
    if m >= 2:  # C(1, 2) = 0, and 0.0 ** -1 would be inf
        probs[:, 2] = m * (m - 1) / 2 * rates ** 2 * miss ** (m - 2)
    probs[:, 3] = np.clip(1.0 - probs[:, :3].sum(axis=1), 0.0, None)
    return probs


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
    unseen ones), on up to `threads` workers. Incidence tallies redraw each
    species' presence across m samples from its augmented per-sample rate;
    per-sample composition is not retained in a tally, so cross-species
    correlation within samples is not modelled. The g species of a rate
    class are i.i.d. Bin(m, rate), so a replicate draws, per class, how many
    are seen in 0, 1, 2 and 3 or more samples (one multinomial of g), which
    is all the estimate reads; it runs on the calling thread.
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
    workers = resolve_workers(threads)  # checks SILENTSPECIES_THREADS too
    if tally.mode == INCIDENCE:
        groups, classes = _presence_classes(values, total, point.f0_hat,
                                            point.f1, point.f2)

        def draw(rng: np.random.Generator) -> np.ndarray:
            # The seen species' incidence counts, 3 standing for 3 or more.
            seen = rng.multinomial(groups, classes)[:, 1:].sum(axis=0)
            return np.repeat(_SEEN, seen)

        # One class draw costs less than handing it to a pool: measured on
        # 2 vCPUs, a 2-worker pool ran it at half the serial speed.
        workers = 1
    else:
        probs = _augmented_probs(values, total, point.f0_hat, point.f1,
                                 point.f2)

        def draw(rng: np.random.Generator) -> np.ndarray:
            return rng.multinomial(total, probs)

    stacked = _replicates(draw, (), seed, replicates, workers, tally.mode,
                          total, small_sample_correction)
    alpha = (1.0 - level) / 2.0

    def interval(col: int, point_value: float) -> BootstrapResult:
        lower, upper = _quantile(stacked[:, col], [alpha, 1.0 - alpha])
        return BootstrapResult(point=point_value, lower=float(lower),
                               upper=float(upper), level=level,
                               replicates=replicates, seed=seed)

    return {
        "s_hat": interval(1, point.s_hat),
        "coverage": interval(2, point.coverage),
    }
