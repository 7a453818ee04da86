"""Synthetic populations with known true richness, used as a ground-truth
oracle for validating the estimators end to end."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .tally import ABUNDANCE, Column, Observations, Tally

UNIFORM = "uniform"
ZIPF = "zipf"
LOGNORMAL = "lognormal"

DISTRIBUTIONS = (UNIFORM, ZIPF, LOGNORMAL)


@dataclass(frozen=True)
class PopulationSpec:
    """A population of s_true species with a chosen relative-abundance
    shape. `alpha` applies to zipf, `sigma` to lognormal; `seed` only
    matters for lognormal, whose abundances are themselves random."""

    s_true: int
    distribution: str = UNIFORM
    alpha: float = 1.0
    sigma: float = 1.0
    seed: int = 0


def generate(spec: PopulationSpec) -> np.ndarray:
    """Relative abundance vector of length s_true, summing to 1."""
    if spec.s_true < 1:
        raise InvalidSpec(f"s_true must be >= 1, got {spec.s_true}")
    if spec.distribution == UNIFORM:
        probs = np.full(spec.s_true, 1.0 / spec.s_true)
    elif spec.distribution == ZIPF:
        if not 0 < spec.alpha < np.inf:
            raise InvalidSpec(
                f"zipf alpha must be finite and > 0, got {spec.alpha}")
        weights = np.arange(1, spec.s_true + 1, dtype=float) ** -spec.alpha
        probs = weights / weights.sum()
    elif spec.distribution == LOGNORMAL:
        if not 0 < spec.sigma < np.inf:
            raise InvalidSpec(
                f"lognormal sigma must be finite and > 0, got {spec.sigma}")
        rng = np.random.default_rng(spec.seed)
        weights = rng.lognormal(mean=0.0, sigma=spec.sigma, size=spec.s_true)
        total = weights.sum()
        if not 0 < total < np.inf:
            raise InvalidSpec(f"lognormal sigma {spec.sigma} is too large: "
                              f"the abundances sum to {total}")
        probs = weights / total
    else:
        raise InvalidSpec(f"unknown distribution {spec.distribution!r}")
    return probs


def _species_labels(count: int) -> list[str]:
    width = max(4, len(str(count)))
    return [f"sp{i:0{width}d}" for i in range(1, count + 1)]


def sample(population: np.ndarray, n: int, seed: int) -> Tally:
    """Draw n tokens (exact multinomial) from the population and tally."""
    if n < 1:
        raise InvalidSpec(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    draws = rng.multinomial(n, population)
    labels = _species_labels(population.size)
    counts = {labels[i]: int(c) for i, c in enumerate(draws) if c > 0}
    return Tally(counts, n, ABUNDANCE)


def _population(population: np.ndarray) -> np.ndarray:
    """The population as a float vector of probabilities, checked."""
    probs = np.asarray(population, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise InvalidSpec("population must be a non-empty vector")
    if not (np.isfinite(probs).all() and (probs >= 0).all()):
        raise InvalidSpec("population must be finite and non-negative")
    if abs(probs.sum() - 1.0) > 1e-12:
        raise InvalidSpec(f"population must sum to 1, got {probs.sum()!r}")
    return probs


def sample_site_records(
    population: np.ndarray,
    m: int,
    per_site_n: int,
    detection: float = 1.0,
    seed: int = 0,
) -> Observations:
    """Draw m independent sites of per_site_n tokens each and return the
    per-site observations as a table: one row per species seen at a site,
    site by site, with rows numbered from 1. `detection` < 1 independently
    thins each observed token before it is recorded.

    Each site's counts are an exact multinomial(per_site_n, population)
    draw on the site's own generator, made by whichever method is cheaper:
    with fewer than half as many tokens as species, per_site_n categorical
    tokens (uniforms looked up in the CDF, then counted), which costs
    O(per_site_n log species + species); otherwise numpy's multinomial,
    which costs O(species)."""
    if m < 1:
        raise InvalidSpec(f"m must be >= 1, got {m}")
    if per_site_n < 1:
        raise InvalidSpec(f"per_site_n must be >= 1, got {per_site_n}")
    if not 0.0 < detection <= 1.0:
        raise InvalidSpec(f"detection must be in (0,1], got {detection}")
    population = _population(population)
    k = population.size
    # Measured per site over 500 and 5,000 species (uniform, zipf and
    # lognormal), the two costs cross at per_site_n / species of 0.4-0.75.
    if 2 * per_site_n < k:
        # Divided by its last entry, which is then exactly 1, so no uniform
        # in [0, 1) falls past the last species. side="right": a uniform
        # equal to a CDF entry belongs to the next species, so a species of
        # probability 0 is never drawn.
        cdf = np.cumsum(population)
        cdf /= cdf[-1]

        def draw(rng: np.random.Generator) -> np.ndarray:
            tokens = cdf.searchsorted(rng.random(per_site_n), side="right")
            return np.bincount(tokens, minlength=k)
    else:
        def draw(rng: np.random.Generator) -> np.ndarray:
            return rng.multinomial(per_site_n, population)
    site_width = max(4, len(str(m)))
    species: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    for site in range(m):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(site,))
        )
        draws = draw(rng)
        if detection < 1.0:
            draws = rng.binomial(draws, detection)
        seen = np.flatnonzero(draws)
        species.append(seen)
        counts.append(draws[seen])
    sites = np.repeat(np.arange(m), [len(seen) for seen in species])
    columns = {
        "sample_id": Column(
            [f"site{site:0{site_width}d}" for site in range(1, m + 1)],
            sites, -1),
        "species_id": Column(_species_labels(k), np.concatenate(species), -1),
    }
    return Observations.of(columns, np.concatenate(counts),
                           np.arange(1, len(sites) + 1))
