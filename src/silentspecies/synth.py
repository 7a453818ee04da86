"""Synthetic populations with known true richness, used as a ground-truth
oracle for validating the estimators end to end."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .choices import ABUNDANCE, DISTRIBUTIONS, LOGNORMAL, UNIFORM, ZIPF
from .errors import InvalidSpec
from .streams import streams
from .tally import _INT64_MAX, Column, Observations, Tally


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


def _labels(prefix: str, numbers: range, count: int) -> list[str]:
    """The labels of `numbers` among 1..count: the prefix, then the number
    zero-padded to the digits of `count`, and at least 4."""
    width = max(4, len(str(count)))
    return [f"{prefix}{i:0{width}d}" for i in numbers]


def _check_size(name: str, value: int) -> None:
    """Refuse a token or site count that is not a positive int64."""
    if not 1 <= value <= _INT64_MAX:
        raise InvalidSpec(
            f"{name} must be in [1, {_INT64_MAX}] (int64), got {value}")


def sample(population: np.ndarray, n: int, seed: int) -> Tally:
    """Draw n tokens (exact multinomial) from the population and tally."""
    _check_size("n", n)
    population = _population(population)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    draws = rng.multinomial(n, population)
    labels = _labels("sp", range(1, population.size + 1), population.size)
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
    draw on the site's own stream, SeedSequence(seed, spawn_key=(site,)),
    made by whichever method is cheaper: with fewer than half as many tokens
    as species, per_site_n categorical tokens (uniforms looked up in the
    CDF, then counted), which costs O(per_site_n log species) and is done
    for a block of sites in one batch; otherwise numpy's multinomial, which
    costs O(species). With `detection` < 1, the site's stream then thins the
    counts it drew: the multinomial sampler thins each site as it draws it,
    and the categorical one replays each site's stream past its uniforms
    after the block's batch. `streams` sets one generator to each site's
    stream in turn, so no per-site generator is held at any detection.
    The table is the blocks of _site_blocks end to end."""
    labels: list[str] = []
    sites: list[np.ndarray] = []
    species: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    for block in _site_blocks(population, m, per_site_n, detection, seed):
        sample = block.columns["sample_id"]
        sites.append(sample.codes + len(labels))
        labels += sample.labels
        species.append(block.columns["species_id"].codes)
        counts.append(block.counts)
    columns = {
        "sample_id": Column(labels, np.concatenate(sites), -1),
        "species_id": Column(block.columns["species_id"].labels,
                             np.concatenate(species), -1),
    }
    counts = np.concatenate(counts)
    return Observations.of(columns, counts, np.arange(1, len(counts) + 1))


def _token_table(population: np.ndarray, n: int, seed: int) -> Observations:
    """sample's tally as a one-sample long table: sample_id `_default`, one
    row per species seen, in label order, rows numbered from 1."""
    counts = sample(population, n, seed).counts
    rows = np.arange(1, len(counts) + 1)
    columns = {
        "sample_id": Column(["_default"], np.zeros(len(counts), np.int64), -1),
        "species_id": Column(list(counts), rows - 1, -1),
    }
    return Observations.of(columns, list(counts.values()), rows)


# Sites drawn in one batch: a block holds about this many uniforms
# (categorical sampler) or multinomial cells, however many sites are asked
# for, so that writing the blocks as they come takes memory flat in m.
_BLOCK_TOKENS = 2**15


def _site_blocks(
    population: np.ndarray,
    m: int,
    per_site_n: int,
    detection: float,
    seed: int,
) -> Iterator[Observations]:
    """sample_site_records' table in blocks of consecutive sites, drawn as
    they are asked for. Each block is a table of its own sites' rows: its
    sample_id labels are those sites', its species_id labels one list
    shared by every block, and its rows are numbered from 1. Every
    argument is checked now, before the first block is asked for."""
    _check_size("m", m)
    _check_size("per_site_n", per_site_n)
    if not 0.0 < detection <= 1.0:
        raise InvalidSpec(f"detection must be in (0,1], got {detection}")
    population = _population(population)
    k = population.size
    species_labels = _labels("sp", range(1, k + 1), k)
    step = max(1, _BLOCK_TOKENS // min(per_site_n, k))
    # Divided by its last entry, which is then exactly 1, so no uniform in
    # [0, 1) falls past the last species.
    cdf = np.cumsum(population)
    cdf /= cdf[-1]

    def blocks() -> Iterator[Observations]:
        for lo in range(0, m, step):
            block = range(lo, min(lo + step, m))
            # Measured per site over 500 and 5,000 species (uniform, zipf
            # and lognormal), the two costs cross at per_site_n / species of
            # 0.4-0.75.
            if 2 * per_site_n < k:
                sites, species, counts = _categorical_sites(
                    cdf, seed, block, per_site_n, detection)
            else:
                sites, species, counts = _multinomial_sites(
                    population, seed, block, per_site_n, detection)
            if detection < 1.0:
                seen = np.flatnonzero(counts)
                sites, species, counts = (sites[seen], species[seen],
                                          counts[seen])
            columns = {
                "sample_id": Column(
                    _labels("site", range(block.start + 1, block.stop + 1), m),
                    sites, -1),
                "species_id": Column(species_labels, species, -1),
            }
            yield Observations.of(columns, counts,
                                  np.arange(1, len(counts) + 1))

    return blocks()


def _categorical_sites(
    cdf: np.ndarray,
    seed: int,
    block: range,
    per_site_n: int,
    detection: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(site in the block, species, count) of every species seen, site by
    site and species ascending: each site's per_site_n uniforms, drawn on
    its own stream, are looked up in the CDF in one batch for the block.
    side="right": a uniform equal to a CDF entry belongs to the next
    species, so a species of probability 0 is never drawn. When
    `detection` < 1, each site's stream is then replayed to thin its counts
    (a thinned count may be 0)."""
    uniforms = np.empty((len(block), per_site_n))
    for site, rng in enumerate(streams(seed, (), block)):
        rng.random(out=uniforms[site])
    uniforms.sort(axis=1)  # so that each site's tokens come out ascending
    tokens = cdf.searchsorted(uniforms, side="right").ravel()
    del uniforms  # freed before the arrays below are made: peak memory
    # Each run of one species within a site's tokens is one row.
    first = np.empty(tokens.size, dtype=bool)
    np.not_equal(tokens[1:], tokens[:-1], out=first[1:])
    first[::per_site_n] = True
    starts = np.flatnonzero(first)
    sites = starts // per_site_n
    counts = np.diff(starts, append=tokens.size)
    if detection < 1.0:
        # random() takes one 64-bit output per double, so advancing a site's
        # stream by per_site_n resumes it where its uniforms ended. A zero
        # count takes nothing from the stream, so thinning only the counts
        # seen draws what thinning the whole vector does.
        bounds = np.searchsorted(sites, np.arange(len(block) + 1))
        for rng, lo, hi in zip(streams(seed, (), block),
                               bounds[:-1], bounds[1:]):
            rng.bit_generator.advance(per_site_n)
            counts[lo:hi] = rng.binomial(counts[lo:hi], detection)
    return sites, tokens[starts], counts


def _multinomial_sites(
    population: np.ndarray,
    seed: int,
    block: range,
    per_site_n: int,
    detection: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(site in the block, species, count) of every species seen, site by
    site and species ascending: one multinomial draw per site, whose
    non-zero counts the same stream then thins when `detection` < 1 (a
    thinned count may be 0)."""
    sizes = np.empty(len(block), dtype=np.int64)
    species: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    for site, rng in enumerate(streams(seed, (), block)):
        draws = rng.multinomial(per_site_n, population)
        seen = np.flatnonzero(draws)
        sizes[site] = len(seen)
        species.append(seen)
        counts.append(draws[seen] if detection == 1.0
                      else rng.binomial(draws[seen], detection))
    sites = np.repeat(np.arange(len(block)), sizes)
    return sites, np.concatenate(species), np.concatenate(counts)
