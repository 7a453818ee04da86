import math
import statistics
import tracemalloc

import numpy as np
import pytest

from silentspecies import (
    ABUNDANCE,
    INCIDENCE,
    InvalidSize,
    SubsampleTooLarge,
    accumulate,
    bootstrap_ci,
    estimate_tally,
    tally_incidence,
    Tally,
)
from silentspecies import resampling
from silentspecies.resampling import (
    THREADS_ENV,
    _hypergeometric_method,
    resolve_workers,
)
from silentspecies.synth import (
    PopulationSpec,
    generate,
    sample,
    sample_site_records,
)


def _absent(n, k, removed):
    """Probability that k tokens drawn without replacement from n miss
    `removed` given tokens: C(n - removed, k) / C(n, k)."""
    if n - removed < k:
        return 0.0
    return math.exp(math.lgamma(n - removed + 1) - math.lgamma(n - removed - k + 1)
                    + math.lgamma(n - k + 1) - math.lgamma(n + 1))


def rarefied_richness(counts, k):
    """Exact mean (Hurlbert 1971) and variance (Heck, van Belle & Simberloff
    1975) of the number of species in a subsample of k tokens."""
    n = sum(counts)
    q = [_absent(n, k, x) for x in counts]
    mean = sum(1.0 - qi for qi in q)
    variance = sum(qi * (1.0 - qi) for qi in q)
    for i, x in enumerate(counts):
        for j in range(i):
            variance += 2.0 * (_absent(n, k, x + counts[j]) - q[i] * q[j])
    return mean, variance


def hypergeometric_moments(n, c, k):
    """Mean, variance and fourth central moment of the number of the c
    marked tokens among k drawn without replacement from n."""
    p = c / n
    variance = k * p * (1 - p) * (n - k) / (n - 1)
    excess = ((n - 1) * n ** 2 * (n * (n + 1) - 6 * c * (n - c)
                                  - 6 * k * (n - k))
              + 6 * k * c * (n - c) * (n - k) * (5 * n - 6)) / (
        k * c * (n - c) * (n - k) * (n - 2) * (n - 3))
    return k * p, variance, variance ** 2 * (excess + 3)


@pytest.fixture(scope="module")
def zipf_tally():
    population = generate(PopulationSpec(200, "zipf", alpha=1.1))
    return sample(population, 5000, seed=13)


# On zipf_tally (n = 5000, K = 198) these sizes draw by "count",
# "marginals" and "count" (the oracle fixture checks this).
ORACLE_SIZES = (250, 2000, 4500)
ORACLE_REPLICATES = 400
# Band on (replicate variance of S_obs) / (exact variance), fixed before the
# test was run: over seeds 1000-1199, which no test uses, the ratio at these
# sizes and replicates had SD 0.069-0.084; the band is 1 +/- 4 * 0.085.
VARIANCE_BAND = (0.66, 1.34)


def spy_replicates(call):
    """Run `call()` with `_replicates` spied on; per `_replicates` call, the
    (s_obs, s_hat, coverage) rows and the list of count vectors drawn."""
    original = resampling._replicates
    calls = []

    def spy(draw, *args, **kwargs):
        draws = []

        def recording(rng):
            drawn = draw(rng)
            draws.append(drawn)
            return drawn

        rows = original(recording, *args, **kwargs)
        calls.append((rows, draws))
        return rows

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resampling, "_replicates", spy)
        call()
    return calls


@pytest.fixture(scope="module")
def oracle(zipf_tally):
    """accumulate over ORACLE_SIZES with `_replicates` spied on: per size,
    the (s_obs, s_hat, coverage) rows and the count vectors drawn."""
    n, species = zipf_tally.total, len(zipf_tally.counts)
    methods = [_hypergeometric_method(n, species, k) for k in ORACLE_SIZES]
    assert methods == ["count", "marginals", "count"]
    calls = spy_replicates(lambda: accumulate(
        zipf_tally, ORACLE_SIZES, ORACLE_REPLICATES, seed=23, threads=1))
    return [(rows, np.array(draws)) for rows, draws in calls]


class TestAccumulate:
    def test_full_size_reproduces_observed_richness(self, zipf_tally):
        full = estimate_tally(zipf_tally)
        points = accumulate(zipf_tally, [zipf_tally.total], replicates=5, seed=1)
        point = points[0]
        assert point.mean_s_obs == full.s_obs
        assert point.mean_s_hat == pytest.approx(full.s_hat)
        assert point.sd_s_hat == pytest.approx(0.0)

    def test_oversized_subsample_rejected(self, zipf_tally):
        with pytest.raises(SubsampleTooLarge):
            accumulate(zipf_tally, [zipf_tally.total + 1], replicates=1, seed=0)

    def test_zero_size_rejected(self, zipf_tally):
        with pytest.raises(InvalidSize):
            accumulate(zipf_tally, [0], replicates=1, seed=0)

    def test_a_billion_tokens_rejected_before_any_draw(self, monkeypatch):
        # numpy's "marginals" sampler refuses n >= 10**9.
        monkeypatch.setattr(resampling, "_replicates", None)
        tally = Tally({"a": 600_000_000, "b": 500_000_000}, 1_100_000_000,
                      ABUNDANCE)
        with pytest.raises(InvalidSize, match="fewer than 1,000,000,000"):
            accumulate(tally, [10], replicates=1, seed=0)

    def test_deterministic_across_thread_counts(self, zipf_tally):
        kwargs = dict(sizes=[500, 2000], replicates=40, seed=99)
        serial = accumulate(zipf_tally, threads=1, **kwargs)
        parallel = accumulate(zipf_tally, threads=4, **kwargs)
        assert serial == parallel

    def test_mean_observed_richness_matches_exact_expectation(self, zipf_tally):
        # Within 4 Monte Carlo standard errors of E[S_k] at every k.
        replicates = 200
        counts = list(zipf_tally.counts.values())
        points = accumulate(zipf_tally, [20, 250, 1000, 2500, 4000],
                            replicates=replicates, seed=17)
        for p in points:
            mean, variance = rarefied_richness(counts, p.k)
            assert abs(p.mean_s_obs - mean) <= 4 * math.sqrt(variance / replicates)

    def test_replicate_variance_matches_exact_variance(self, zipf_tally,
                                                       oracle):
        # Heck et al.'s exact variance; a draw with replacement spreads more.
        counts = list(zipf_tally.counts.values())
        for k, (rows, _) in zip(ORACLE_SIZES, oracle):
            _, variance = rarefied_richness(counts, k)
            ratio = np.var(rows[:, 0], ddof=1) / variance
            assert VARIANCE_BAND[0] <= ratio <= VARIANCE_BAND[1], (k, ratio)

    def test_species_counts_have_hypergeometric_moments(self, zipf_tally,
                                                        oracle):
        # A class of species holding c of the n tokens between them draws
        # hypergeometrically: mean k p and variance k p (1 - p) (n - k) /
        # (n - 1), p = c / n, the per-species form. Species of equal count
        # are exchangeable, so each count class is pooled. Per species, the
        # 2 x 594 comparisons at 4 SE failed on 17% of seeds 1000-1199; per
        # class, the 2 x 153 failed on 1.5%. The replicate mean and variance
        # of each class lie within 4 standard errors of the exact values.
        counts = np.array(list(zipf_tally.counts.values()))
        _, cls = np.unique(counts, return_inverse=True)
        n, r = zipf_tally.total, ORACLE_REPLICATES
        c = np.bincount(cls, weights=counts)
        for k, (_, draws) in zip(ORACLE_SIZES, oracle):
            assert draws.shape == (r, counts.size)
            assert (draws.sum(axis=1) == k).all() and (draws <= counts).all()
            pooled = np.array([np.bincount(cls, weights=row) for row in draws])
            mean, variance, mu4 = hypergeometric_moments(n, c, k)
            assert (abs(pooled.mean(axis=0) - mean)
                    <= 4 * np.sqrt(variance / r)).all(), k
            var_se = np.sqrt((mu4 - variance ** 2 * (r - 3) / (r - 1)) / r)
            assert (abs(pooled.var(axis=0, ddof=1) - variance)
                    <= 4 * var_se).all(), k

    def test_mean_observed_richness_grows_with_k(self, zipf_tally):
        points = accumulate(
            zipf_tally, [250, 1000, 4000], replicates=200, seed=7
        )
        means = [p.mean_s_obs for p in points]
        assert means[0] < means[1] < means[2]
        for p in points:
            assert p.mean_s_hat >= p.mean_s_obs - 1e-9


@pytest.mark.parametrize("n, species, k, method", [
    # Per-draw times at n = 200,000 and K = 4,936 favour "count" up to
    # k = 20,000 and "marginals" at k = 100,000.
    (200_000, 4936, 1000, "count"),
    (200_000, 4936, 20_000, "count"),
    (200_000, 4936, 100_000, "marginals"),
    (200_000, 4936, 195_000, "count"),  # the complement of 5,000
    # Past 2,000,000 tokens, "count"'s scratch of one word per token is
    # never chosen.
    (2_000_000, 1_000_000, 10, "count"),
    (2_000_001, 1_000_000, 10, "marginals"),
])
def test_sampler_rule(n, species, k, method):
    assert _hypergeometric_method(n, species, k) == method


@pytest.mark.parametrize("replicates", [1, 2, 5, 7])
def test_replicate_rows_do_not_depend_on_workers(replicates):
    # Called directly, because resolve_workers clamps to the CPU count.
    probs = np.full(20, 0.05)

    def draw(rng):
        return rng.multinomial(30, probs)

    rows = [resampling._replicates(draw, (3,), 11, replicates, workers)
            for workers in (1, 2, 3, 4)]
    for other in rows[1:]:
        assert np.array_equal(other, rows[0])
    seen = [np.count_nonzero(draw(np.random.default_rng(
        np.random.SeedSequence(11, spawn_key=(3, i)))))
        for i in range(replicates)]
    assert rows[0][:, 0].tolist() == seen


def test_the_lowest_numbered_failing_worker_raises():
    # Workers 1 and 2 of 3 each fail on their one replicate, whichever
    # thread ends first; replicate i is told apart by its stream's first
    # draw.
    first = {np.random.default_rng(np.random.SeedSequence(
        11, spawn_key=(3, i))).integers(1 << 62): i for i in range(3)}

    def draw(rng):
        i = first[rng.integers(1 << 62)]
        if i:
            raise ValueError(f"replicate {i}")
        return np.ones(4, dtype=np.int64)

    for _ in range(20):
        with pytest.raises(ValueError, match="^replicate 1$"):
            resampling._replicates(draw, (3,), 11, 3, 3)


def per_replicate_default_rng(seed, key, indices):
    """The streams the replicates promise, one new generator each."""
    for i in indices:
        yield np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(*key, i)))


def test_results_match_per_replicate_generators_at_any_thread_count(
        zipf_tally, monkeypatch):
    # On 2 CPUs, threads=2 runs two workers, each deriving its own share of
    # the streams onto its own generator.
    def run(threads):
        return (bootstrap_ci(zipf_tally, 150, 0.95, seed=17, threads=threads),
                accumulate(zipf_tally, ORACLE_SIZES, 60, seed=17,
                           threads=threads))

    ours = {threads: run(threads) for threads in (1, 2)}
    monkeypatch.setattr(resampling, "streams", per_replicate_default_rng)
    reference = run(1)
    assert ours[1] == reference
    assert ours[2] == reference


@pytest.mark.parametrize("m", [1, 2, 3, 200])
def test_seen_probabilities_are_binomial(m):
    # Rates 0 and 1 meet 0.0 ** 0 in P1 and, at m = 1, 0.0 ** -1 in P2.
    rates = np.array([0.0, 1e-9, 0.3, 0.5, 1 - 1e-9, 1.0])
    probs = resampling._seen_probs(rates, m)
    assert np.isfinite(probs).all() and (probs >= 0).all()
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12
    for rate, row in zip(rates, probs):
        exact = [math.comb(m, k) * rate ** k * (1 - rate) ** (m - k)
                 if k <= m else 0.0 for k in range(3)]
        assert row[:3] == pytest.approx(exact, rel=1e-12, abs=1e-300)


BOOTSTRAP_REPLICATES = 400
# (population, sites, tokens per site) of the incidence oracle's tallies:
# each has 250-280 species of 5-15 distinct incidence counts, and 100-280
# estimated unseen ones.
INCIDENCE_SHAPES = {
    "uniform": (PopulationSpec(400, "uniform"), 30, 15),
    "zipf": (PopulationSpec(1000, "zipf", alpha=1.0), 40, 20),
    "lognormal": (PopulationSpec(800, "lognormal", sigma=1.5, seed=3), 30, 20),
}
# Band on (replicate variance of S_obs) / (exact variance), fixed before the
# test was run: over bootstrap seeds 1000-1199, which no test uses, the
# ratio on these tallies had SD 0.063-0.075; the band is 1 +/- 4 * 0.075.
INCIDENCE_VARIANCE_BAND = (0.70, 1.30)
# (population, tokens) of the abundance oracle's tallies.
ABUNDANCE_SHAPES = {
    "uniform": (PopulationSpec(300, "uniform"), 600),
    "zipf": (PopulationSpec(500, "zipf", alpha=1.0), 1500),
    "lognormal": (PopulationSpec(400, "lognormal", sigma=1.5, seed=3), 1000),
}


def augmented(tally):
    """The bootstrap population of a tally: its augmented probabilities
    (observed species, then the estimated unseen ones)."""
    point = estimate_tally(tally)
    values = np.array(list(tally.counts.values()))
    return resampling._augmented_probs(values, tally.total, point.f0_hat,
                                       point.f1, point.f2)


def presence_rates(tally):
    """Per-sample presence rate of each species of an incidence tally's
    bootstrap population: the augmented probabilities, scaled so that the
    expected incidences total the tally's."""
    values = np.array(list(tally.counts.values()))
    return np.clip(augmented(tally) * values.sum() / tally.total, 0.0, 1.0)


def incidence_moments(rates, m):
    """Exact mean and variance of S_obs, Q1 and Q2 when each species is
    present in each of m samples independently at its rate: the species
    seen in at least one, exactly one and exactly two samples."""
    p0 = [(1 - pi) ** m for pi in rates]
    p1 = [m * pi * (1 - pi) ** (m - 1) for pi in rates]
    p2 = [math.comb(m, 2) * pi ** 2 * (1 - pi) ** (m - 2) for pi in rates]
    return {
        "s_obs": (sum(1 - p for p in p0), sum(p * (1 - p) for p in p0)),
        "q1": (sum(p1), sum(p * (1 - p) for p in p1)),
        "q2": (sum(p2), sum(p * (1 - p) for p in p2)),
    }


def multinomial_moments(p, n):
    """Exact mean and variance of S_obs and f1 of multinomial(n, p) counts,
    each variance summing the pairwise covariances of the indicators."""
    unseen = (1 - p) ** n
    single = n * p * (1 - p) ** (n - 1)
    rest = np.clip(1 - p[:, None] - p[None, :], 0.0, None)
    both_unseen = rest ** n - np.outer(unseen, unseen)
    both_single = (n * (n - 1) * np.outer(p, p) * rest ** (n - 2)
                   - np.outer(single, single))
    np.fill_diagonal(both_unseen, unseen * (1 - unseen))
    np.fill_diagonal(both_single, single * (1 - single))
    return {"s_obs": (float((1 - unseen).sum()), float(both_unseen.sum())),
            "f1": (float(single.sum()), float(both_single.sum()))}


def replicate_stats(draws):
    """S_obs, f1 (Q1) and f2 (Q2) of each drawn count vector."""
    return {"s_obs": np.array([np.count_nonzero(d) for d in draws]),
            "q1": np.array([np.count_nonzero(d == 1) for d in draws]),
            "q2": np.array([np.count_nonzero(d == 2) for d in draws])}


def incidence_tally(shape):
    spec, sites, per_site = INCIDENCE_SHAPES[shape]
    return tally_incidence(sample_site_records(generate(spec), sites,
                                               per_site, 1.0, seed=11))


@pytest.fixture(scope="module", params=sorted(INCIDENCE_SHAPES))
def incidence_oracle(request):
    """An incidence tally, and the replicate rows and the count vectors of
    its bootstrap (spied on `_replicates`)."""
    tally = incidence_tally(request.param)
    [(rows, draws)] = spy_replicates(lambda: bootstrap_ci(
        tally, BOOTSTRAP_REPLICATES, 0.95, seed=29, threads=1))
    return tally, rows, draws


@pytest.fixture(scope="module", params=sorted(ABUNDANCE_SHAPES))
def abundance_oracle(request):
    """An abundance tally, the replicate rows and count vectors of its
    bootstrap, and the intervals it returned."""
    spec, n = ABUNDANCE_SHAPES[request.param]
    tally = sample(generate(spec), n, seed=11)
    intervals = {}
    [(rows, draws)] = spy_replicates(lambda: intervals.update(bootstrap_ci(
        tally, BOOTSTRAP_REPLICATES, 0.95, seed=31, threads=1)))
    return tally, rows, draws, intervals


# Bands on bootstrap / analytic, fixed before the test was run: over
# bootstrap seeds 2000-2199, which no test uses, on the ABUNDANCE_SHAPES
# tallies at BOOTSTRAP_REPLICATES, the SD ratio had mean 0.875-1.348 and
# SD 0.037-0.050 across the shapes, and the width ratio mean 0.841-1.290
# and SD 0.044-0.064. Each band runs from the lowest shape mean - 4 SD to
# the highest shape mean + 4 SD.
SD_RATIO_BAND = (0.72, 1.55)
WIDTH_RATIO_BAND = (0.66, 1.55)


def chao1_variance(f1, f2):
    """Chao's (1987) analytic variance of the Chao1 estimate."""
    r = f1 / f2
    return f2 * (0.5 * r ** 2 + r ** 3 + 0.25 * r ** 4)


def log_normal_interval(s_obs, s_hat, variance, level):
    """Chao et al.'s (2014) interval, taking T = S_hat - S_obs as
    log-normal: [S_obs + T / K, S_obs + T * K]."""
    t = s_hat - s_obs
    z = statistics.NormalDist().inv_cdf(0.5 + level / 2)
    k = math.exp(z * math.sqrt(math.log(1 + variance / t ** 2)))
    return s_obs + t / k, s_obs + t * k


class TestBootstrapOracles:
    def test_incidence_means_match_exact(self, incidence_oracle):
        # Species are independent, so each count is a sum of independent
        # indicators and its exact variance is sum P (1 - P).
        tally, rows, draws = incidence_oracle
        stats = replicate_stats(draws)
        assert (stats["s_obs"] == rows[:, 0]).all()
        exact = incidence_moments(presence_rates(tally), tally.total)
        for name, (mean, variance) in exact.items():
            assert abs(stats[name].mean() - mean) <= 4 * math.sqrt(
                variance / BOOTSTRAP_REPLICATES), name

    def test_incidence_variance_matches_exact(self, incidence_oracle):
        tally, rows, _ = incidence_oracle
        _, variance = incidence_moments(presence_rates(tally),
                                        tally.total)["s_obs"]
        ratio = np.var(rows[:, 0], ddof=1) / variance
        low, high = INCIDENCE_VARIANCE_BAND
        assert low <= ratio <= high, ratio

    def test_abundance_means_match_exact(self, abundance_oracle):
        # Draws without replacement, or from the unaugmented frequencies,
        # see fewer species.
        tally, rows, draws, _ = abundance_oracle
        stats = replicate_stats(draws)
        assert (stats["s_obs"] == rows[:, 0]).all()
        exact = multinomial_moments(augmented(tally), tally.total)
        for name, key in (("s_obs", "s_obs"), ("f1", "q1")):
            mean, variance = exact[name]
            assert abs(stats[key].mean() - mean) <= 4 * math.sqrt(
                variance / BOOTSTRAP_REPLICATES), name


    def test_abundance_interval_width_matches_analytic(self, abundance_oracle):
        """The replicate SD of s_hat against Chao's (1987) analytic SD,
        and the percentile interval against the log-normal interval.

        Chao (1987, Biometrics 43:783) derives
        var = f2 [(f1/f2)^2 / 2 + (f1/f2)^3 + (f1/f2)^4 / 4] by the delta
        method from the large-sample covariances of f1 and f2. Chao et al.
        (2014, Ecol. Monogr. 84:45) build the interval from it by taking
        T = S_hat - S_obs as log-normal: K = exp(z sqrt(ln(1 + var/T^2)))
        and the interval is [S_obs + T/K, S_obs + T K]. The bootstrap and
        the analytic variance estimate the same spread by different
        approximations, so they agree only within the bands, which were
        fixed from other seeds (see SD_RATIO_BAND). A draw without the
        unseen species, or with half of them, falls below both bands on
        some shape.
        """
        tally, rows, _, intervals = abundance_oracle
        point = estimate_tally(tally)
        assert point.f2 > 0 and point.estimator_name == "chao1"
        variance = chao1_variance(point.f1, point.f2)
        sd_ratio = np.std(rows[:, 1], ddof=1) / math.sqrt(variance)
        assert SD_RATIO_BAND[0] <= sd_ratio <= SD_RATIO_BAND[1], sd_ratio
        interval = intervals["s_hat"]
        low, high = log_normal_interval(point.s_obs, point.s_hat, variance,
                                        interval.level)
        width_ratio = (interval.upper - interval.lower) / (high - low)
        assert WIDTH_RATIO_BAND[0] <= width_ratio <= WIDTH_RATIO_BAND[1], \
            width_ratio


class TestBootstrap:
    def test_single_species_interval_collapses(self):
        tally = Tally({"only": 50}, 50, ABUNDANCE)
        res = bootstrap_ci(tally, replicates=200, level=0.95, seed=3)
        assert res["coverage"].lower == res["coverage"].upper == 1.0

    def test_replicates_that_see_no_species_count_as_covered(self):
        # One species in 1 of 50 samples: about a third of the incidence
        # replicates see nothing, and each gives s_hat 0 and coverage 1.
        res = bootstrap_ci(Tally({"a": 1}, 50, INCIDENCE), 200, 0.95, 3)
        assert res["s_hat"].lower == 0.0
        assert res["coverage"].lower == res["coverage"].upper == 1.0

    def test_single_replicate_collapses(self, zipf_tally):
        with pytest.warns(UserWarning):
            res = bootstrap_ci(zipf_tally, replicates=1, level=0.9, seed=5)
        assert res["s_hat"].lower == res["s_hat"].upper

    def test_low_replicates_warns_but_runs(self, zipf_tally):
        with pytest.warns(UserWarning, match="recommended"):
            res = bootstrap_ci(zipf_tally, replicates=10, level=0.95, seed=2)
        assert res["s_hat"].replicates == 10

    def test_ordering_and_determinism(self, zipf_tally):
        a = bootstrap_ci(zipf_tally, replicates=300, level=0.95, seed=21,
                         threads=1)
        b = bootstrap_ci(zipf_tally, replicates=300, level=0.95, seed=21,
                         threads=4)
        assert a == b
        for metric in ("s_hat", "coverage"):
            assert a[metric].lower <= a[metric].upper
            assert a[metric].seed == 21

    def test_interval_contains_plugin_estimate_mostly(self):
        population = generate(PopulationSpec(500, "zipf", alpha=1.0))
        tally = sample(population, 20000, seed=41)
        hits = 0
        seeds = range(100)
        for seed in seeds:
            res = bootstrap_ci(tally, replicates=100, level=0.95, seed=seed)
            r = res["s_hat"]
            if r.lower <= r.point <= r.upper:
                hits += 1
        assert hits >= 90

    def test_incidence_bootstrap(self):
        tally = Tally(
            {f"s{i}": 1 for i in range(30)} | {f"c{i}": 8 for i in range(40)},
            10,
            INCIDENCE,
        )
        res = bootstrap_ci(tally, replicates=200, level=0.95, seed=8)
        assert res["coverage"].lower <= res["coverage"].upper <= 1.0
        assert res["s_hat"].point >= 70

    def test_many_unseen_incidence_species_stay_small(self):
        # 3,000 singletons in 50 samples leave f0_hat = 4,498,500 unseen
        # species; a vector of their rates and draws would take over 100 MB.
        tally = Tally({f"s{i}": 1 for i in range(3000)}, 50, INCIDENCE)
        assert estimate_tally(tally).f0_hat == 4_498_500
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning, match="recommended"):
                bootstrap_ci(tally, replicates=20, level=0.95, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000

    def test_invalid_level(self, zipf_tally):
        with pytest.raises(ValueError):
            bootstrap_ci(zipf_tally, replicates=100, level=1.5, seed=0)


class TestResolveWorkers:
    # Only resolve_workers runs here; no pool is started at these values.
    def test_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert resolve_workers(100000) == 4
        assert resolve_workers(3) == 3
        assert resolve_workers(0) == 4
        monkeypatch.setenv(THREADS_ENV, "100000")
        assert resolve_workers() == 4

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_bad_environment_value_rejected(self, monkeypatch, value):
        monkeypatch.setenv(THREADS_ENV, value)
        with pytest.raises(ValueError, match=THREADS_ENV):
            resolve_workers()

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError, match="threads"):
            resolve_workers(-2)
