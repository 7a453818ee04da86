import math

import pytest

from silentspecies import (
    ABUNDANCE,
    INCIDENCE,
    InvalidSize,
    SubsampleTooLarge,
    accumulate,
    bootstrap_ci,
    estimate_tally,
    Tally,
)
from silentspecies.resampling import THREADS_ENV, resolve_workers
from silentspecies.synth import PopulationSpec, generate, sample


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


@pytest.fixture(scope="module")
def zipf_tally():
    population = generate(PopulationSpec(200, "zipf", alpha=1.1))
    return sample(population, 5000, seed=13)


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

    def test_deterministic_across_thread_counts(self, zipf_tally):
        kwargs = dict(sizes=[500, 2000], replicates=40, seed=99)
        serial = accumulate(zipf_tally, threads=1, **kwargs)
        parallel = accumulate(zipf_tally, threads=4, **kwargs)
        assert serial == parallel

    def test_mean_observed_richness_matches_exact_expectation(self, zipf_tally):
        # Within 4 Monte Carlo standard errors of E[S_k] at every k.
        replicates = 200
        counts = list(zipf_tally.counts.values())
        points = accumulate(zipf_tally, [20, 250, 1000, 4000],
                            replicates=replicates, seed=17)
        for p in points:
            mean, variance = rarefied_richness(counts, p.k)
            assert abs(p.mean_s_obs - mean) <= 4 * math.sqrt(variance / replicates)

    def test_mean_observed_richness_grows_with_k(self, zipf_tally):
        points = accumulate(
            zipf_tally, [250, 1000, 4000], replicates=200, seed=7
        )
        means = [p.mean_s_obs for p in points]
        assert means[0] < means[1] < means[2]
        for p in points:
            assert p.mean_s_hat >= p.mean_s_obs - 1e-9


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
