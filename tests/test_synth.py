import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from silentspecies import (
    InvalidSpec,
    ObservationRecord,
    estimate_tally,
    tally_incidence,
)
from silentspecies import synth
from silentspecies.synth import (
    PopulationSpec,
    generate,
    sample,
    sample_site_records,
)


class TestGenerate:
    def test_uniform_is_symmetric(self):
        probs = generate(PopulationSpec(4, "uniform"))
        assert np.allclose(probs, 0.25)

    def test_zipf_harmonic_normalization(self):
        # ranks 1,2,3 at alpha=1 -> (1, 1/2, 1/3) / (11/6)
        probs = generate(PopulationSpec(3, "zipf", alpha=1.0))
        h = 11 / 6
        assert np.allclose(probs, [1 / h, 0.5 / h, (1 / 3) / h])

    @pytest.mark.parametrize(
        "spec",
        [
            PopulationSpec(100, "uniform"),
            PopulationSpec(100, "zipf", alpha=1.3),
            PopulationSpec(100, "lognormal", sigma=2.0, seed=4),
        ],
    )
    def test_normalization_contract(self, spec):
        probs = generate(spec)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert (probs > 0).all()

    def test_lognormal_deterministic_given_seed(self):
        a = generate(PopulationSpec(50, "lognormal", sigma=1.5, seed=9))
        b = generate(PopulationSpec(50, "lognormal", sigma=1.5, seed=9))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "spec",
        [
            PopulationSpec(0, "uniform"),
            PopulationSpec(10, "zipf", alpha=0.0),
            PopulationSpec(10, "lognormal", sigma=-1.0),
            PopulationSpec(10, "cauchy"),
            PopulationSpec(10, "zipf", alpha=float("nan")),
            PopulationSpec(10, "zipf", alpha=float("inf")),
            PopulationSpec(10, "lognormal", sigma=float("nan")),
            PopulationSpec(10, "lognormal", sigma=float("inf")),
            PopulationSpec(10, "lognormal", sigma=1e308),
        ],
    )
    def test_invalid_specs(self, spec):
        with pytest.raises(InvalidSpec):
            generate(spec)


class TestSample:
    def test_single_token(self):
        tally = sample(generate(PopulationSpec(10, "uniform")), 1, seed=0)
        assert tally.total == 1
        assert list(tally.counts.values()) == [1]

    def test_uniform_small_population_fully_observed(self):
        tally = sample(generate(PopulationSpec(10, "uniform")), 10_000, seed=1)
        assert tally.types == 10
        est = estimate_tally(tally)
        assert est.coverage == pytest.approx(1.0, abs=1e-6)

    def test_zipf_undersampled_keeps_lower_bound(self):
        tally = sample(
            generate(PopulationSpec(1000, "zipf", alpha=1.2)), 5000, seed=2
        )
        assert tally.types < 1000
        est = estimate_tally(tally)
        assert est.s_hat >= est.s_obs

    def test_deterministic(self):
        probs = generate(PopulationSpec(30, "zipf", alpha=1.0))
        assert sample(probs, 500, seed=7) == sample(probs, 500, seed=7)

    @pytest.mark.parametrize("probs", [
        [np.nan, 1.0], [-0.5, 1.5], [0.6, 0.6], [[0.5, 0.5]], [],
    ], ids=["nan", "negative", "sum-1.2", "matrix", "empty"])
    def test_invalid_population(self, probs):
        with pytest.raises(InvalidSpec):
            sample(np.array(probs), 5, 0)


class TestSampleSites:
    def test_shapes_and_bounds(self):
        probs = generate(PopulationSpec(40, "zipf", alpha=1.0))
        tally = tally_incidence(sample_site_records(probs, m=12, per_site_n=50, seed=5))
        assert tally.total == 12
        assert all(1 <= v <= 12 for v in tally.counts.values())

    def test_detection_thinning_reduces_observations(self):
        probs = generate(PopulationSpec(40, "zipf", alpha=1.0))
        full = sample_site_records(probs, 10, 100, detection=1.0, seed=6)
        thin = sample_site_records(probs, 10, 100, detection=0.2, seed=6)
        assert sum(r.count for r in thin) < sum(r.count for r in full)

    def test_records_and_tally_agree(self):
        probs = generate(PopulationSpec(25, "uniform"))
        records = sample_site_records(probs, 8, 30, seed=3)
        assert tally_incidence(records) == tally_incidence(sample_site_records(probs, 8, 30, seed=3))

    @pytest.mark.parametrize("detection, budget", [
        (1.0, None), (0.5, None), (1.0, 150), (0.5, 150),
    ], ids=["1.0", "0.5", "1.0-blocks", "0.5-blocks"])
    def test_table_matches_per_site_record_loop(self, detection, budget,
                                                monkeypatch):
        # Over 60 species, 29 tokens a site are drawn as categorical tokens
        # and 30, half the species, by a multinomial. The default budget
        # draws the 12 sites in one block; one of 150 tokens, in blocks of 5.
        if budget is not None:
            monkeypatch.setattr(synth, "_BLOCK_TOKENS", budget)
        probs = generate(PopulationSpec(60, "zipf", alpha=1.1))
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        for n in (29, 30):
            expected = []
            for site in range(12):
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=8, spawn_key=(site,)))
                if n == 29:
                    draws = np.bincount(
                        cdf.searchsorted(rng.random(n), side="right"),
                        minlength=60)
                else:
                    draws = rng.multinomial(n, probs)
                if detection < 1.0:
                    draws = rng.binomial(draws, detection)
                for i in np.flatnonzero(draws):
                    expected.append(ObservationRecord(
                        f"site{site + 1:04d}", f"sp{i + 1:04d}",
                        int(draws[i])))
            table = sample_site_records(probs, 12, n, detection, seed=8)
            assert list(table) == expected
            assert table.rows.tolist() == list(range(1, len(expected) + 1))

    # A uniform lands on a CDF entry, or past an unnormalised last entry,
    # with probability about 2**-53 per token, which no sample-size oracle
    # can see; these tests feed such uniforms in directly.
    @staticmethod
    def species_drawn(monkeypatch, probs, uniforms):
        drawn = []

        def random(out):
            out[:] = uniforms
            drawn.append(out.size)

        fake = SimpleNamespace(random=random)
        monkeypatch.setattr(synth, "streams",
                            lambda seed, key, indices: (fake for _ in indices))
        table = sample_site_records(np.array(probs), 1, len(uniforms))
        assert drawn == [len(uniforms)]  # the site drew the fake uniforms
        return [r.species_id for r in table]

    def test_uniform_on_a_cdf_entry_draws_the_next_species(self, monkeypatch):
        drawn = self.species_drawn(monkeypatch, [0.0, 0.5, 0.0, 0.5, 0.0],
                                   [0.0, 0.5])
        assert drawn == ["sp0002", "sp0004"]

    def test_uniform_below_one_draws_the_last_species(self, monkeypatch):
        probs = [0.1] * 10
        uniform = np.nextafter(1.0, 0.0)
        assert np.cumsum(probs)[-1] <= uniform  # unnormalised, it falls past
        assert self.species_drawn(monkeypatch, probs, [uniform]) == ["sp0010"]

    @pytest.mark.parametrize("per_site_n", [1, 10],
                             ids=["categorical", "multinomial"])
    @pytest.mark.parametrize("probs", [
        [np.nan, 0.5, 0.25, 0.25],
        [-0.1, 0.6, 0.25, 0.25],
        [0.35, 0.25, 0.25, 0.25],
    ], ids=["nan", "negative", "sum-1.1"])
    def test_invalid_population(self, probs, per_site_n):
        with pytest.raises(InvalidSpec):
            sample_site_records(np.array(probs), 3, per_site_n)

    @pytest.mark.parametrize("species, per_site_n", [(200, 5), (10, 20)],
                             ids=["categorical", "multinomial"])
    def test_thinning_holds_nothing_per_site(self, species, per_site_n):
        # The traced peak that each more site adds, between 1,024 and 3,072
        # sites (whole blocks of streams, so fixed costs cancel): at
        # detection 0.7 at most 10% above detection 1, where nothing is
        # thinned. Keeping each site's generator until a thinning step after
        # the draw reads 9x (categorical) and 2.3x (multinomial) here.
        probs = generate(PopulationSpec(species, "zipf", alpha=1.0))
        # Untraced, so that first-use allocations fall outside the peaks.
        sample_site_records(probs, 3072, per_site_n, 0.7)

        def peak(m, detection):
            tracemalloc.start()
            try:
                sample_site_records(probs, m, per_site_n, detection, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def per_site(detection):
            return (peak(3072, detection) - peak(1024, detection)) / 2048

        assert per_site(0.7) <= 1.1 * per_site(1.0)

    def test_invalid_detection(self):
        probs = generate(PopulationSpec(5, "uniform"))
        with pytest.raises(InvalidSpec):
            tally_incidence(sample_site_records(probs, 3, 10, detection=0.0))


# The per-site sampler is chosen by cost: per_site_n < K/2 draws categorical
# tokens, otherwise a multinomial. Both must give each site a
# multinomial(per_site_n, population) count vector. The oracles below check
# the moments of that distribution on seeds used nowhere else.
BRANCHES = {"categorical": (100, 40), "multinomial": (20, 200)}  # K, n
SHAPES = {
    "uniform": {"distribution": "uniform"},
    "zipf": {"distribution": "zipf", "alpha": 1.1},
    "lognormal": {"distribution": "lognormal", "sigma": 1.0, "seed": 71},
}
ORACLE_SITES = 3000


def site_count_matrix(population, m, n, seed):
    """Sites x species counts drawn by sample_site_records."""
    table = sample_site_records(population, m, n, seed=seed)
    matrix = np.zeros((m, population.size), dtype=np.int64)
    matrix[table.columns["sample_id"].codes,
           table.columns["species_id"].codes] = table.counts
    return matrix


@pytest.fixture(scope="module", params=[
    (branch, shape) for branch in BRANCHES for shape in SHAPES],
    ids=lambda case: "-".join(case))
def oracle_draw(request):
    branch, shape = request.param
    k, n = BRANCHES[branch]
    probs = generate(PopulationSpec(k, **SHAPES[shape]))
    seed = 9100 + list(BRANCHES).index(branch) * 10 + list(SHAPES).index(shape)
    return probs, n, site_count_matrix(probs, ORACLE_SITES, n, seed)


class TestSiteDistributionOracle:
    def test_per_species_mean(self, oracle_draw):
        probs, n, matrix = oracle_draw
        m = matrix.shape[0]
        se = np.sqrt(n * probs * (1 - probs) / m)
        assert (np.abs(matrix.mean(axis=0) - n * probs) <= 4 * se).all()

    def test_per_species_variance(self, oracle_draw):
        # Var of the sample variance from the binomial marginal's central
        # moments: mu4 = npq(1 + 3(n-2)pq).
        probs, n, matrix = oracle_draw
        m = matrix.shape[0]
        npq = n * probs * (1 - probs)
        mu4 = npq * (1 + 3 * (n - 2) * probs * (1 - probs))
        se = np.sqrt(mu4 / m - npq ** 2 * (m - 3) / (m * (m - 1)))
        assert (np.abs(matrix.var(axis=0, ddof=1) - npq) <= 4 * se).all()

    def test_pooled_chi_square(self, oracle_draw):
        probs, n, matrix = oracle_draw
        expected = matrix.shape[0] * n * probs
        chi2 = (((matrix.sum(axis=0) - expected) ** 2) / expected).sum()
        df = probs.size - 1
        assert abs(chi2 - df) <= 4 * np.sqrt(2 * df)


def test_more_tokens_never_fewer_expected_species():
    probs = generate(PopulationSpec(200, "zipf", alpha=1.1))
    sizes = [200, 1000, 5000]
    means = []
    for n in sizes:
        observed = [sample(probs, n, seed=s).types for s in range(40)]
        means.append(sum(observed) / len(observed))
    assert means[0] < means[1] < means[2]
