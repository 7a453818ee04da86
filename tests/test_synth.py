import numpy as np
import pytest

from silentspecies import (
    InvalidSpec,
    ObservationRecord,
    estimate_tally,
    tally_incidence,
)
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

    @pytest.mark.parametrize("detection", [1.0, 0.5])
    def test_table_matches_per_site_record_loop(self, detection):
        probs = generate(PopulationSpec(60, "zipf", alpha=1.1))
        expected = []
        for site in range(12):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=8, spawn_key=(site,)))
            draws = rng.multinomial(40, probs)
            if detection < 1.0:
                draws = rng.binomial(draws, detection)
            for i in np.flatnonzero(draws):
                expected.append(ObservationRecord(
                    f"site{site + 1:04d}", f"sp{i + 1:04d}", int(draws[i])))
        table = sample_site_records(probs, 12, 40, detection, seed=8)
        assert list(table) == expected
        assert table.rows.tolist() == list(range(1, len(expected) + 1))

    def test_invalid_detection(self):
        probs = generate(PopulationSpec(5, "uniform"))
        with pytest.raises(InvalidSpec):
            tally_incidence(sample_site_records(probs, 3, 10, detection=0.0))


def test_more_tokens_never_fewer_expected_species():
    probs = generate(PopulationSpec(200, "zipf", alpha=1.1))
    sizes = [200, 1000, 5000]
    means = []
    for n in sizes:
        observed = [sample(probs, n, seed=s).types for s in range(40)]
        means.append(sum(observed) / len(observed))
    assert means[0] < means[1] < means[2]
