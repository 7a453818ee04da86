import math

import pytest
from hypothesis import given, strategies as st

from silentspecies import (
    ABUNDANCE,
    INCIDENCE,
    EmptyDataset,
    Tally,
    InsufficientSamples,
    coverage_of,
    diversity_proxies,
    estimate,
    estimate_tally,
    spectrum,
)


def estimate_freqs(freqs, mode, m=0, correction=False):
    """`estimate` from an {r: f_r} spectrum."""
    return estimate(sum(freqs.values()), freqs.get(1, 0), freqs.get(2, 0),
                    mode, m, correction)


class TestChao1:
    def test_march_genre_row(self):
        est = estimate(390, 110, 63, ABUNDANCE)
        assert est.f0_hat == pytest.approx(96.032, abs=1e-3)
        assert est.s_hat == pytest.approx(486.032, abs=1e-3)
        assert est.coverage == pytest.approx(0.802, abs=1e-3)

    def test_mazurka_genre_row(self):
        est = estimate(109, 48, 12, ABUNDANCE)
        assert est.f0_hat == 96.0
        assert est.s_hat == 205.0
        assert est.coverage == pytest.approx(0.532, abs=1e-3)

    def test_no_singletons_means_full_coverage(self):
        est = estimate(308, 0, 71, ABUNDANCE)
        assert est.f0_hat == 0.0
        assert est.coverage == 1.0
        assert est.estimator_name == "chao1"

    def test_pooled_vocabulary_row(self):
        est = estimate(6015, 2488, 1097, ABUNDANCE)
        assert est.coverage == pytest.approx(0.681, abs=1e-3)

    def test_no_doubletons_uses_bias_corrected_fallback(self):
        est = estimate(5, 3, 0, ABUNDANCE)
        assert est.f0_hat == 3.0  # 3*2/2
        assert est.estimator_name == "chao1-bc"
        assert est.used_fallback


class TestChao2:
    def test_uncorrected_matches_abundance_arithmetic(self):
        est = estimate_freqs({1: 41, 2: 5, 3: 161}, INCIDENCE, 50)
        assert est.f0_hat == pytest.approx(168.1)
        assert est.coverage == pytest.approx(0.552, abs=1e-3)
        ref = estimate(207, 41, 5, ABUNDANCE)
        assert est.s_hat == ref.s_hat
        assert est.coverage == ref.coverage

    def test_no_singletons_full_coverage_either_way(self):
        for correction in (False, True):
            est = estimate_freqs({2: 4, 7: 6}, INCIDENCE, 10, correction)
            assert est.coverage == 1.0

    def test_small_sample_factor(self):
        freqs = {1: 10, 2: 5, 4: 3}
        plain = estimate_freqs(freqs, INCIDENCE, 100, correction=False)
        scaled = estimate_freqs(freqs, INCIDENCE, 100, correction=True)
        assert scaled.f0_hat == pytest.approx(plain.f0_hat * 0.99)

    def test_correction_needs_two_samples(self):
        with pytest.raises(InsufficientSamples):
            estimate_freqs({1: 3}, INCIDENCE, 1, correction=True)


class TestCoverage:
    def test_catalog_aggregate(self):
        assert coverage_of(48524, 78432) == pytest.approx(0.6187, abs=5e-4)

    def test_identity(self):
        assert coverage_of(123, 123) == 1.0

    def test_ontology(self):
        assert coverage_of(81, 85) == pytest.approx(0.953, abs=1e-3)


class TestDiversityProxies:
    def test_ttr(self):
        p = diversity_proxies(Tally({f"s{i}": 1 for i in range(389)} | {"big": 3823}, 4212, ABUNDANCE))
        assert p == pytest.approx(390 / 4212)
        assert p == pytest.approx(0.093, abs=1e-3)

    def test_str(self):
        p = diversity_proxies(Tally({f"s{i}": 1 for i in range(926)}, 185, INCIDENCE))
        assert p == pytest.approx(0.200, abs=1e-3)

    def test_degenerate_ttr(self):
        p = diversity_proxies(Tally({"a": 1}, 1, ABUNDANCE))
        assert p == 1.0


spectra = st.dictionaries(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=50),
    min_size=1,
    max_size=8,
)


@given(spectra)
def test_estimate_is_lower_bounded_by_observed(freqs):
    est = estimate_freqs(freqs, ABUNDANCE)
    assert est.s_hat >= est.s_obs
    assert 0.0 < est.coverage <= 1.0
    assert est.s_hat == pytest.approx(est.s_obs + est.f0_hat)


@given(spectra, st.integers(min_value=2, max_value=7))
def test_uniform_scaling_preserves_coverage(freqs, k):
    base = estimate_freqs(freqs, ABUNDANCE)
    scaled = estimate_freqs({r: k * f for r, f in freqs.items()}, ABUNDANCE)
    if not base.used_fallback:
        assert scaled.f0_hat == pytest.approx(k * base.f0_hat)
        assert scaled.coverage == pytest.approx(base.coverage)


@given(spectra)
def test_no_singletons_iff_nothing_unseen(freqs):
    est = estimate_freqs(freqs, ABUNDANCE)
    if est.f1 == 0:
        assert est.coverage == 1.0
    if est.coverage < 1.0:
        assert est.f1 > 0
    # note: f1=1 with f2=0 also yields coverage 1 under the fallback form


@given(spectra, st.integers(min_value=1, max_value=1000))
def test_chao2_uncorrected_is_chao1_arithmetic(freqs, m):
    a = estimate_freqs(freqs, ABUNDANCE)
    b = estimate_freqs(freqs, INCIDENCE, m)
    assert (a.s_hat, a.f0_hat, a.coverage) == (b.s_hat, b.f0_hat, b.coverage)


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1,
                max_size=40),
       st.sampled_from([ABUNDANCE, INCIDENCE]), st.booleans(),
       st.integers(min_value=0, max_value=20))
def test_estimate_tally_matches_spectrum_estimators(counts, mode, correction,
                                                    extra_samples):
    if mode == ABUNDANCE:
        total = sum(counts)
    else:
        total = max(2, *counts) + extra_samples
    tally = Tally({f"s{i}": c for i, c in enumerate(counts)}, total, mode)
    spec = spectrum(tally)
    expected = estimate(sum(spec.values()), spec.get(1, 0), spec.get(2, 0),
                        mode, total, correction)
    assert estimate_tally(tally, correction) == expected


def test_estimate_tally_skips_zero_counts():
    est = estimate_tally(Tally({"a": 0, "b": 1, "c": 2}, 3, ABUNDANCE))
    assert (est.s_obs, est.f1, est.f2) == (2, 1, 1)
    with pytest.raises(EmptyDataset):
        estimate_tally(Tally({"a": 0}, 0, INCIDENCE))


def test_all_singletons_triggers_fallback():
    # TTR = 1 means every species is a singleton, so f2 = 0
    tally = Tally({"a": 1, "b": 1, "c": 1}, 3, ABUNDANCE)
    assert diversity_proxies(tally) == 1.0
    est = estimate_tally(tally)
    assert est.used_fallback


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        estimate(3, 1, 1, "bogus")


def test_coverage_of_rejects_nonpositive():
    with pytest.raises(ValueError):
        coverage_of(3, 0)
