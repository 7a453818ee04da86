import math

import pytest
from hypothesis import given, strategies as st

from silentspecies import (
    ABUNDANCE,
    INCIDENCE,
    EmptyDataset,
    FrequencySpectrum,
    Tally,
    InsufficientSamples,
    chao1,
    chao1_counts,
    chao2,
    coverage_of,
    diversity_proxies,
    estimate_tally,
    spectrum,
)


def abundance_spectrum(freqs):
    n = sum(r * f for r, f in freqs.items())
    return FrequencySpectrum(freqs, "abundance", n)


def incidence_spectrum(freqs, m):
    return FrequencySpectrum(freqs, "incidence", m)


class TestChao1:
    def test_march_genre_row(self):
        est = chao1_counts(390, 110, 63)
        assert est.f0_hat == pytest.approx(96.032, abs=1e-3)
        assert est.s_hat == pytest.approx(486.032, abs=1e-3)
        assert est.coverage == pytest.approx(0.802, abs=1e-3)

    def test_mazurka_genre_row(self):
        est = chao1_counts(109, 48, 12)
        assert est.f0_hat == 96.0
        assert est.s_hat == 205.0
        assert est.coverage == pytest.approx(0.532, abs=1e-3)

    def test_no_singletons_means_full_coverage(self):
        est = chao1_counts(308, 0, 71)
        assert est.f0_hat == 0.0
        assert est.coverage == 1.0
        assert est.estimator_name == "chao1"

    def test_pooled_vocabulary_row(self):
        est = chao1_counts(6015, 2488, 1097)
        assert est.coverage == pytest.approx(0.681, abs=1e-3)

    def test_no_doubletons_uses_bias_corrected_fallback(self):
        est = chao1_counts(5, 3, 0)
        assert est.f0_hat == 3.0  # 3*2/2
        assert est.estimator_name == "chao1-bc"
        assert est.used_fallback

    def test_from_spectrum(self):
        spec = abundance_spectrum({1: 110, 2: 63, 5: 217})
        assert chao1(spec).s_hat == chao1_counts(390, 110, 63).s_hat

    def test_rejects_incidence_spectrum(self):
        with pytest.raises(ValueError):
            chao1(incidence_spectrum({1: 2}, 3))


class TestChao2:
    def test_uncorrected_matches_abundance_arithmetic(self):
        est = chao2(incidence_spectrum({1: 41, 2: 5, 3: 161}, 50))
        assert est.f0_hat == pytest.approx(168.1)
        assert est.coverage == pytest.approx(0.552, abs=1e-3)
        ref = chao1_counts(207, 41, 5)
        assert est.s_hat == ref.s_hat
        assert est.coverage == ref.coverage

    def test_no_singletons_full_coverage_either_way(self):
        for correction in (False, True):
            est = chao2(incidence_spectrum({2: 4, 7: 6}, 10), correction)
            assert est.coverage == 1.0

    def test_small_sample_factor(self):
        spec = incidence_spectrum({1: 10, 2: 5, 4: 3}, 100)
        plain = chao2(spec, small_sample_correction=False)
        scaled = chao2(spec, small_sample_correction=True)
        assert scaled.f0_hat == pytest.approx(plain.f0_hat * 0.99)

    def test_correction_needs_two_samples(self):
        with pytest.raises(InsufficientSamples):
            chao2(incidence_spectrum({1: 3}, 1), small_sample_correction=True)


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
    est = chao1(abundance_spectrum(freqs))
    assert est.s_hat >= est.s_obs
    assert 0.0 < est.coverage <= 1.0
    assert est.s_hat == pytest.approx(est.s_obs + est.f0_hat)


@given(spectra, st.integers(min_value=2, max_value=7))
def test_uniform_scaling_preserves_coverage(freqs, k):
    base = chao1(abundance_spectrum(freqs))
    scaled = chao1(abundance_spectrum({r: k * f for r, f in freqs.items()}))
    if not base.used_fallback:
        assert scaled.f0_hat == pytest.approx(k * base.f0_hat)
        assert scaled.coverage == pytest.approx(base.coverage)


@given(spectra)
def test_no_singletons_iff_nothing_unseen(freqs):
    est = chao1(abundance_spectrum(freqs))
    if est.f1 == 0:
        assert est.coverage == 1.0
    if est.coverage < 1.0:
        assert est.f1 > 0
    # note: f1=1 with f2=0 also yields coverage 1 under the fallback form


@given(spectra, st.integers(min_value=1, max_value=1000))
def test_chao2_uncorrected_is_chao1_arithmetic(freqs, m):
    a = chao1(abundance_spectrum(freqs))
    b = chao2(incidence_spectrum(freqs, m))
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
    if mode == ABUNDANCE:
        expected = chao1(spec)
    else:
        expected = chao2(spec, correction)
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
    est = chao1(spectrum(tally))
    assert est.used_fallback


def test_coverage_of_rejects_nonpositive():
    with pytest.raises(ValueError):
        coverage_of(3, 0)
