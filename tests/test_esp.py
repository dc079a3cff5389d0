import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import esp_brute
from volcur import (
    PiecewiseDyadicSpectrum,
    RankDeficiencyError,
    ValidationError,
    esp_all,
    esp_convolve,
    esp_dyadic_convolution,
    esp_geometric_closed_form,
    esp_geometric_ratio,
    esp_ratio,
    esp_ratio_head_tail,
    esp_ratios,
    esp_scale,
    generate_geometric,
    make_spectrum,
    split_head_tail,
)

spectrum_lists = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False), min_size=1, max_size=10)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestEspAll:
    def test_hand_example(self):
        # (1,2,3): e_0..e_3 = 1, 6, 11, 6
        v = esp_all(make_spectrum([1.0, 2.0, 3.0]), 3)
        assert np.allclose(v.coeffs, [1.0, 6.0, 11.0, 6.0], rtol=1e-14)

    def test_two_values(self):
        v = esp_all(make_spectrum([2.0, 1.0]), 2)
        assert np.allclose(v.coeffs, [1.0, 3.0, 2.0], rtol=0, atol=0)

    def test_order_past_length_gives_zeros(self):
        v = esp_all(make_spectrum([2.0, 1.0]), 4)
        assert v.coeffs[3] == 0.0
        assert v.coeffs[4] == 0.0

    def test_zero_spectrum(self):
        v = esp_all(make_spectrum([0.0, 0.0]), 2)
        assert np.array_equal(v.coeffs, [1.0, 0.0, 0.0])

    def test_order_zero(self):
        v = esp_all(make_spectrum([5.0]), 0)
        assert np.array_equal(v.coeffs, [1.0])

    def test_negative_order_rejected(self):
        with pytest.raises(ValidationError):
            esp_all(make_spectrum([1.0]), -1)

    @given(spectrum_lists)
    @settings(max_examples=200)
    def test_matches_subset_enumeration(self, xs):
        s = make_spectrum(xs)
        v = esp_all(s, s.n)
        for j in range(s.n + 1):
            assert rel_err(v.coeffs[j], esp_brute(s.values, j)) < 1e-11

    def test_large_values_within_range(self):
        s = make_spectrum([1e150, 5e149, 2e149])
        v = esp_all(s, 2)
        assert np.all(np.isfinite(v.coeffs))
        assert rel_err(v.coeffs[1], 1.7e150) < 1e-14
        assert rel_err(v.coeffs[2], 8e299) < 1e-14

    def test_overflowing_rescale_raises_cleanly(self):
        from volcur import NumericalError

        with pytest.raises(NumericalError):
            esp_all(make_spectrum([1e300, 5e299, 2e299]), 3)

    def test_ratio_is_scale_free(self):
        # the ratio survives scales where raw coefficients overflow
        big = esp_ratio(make_spectrum([2e300, 1e300]), 1)
        small = esp_ratio(make_spectrum([2e-300, 1e-300]), 1)
        assert rel_err(big, 2e300 / 3.0) < 1e-14
        assert rel_err(small, 2e-300 / 3.0) < 1e-14

    def test_monotone_in_each_entry(self):
        lo = esp_all(make_spectrum([3.0, 2.0, 1.0]), 3).coeffs
        hi = esp_all(make_spectrum([3.0, 2.5, 1.0]), 3).coeffs
        assert np.all(hi[1:] >= lo[1:])


class TestEspRatio:
    def test_hand_example(self):
        # (2,1): e_2/e_1 = 2/3
        assert esp_ratio(make_spectrum([2.0, 1.0]), 1) == pytest.approx(2.0 / 3.0)

    def test_k_zero_is_trace(self):
        s = make_spectrum([3.0, 2.0, 1.0])
        assert esp_ratio(s, 0) == pytest.approx(6.0)

    def test_k_at_rank_is_zero(self):
        assert esp_ratio(make_spectrum([2.0, 1.0]), 2) == 0.0

    def test_k_above_rank_raises(self):
        with pytest.raises(RankDeficiencyError):
            esp_ratio(make_spectrum([2.0, 1.0]), 3)

    def test_rank_deficient_spectrum(self):
        s = make_spectrum([2.0, 1.0, 0.0])
        assert esp_ratio(s, 1) == pytest.approx(2.0 / 3.0)
        assert esp_ratio(s, 2) == 0.0
        with pytest.raises(RankDeficiencyError):
            esp_ratio(s, 3)

    def test_matches_geometric_closed_form_at_every_k(self):
        # e_k(q^i) drops below 1e-308 from k = 47 (q = 0.5) and k = 121 (q = 0.9)
        for q in (0.5, 0.9):
            for n in (200, 2000):
                s = generate_geometric(q, n)
                # q^i underflows to zero from i = 1075 at q = 0.5, n = 2000
                kmax = min(n - 1, s.rank)
                ratios = esp_ratios(s, kmax)
                for k in range(kmax + 1):
                    assert rel_err(ratios[k], esp_geometric_ratio(q, n, k)) < 1e-12
                for k in (47, 121, kmax // 2, kmax):
                    assert esp_ratio(s, k) == ratios[k]
                if kmax < n - 1:
                    with pytest.raises(RankDeficiencyError):
                        esp_ratio(s, kmax + 1)

    def test_flat_spectrum_does_not_overflow(self):
        # e_k of 10^5 equal values exceeds 1e308 from k = 89
        n = 100_000
        s = make_spectrum(np.ones(n))
        for k in (100, 150):
            assert rel_err(esp_ratio(s, k), (n - k) / (k + 1)) < 1e-12

    @given(spectrum_lists, st.integers(min_value=0, max_value=9))
    @settings(max_examples=200)
    def test_bounded_by_tail_sum(self, xs, k):
        s = make_spectrum(xs)
        if k >= s.n:
            return
        r = esp_ratio(s, k)
        t = s.tail_sum(k)
        assert r <= t * (1.0 + 1e-12)

    @given(spectrum_lists, spectrum_lists, st.integers(min_value=0, max_value=9))
    @settings(max_examples=200)
    def test_monotone_under_domination(self, xs, ys, k):
        n = min(len(xs), len(ys))
        if k >= n:
            return
        lo = np.sort(np.asarray(xs[:n]))[::-1]
        hi = lo * (1.0 + np.abs(np.asarray(ys[:n])) / max(map(abs, ys)))
        hi = np.sort(hi)[::-1]
        r_lo = esp_ratio(make_spectrum(lo), k)
        r_hi = esp_ratio(make_spectrum(hi), k)
        assert r_lo <= r_hi * (1.0 + 1e-10)

    @given(spectrum_lists, spectrum_lists, st.integers(min_value=0, max_value=9))
    @settings(max_examples=200)
    def test_superadditive_in_the_spectrum(self, xs, ys, k):
        # ratio(x + y) >= ratio(x) + ratio(y), entrywise sum of sorted spectra
        n = min(len(xs), len(ys))
        if k >= n:
            return
        a = np.sort(np.asarray(xs[:n]))[::-1]
        b = np.sort(np.asarray(ys[:n]))[::-1]
        lhs = esp_ratio(make_spectrum(a + b), k)
        rhs = esp_ratio(make_spectrum(a), k) + esp_ratio(make_spectrum(b), k)
        assert lhs >= rhs * (1.0 - 1e-10)


class TestGeometricClosedForm:
    def test_small_case_by_hand(self):
        # spectrum (1, 1/2): e_1 = 3/2, e_2 = 1/2
        assert esp_geometric_closed_form(0.5, 2, 1) == pytest.approx(1.5)
        assert esp_geometric_closed_form(0.5, 2, 2) == pytest.approx(0.5)

    def test_k_zero_and_overlong(self):
        assert esp_geometric_closed_form(0.5, 4, 0) == 1.0
        assert esp_geometric_closed_form(0.5, 4, 5) == 0.0

    def test_matches_recursion_on_grid(self):
        for q in (0.1, 0.5, 0.9, 0.99):
            for n in (1, 2, 3, 5, 8, 13, 21, 34):
                v = esp_all(make_spectrum(q ** np.arange(n)), n)
                for k in range(n + 1):
                    closed = esp_geometric_closed_form(q, n, k)
                    if max(abs(closed), abs(v.coeffs[k])) < 1e-250:
                        continue
                    assert rel_err(closed, v.coeffs[k]) < 1e-12

    def test_ratio_example(self):
        # on (1, 1/2): e_2/e_1 = (1/2) / (3/2) = 1/3
        assert esp_geometric_ratio(0.5, 2, 1) == pytest.approx(1.0 / 3.0)

    def test_ratio_matches_quotient(self):
        for q in (0.3, 0.8):
            for n in (3, 7):
                for k in range(n):
                    lhs = esp_geometric_ratio(q, n, k)
                    rhs = (esp_geometric_closed_form(q, n, k + 1)
                           / esp_geometric_closed_form(q, n, k))
                    assert rel_err(lhs, rhs) < 1e-13


class TestConvolve:
    def test_concatenation_identity_small(self):
        a = make_spectrum([3.0, 1.0])
        b = make_spectrum([2.0])
        fa = esp_all(a, 3)
        fb = esp_all(b, 3)
        joined = esp_all(make_spectrum([3.0, 2.0, 1.0]), 3)
        conv = esp_convolve(fa, fb, 3)
        assert np.allclose(conv.coeffs, joined.coeffs, rtol=1e-14)

    def test_truncation(self):
        a = esp_all(make_spectrum([1.0, 1.0]), 2)
        c = esp_convolve(a, a, 1)
        assert c.m == 1
        assert c.coeffs[1] == pytest.approx(4.0)

    @given(spectrum_lists, spectrum_lists)
    @settings(max_examples=200)
    def test_concatenation_identity(self, xs, ys):
        m = len(xs) + len(ys)
        fa = esp_all(make_spectrum(xs), m)
        fb = esp_all(make_spectrum(ys), m)
        joined = esp_all(make_spectrum(xs + ys), m)
        conv = esp_convolve(fa, fb, m)
        for j in range(m + 1):
            assert rel_err(conv.coeffs[j], joined.coeffs[j]) < 1e-11

    @given(spectrum_lists, st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=200)
    def test_scale_rule(self, xs, s):
        # e_j(s * x) = s^j e_j(x)
        m = len(xs)
        base = esp_all(make_spectrum(xs), m)
        scaled = esp_all(make_spectrum([s * x for x in xs]), m)
        via_rule = esp_scale(base, s)
        for j in range(m + 1):
            assert rel_err(via_rule.coeffs[j], scaled.coeffs[j]) < 1e-11

    def test_scale_rejects_nonpositive(self):
        v = esp_all(make_spectrum([1.0]), 1)
        with pytest.raises(ValidationError):
            esp_scale(v, 0.0)


class TestHeadTailRatio:
    def test_hand_example(self):
        # (4,2,1), k=1: e_2/e_1 = 14/7 = 2, so gamma = ratio/pivot = 1
        split = split_head_tail(make_spectrum([4.0, 2.0, 1.0]), 1)
        gamma, ratio = esp_ratio_head_tail(split, 1)
        assert gamma == pytest.approx(1.0)
        assert ratio == pytest.approx(2.0)

    def test_matches_esp_ratio_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 12))
            s = make_spectrum(np.exp(rng.normal(0.0, 2.0, n)))
            k = int(rng.integers(0, s.n))
            split = split_head_tail(s, k)
            _, ratio = esp_ratio_head_tail(split, k)
            assert rel_err(ratio, esp_ratio(s, k)) < 1e-10

    def test_requires_matching_k(self):
        split = split_head_tail(make_spectrum([4.0, 2.0, 1.0]), 1)
        with pytest.raises(ValidationError):
            esp_ratio_head_tail(split, 2)


class TestDyadicConvolution:
    def test_single_level(self):
        d = PiecewiseDyadicSpectrum(lmax=1, base=0.5)
        v = esp_dyadic_convolution(d, 2)
        assert np.array_equal(v.coeffs, [1.0, 1.0, 0.0])

    def test_matches_direct_recursion(self):
        cases = [(lmax, base, min(20, 2**lmax - 1))
                 for lmax in range(1, 13) for base in (0.25, 0.5, 0.7)]
        # e_256 is about 1e-838 here: values underflow, ratios must not
        cases.append((12, 0.25, 257))
        for lmax, base, m in cases:
            d = PiecewiseDyadicSpectrum(lmax=lmax, base=base)
            fast = esp_dyadic_convolution(d, m)
            slow = esp_all(d.materialized, m)
            for j in range(m + 1):
                if max(abs(fast.coeffs[j]), abs(slow.coeffs[j])) < 1e-250:
                    continue
                assert rel_err(fast.coeffs[j], slow.coeffs[j]) < 1e-10
            fast_r = esp_ratios(d, m - 1)
            slow_r = esp_ratios(d.materialized, m - 1)
            assert np.all(np.abs(fast_r - slow_r) < 1e-10 * slow_r)

    def test_deep_instance_is_finite_and_positive(self):
        d = PiecewiseDyadicSpectrum(lmax=20, base=0.25)
        v = esp_dyadic_convolution(d, 33)
        assert np.all(np.isfinite(v.coeffs))
        assert np.all(v.coeffs[:34] > 0.0)
