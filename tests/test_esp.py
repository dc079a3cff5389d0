import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    esp_brute,
    longdouble_prefix_rows,
    longdouble_ratios,
    sequential_marginals,
    sequential_prefix_rows,
    sequential_ratios,
    unit_scaled,
)
from volcur import (
    DENSE_CAP,
    CapExceededError,
    NumericalError,
    PiecewiseDyadicSpectrum,
    RankDeficiencyError,
    Spectrum,
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
    generate_dyadic,
    generate_geometric,
    generate_power_law,
    make_spectrum,
    parse_generator_spec,
    split_head_tail,
)
from volcur.esp import (
    _CHUNK, _LANES, _prefix_rows, _scan_coeffs, _tail_bound, _tail_order, esp_marginals,
)

spectrum_lists = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False), min_size=1, max_size=10)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestEspAll:
    def test_hand_example(self):
        # (1,2,3): e_0..e_3 = 1, 6, 11, 6, exactly (see TestExactness)
        s = make_spectrum([1.0, 2.0, 3.0])
        assert esp_all(s, 3).coeffs.tolist() == [1.0, 6.0, 11.0, 6.0]
        assert esp_ratio(s, 1) == float(Fraction(11, 6))

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


def integer_esps(values) -> list[int]:
    """e_0..e_n of integers, in Python integers."""
    e = [1] + [0] * len(values)
    for v in values:
        for j in range(len(values), 0, -1):
            e[j] += v * e[j - 1]
    return e


# n integers below 2^(53/n) - 1 have every e_j below (1 + max)^n <= 2^53
integer_spectra = st.integers(1, 12).flatmap(lambda n: st.lists(
    st.integers(0, int(2 ** (53 / n)) - 1), min_size=n, max_size=n))


class TestExactness:
    """Integer spectra whose ESPs fit 53 bits: every value is exact, and
    every ratio one correctly rounded division."""

    @given(integer_spectra)
    @settings(max_examples=300)
    def test_integer_spectra(self, xs):
        e = integer_esps(xs)
        assert max(e) < 2**53
        s = make_spectrum(np.array(xs, dtype=np.float64))
        assert esp_all(s, s.n).coeffs.tolist() == [float(x) for x in e]
        rank = sum(x > 0 for x in xs)
        want = [float(Fraction(a, b)) for a, b in zip(e[1:] + [0], e[: rank + 1])]
        assert esp_ratios(s, rank).tolist() == want

    def test_integer_spectrum_across_chunks(self):
        # 3 * C(n, j) for n = 3 chunks + 7: the blocked scan adds integers exactly
        xs = [3] * (3 * _CHUNK + 7)
        n = len(xs)
        e = [1, 3 * n, 9 * n * (n - 1) // 2]
        assert max(e) < 2**53
        assert esp_all(make_spectrum(np.array(xs, dtype=np.float64)), 2).coeffs.tolist() == e

    def test_ones_past_a_chunk_give_binomials(self):
        # a head of _CHUNK ones and a tail of the rest, joined by the union rule
        n = 100_000
        e = [math.comb(n, j) for j in range(4)]
        assert max(e) < 2**53
        assert esp_all(make_spectrum(np.ones(n)), 3).coeffs.tolist() == e


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

    @pytest.mark.parametrize("spec, n", [(make_spectrum([3.0, 2.0, 1.0]), 3),
                                         (generate_dyadic(3, 0.5), 7)])
    def test_arrays_are_sized_by_the_spectrum(self, spec, n):
        # e_j = 0 past n is implied, so a huge k allocates nothing
        with pytest.raises(RankDeficiencyError,
                           match=f"^e_{n + 1} = 0: spectrum rank is below {n + 1}$"):
            esp_ratios(spec, 10**18)

    def test_huge_truncation_order_is_refused_before_allocating(self):
        with pytest.raises(CapExceededError, match=f"^truncation order m = {10**18} exceeds "
                                                   f"the dense-array cap {DENSE_CAP}$"):
            esp_all(make_spectrum([1.0]), 10**18)
        assert esp_all(make_spectrum([1.0]), 3).coeffs.tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_rank_deficient_spectrum(self):
        s = make_spectrum([2.0, 1.0, 0.0])
        assert esp_ratio(s, 1) == pytest.approx(2.0 / 3.0)
        assert esp_ratio(s, 2) == 0.0
        with pytest.raises(RankDeficiencyError):
            esp_ratio(s, 3)

    def test_matches_geometric_closed_form_at_every_k(self):
        # e_k(q^i) drops below 1e-308 from k = 47 (q = 0.5) and k = 121 (q = 0.9);
        # n = 10000 runs the prefix rows as a scan over several blocks
        for q in (0.5, 0.9):
            for n in (200, 2000, 10_000):
                s = generate_geometric(q, n)
                # q^i underflows to zero from i = 1075 at q = 0.5, n >= 2000
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


def scan(values: np.ndarray, m: int) -> list:
    """_prefix_rows gathered per order: one (row, exponent) per chunk.

    row[i] * 2**exponent = e_j(values[:lo + i + 1]) for the chunk starting at lo.
    Checks each chunk's (depth, lanes) block and that its padding holds the
    chunk's running total.
    """
    orders = {}
    for j, lo, block, exponent in _prefix_rows(Spectrum(values), m):
        chunks = orders.setdefault(j, [])
        assert lo == _CHUNK * len(chunks)
        size = min(values.size - lo, _CHUNK)
        depth = -(-size // _LANES)
        assert block.shape == (depth, -(-size // depth))
        entries = block.T.reshape(-1)
        assert np.all(entries[size - 1:] == block[-1, -1])
        chunks.append((entries[:size].copy(), exponent))
    assert len(orders) == min(m, values.size) + 1
    return list(orders.values())


def joined(chunks: list) -> tuple[np.ndarray, int]:
    """One order's chunks as one row at the last chunk's exponent."""
    last = chunks[-1][1]
    return np.concatenate([np.ldexp(row, e - last) for row, e in chunks]), last


def chunk_exponents(values: np.ndarray, m: int) -> dict:
    """The exponents each order takes over the chunks, without keeping rows."""
    exps = {}
    for j, _, _, exponent in _prefix_rows(Spectrum(values), m):
        exps.setdefault(j, set()).add(exponent)
    return exps


class TestBlockedScan:
    """_prefix_rows against the serial recursion it replaced.

    The serial rows run on the values the scan runs on, divided by the
    power of two 2^u at or below the leading value; the scan's exponents
    carry the factor 2^(j*u) besides.
    """

    @staticmethod
    def spectra(n: int):
        rng = np.random.default_rng(n)
        yield np.sort(rng.random(n))[::-1]
        # exact zeros at the end: rank below n
        yield np.concatenate([np.sort(rng.random(n - n // 3))[::-1], np.zeros(n // 3)])

    @pytest.mark.parametrize("n", [1, 2, 37, 1000, _LANES - 1, _LANES])
    def test_bit_identical_up_to_lanes(self, n):
        for values in self.spectra(n):
            x, u = unit_scaled(values)
            pairs = zip(scan(values, 40), sequential_prefix_rows(x, 40))
            for j, (chunks, (row, want)) in enumerate(pairs):
                [(got, exponent)] = chunks          # one chunk, of depth 1
                assert exponent == want + j * u
                assert np.array_equal(got, row[1:])

    def test_bit_identical_through_rescales(self):
        # row j shrinks by about 2^-j: a rescale every 256 / j rows or so
        values = generate_geometric(0.5, 2000).values     # leads with 1.0: u = 0
        rescaled = 0
        pairs = zip(scan(values, 1100), sequential_prefix_rows(values, 1100))
        for [(got, exponent)], (row, want) in pairs:
            rescaled += exponent != -512
            assert exponent == want
            assert np.array_equal(got, row[1:])
        assert rescaled > 1000

    @pytest.mark.parametrize("n", [_LANES - 1, _LANES, _LANES + 1, 3 * _LANES + 7,
                                   _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
    def test_padding(self, n):
        # the values' referee is the long-double recursion: the double one
        # drifts by up to 3.3e-14 at 3 chunks + 7 (7.0e-15 for the scan)
        values = np.sort(np.random.default_rng(n).random(n))[::-1]
        x, u = unit_scaled(values)
        pairs = zip(scan(values, 30), sequential_prefix_rows(x, 30),
                    longdouble_prefix_rows(x, 30))
        for j, (chunks, (row, want), exact) in enumerate(pairs):
            assert len(chunks) == -(-n // _CHUNK)
            got, exponent = joined(chunks)
            assert exponent == want + j * u
            exponent -= j * u
            np.testing.assert_allclose(np.ldexp(got, exponent), exact[1:].astype(np.float64),
                                       rtol=2e-14, atol=0.0)
            if n <= _LANES:
                assert np.array_equal(got, row[1:])

    def test_marginals_of_a_zero_spectrum_are_zero(self):
        assert not np.any(esp_marginals(make_spectrum([0.0, 0.0]), 2))

    @pytest.mark.parametrize("n, k", [(40, 12), (_LANES, 20), (3 * _LANES + 7, 20),
                                      (_CHUNK, 20), (3 * _CHUNK + 7, 20)])
    def test_marginals_match_sequential(self, n, k):
        values = np.sort(np.random.default_rng(n).random(n))[::-1]
        got = esp_marginals(make_spectrum(values), k)
        want = sequential_marginals(values, k)
        if n <= _LANES:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(np.float64).eps,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("text, kmax", [
        ("pow:p=2,n=1000000", 64), ("pow:p=1,n=100000", 32),
        (f"pow:p=2,n={3 * _CHUNK + 7}", 64), (f"pow:p=1.5,n={3 * _CHUNK + 7}", 64),
        (f"geom:q=0.9999,n={3 * _CHUNK + 7}", 64)])
    def test_at_least_as_accurate_as_sequential(self, text, kmax):
        # past one chunk the tail is scanned only to its certified order;
        # measured, in the order above: 9.4e-15 vs 1.4e-13, 4.0e-15 vs 2.9e-14,
        # 9.3e-15 vs 8.3e-14, 7.4e-15 vs 6.3e-14, 6.3e-15 vs 7.7e-14
        s = parse_generator_spec(text)
        want = longdouble_ratios(s.values, kmax)

        def worst(ratios):
            return float(np.max(np.abs(ratios - want) / want))

        blocked = worst(esp_ratios(s, kmax))
        assert blocked <= worst(sequential_ratios(s.values, kmax))
        assert blocked < 2e-14

    @pytest.mark.parametrize("text, m", [
        (f"pow:p=2,n={3 * _CHUNK + 7}", 65), (f"pow:p=1.5,n={3 * _CHUNK + 7}", 65),
        (f"geom:q=0.9999,n={3 * _CHUNK + 7}", 65), ("pow:p=1,n=100000", 33)])
    def test_tail_order_bounds_what_it_drops(self, text, m):
        # the tail scanned to full order: the terms of e_j past the certified
        # order sum to at most 2^-64 e_j(head), and the orders kept are the
        # full scan's bit for bit
        spec = parse_generator_spec(text)
        head = _scan_coeffs(spec._slice(0, _CHUNK), m)
        total = _tail_bound(spec)
        assert total >= spec.tail_sum(_CHUNK)
        order = _tail_order(head, total)
        assert 0 < order < m
        tail = spec._slice(_CHUNK, spec.n)
        (hm, he), (tm, te) = head, _scan_coeffs(tail, m)
        kept = _scan_coeffs(tail, order)
        assert np.array_equal(kept[0], tm[: order + 1])
        assert np.array_equal(kept[1], te[: order + 1])
        for j in range(m + 1):
            dropped = sum(math.ldexp(float(hm[j - a] * tm[a]), int(he[j - a] + te[a] - he[j]))
                          for a in range(order + 1, j + 1))
            assert dropped <= 2.0**-64 * hm[j]

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(np.float64).eps,
                        reason="long double is no wider than double here")
    def test_deep_spectrum_rescales_inside_later_chunks(self):
        # lambda_i = 1/i over 4 chunks; the bound was set before the first run
        s = generate_power_law(1.0, 200_000)
        moved = [j for j, exps in chunk_exponents(s.values, 200).items() if len(exps) > 1]
        assert len(moved) > 50
        want = longdouble_ratios(s.values, 199)

        def worst(ratios):
            return float(np.max(np.abs(ratios - want) / want))

        blocked = worst(esp_ratios(s, 199))
        assert blocked <= worst(sequential_ratios(s.values, 199))
        assert blocked < 3e-14

    def test_flat_spectrum_across_chunks(self):
        # e_j of n ones is C(n, j): ratio (n - k) / (k + 1), marginal r / i
        # for i >= r; the bounds were set before the first run
        n, k = 3 * _CHUNK + 7, 20
        values = np.ones(n)
        moved = [j for j, exps in chunk_exponents(values, k).items() if len(exps) > 1]
        assert moved
        kmax = np.arange(200)
        np.testing.assert_allclose(esp_ratios(make_spectrum(values), 199),
                                   (n - kmax) / (kmax + 1), rtol=3e-14, atol=0.0)
        got = esp_marginals(make_spectrum(values), k)
        i = np.arange(n + 1)
        assert not np.any(got[0])
        for r in range(1, k + 1):
            want = np.where(i >= r, r / np.maximum(i, 1), 0.0)
            np.testing.assert_allclose(got[r], want, rtol=1e-13, atol=0.0)


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

    def test_scale_past_double_range_is_numerical(self):
        # 3 * 1e200 fits, 3 * 1e400 does not: a NumericalError, like esp_all's
        v = esp_all(make_spectrum([1.0, 1.0, 1.0]), 3)
        with pytest.raises(NumericalError, match="overflow double precision"):
            esp_scale(v, 1e200)

    def test_convolve_pads_past_both_lengths(self):
        one = esp_all(make_spectrum([1.0]), 1)
        assert esp_convolve(one, one, 4).coeffs.tolist() == [1.0, 2.0, 1.0, 0.0, 0.0]


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


class TestNumpyIntegers:
    """Orders and k accept numpy integers, and still reject non-integers."""

    spec = make_spectrum([3.0, 2.0, 1.0])

    def test_esp_all(self):
        assert np.array_equal(esp_all(self.spec, np.int64(2)).coeffs,
                              esp_all(self.spec, 2).coeffs)
        d = PiecewiseDyadicSpectrum(lmax=3, base=0.5)
        assert np.array_equal(esp_dyadic_convolution(d, np.int64(4)).coeffs,
                              esp_dyadic_convolution(d, 4).coeffs)

    def test_esp_ratio_and_ratios(self):
        assert esp_ratio(self.spec, np.int64(1)) == esp_ratio(self.spec, 1)
        assert np.array_equal(esp_ratios(self.spec, np.int64(2)), esp_ratios(self.spec, 2))

    def test_esp_convolve(self):
        f = esp_all(self.spec, 3)
        assert np.array_equal(esp_convolve(f, f, np.int64(3)).coeffs,
                              esp_convolve(f, f, 3).coeffs)

    def test_esp_ratio_head_tail(self):
        split = split_head_tail(self.spec, 1)
        assert esp_ratio_head_tail(split, np.int64(1)) == esp_ratio_head_tail(split, 1)

    def test_non_integers_keep_their_messages(self):
        f = esp_all(self.spec, 3)
        with pytest.raises(ValidationError, match="^truncation order m must be a nonnegative integer$"):
            esp_all(self.spec, 2.0)
        with pytest.raises(ValidationError, match="^truncation order m must be a nonnegative integer$"):
            esp_convolve(f, f, np.int64(-1))
        with pytest.raises(ValidationError, match="^k must be a nonnegative integer$"):
            esp_ratio(self.spec, 1.5)
        with pytest.raises(ValidationError, match="^k must be a nonnegative integer$"):
            esp_ratio_head_tail(split_head_tail(self.spec, 1), 1.0)


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
