import re

import numpy as np
import pytest

from volcur import (
    PiecewiseDyadicSpectrum,
    Spectrum,
    ValidationError,
    bound_reports,
    esp_geometric_ratio,
    esp_ratio,
    expected_error_exact,
    figure_rows,
    generate_geometric,
    generate_power_law,
    make_spectrum,
    optimal_error,
)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def dyadic_bound(spec, k: int, base: float, lmax: int) -> float:
    """The majorant column of bound_reports under a dyadic mu."""
    mu = PiecewiseDyadicSpectrum(lmax=lmax, base=base)
    return bound_reports(spec, [k], mu=mu)[0].dyadic_bound


class TestSimpleBound:
    """The tail sum optimal_error(s, k) bounds e_{k+1}/e_k."""

    def test_hand_case(self):
        assert optimal_error(make_spectrum([2.0, 1.0]), 1) == pytest.approx(1.0)

    def test_dominates_ratio_randomized(self):
        rng = np.random.default_rng(41)
        for trial in range(200):
            n = int(rng.integers(1, 14))
            s = make_spectrum(np.exp(rng.normal(0.0, 2.0, n)))
            k = int(rng.integers(0, n))
            assert esp_ratio(s, k) <= optimal_error(s, k) * (1.0 + 1e-12)

    def test_tight_for_single_tail_entry(self):
        s = make_spectrum([5.0])
        assert esp_ratio(s, 0) == pytest.approx(optimal_error(s, 0))

    def test_k_validation(self):
        with pytest.raises(ValidationError):
            optimal_error(make_spectrum([1.0]), -1)
        with pytest.raises(ValidationError, match="^k must be at most 0, got 1$"):
            bound_reports(make_spectrum([1.0]), [1])


class TestGeometricExpectedError:
    """(k+1) q esp_geometric_ratio(q, n, k) is the expected error on (q, ..., q^n)."""

    @staticmethod
    def expected(q: float, n: int, k: int) -> float:
        return (k + 1) * q * esp_geometric_ratio(q, n, k)

    def test_hand_case(self):
        # q = 1/2, n = 2, k = 1: expected error is exactly 1/3
        assert self.expected(0.5, 2, 1) == pytest.approx(1.0 / 3.0)

    def test_matches_materialized_spectrum(self):
        for q in (0.2, 0.6, 0.95):
            for n in (2, 5, 17):
                spec = make_spectrum(q ** np.arange(1, n + 1))
                for k in range(1, n):
                    closed = self.expected(q, n, k)
                    direct = expected_error_exact(spec, k)
                    assert rel_err(closed, direct) < 1e-12

    def test_small_q_asymptotics(self):
        # leading term (k+1) q^{k+1}
        val = self.expected(1e-3, 10, 2)
        assert rel_err(val, 3e-9) < 5e-3

    def test_numpy_integers(self):
        assert (esp_geometric_ratio(0.5, np.int64(6), np.int64(2))
                == esp_geometric_ratio(0.5, 6, 2))

    def test_k_equals_n_gives_zero(self):
        assert esp_geometric_ratio(0.5, 4, 4) == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError, match="^k must be at most 4, got 5$"):
            esp_geometric_ratio(0.5, 4, 5)
        with pytest.raises(ValidationError, match="^k must be a nonnegative integer$"):
            esp_geometric_ratio(0.5, 4, 2.0)
        with pytest.raises(ValidationError):
            esp_geometric_ratio(1.0, 4, 1)


class TestDyadicUpperBound:
    """bound_reports' majorant column, with mu a dominating dyadic spectrum."""

    def test_dominates_inverse_square_ratio(self):
        for lmax in (4, 8, 10):
            n = 2 ** lmax - 1
            lam = generate_power_law(2.0, n)
            for k in (1, 2, 5, 10):
                if k >= n:
                    continue
                bound = dyadic_bound(lam, k, 0.25, lmax)
                assert esp_ratio(lam, k) <= bound * (1.0 + 1e-10)

    def test_equality_on_the_majorant_itself(self):
        d = PiecewiseDyadicSpectrum(lmax=8, base=0.25)
        lam = Spectrum(d)
        for k in (1, 3, 7):
            bound = dyadic_bound(lam, k, 0.25, 8)
            assert rel_err(bound, esp_ratio(lam, k)) < 1e-10

    def test_rejects_non_dominated_spectrum(self):
        lam = make_spectrum([2.0] + [0.1] * 6)
        with pytest.raises(ValidationError, match="^domination fails at position 1: "
                                                  "spectrum value 2 exceeds majorant value 1$"):
            dyadic_bound(lam, 1, 0.25, 3)

    @pytest.mark.parametrize("values, where", [
        ([1.0, 0.5, 0.5, 0.3, 0.2, 0.2, 0.2],
         "position 4: spectrum value 0.29999999999999999 exceeds majorant value 0.25"),
        ([1.0, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25, 1e-3],
         "only 7 entries but the spectrum is positive at position 8"),
    ])
    def test_names_the_first_violation(self, values, where):
        with pytest.raises(ValidationError, match=re.escape(where)):
            dyadic_bound(make_spectrum(values), 1, 0.5, 3)

    def test_rejects_spectrum_longer_than_majorant(self):
        lam = make_spectrum([1.0] * 4)
        with pytest.raises(ValidationError, match="^majorant has only 3 entries but the "
                                                  "spectrum is positive at position 4$"):
            dyadic_bound(lam, 1, 0.25, 2)

    def test_trailing_zeros_beyond_majorant_are_fine(self):
        lam = make_spectrum([1.0, 0.1, 0.1, 0.0, 0.0])
        assert dyadic_bound(lam, 1, 0.25, 2) > 0.0


class TestBoundReport:
    def test_small_spectrum_fields(self):
        [rep] = bound_reports(make_spectrum([4.0, 2.0, 1.0]), [1])
        assert rep.n == 3 and rep.k == 1
        assert rep.exact_ratio == pytest.approx(esp_ratio(make_spectrum([4.0, 2.0, 1.0]), 1))
        assert rep.simple_bound == pytest.approx(3.0)
        assert rep.optimal_error == pytest.approx(3.0)
        assert rep.expected_error == pytest.approx(2.0 * rep.exact_ratio)
        assert rep.dyadic_bound is None

    def test_k_at_or_above_rank_reports_zero(self):
        [rep] = bound_reports(make_spectrum([2.0, 1.0, 0.0]), [2])
        assert rep.exact_ratio == 0.0
        assert rep.expected_error == 0.0

    def test_large_plain_spectrum_gets_exact_ratio(self):
        lam = generate_power_law(2.0, 2 ** 17 - 1)
        [rep] = bound_reports(lam, [3], mu=PiecewiseDyadicSpectrum(lmax=17, base=0.25))
        assert rep.exact_ratio == esp_ratio(lam, 3)
        assert rep.expected_error == 4 * rep.exact_ratio
        assert rep.exact_ratio <= rep.dyadic_bound * (1.0 + 1e-12)
        assert rep.dyadic_bound <= rep.simple_bound * (1.0 + 1e-12)

    def test_dyadic_input_fast_path(self):
        d = PiecewiseDyadicSpectrum(lmax=20, base=0.25)
        [rep] = bound_reports(d, [8])
        assert rep.n == 2 ** 20 - 1
        assert rep.exact_ratio is not None
        assert rep.simple_bound == pytest.approx(d.tail_sum(8))
        assert rep.optimal_error == rep.simple_bound
        assert rep.exact_ratio <= rep.simple_bound


class TestFigureRows:
    def test_columns_are_ordered(self):
        lmax = 10
        n = 2 ** lmax - 1
        lam = generate_power_law(2.0, n)
        mu = PiecewiseDyadicSpectrum(lmax=lmax, base=0.25)
        rows = figure_rows(lam, mu, list(range(1, 33)))
        assert len(rows) == 32
        for k, r_lam, r_mu, sb in rows:
            assert r_lam <= r_mu * (1.0 + 1e-12)
            assert r_mu <= sb * (1.0 + 1e-12)
            assert sb == pytest.approx(mu.tail_sum(k), rel=1e-12)

    def test_identical_spectra_give_equal_ratio_columns(self):
        mu = PiecewiseDyadicSpectrum(lmax=7, base=0.25)
        rows = figure_rows(Spectrum(mu), mu, [1, 2, 3, 8])
        for _, r_lam, r_mu, _ in rows:
            assert rel_err(r_lam, r_mu) < 1e-10

    def test_ratio_lambda_matches_esp_ratio(self):
        lmax = 6
        lam = generate_power_law(2.0, 2 ** lmax - 1)
        mu = PiecewiseDyadicSpectrum(lmax=lmax, base=0.25)
        rows = figure_rows(lam, mu, [1, 2, 3])
        for k, r_lam, _, _ in rows:
            assert rel_err(r_lam, esp_ratio(lam, k)) < 1e-11

    def test_length_mismatch_rejected(self):
        lam = generate_power_law(2.0, 100)
        mu = PiecewiseDyadicSpectrum(lmax=7, base=0.25)
        with pytest.raises(ValidationError):
            figure_rows(lam, mu, [1])

    def test_k_range_validation(self):
        mu = PiecewiseDyadicSpectrum(lmax=3, base=0.25)
        with pytest.raises(ValidationError):
            figure_rows(Spectrum(mu), mu, [])
        with pytest.raises(ValidationError):
            figure_rows(Spectrum(mu), mu, [-1, 1])
        with pytest.raises(ValidationError):
            figure_rows(Spectrum(mu), mu, [7])
        # k = 0 is the trace in every column, as in bound_reports
        assert figure_rows(Spectrum(mu), mu, [0]) == [(0, 1.75, 1.75, 1.75)]

    def test_geometric_spectrum_under_half_base(self):
        # geometric decay 1/2 sits under the dyadic majorant with base 1/2
        lmax = 8
        n = 2 ** lmax - 1
        lam = generate_geometric(0.5, n)
        mu = PiecewiseDyadicSpectrum(lmax=lmax, base=0.5)
        rows = figure_rows(lam, mu, [1, 4, 16])
        for k, r_lam, r_mu, sb in rows:
            assert r_lam <= r_mu <= sb * (1.0 + 1e-12)
