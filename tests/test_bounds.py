import numpy as np
import pytest

from volcur import (
    BoundInapplicableError,
    BoundReport,
    PiecewiseDyadicSpectrum,
    ValidationError,
    bound_report,
    dyadic_upper_bound,
    esp_ratio,
    expected_error_exact,
    figure_rows,
    generate_geometric,
    generate_power_law,
    geometric_expected_error,
    make_spectrum,
    simple_bound,
)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestSimpleBound:
    def test_hand_case(self):
        assert simple_bound(make_spectrum([2.0, 1.0]), 1) == pytest.approx(1.0)

    def test_dominates_ratio_randomized(self):
        rng = np.random.default_rng(41)
        for trial in range(200):
            n = int(rng.integers(1, 14))
            s = make_spectrum(np.exp(rng.normal(0.0, 2.0, n)))
            k = int(rng.integers(0, n))
            assert esp_ratio(s, k) <= simple_bound(s, k) * (1.0 + 1e-12)

    def test_tight_for_single_tail_entry(self):
        s = make_spectrum([5.0])
        assert esp_ratio(s, 0) == pytest.approx(simple_bound(s, 0))

    def test_k_validation(self):
        with pytest.raises(ValidationError):
            simple_bound(make_spectrum([1.0]), 1)


class TestGeometricExpectedError:
    def test_hand_case(self):
        # q = 1/2, n = 2, k = 1: expected error is exactly 1/3
        assert geometric_expected_error(0.5, 2, 1) == pytest.approx(1.0 / 3.0)

    def test_matches_materialized_spectrum(self):
        for q in (0.2, 0.6, 0.95):
            for n in (2, 5, 17):
                spec = make_spectrum(q ** np.arange(1, n + 1))
                for k in range(1, n):
                    closed = geometric_expected_error(q, n, k)
                    direct = expected_error_exact(spec, k)
                    assert rel_err(closed, direct) < 1e-12

    def test_small_q_asymptotics(self):
        # leading term (k+1) q^{k+1}
        val = geometric_expected_error(1e-3, 10, 2)
        assert rel_err(val, 3e-9) < 5e-3

    def test_numpy_integers(self):
        assert (geometric_expected_error(0.5, np.int64(6), np.int64(2))
                == geometric_expected_error(0.5, 6, 2))

    def test_k_equals_n_gives_zero(self):
        assert geometric_expected_error(0.5, 4, 4) == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            geometric_expected_error(0.5, 4, 0)
        with pytest.raises(ValidationError, match="^k must be a positive integer$"):
            geometric_expected_error(0.5, 4, 2.0)
        with pytest.raises(ValidationError):
            geometric_expected_error(1.0, 4, 1)


class TestDyadicUpperBound:
    def test_dominates_inverse_square_ratio(self):
        for lmax in (4, 8, 10):
            n = 2 ** lmax - 1
            lam = generate_power_law(2.0, n)
            for k in (1, 2, 5, 10):
                if k >= n:
                    continue
                bound = dyadic_upper_bound(lam, k, 0.25, lmax)
                assert esp_ratio(lam, k) <= bound * (1.0 + 1e-10)

    def test_equality_on_the_majorant_itself(self):
        d = PiecewiseDyadicSpectrum(lmax=8, base=0.25)
        lam = d.materialized
        for k in (1, 3, 7):
            bound = dyadic_upper_bound(lam, k, 0.25, 8)
            assert rel_err(bound, esp_ratio(lam, k)) < 1e-10

    def test_rejects_non_dominated_spectrum(self):
        lam = make_spectrum([2.0] + [0.1] * 6)
        with pytest.raises(BoundInapplicableError, match="position 1"):
            dyadic_upper_bound(lam, 1, 0.25, 3)

    @pytest.mark.parametrize("values, where", [
        ([1.0, 0.5, 0.5, 0.3, 0.2, 0.2, 0.2],
         "position 4: spectrum value 0.29999999999999999 exceeds majorant value 0.25"),
        ([1.0, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25, 1e-3],
         "only 7 entries but the spectrum is positive at position 8"),
    ])
    def test_names_the_first_violation(self, values, where):
        with pytest.raises(BoundInapplicableError) as info:
            dyadic_upper_bound(make_spectrum(values), 1, 0.5, 3)
        assert where in str(info.value)

    def test_rejects_spectrum_longer_than_majorant(self):
        lam = make_spectrum([1.0] * 4)
        with pytest.raises(BoundInapplicableError):
            dyadic_upper_bound(lam, 1, 0.25, 2)

    def test_trailing_zeros_beyond_majorant_are_fine(self):
        lam = make_spectrum([1.0, 0.1, 0.1, 0.0, 0.0])
        assert dyadic_upper_bound(lam, 1, 0.25, 2) > 0.0


class TestBoundReport:
    def test_small_spectrum_fields(self):
        rep = bound_report(make_spectrum([4.0, 2.0, 1.0]), 1)
        assert rep.n == 3 and rep.k == 1
        assert rep.exact_ratio == pytest.approx(esp_ratio(make_spectrum([4.0, 2.0, 1.0]), 1))
        assert rep.simple_bound == pytest.approx(3.0)
        assert rep.optimal_error == pytest.approx(3.0)
        assert rep.expected_error == pytest.approx(2.0 * rep.exact_ratio)
        assert rep.dyadic_bound is None

    def test_k_at_or_above_rank_reports_zero(self):
        rep = bound_report(make_spectrum([2.0, 1.0, 0.0]), 2)
        assert rep.exact_ratio == 0.0
        assert rep.expected_error == 0.0

    def test_large_plain_spectrum_gets_exact_ratio(self):
        lam = generate_power_law(2.0, 2 ** 17 - 1)
        rep = bound_report(lam, 3, mu=PiecewiseDyadicSpectrum(lmax=17, base=0.25))
        assert rep.exact_ratio == esp_ratio(lam, 3)
        assert rep.expected_error == 4 * rep.exact_ratio
        assert rep.exact_ratio <= rep.dyadic_bound * (1.0 + 1e-12)
        assert rep.dyadic_bound <= rep.simple_bound * (1.0 + 1e-12)

    def test_dyadic_input_fast_path(self):
        d = PiecewiseDyadicSpectrum(lmax=20, base=0.25)
        rep = bound_report(d, 8)
        assert rep.n == 2 ** 20 - 1
        assert rep.exact_ratio is not None
        assert rep.simple_bound == pytest.approx(d.tail_sum(8))
        assert rep.optimal_error == rep.simple_bound
        assert rep.exact_ratio <= rep.simple_bound

    def test_csv_row_format(self):
        rep = BoundReport(n=3, k=1, exact_ratio=0.5, simple_bound=1.0,
                          dyadic_bound=None, expected_error=1.0, optimal_error=1.0)
        row = rep.csv_row()
        assert row == "3,1,0.5,1,,1,1"
        assert BoundReport.csv_header.startswith("n,k,exact_ratio")


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
        rows = figure_rows(mu.materialized, mu, [1, 2, 3, 8])
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
            figure_rows(mu.materialized, mu, [])
        with pytest.raises(ValidationError):
            figure_rows(mu.materialized, mu, [0, 1])
        with pytest.raises(ValidationError):
            figure_rows(mu.materialized, mu, [7])

    def test_geometric_spectrum_under_half_base(self):
        # geometric decay 1/2 sits under the dyadic majorant with base 1/2
        lmax = 8
        n = 2 ** lmax - 1
        lam = generate_geometric(0.5, n)
        mu = PiecewiseDyadicSpectrum(lmax=lmax, base=0.5)
        rows = figure_rows(lam, mu, [1, 4, 16])
        for k, r_lam, r_mu, sb in rows:
            assert r_lam <= r_mu <= sb * (1.0 + 1e-12)
