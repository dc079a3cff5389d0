"""Defects that reproduce today, each asserting the correct result.

Each test is a strict xfail: the mend that makes one pass turns its XPASS
into a failure, and removes the marker with the defect.
"""
import numpy as np
import pytest

from volcur import PiecewiseDyadicSpectrum, bound_reports, esp_ratios, make_spectrum, rbf_kernel_matrix
from volcur.cli import main


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2(a)")
def test_plain_spectrum_keeps_entries_far_below_its_largest():
    # one scale from 1e200 takes 1e-200 and 1e-300 to 0
    got = esp_ratios(make_spectrum([1e200, 1e-200, 1e-300]), 2)[1:]
    assert np.allclose(got, [1e-200, 1e-300], rtol=1e-12, atol=0.0)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 8")
def test_dyadic_bound_is_never_below_the_exact_ratio():
    # F7: 0.7**l repeated 2^l times, l = 0..7, under its own dyadic majorant;
    # at k = 1 the ratio reads 17.088889465042364 and the bound 17.088889465042318
    spec = make_spectrum(np.repeat(0.7 ** np.arange(8), 2 ** np.arange(8)))
    reports = bound_reports(spec, [1, 2, 3], mu=PiecewiseDyadicSpectrum(8, 0.7))
    assert all(r.exact_ratio <= r.dyadic_bound for r in reports)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 16")
def test_gram_spectral_lines_agree_with_the_entries(tmp_path, capsys):
    # X^T X = diag(9.025e307, 1): RANK_TOL drops the eigenvalue 1, which
    # error_nuclear, read from the entries, still reports
    p = tmp_path / "x.txt"
    p.write_text("9.5e153 0\n0 1\n")
    code = main(["approx", "--input", str(p), "--gram", "--k", "1"])
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code == 0 and "optimal_error,1" in out.splitlines()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 12")
def test_rbf_distance_of_close_points_far_from_the_origin():
    # |x_0|^2 + |x_1|^2 - 2 x_0 x_1 cancels to 0, so the entry reads 1
    x = np.array([[1.0], [1.0 + 1e-8]])
    want = np.exp(-0.5 * ((x[1, 0] - x[0, 0]) / 1e-8) ** 2)
    assert abs(rbf_kernel_matrix(x, 1e-8).entries[0, 1] - want) <= 1e-6


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 16")
def test_verify_passes_where_both_sides_round_at_lambda_max(tmp_path, capsys):
    # Q diag(1, 2e-12 x 4) Q^T, full rank: both sides carry absolute errors near
    # eps * lambda_max, so every k reads a relative gap near 7e-6 (7.3e-06 at k = 4)
    q = np.linalg.qr(np.random.default_rng(9).standard_normal((5, 5)))[0]
    p = tmp_path / "m.txt"
    np.savetxt(p, q @ np.diag([1.0, 2e-12, 2e-12, 2e-12, 2e-12]) @ q.T, fmt="%.17g")
    code = main(["verify", "--input", str(p), "--k", "1..4"])
    assert (code, capsys.readouterr().out.splitlines()[-1]) == (0, "verify: PASS")
