"""A dyadic spectrum is a Spectrum: every spectrum function takes it.

Each public function that reads a spectrum answers on
PiecewiseDyadicSpectrum(5, 0.4) as on its dense twin Spectrum(d).  Where
both read the same entries through the same path the answers agree bit for
bit; where the dyadic one takes the per-piece product or piece arithmetic
and the twin the prefix scan or chunk sums, they agree to 1e-10 relative,
as in test_esp.py::TestDyadicConvolution.  Above DENSE_CAP entries, what
would read every entry is refused at once with CapExceededError.
"""
import dataclasses
import time

import numpy as np
import pytest

from volcur import (
    CapExceededError,
    PiecewiseDyadicSpectrum,
    Spectrum,
    ValidationError,
    bound_reports,
    esp_all,
    esp_marginals,
    esp_ratio_head_tail,
    esp_ratios,
    expected_error_exact,
    figure_rows,
    optimal_error,
    split_head_tail,
)
from volcur.cli import main

D = PiecewiseDyadicSpectrum(5, 0.4)           # n = 31
MU = PiecewiseDyadicSpectrum(5, 0.5)          # dominates D entry by entry
KS = list(range(1, 31))


def _head_tail(s):
    return [esp_ratio_head_tail(split_head_tail(s, k)) for k in range(31)]


def _reports(s):
    return [dataclasses.astuple(r) for r in bound_reports(s, [0, *KS], mu=MU)]


# name -> (spectrum -> answer, bit for bit)
CALLS = {
    "esp_all": (lambda s: esp_all(s, 31), False),
    "esp_ratios": (lambda s: esp_ratios(s, 30), False),
    "esp_marginals": (lambda s: esp_marginals(s, 31), True),
    "split_head_tail+esp_ratio_head_tail": (_head_tail, True),
    "optimal_error": (lambda s: [optimal_error(s, k) for k in range(33)], False),
    "expected_error_exact": (lambda s: [expected_error_exact(s, k) for k in KS], False),
    "bound_reports": (_reports, False),
    "figure_rows": (lambda s: figure_rows(s, MU, KS), False),
    "np.asarray": (np.asarray, True),
}


@pytest.mark.parametrize("name", CALLS)
def test_dyadic_and_its_dense_twin_agree(name):
    call, exact = CALLS[name]
    twin = Spectrum(D)
    assert type(twin) is Spectrum and "values" in vars(twin)
    got, want = np.asarray(call(D), dtype=float), np.asarray(call(twin), dtype=float)
    assert got.shape == want.shape and np.all(np.isfinite(got))
    if exact:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


def test_a_dyadic_spectrum_is_a_spectrum():
    d = PiecewiseDyadicSpectrum(20, 0.25)
    assert isinstance(d, Spectrum)
    assert (d.n, d.lmax, d.base) == (2**20 - 1, 20, 0.25)
    assert np.asarray(d).shape == (d.n,)


@pytest.mark.parametrize("call", [
    lambda mu: bound_reports(Spectrum(D), [1, 2], mu=mu),
    lambda mu: figure_rows(Spectrum(D), mu, [1, 2]),
], ids=["bound_reports", "figure_rows"])
@pytest.mark.parametrize("plain", [lambda: Spectrum(MU), lambda: Spectrum(np.ones(31))],
                         ids=["twin", "ones"])
def test_a_plain_majorant_is_a_validation_error(call, plain):
    mu = plain()
    with pytest.raises(ValidationError, match="^majorant mu must be a PiecewiseDyadicSpectrum$"):
        call(mu)


DEEP = PiecewiseDyadicSpectrum(40, 0.5)       # n = 2^40 - 1, above DENSE_CAP


@pytest.mark.parametrize("call", [
    np.asarray,
    Spectrum,
    lambda d: d.values,
    lambda d: esp_marginals(d, 3),
    lambda d: esp_ratio_head_tail(split_head_tail(d, 3)),
    lambda d: esp_ratios(split_head_tail(d, 3).tail, 3),
    lambda d: split_head_tail(d, 3).tail.tail_sum(1),
], ids=["asarray", "Spectrum", "values", "esp_marginals", "esp_ratio_head_tail",
        "esp_ratios of its tail", "tail_sum of its tail"])
def test_reading_every_entry_of_a_deep_dyadic_spectrum_is_refused_at_once(call):
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="exceeds the generated-spectrum cap 1073741824$"):
        call(DEEP)
    assert time.perf_counter() - start < 1.0


def test_a_deep_dyadic_spectrum_answers_from_its_pieces():
    split = split_head_tail(DEEP, 3)
    assert (split.pivot, split.tail.n) == (0.25, 2**40 - 4)
    assert DEEP.tail_sum(0) == 40.0
    assert esp_ratios(DEEP, 3)[0] == 40.0


def test_lmax_is_at_most_1024():
    assert esp_all(PiecewiseDyadicSpectrum(1024, 0.5), 1)[1] == 1024.0
    with pytest.raises(ValidationError, match="^lmax must be at most 1024, got 1025$"):
        PiecewiseDyadicSpectrum(1025, 0.5)


@pytest.mark.parametrize("lmax", [1025, 1100])
def test_cli_refuses_lmax_above_1024_in_one_line(lmax, capsys):
    code = main(["esp", "--spectrum", f"dyadic:lmax={lmax},base=0.5", "--k", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"error: lmax must be at most 1024, got {lmax}\n"
