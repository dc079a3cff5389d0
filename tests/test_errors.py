"""errors.checked_int, the public integer arguments that go through it, and exit codes."""
import numpy as np
import pytest

import volcur.errors
from volcur import (
    PiecewiseDyadicSpectrum,
    PsdMatrix,
    Spectrum,
    ValidationError,
    bound_reports,
    enumerate_distribution,
    esp_geometric_closed_form,
    esp_geometric_ratio,
    figure_rows,
    make_spectrum,
    optimal_error,
    sample_subsets,
    split_head_tail,
)
from volcur.errors import checked_int
from volcur.esp import esp_marginals


def test_each_error_class_carries_its_family_exit_code():
    assert volcur.errors.__all__ == [
        "VolcurError", "ValidationError", "NumericalError", "CapExceededError"]
    codes = {name: getattr(volcur.errors, name).exit_code for name in volcur.errors.__all__}
    assert codes == {
        "VolcurError": 2, "ValidationError": 1, "NumericalError": 2, "CapExceededError": 3,
    }


class TestCheckedInt:
    @pytest.mark.parametrize("value", [0, 3, np.int64(3), np.uint8(2)])
    def test_in_range_values_come_back_as_int(self, value):
        got = checked_int(value, "k", 0, 3)
        assert got == value and type(got) is int

    @pytest.mark.parametrize("value, minimum, message", [
        (2.5, 0, "^k must be a nonnegative integer$"),
        (np.float64(2.0), 1, "^k must be a positive integer$"),
        ("3", 0, "^k must be a nonnegative integer$"),
        (None, 1, "^k must be a positive integer$"),
        (-1, 0, "^k must be a nonnegative integer$"),
        (0, 1, "^k must be a positive integer$"),
        (4, 0, "^k must be at most 3, got 4$"),
    ])
    def test_rejects_with_message(self, value, minimum, message):
        with pytest.raises(ValidationError, match=message):
            checked_int(value, "k", minimum, 3)

    def test_no_maximum_by_default(self):
        assert checked_int(10**30, "k", 0) == 10**30


SPEC = make_spectrum([4.0, 2.0, 1.0, 0.5])           # n = 4
DYADIC = PiecewiseDyadicSpectrum(lmax=3, base=0.5)    # n = 7
UNDER_DYADIC = make_spectrum(SPEC.values / 4.0)      # n = 4, dominated by DYADIC
MATRIX = PsdMatrix(np.diag([4.0, 2.0, 1.0]))          # n = 3

# name -> (call of the one integer argument under test, first value past
# its valid range); the other arguments are valid
BOUNDARY = {
    "Spectrum.tail_sum": (SPEC.tail_sum, -1),
    "PiecewiseDyadicSpectrum.tail_sum": (DYADIC.tail_sum, -1),
    "split_head_tail": (lambda k: split_head_tail(SPEC, k), 4),
    "esp_geometric_closed_form n": (lambda n: esp_geometric_closed_form(0.5, n, 2), 0),
    "esp_geometric_closed_form k": (lambda k: esp_geometric_closed_form(0.5, 10, k), -1),
    "esp_geometric_ratio n": (lambda n: esp_geometric_ratio(0.5, n, 0), 0),
    "esp_geometric_ratio k": (lambda k: esp_geometric_ratio(0.5, 10, k), 11),
    "esp_marginals": (lambda k: esp_marginals(SPEC, k), 5),
    "optimal_error": (lambda k: optimal_error(SPEC, k), -1),
    # the simple, geometric and dyadic bounds, each through the call that gives it
    "simple_bound": (lambda k: bound_reports(SPEC, [k])[0].simple_bound, 4),
    "geometric_expected_error n": (lambda n: esp_geometric_ratio(0.5, n, 2), 1),
    "geometric_expected_error k": (lambda k: esp_geometric_ratio(0.5, 10, k), 11),
    "dyadic_upper_bound": (lambda k: bound_reports(UNDER_DYADIC, [k], mu=DYADIC), 4),
    "bound_reports": (lambda k: bound_reports(SPEC, [1, k]), 4),
    "figure_rows": (lambda k: figure_rows(Spectrum(DYADIC), DYADIC, [1, k]), 7),
    "enumerate_distribution": (lambda k: enumerate_distribution(MATRIX, k), 4),
    "sample_subsets draws": (lambda d: sample_subsets(MATRIX, 1, d, 0), 0),
    "sample_subsets seed": (lambda s: sample_subsets(MATRIX, 1, 1, s), -1),
}


@pytest.mark.parametrize("call, bad", [
    pytest.param(call, bad, id=f"{name}={bad}")
    for name, (call, past) in BOUNDARY.items()
    for bad in dict.fromkeys([2.5, -1, past])
])
def test_public_integer_arguments_are_range_checked(call, bad):
    with pytest.raises(ValidationError):
        call(bad)
