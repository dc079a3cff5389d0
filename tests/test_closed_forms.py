"""The matrix path against closed forms at n = 1000, where enumeration cannot reach.

Each matrix goes through load_matrix on a written file, which keeps the
parsed array, and through PsdMatrix on the array, which copies it; both must
give bit-identical entries and eigenvalues.  The tolerances were fixed
before these tests first ran, from earlier scratch measurements of the same
quantities (max relative error): eigh on min(i, j) 1.0e-11, the expected
error on its spectrum 4.2e-13 for every k, and 9.8e-15 on a I + b 1 1^T.
The a I + b 1 1^T eigenvalues have no earlier figure; their bound is n eps,
the scale of a Householder eigensolver's backward error.
"""
import numpy as np
import pytest

from oracles import brownian_covariance, identity_plus_ones, identity_plus_ones_expected_error
from volcur import PsdMatrix, esp_ratios, expected_error_exact, load_matrix, make_spectrum

N = 1000
A, B = 1.0, 2.0**-10         # entries 1 + 2^-10 and 2^-10, exact in binary

# family -> (eigenvalue rtol, expected-error rtol)
TOLERANCES = {"brownian": (2.0e-11, 1.0e-12), "identity_plus_ones": (2.0e-13, 2.0e-14)}


def closed_form(family: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(matrix, eigenvalues, expected errors for k = 1..N-1) of a family."""
    if family == "brownian":
        m, values = brownian_covariance(N)
        return m, values, expected_errors(make_spectrum(values))
    m, values = identity_plus_ones(N, A, B)
    return m, values, identity_plus_ones_expected_error(N, A, B)


def expected_errors(spec) -> np.ndarray:
    """expected_error_exact for k = 1..N-1, from one ESP table."""
    k = np.arange(1, N)
    want = (k + 1) * esp_ratios(spec, N - 1)[1:]
    for j in (1, N // 2, N - 1):       # the table agrees with the public call
        assert expected_error_exact(spec, j) == want[j - 1]
    return want


@pytest.fixture(scope="module", params=sorted(TOLERANCES))
def case(request, tmp_path_factory):
    family = request.param
    m, values, errors = closed_form(family)
    path = tmp_path_factory.mktemp("closed") / f"{family}.txt"
    np.savetxt(path, m, fmt="%.17g")
    return family, load_matrix(path), PsdMatrix(m), values, errors


def max_rel(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want) / np.abs(want)))


def test_owning_and_copying_paths_agree(case):
    _, owned, copied, _, _ = case
    assert owned.entries.tobytes() == copied.entries.tobytes()
    assert owned.eigen.eigenvalues.values.tobytes() == copied.eigen.eigenvalues.values.tobytes()


def test_eigenvalues_match_closed_form(case):
    family, m, _, values, _ = case
    assert m.eigen.rank == N
    assert max_rel(m.eigen.eigenvalues.values, values) <= TOLERANCES[family][0]


def test_expected_error_matches_closed_form_at_every_k(case):
    family, m, _, _, errors = case
    assert max_rel(expected_errors(m.eigen.eigenvalues), errors) <= TOLERANCES[family][1]
