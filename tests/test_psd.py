import math
import warnings
from itertools import combinations

import numpy as np
import pytest

from oracles import (
    cur_pinv,
    cur_solve,
    minor_sums_brute,
    nuclear_norm_svd,
    random_psd,
    rbf_kernel_expression,
    subset_factor,
)
from volcur import (
    NumericalError,
    PsdMatrix,
    ValidationError,
    cur_approximation,
    cur_error_nuclear,
    enumerate_distribution,
    esp_all,
    gram_matrix,
    load_matrix,
    optimal_error,
    rbf_kernel_matrix,
    read_array,
)
from volcur.psd import PIVOT_REL_TOL, _skeleton, _subset_factor


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestPsdMatrix:
    def test_accepts_psd(self):
        m = PsdMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert m.n == 2
        assert float(np.trace(m.entries)) == pytest.approx(4.0)
        assert m.lambda_max == pytest.approx(3.0)

    def test_rejects_indefinite(self):
        # eigenvalues 3 and -1
        with pytest.raises(ValidationError):
            PsdMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            PsdMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_symmetrizes_roundoff(self):
        a = np.array([[2.0, 1.0 + 1e-14], [1.0, 2.0]])
        m = PsdMatrix(a)
        assert m.entries[0, 1] == m.entries[1, 0]

    def test_rejects_nonsquare_and_empty(self):
        with pytest.raises(ValidationError):
            PsdMatrix(np.ones((2, 3)))
        with pytest.raises(ValidationError):
            PsdMatrix(np.zeros((0, 0)))

    @pytest.mark.parametrize("a, message", [
        (np.full((2, 2), 1e308), "^matrix eigenvalues overflow double precision$"),
        (np.full((3, 3), 8.9e307), "^matrix eigenvalues overflow double precision$"),
    ], ids=["entries", "eigenvalues"])
    def test_refuses_overflow_without_a_warning(self, a, message):
        # 1e308 + 1e308 overflows in (x + y^T) / 2, so that block is
        # symmetrized as x/2 + y^T/2, and the eigenvalue 2e308 is refused;
        # 8.9e307 * 2 does not, but the 3 x 3 matrix's eigenvalue 2.67e308 does
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=message):
                PsdMatrix(a)

    def test_entries_whose_sum_overflows_are_symmetrized_by_halves(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = PsdMatrix(np.diag([1e308, 1.0]))
            g = gram_matrix(np.array([[9.5e153, 0.0], [0.0, 1.0]]))
        assert np.array_equal(m.entries, np.diag([1e308, 1.0]))
        assert m.lambda_max == 1e308 and m.rank == 1    # 1 is below RANK_TOL * 1e308
        assert g.entries[0, 0] == 9.5e153 ** 2
        assert g.lambda_max == pytest.approx(9.025e307, rel=1e-15)

    def test_largest_entries_short_of_overflow_are_kept(self):
        m = PsdMatrix(np.diag([8e307, 4e307]))
        assert m.entries[0, 0] == 8e307 and m.rank == 2
        assert m.lambda_max == pytest.approx(8e307, rel=1e-15)

    def test_allows_tiny_negative_eigenvalue(self):
        # within tolerance of PSD, as produced by roundoff
        g = np.array([[1.0, 1.0], [1.0, 1.0]]) + np.diag([0.0, -1e-12])
        m = PsdMatrix(g)
        assert m.n == 2

    def test_lambda_max_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            PsdMatrix(np.eye(2), lambda_max=99.0)

    @pytest.mark.parametrize("n", [2, 127, 128, 300])
    def test_blocked_symmetrization_matches_whole_array(self, n):
        # the block pairs give (a + a^T) / 2 and max |a - a^T| bit for bit
        a = random_psd(np.random.default_rng(n), n, n) + np.eye(n)
        a += 1e-12 * np.random.default_rng(n + 1).standard_normal((n, n))
        want = (a + a.T) / 2.0
        assert PsdMatrix(a).entries.tobytes() == want.tobytes()
        a[n - 1, 0] += 1.0
        with pytest.raises(ValidationError, match=f"{np.max(np.abs(a - a.T)):.3g}"):
            PsdMatrix(a)


def caller_arrays():
    """Inputs whose caller must get them back unchanged, keyed by case."""
    n = 200
    base = random_psd(np.random.default_rng(40), n, 2 * n)
    scale = float(np.max(np.abs(base)))
    near = base.copy()
    near[3, 150] += 1e-12 * scale           # within SYM_TOL: symmetrized
    frozen = base.copy()
    frozen.flags.writeable = False
    far = base.copy()
    far[3, 150] += 1e-3 * scale             # rejected as asymmetric
    return {"near_symmetric": near, "read_only": frozen,
            "float32": base.astype(np.float32), "rejected_asymmetric": far}


@pytest.mark.parametrize("case", sorted(caller_arrays()))
@pytest.mark.parametrize("build", [PsdMatrix, gram_matrix, lambda x: rbf_kernel_matrix(x, 30.0)],
                         ids=["PsdMatrix", "gram_matrix", "rbf_kernel_matrix"])
def test_caller_array_is_neither_written_nor_kept(case, build):
    a = caller_arrays()[case]
    before, writeable = a.tobytes(), a.flags.writeable
    try:
        m = build(a)
    except ValidationError:
        assert case == "rejected_asymmetric" and build is PsdMatrix
    else:
        assert case != "rejected_asymmetric" or build is not PsdMatrix
        for kept in (m.entries, m.vectors, m.eigenvalues.values):
            assert not np.shares_memory(kept, a)
    assert a.tobytes() == before
    assert a.flags.writeable == writeable


class TestEigendecompose:
    def test_diagonal(self):
        m = PsdMatrix(np.diag([1.0, 2.0]))
        assert np.allclose(m.eigenvalues.values, [2.0, 1.0])
        assert m.rank == 2

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        m = PsdMatrix(random_psd(rng, 6, 6))
        rebuilt = (m.vectors * m.eigenvalues.values) @ m.vectors.T
        assert np.allclose(rebuilt, m.entries, atol=1e-10 * m.lambda_max)

    def test_rank_detection(self):
        rng = np.random.default_rng(4)
        m = PsdMatrix(random_psd(rng, 7, 3))
        assert m.rank == 3
        assert m.vectors.shape == (7, 3)

    def test_computed_once_at_construction(self, monkeypatch):
        m = PsdMatrix(random_psd(np.random.default_rng(2), 5, 5))

        def no_solve(*args, **kwargs):
            raise AssertionError("eigensolver called after construction")
        monkeypatch.setattr(np.linalg, "eigh", no_solve)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
        assert m.rank == 5
        assert m.lambda_max == m.eigenvalues.values[0]
        esp_all(m.eigenvalues, 5)
        cur_approximation(m, (0, 2))

    def test_zero_matrix_has_rank_zero(self):
        m = PsdMatrix(np.zeros((3, 3)))
        assert m.rank == 0
        assert m.eigenvalues.n == 0

    def test_psd_matrix_path_keeps_eighs_columns_read_only(self):
        m = PsdMatrix(np.diag([3.0, 1.0, 0.0]))
        assert m.rank == 2 and m.vectors.shape == (3, 2)
        assert m.vectors.flags.c_contiguous and not m.vectors.flags.writeable


class TestInvariantSums:
    def test_identity_binomials(self):
        m = PsdMatrix(np.eye(4))
        c = esp_all(m.eigenvalues, 4)
        assert np.allclose(c, [1.0, 4.0, 6.0, 4.0, 1.0], rtol=1e-12)

    def test_matches_minor_enumeration(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            n = int(rng.integers(2, 8))
            r = int(rng.integers(1, n + 1))
            m = PsdMatrix(random_psd(rng, n, r))
            c = esp_all(m.eigenvalues, n)
            brute = minor_sums_brute(m.entries, n)
            for j in range(n + 1):
                if max(abs(c[j]), abs(brute[j])) < 1e-11 * m.lambda_max ** j:
                    continue
                assert rel_err(c[j], brute[j]) < 1e-9


class TestPartitionAndSchur:
    """Blocks A, B, C of a subset and the Schur complement C - B A^-1 B^T,
    seen through cur_error_nuclear and cur_approximation."""

    def test_subset_validation(self):
        m = PsdMatrix(np.eye(3))
        for f in (cur_error_nuclear, cur_approximation):
            for bad in ((0, 0), (0, 3), (-1,), ()):
                with pytest.raises(ValidationError):
                    f(m, bad)

    def test_schur_hand_example(self):
        # [[4,2],[2,2]] on {0}: 2 - 2*(1/4)*2 = 1
        m = PsdMatrix(np.array([[4.0, 2.0], [2.0, 2.0]]))
        assert cur_error_nuclear(m, (0,)) == pytest.approx(1.0)

    def test_schur_is_psd(self):
        rng = np.random.default_rng(5)
        for trial in range(50):
            n = int(rng.integers(2, 9))
            m = PsdMatrix(random_psd(rng, n, n))
            k = int(rng.integers(1, n))
            subset = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            err = m.entries - cur_approximation(m, subset)
            assert np.linalg.eigvalsh(err)[0] > -1e-9 * m.lambda_max

    def test_singular_block_raises(self):
        # first column of the factor repeated: A for {0,1} is singular
        g = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        m = PsdMatrix(g @ g.T)
        for f in (cur_error_nuclear, cur_approximation):
            with pytest.raises(NumericalError, match="^pivot block is singular at step 2 of 2$"):
                f(m, (0, 1))

    def test_pivot_floor_boundary(self):
        # the floor is PIVOT_REL_TOL = 1e-14 times the block's largest diagonal
        singular = PsdMatrix(np.diag([1.0, 1e-15, 1.0]))
        with pytest.raises(NumericalError, match="^pivot block is singular at step 2 of 2$"):
            cur_error_nuclear(singular, (0, 1))
        regular = PsdMatrix(np.diag([1.0, 2e-14, 1.0]))
        assert cur_error_nuclear(regular, (0, 1)) == 1.0


def greedy_factor(m: np.ndarray):
    """The kernel over all rows of m, as a batch of one row.

    Returns (pivots, F) up to the first pivot at or below the floor; F F^T
    is m up to a residual at or below the floor.
    """
    pivots, _, factor = _subset_factor(PsdMatrix(m), np.arange(m.shape[0])[None])
    count = np.count_nonzero(pivots[0])
    assert not factor[0, :, count:].any()       # masked past the floor
    return pivots[0, :count], factor[0, :, :count]


def floor_matrix(name: str) -> PsdMatrix:
    """The matrices on which the kernel's one singular rule is tested."""
    rng = np.random.default_rng(31)
    if name == "tiny-diagonal":
        return PsdMatrix(np.diag([1.0, 1e-20, 1.0]))
    if name == "underflowing-diagonal":
        # rank 4, but five of the six 2 x 2 volumes underflow as doubles
        return PsdMatrix(np.diag([1e-160, 1e-160, 1e-170, 1e-170]))
    if name == "wishart":
        return PsdMatrix(random_psd(np.random.default_rng(34), 8, 8))
    if name == "graded":
        # x = diag(10^-3j), x[0, 1:] = 1e-9: block scales span 42 decades, so a floor
        # relative to lambda_max, not to the block, misjudges 20 of the 92 subsets
        x = np.diag(10.0 ** (-3.0 * np.arange(8)))
        x[0, 1:] = 1e-9
        return PsdMatrix(x @ x.T)
    if name == "negative-diagonal":
        # PSD within PSD_TOL; the subset {7} meets its floor at step 1 and keeps d[7] < 0
        a = np.zeros((8, 8))
        a[:7, :7] = random_psd(rng, 7, 7)
        a[7, 7] = -1e-12 * a.max()
        return PsdMatrix(a)
    return PsdMatrix(random_psd(rng, 8, 8 if name == "full-rank" else 3))


FLOOR_MATRICES = ["full-rank", "rank-3", "negative-diagonal", "tiny-diagonal", "graded"]


class TestPivotedCholesky:
    """The kernel psd._subset_factor, mostly over all rows."""

    def test_reconstructs_matrix(self):
        rng = np.random.default_rng(6)
        for trial in range(30):
            n = int(rng.integers(1, 9))
            r = int(rng.integers(1, n + 1))
            m = random_psd(rng, n, r)
            pivots, factor = greedy_factor(m)
            assert np.allclose(factor @ factor.T, m,
                               atol=1e-10 * max(m.diagonal().max(), 1e-300))
            assert pivots.size == np.linalg.matrix_rank(m, tol=1e-8 * abs(m).max())

    def test_pivots_nonincreasing(self):
        rng = np.random.default_rng(8)
        m = random_psd(rng, 8, 8)
        pivots, _ = greedy_factor(m)
        assert pivots.size == 8
        assert np.all(np.diff(pivots) <= 1e-12 * pivots[0])

    def test_determinant_product(self):
        pivots, _ = greedy_factor(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert float(np.prod(pivots)) == pytest.approx(8.0)

    def test_determinant_zero_for_rank_deficient(self):
        g = np.array([[1.0], [2.0]])
        pivots, _ = greedy_factor(g @ g.T)
        assert pivots.size == 1

    def test_determinant_matches_lu(self):
        rng = np.random.default_rng(19)
        for trial in range(20):
            n = int(rng.integers(1, 8))
            m = random_psd(rng, n, n)
            pivots, _ = greedy_factor(m)
            assert pivots.size == n
            assert rel_err(float(np.prod(pivots)), float(np.linalg.det(m))) < 1e-8

    def test_residual_diagonal_and_stop(self):
        # d leaves as diag(M - F F^T), zero on the chosen rows
        rng = np.random.default_rng(20)
        g = rng.standard_normal((6, 6))
        m = g @ g.T
        pivots, d, factor = _subset_factor(PsdMatrix(m), np.array([(4, 1)]))
        assert (pivots.shape, d.shape, factor.shape) == ((1, 2), (1, 6), (1, 6, 2))
        (pivots,), (d,), (factor,) = pivots, d, factor
        assert pivots[0] == max(m[4, 4], m[1, 1])
        assert rel_err(pivots[0] * pivots[1], float(np.linalg.det(m[np.ix_([4, 1], [4, 1])]))) < 1e-12
        assert np.array_equal(d[[4, 1]], [0.0, 0.0])
        assert np.allclose(d, np.diag(m - factor @ factor.T), atol=1e-12 * m.max())
        # row 1 half of row 4: M[S,S] is singular, its second pivot a residue at
        # or below the per-block floor, which stops the factor; the row runs on masked
        g[1] = g[4] / 2.0
        m = g @ g.T
        stopped, d, cut = _subset_factor(PsdMatrix(m), np.array([(4, 1)]))
        first = m[4] / np.sqrt(m[4, 4])
        assert stopped.tolist() == [[m[4, 4], 0.0]]
        assert np.array_equal(cut[0, :, 0], first) and not cut[0, :, 1].any()
        kept = np.maximum(m.diagonal() - first * first, 0.0)
        kept[4] = 0.0
        assert np.array_equal(d[0], kept)


class TestBatchedKernel:
    """The batched kernel against the one-subset referee oracles.subset_factor."""

    @pytest.mark.parametrize("matrix", FLOOR_MATRICES)
    def test_every_subset_matches_the_referee(self, matrix):
        m = floor_matrix(matrix)
        stopped = 0
        for k in range(1, m.n + 1):
            s = np.array(list(combinations(range(m.n), k)))
            floor = PIVOT_REL_TOL * np.maximum(m.entries.diagonal()[s].max(axis=1), 0.0)
            pivots, d, factor = _subset_factor(m, s)
            assert (pivots.shape, d.shape, factor.shape) == ((len(s), k), (len(s), m.n),
                                                             (len(s), m.n, k))
            for row, subset in enumerate(s):
                want, want_d, want_f = subset_factor(m.entries, tuple(subset), floor[row])
                t = len(want)                # the step at which the row met its floor, or k
                stopped += t < k
                assert pivots[row, :t].tolist() == want and not pivots[row, t:].any()
                assert np.array_equal(d[row], want_d)
                assert np.array_equal(factor[row, :, :t], want_f)
                assert not factor[row, :, t:].any()
        assert (stopped > 0) == (matrix != "full-rank")

    def test_batch_size_keeps_the_bits_at_n1000(self, spd1000):
        m = load_matrix(spd1000)
        rng = np.random.default_rng(50)
        s = np.array([np.sort(rng.choice(1000, 50, replace=False)) for _ in range(5)])
        together = _skeleton(m, s)
        assert np.all(together[0][:, -1] > 0.0)
        for row in range(5):
            alone = _skeleton(m, s[row : row + 1])
            for a, b in zip(alone, together):
                assert np.array_equal(a[0], b[row])


class TestOneSingularRule:
    """The CUR error refuses a subset exactly where the enumeration calls it singular."""

    @pytest.mark.parametrize("matrix", FLOOR_MATRICES + ["underflowing-diagonal"])
    def test_refused_error_iff_zero_probability(self, matrix):
        m = floor_matrix(matrix)
        refused = 0
        for k in range(1, m.rank + 1):
            dist = enumerate_distribution(m, k)
            for s, p, err in zip(dist.subsets.tolist(), dist.probabilities, dist.errors):
                if p == 0.0:
                    refused += 1
                    with pytest.raises(NumericalError, match="^pivot block is singular at step"):
                        cur_error_nuclear(m, s)
                else:
                    assert cur_error_nuclear(m, s) == err
        assert (refused > 0) == (matrix not in ("full-rank", "rank-3", "underflowing-diagonal"))

    @pytest.mark.parametrize("exponent", [-300, -600, 600])
    @pytest.mark.parametrize("matrix", FLOOR_MATRICES + ["wishart"])
    def test_probabilities_do_not_depend_on_scale(self, matrix, exponent):
        # M 2^e: the pivots scale exactly, so the volumes and c_k, which leave double
        # range as doubles, keep their bits as (mantissa, exponent) pairs
        m = floor_matrix(matrix)
        scaled = PsdMatrix(np.ldexp(m.entries, exponent))
        for k in range(1, m.rank + 1):
            want, got = enumerate_distribution(m, k), enumerate_distribution(scaled, k)
            assert np.array_equal(got.probabilities, want.probabilities)
            assert np.array_equal(got.errors, np.ldexp(want.errors, exponent))
            assert got.expected_error == math.ldexp(want.expected_error, exponent)
            assert got.normalizer == (want.normalizer[0], want.normalizer[1] + k * exponent)

    def test_underflowing_volumes_keep_their_probabilities(self):
        # the volumes as doubles: 1e-320 (subnormal) and five zeros; the pairs keep
        # p proportional to 1, 1e-10 (four times) and 1e-20, and brute force 6e-170
        dist = enumerate_distribution(floor_matrix("underflowing-diagonal"), 2)
        want = np.array([1.0, 1e-10, 1e-10, 1e-10, 1e-10, 1e-20])
        assert np.allclose(dist.probabilities, want / want.sum(), rtol=1e-14, atol=0.0)
        assert dist.expected_error == pytest.approx(6e-170, rel=1e-9)

    def test_tiny_diagonal_hand_case(self):
        # {1} is regular at its own scale: volume 1e-20 and error 2, as cur_error_nuclear says
        m = floor_matrix("tiny-diagonal")
        dist = enumerate_distribution(m, 1)
        mantissa, exponent = dist.normalizer
        assert np.ldexp(dist.probabilities * mantissa, exponent).tolist() == [1.0, 1e-20, 1.0]
        assert dist.errors.tolist() == [1.0, 2.0, 1.0]
        assert cur_error_nuclear(m, [1]) == 2.0


class TestCurReferee:
    """cur_error_nuclear and cur_approximation against the triangular-solve referee."""

    @pytest.mark.parametrize("full_rank", [True, False])
    def test_agrees_with_solve_referee(self, full_rank):
        rng = np.random.default_rng(21 if full_rank else 22)
        for trial in range(40):
            n = int(rng.integers(2, 13))
            r = n if full_rank else int(rng.integers(1, n))
            m = PsdMatrix(random_psd(rng, n, r))
            k = int(rng.integers(1, min(r, n - 1) + 1))
            subset = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            try:
                err, approx = cur_solve(m.entries, subset)
            except np.linalg.LinAlgError:
                continue                  # a singular draw; covered elsewhere
            mine = cur_error_nuclear(m, subset)
            # a vanishing error is roundoff on the scale of the matrix
            scale = abs(err) if full_rank else max(abs(err), m.lambda_max)
            assert abs(mine - err) <= 1e-12 * scale
            got = cur_approximation(m, subset)
            assert np.max(np.abs(got - approx)) <= 1e-12 * m.lambda_max
            s = list(subset)
            assert np.array_equal(got[s, :], m.entries[s, :])
            assert np.array_equal(got[:, s], m.entries[:, s])

    def test_singular_matrix_full_subset_does_not_raise(self):
        g = np.array([[1.0], [2.0], [3.0]])
        m = PsdMatrix(g @ g.T)
        assert cur_error_nuclear(m, (0, 1, 2)) == 0.0
        assert np.array_equal(cur_approximation(m, (0, 1, 2)), m.entries)
        with pytest.raises(NumericalError, match="^pivot block is singular at step 2 of 2$"):
            cur_error_nuclear(m, (0, 1))


class TestCur:
    def test_hand_example(self):
        # [[2,1],[1,2]] on {0}: kept row/col exact, corner 1/2
        m = PsdMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        approx = cur_approximation(m, (0,))
        assert np.allclose(approx, [[2.0, 1.0], [1.0, 0.5]], rtol=1e-14)
        assert cur_error_nuclear(m, (0,)) == pytest.approx(1.5)

    def test_interpolates_selected_rows_and_columns(self):
        rng = np.random.default_rng(9)
        for trial in range(30):
            n = int(rng.integers(2, 9))
            m = PsdMatrix(random_psd(rng, n, n))
            k = int(rng.integers(1, n + 1))
            subset = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            approx = cur_approximation(m, subset)
            s = list(subset)
            assert np.allclose(approx[s, :], m.entries[s, :],
                               atol=1e-12 * m.lambda_max)
            assert np.allclose(approx[:, s], m.entries[:, s],
                               atol=1e-12 * m.lambda_max)

    def test_matches_pseudoinverse_formula(self):
        rng = np.random.default_rng(10)
        for trial in range(30):
            n = int(rng.integers(2, 9))
            m = PsdMatrix(random_psd(rng, n, n))
            k = int(rng.integers(1, n))
            subset = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            mine = cur_approximation(m, subset)
            oracle = cur_pinv(m.entries, subset)
            assert np.allclose(mine, oracle, atol=1e-9 * m.lambda_max)

    def test_error_matches_svd_oracle(self):
        rng = np.random.default_rng(12)
        for trial in range(30):
            n = int(rng.integers(2, 9))
            m = PsdMatrix(random_psd(rng, n, n))
            k = int(rng.integers(1, n))
            subset = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            mine = cur_error_nuclear(m, subset)
            oracle = nuclear_norm_svd(m.entries - cur_pinv(m.entries, subset))
            assert rel_err(mine, oracle) < 1e-9 or abs(mine - oracle) < 1e-9 * m.lambda_max

    def test_returns_read_only_array(self):
        m = PsdMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        approx = cur_approximation(m, (0,))
        assert type(approx) is np.ndarray
        assert not approx.flags.writeable
        assert np.array_equal(approx, approx.T)

    def test_full_subset_is_exact(self):
        rng = np.random.default_rng(14)
        m = PsdMatrix(random_psd(rng, 5, 5))
        approx = cur_approximation(m, tuple(range(5)))
        assert np.array_equal(approx, m.entries)
        assert cur_error_nuclear(m, tuple(range(5))) == 0.0

    def test_rank_k_subset_of_rank_k_matrix_is_exact(self):
        rng = np.random.default_rng(15)
        g = rng.standard_normal((6, 2))
        m = PsdMatrix(g @ g.T)
        err = cur_error_nuclear(m, (0, 3))
        assert err < 1e-10 * m.lambda_max


class TestBorderedDeterminant:
    def test_singular_leading_block_kills_bordered_determinant(self):
        rng = np.random.default_rng(16)
        for trial in range(30):
            k = int(rng.integers(1, 7))
            # rank k-1 on the first k coordinates makes the leading block singular
            g = np.vstack([
                rng.standard_normal((k, k - 1)) @ rng.standard_normal((k - 1, k + 3)),
                rng.standard_normal((3, k + 3)),
            ])
            w = g @ g.T
            w /= np.linalg.eigvalsh(w)[-1]
            bordered = w[: k + 1, : k + 1]
            assert abs(np.linalg.det(bordered)) < 1e-10


class TestNorms:
    def test_nuclear_equals_trace(self):
        rng = np.random.default_rng(17)
        m = PsdMatrix(random_psd(rng, 6, 4))
        assert rel_err(float(np.trace(m.entries)), nuclear_norm_svd(m.entries)) < 1e-10

    def test_optimal_error_is_tail_sum(self):
        m = PsdMatrix(np.diag([3.0, 2.0, 1.0]))
        assert optimal_error(m.eigenvalues, 1) == pytest.approx(3.0)
        assert optimal_error(m.eigenvalues, 3) == 0.0


class TestConstructorsAndIo:
    def test_gram(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        g = gram_matrix(x)
        assert g.n == 2
        assert np.allclose(g.entries, x.T @ x)

    @pytest.mark.parametrize("x", [[[1e200, 1.0], [1.0, 1.0]], [[1e200, 1e200], [-1e200, 1e200]]],
                             ids=["inf", "inf - inf"])
    def test_gram_overflow_is_numerical_and_silent(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="^X\\^T X overflows double precision$"):
                gram_matrix(np.array(x))

    @pytest.mark.parametrize("build", [gram_matrix, lambda x: rbf_kernel_matrix(x, 1.0)],
                             ids=["gram", "rbf"])
    def test_data_must_be_two_dimensional(self, build):
        with pytest.raises(ValidationError, match="^data array must be 2-D$"):
            build(np.ones(3))

    @pytest.mark.parametrize("build", [gram_matrix, lambda x: rbf_kernel_matrix(x, 1.0)],
                             ids=["gram", "rbf"])
    def test_nonfinite_data_is_refused(self, build):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValidationError, match="^data array entries must be finite$"):
                build(np.array([[1.0, bad], [1.0, 1.0]]))

    @pytest.mark.parametrize("points, sigma, want", [
        ([1e160, 0.0], 1.0, np.eye(2)),
        ([1e160, 0.0], 1e150, np.eye(2)),
        ([1e200, 1e200], 1.0, np.ones((2, 2))),
        # 2 sigma^2 scaled by 2^-2e underflows to 0; the zero distances are not divided
        ([1e300, 1e300], 1e-100, np.ones((2, 2))),
        ([1e300, 1e300], 1e-200, np.ones((2, 2))),
        # scaled by 2^508, the most 3 allows: 2 s^2 is normal, each d^2 / (2 s^2) overflows
        ([0.0, 1.0, 3.0], 1e-300, np.eye(3)),
        # scaled by 2^177: 1e-200 and sigma take the same normal value
        ([0.0, 1e-200, 1e100], 1e-200,
         [[1.0, np.exp(-0.5), 0.0], [np.exp(-0.5), 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ], ids=["1e160 apart", "1e160 apart, sigma 1e150", "equal at 1e200", "equal at 1e300, sigma 1e-100",
            "equal at 1e300, sigma 1e-200", "unit apart, sigma 1e-300", "d = sigma beside 1e100"])
    def test_rbf_on_large_coordinates(self, points, sigma, want):
        # |x_1 - x_2|^2 = 1e320 leaves double range; the kernel does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = rbf_kernel_matrix(np.array(points)[:, None], sigma)
        assert np.array_equal(m.entries, want) and m.rank == np.linalg.matrix_rank(want)

    def test_rbf_unscaled_where_nothing_overflows(self):
        # scaled by 2^11, 1e150^2 fits and 1e-100^2 stays normal: the bits of
        # the one unscaled expression, which overflows only in the quotient
        x = np.array([[1e150], [0.0], [1e-100]])
        with np.errstate(over="ignore"):
            want = PsdMatrix(rbf_kernel_expression(x, 1e-100)).entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rbf_kernel_matrix(x, 1e-100).entries
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert got[1, 2] == np.exp(-0.5) and np.linalg.matrix_rank(got) == 3

    @pytest.mark.parametrize("points, sigma, i, j, want", [
        # scaled by 2^-155, no further than the squares need: 1e-100 stays normal
        ([1e200, 0.0, 1e-100], 1e-100, 1, 2, np.exp(-0.5)),
        # 2 sigma^2 = 2e310 overflows, the distance 1e306 does not
        ([0.0, 1e153], 1e155, 0, 1, np.exp(-5e-5)),
        ([1e300, -1e300], 1e301, 0, 1, np.exp(-0.02)),
    ], ids=["1e-100 beside 1e200", "2 sigma^2 overflows", "sigma 1e301 over 1e300"])
    def test_rbf_scaled_entries_keep_their_digits(self, points, sigma, i, j, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rbf_kernel_matrix(np.array(points)[:, None], sigma).entries
        assert got[i, j] == pytest.approx(want, rel=1e-14)

    def test_rbf_unit_diagonal_and_psd(self):
        # a row is at distance 0 from itself, exactly: the sums' rounding residue
        # would read 1 - 6e-16 on the diagonal here, and 0 at sigma 1e-150
        rng = np.random.default_rng(18)
        x = rng.standard_normal((8, 3))
        m = rbf_kernel_matrix(x, 1.3)
        assert np.array_equal(np.diag(m.entries), np.ones(8))
        assert np.linalg.eigvalsh(m.entries)[0] > -1e-10
        assert np.array_equal(rbf_kernel_matrix(x, 1e-150).entries, np.eye(8))

    def test_rbf_equal_rows_read_distance_zero(self):
        # rows 1 and 3 equal: K[1, 3] = 1 exactly, where the sums' residue left
        # it below 1 at sigma 1e-150 in 33 of these 200 draws
        want = np.eye(4)
        want[1, 3] = want[3, 1] = 1.0
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.standard_normal((4, 4))
            x[3] = x[1]
            assert np.array_equal(rbf_kernel_matrix(x, 1e-150).entries, want)

    def test_rbf_bit_identical_to_one_expression(self):
        x = np.random.default_rng(19).standard_normal((60, 4)) * 2.0
        for sigma in (1e-150, 0.3, 1.3, 7.0):
            want = PsdMatrix(rbf_kernel_expression(x, sigma)).entries
            got = rbf_kernel_matrix(x, sigma).entries
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_rbf_at_subnormal_two_sigma_squared_is_the_identity(self):
        # 2 sigma^2 = 2e-320 is subnormal: every off-diagonal d^2 / (2 sigma^2)
        # overflows to inf, and exp(-inf) = 0 is the kernel's exact limit
        x = np.random.default_rng(20).standard_normal((5, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = rbf_kernel_matrix(x, 1e-160)
        assert np.array_equal(m.entries, np.eye(5))

    @pytest.mark.filterwarnings("error")
    def test_rbf_rejects_bad_sigma(self):
        with pytest.raises(ValidationError):
            rbf_kernel_matrix(np.ones((2, 2)), 0.0)
        # scaled so that 1e150 squared fits, 2 sigma^2 and (1e-200 - 0)^2 both read 0
        with pytest.raises(ValidationError, match="^sigma = 1e-200 is too small for the data's "
                                                  "range: scaled to fit it, 2 sigma\\^2 and the "
                                                  "squared distance of two distinct points "
                                                  "both underflow to 0$"):
            rbf_kernel_matrix(np.array([[0.0], [1e-200], [1e150]]), 1e-200)
        # the shift that keeps 1e300 in range takes 2 s^2 and (1e-100 - 0)^2 to 0 alike
        for sigma in (1e-100, 1e-160):
            with pytest.raises(ValidationError, match=f"^sigma = {sigma:g} is too small"):
                rbf_kernel_matrix(np.array([[0.0], [1e-100], [1e300]]), sigma)

    @pytest.mark.parametrize("points, sigma, want", [
        ([0.0, 1e-200], 1e-200, np.exp(-0.5)),
        ([3 * 2.0**-1040, 0.0], 2.0**-1040, np.exp(-4.5)),
        ([1.0, 0.0], 1e-200, 0.0),             # exp(-5e399): the exact limit, as at sigma 1e-160
    ], ids=["d = sigma", "subnormal sigma", "d = 1e200 sigma"])
    def test_rbf_where_two_sigma_squared_underflows(self, points, sigma, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = rbf_kernel_matrix(np.array(points)[:, None], sigma)
        assert m.entries[0, 1] == want and np.array_equal(np.diag(m.entries), [1.0, 1.0])

    def test_rbf_shift_keeps_the_bits_of_sigma_one(self):
        # sigma 2^-1000 and the data scaled alike: the kernel of sigma 1, bit for bit
        x = np.random.default_rng(21).standard_normal((20, 3)) * 2.0 ** np.arange(-10, 10)[:, None]
        want = rbf_kernel_matrix(x, 1.0).entries
        got = rbf_kernel_matrix(np.ldexp(x, -1000), 2.0 ** -1000).entries
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_load_matrix_whitespace_and_commas(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2, 1\n1, 2\n")
        m = load_matrix(p)
        assert np.array_equal(m.entries, [[2.0, 1.0], [1.0, 2.0]])

    def test_load_matrix_rejects_ragged(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 2\n3\n")
        with pytest.raises(ValidationError):
            load_matrix(p)

    def test_load_matrix_rejects_nonsquare(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 2 3\n4 5 6\n")
        with pytest.raises(ValidationError):
            load_matrix(p)


class TestReadArray:
    @pytest.mark.parametrize("text", [
        "2 1\n\n\n1 2\n",
        "2 1\r\n1 2\r\n",
        "2, 1,\n1, 2,\n",
        "2\t1\n1\t2",
        "  2 1  \n   \n1 2\n\n",
        "2,1\n \n\n1 ,2",
        ",2 , 1,\n\t\n1,,2 ,\n",
    ])
    def test_accepted_layouts(self, tmp_path, text):
        p = tmp_path / "m.txt"
        p.write_bytes(text.encode())
        assert np.array_equal(read_array(p), [[2.0, 1.0], [1.0, 2.0]])

    # str.splitlines ends a line at each of these; iterating over a text
    # file ends lines only at newlines, after reading "\r" and "\r\n" as one
    @pytest.mark.parametrize("sep", [
        "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r", "\r\n",
    ])
    def test_lines_end_where_splitlines_ends_them(self, tmp_path, sep):
        p = tmp_path / "m.txt"
        p.write_bytes(f"2, 1{sep}{sep}1 2\n".encode())
        assert np.array_equal(read_array(p), [[2.0, 1.0], [1.0, 2.0]])
        p.write_bytes(f"1 2{sep}{sep}3 4\n5 6{sep}7 x\n".encode())
        with pytest.raises(ValidationError) as info:
            read_array(p)
        assert "line 5, column 2: could not convert string 'x'" in str(info.value)

    def test_undecodable_file_is_a_validation_error(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_bytes(b"1 2\n\xff\xfe 3\n")
        with pytest.raises(ValidationError):
            read_array(p)

    def test_single_row_and_value_are_2d(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 2 3\n")
        assert read_array(p).shape == (1, 3)
        p.write_text("5\n")
        assert read_array(p).shape == (1, 1)

    @pytest.mark.parametrize("text, detail", [
        ("", "is empty"),
        (" \n\t\n\n", "is empty"),
        ("\v\r\n\f\u2028 \x85\r", "is empty"),
        ("1 2\n3\n", "number of columns changed"),
        ("1 # 2\n3 4 5\n", "'#'"),
        ("# header\n1 2\n", "'#'"),
        ("1 x\n3 4\n", "'x'"),
        ("1_000 2\n3 4\n", "'1_000'"),
        ("\u0661 2\n3 4\n", "could not convert string"),
    ])
    def test_rejected_without_warning(self, tmp_path, text, detail):
        p = tmp_path / "bad.txt"
        p.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as info:
                read_array(p)
        assert str(p) in str(info.value)
        assert detail in str(info.value)

    @pytest.mark.parametrize("text, where", [
        ("1 2\n\n3 x", "line 3, column 2: could not convert string 'x'"),
        ("1 2\n\n3", "line 3: the number of columns changed from 2 to 1"),
        ("1, 2\n\n\n3, 4,\n\n5 6 7\n", "line 6: the number of columns changed from 2 to 3"),
        ("\n1 2\n3 4 5 x\n", "line 3, column 4: could not convert string 'x'"),
    ])
    def test_error_names_the_file_line(self, tmp_path, text, where):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(ValidationError) as info:
            read_array(p)
        detail = str(info.value).split(str(p))[1]
        assert where in detail
        assert "row" not in detail and "usecols" not in detail

    def test_bit_identical_to_python_float(self, spd1000):
        want = np.array([[float(t) for t in line.split()]
                         for line in spd1000.read_text().splitlines()])
        got = read_array(spd1000)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
