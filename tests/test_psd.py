import warnings

import numpy as np
import pytest

from oracles import (
    cur_pinv,
    cur_solve,
    minor_sums_brute,
    nuclear_norm_svd,
    random_psd,
    rbf_kernel_expression,
)
from volcur import (
    PsdMatrix,
    SingularPivotError,
    ValidationError,
    cur_approximation,
    cur_error_nuclear,
    eigendecompose,
    gram_matrix,
    invariant_sums,
    load_matrix,
    optimal_error,
    rbf_kernel_matrix,
    read_array,
)
from volcur.psd import PIVOT_REL_TOL, _subset_factor


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
        for kept in (m.entries, m.eigen.vectors, m.eigen.eigenvalues.values):
            assert not np.shares_memory(kept, a)
    assert a.tobytes() == before
    assert a.flags.writeable == writeable


class TestEigendecompose:
    def test_diagonal(self):
        ed = eigendecompose(PsdMatrix(np.diag([1.0, 2.0])))
        assert np.allclose(ed.eigenvalues.values, [2.0, 1.0])
        assert ed.rank == 2

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        m = PsdMatrix(random_psd(rng, 6, 6))
        ed = eigendecompose(m)
        rebuilt = (ed.vectors * ed.eigenvalues.values) @ ed.vectors.T
        assert np.allclose(rebuilt, m.entries, atol=1e-10 * m.lambda_max)

    def test_rank_detection(self):
        rng = np.random.default_rng(4)
        m = PsdMatrix(random_psd(rng, 7, 3))
        ed = eigendecompose(m)
        assert ed.rank == 3
        assert ed.vectors.shape == (7, 3)

    def test_computed_once_at_construction(self, monkeypatch):
        m = PsdMatrix(random_psd(np.random.default_rng(2), 5, 5))

        def no_solve(*args, **kwargs):
            raise AssertionError("eigensolver called after construction")
        monkeypatch.setattr(np.linalg, "eigh", no_solve)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
        assert eigendecompose(m) is m.eigen
        assert m.lambda_max == m.eigen.eigenvalues.values[0]
        invariant_sums(m, 5)
        cur_approximation(m, (0, 2))

    def test_zero_matrix_has_rank_zero(self):
        ed = eigendecompose(PsdMatrix(np.zeros((3, 3))))
        assert ed.rank == 0
        assert ed.eigenvalues.n == 0


class TestInvariantSums:
    def test_identity_binomials(self):
        m = PsdMatrix(np.eye(4))
        c = invariant_sums(m, 4)
        assert np.allclose(c, [1.0, 4.0, 6.0, 4.0, 1.0], rtol=1e-12)

    def test_matches_minor_enumeration(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            n = int(rng.integers(2, 8))
            r = int(rng.integers(1, n + 1))
            m = PsdMatrix(random_psd(rng, n, r))
            c = invariant_sums(m, n)
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
            with pytest.raises(SingularPivotError):
                f(m, (0, 1))

    def test_pivot_floor_boundary(self):
        # the floor is PIVOT_REL_TOL = 1e-14 times the block's largest diagonal
        singular = PsdMatrix(np.diag([1.0, 1e-15, 1.0]))
        with pytest.raises(SingularPivotError):
            cur_error_nuclear(singular, (0, 1))
        regular = PsdMatrix(np.diag([1.0, 2e-14, 1.0]))
        assert cur_error_nuclear(regular, (0, 1)) == 1.0


def greedy_factor(m: np.ndarray):
    """The greedy subset factor over all rows of m, at the CUR floor.

    Returns (pivots, F); F F^T is m up to a residual at or below the floor.
    """
    floor = PIVOT_REL_TOL * max(float(m.diagonal().max()), 0.0)
    pivots, _, factor = _subset_factor(PsdMatrix(m), np.arange(m.shape[0]), floor)
    return np.array(pivots), factor


class TestPivotedCholesky:
    """The kernel psd._subset_factor, mostly over all rows at the CUR floor."""

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
        # d leaves as diag(M - F F^T), zero on the chosen rows; a pivot at
        # the floor stops the factor
        m = random_psd(np.random.default_rng(20), 6, 6)
        pivots, d, factor = _subset_factor(PsdMatrix(m), (4, 1), 0.0)
        assert factor.shape == (6, 2)
        assert pivots[0] == max(m[4, 4], m[1, 1])
        assert rel_err(pivots[0] * pivots[1], float(np.linalg.det(m[np.ix_([4, 1], [4, 1])]))) < 1e-12
        assert np.array_equal(d[[4, 1]], [0.0, 0.0])
        assert np.allclose(d, np.diag(m - factor @ factor.T), atol=1e-12 * m.max())
        stopped, d, factor = _subset_factor(PsdMatrix(m), (4, 1), pivots[1])
        assert stopped == pivots[:1]
        assert factor.shape == (6, 1)


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
        with pytest.raises(SingularPivotError, match="singular at step 2 of 2"):
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
        ed = eigendecompose(PsdMatrix(np.diag([3.0, 2.0, 1.0])))
        assert optimal_error(ed.eigenvalues, 1) == pytest.approx(3.0)
        assert optimal_error(ed.eigenvalues, 3) == 0.0


class TestConstructorsAndIo:
    def test_gram(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        g = gram_matrix(x)
        assert g.n == 2
        assert np.allclose(g.entries, x.T @ x)

    def test_rbf_unit_diagonal_and_psd(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((8, 3))
        m = rbf_kernel_matrix(x, 1.3)
        assert np.allclose(np.diag(m.entries), 1.0)
        assert np.linalg.eigvalsh(m.entries)[0] > -1e-10

    def test_rbf_bit_identical_to_one_expression(self):
        x = np.random.default_rng(19).standard_normal((60, 4)) * 2.0
        for sigma in (0.3, 1.3, 7.0):
            want = PsdMatrix(rbf_kernel_expression(x, sigma)).entries
            got = rbf_kernel_matrix(x, sigma).entries
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_rbf_rejects_bad_sigma(self):
        with pytest.raises(ValidationError):
            rbf_kernel_matrix(np.ones((2, 2)), 0.0)

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
