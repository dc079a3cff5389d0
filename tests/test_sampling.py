import math
from itertools import combinations

import numpy as np
import pytest

from oracles import (
    cur_solve, expected_error_enumeration, inclusion_probabilities, inverse_square_psd,
    random_psd, reference_draws)
import volcur.sampling
from volcur.esp import esp_marginals
from volcur import (
    CapExceededError,
    DegenerateDistributionError,
    EigenDecomposition,
    NumericalError,
    PsdMatrix,
    ValidationError,
    eigendecompose,
    empirical_error,
    enumerate_distribution,
    expected_error_bruteforce,
    expected_error_exact,
    invariant_sums,
    make_spectrum,
    sample_subsets,
)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestEnumerateDistribution:
    def test_diagonal_hand_case(self):
        m = PsdMatrix(np.diag([2.0, 1.0]))
        dist = enumerate_distribution(m, 1)
        assert list(dist.subsets) == [(0,), (1,)]
        assert np.allclose(dist.probabilities, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)
        assert dist.normalizer == pytest.approx(3.0)

    def test_identity_is_uniform(self):
        dist = enumerate_distribution(PsdMatrix(np.eye(4)), 2)
        assert len(dist.subsets) == 6
        assert np.allclose(dist.probabilities, 1.0 / 6.0, rtol=1e-12)
        assert dist.normalizer == pytest.approx(6.0)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(21)
        m = PsdMatrix(random_psd(rng, 6, 6))
        for k in range(1, 6):
            dist = enumerate_distribution(m, k)
            assert math.fsum(dist.probabilities.tolist()) == pytest.approx(1.0)

    def test_weights_match_principal_minors(self):
        rng = np.random.default_rng(22)
        m = PsdMatrix(random_psd(rng, 6, 6))
        dist = enumerate_distribution(m, 3)
        for s, w in zip(dist.subsets, dist.weights):
            det = float(np.linalg.det(m.entries[np.ix_(s, s)]))
            assert rel_err(w, det) < 1e-8

    def test_weights_and_errors_match_referees(self):
        # every subset: weight against LU, error against the solve referee
        rng = np.random.default_rng(24)
        for trial in range(12):
            n = int(rng.integers(2, 8))
            r = n if trial % 2 else int(rng.integers(1, n + 1))
            m = PsdMatrix(random_psd(rng, n, r))
            for k in range(1, min(r, n - 1) + 1):
                dist = enumerate_distribution(m, k)
                for s, w, err in zip(dist.subsets, dist.weights, dist.errors):
                    det = float(np.linalg.det(m.entries[np.ix_(s, s)]))
                    if w == 0.0:
                        assert err == 0.0
                        assert abs(det) < 1e-12 * m.lambda_max ** k
                        continue
                    assert rel_err(w, det) < 1e-8
                    ref, _ = cur_solve(m.entries, s)
                    assert abs(err - ref) <= 1e-12 * max(abs(ref), m.lambda_max)

    def test_normalizer_equals_invariant_sum(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            n = int(rng.integers(2, 8))
            r = int(rng.integers(1, n + 1))
            m = PsdMatrix(random_psd(rng, n, r))
            for k in range(1, r + 1):
                dist = enumerate_distribution(m, k)
                c = invariant_sums(m, k)[k]
                assert rel_err(dist.normalizer, c) < 1e-8

    def test_rank_deficient_subsets_get_zero_weight(self):
        g = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        m = PsdMatrix(g @ g.T)
        dist = enumerate_distribution(m, 2)
        probs = dict(zip(dist.subsets, dist.probabilities))
        assert probs[(0, 1)] == 0.0
        assert probs[(0, 2)] > 0.0

    def test_degenerate_when_k_exceeds_rank(self):
        g = np.ones((3, 1))
        with pytest.raises(DegenerateDistributionError):
            enumerate_distribution(PsdMatrix(g @ g.T), 2)

    def test_cap_exceeded(self):
        m = PsdMatrix(np.eye(50))
        with pytest.raises(CapExceededError):
            enumerate_distribution(m, 10)

    def test_k_validation(self):
        m = PsdMatrix(np.eye(3))
        with pytest.raises(ValidationError):
            enumerate_distribution(m, 0)
        with pytest.raises(ValidationError):
            enumerate_distribution(m, 4)


class TestSampler:
    def test_same_seed_same_draws(self):
        rng = np.random.default_rng(24)
        ed = eigendecompose(PsdMatrix(random_psd(rng, 7, 7)))
        a = sample_subsets(ed, 3, 50, seed=123)
        b = sample_subsets(ed, 3, 50, seed=123)
        assert a == b

    def test_different_seed_differs(self):
        rng = np.random.default_rng(25)
        ed = eigendecompose(PsdMatrix(random_psd(rng, 7, 7)))
        a = sample_subsets(ed, 3, 50, seed=1)
        b = sample_subsets(ed, 3, 50, seed=2)
        assert a != b

    def test_subsets_are_sorted_tuples_in_range(self):
        rng = np.random.default_rng(26)
        ed = eigendecompose(PsdMatrix(random_psd(rng, 6, 6)))
        for s in sample_subsets(ed, 2, 200, seed=5):
            assert s == tuple(sorted(s))
            assert len(s) == 2
            assert all(0 <= i < 6 for i in s)

    def test_never_emits_zero_weight_subsets(self):
        # rows 0 and 1 are identical, so {0,1} has zero volume
        g = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 2.0]])
        ed = eigendecompose(PsdMatrix(g @ g.T))
        assert ed.rank == 2
        for s in sample_subsets(ed, 2, 500, seed=3):
            assert s != (0, 1)

    def test_k_above_rank_degenerate(self):
        g = np.ones((4, 2))
        g[:, 1] = [1.0, 2.0, 3.0, 4.0]
        ed = eigendecompose(PsdMatrix(g @ g.T))
        with pytest.raises(DegenerateDistributionError):
            sample_subsets(ed, 3, 1, seed=0)

    def test_k_validation(self):
        rng = np.random.default_rng(28)
        ed = eigendecompose(PsdMatrix(random_psd(rng, 4, 4)))
        with pytest.raises(ValidationError):
            sample_subsets(ed, 0, 1, seed=0)
        with pytest.raises(ValidationError):
            sample_subsets(ed, 2, 0, seed=0)

    def test_frequencies_match_enumeration(self):
        m = PsdMatrix(np.diag([3.0, 2.0, 1.0]))
        dist = enumerate_distribution(m, 1)
        ed = eigendecompose(m)
        draws = 20000
        counts = {s: 0 for s in dist.subsets}
        for s in sample_subsets(ed, 1, draws, seed=77):
            counts[s] += 1
        tv = 0.5 * sum(
            abs(counts[s] / draws - p) for s, p in zip(dist.subsets, dist.probabilities))
        assert tv < 0.02

    def test_deep_spectrum_draws_k_distinct_indices(self):
        # e_150 of i^-2 is about 1e-485: the marginals used to be 0/0
        ed = eigendecompose(PsdMatrix(inverse_square_psd()))
        assert ed.rank == 300
        for s in sample_subsets(ed, 150, 2, seed=1):
            assert len(set(s)) == 150

    def test_spread_spectrum_inclusion_frequencies(self):
        # one eigenvalue 1 and eleven 1e-70: index 0 is in almost every
        # subset, and each other index in C(10,4)/C(11,5) = 5/11 of them
        ed = EigenDecomposition(
            vectors=np.eye(12), eigenvalues=make_spectrum([1.0] + [1e-70] * 11))
        draws = 2000
        counts = np.zeros(12)
        for s in sample_subsets(ed, 6, draws, seed=17):
            assert len(set(s)) == 6
            counts[list(s)] += 1
        assert counts[0] == draws
        p = 5.0 / 11.0
        stderr = math.sqrt(p * (1.0 - p) / draws)
        assert np.all(np.abs(counts[1:] / draws - p) < 4.0 * stderr)

    def test_draw_without_k_distinct_indices_raises(self, monkeypatch):
        ed = eigendecompose(PsdMatrix(np.eye(4)))
        monkeypatch.setattr(volcur.sampling, "esp_marginals",
                            lambda spec, k: np.zeros((k + 1, spec.n + 1)))
        with pytest.raises(NumericalError):
            sample_subsets(ed, 2, 1, seed=0)

    @pytest.mark.parametrize("k, draws", [(1, 30), (8, 30), (40, 3)])
    def test_matches_qr_oracle_on_the_same_stream(self, k, draws):
        ed = eigendecompose(PsdMatrix(random_psd(np.random.default_rng(40), 40, 40)))
        assert sample_subsets(ed, k, draws, seed=k) == _oracle_draws(ed, k, draws, k)

    def test_matches_qr_oracle_on_deep_spectrum(self):
        ed = eigendecompose(PsdMatrix(inverse_square_psd()))
        assert sample_subsets(ed, 150, 2, seed=3) == _oracle_draws(ed, 150, 2, 3)

    def test_matches_qr_oracle_past_the_block(self, monkeypatch):
        # two proposals per block: most draws read on from their continuation
        monkeypatch.setattr(volcur.sampling, "_window", lambda k: 2)
        ed = eigendecompose(PsdMatrix(random_psd(np.random.default_rng(42), 40, 40)))
        assert sample_subsets(ed, 8, 30, seed=8) == _oracle_draws(ed, 8, 30, 8)

    def test_draws_do_not_depend_on_count_or_chunk(self, monkeypatch):
        ed = eigendecompose(PsdMatrix(random_psd(np.random.default_rng(43), 7, 7)))
        full = sample_subsets(ed, 3, 23, seed=5)
        monkeypatch.setattr(volcur.sampling, "_CHUNK_BYTES",
                            5 * volcur.sampling._draw_bytes(7, 7, 3))    # chunks of 5 draws
        assert sample_subsets(ed, 3, 23, seed=5) == full
        for m in (4, 5, 6, 10, 11):
            assert sample_subsets(ed, 3, m, seed=5) == full[:m]
        monkeypatch.setattr(volcur.sampling, "_CHUNK_BYTES", 1)
        assert sample_subsets(ed, 3, 23, seed=5) == full

    def test_run_of_rejections_raises(self):
        # parallel columns: after one pick every residual is zero
        ed = EigenDecomposition._of_eigh(np.full((4, 2), 0.5), make_spectrum([1.0, 1.0]))
        with pytest.raises(NumericalError, match="128 proposals in a row"):
            sample_subsets(ed, 2, 1, seed=0)

    def test_inclusion_frequencies_match_kdpp_marginals_at_n1000(self):
        # G G^T with rows of G scaled by 0.25..2: inclusion probabilities
        # spread over an order of magnitude.  A priori bounds: 2000 draws,
        # every index within 5 standard errors, mean z^2 (about 1) below 1.3
        n, k, draws = 1000, 50, 2000
        rng = np.random.default_rng(1000)
        g = np.linspace(0.25, 2.0, n)[:, None] * rng.standard_normal((n, n)) / math.sqrt(n)
        ed = eigendecompose(PsdMatrix(g @ g.T))
        p = inclusion_probabilities(ed.vectors, ed.eigenvalues.values, k)
        assert math.fsum(p) == pytest.approx(k, rel=1e-12)
        assert p.max() > 10.0 * p.min()
        counts = np.bincount(np.concatenate(sample_subsets(ed, k, draws, seed=7)),
                             minlength=n)
        z = (counts / draws - p) / np.sqrt(p * (1.0 - p) / draws)
        assert np.max(np.abs(z)) < 5.0
        assert np.mean(z * z) < 1.3

    def test_numpy_integer_k_and_draws(self):
        ed = eigendecompose(PsdMatrix(random_psd(np.random.default_rng(41), 6, 6)))
        assert (sample_subsets(ed, np.int64(2), np.int64(5), seed=2)
                == sample_subsets(ed, 2, 5, seed=2))

    def test_non_integer_k_and_draws_rejected(self):
        ed = eigendecompose(PsdMatrix(np.eye(4)))
        with pytest.raises(ValidationError):
            sample_subsets(ed, 2.5, 1, seed=0)
        with pytest.raises(ValidationError):
            sample_subsets(ed, 2, 2.5, seed=0)

    @pytest.mark.parametrize("weights", [[0.0, 0.0, 0.0], [1.0, np.nan, 1.0]])
    def test_weights_without_positive_finite_sum_raise(self, weights):
        # the one eigenvector is picked surely; its squared entries are the weights
        ed = EigenDecomposition._of_eigh(np.array(weights)[:, None], make_spectrum([1.0]))
        with pytest.raises(NumericalError, match="weights summing to"):
            sample_subsets(ed, 1, 3, seed=0)

    def test_uniformity_chi_square(self):
        stats = pytest.importorskip("scipy.stats")
        ed = eigendecompose(PsdMatrix(np.eye(4)))
        draws = 12000
        cells = list(combinations(range(4), 2))
        counts = {s: 0 for s in cells}
        for s in sample_subsets(ed, 2, draws, seed=99):
            counts[s] += 1
        result = stats.chisquare([counts[s] for s in cells])
        assert result.pvalue > 1e-3


def _oracle_draws(ed, k, draws, seed):
    """sample_subsets by the serial referees on the same uniforms."""
    return reference_draws(ed.vectors, esp_marginals(ed.eigenvalues, k), k, draws, seed,
                           volcur.sampling._window(k))


class TestExpectedError:
    def test_diagonal_hand_case(self):
        # diag(2,1), k=1: 2 * e_2/e_1 = 2 * (2/3) = 4/3
        spec = make_spectrum([2.0, 1.0])
        assert expected_error_exact(spec, 1) == pytest.approx(4.0 / 3.0)

    def test_identity_gives_n_minus_k(self):
        spec = make_spectrum([1.0] * 5)
        # e_{k+1}/e_k for all-ones is C(n,k+1)/C(n,k); times (k+1) gives n-k
        assert expected_error_exact(spec, 2) == pytest.approx(3.0)

    def test_k_at_rank_is_zero(self):
        spec = make_spectrum([2.0, 1.0, 0.0])
        assert expected_error_exact(spec, 2) == 0.0

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(29)
        for trial in range(25):
            n = int(rng.integers(2, 8))
            r = int(rng.integers(1, n + 1))
            zero = 1 if (trial % 4 == 0 and n > 2) else 0
            m = PsdMatrix(random_psd(rng, n, r, zero_rows=zero))
            ed = eigendecompose(m)
            for k in range(1, min(ed.rank, 4) + 1):
                exact = expected_error_exact(ed.eigenvalues, k)
                brute = expected_error_bruteforce(m, k)
                scale = max(abs(exact), abs(brute))
                if scale < 1e-10 * m.lambda_max:
                    continue
                assert rel_err(exact, brute) < 1e-9

    def test_matches_independent_enumeration_oracle(self):
        rng = np.random.default_rng(30)
        for trial in range(10):
            n = int(rng.integers(3, 7))
            m = PsdMatrix(random_psd(rng, n, n))
            for k in (1, 2):
                exact = expected_error_exact(eigendecompose(m).eigenvalues, k)
                oracle = expected_error_enumeration(m.entries, k)
                assert rel_err(exact, oracle) < 1e-8

    def test_numpy_integer_k(self):
        spec = make_spectrum([3.0, 2.0, 1.0])
        m = PsdMatrix(np.diag([3.0, 2.0, 1.0]))
        assert expected_error_exact(spec, np.int64(2)) == expected_error_exact(spec, 2)
        assert (expected_error_bruteforce(m, np.int64(2))
                == expected_error_bruteforce(m, 2))
        with pytest.raises(ValidationError):
            expected_error_exact(spec, 2.5)
        with pytest.raises(ValidationError):
            enumerate_distribution(m, 2.5)

    def test_bruteforce_respects_cap(self):
        m = PsdMatrix(np.eye(40))
        with pytest.raises(CapExceededError):
            expected_error_bruteforce(m, 10)


class TestEmpiricalError:
    def test_rank_k_matrix_has_zero_error(self):
        rng = np.random.default_rng(31)
        g = rng.standard_normal((6, 2))
        m = PsdMatrix(g @ g.T)
        mean, stderr = empirical_error(m, 2, 40, seed=6)
        assert mean < 1e-9 * m.lambda_max
        assert stderr < 1e-9 * m.lambda_max

    def test_within_sampling_noise_of_exact(self):
        rng = np.random.default_rng(32)
        m = PsdMatrix(random_psd(rng, 6, 6))
        ed = eigendecompose(m)
        exact = expected_error_exact(ed.eigenvalues, 2)
        mean, stderr = empirical_error(m, 2, 2000, seed=8)
        assert abs(mean - exact) < 4.0 * stderr

    def test_single_draw_has_zero_stderr(self):
        m = PsdMatrix(np.diag([2.0, 1.0]))
        mean, stderr = empirical_error(m, 1, 1, seed=4)
        assert stderr == 0.0
        assert mean in (pytest.approx(1.0), pytest.approx(2.0))
