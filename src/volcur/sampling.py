"""Volume sampling of column subsets and expected-error evaluation.

A size-k subset S is drawn with probability proportional to det M[S,S].
The expected nuclear-norm error of the CUR approximation built on such a
subset has the exact closed form

    E |M - M_S|_* = (k+1) * c_{k+1}(M) / c_k(M),

where c_j is the sum of j x j principal minors (equivalently e_j of the
eigenvalues).  This module provides that formula, a brute-force
enumeration oracle for it, an exact sampler, and a Monte Carlo estimate.

Given the eigendecomposition, one draw costs O(n k^2): O(n) to choose the
k eigenvectors, then k rank-one updates of length n per projection DPP.

Randomness: sample_subsets takes an integer seed and draws every subset,
in order, from one counter-based Philox(seed) stream; there is no
substream argument.  Every categorical draw uses explicit inverse-CDF
lookup, so identical seeds give bit-identical subsets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    CapExceededError,
    DegenerateDistributionError,
    NumericalError,
    checked_int,
)
from .esp import esp_marginals, esp_ratio
from .psd import (
    EigenDecomposition,
    PIVOT_REL_TOL,
    PsdMatrix,
    _partial_cholesky,
    _subset_factor,
    cur_error_nuclear,
    eigendecompose,
)
from .spectra import Spectrum

__all__ = [
    "ENUMERATION_CAP",
    "VolumeDistribution",
    "enumerate_distribution",
    "sample_subsets",
    "expected_error_exact",
    "expected_error_bruteforce",
    "empirical_error",
]

ENUMERATION_CAP = 1_000_000


@dataclass(frozen=True, eq=False)
class VolumeDistribution:
    """Exhaustive volume-sampling distribution over size-k subsets."""

    k: int
    subsets: tuple[tuple[int, ...], ...]
    weights: np.ndarray        # det M[S,S] per subset
    normalizer: float          # sum of weights = c_k(M)
    probabilities: np.ndarray
    errors: np.ndarray         # CUR nuclear error per subset, 0 at weight 0

    @property
    def expected_error(self) -> float:
        """Sum of p(S) * error(S): the brute-force expected CUR error."""
        return math.fsum(self.probabilities * self.errors)


def enumerate_distribution(m: PsdMatrix, k: int) -> VolumeDistribution:
    """All size-k subsets with their volume-sampling probabilities and errors.

    One greedy pivoted Cholesky of M over each subset gives both: its
    pivots multiply to the weight det M[S,S], and its residual diagonal
    sums to the CUR error.  A pivot at or below PIVOT_REL_TOL * lambda_max
    counts the minor as singular: weight zero and error zero (it is never
    drawn).  Refuses more than ENUMERATION_CAP subsets.
    """
    k = checked_int(k, "k", 1, m.n)
    count = math.comb(m.n, k)
    if count > ENUMERATION_CAP:
        raise CapExceededError(
            f"C({m.n},{k}) = {count} subsets exceeds the enumeration cap "
            f"{ENUMERATION_CAP}; use sample_subsets instead")
    floor = PIVOT_REL_TOL * m.lambda_max
    subsets = tuple(combinations(range(m.n), k))
    weights = np.zeros(count)
    errors = np.zeros(count)
    for idx, s in enumerate(subsets):
        pivots, d, _ = _subset_factor(m, s, floor)
        if len(pivots) < k:
            continue
        weights[idx] = math.prod(pivots)
        errors[idx] = float(np.sum(d))
    normalizer = float(weights.sum())
    if normalizer <= 0.0:
        raise DegenerateDistributionError(
            f"every {k}-subset has zero volume: matrix rank is below {k}")
    return VolumeDistribution(
        k=k,
        subsets=subsets,
        weights=weights,
        normalizer=normalizer,
        probabilities=weights / normalizer,
        errors=errors,
    )


def _pick(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF categorical draw (deterministic given the stream).

    Raises NumericalError unless the weights have a positive finite sum.
    """
    cdf = np.cumsum(weights)
    total = float(cdf[-1])
    if not (math.isfinite(total) and total > 0.0):
        raise NumericalError(f"cannot draw an index from weights summing to {total}")
    u = rng.random() * total
    return min(int(np.searchsorted(cdf, u, side="right")), weights.size - 1)


def _select_eigenvector_subset(
    marginals: np.ndarray, k: int, rng: np.random.Generator
) -> list[int]:
    """Choose k eigenvector indices with probability prop. to their product.

    Scanning i from the last eigenvalue down, index i-1 joins with
    probability marginals[rem, i] (see esp_marginals).
    """
    chosen: list[int] = []
    rem = k
    for i in range(marginals.shape[1] - 1, 0, -1):
        if rem == 0:
            break
        if rng.random() < marginals[rem, i]:
            chosen.append(i - 1)
            rem -= 1
    return chosen


def _sample_projection_dpp(v: np.ndarray, rng: np.random.Generator) -> list[int]:
    """Exact sample of |columns| indices from the projection DPP of V V^T.

    Randomly pivoted Cholesky of K = V V^T (V with orthonormal columns),
    psd._partial_cholesky with columns V V[i]^T and the pick _pick(d):
    the residual diagonal d starts as the squared row norms of V, and each
    step draws a row i proportional to d.  d is the row mass of V's basis
    re-orthonormalized after eliminating the rows chosen so far, so this
    is the chain rule of the projection DPP.  A step costs O(n k).
    """
    d = np.einsum("ij,ij->i", v, v)
    return _partial_cholesky(
        d, lambda i: v @ v[i], lambda d: _pick(d, rng), v.shape[1])[0]


def sample_subsets(
    ed: EigenDecomposition, k: int, draws: int, seed: int
) -> list[tuple[int, ...]]:
    """Draw `draws` independent volume-sampled subsets of size k.

    Two phases per draw: pick k eigenvector indices weighted by eigenvalue
    products (ESP marginals), then sample the projection determinantal
    process they span.  The mixture is exactly P(S) = det M[S,S] / c_k(M).
    A draw without k distinct indices raises NumericalError.
    """
    k = checked_int(k, "k", 1)
    draws = checked_int(draws, "draws", 1)
    seed = checked_int(seed, "seed", 0)
    if k > ed.rank:
        raise DegenerateDistributionError(
            f"cannot volume-sample {k} columns from a rank-{ed.rank} matrix")
    rng = np.random.Generator(np.random.Philox(seed))
    marginals = esp_marginals(ed.eigenvalues, k)
    out = []
    for _ in range(draws):
        eig_subset = _select_eigenvector_subset(marginals, k, rng)
        v = ed.vectors[:, eig_subset]
        subset = tuple(sorted(_sample_projection_dpp(v, rng)))
        if len(set(subset)) != k:
            raise NumericalError(
                f"a draw gave {len(set(subset))} distinct indices instead of {k}")
        out.append(subset)
    return out


def expected_error_exact(spec: Spectrum, k: int) -> float:
    """Exact expected nuclear error under volume sampling: (k+1) e_{k+1}/e_k."""
    k = checked_int(k, "k", 1)
    return (k + 1) * esp_ratio(spec, k)


def expected_error_bruteforce(m: PsdMatrix, k: int) -> float:
    """Expected CUR error by full enumeration: sum of p(S) * error(S).

    The independent oracle for expected_error_exact.  Each subset's error
    comes from the same factor as its weight; zero-weight subsets (singular
    A under the weight floor) add nothing.
    """
    return enumerate_distribution(m, k).expected_error


def empirical_error(
    m: PsdMatrix, k: int, draws: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the expected CUR error: (mean, stderr)."""
    ed = eigendecompose(m)
    subsets = sample_subsets(ed, k, draws, seed)
    errors = np.array([cur_error_nuclear(m, s) for s in subsets])
    mean = float(errors.mean())
    stderr = float(errors.std(ddof=1) / math.sqrt(draws)) if draws > 1 else 0.0
    return mean, stderr
