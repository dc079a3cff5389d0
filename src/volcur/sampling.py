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

Randomness: a counter-based Philox generator keyed by the seed.  Parallel
callers split streams with Philox(seed).jumped(i) for substream i; every
categorical draw uses explicit inverse-CDF lookup, so identical seeds give
bit-identical subsets.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    CapExceededError,
    DegenerateDistributionError,
    NumericalError,
    ValidationError,
)
from .esp import esp_marginals, esp_ratio
from .psd import (
    EigenDecomposition,
    PIVOT_REL_TOL,
    PsdMatrix,
    _residual_trace,
    _whiten,
    cur_error_nuclear,
    eigendecompose,
    pivoted_cholesky,
)
from .spectra import Spectrum

__all__ = [
    "ENUMERATION_CAP",
    "VolumeDistribution",
    "enumerate_distribution",
    "sample_subset",
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


def _positive_int(value: int, name: str) -> int:
    """value as a Python int (numpy integers too); ValidationError unless >= 1."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be a positive integer") from None
    if value < 1:
        raise ValidationError(f"{name} must be a positive integer")
    return value


def _check_k(k: int, n: int) -> int:
    k = _positive_int(k, "k")
    if k > n:
        raise ValidationError(f"k = {k} exceeds the matrix size n = {n}")
    return k


def _enumerate(
    m: PsdMatrix, k: int, with_errors: bool
) -> tuple[VolumeDistribution, np.ndarray]:
    """The volume distribution, and the CUR error of each subset if asked.

    One pivoted Cholesky per subset gives both: its pivots multiply to the
    weight det M[S,S], and its factor whitens M[S,~S] for the error.  A
    subset whose weight is zero gets error zero (it is never drawn).
    """
    k = _check_k(k, m.n)
    count = math.comb(m.n, k)
    if count > ENUMERATION_CAP:
        raise CapExceededError(
            f"C({m.n},{k}) = {count} subsets exceeds the enumeration cap "
            f"{ENUMERATION_CAP}; use sample_subset instead")
    floor = PIVOT_REL_TOL * m.lambda_max
    everything = np.arange(m.n)
    subsets = []
    weights = np.zeros(count)
    errors = np.zeros(count if with_errors else 0)
    for idx, s in enumerate(combinations(range(m.n), k)):
        subsets.append(s)
        lower, perm, pivots, rank = pivoted_cholesky(
            m.entries[np.ix_(s, s)], pivot_floor=floor)
        if rank < k:
            continue
        weights[idx] = float(np.prod(pivots))
        if with_errors:
            rows = np.array(s)
            comp = np.setdiff1d(everything, rows)
            errors[idx] = _residual_trace(m, comp, _whiten(m, rows, comp, lower, perm))
    normalizer = float(weights.sum())
    if normalizer <= 0.0:
        raise DegenerateDistributionError(
            f"every {k}-subset has zero volume: matrix rank is below {k}")
    dist = VolumeDistribution(
        k=k,
        subsets=tuple(subsets),
        weights=weights,
        normalizer=normalizer,
        probabilities=weights / normalizer,
    )
    return dist, errors


def enumerate_distribution(m: PsdMatrix, k: int) -> VolumeDistribution:
    """All size-k subsets with their volume-sampling probabilities.

    Subset weights are principal-minor determinants via pivoted Cholesky;
    a pivot below PIVOT_REL_TOL * lambda_max counts the minor as singular
    (weight zero).  Refuses more than ENUMERATION_CAP subsets.
    """
    return _enumerate(m, k, with_errors=False)[0]


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

    Randomly pivoted Cholesky of K = V V^T (V with orthonormal columns):
    with C the factor columns built so far, d = diag(K - C C^T), initially
    the squared row norms of V.  Each step draws a row i proportional to d,
    appends the column c = (K[:, i] - C C[i]^T) / sqrt(d[i]) to C and
    subtracts c*c from d, which zeroes d[i].  d is the row mass of V's
    basis re-orthonormalized after eliminating the rows chosen so far, so
    this is the chain rule of the projection DPP.  A step costs O(n k).
    """
    n, k = v.shape
    d = np.einsum("ij,ij->i", v, v)
    factor = np.empty((n, k))
    chosen: list[int] = []
    for t in range(k):
        i = _pick(d, rng)
        chosen.append(i)
        c = (v @ v[i] - factor[:, :t] @ factor[i, :t]) / math.sqrt(d[i])
        factor[:, t] = c
        d -= c * c
        d[i] = 0.0
        np.maximum(d, 0.0, out=d)
    return chosen


def sample_subsets(
    ed: EigenDecomposition, k: int, draws: int, seed: int
) -> list[tuple[int, ...]]:
    """Draw `draws` independent volume-sampled subsets of size k.

    Two phases per draw: pick k eigenvector indices weighted by eigenvalue
    products (ESP marginals), then sample the projection determinantal
    process they span.  The mixture is exactly P(S) = det M[S,S] / c_k(M).
    A draw without k distinct indices raises NumericalError.
    """
    k = _positive_int(k, "k")
    draws = _positive_int(draws, "draws")
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


def sample_subset(ed: EigenDecomposition, k: int, seed: int) -> tuple[int, ...]:
    """One volume-sampled subset of size k (deterministic in the seed)."""
    return sample_subsets(ed, k, 1, seed)[0]


def expected_error_exact(spec: Spectrum, k: int) -> float:
    """Exact expected nuclear error under volume sampling: (k+1) e_{k+1}/e_k."""
    k = _positive_int(k, "k")
    return (k + 1) * esp_ratio(spec, k)


def expected_error_bruteforce(m: PsdMatrix, k: int) -> float:
    """Expected CUR error by full enumeration: sum of p(S) * error(S).

    The independent oracle for expected_error_exact.  Each subset's error
    comes from the same factor as its weight; zero-weight subsets (singular
    A under the weight floor) add nothing.
    """
    dist, errors = _enumerate(m, k, with_errors=True)
    total = 0.0
    for p, err in zip(dist.probabilities, errors):
        total += p * err
    return total


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
