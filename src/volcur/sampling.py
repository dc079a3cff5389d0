"""Volume sampling of column subsets and expected-error evaluation.

A size-k subset S is drawn with probability proportional to det M[S,S].
The expected nuclear-norm error of the CUR approximation built on such a
subset has the exact closed form

    E |M - M_S|_* = (k+1) * c_{k+1}(M) / c_k(M),

where c_j is the sum of j x j principal minors (equivalently e_j of the
eigenvalues).  This module provides that formula, a brute-force
enumeration oracle for it, an exact sampler, and a Monte Carlo estimate.

Randomness: a counter-based Philox generator keyed by the seed.  Parallel
callers split streams with Philox(seed).jumped(i) for substream i; every
categorical draw uses explicit inverse-CDF lookup, so identical seeds give
bit-identical subsets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import (
    CapExceededError,
    DegenerateDistributionError,
    NumericalError,
    SingularPivotError,
    ValidationError,
)
from .esp import esp_marginals, esp_ratio
from .psd import (
    EigenDecomposition,
    PIVOT_REL_TOL,
    PsdMatrix,
    cur_error_nuclear,
    eigendecompose,
    partition,
    pivoted_cholesky,
    schur_complement,
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

    @cached_property
    def as_dict(self) -> dict[tuple[int, ...], float]:
        return dict(zip(self.subsets, self.probabilities.tolist()))


def _check_k(k: int, n: int) -> None:
    if not isinstance(k, int) or k < 1:
        raise ValidationError("k must be a positive integer")
    if k > n:
        raise ValidationError(f"k = {k} exceeds the matrix size n = {n}")


def enumerate_distribution(m: PsdMatrix, k: int) -> VolumeDistribution:
    """All size-k subsets with their volume-sampling probabilities.

    Subset weights are principal-minor determinants via pivoted Cholesky;
    a pivot below PIVOT_REL_TOL * lambda_max counts the minor as singular
    (weight zero).  Refuses more than ENUMERATION_CAP subsets.
    """
    _check_k(k, m.n)
    count = math.comb(m.n, k)
    if count > ENUMERATION_CAP:
        raise CapExceededError(
            f"C({m.n},{k}) = {count} subsets exceeds the enumeration cap "
            f"{ENUMERATION_CAP}; use sample_subset instead")
    floor = PIVOT_REL_TOL * m.lambda_max
    subsets = []
    weights = np.empty(count)
    entries = m.entries
    for idx, s in enumerate(combinations(range(m.n), k)):
        block = entries[np.ix_(s, s)]
        _, _, pivots, rank = pivoted_cholesky(block, pivot_floor=floor)
        weights[idx] = float(np.prod(pivots)) if rank == k else 0.0
        subsets.append(s)
    normalizer = float(weights.sum())
    if normalizer <= 0.0:
        raise DegenerateDistributionError(
            f"every {k}-subset has zero volume: matrix rank is below {k}")
    return VolumeDistribution(
        k=k,
        subsets=tuple(subsets),
        weights=weights,
        normalizer=normalizer,
        probabilities=weights / normalizer,
    )


def _pick(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF categorical draw (deterministic given the stream)."""
    cdf = np.cumsum(weights)
    u = rng.random() * cdf[-1]
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

    At each step a row is drawn proportional to its squared norm, then the
    chosen row is eliminated from the column space (its row becomes zero in
    every remaining column) and the basis is re-orthonormalized.
    """
    work = v.copy()
    chosen: list[int] = []
    for _ in range(v.shape[1]):
        row_mass = np.einsum("ij,ij->i", work, work)
        i = _pick(row_mass, rng)
        chosen.append(i)
        j = int(np.argmax(np.abs(work[i, :])))
        pivot_col = work[:, j] / work[i, j]
        work = work - np.outer(pivot_col, work[i, :])
        work = np.delete(work, j, axis=1)
        if work.shape[1]:
            work, _ = np.linalg.qr(work)
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
    if not isinstance(k, int) or k < 1:
        raise ValidationError("k must be a positive integer")
    if draws < 1:
        raise ValidationError("draws must be a positive integer")
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
    if not isinstance(k, int) or k < 1:
        raise ValidationError("k must be a positive integer")
    return (k + 1) * esp_ratio(spec, k)


def expected_error_bruteforce(m: PsdMatrix, k: int) -> float:
    """Expected CUR error by full enumeration: sum of p(S) * error(S).

    The independent oracle for expected_error_exact.  Zero-weight subsets
    (singular A) are skipped; so are subsets whose Schur solve reports a
    singular pivot, which can only happen within a hair of the weight
    floor, where the probability mass is negligible.
    """
    dist = enumerate_distribution(m, k)
    total = 0.0
    for s, p in zip(dist.subsets, dist.probabilities):
        if p == 0.0:
            continue
        try:
            err = max(float(np.trace(schur_complement(partition(m, s)))), 0.0)
        except SingularPivotError:
            continue
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
