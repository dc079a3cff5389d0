"""Independent brute-force oracles.

Everything here avoids the library's fast paths on purpose: ESP values by
subset enumeration, invariant sums by principal-minor determinants (LU),
nuclear norms by SVD, CUR matrices by the pseudoinverse formula, and
projection-DPP draws by re-orthonormalizing the basis with a QR per step.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np


def esp_brute(values, j: int) -> float:
    """e_j by explicit subset enumeration (math.fsum for stable adds)."""
    values = list(values)
    if j == 0:
        return 1.0
    if j > len(values):
        return 0.0
    return math.fsum(math.prod(c) for c in combinations(values, j))


def minor_sums_brute(m: np.ndarray, up_to: int) -> np.ndarray:
    """(c_0..c_up_to) by enumerating principal minors with np.linalg.det."""
    n = m.shape[0]
    out = np.zeros(up_to + 1)
    out[0] = 1.0
    for j in range(1, up_to + 1):
        out[j] = math.fsum(
            float(np.linalg.det(m[np.ix_(s, s)])) for s in combinations(range(n), j))
    return out


def nuclear_norm_svd(a: np.ndarray) -> float:
    """Nuclear norm of an arbitrary matrix via singular values."""
    return float(np.linalg.svd(a, compute_uv=False).sum())


def cur_pinv(m: np.ndarray, subset) -> np.ndarray:
    """Skeleton approximation by the pseudoinverse formula C A^+ C^T."""
    s = sorted(subset)
    cols = m[:, s]
    a = m[np.ix_(s, s)]
    return cols @ np.linalg.pinv(a) @ cols.T


def expected_error_enumeration(m: np.ndarray, k: int) -> float:
    """Expected CUR error with det weights (LU) and SVD error norms."""
    n = m.shape[0]
    scale = float(np.linalg.eigvalsh(m)[-1])
    weights, errors = [], []
    for s in combinations(range(n), k):
        w = float(np.linalg.det(m[np.ix_(s, s)]))
        if w <= 1e-12 * max(scale, 1.0) ** k:
            continue
        weights.append(w)
        errors.append(nuclear_norm_svd(m - cur_pinv(m, s)))
    weights = np.array(weights)
    return float(np.dot(weights / weights.sum(), np.array(errors)))


def qr_projection_dpp(v: np.ndarray, rng: np.random.Generator) -> list[int]:
    """Projection-DPP draw of V V^T with one QR per step.

    Each step draws a row proportional to its squared norm (inverse CDF,
    one rng.random() per step, as the library does), eliminates that row
    from the column space and re-orthonormalizes the remaining columns.
    """
    work = v.copy()
    chosen: list[int] = []
    for _ in range(v.shape[1]):
        cdf = np.cumsum(np.einsum("ij,ij->i", work, work))
        u = rng.random() * cdf[-1]
        i = min(int(np.searchsorted(cdf, u, side="right")), cdf.size - 1)
        chosen.append(i)
        j = int(np.argmax(np.abs(work[i, :])))
        pivot_col = work[:, j] / work[i, j]
        work = work - np.outer(pivot_col, work[i, :])
        work = np.delete(work, j, axis=1)
        if work.shape[1]:
            work, _ = np.linalg.qr(work)
    return chosen


def random_psd(rng: np.random.Generator, n: int, rank: int,
               scale: float = 1.0, zero_rows: int = 0) -> np.ndarray:
    """Random PSD matrix of the given rank; optional exact-zero rows."""
    g = rng.standard_normal((n, rank))
    for _ in range(zero_rows):
        g[int(rng.integers(0, n))] = 0.0
    return scale * (g @ g.T)


def inverse_square_psd(n: int = 300, seed: int = 300) -> np.ndarray:
    """Seeded n x n PSD matrix with eigenvalues i^-2, i = 1..n (full rank)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = (q * np.arange(1, n + 1, dtype=np.float64) ** -2.0) @ q.T
    return (m + m.T) / 2.0
