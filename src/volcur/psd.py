"""Symmetric positive semidefinite matrices and their CUR skeletons.

A subset S of columns/rows induces the blocks A = M[S,S], B = M[~S,S],
C = M[~S,~S]; the CUR (skeleton) approximation keeps A and B exactly and
replaces C by B A^{-1} B^T, so the error matrix is the Schur complement
C - B A^{-1} B^T, which is PSD; its nuclear norm is its trace.  Both come
from one factor: with A = L L^T and W = L^{-1} B^T, B A^{-1} B^T = W^T W and
the error trace is trace(C) - |W|_F^2.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (
    EigensolverError,
    SingularPivotError,
    ValidationError,
)
from .esp import esp_all
from .spectra import Spectrum

__all__ = [
    "PsdMatrix",
    "EigenDecomposition",
    "eigendecompose",
    "optimal_error",
    "invariant_sums",
    "pivoted_cholesky",
    "cur_approximation",
    "cur_error_nuclear",
    "gram_matrix",
    "rbf_kernel_matrix",
    "read_array",
    "load_matrix",
]

PSD_TOL = 1e-10          # relative floor on the smallest eigenvalue
SYM_TOL = 1e-10          # relative asymmetry accepted before symmetrizing
RANK_TOL = 1e-12         # relative eigenvalue cutoff defining rank
PIVOT_REL_TOL = 1e-14    # Cholesky pivot breakdown, relative to scale
ORTHO_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PsdMatrix:
    """A symmetric PSD matrix, validated on construction.

    Construction symmetrizes inputs whose asymmetry is within SYM_TOL of
    the overall scale and rejects anything worse; it rejects matrices whose
    smallest eigenvalue is below -PSD_TOL * lambda_max (no projection).
    """

    entries: np.ndarray
    lambda_max: float = field(init=False)

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValidationError("matrix must be square and nonempty")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("matrix entries must be finite")
        scale = float(np.max(np.abs(arr)))
        asymmetry = float(np.max(np.abs(arr - arr.T)))
        if asymmetry > SYM_TOL * max(scale, 1e-300):
            raise ValidationError(
                f"matrix is not symmetric (max asymmetry {asymmetry:.3g})")
        arr = (arr + arr.T) / 2.0
        eigenvalues = np.linalg.eigvalsh(arr)
        lam_max = max(float(eigenvalues[-1]), 0.0)
        if float(eigenvalues[0]) < -PSD_TOL * lam_max:
            raise ValidationError(
                f"matrix is not PSD: smallest eigenvalue {eigenvalues[0]:.3g} "
                f"below -{PSD_TOL:g} * lambda_max")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "lambda_max", lam_max)

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries))


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Orthonormal eigenvectors and positive eigenvalues of a PsdMatrix.

    Only the rank r leading pairs are kept; eigenvalues at or below
    RANK_TOL * lambda_max are treated as zero and their columns dropped.
    """

    vectors: np.ndarray
    eigenvalues: Spectrum
    rank: int

    def __post_init__(self) -> None:
        q = np.array(self.vectors, dtype=np.float64)
        if q.ndim != 2:
            raise ValidationError("eigenvector matrix must be 2-D")
        r = int(self.rank)
        if q.shape[1] != r or self.eigenvalues.n != r:
            raise ValidationError("rank, eigenvalues, and vectors disagree")
        if r and np.max(np.abs(q.T @ q - np.eye(r))) > ORTHO_TOL:
            raise ValidationError("eigenvectors are not orthonormal")
        q.flags.writeable = False
        object.__setattr__(self, "vectors", q)
        object.__setattr__(self, "rank", r)


def eigendecompose(m: PsdMatrix) -> EigenDecomposition:
    """Eigendecomposition with eigenvalues sorted nonincreasing."""
    try:
        w, v = np.linalg.eigh(m.entries)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    lam_max = max(float(w[0]), 0.0)
    r = int(np.count_nonzero(w > RANK_TOL * lam_max)) if lam_max > 0.0 else 0
    return EigenDecomposition(
        vectors=v[:, :r], eigenvalues=Spectrum(w[:r]), rank=r)


def optimal_error(spec: Spectrum, k: int) -> float:
    """Nuclear-norm error of the best rank-k approximation: the tail sum."""
    if k < 0:
        raise ValidationError("k must be nonnegative")
    return spec.tail_sum(k)


def invariant_sums(m: PsdMatrix, up_to: int) -> np.ndarray:
    """(c_0, ..., c_{up_to}): sums of j x j principal minors of m.

    Computed as elementary symmetric polynomials of the eigenvalues; the
    exhaustive minor enumeration is kept in the test suite as the oracle.
    """
    if not 0 <= up_to <= m.n:
        raise ValidationError(f"need 0 <= up_to <= n, got {up_to}")
    ed = eigendecompose(m)
    return np.asarray(esp_all(ed.eigenvalues, up_to).coeffs)


def _checked_subset(subset: Iterable[int], n: int) -> tuple[int, ...]:
    s = tuple(sorted(int(i) for i in subset))
    if len(s) == 0:
        raise ValidationError("subset must be nonempty")
    if len(set(s)) != len(s):
        raise ValidationError("subset indices must be distinct")
    if s[0] < 0 or s[-1] >= n:
        raise ValidationError(f"subset indices must lie in [0, {n - 1}]")
    return s


def pivoted_cholesky(
    matrix: np.ndarray, pivot_floor: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Diagonally pivoted Cholesky of a symmetric PSD matrix.

    Returns (L, perm, pivots, rank) with M[perm][:, perm] = L L^T on the
    leading rank columns.  Factorization stops once the largest remaining
    diagonal falls to pivot_floor (default: PIVOT_REL_TOL times the largest
    initial diagonal); pivots holds the successive diagonal values.
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    perm = np.arange(n)
    pivots = np.zeros(n)
    if pivot_floor is None:
        pivot_floor = PIVOT_REL_TOL * max(float(np.max(np.diagonal(a), initial=0.0)), 0.0)
    rank = n
    for j in range(n):
        d = np.diagonal(a)
        p = j + int(np.argmax(d[j:]))
        if d[p] <= pivot_floor:
            rank = j
            break
        if p != j:
            a[[j, p], :] = a[[p, j], :]
            a[:, [j, p]] = a[:, [p, j]]
            perm[[j, p]] = perm[[p, j]]
        piv = a[j, j]
        pivots[j] = piv
        root = np.sqrt(piv)
        a[j, j] = root
        a[j + 1 :, j] /= root
        a[j + 1 :, j + 1 :] -= np.outer(a[j + 1 :, j], a[j + 1 :, j])
        a[j, j + 1 :] = 0.0
    return np.tril(a)[:, :rank], perm, pivots[:rank], rank


def _whitened(m: PsdMatrix, subset: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """Complement indices and W = L^{-1} B^T, where A = L L^T.

    A full subset gives an empty W without factoring A.
    """
    s = np.array(_checked_subset(subset, m.n))
    comp = np.setdiff1d(np.arange(m.n), s)
    if comp.size == 0:
        return comp, np.zeros((s.size, 0))
    lower, perm, _, rank = pivoted_cholesky(m.entries[np.ix_(s, s)])
    if rank < s.size:
        raise SingularPivotError(
            f"pivot block is singular at step {rank + 1} of {s.size}")
    return comp, _whiten(m, s, comp, lower, perm)


def _whiten(
    m: PsdMatrix, s: np.ndarray, comp: np.ndarray,
    lower: np.ndarray, perm: np.ndarray,
) -> np.ndarray:
    """W = L^{-1} M[S[perm], comp] for a full-rank factor of A = M[S,S]."""
    return np.linalg.solve(lower, m.entries[np.ix_(s[perm], comp)])


def _residual_trace(m: PsdMatrix, comp: np.ndarray, w: np.ndarray) -> float:
    """trace(C) - |W|_F^2: the nuclear norm of the skeleton error."""
    # the error matrix is PSD; roundoff may leave a tiny negative trace
    return max(float(np.sum(m.entries.diagonal()[comp]) - np.sum(w * w)), 0.0)


def cur_approximation(m: PsdMatrix, subset: Iterable[int]) -> PsdMatrix:
    """Skeleton approximation keeping the rows/columns in subset exactly."""
    comp, w = _whitened(m, subset)
    out = m.entries.copy()
    out[np.ix_(comp, comp)] = w.T @ w
    return PsdMatrix(out)


def cur_error_nuclear(m: PsdMatrix, subset: Iterable[int]) -> float:
    """Nuclear norm of the skeleton error: trace of the Schur complement."""
    return _residual_trace(m, *_whitened(m, subset))


def gram_matrix(data: np.ndarray) -> PsdMatrix:
    """M = X^T X for a data array with samples as rows."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError("data array must be 2-D")
    g = x.T @ x
    return PsdMatrix((g + g.T) / 2.0)


def rbf_kernel_matrix(data: np.ndarray, sigma: float) -> PsdMatrix:
    """Gaussian kernel exp(-|x_i - x_j|^2 / (2 sigma^2)) over sample rows."""
    if sigma <= 0.0:
        raise ValidationError("sigma must be positive")
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError("data array must be 2-D")
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.clip(d2, 0.0, None, out=d2)
    k = np.exp(-d2 / (2.0 * sigma * sigma))
    return PsdMatrix((k + k.T) / 2.0)


def read_array(path: str | Path) -> np.ndarray:
    """Read a 2-D array: one row per line, whitespace- or comma-separated."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read matrix file {path}: {exc}") from exc
    rows: list[list[float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            rows.append([float(t) for t in stripped.replace(",", " ").split()])
        except ValueError as exc:
            raise ValidationError(
                f"malformed matrix file {path} at line {lineno}: {exc}") from exc
    if not rows:
        raise ValidationError(f"matrix file {path} is empty")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValidationError(f"matrix file {path} has ragged rows")
    return np.array(rows, dtype=np.float64)


def load_matrix(path: str | Path) -> PsdMatrix:
    """Read a symmetric PSD matrix from a text file."""
    return PsdMatrix(read_array(path))
