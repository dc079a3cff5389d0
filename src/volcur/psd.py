"""Symmetric positive semidefinite matrices and their CUR skeletons.

A PsdMatrix is eigendecomposed once, on construction, and carries its
eigenpairs: the one eigensolve serves the PSD check, the sampler and the
expected-error formula.  It owns one n x n buffer from parse (or
formation) through eigensolve.  The library computes every eigensolve and
writes no file; the volcur command, which caches its inputs, hands a stored
eigenpair back through _Solved, and every check that follows eigh runs on it.

A subset S of columns/rows induces the blocks A = M[S,S], B = M[~S,S],
C = M[~S,~S]; the CUR (skeleton) approximation keeps A and B exactly and
replaces C by B A^{-1} B^T, so the error matrix is the Schur complement
C - B A^{-1} B^T, which is PSD; its nuclear norm is its trace.  Both come
from one greedy pivoted Cholesky of M over the rows in S: its factor F has
F F^T = M[:,S] A^{-1} M[S,:], so with W = F[~S], B A^{-1} B^T = W W^T, and
its residual diagonal diag(M - F F^T), zero on S, sums to the error trace
trace(C) - |W|_F^2.  The same factor's pivots multiply to det M[S,S], the
weight with which the volume sampler draws S.  One kernel factors a batch
of subsets at once: per step, one argmax, matmul and masked square root.
It alone judges S singular: at a pivot <= PIVOT_REL_TOL * max diag M[S,S].
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError, checked_int
from .spectra import Spectrum, _Owned, _read_table

__all__ = [
    "PsdMatrix",
    "optimal_error",
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
_BLOCK = 128             # side of the block pairs symmetrized in place


class _Solved(NamedTuple):
    """PsdMatrix's input where the caller keeps eigh's pair: arrays is [a], a library-built
    array that PsdMatrix checks and symmetrizes in place, then extends with eigh's (w, v),
    or [a, w, v] as such a run left it, from which only the checks after eigh run."""

    arrays: list


@dataclass(frozen=True, eq=False)
class PsdMatrix:
    """A symmetric PSD matrix, validated and eigendecomposed on construction.

    Construction symmetrizes inputs whose asymmetry is within SYM_TOL of
    the overall scale and rejects anything worse; it rejects matrices whose
    smallest eigenvalue is below -PSD_TOL * lambda_max (no projection), and
    refuses with NumericalError ("overflow") a matrix whose eigenvalues
    leave double range.  The one eigensolve that check needs (np.linalg.eigh,
    on every construction) is kept as the rank-r eigenpairs: `eigenvalues`, the r
    largest, a Spectrum (an eigenvalue at or below RANK_TOL * lambda_max
    counts as zero and is dropped), and `vectors`, eigh's orthonormal
    columns for them, n x r, C-ordered and read-only.  The caller's array
    is copied once, and never written or kept; the library hands its own
    arrays over as _Owned.  The checks and (a + a^T) / 2 (a / 2 + a^T / 2
    where the sum overflows) then run in place on that buffer, one (i <= j)
    block pair at a time, and it becomes the read-only `entries` eigh reads.
    """

    entries: np.ndarray
    vectors: np.ndarray = field(init=False, repr=False)
    eigenvalues: Spectrum = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a = self.entries
        arrays = a.arrays if isinstance(a, _Solved) else [
            a.array if isinstance(a, _Owned) else np.array(a, dtype=np.float64, order="C")]
        if len(arrays) == 1:
            _symmetrize(a := arrays[0])
            try:
                arrays += np.linalg.eigh(a)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"eigensolver did not converge: {exc}") from exc
        a, w, v = arrays
        if not np.isfinite(w).all():
            raise NumericalError("matrix eigenvalues overflow double precision")
        lam_max = max(float(w[-1]), 0.0)
        if float(w[0]) < -PSD_TOL * lam_max:
            raise ValidationError(
                f"matrix is not PSD: smallest eigenvalue {w[0]:.3g} "
                f"below -{PSD_TOL:g} * lambda_max")
        w = w[::-1]
        r = int(np.count_nonzero(w > RANK_TOL * lam_max)) if lam_max > 0.0 else 0
        v = v[:, ::-1][:, :r].copy()   # contiguous; eigh's n x n vectors are not kept
        a.flags.writeable = v.flags.writeable = False
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "eigenvalues", Spectrum(_Owned(w[:r])))

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])

    @property
    def rank(self) -> int:
        """The number of kept eigenpairs."""
        return self.eigenvalues.n

    @property
    def lambda_max(self) -> float:
        """The largest eigenvalue, 0 at rank 0."""
        return self.eigenvalues._entry(0)


def _symmetrize(a: np.ndarray) -> None:
    """Refuse a unless finite, square, nonempty and symmetric within SYM_TOL; symmetrize it."""
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValidationError("matrix must be square and nonempty")
    top, bottom = float(np.max(a)), float(np.min(a))   # not finite if an entry is not
    if not (math.isfinite(top) and math.isfinite(bottom)):
        raise ValidationError("matrix entries must be finite")
    asymmetry = 0.0
    with np.errstate(over="ignore"):       # a block whose sum overflows is halved first
        for i, j in itertools.combinations_with_replacement(range(0, a.shape[0], _BLOCK), 2):
            x, y = a[i : i + _BLOCK, j : j + _BLOCK], a[j : j + _BLOCK, i : i + _BLOCK]
            d = np.subtract(x, y.T)
            asymmetry = max(asymmetry, float(np.max(np.abs(d, out=d))))
            np.add(x, y.T, out=d)
            x[...] = np.divide(d, 2.0, out=d) if np.isfinite(d).all() else x / 2.0 + y.T / 2.0
            y[...] = x.T
    if asymmetry > SYM_TOL * max(top, -bottom, 1e-300):
        raise ValidationError(f"matrix is not symmetric (max asymmetry {asymmetry:.3g})")


# Unexported: perfbench/tracer.py, which binds it with getattr, is its only user.
def eigendecompose(m: PsdMatrix) -> tuple[np.ndarray, Spectrum]:
    """(vectors, eigenvalues), eigenvalues sorted nonincreasing.

    Computed once, when m was constructed; this returns that result.
    """
    return m.vectors, m.eigenvalues


def optimal_error(spec: Spectrum, k: int) -> float:
    """Nuclear-norm error of the best rank-k approximation: the tail sum."""
    return spec.tail_sum(k)


def _checked_subset(subset: Iterable[int], n: int) -> np.ndarray:
    """subset as a sorted 1 x k index array of distinct indices in 0..n-1, k >= 1."""
    s = sorted(checked_int(i, "subset index", 0, n - 1) for i in subset)
    if len(s) == 0:
        raise ValidationError("subset must be nonempty")
    if len(set(s)) != len(s):
        raise ValidationError("subset indices must be distinct")
    return np.array([s], dtype=np.intp)


def _subset_factor(m: PsdMatrix, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy left-looking pivoted Cholesky of M over each row S of s, a b x k index array.

    Each step pivots row r on the first i in S with the largest residual
    d[r, i] (d starts as diag M), records it, appends c = (M[i] - F F[i]^T)
    / sqrt(d[r, i]) to F, subtracts c*c from d, zeroes d[r, i] and clamps
    d at zero.  From its first pivot at or below PIVOT_REL_TOL * max(max diag
    M[S,S], 0) a row is singular and runs on masked: pivots and columns 0, d
    kept.  Returns pivots, d and F (b x k, b x n, b x n x k); where the last
    pivot is positive, F F^T = M[:, S] M[S,S]^-1 M[S, :] and d = diag(M - F F^T).
    """
    (b, k), rows = s.shape, np.arange(len(s))
    d = np.repeat(m.entries.diagonal()[None], b, axis=0)
    floor = PIVOT_REL_TOL * np.maximum(m.entries.diagonal()[s].max(axis=1), 0.0)
    pivots, factor, live = np.zeros((b, k)), np.zeros((b, m.n, k)), np.ones(b, dtype=bool)
    for t in range(k):
        i = s[rows, np.argmax(np.take_along_axis(d, s, axis=1), axis=1)]
        p = d[rows, i]
        live &= p > floor
        pivots[live, t] = p[live]
        c = m.entries[i] - np.matmul(factor[:, :, :t], factor[rows, i, :t, None])[:, :, 0]
        root = np.sqrt(p, out=np.ones(b), where=live)[:, None]
        factor[:, :, t] = c = np.divide(c, root, out=np.zeros_like(c), where=live[:, None])
        d -= c * c
        d[rows[live], i[live]] = 0.0
        np.maximum(d, 0.0, out=d, where=live[:, None])
    return pivots, d, factor


def _skeleton(m: PsdMatrix, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_subset_factor over each row S of s; NumericalError at the first S that is singular."""
    pivots, d, factor = _subset_factor(m, s)
    short = np.flatnonzero(~(pivots[:, -1] > 0.0))
    if short.size:
        step = np.count_nonzero(pivots[short[0]]) + 1
        raise NumericalError(f"pivot block is singular at step {step} of {s.shape[1]}")
    return pivots, d, factor


def cur_approximation(m: PsdMatrix, subset: Iterable[int]) -> np.ndarray:
    """Skeleton approximation keeping the rows/columns in subset exactly.

    A read-only array, not a PsdMatrix: it is PSD by construction (M for a full subset).
    """
    s = _checked_subset(subset, m.n)
    comp = np.setdiff1d(np.arange(m.n), s)
    out = m.entries.copy()
    if comp.size:
        w = _skeleton(m, s)[2][0, comp]
        out[np.ix_(comp, comp)] = w @ w.T
    out.flags.writeable = False
    return out


def cur_error_nuclear(m: PsdMatrix, subset: Iterable[int]) -> float:
    """Nuclear norm of the skeleton error: trace of the Schur complement.

    inf, without a warning, when the trace overflows double precision.
    """
    s = _checked_subset(subset, m.n)
    with np.errstate(over="ignore"):
        return 0.0 if s.size == m.n else float(np.sum(_skeleton(m, s)[1]))


def _data_array(data: np.ndarray) -> np.ndarray:
    """data as a 2-D float64 array of sample rows, refused unless every entry is finite."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError("data array must be 2-D")
    if not np.isfinite(x).all():
        raise ValidationError("data array entries must be finite")
    return x


def gram_matrix(data: np.ndarray) -> PsdMatrix:
    """M = X^T X for sample rows; NumericalError, not a numpy warning, if it overflows."""
    return PsdMatrix(_Owned(_gram(data)))


def _gram(data: np.ndarray) -> np.ndarray:
    """gram_matrix's entries, before PsdMatrix checks them."""
    x = _data_array(data)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below, not warned of
        m = x.T @ x
    if not np.isfinite(m).all():
        raise NumericalError("X^T X overflows double precision")
    return m


def rbf_kernel_matrix(data: np.ndarray, sigma: float) -> PsdMatrix:
    """Gaussian kernel exp(-|x_i - x_j|^2 / (2 sigma^2)) over sample rows.

    The data and sigma are scaled by one exact power of two 2^-e, so that
    s = sigma 2^-e lies in [1/2, 1) unless the data needs a larger e to keep
    its sums of squares in range; where nothing under- or overflows, entries
    of distinct rows keep their unscaled bits, and those of equal rows are 1.
    ValidationError where 2 s^2 and the squared distance of two distinct
    rows both underflow to 0.
    """
    return PsdMatrix(_Owned(_rbf_kernel(data, sigma)))


def _rbf_kernel(data: np.ndarray, sigma: float) -> np.ndarray:
    """rbf_kernel_matrix's entries, before PsdMatrix checks them."""
    if not sigma > 0.0:
        raise ValidationError("sigma must be positive")
    x = _data_array(data)
    # |x 2^-e| < 2^t with 4 d 4^t <= 2^1023
    t = (1021 - math.ceil(math.log2(max(x.shape[1], 1)))) // 2
    e = max(math.frexp(sigma)[1], math.frexp(float(np.max(np.abs(x), initial=0.0)))[1] - t)
    y, s = np.ldexp(x, -e), math.ldexp(sigma, -e)
    sq = np.sum(y * y, axis=1)
    k = y @ y.T
    k *= 2.0
    np.clip(np.subtract(np.add.outer(sq, sq), k, out=k), 0.0, None, out=k)
    row = np.unique(x, axis=0, return_inverse=True)[1].ravel()   # equal rows, one label
    k[row[:, None] == row] = 0.0     # |x_i - x_j|^2 of equal rows, where the sums leave a residue
    if 2.0 * s * s == 0.0 and ((k == 0.0) & (row[:, None] != row)).any():
        raise ValidationError(f"sigma = {sigma:g} is too small for the data's range: scaled "
                              "to fit it, 2 sigma^2 and the squared distance of two "
                              "distinct points both underflow to 0")
    # a quotient past range is -inf, whose exp 0 is the kernel's limit
    with np.errstate(over="ignore", divide="ignore"):
        np.divide(k, -2.0 * s * s, out=k, where=k > 0.0)
    return np.exp(k, out=k)


def read_array(path: str | Path) -> np.ndarray:
    """Read a 2-D array from a matrix file, text or .npy, as spectra._read_table reads it."""
    return _read_table(path, "matrix")


def load_matrix(path: str | Path) -> PsdMatrix:
    """Read a symmetric PSD matrix from a text or .npy file."""
    return PsdMatrix(_Owned(read_array(path)))
