"""Symmetric positive semidefinite matrices and their CUR skeletons.

A PsdMatrix is eigendecomposed once, on construction: the one eigensolve
serves the PSD check, the sampler and the expected-error formula.  It owns
one n x n buffer from parse (or formation) through eigensolve.

A subset S of columns/rows induces the blocks A = M[S,S], B = M[~S,S],
C = M[~S,~S]; the CUR (skeleton) approximation keeps A and B exactly and
replaces C by B A^{-1} B^T, so the error matrix is the Schur complement
C - B A^{-1} B^T, which is PSD; its nuclear norm is its trace.  Both come
from one greedy pivoted Cholesky of M over the rows in S: its factor F has
F F^T = M[:,S] A^{-1} M[S,:], so with W = F[~S], B A^{-1} B^T = W W^T, and
its residual diagonal diag(M - F F^T), zero on S, sums to the error trace
trace(C) - |W|_F^2.  The same factor's pivots multiply to det M[S,S], the
weight with which the volume sampler draws S.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EigensolverError, SingularPivotError, ValidationError, checked_int
from .esp import esp_all
from .spectra import Spectrum, _Owned

__all__ = [
    "PsdMatrix",
    "EigenDecomposition",
    "eigendecompose",
    "optimal_error",
    "invariant_sums",
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
_BLOCK = 128             # side of the block pairs symmetrized in place


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Orthonormal eigenvectors and positive eigenvalues of a PsdMatrix.

    Only the rank r leading pairs are kept; eigenvalues at or below
    RANK_TOL * lambda_max are treated as zero and their columns dropped.
    The constructor checks that there are as many columns of vectors as
    eigenvalues and that the columns are finite and orthonormal to
    ORTHO_TOL, then keeps a read-only C-ordered copy.  PsdMatrix builds its
    own through _of_eigh, which owns eigh's kept columns with neither check
    nor copy.
    """

    vectors: np.ndarray
    eigenvalues: Spectrum

    def __post_init__(self) -> None:
        q = np.asarray(self.vectors, dtype=np.float64)
        if q.ndim != 2:
            raise ValidationError("eigenvector matrix must be 2-D")
        r = self.eigenvalues.n
        if q.shape[1] != r:
            raise ValidationError(f"{q.shape[1]} eigenvector columns for {r} eigenvalues")
        if not np.isfinite(q).all():
            raise ValidationError("eigenvectors must be finite")
        if r:
            gram = q.T @ q
            gram.flat[:: r + 1] -= 1.0
            if np.max(np.abs(gram, out=gram)) > ORTHO_TOL:
                raise ValidationError("eigenvectors are not orthonormal")
            del gram                   # freed before the copy
        q = np.array(q, order="C")
        q.flags.writeable = False
        object.__setattr__(self, "vectors", q)

    @property
    def rank(self) -> int:
        """The number of kept pairs."""
        return self.eigenvalues.n

    @classmethod
    def _of_eigh(cls, vectors: np.ndarray, eigenvalues: Spectrum) -> EigenDecomposition:
        """Take ownership of eigh's kept columns: orthonormal by construction."""
        vectors.flags.writeable = False
        ed = object.__new__(cls)
        vars(ed).update(vectors=vectors, eigenvalues=eigenvalues)
        return ed


@dataclass(frozen=True, eq=False)
class PsdMatrix:
    """A symmetric PSD matrix, validated and eigendecomposed on construction.

    Construction symmetrizes inputs whose asymmetry is within SYM_TOL of
    the overall scale and rejects anything worse; it rejects matrices whose
    smallest eigenvalue is below -PSD_TOL * lambda_max (no projection).
    The one eigensolve that check needs is kept as `eigen`, the rank-r
    decomposition that eigendecompose returns.  The caller's array is
    copied once, and never written or kept; the library hands its own
    arrays over as _Owned.  The checks and (a + a^T) / 2 then run in place
    on that buffer, one (i <= j) block pair at a time, and it becomes the
    read-only `entries` that eigh reads.
    """

    entries: np.ndarray
    lambda_max: float = field(init=False)
    eigen: EigenDecomposition = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a = self.entries
        a = a.array if isinstance(a, _Owned) else np.array(a, dtype=np.float64, order="C")
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ValidationError("matrix must be square and nonempty")
        top, bottom = float(np.max(a)), float(np.min(a))   # not finite if an entry is not
        if not (math.isfinite(top) and math.isfinite(bottom)):
            raise ValidationError("matrix entries must be finite")
        asymmetry = 0.0
        for i, j in itertools.combinations_with_replacement(range(0, a.shape[0], _BLOCK), 2):
            x, y = a[i : i + _BLOCK, j : j + _BLOCK], a[j : j + _BLOCK, i : i + _BLOCK]
            d = np.subtract(x, y.T)
            asymmetry = max(asymmetry, float(np.max(np.abs(d, out=d))))
            x[...] = np.divide(np.add(x, y.T, out=d), 2.0, out=d)
            y[...] = d.T
        if asymmetry > SYM_TOL * max(top, -bottom, 1e-300):
            raise ValidationError(
                f"matrix is not symmetric (max asymmetry {asymmetry:.3g})")
        try:
            w, v = np.linalg.eigh(a)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
        lam_max = max(float(w[-1]), 0.0)
        if float(w[0]) < -PSD_TOL * lam_max:
            raise ValidationError(
                f"matrix is not PSD: smallest eigenvalue {w[0]:.3g} "
                f"below -{PSD_TOL:g} * lambda_max")
        w = w[::-1]
        r = int(np.count_nonzero(w > RANK_TOL * lam_max)) if lam_max > 0.0 else 0
        v = v[:, ::-1][:, :r].copy()   # contiguous; frees eigh's n x n vectors
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "lambda_max", lam_max)
        object.__setattr__(self, "eigen", EigenDecomposition._of_eigh(v, Spectrum(_Owned(w[:r]))))

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])


def eigendecompose(m: PsdMatrix) -> EigenDecomposition:
    """Eigendecomposition with eigenvalues sorted nonincreasing.

    Computed once, when m was constructed; this returns that result.
    """
    return m.eigen


def optimal_error(spec: Spectrum, k: int) -> float:
    """Nuclear-norm error of the best rank-k approximation: the tail sum."""
    return spec.tail_sum(k)


def invariant_sums(m: PsdMatrix, up_to: int) -> np.ndarray:
    """(c_0, ..., c_{up_to}): sums of j x j principal minors of m.

    Computed as elementary symmetric polynomials of the eigenvalues; the
    exhaustive minor enumeration is kept in the test suite as the oracle.
    """
    up_to = checked_int(up_to, "up_to", 0, m.n)
    return np.asarray(esp_all(eigendecompose(m).eigenvalues, up_to).coeffs)


def _checked_subset(subset: Iterable[int], n: int) -> tuple[int, ...]:
    s = tuple(sorted(checked_int(i, "subset index", 0, n - 1) for i in subset))
    if len(s) == 0:
        raise ValidationError("subset must be nonempty")
    if len(set(s)) != len(s):
        raise ValidationError("subset indices must be distinct")
    return s


def _subset_factor(
    m: PsdMatrix, s: Sequence[int], floor: float
) -> tuple[list[float], np.ndarray, np.ndarray]:
    """Greedy left-looking pivoted Cholesky of M over the rows in s.

    d starts as diag(M).  Each step pivots on the row i in s with the
    largest residual diagonal d[i] and stops once that is at most floor;
    it records the pivot d[i], appends the factor column
    c = (M[:, i] - F F[i]^T) / sqrt(d[i]) to F and subtracts c*c from d,
    which zeroes d[i]; d is clamped at zero.  Returns (pivots, d, F) with
    F F^T = M[:, S] A^{-1} M[S, :] for A = M[S,S] when all |s| pivots
    clear the floor, and d = diag(M - F F^T), zero on S.  The rows of
    the symmetric entries serve as its columns.
    """
    d = m.entries.diagonal().copy()
    factor = np.empty((m.n, len(s)))
    pivots: list[float] = []
    for t in range(len(s)):
        i = s[int(np.argmax(d.take(s)))]
        if not d[i] > floor:
            break
        pivots.append(float(d[i]))
        c = (m.entries[i] - factor[:, :t] @ factor[i, :t]) / math.sqrt(d[i])
        factor[:, t] = c
        d -= c * c
        d[i] = 0.0
        np.maximum(d, 0.0, out=d)
    return pivots, d, factor[:, : len(pivots)]


def _skeleton(
    m: PsdMatrix, subset: Iterable[int]
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """S, the residual diagonal d and the factor F of M on a nonsingular S.

    The floor is PIVOT_REL_TOL times the largest diagonal of M[S,S].  A
    full subset gives d = 0 and an empty F without factoring.
    """
    s = _checked_subset(subset, m.n)
    if len(s) == m.n:
        return s, np.zeros(m.n), np.zeros((m.n, 0))
    floor = PIVOT_REL_TOL * max(float(np.max(m.entries.diagonal().take(s))), 0.0)
    pivots, d, factor = _subset_factor(m, s, floor)
    if len(pivots) < len(s):
        raise SingularPivotError(
            f"pivot block is singular at step {len(pivots) + 1} of {len(s)}")
    return s, d, factor


def cur_approximation(m: PsdMatrix, subset: Iterable[int]) -> np.ndarray:
    """Skeleton approximation keeping the rows/columns in subset exactly.

    A read-only array, not a PsdMatrix: it is PSD by construction.
    """
    s, _, factor = _skeleton(m, subset)
    comp = np.setdiff1d(np.arange(m.n), s)
    out = m.entries.copy()
    w = factor[comp]
    out[np.ix_(comp, comp)] = w @ w.T
    out.flags.writeable = False
    return out


def cur_error_nuclear(m: PsdMatrix, subset: Iterable[int]) -> float:
    """Nuclear norm of the skeleton error: trace of the Schur complement."""
    return float(np.sum(_skeleton(m, subset)[1]))


def gram_matrix(data: np.ndarray) -> PsdMatrix:
    """M = X^T X for a data array with samples as rows."""
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError("data array must be 2-D")
    return PsdMatrix(_Owned(x.T @ x))


def rbf_kernel_matrix(data: np.ndarray, sigma: float) -> PsdMatrix:
    """Gaussian kernel exp(-|x_i - x_j|^2 / (2 sigma^2)) over sample rows."""
    if not sigma > 0.0:
        raise ValidationError("sigma must be positive")
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError("data array must be 2-D")
    sq = np.sum(x * x, axis=1)
    k = x @ x.T
    k *= 2.0
    np.clip(np.subtract(np.add.outer(sq, sq), k, out=k), 0.0, None, out=k)
    np.divide(np.negative(k, out=k), 2.0 * sigma * sigma, out=k)
    return PsdMatrix(_Owned(np.exp(k, out=k)))


def read_array(path: str | Path) -> np.ndarray:
    """Read a 2-D array: one row per line, whitespace- or comma-separated.

    Blank lines are skipped; there is no comment syntax.  A malformed file
    is reported at its first bad token or ragged row, by 1-based line.
    Streamed into numpy's reader, the parse holds the array, not the text.
    """
    try:
        with open(path) as file:
            lines = _lines(file)
            head = next((line for line in lines if line.strip()), None)
            if head is None:
                raise ValidationError(f"matrix file {path} is empty")
            try:
                return np.loadtxt(itertools.chain([head], lines), ndmin=2, comments=None)
            except ValueError as exc:
                with open(path) as again:
                    where = _first_fault(_lines(again)) or exc
                raise ValidationError(f"malformed matrix file {path}: {where}") from exc
    except (OSError, UnicodeError) as exc:
        raise ValidationError(f"cannot read matrix file {path}: {exc}") from exc


def _lines(file: Iterable[str]) -> Iterator[str]:
    """A text file's lines, commas made spaces, split as str.splitlines splits its text."""
    for line in file:
        yield from line.replace(",", " ").splitlines()


def _first_fault(lines: Iterable[str]) -> str | None:
    """Where numpy's reader fails on lines, named by the file's line.

    numpy counts rows after skipping blank lines, so its locations are not
    the file's; its tokenizer splits on the same whitespace as str.split.
    """
    width = None
    for number, line in enumerate(lines, 1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            np.loadtxt([line], comments=None)
        except ValueError:
            for column, token in enumerate(tokens, 1):
                try:
                    np.loadtxt([token], comments=None)
                except ValueError:
                    return (f"line {number}, column {column}: "
                            f"could not convert string {token!r} to float64")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            return (f"line {number}: the number of columns changed "
                    f"from {width} to {len(tokens)}")
    return None


def load_matrix(path: str | Path) -> PsdMatrix:
    """Read a symmetric PSD matrix from a text file."""
    return PsdMatrix(_Owned(read_array(path)))
