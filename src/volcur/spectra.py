"""Spectra: nonincreasing, nonnegative eigenvalue sequences.

A Spectrum is stored dense in double precision, read-only; tail sums past
its length are zero.  Generators compute entries by direct formula (no
repeated multiplication), so values do not drift at large n.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DegenerateTailError, ValidationError, checked_int

__all__ = [
    "Spectrum",
    "HeadTailSplit",
    "PiecewiseDyadicSpectrum",
    "make_spectrum",
    "generate_geometric",
    "generate_power_law",
    "generate_dyadic",
    "split_head_tail",
    "concat",
    "load_spectrum",
    "parse_generator_spec",
]


class _Owned(NamedTuple):
    """An array the library built and hands to a constructor that keeps it:
    validated in place, not copied.  Nothing else may touch it afterwards."""

    array: np.ndarray


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A sorted (nonincreasing) sequence of nonnegative reals, read-only.

    Its input is copied, unless the library hands over its own as _Owned."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = self.values
        arr = arr.array if isinstance(arr, _Owned) else np.array(arr, dtype=np.float64)
        if arr.ndim != 1:
            raise ValidationError("spectrum must be one-dimensional")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValidationError("spectrum entries must be finite")
        if arr.size and arr[-1] < 0.0:
            raise ValidationError("spectrum entries must be nonnegative")
        if np.any(arr[1:] > arr[:-1]):
            raise ValidationError("spectrum must be nonincreasing")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def rank(self) -> int:
        """Number of strictly positive entries."""
        return int(np.count_nonzero(self.values > 0.0))

    def tail_sum(self, k: int) -> float:
        """Sum of entries after the first k (zero when k >= n)."""
        return float(self.values[checked_int(k, "k", 0):].sum())

    def __repr__(self) -> str:
        shown = ", ".join(f"{v:g}" for v in self.values[:6])
        more = ", ..." if self.n > 6 else ""
        return f"Spectrum([{shown}{more}], n={self.n})"


@dataclass(frozen=True, eq=False)
class HeadTailSplit:
    """A spectrum split after position k: head (k largest values), tail
    (the rest) and the pivot lambda_{k+1}, the tail's leading value."""

    head: Spectrum
    tail: Spectrum
    pivot: float
    k: int


@dataclass(frozen=True, eq=False)
class PiecewiseDyadicSpectrum:
    """Piecewise-constant spectrum with dyadic blocks.

    Level l in 0..lmax-1 spans positions 2^l .. 2^{l+1}-1 (1-based) and
    carries the value base^l, so the total length is 2^lmax - 1 and the
    leading entry is 1.
    """

    lmax: int
    base: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lmax", checked_int(self.lmax, "lmax", 1))
        if not 0.0 < self.base < 1.0:
            raise ValidationError("base must lie strictly between 0 and 1")

    @property
    def n(self) -> int:
        return 2**self.lmax - 1

    @cached_property
    def materialized(self) -> Spectrum:
        levels = np.arange(self.lmax)
        values = np.repeat(self.base ** levels.astype(np.float64), 2**levels)
        return Spectrum(_Owned(values))

    def tail_sum(self, k: int) -> float:
        """Sum of entries after the first k, by level arithmetic."""
        k = checked_int(k, "k", 0)
        total = 0.0
        for level in range(self.lmax):
            lo, hi = 2**level, 2 ** (level + 1) - 1
            count = hi - max(lo, k + 1) + 1
            if count > 0:
                total += count * self.base**level
        return total


def make_spectrum(values: Iterable[float]) -> Spectrum:
    """Sort values into a Spectrum; rejects empty input and negatives."""
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValidationError("spectrum must contain at least one value")
    return Spectrum(_Owned(np.sort(arr)[::-1]))


def generate_geometric(q: float, n: int) -> Spectrum:
    """Geometric spectrum (1, q, q^2, ..., q^{n-1})."""
    if not 0.0 < q < 1.0:
        raise ValidationError("q must lie strictly between 0 and 1")
    n = checked_int(n, "n", 1)
    values = np.arange(n, dtype=np.float64)
    return Spectrum(_Owned(np.power(q, values, out=values)))


def generate_power_law(p: float, n: int) -> Spectrum:
    """Power-law spectrum (1, 1/2^p, 1/3^p, ..., 1/n^p)."""
    if p <= 0.0:
        raise ValidationError("p must be positive")
    n = checked_int(n, "n", 1)
    values = np.arange(1, n + 1, dtype=np.float64)
    values **= -float(p)
    return Spectrum(_Owned(values))


def generate_dyadic(lmax: int, base: float) -> PiecewiseDyadicSpectrum:
    """Piecewise-constant dyadic spectrum; materialize via .materialized."""
    return PiecewiseDyadicSpectrum(lmax=lmax, base=base)


def split_head_tail(s: Spectrum, k: int) -> HeadTailSplit:
    """Split s after its k largest entries.

    The pivot is the (k+1)-st value and must be positive, since the ESP
    calculus renormalizes the tail by it.  Head and tail are views of s.
    """
    k = checked_int(k, "k", 0, s.n - 1)
    pivot = float(s.values[k])
    if pivot <= 0.0:
        raise DegenerateTailError(
            f"tail starting at position {k + 1} is all zero; split undefined")
    head = Spectrum(_Owned(s.values[:k]))
    tail = Spectrum(_Owned(s.values[k:]))
    return HeadTailSplit(head=head, tail=tail, pivot=pivot, k=k)


def concat(a: Spectrum, b: Spectrum) -> Spectrum:
    """Multiset union of two spectra, re-sorted."""
    merged = np.concatenate([a.values, b.values])
    return Spectrum(_Owned(np.sort(merged)[::-1]))


def load_spectrum(path: str | Path) -> Spectrum:
    """Read a spectrum from text: one value per line or comma-separated."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeError) as exc:
        raise ValidationError(f"cannot read spectrum file {path}: {exc}") from exc
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValidationError(f"spectrum file {path} is empty")
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise ValidationError(f"malformed spectrum file {path}: {exc}") from exc
    return make_spectrum(values)


_GENERATOR_KEYS = {
    "geom": ("q", "n"),
    "pow": ("p", "n"),
    "dyadic": ("lmax", "base"),
}


def parse_generator_spec(text: str) -> Spectrum | PiecewiseDyadicSpectrum:
    """Parse a generator spec string.

    Recognized forms: ``geom:q=<f>,n=<int>``, ``pow:p=<f>,n=<int>``,
    ``dyadic:lmax=<int>,base=<f>``.
    """
    kind, sep, body = text.partition(":")
    kind = kind.strip()
    if not sep or kind not in _GENERATOR_KEYS:
        raise ValidationError(
            f"unknown generator spec {text!r}; expected geom:, pow:, or dyadic:")
    params: dict[str, str] = {}
    for item in body.split(","):
        key, eq, value = item.partition("=")
        if not eq:
            raise ValidationError(f"malformed generator parameter {item!r}")
        params[key.strip()] = value.strip()
    expected = _GENERATOR_KEYS[kind]
    if set(params) != set(expected):
        raise ValidationError(
            f"generator {kind!r} needs parameters {expected}, got {sorted(params)}")
    try:
        if kind == "geom":
            return generate_geometric(float(params["q"]), int(params["n"]))
        if kind == "pow":
            return generate_power_law(float(params["p"]), int(params["n"]))
        return generate_dyadic(int(params["lmax"]), float(params["base"]))
    except ValueError as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"malformed generator spec {text!r}: {exc}") from exc
