"""Spectra: nonincreasing, nonnegative eigenvalue sequences.

Every reader takes a Spectrum's entries one chunk at a time (_chunk).  A
spectrum read from a file or an eigensolve is held dense in double
precision, read-only, and a chunk is a view of it.  A generated one
(geom:, pow:) holds no entries: each chunk is computed on demand by
direct formula (no repeated multiplication, so values do not drift at
large n) and checked as a dense input is, against the entry before it
too.  Its length is capped at DENSE_CAP, so .values, which materializes
every entry once for callers that need one array, always fits.  Tail
sums past a spectrum's length are zero.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import CapExceededError, DegenerateTailError, ValidationError, checked_int

__all__ = [
    "DENSE_CAP",
    "Spectrum",
    "HeadTailSplit",
    "PiecewiseDyadicSpectrum",
    "make_spectrum",
    "generate_geometric",
    "generate_power_law",
    "generate_dyadic",
    "split_head_tail",
    "load_spectrum",
    "parse_generator_spec",
]

# The most entries of a generated spectrum, and of esp_all's output: a
# float64 array of that size takes 8 GiB, and a k = 64 scan of it about 160 s.
DENSE_CAP = 2**30
_CHUNK = 16 * 4096      # entries per read: what the ESP scan holds at once, cache-sized by timing


class _Owned(NamedTuple):
    """An array the library built and hands to a constructor that keeps it:
    validated in place, not copied.  Nothing else may touch it afterwards."""

    array: np.ndarray


def _checked(arr: np.ndarray) -> np.ndarray:
    """arr, unless an entry is not finite, is negative, or exceeds the one before it."""
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError("spectrum entries must be finite")
    if arr.size and arr[-1] < 0.0:
        raise ValidationError("spectrum entries must be nonnegative")
    if np.any(arr[1:] > arr[:-1]):
        raise ValidationError("spectrum must be nonincreasing")
    return arr


class Spectrum:
    """A sorted (nonincreasing) sequence of nonnegative reals, read-only.

    Its input is checked and copied, unless the library hands over its own
    as _Owned; Spectrum._generated builds one from a formula instead.
    """

    def __init__(self, values) -> None:
        arr = values.array if isinstance(values, _Owned) else np.array(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValidationError("spectrum must be one-dimensional")
        _checked(arr).flags.writeable = False
        self.n = int(arr.size)
        self.values = arr              # held: fills the cached property below

    @classmethod
    def _generated(cls, n: int, entries: Callable[[int, int], np.ndarray]) -> Spectrum:
        """n entries, entries(lo, hi) being a fresh array of those at lo..hi-1."""
        spec = cls.__new__(cls)
        spec.n, spec._entries = n, entries
        return spec

    @cached_property
    def values(self) -> np.ndarray:
        """All n entries as one read-only array, computed here once if generated."""
        arr = self._chunk(0, self.n)
        arr.flags.writeable = False
        return arr

    def _chunk(self, lo: int, hi: int) -> np.ndarray:
        """Entries lo..min(hi, n)-1: a view of the values once held, else
        computed and checked together with the entry before lo."""
        if "values" in vars(self):
            return self.values[lo:hi]
        start = max(lo - 1, 0)
        return _checked(self._entries(start, min(hi, self.n)))[lo - start :]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """np.asarray(spectrum) is the values, materialized."""
        if copy:
            return np.array(self.values, dtype=dtype)
        return np.asarray(self.values, dtype=dtype)

    def _entry(self, i: int) -> float:
        """The entry at 0-based position i, zero past the end."""
        return float(self._chunk(i, i + 1)[0]) if i < self.n else 0.0

    @property
    def rank(self) -> int:
        """Number of strictly positive entries: they lead, so bisect for the first zero."""
        lo, hi = 0, self.n
        while lo < hi:
            mid = (lo + hi) // 2
            if self._entry(mid) > 0.0:
                lo = mid + 1
            else:
                hi = mid
        return lo

    @cached_property
    def _chunk_sums(self) -> np.ndarray:
        """The sum of each chunk of _CHUNK entries, in order."""
        return np.array([self._chunk(lo, lo + _CHUNK).sum() for lo in range(0, self.n, _CHUNK)])

    def tail_sum(self, k: int) -> float:
        """Sum of entries after the first k (zero when k >= n): the rest of
        k's chunk, then the sums of the chunks after it."""
        k = checked_int(k, "k", 0)
        end = (k // _CHUNK + 1) * _CHUNK
        return float(self._chunk(k, end).sum() + self._chunk_sums[end // _CHUNK :].sum())

    def __repr__(self) -> str:
        shown = ", ".join(f"{v:g}" for v in self._chunk(0, 6))
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
    leading entry is 1.  .pieces alone writes that layout out; the ESP product,
    tail sums, domination check and .materialized all read the same numbers.
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
    def pieces(self) -> tuple[tuple[int, int, float], ...]:
        """(start, count, value) of each level, start 0-based: int counts, exact at
        any lmax; values by Python's base**l (numpy's vectorized power can differ)."""
        return tuple((2**level - 1, 2**level, self.base**level) for level in range(self.lmax))

    def _entry(self, i: int) -> float:
        """The entry at 0-based position i, zero past the end: the value of its piece."""
        start, count, value = self.pieces[bisect.bisect_right(self.pieces, (i, float("inf"))) - 1]
        return value if i < start + count else 0.0

    @cached_property
    def materialized(self) -> Spectrum:
        _, counts, values = zip(*self.pieces)
        return Spectrum(_Owned(np.repeat(values, counts)))

    def tail_sum(self, k: int) -> float:
        """Sum of entries after the first k, piece by piece, left to right."""
        k = checked_int(k, "k", 0)
        total = 0.0
        for start, count, value in self.pieces:     # the piece's entries past the first k
            total += max(start + count - max(start, k), 0) * value
        return total


def make_spectrum(values: Iterable[float]) -> Spectrum:
    """Sort values into a Spectrum; rejects empty input and negatives."""
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValidationError("spectrum must contain at least one value")
    return Spectrum(_Owned(np.sort(arr)[::-1]))


def _generated_length(n: int) -> int:
    n = checked_int(n, "n", 1)
    if n > DENSE_CAP:
        raise CapExceededError(
            f"n = {n} exceeds the generated-spectrum cap {DENSE_CAP}")
    return n


def generate_geometric(q: float, n: int) -> Spectrum:
    """Geometric spectrum (1, q, q^2, ..., q^{n-1}), computed chunk by chunk."""
    if not 0.0 < q < 1.0:
        raise ValidationError("q must lie strictly between 0 and 1")

    def entries(lo: int, hi: int) -> np.ndarray:
        values = np.arange(lo, hi, dtype=np.float64)
        return np.power(q, values, out=values)

    return Spectrum._generated(_generated_length(n), entries)


def generate_power_law(p: float, n: int) -> Spectrum:
    """Power-law spectrum (1, 1/2^p, 1/3^p, ..., 1/n^p), computed chunk by chunk."""
    if not p > 0.0:
        raise ValidationError("p must be positive")

    def entries(lo: int, hi: int) -> np.ndarray:
        values = np.arange(lo + 1, hi + 1, dtype=np.float64)
        values **= -float(p)
        return values

    return Spectrum._generated(_generated_length(n), entries)


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
        values = np.loadtxt(tokens, ndmin=1, comments=None)   # numpy's reader, as for matrices
    except ValueError as exc:   # its location counts tokens, not lines: name the token alone
        raise ValidationError(
            f"malformed spectrum file {path}: {str(exc).partition(' at row ')[0]}") from exc
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
