"""Spectra: nonincreasing, nonnegative eigenvalue sequences.

Every reader takes a Spectrum's entries one chunk at a time (_chunk), or
a run of them as a spectrum of its own (_slice), which holds none and reads
its parent's chunks.  A spectrum read from a file or an eigensolve is held
dense in double precision, read-only; a generated one (geom:, pow:, dyadic:)
computes each chunk on demand by direct formula (no repeated multiplication,
so values do not drift at large n).  Each chunk is checked as a dense input
is, against the entry before it too: its parent's, for a slice's first entry.
Past DENSE_CAP entries, which only a dyadic one may have (its tail sums and
ESP product read its pieces), .values (every entry in one array) and the
ESP scan raise CapExceededError.  Tail sums past the end are zero.
"""
from __future__ import annotations

import bisect
import itertools
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, TextIO

import numpy as np

from .errors import CapExceededError, ValidationError, checked_int

__all__ = [
    "DENSE_CAP",
    "Spectrum",
    "HeadTailSplit",
    "PiecewiseDyadicSpectrum",
    "make_spectrum",
    "generate_geometric",
    "generate_power_law",
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

    Its input is checked, copied (unless handed over as _Owned) and read by
    _entries; Spectrum._generated builds one whose _entries is a formula.
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
        arr = self._chunk(0, _dense_length(self.n))
        arr.flags.writeable = False
        return arr

    def _entries(self, lo: int, hi: int) -> np.ndarray:
        """Entries lo..hi-1 of the values held: a view, read-only."""
        return self.values[lo:hi]

    def _chunk(self, lo: int, hi: int) -> np.ndarray:
        """Entries lo..min(hi, n)-1, checked together with the entry before lo."""
        start = max(lo - 1, 0)
        return _checked(self._entries(start, min(hi, self.n)))[lo - start :]

    def _slice(self, lo: int, hi: int) -> Spectrum:
        """Entries lo..min(hi, n)-1 as a spectrum of their own, holding none: it
        reads this one's chunks, so its first entry meets the one before it here."""
        return Spectrum._generated(max(min(hi, self.n) - lo, 0),
                                   lambda a, b: self._chunk(lo + a, lo + b))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """np.asarray(spectrum) is the values, materialized."""
        if copy:
            return np.array(self.values, dtype=dtype)
        return np.asarray(self.values, dtype=dtype)

    def _entry(self, i: int) -> float:
        """The entry at 0-based position i, zero past the end."""
        return float(self._chunk(i, i + 1)[0]) if i < self.n else 0.0

    @cached_property
    def _chunk_sums(self) -> np.ndarray:
        """The sum of each chunk of _CHUNK entries, in order."""
        return np.array([self._chunk(lo, lo + _CHUNK).sum()
                         for lo in range(0, _dense_length(self.n), _CHUNK)])

    def tail_sum(self, k: int) -> float:
        """Sum of entries after the first k (zero when k >= n, inf past double range)."""
        return self._tail_sums([k])[0]

    def _tail_sums(self, ks: list[int]) -> list[float]:
        """tail_sum at each k in ks: the rest of k's chunk, read once for all
        the ks in it, then the sums of the chunks after it."""
        ks, sums = [checked_int(k, "k", 0) for k in ks], {}
        with np.errstate(over="ignore"):
            for c, group in itertools.groupby(sorted(set(ks)), lambda k: k // _CHUNK):
                chunk = self._chunk(c * _CHUNK, (c + 1) * _CHUNK)
                rest = self._chunk_sums[c + 1 :].sum()
                sums.update((k, float(chunk[k % _CHUNK :].sum() + rest)) for k in group)
        return [sums[k] for k in ks]

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


class PiecewiseDyadicSpectrum(Spectrum):
    """Piecewise-constant spectrum with dyadic blocks: a generated Spectrum.

    Level l in 0..lmax-1 spans positions 2^l .. 2^{l+1}-1 (1-based) and
    carries the value base^l, so the total length is 2^lmax - 1 and the
    leading entry is 1; lmax is at most 1024, so each count fits a double.
    .pieces alone writes that layout out; the entries, tail sums, ESP
    product and domination check all read the same numbers.
    """

    def __init__(self, lmax: int, base: float) -> None:
        self.lmax = checked_int(lmax, "lmax", 1, 1024)
        if not 0.0 < base < 1.0:
            raise ValidationError("base must lie strictly between 0 and 1")
        self.base, self.n = base, 2**self.lmax - 1

    @cached_property
    def pieces(self) -> tuple[tuple[int, int, float], ...]:
        """(start, count, value) of each level, start 0-based: int counts, exact at
        any lmax; values by Python's base**l (numpy's vectorized power can differ)."""
        return tuple((2**level - 1, 2**level, self.base**level) for level in range(self.lmax))

    def _entries(self, lo: int, hi: int) -> np.ndarray:
        """Entries lo..hi-1, each the value of its piece, from the piece holding lo on:
        Python-int positions, so any lmax."""
        out = np.empty(hi - lo)
        first = bisect.bisect_right(self.pieces, (lo, float("inf"))) - 1
        for start, count, value in self.pieces[first:]:
            if start >= hi:
                break
            out[max(start, lo) - lo : min(start + count, hi) - lo] = value
        return out

    def tail_sum(self, k: int) -> float:
        """Sum of entries after the first k, piece by piece, left to right."""
        k = checked_int(k, "k", 0)
        total = 0.0
        for start, count, value in self.pieces:     # the piece's entries past the first k
            total += max(start + count - max(start, k), 0) * value
        return total

    def _tail_sums(self, ks: list[int]) -> list[float]:
        """tail_sum at each k in ks: no entries to share."""
        return [self.tail_sum(k) for k in ks]


def make_spectrum(values: Iterable[float]) -> Spectrum:
    """Sort values into a Spectrum; rejects empty input and negatives."""
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValidationError("spectrum must contain at least one value")
    return Spectrum(_Owned(np.sort(arr)[::-1]))


def _dense_length(n: int) -> int:
    """n, refused above DENSE_CAP: the most entries held at once or read one by one."""
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

    return Spectrum._generated(_dense_length(checked_int(n, "n", 1)), entries)


def generate_power_law(p: float, n: int) -> Spectrum:
    """Power-law spectrum (1, 1/2^p, 1/3^p, ..., 1/n^p), computed chunk by chunk."""
    if not p > 0.0:
        raise ValidationError("p must be positive")

    def entries(lo: int, hi: int) -> np.ndarray:
        values = np.arange(lo + 1, hi + 1, dtype=np.float64)
        values **= -float(p)
        return values

    return Spectrum._generated(_dense_length(checked_int(n, "n", 1)), entries)


def split_head_tail(s: Spectrum, k: int) -> HeadTailSplit:
    """Split s after its k largest entries.

    The pivot is the (k+1)-st value and must be positive, since the ESP
    calculus renormalizes the tail by it.  Head and tail read s by chunks
    (Spectrum._slice): neither materializes s.
    """
    k = checked_int(k, "k", 0, s.n - 1)
    pivot = s._entry(k)
    if pivot <= 0.0:
        raise ValidationError(
            f"tail starting at position {k + 1} is all zero; split undefined")
    return HeadTailSplit(head=s._slice(0, k), tail=s._slice(k, s.n), pivot=pivot, k=k)


def load_spectrum(path: str | Path) -> Spectrum:
    """Read a spectrum from text: one line of values, or one value per line, in a
    matrix file's grammar (_read_table), or from an .npy file of one row or column.
    A table of 2+ rows and columns is refused."""
    return _table_spectrum(_read_table(path, "spectrum"), path)


def _table_spectrum(table: np.ndarray, path: str | Path) -> Spectrum:
    """load_spectrum's spectrum of the table read from path."""
    if min(table.shape) > 1:
        raise ValidationError(f"spectrum file {path} holds a {table.shape[0]} x {table.shape[1]} "
                              "table; give one line of values, or one value per line")
    return make_spectrum(table)


def _read_table(path: str | Path, what: str, file: TextIO | None = None) -> np.ndarray:
    """A 2-D array from a text file: one row per line, whitespace- or comma-separated;
    from a file named *.npy, the 2-D float64 array it holds, read as np.load reads one,
    with no unpickling, C-ordered and writable.

    Blank lines are skipped; there is no comment syntax.  A malformed file is
    reported at its first bad token or ragged row, by 1-based line, and named
    a `what` file.  Fed to numpy's reader 64 Ki characters at a time, the parse
    holds the array, not the text (0.2 MB beside a 1000 x 1000 matrix's 8 MB).
    The file is opened once, a pipe too: numpy's reader converts each line
    before it takes the next, so a fault lies on the last line it took.  A caller
    that opened path already, as text, passes that file: read from its start, left open.
    """
    at = [0, [], iter(())]      # lines before the block in hand, its lines, their iterator
    head = None                 # a text file's first row
    try:
        with open(path) if file is None else nullcontext(file) as file:
            if Path(path).suffix == ".npy":
                table = np.lib.format.read_array(file.buffer, allow_pickle=False)
                if table.ndim != 2 or table.dtype != np.float64:
                    raise ValueError(f"it holds a {table.ndim}-D {table.dtype} array, "
                                     "not a 2-D float64 one")
                return np.ascontiguousarray(table)
            lines = _lines(file, at)
            if (head := next((line for line in lines if line.strip()), None)) is not None:
                return np.loadtxt(itertools.chain([head], lines), ndmin=2, comments=None)
    except (OSError, UnicodeError) as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from exc
    except ValueError as exc:
        taken = len(at[1]) - len(list(at[2]))       # of the block's lines, the reader took these
        where = head and _fault(at[0] + taken, at[1][taken - 1], len(head.split())) or exc
        raise ValidationError(f"malformed {what} file {path}: {where}") from exc
    raise ValidationError(f"{what} file {path} is empty")


def _lines(file: TextIO, at: list) -> Iterator[str]:
    """A text file's lines, commas made spaces, split as str.splitlines splits its text;
    at holds the number of lines before the current block, its lines and their iterator."""
    while text := file.read(1 << 16):
        lines = (text + file.readline()).replace(",", " ").splitlines()
        at[:] = at[0] + len(at[1]), lines, iter(lines)
        yield from at[2]


def _fault(number: int, line: str, width: int) -> str | None:
    """File line `number` named at its first token outside numpy's float grammar, else at
    a width other than the head row's; numpy's own message counts nonblank rows."""
    tokens = line.split()
    for column, token in enumerate(tokens, 1):
        try:
            np.loadtxt([token], comments=None)
        except ValueError:
            return (f"line {number}, column {column}: "
                    f"could not convert string {token!r} to float64")
    if len(tokens) != width:
        return f"line {number}: the number of columns changed from {width} to {len(tokens)}"
    return None


_GENERATOR_KEYS = {
    "geom": ("q", "n"),
    "pow": ("p", "n"),
    "dyadic": ("lmax", "base"),
}


def parse_generator_spec(text: str) -> Spectrum:
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
        key = key.strip()
        if key in params:
            raise ValidationError(f"generator parameter {key!r} is given twice")
        params[key] = value.strip()
    expected = _GENERATOR_KEYS[kind]
    if set(params) != set(expected):
        raise ValidationError(
            f"generator {kind!r} needs parameters {expected}, got {sorted(params)}")
    try:
        if kind == "geom":
            return generate_geometric(float(params["q"]), int(params["n"]))
        if kind == "pow":
            return generate_power_law(float(params["p"]), int(params["n"]))
        return PiecewiseDyadicSpectrum(int(params["lmax"]), float(params["base"]))
    except ValueError as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"malformed generator spec {text!r}: {exc}") from exc
